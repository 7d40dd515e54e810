"""A sweep cell scored from its first scored step on equals the cell
scored from the full simulated trace, bit for bit."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from tentaclelab.actuation import ProgramSpec, build_program
from tentaclelab.cli import CellResult, evaluate_cell
from tentaclelab.config import RunConfig, cell_window, default_config
from tentaclelab.fitting import SHAPES
from tentaclelab.kinematics import tip_positions
from tentaclelab.regressor import forward, init_weights
from tentaclelab.sim import (moving_average, sensor_readout, simulate,
                             thrust_proxy, thrust_series,
                             world_tip_positions)
from tentaclelab.wavemetrics import cod, field_from_states, field_twi, \
    tip_deflection


def reference_cell(cfg, f, A, weights=None):
    """The cell scored from the full `simulate` trace: the world tip and
    thrust of every step, then the scored slices. Under `weights` the
    reconstructed states give the tip, and so the thrust, too."""
    if A == 0.0:
        return CellResult(0.0, 0.0, 0.0, None)
    geom = cfg.build_geometry()
    sw, dt = cfg.sweep, cfg.dataset["dt"]
    prog = build_program(ProgramSpec(
        duration_s=sw["cycles"] / f, dt=dt, amplitude_deg=A,
        frequency_hz=f))
    trace = simulate(prog, cfg.build_sim_params())
    win = cell_window(sw, f, dt)
    if weights is None:
        q, shape = trace.q, "affine"
        tips = tip_positions(q, geom)
    else:
        q = forward(weights, sensor_readout(trace, cfg.build_sensor_model()))
        shape = weights.target
        tips = SHAPES[shape].tips(q, geom)
    tipx = world_tip_positions(tips, trace.base_angle_deg)[:, 0]
    thrust = thrust_series(tipx, trace.dt)
    modes = cod(field_from_states(q[win.start:win.stop:win.step], geom,
                                  sw["n_stations"], dt * win.step,
                                  shape=shape))
    cyc = thrust_proxy(thrust, prog.cycle_index)[sw["transient_cycles"]:]
    return CellResult(thrust_mN=float(moving_average(cyc, 3).mean()),
                      tip_defl_deg=tip_deflection(tipx[win.start:],
                                                  geom.length_mm),
                      twi=field_twi(modes), modes=modes)


def assert_same_cell(cfg, f, A, weights=None):
    got = evaluate_cell(cfg, f, A, weights)
    want = reference_cell(cfg, f, A, weights)
    assert got.twi == want.twi
    assert got.tip_defl_deg == want.tip_defl_deg
    assert got.thrust_mN == want.thrust_mN
    assert np.array_equal(got.modes.modes, want.modes.modes)
    assert np.array_equal(got.modes.eigenvalues, want.modes.eigenvalues)


@pytest.fixture(scope="module")
def weights():
    """A small untrained regressor scaled to the pressure range, so the
    reconstructed states vary with the drive."""
    return init_weights(3, 2, 4, seed=3, in_mean=np.full(3, 101.3),
                        in_std=np.full(3, 5.0))


def first_post_transient_step(cfg, f):
    prog = build_program(ProgramSpec(
        duration_s=cfg.sweep["cycles"] / f, dt=cfg.dataset["dt"],
        amplitude_deg=20.0, frequency_hz=f))
    return int(np.searchsorted(prog.cycle_index,
                               cfg.sweep["transient_cycles"]))


# Off-grid frequencies (Hz): at 0.45 and 1.5 the field window starts one
# step before the first post-transient step, at 2.5 and 4.0 on it.
OFF_GRID = (0.45, 1.5, 2.5, 4.0)


class TestWindowedCell:
    @pytest.mark.parametrize("use_weights", [False, True, "poly"],
                             ids=["true", "weights", "poly"])
    def test_default_grid(self, use_weights, weights):
        # "poly": the same network read as (c2, c3) by the poly shape.
        if use_weights == "poly":
            weights = replace(weights, target="poly")
        cfg = default_config()
        f0 = cfg.build_sim_params().f0_hz
        for A in cfg.sweep["amplitudes_deg"]:
            for r in cfg.sweep["freq_ratios"]:
                assert_same_cell(cfg, r * f0, A,
                                 weights if use_weights else None)

    def test_off_grid_frequencies_cover_both_window_starts(self):
        cfg = default_config()
        dt = cfg.dataset["dt"]
        starts = {cell_window(cfg.sweep, f, dt).start
                  == first_post_transient_step(cfg, f) for f in OFF_GRID}
        assert starts == {True, False}

    @pytest.mark.parametrize("use_weights", [False, True],
                             ids=["true", "weights"])
    @pytest.mark.parametrize("subsample", [1, 4])
    @pytest.mark.parametrize("transient", [0, 1, 10])
    @pytest.mark.parametrize("f", OFF_GRID)
    def test_off_grid(self, f, transient, subsample, use_weights, weights):
        cfg = RunConfig(sweep={"transient_cycles": transient,
                               "subsample": subsample})
        assert cfg.sweep["cycles"] - 2 == 10
        assert_same_cell(cfg, f, 20.0, weights if use_weights else None)

    @pytest.mark.parametrize("use_weights", [False, True],
                             ids=["true", "weights"])
    def test_cell_steps_at_dataset_dt(self, use_weights, weights):
        # The sweep's cells step at dataset.dt, as the training data does.
        cfg = RunConfig(dataset={"dt": 0.004})
        w = weights if use_weights else None
        assert_same_cell(cfg, 1.6, 20.0, w)
        assert evaluate_cell(cfg, 1.6, 20.0, w)[:3] != \
            evaluate_cell(default_config(), 1.6, 20.0, w)[:3]


class TestOneSeries:
    @pytest.mark.parametrize("target", ["affine", "poly"])
    def test_reconstructed_thrust_is_not_the_true_one(self, weights, target):
        # Under weights every score, thrust included, comes from the
        # reconstructed states; the untrained network's tip is not the
        # simulated one.
        cfg = default_config()
        f = 0.5 * cfg.build_sim_params().f0_hz
        true = evaluate_cell(cfg, f, 20.0)
        rec = evaluate_cell(cfg, f, 20.0, replace(weights, target=target))
        assert rec.thrust_mN != true.thrust_mN


class TestCellWarnings:
    @pytest.mark.parametrize("transient", [0, 1, 4, 10])
    @pytest.mark.parametrize("f", [0.32, 1.5, 3.2])
    def test_no_numeric_warnings(self, f, transient, weights):
        cfg = RunConfig(sweep={"transient_cycles": transient})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (None, weights):
                evaluate_cell(cfg, f, 30.0, w)
