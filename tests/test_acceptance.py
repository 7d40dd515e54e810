"""End-to-end acceptance battery for the tentacle proprioception pipeline.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL summary line to the real stdout (bypassing capture) before
asserting, so a full run always shows twelve criterion lines.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

from tentaclelab.bayesopt import SearchSpace, optimize
from tentaclelab.cli import evaluate_cell, simulate_ramp
from tentaclelab.cli import main as cli_main
from tentaclelab.config import CONFIG_SCHEMA, default_config
from tentaclelab.fitting import Centerline, fit_affine, fit_report, \
    poly_targets
from tentaclelab.kinematics import (CurvatureState, TentacleGeometry,
                                    sample_centerline, tip_position,
                                    tip_positions)
from tentaclelab.regressor import (LabeledSequence, TrainConfig, _pack,
                                   _unpack, forward, gradients, init_weights,
                                   train)
from tentaclelab.sim import SimParams, moving_average, preset_epochs
from tentaclelab.vision import (ImageSpec, binarize, extract_midline,
                                render_silhouette)
from tentaclelab.wavemetrics import DeformationField, cod, field_twi

GEOM = TentacleGeometry()
L = GEOM.length_mm
SWEEP_RATIOS = tuple(round(0.1 * k, 10) for k in range(1, 11))


_PYTEST_CONFIG = None


@pytest.fixture(autouse=True, scope="session")
def _remember_config(request):
    global _PYTEST_CONFIG
    _PYTEST_CONFIG = request.config


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    capman = (_PYTEST_CONFIG.pluginmanager.getplugin("capturemanager")
              if _PYTEST_CONFIG is not None else None)
    if capman is not None:
        # bypass pytest's fd capture so the line shows even on pass
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def dragonskin_run():
    """Default 100 s / 40 s pipeline: data, trained regressor, test split."""
    t0 = time.time()
    tr_train = simulate_ramp(default_config(), 100.0, 0)
    tr_test = simulate_ramp(default_config(), 40.0, 1)
    cfg = TrainConfig(epochs=preset_epochs("dragonskin"))
    weights, history = train(
        [LabeledSequence(tr_train.pressures, tr_train.q, tr_train.dt)], cfg)
    return {"weights": weights, "test": tr_test, "history": history,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def sweep_rows():
    """(A, r, deflection, thrust, TWI) over the default simulator sweep."""
    t0 = time.time()
    cfg = default_config()
    f0 = cfg.build_sim_params().f0_hz
    rows = []
    for A in (10.0, 20.0, 30.0):
        for r in SWEEP_RATIOS:
            cell = evaluate_cell(cfg, r * f0, A)
            rows.append((A, r, cell.tip_defl_deg, cell.thrust_mN, cell.twi))
    return {"rows": rows, "elapsed": time.time() - t0}


def test_criterion_1_kinematics_oracle():
    t0 = time.time()
    worst_cc = 0.0
    for q1 in (np.pi / 2, -np.pi / 2, np.pi, 1.0, -2.5, 1.5 * np.pi):
        x, y = tip_position(CurvatureState(q1, 0.0), GEOM)
        xa = -L * (1.0 - np.cos(q1)) / q1
        ya = L * np.sin(q1) / q1
        worst_cc = max(worst_cc, abs(x - xa), abs(y - ya))
    worst_gen = 0.0
    v = (np.arange(1_000_000) + 0.5) / 1_000_000
    for q1, q2 in ((0.0, np.pi), (2.0, -1.0), (-3.0, 5.0), (np.pi, np.pi),
                   (4.0, -2.0)):
        alpha = q1 * v + 0.5 * q2 * v * v
        xo, yo = -L * np.sin(alpha).mean(), L * np.cos(alpha).mean()
        x, y = tip_position(CurvatureState(q1, q2), GEOM)
        worst_gen = max(worst_gen, abs(x - xo), abs(y - yo))
    elapsed = time.time() - t0
    ok = worst_cc < 1e-9 * L and worst_gen < 1e-7 * L and elapsed < 1.0
    detail = (f"arc tip err {worst_cc:.2e} mm (<{1e-9 * L:.0e}), quadrature "
              f"err {worst_gen:.2e} mm (<{1e-7 * L:.0e}), {elapsed:.2f}s")
    _report(1, ok, detail)
    assert ok, detail


def test_criterion_2_fit_roundtrip():
    t0 = time.time()
    grid = np.linspace(-2 * np.pi, 2 * np.pi, 10)
    worst = 0.0
    for q1 in grid:
        for q2 in grid:
            fit = fit_affine(
                Centerline(sample_centerline(CurvatureState(q1, q2), GEOM)),
                L)
            worst = max(worst, abs(fit.state.q1 - q1), abs(fit.state.q2 - q2))
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    detail = f"100-point grid max err {worst:.2e} rad (<1e-3), {elapsed:.1f}s"
    _report(2, ok, detail)
    assert ok, detail


def test_criterion_3_vision_roundtrip():
    # 50 in-frame cases with |q1|, |q2| <= pi, restricted to shapes whose
    # axis angle stays within 60 deg so the band is single-valued per row.
    t0 = time.time()
    rng = np.random.default_rng(0)
    spec = ImageSpec()
    cases = []
    while len(cases) < 50:
        q1, q2 = rng.uniform(-np.pi, np.pi, 2)
        s = np.linspace(0.0, 1.0, 64)
        alpha = q1 * s + 0.5 * q2 * s * s
        if np.abs(alpha).max() <= np.radians(60.0):
            cases.append((q1, q2))
    worst = 0.0
    for q1, q2 in cases:
        img = render_silhouette(CurvatureState(q1, q2), GEOM, spec)
        cl = extract_midline(binarize(img), spec, max_len_mm=L)
        fit = fit_affine(cl, L)
        worst = max(worst, abs(fit.state.q1 - q1), abs(fit.state.q2 - q2))
    elapsed = time.time() - t0
    ok = worst < 0.08 and elapsed < 30.0
    detail = f"50 cases, max fit err {worst:.3f} rad (<0.08), {elapsed:.1f}s"
    _report(3, ok, detail)
    assert ok, detail


def test_criterion_4_gradient_check():
    t0 = time.time()
    w = init_weights(3, 2, 4, 0)
    rng = np.random.default_rng(1)
    seq = LabeledSequence(rng.normal(size=(7, 3)), rng.normal(size=(7, 2)),
                          0.01)
    _, grads = gradients(w, [seq])
    theta = _pack(w.params)
    gvec = _pack(grads)
    # central-difference step near the cbrt(machine eps) optimum; 1e-6
    # leaves ~1e-4 roundoff on the smallest-gradient parameters
    eps = 1e-5
    worst = 0.0
    for i in range(len(theta)):
        pert = theta.copy()
        pert[i] += eps
        w.params = _unpack(pert, w.params)
        hi, _ = gradients(w, [seq])
        pert[i] -= 2 * eps
        w.params = _unpack(pert, w.params)
        lo, _ = gradients(w, [seq])
        fd = (hi - lo) / (2 * eps)
        rel = abs(fd - gvec[i]) / max(abs(fd), abs(gvec[i]), 1e-8)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    detail = (f"{len(theta)} params, max FD rel err {worst:.2e} (<1e-4), "
              f"{elapsed:.1f}s")
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5_end_to_end_reconstruction(dragonskin_run):
    t0 = time.time()
    tr = dragonskin_run["test"]
    preds = forward(dragonskin_run["weights"], tr.pressures)
    rep = fit_report(preds, tr.q, GEOM, kind="affine",
                     truth_tip=tip_positions(tr.q, GEOM))
    elapsed = dragonskin_run["elapsed"] + (time.time() - t0)
    ok = (rep.nrmse_seg1 <= 10.0 and rep.nrmse_seg2 <= 10.0
          and rep.rel_tip_err <= 10.0 and elapsed <= 900.0)
    detail = (f"test NRMSE {rep.nrmse_seg1:.2f}%/{rep.nrmse_seg2:.2f}% "
              f"(<=10%), rel tip err {rep.rel_tip_err:.2f}% (<=10%), "
              f"{elapsed:.0f}s")
    _report(5, ok, detail)
    assert ok, detail


def test_criterion_6_poly_vs_affine_ordering():
    # Model-representation comparison on the soft large-deformation
    # preset: the cubic lateral polynomial cannot reach the true tip,
    # while the affine curvature model reconstructs it exactly.
    trace = simulate_ramp(default_config("ecoflex"), 40.0, 1)
    truth_tip = tip_positions(trace.q, GEOM)
    rep_affine = fit_report(trace.q, trace.q, GEOM, kind="affine",
                            truth_tip=truth_tip)
    c = poly_targets(trace.q, GEOM)
    rep_poly = fit_report(c, c, GEOM, kind="poly", truth_tip=truth_tip)
    ok = (rep_poly.rel_tip_err > rep_affine.rel_tip_err
          and rep_poly.rel_tip_err > 0.5)
    detail = (f"soft preset rel tip err: poly {rep_poly.rel_tip_err:.2f}% > "
              f"affine {rep_affine.rel_tip_err:.4f}%")
    _report(6, ok, detail)
    assert ok, detail


def test_criterion_7_twi_endpoints():
    t0 = time.time()
    s = np.arange(64)[:, None] / 64.0
    t = np.linspace(0.0, 4.0, 256, endpoint=False)[None, :]
    k, w = 2 * np.pi, 2 * np.pi
    stations = np.linspace(0.0, 1.0, 64)

    def twi_of(beta):
        lat = (beta * np.cos(k * s - w * t)
               + (1 - beta) * np.cos(k * s) * np.cos(w * t))
        return field_twi(cod(DeformationField(lat, 0.01, stations)))

    travel = twi_of(1.0)
    stand = twi_of(0.0)
    blend = [twi_of(b) for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
    monotone = all(b >= a - 1e-9 for a, b in zip(blend, blend[1:]))
    elapsed = time.time() - t0
    ok = travel >= 0.99 and stand <= 0.01 and monotone and elapsed < 5.0
    detail = (f"traveling TWI {travel:.4f} (>=0.99), standing {stand:.4f} "
              f"(<=0.01), blend monotone={monotone}, {elapsed:.1f}s")
    _report(7, ok, detail)
    assert ok, detail


def test_criterion_8_metric_trends(sweep_rows):
    rows = np.array(sweep_rows["rows"])
    amps = (10.0, 20.0, 30.0)
    by_amp = {A: rows[rows[:, 0] == A] for A in amps}

    # Deflection and thrust nondecreasing in amplitude at every frequency.
    monotone = True
    for j, r in enumerate(SWEEP_RATIOS):
        defl = [by_amp[A][j, 2] for A in amps]
        thr = [by_amp[A][j, 3] for A in amps]
        monotone &= all(b >= a - 1e-6 for a, b in zip(defl, defl[1:]))
        monotone &= all(b >= a - 1e-9 for a, b in zip(thr, thr[1:]))

    # Deflection plateau: first ratio from which every later deflection
    # stays within 90% of the maximum, at the middle amplitude.
    defl20 = by_amp[20.0][:, 2]
    thresh = 0.9 * defl20.max()
    onset = None
    for i in range(len(SWEEP_RATIOS)):
        if np.all(defl20[i:] >= thresh):
            onset = SWEEP_RATIOS[i]
            break
    plateau_ok = onset is not None and 0.45 <= onset <= 0.75

    # TWI: smoothed curve unimodal with an interior peak near 0.4,
    # and near-identical across amplitudes.
    peaks = []
    unimodal = True
    for A in amps:
        sm = moving_average(by_amp[A][:, 4], 3)
        i = int(np.argmax(sm))
        unimodal &= bool(np.all(np.diff(sm[:i + 1]) >= -1e-6)
                         and np.all(np.diff(sm[i:]) <= 1e-6))
        peaks.append(SWEEP_RATIOS[i])
    peak_ok = all(0.3 <= p <= 0.5 for p in peaks)
    spread = float(max(
        max(by_amp[A][j, 4] for A in amps) - min(by_amp[A][j, 4] for A in amps)
        for j in range(len(SWEEP_RATIOS))))
    elapsed = sweep_rows["elapsed"]
    ok = (monotone and plateau_ok and unimodal and peak_ok and spread < 0.1
          and elapsed <= 600.0)
    detail = (f"amplitude-monotone={monotone}, plateau onset {onset} "
              f"(in [0.45,0.75]), TWI peaks {peaks} (in [0.3,0.5], "
              f"unimodal={unimodal}), amplitude spread {spread:.4f} (<0.1), "
              f"{elapsed:.0f}s")
    _report(8, ok, detail)
    assert ok, detail


def test_criterion_9_reconstructed_metrics(dragonskin_run):
    weights = dragonskin_run["weights"]
    cfg = default_config()
    f0 = cfg.build_sim_params().f0_hz
    max_dtwi = 0.0
    max_rel_defl = 0.0
    for r in SWEEP_RATIOS:
        true = evaluate_cell(cfg, r * f0, 20.0)
        rec = evaluate_cell(cfg, r * f0, 20.0, weights)
        twi_t, defl_t = true.twi, true.tip_defl_deg
        twi_r, defl_r = rec.twi, rec.tip_defl_deg
        max_dtwi = max(max_dtwi, abs(twi_r - twi_t))
        max_rel_defl = max(max_rel_defl, abs(defl_r - defl_t) / defl_t)
    ok = max_dtwi < 0.1 and max_rel_defl < 0.10
    detail = (f"sweep max |dTWI| {max_dtwi:.4f} (<0.1), max rel deflection "
              f"err {100 * max_rel_defl:.2f}% (<10%)")
    _report(9, ok, detail)
    assert ok, detail


def test_criterion_10_bo_convergence():
    t0 = time.time()
    params = SimParams()
    cfg = default_config()
    space = SearchSpace(f_range=(0.1 * params.f0_hz, 1.0 * params.f0_hz),
                        A_set=(10.0, 20.0, 30.0))
    cache = {}

    def true_twi(f, A):
        key = (round(f, 9), A)
        if key not in cache:
            cache[key] = evaluate_cell(cfg, f, A).twi
        return cache[key]

    grid = space.grid()
    grid_vals = np.array([true_twi(f, A) for f, A in grid])
    f_peak = grid[int(np.argmax(grid_vals)), 0]

    hits = 0
    found = []
    for seed in range(10):
        best, _ = optimize(true_twi, space, budget=30, seed=seed)
        found.append(round(best.f / params.f0_hz, 3))
        if abs(best.f - f_peak) <= 0.05 * params.f0_hz:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 9 and elapsed <= 1200.0
    detail = (f"{hits}/10 seeds within +-0.05 f/f0 of grid peak "
              f"{f_peak / params.f0_hz:.3f} (found {found}), {elapsed:.0f}s")
    _report(10, ok, detail)
    assert ok, detail


def test_criterion_11_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "schema": CONFIG_SCHEMA,
        "dataset": {"train_duration_s": 6.0, "test_duration_s": 4.0},
        "sweep": {"amplitudes_deg": [20.0], "freq_ratios": [0.4, 0.8],
                  "cycles": 6, "transient_cycles": 2, "n_stations": 8,
                  "subsample": 8},
        "bo": {"budget": 4},
    }))
    mismatches = []
    for command, extra in (("dataset", []), ("metrics", []),
                           ("optimize", ["--budget", "4"])):
        dirs = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{command}_{tag}")
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", out] + extra)
            assert code == 0, f"{command} run failed with exit {code}"
            dirs.append(out)
        for name in sorted(os.listdir(dirs[0])):
            if not name.endswith((".csv", ".json")):
                continue
            a = open(os.path.join(dirs[0], name), "rb").read()
            b = open(os.path.join(dirs[1], name), "rb").read()
            if a != b:
                mismatches.append(f"{command}/{name}")
    ok = not mismatches
    detail = ("dataset/metrics/optimize reruns byte-identical"
              if ok else f"differing outputs: {mismatches}")
    _report(11, ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def twi_grid():
    """Criterion 10's search space (the default `bo` space) and the true
    TWI of every cell of its grid."""
    f0 = SimParams().f0_hz
    space = SearchSpace(f_range=(0.1 * f0, 1.0 * f0),
                        A_set=(10.0, 20.0, 30.0))
    cfg = default_config()
    grid = space.grid()
    return space, grid, np.array([evaluate_cell(cfg, f, A).twi
                                  for f, A in grid])


def test_criterion_12_bo_beats_random_search(twi_grid):
    t0 = time.time()
    space, grid, vals = twi_grid
    lookup = {(f, A): v for (f, A), v in zip(grid.tolist(), vals)}
    top = vals.max()

    def median_regrets(budget):
        """Median over seeds 0-49 of (grid max - best found) / grid max,
        for BO and for random search without replacement."""
        bo, rand = [], []
        for seed in range(50):
            best, _ = optimize(lambda f, A: lookup[(f, A)], space, budget,
                               seed=seed)
            pick = np.random.default_rng(1000 + seed).choice(
                len(grid), budget, replace=False)
            bo.append((top - best.objective) / top)
            rand.append((top - vals[pick].max()) / top)
        return np.median(bo), np.median(rand)

    bo20, rand20 = median_regrets(20)
    bo10, rand10 = median_regrets(10)
    ok = bo20 < rand20
    detail = (f"budget 20 median regret BO {100 * bo20:.2f}% < random "
              f"{100 * rand20:.2f}% over 50 seeds (budget 10: BO "
              f"{100 * bo10:.2f}%, random {100 * rand10:.2f}%), "
              f"{time.time() - t0:.0f}s")
    _report(12, ok, detail)
    assert ok, detail
