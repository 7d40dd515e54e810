import math
from dataclasses import replace

import numpy as np
import pytest

from tentaclelab.actuation import ActuationProgram, ProgramSpec, build_program
from tentaclelab.sim import (TRACE_HEADER, SensorModel, SimParams, SimTrace,
                             SimulationError, default_sensor_model,
                             integrate, material_preset, moving_average,
                             preset_epochs, run_trace, sensor_readout,
                             simulate, thrust_proxy)
from tentaclelab.kinematics import TentacleGeometry, tip_positions

LINEAR = SimParams(f0_hz=3.2, zeta=0.2, quad_drag=0.0, vel_coupling=0.0)


def program_from_theta(theta_deg, dt):
    t = np.arange(len(theta_deg)) * dt
    return ActuationProgram(time=t, theta_deg=np.asarray(theta_deg, float),
                            dt=dt)


class TestSimParams:
    def test_defaults_valid(self):
        SimParams()

    def test_zeta_bounds(self):
        with pytest.raises(ValueError):
            SimParams(zeta=0.0)
        with pytest.raises(ValueError):
            SimParams(zeta=1.0)

    def test_dt_resolution(self):
        with pytest.raises(ValueError):
            SimParams(f0_hz=3.2, dt=0.05)

    def test_mode_ratio(self):
        with pytest.raises(ValueError):
            SimParams(mode2_ratio=1.0)

    @pytest.mark.parametrize("field", ["f0_hz", "zeta", "quad_drag", "dt"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, True, "1"])
    def test_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimParams(**{field: value})

    @pytest.mark.parametrize("dt", [0.0, -1.0])
    def test_dt_must_be_positive(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            SimParams(dt=dt)


class TestSimulate:
    def test_zero_drive_stays_zero(self):
        prog = program_from_theta(np.zeros(400), 0.005)
        trace = simulate(prog, SimParams())
        assert np.all(trace.q == 0.0)
        assert np.allclose(trace.tip[:, 1], 220.0)

    def test_static_gain(self):
        # Constant base angle: each mode settles at drive_gain_i * theta.
        theta0 = 10.0
        prog = program_from_theta(np.full(4000, theta0), 0.005)
        trace = simulate(prog, LINEAR)
        expect = np.radians(theta0)
        assert trace.q[-1, 0] == pytest.approx(0.7 * expect, rel=1e-3)
        assert trace.q[-1, 1] == pytest.approx(0.4 * expect, rel=1e-3)

    def test_resonant_gain(self):
        # Sinusoid at f0 with linear params: steady-state amplitude is
        # Q = 1/(2*zeta) times the static response.
        dt = 0.002
        t = np.arange(int(20.0 / dt)) * dt
        theta_a = 5.0
        prog = program_from_theta(theta_a * np.sin(2 * np.pi * 3.2 * t), dt)
        trace = simulate(prog, SimParams(f0_hz=3.2, zeta=0.2, quad_drag=0.0,
                                         vel_coupling=0.0, dt=dt))
        amp = np.abs(trace.q[len(t) // 2:, 0]).max()
        expect = 0.7 * np.radians(theta_a) / (2 * 0.2)
        assert amp == pytest.approx(expect, rel=0.05)

    def test_free_decay_envelope(self):
        # Kick then release: the envelope decays like exp(-zeta*w1*t).
        dt = 0.002
        n = int(8.0 / dt)
        theta = np.zeros(n)
        theta[: n // 4] = 15.0 * np.sin(2 * np.pi * 3.2 * np.arange(n // 4) * dt)
        prog = program_from_theta(theta, dt)
        trace = simulate(prog, SimParams(f0_hz=3.2, zeta=0.2, quad_drag=0.0,
                                         vel_coupling=0.0, dt=dt))
        k0 = n // 4 + 100
        a0 = np.abs(trace.q[k0:k0 + 200, 0]).max()
        k1 = k0 + 500
        a1 = np.abs(trace.q[k1:k1 + 200, 0]).max()
        rate = -np.log(a1 / a0) / (500 * dt)
        expect = 0.2 * 2 * np.pi * 3.2
        assert rate == pytest.approx(expect, rel=0.2)

    def test_divergence_error(self):
        dt = 0.005
        t = np.arange(int(10.0 / dt)) * dt
        prog = program_from_theta(30.0 * np.sin(2 * np.pi * 3.2 * t), dt)
        params = SimParams(f0_hz=3.2, zeta=0.01, drive_gain1=500.0,
                           quad_drag=0.0, vel_coupling=0.0)
        with pytest.raises(SimulationError):
            simulate(prog, params)

    def test_dt_mismatch_rejected(self):
        prog = program_from_theta(np.zeros(100), 0.05)
        with pytest.raises(ValueError, match=r"1/\(50\*f0\)"):
            simulate(prog, SimParams())

    def test_determinism(self):
        prog = build_program(ProgramSpec(duration_s=5.0, dt=0.005,
                                         amplitude_mode="random", seed=2,
                                         frequency_hz=2.0))
        a = simulate(prog, SimParams())
        b = simulate(prog, SimParams())
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.tip, b.tip)


def reference_simulate(program, params, geom=None, c_t=2e-4):
    """Per-step integrator on numpy arrays, checking divergence each step."""
    geom = geom or TentacleGeometry()
    dt = program.dt
    theta = np.radians(program.theta_deg)
    n = len(theta)
    w1 = 2.0 * math.pi * params.f0_hz
    w2 = params.mode2_ratio * w1
    lag_steps = int(round(params.phase_lag_s / dt))
    theta_dot = np.gradient(theta, dt)
    eff = theta + params.vel_coupling * theta_dot / w1
    eff_delayed = np.concatenate([np.zeros(lag_steps), eff])[:n]
    drive1 = params.drive_gain1 * w1 * w1 * eff
    drive2 = params.drive_gain2 * w2 * w2 * eff_delayed
    q = np.zeros((n, 2))
    qd = np.zeros((n, 2))
    v1 = v2 = x1 = x2 = 0.0
    z = params.zeta
    cq = params.quad_drag
    for k in range(n):
        v1 += dt * (drive1[k] - 2.0 * z * w1 * v1 - cq * abs(v1) * v1
                    - w1 * w1 * x1)
        x1 += dt * v1
        v2 += dt * (drive2[k] - 2.0 * z * w2 * v2 - cq * abs(v2) * v2
                    - w2 * w2 * x2)
        x2 += dt * v2
        if abs(x1) > 10.0 or abs(x2) > 10.0:
            raise SimulationError(
                f"modal state exceeded 10 rad at t={k * dt:.4f} s "
                f"(q1={x1:.3f}, q2={x2:.3f}); reduce drive or check params")
        q[k, 0], q[k, 1] = x1, x2
        qd[k, 0], qd[k, 1] = v1, v2
    tip_body = tip_positions(q, geom)
    c, s = np.cos(theta), np.sin(theta)
    tip = np.column_stack([c * tip_body[:, 0] - s * tip_body[:, 1],
                           s * tip_body[:, 0] + c * tip_body[:, 1]])
    vx = np.gradient(tip[:, 0], dt)
    return q, qd, tip, c_t * vx * vx


class TestReferenceLoop:
    @pytest.mark.parametrize("params", [
        material_preset("dragonskin"), material_preset("ecoflex"),
        SimParams(quad_drag=0.0)], ids=["dragonskin", "ecoflex", "linear"])
    def test_bit_identical(self, params):
        prog = build_program(ProgramSpec(duration_s=20.0, dt=0.005,
                                         amplitude_mode="random", seed=4,
                                         rpm_ramp=(12.0, 80.0)))
        trace = simulate(prog, params)
        q, qd, tip, thrust = reference_simulate(prog, params)
        assert trace.q.flags.c_contiguous
        assert trace.q_dot.flags.c_contiguous
        for got, want in ((trace.q, q), (trace.q_dot, qd), (trace.tip, tip),
                          (trace.thrust, thrust)):
            assert np.array_equal(got, want)

    # The last case blows up to inf and nan after crossing 10 rad; the
    # first crossing is still the one reported.
    @pytest.mark.parametrize("gain, zeta, drag", [
        (500.0, 0.01, 0.0), (40.0, 0.05, 0.0), (2000.0, 0.2, 0.8)])
    def test_same_divergence_message(self, gain, zeta, drag):
        dt = 0.005
        t = np.arange(int(10.0 / dt)) * dt
        prog = program_from_theta(30.0 * np.sin(2 * np.pi * 3.2 * t), dt)
        params = SimParams(f0_hz=3.2, zeta=zeta, drive_gain1=gain,
                           quad_drag=drag, vel_coupling=0.0)
        with pytest.raises(SimulationError) as want:
            reference_simulate(prog, params)
        with pytest.raises(SimulationError) as got:
            simulate(prog, params)
        assert str(got.value) == str(want.value)


class TestTrace:
    def test_csv_roundtrip(self, tmp_path):
        prog = build_program(ProgramSpec(duration_s=2.0, dt=0.005,
                                         frequency_hz=2.0))
        trace = simulate(prog, SimParams())
        trace = trace.with_pressures(sensor_readout(trace,
                                                    default_sensor_model()))
        p = tmp_path / "trace.csv"
        trace.to_csv(p)
        back = SimTrace.from_csv(p)
        assert np.allclose(back.q, trace.q, rtol=1e-9, atol=1e-12)
        assert np.allclose(back.pressures, trace.pressures, rtol=1e-9)
        assert np.allclose(back.tip, trace.tip, rtol=1e-9)
        assert back.dt == pytest.approx(trace.dt)

    def test_csv_trace_reads_out_through_the_gradient_of_q(self, tmp_path):
        # The CSV holds no q_dot, so the rate term differentiates q.
        prog = build_program(ProgramSpec(duration_s=2.0, dt=0.005,
                                         frequency_hz=2.0))
        p = tmp_path / "trace.csv"
        simulate(prog, SimParams()).to_csv(p)
        back = SimTrace.from_csv(p)
        assert back.q_dot is None
        model = default_sensor_model()
        with_rate = replace(back, q_dot=np.gradient(back.q, back.dt, axis=0))
        assert np.array_equal(sensor_readout(back, model),
                              sensor_readout(with_rate, model))

    @staticmethod
    def _trace(rows):
        cols = np.asarray(rows, dtype=float)
        return SimTrace(time=cols[:, 0], base_angle_deg=cols[:, 1],
                        q=cols[:, 2:4], pressures=cols[:, 4:7],
                        tip=cols[:, 7:9], thrust=cols[:, 9], dt=0.005)

    def test_csv_bytes_match_per_row_format(self, tmp_path):
        # The writer must produce exactly the per-value f"{v:.10g}" rows.
        vals = [0.0, -0.0, 1e-300, -1e-300, 1.2e11, -1.2e11, 1.0 / 3,
                101.3, 5e-324, 1.7976931348623157e308, 123456789.123,
                -2.5e-7]
        rows = np.resize(vals, (4, 10))
        p = tmp_path / "trace.csv"
        self._trace(rows).to_csv(p)
        expect = TRACE_HEADER + "\n" + "".join(
            ",".join(f"{v:.10g}" for v in row) + "\n" for row in rows)
        assert p.read_bytes() == expect.encode()

    def test_one_row_csv_rejected_for_dt(self, tmp_path):
        p = tmp_path / "one.csv"
        self._trace(np.arange(10.0)[None, :]).to_csv(p)
        with pytest.raises(ValueError, match=">= 2 rows to recover dt"):
            SimTrace.from_csv(p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SimTrace(time=np.zeros(5), base_angle_deg=np.zeros(4),
                     q=np.zeros((5, 2)), pressures=np.zeros((5, 3)),
                     tip=np.zeros((5, 2)), thrust=np.zeros(5), dt=0.005)


class TestSensorReadout:
    def make_trace(self, q):
        n = len(q)
        return SimTrace(time=np.arange(n) * 0.005,
                        base_angle_deg=np.zeros(n), q=np.asarray(q, float),
                        pressures=np.zeros((n, 3)), tip=np.zeros((n, 2)),
                        thrust=np.zeros(n), dt=0.005,
                        q_dot=np.zeros((n, 2)))

    def clean_model(self, **kw):
        base = dict(gain=np.array([[9.0, 2.5], [-5.0, 6.0], [2.0, -7.5]]),
                    rate_gain=np.zeros((3, 2)), baseline_kpa=100.0,
                    lag_tau_s=0.0, sat_kappa=0.0, noise_sigma_kpa=0.0, seed=0)
        base.update(kw)
        return SensorModel(**base)

    def test_baseline_only(self):
        trace = self.make_trace(np.zeros((50, 2)))
        p = sensor_readout(trace, self.clean_model())
        assert np.allclose(p, 100.0)

    def test_linear_inversion(self):
        # Noise-free linear model: the pseudo-inverse recovers q exactly.
        rng = np.random.default_rng(0)
        q = rng.normal(0.0, 0.5, (200, 2))
        model = self.clean_model()
        p = sensor_readout(self.make_trace(q), model)
        q_rec = (p - 100.0) @ np.linalg.pinv(model.gain).T
        assert np.allclose(q_rec, q, atol=1e-9)

    def test_gain_linearity(self):
        q = np.random.default_rng(1).normal(0.0, 0.3, (100, 2))
        trace = self.make_trace(q)
        p1 = sensor_readout(trace, self.clean_model()) - 100.0
        doubled = self.clean_model(
            gain=2 * np.array([[9.0, 2.5], [-5.0, 6.0], [2.0, -7.5]]))
        p2 = sensor_readout(trace, doubled) - 100.0
        assert np.allclose(p2, 2.0 * p1, atol=1e-9)

    def test_saturation_compresses(self):
        q = np.column_stack([np.linspace(0, 2.0, 50), np.zeros(50)])
        trace = self.make_trace(q)
        lin = sensor_readout(trace, self.clean_model()) - 100.0
        sat = sensor_readout(trace, self.clean_model(sat_kappa=-1e-3)) - 100.0
        assert sat[-1, 0] < lin[-1, 0]

    def test_lag_delays_step(self):
        q = np.zeros((100, 2))
        q[50:, 0] = 1.0
        trace = self.make_trace(q)
        p = sensor_readout(trace, self.clean_model(lag_tau_s=0.05))
        # One step after the jump the lagged output has only partially risen.
        assert 0.0 < p[51, 0] - 100.0 < 9.0

    def test_noise_seeded(self):
        trace = self.make_trace(np.zeros((100, 2)))
        a = sensor_readout(trace, self.clean_model(noise_sigma_kpa=0.05, seed=4))
        b = sensor_readout(trace, self.clean_model(noise_sigma_kpa=0.05, seed=4))
        c = sensor_readout(trace, self.clean_model(noise_sigma_kpa=0.05, seed=5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rank_deficient_gain_rejected(self):
        with pytest.raises(ValueError):
            SensorModel(gain=np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))


class TestThrust:
    def test_static_zero(self):
        prog = program_from_theta(np.zeros(1000), 0.005)
        trace = simulate(prog, SimParams())
        assert np.allclose(trace.thrust, 0.0)

    def test_amplitude_quadrupling(self):
        # Thrust ~ vx^2: doubling a small drive amplitude quadruples it
        # while the dynamics stay effectively linear.
        out = []
        for A in (2.0, 4.0):
            prog = build_program(ProgramSpec(duration_s=10.0, dt=0.005,
                                             amplitude_deg=A,
                                             frequency_hz=2.0))
            trace = simulate(prog, LINEAR)
            cyc = thrust_proxy(trace, 2.0)
            out.append(cyc[4:].mean())
        assert out[1] / out[0] == pytest.approx(4.0, rel=0.1)

    def test_too_short_trace(self):
        prog = program_from_theta(np.zeros(100), 0.005)
        trace = simulate(prog, SimParams())
        with pytest.raises(ValueError, match="trace must span at least 2 "
                                             "actuation cycles"):
            thrust_proxy(trace, 2.0)


class TestRunTrace:
    def setup_method(self):
        self.prog = build_program(ProgramSpec(
            duration_s=3.0, dt=0.005, amplitude_deg=20.0, frequency_hz=2.0))
        self.full = simulate(self.prog, SimParams())
        self.run = integrate(self.prog, SimParams())

    def test_later_start_matches_full_trace(self):
        # Step 130 lies in cycle 1 (t = 0.65 s at 2 Hz); only its own
        # thrust is a one-sided difference.
        part = run_trace(self.prog, self.run, TentacleGeometry(), 130)
        assert np.array_equal(part.time, self.full.time[130:])
        assert np.array_equal(part.q, self.full.q[130:])
        assert np.array_equal(part.tip, self.full.tip[130:])
        assert np.array_equal(part.thrust[1:], self.full.thrust[131:])
        assert part.thrust[0] != self.full.thrust[130]
        # Entry i of the per-cycle means is cycle 1 + i.
        cyc = thrust_proxy(part, 2.0)
        assert len(cyc) == len(thrust_proxy(self.full, 2.0)) - 1
        assert np.array_equal(cyc[1:], thrust_proxy(self.full, 2.0)[2:])

    def test_readout_of_run_equals_readout_of_trace(self):
        model = default_sensor_model(seed=2)
        assert np.array_equal(sensor_readout(self.run, model),
                              sensor_readout(self.full, model))


class TestMovingAverage:
    def test_hand_example(self):
        assert np.allclose(moving_average([1.0, 2.0, 3.0], 3), [1.5, 2.0, 2.5])

    def test_window_one_identity(self):
        x = np.array([3.0, -1.0, 4.0])
        assert np.array_equal(moving_average(x, 1), x)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            moving_average([1.0, 2.0], 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 200])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_brute_force(self, n, k):
        x = np.random.default_rng(n * 10 + k).normal(3.0, 2.0, size=n)
        half = k // 2
        expect = np.array([x[max(0, i - half):i + half + 1].mean()
                           for i in range(n)])
        got = moving_average(x, k)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)


class TestPresets:
    def test_known_materials(self):
        d = material_preset("dragonskin")
        e = material_preset("ecoflex")
        assert d.f0_hz == 3.2 and e.f0_hz == 2.7
        assert e.drive_gain1 > d.drive_gain1

    def test_softer_material_deforms_more(self):
        prog = build_program(ProgramSpec(duration_s=6.0, dt=0.005,
                                         amplitude_deg=30.0,
                                         frequency_hz=2.7))
        q_e = np.abs(simulate(prog, material_preset("ecoflex")).q[:, 0]).max()
        q_d = np.abs(simulate(prog, material_preset("dragonskin")).q[:, 0]).max()
        assert q_e > 1.5 * q_d

    def test_epochs(self):
        assert preset_epochs("dragonskin") == 35
        assert preset_epochs("ecoflex") == 20

    def test_unknown_material(self):
        with pytest.raises(ValueError):
            material_preset("pla")
