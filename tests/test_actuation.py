import numpy as np
import pytest

from tentaclelab.actuation import (RPM_TO_HZ, ActuationProgram, ProgramSpec,
                                   build_program, triangular_wave)


class TestTriangularWave:
    def test_starts_at_zero(self):
        assert triangular_wave(0.0, 2.0, 20.0) == 0.0

    def test_quarter_period_peak(self):
        assert triangular_wave(0.125, 2.0, 20.0) == pytest.approx(20.0)

    def test_three_quarter_trough(self):
        assert triangular_wave(0.375, 2.0, 20.0) == pytest.approx(-20.0)

    def test_zero_mean_over_period(self):
        t = np.arange(1000) / 1000.0 / 2.0
        w = triangular_wave(t, 2.0, 20.0)
        assert abs(w.mean()) < 1e-9 * 20.0

    def test_periodicity(self):
        assert triangular_wave(3.6, 2.5, 15.0) == \
            pytest.approx(triangular_wave(3.6 + 4.0 / 2.5, 2.5, 15.0))

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            triangular_wave(0.0, 0.0, 20.0)


class TestProgramSpec:
    def test_defaults_valid(self):
        spec = ProgramSpec(duration_s=10.0, dt=0.005)
        assert spec.amplitude_deg == 20.0

    def test_amplitude_bound(self):
        with pytest.raises(ValueError):
            ProgramSpec(duration_s=1.0, dt=0.01, amplitude_deg=95.0)

    def test_rpm_ramp_bounds(self):
        with pytest.raises(ValueError):
            ProgramSpec(duration_s=1.0, dt=0.01, rpm_ramp=(5.0, 80.0))
        with pytest.raises(ValueError):
            ProgramSpec(duration_s=1.0, dt=0.01, rpm_ramp=(12.0, 100.0))

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            ProgramSpec(duration_s=0.0, dt=0.01)

    def test_uncountable_steps_name_duration(self):
        # 1e308 / 0.0005 overflows to inf, which round() cannot count.
        with pytest.raises(ValueError, match="duration_s"):
            ProgramSpec(duration_s=1e308, dt=0.0005)


class TestBuildProgram:
    def test_fixed_cycle_count(self):
        prog = build_program(ProgramSpec(duration_s=10.0, dt=0.005,
                                         frequency_hz=2.0))
        assert prog.cycle_index[-1] == 19
        assert len(prog.amplitudes) == 20

    def test_fixed_matches_wave(self):
        spec = ProgramSpec(duration_s=2.0, dt=0.001, amplitude_deg=25.0,
                           frequency_hz=3.0)
        prog = build_program(spec)
        ref = triangular_wave(prog.time, 3.0, 25.0)
        assert np.allclose(prog.theta_deg, ref, atol=1e-9)

    def test_random_amplitude_stats(self):
        # Enough cycles that the mean |A| of uniform [-30, 30] draws is
        # tightly around 15 degrees.
        spec = ProgramSpec(duration_s=5000.0, dt=0.01, rpm_ramp=(12.0, 80.0),
                           seed=3)
        prog = build_program(spec)
        assert len(prog.amplitudes) == prog.cycle_index[-1] + 1 > 9000
        assert abs(np.abs(prog.amplitudes).mean() - 15.0) < 0.5
        assert np.abs(prog.amplitudes).max() <= 30.0

    def test_determinism(self):
        spec = ProgramSpec(duration_s=20.0, dt=0.005, rpm_ramp=(12.0, 80.0),
                           seed=11)
        a = build_program(spec)
        b = build_program(spec)
        assert np.array_equal(a.theta_deg, b.theta_deg)

    def test_seed_changes_program(self):
        s1 = ProgramSpec(duration_s=20.0, dt=0.005, rpm_ramp=(12.0, 80.0),
                         seed=0)
        s2 = ProgramSpec(duration_s=20.0, dt=0.005, rpm_ramp=(12.0, 80.0),
                         seed=1)
        assert not np.array_equal(build_program(s1).theta_deg,
                                  build_program(s2).theta_deg)

    def test_ramp_frequency_sweep(self):
        # Instantaneous frequency rises, so late cycles are shorter.
        spec = ProgramSpec(duration_s=60.0, dt=0.005, rpm_ramp=(12.0, 80.0))
        prog = build_program(spec)
        counts = np.bincount(prog.cycle_index)
        assert counts[0] > counts[-2]
        # Total cycle count matches the integrated frequency.
        mean_f = 0.5 * (12.0 + 80.0) * RPM_TO_HZ
        assert abs(prog.cycle_index[-1] - mean_f * 60.0) <= 1.0

    def test_program_is_bounded(self):
        spec = ProgramSpec(duration_s=30.0, dt=0.005, rpm_ramp=(12.0, 80.0),
                           seed=5)
        prog = build_program(spec)
        assert np.abs(prog.theta_deg).max() <= 30.0
        assert isinstance(prog, ActuationProgram)
