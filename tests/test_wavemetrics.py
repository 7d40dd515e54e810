import numpy as np
import pytest

from tentaclelab.kinematics import TentacleGeometry
from tentaclelab.wavemetrics import (DeformationField, ModeSet,
                                     analytic_signal, cod, field_from_states,
                                     field_twi, modeset_to_csv, tip_deflection,
                                     twi)


def make_field(lat, dt=0.01):
    lat = np.asarray(lat, dtype=float)
    stations = np.linspace(0.0, 1.0, lat.shape[0])
    return DeformationField(lateral=lat, dt=dt, stations=stations)


def wave_field(beta, n_s=64, n_t=256, k=2 * np.pi):
    """Blend of a traveling (beta=1) and standing (beta=0) wave."""
    s = np.linspace(0.0, 1.0, n_s, endpoint=False)[:, None]
    t = np.linspace(0.0, 4.0, n_t, endpoint=False)[None, :]
    w = 2 * np.pi
    traveling = np.cos(k * s - w * t)
    standing = np.cos(k * s) * np.cos(w * t)
    return make_field(beta * traveling + (1 - beta) * standing)


class TestTipDeflection:
    def test_symmetric_range(self):
        # range 100 mm over 2*ell = 440 mm
        val = tip_deflection([-50.0, 50.0], 220.0)
        assert val == pytest.approx(np.degrees(np.arctan(100.0 / 440.0)))

    def test_constant_is_zero(self):
        assert tip_deflection([3.0, 3.0, 3.0], 220.0) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            tip_deflection([1.0], 220.0)
        with pytest.raises(ValueError):
            tip_deflection([1.0, 2.0], 0.0)


class TestAnalyticSignal:
    def test_cosine_unit_magnitude(self):
        t = np.arange(128) / 128.0
        z = analytic_signal(np.cos(2 * np.pi * 4 * t))
        assert np.allclose(np.abs(z), 1.0, atol=1e-9)

    def test_real_part_is_demeaned_input(self):
        x = np.random.default_rng(0).normal(size=100) + 5.0
        z = analytic_signal(x)
        assert np.allclose(z.real, x - x.mean(), atol=1e-9)

    def test_cosine_phase_quadrature(self):
        t = np.arange(128) / 128.0
        z = analytic_signal(np.cos(2 * np.pi * 4 * t))
        assert np.allclose(z.imag, np.sin(2 * np.pi * 4 * t), atol=1e-9)

    def test_odd_length(self):
        t = np.arange(101) / 101.0
        z = analytic_signal(np.cos(2 * np.pi * 5 * t))
        assert np.allclose(np.abs(z), 1.0, atol=1e-6)

    def test_too_short(self):
        with pytest.raises(ValueError):
            analytic_signal([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n_t", [128, 101])
    def test_field_equals_stacked_rows(self, n_t):
        rng = np.random.default_rng(n_t)
        lat = rng.normal(size=(16, n_t)) + 3.0
        # The transposed input is F-ordered: a (n_t, 16) array viewed as T.
        for field in (lat, rng.normal(size=(n_t, 16)).T + 3.0):
            want = np.array([analytic_signal(row) for row in field])
            assert np.array_equal(analytic_signal(field), want)


class TestTwi:
    def test_pure_traveling_mode(self):
        s = np.arange(64) / 64.0
        w = np.exp(1j * 2 * np.pi * s)
        assert twi(w) == pytest.approx(1.0, abs=1e-9)

    def test_real_mode_is_standing(self):
        assert twi(np.array([1.0, 2.0, -1.0, 0.5])) == 0.0

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=16) + 1j * rng.normal(size=16)
        base = twi(w)
        for phi in (0.3, 1.2, 2.9):
            assert twi(w * np.exp(1j * phi)) == pytest.approx(base, abs=1e-12)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            twi(np.zeros(5))

    def test_stack_matches_one_mode_at_a_time(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
        stacked = twi(w)
        assert stacked.shape == (5,)
        assert np.array_equal(stacked, [twi(m) for m in w])

    def test_zero_mode_in_stack_rejected(self):
        w = np.ones((3, 4), dtype=complex)
        w[1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            twi(w)


def row_by_row_cod(lat):
    """COD with one FFT pair per station row, written out independently."""
    rows = []
    for x in lat:
        n = len(x)
        h = np.zeros(n)
        h[0] = 1.0
        h[1:(n + 1) // 2] = 2.0
        if n % 2 == 0:
            h[n // 2] = 1.0
        rows.append(np.fft.ifft(np.fft.fft(x - x.mean()) * h))
    Z = np.array(rows)
    vals, vecs = np.linalg.eigh(Z @ Z.conj().T / lat.shape[1])
    order = np.argsort(vals)[::-1]
    vals, vecs = np.maximum(vals[order], 0.0), vecs[:, order]
    twis = []
    for v, w in zip(vals, vecs.T):
        sv = np.linalg.svd(np.column_stack([w.real, w.imag]),
                           compute_uv=False)
        twis.append(sv[1] / sv[0] if v > 0 else 0.0)
    return vecs, vals, np.array(twis)


class TestCod:
    # The in-phase ("standing") states bend one fixed shape: a
    # rank-deficient field, where 7 of the 16 eigenvalues clamp to 0.
    @pytest.mark.parametrize("n_t, lag", [
        pytest.param(1250, 2.0, id="1250"),
        pytest.param(999, 2.0, id="999"),
        pytest.param(1250, 0.0, id="standing")])
    def test_matches_row_by_row_reference(self, n_t, lag):
        t = np.arange(n_t) * 0.004
        q = np.column_stack([1.2 * np.sin(2 * np.pi * 2.5 * t),
                             -0.8 * np.sin(2 * np.pi * 2.5 * t - lag)])
        field = field_from_states(q, TentacleGeometry(), 16, 0.004)
        assert field.lateral.flags.c_contiguous
        modes = cod(field)
        vecs, vals, twis = row_by_row_cod(field.lateral)
        assert np.array_equal(modes.modes, vecs)
        assert np.array_equal(modes.eigenvalues, vals)
        assert np.array_equal(modes.twi, twis)

    def test_traveling_wave_high_twi(self):
        modes = cod(wave_field(1.0))
        assert field_twi(modes) > 0.99
        assert modes.energy_fraction[0] > 0.99

    def test_standing_wave_low_twi(self):
        modes = cod(wave_field(0.0))
        assert field_twi(modes) < 0.05

    def test_blend_monotonic(self):
        vals = [field_twi(cod(wave_field(b)))
                for b in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_rank_one_field(self):
        # A single spatial pattern modulated in time: one mode carries
        # essentially all energy.
        s = np.linspace(0, 1, 20)[:, None]
        t = np.linspace(0, 2, 64)[None, :]
        lat = (s**2) * np.cos(2 * np.pi * t)
        modes = cod(make_field(lat))
        assert modes.energy_fraction[0] > 0.999

    def test_three_station_eigen_oracle(self):
        # Brute-force check of the correlation eigendecomposition.
        rng = np.random.default_rng(5)
        lat = rng.normal(size=(3, 32))
        field = make_field(lat)
        modes = cod(field)
        Z = np.array([analytic_signal(r) for r in lat])
        R = Z @ Z.conj().T / 32
        # Eigenvalues from the characteristic polynomial roots.
        ev = np.sort(np.linalg.eigvalsh(R))[::-1]
        assert np.allclose(modes.eigenvalues, ev, atol=1e-9)
        for i in range(3):
            v = modes.modes[:, i]
            assert np.allclose(R @ v, ev[i] * v, atol=1e-9)

    def test_mode_orthonormality(self):
        modes = cod(wave_field(0.6, n_s=24))
        G = modes.modes.conj().T @ modes.modes
        assert np.allclose(G, np.eye(G.shape[0]), atol=1e-9)

    def test_energy_fractions_sum_to_one(self):
        modes = cod(wave_field(0.4))
        assert modes.energy_fraction.sum() == pytest.approx(1.0)
        assert np.all(np.diff(modes.eigenvalues) <= 1e-12)

    def test_degenerate_field_rejected(self):
        with pytest.raises(ValueError):
            cod(make_field(np.ones((4, 16))))

    def test_field_invariants(self):
        with pytest.raises(ValueError):
            make_field(np.zeros((2, 16)))
        with pytest.raises(ValueError):
            make_field(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            make_field(np.full((4, 16), np.nan))


class TestFieldFromStates:
    def test_shapes_and_values(self):
        geom = TentacleGeometry()
        t = np.linspace(0, 1, 16)
        q = np.column_stack([0.5 * np.sin(2 * np.pi * t), np.zeros(16)])
        field = field_from_states(q, geom, n_stations=8, dt=0.0625)
        assert field.lateral.shape == (8, 16)
        # Root station never moves laterally.
        assert np.allclose(field.lateral[0], 0.0)
        # Tip station has the largest excursion.
        amp = np.ptp(field.lateral, axis=1)
        assert np.argmax(amp) == 7

    def test_two_function_field_can_travel(self):
        # The q1 and q2 lateral shapes are nearly collinear, yet a
        # small-angle field with q2/q1 = 3.4 at a phase of 190 degrees
        # reads a dominant-mode TWI of 0.917: the amplitude ratio and
        # phase the dynamics produce, not the shape basis, bound the TWI.
        t = np.arange(400) / 100.0
        q = 0.01 * np.column_stack([np.cos(2 * np.pi * t), 3.4 * np.cos(
            2 * np.pi * t + np.radians(190.0))])
        field = field_from_states(q, TentacleGeometry(), n_stations=16,
                                  dt=0.01)
        assert field_twi(cod(field)) > 0.9


class TestModesetCsv:
    def test_header_and_rows(self, tmp_path):
        modes = cod(wave_field(0.8, n_s=10))
        p = tmp_path / "modes.csv"
        modeset_to_csv(modes, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "station,mode1_re,mode1_im,mode2_re,mode2_im"
        assert len(lines) == 11
