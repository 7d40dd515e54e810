from dataclasses import dataclass

import numpy as np
import pytest

from tentaclelab import fitting
from tentaclelab.fitting import (SHAPES, AffineFit, Centerline, FitReport,
                                 fit_affine, fit_report, nrmse,
                                 poly_centerline, poly_targets)
from tentaclelab.kinematics import (CurvatureState, TentacleGeometry,
                                    lateral_displacements, sample_centerline,
                                    tip_positions)

L = 220.0
GEOM200 = TentacleGeometry(n_samples=200)


def centerline_for(q1, q2, geom=GEOM200):
    return Centerline(sample_centerline(CurvatureState(q1, q2), geom))


# Reference polynomial model: the former four-coefficient record and its
# one-row centerline, kept verbatim so the vectorised (c2, c3) tips can be
# checked against the per-row loop they replace.

@dataclass(frozen=True)
class PolyCoeffs:
    """Cubic lateral-displacement coefficients x(s) = c0 + c1 s + c2 s^2 + c3 s^3."""

    c0: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.c0, self.c1, self.c2, self.c3])):
            raise ValueError("polynomial coefficients must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2, self.c3], dtype=float)


def _ref_poly_centerline(coeffs: PolyCoeffs, L: float,
                         n: int = 200) -> np.ndarray:
    s = np.linspace(0.0, 1.0, n)
    c = coeffs.as_array()
    x = c[0] + c[1] * s + c[2] * s * s + c[3] * s**3
    dxds = c[1] + 2.0 * c[2] * s + 3.0 * c[3] * s * s
    dyds = np.sqrt(np.maximum(L * L - dxds * dxds, 0.0))
    ds = s[1] - s[0]
    y = np.concatenate([[0.0], np.cumsum(0.5 * (dyds[1:] + dyds[:-1]) * ds)])
    return np.column_stack([x, y])


def _ref_poly_tips(c: np.ndarray, L: float) -> np.ndarray:
    tips = []
    for row in c:
        pts = _ref_poly_centerline(PolyCoeffs(0.0, 0.0, *row), L)
        tips.append((float(pts[-1, 0]), float(pts[-1, 1])))
    return np.array(tips)


class TestCenterline:
    def test_basic_properties(self):
        cl = Centerline([[0, 0], [0, 1], [1, 1]])
        assert len(cl) == 3
        assert cl.segment_lengths.sum() == pytest.approx(2.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Centerline([[0, 0]])

    def test_duplicate_points(self):
        with pytest.raises(ValueError):
            Centerline([[0, 0], [0, 0], [1, 1]])

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            Centerline([[0, 0], [np.nan, 1]])


class TestFitAffine:
    def test_straight(self):
        fit = fit_affine(centerline_for(0.0, 0.0), L)
        assert abs(fit.state.q1) < 1e-9
        assert abs(fit.state.q2) < 1e-9

    def test_roundtrip(self):
        fit = fit_affine(centerline_for(1.2, -0.8), L)
        assert fit.state.q1 == pytest.approx(1.2, abs=1e-3)
        assert fit.state.q2 == pytest.approx(-0.8, abs=1e-3)
        assert fit.residual_rms < 1e-3

    @pytest.mark.parametrize("q", [(2 * np.pi, 0.0), (0.0, -2 * np.pi),
                                   (np.pi, np.pi), (-4.0, 3.0)])
    def test_roundtrip_large(self, q):
        fit = fit_affine(centerline_for(*q), L)
        assert fit.state.q1 == pytest.approx(q[0], abs=1e-3)
        assert fit.state.q2 == pytest.approx(q[1], abs=1e-3)

    def test_noise_monte_carlo(self):
        # At the 24-marker physical resolution, the mean recovered state
        # over 100 noisy trials stays within 0.05 rad of truth.
        geom = TentacleGeometry(n_samples=24)
        pts = sample_centerline(CurvatureState(1.2, -0.8), geom)
        rng = np.random.default_rng(7)
        est = []
        for _ in range(100):
            noisy = pts + rng.normal(0.0, 0.5, pts.shape)
            fit = fit_affine(Centerline(noisy), geom.length_mm)
            est.append([fit.state.q1, fit.state.q2])
        mean = np.mean(est, axis=0)
        assert abs(mean[0] - 1.2) < 0.05
        assert abs(mean[1] + 0.8) < 0.05

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_affine(Centerline([[0, 0], [0, 1], [0, 2]]), L)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            fit_affine(centerline_for(1.0, 0.0), 0.0)


class TestPolyTargets:
    def test_straight(self):
        c = poly_targets(np.zeros((1, 2)), GEOM200)
        assert c.shape == (1, 2)
        assert np.all(np.abs(c) < 1e-9)

    def test_exact_cubic(self):
        # For small angles x(s) = -L (q1 s^2 / 2 + q2 s^3 / 6): an exact
        # clamped cubic, up to O(q^3).
        q = np.array([[1e-4, -2e-4], [-3e-4, 5e-5]])
        c = poly_targets(q, GEOM200)
        expect = np.column_stack([-L * q[:, 0] / 2, -L * q[:, 1] / 6])
        assert np.allclose(c, expect, rtol=1e-6, atol=0.0)

    def test_moderate_curvature_residual(self):
        cl = centerline_for(1.0, 0.5)
        (c2, c3), = poly_targets(np.array([[1.0, 0.5]]), GEOM200)
        s = np.linspace(0.0, 1.0, len(cl))
        pred = c2 * s * s + c3 * s**3
        resid = np.sqrt(np.mean((pred - cl.points[:, 0]) ** 2))
        tip_range = abs(cl.points[:, 0]).max()
        assert resid < 0.02 * max(tip_range, 1.0)

    @pytest.mark.parametrize("q", [(np.pi, 0.0), (0.0, np.pi), (-2.0, 2.0)])
    def test_cubic_approximates_affine_shapes(self, q):
        cl = centerline_for(*q)
        (c2, c3), = poly_targets(np.array([q]), GEOM200)
        s = np.linspace(0.0, 1.0, len(cl))
        pred = c2 * s * s + c3 * s**3
        resid = np.sqrt(np.mean((pred - cl.points[:, 0]) ** 2))
        tip_range = np.ptp(cl.points[:, 0])
        assert resid < 0.03 * tip_range


class TestPolyCenterline:
    def test_straight_tip(self):
        x, y = poly_centerline(np.zeros(2), GEOM200)[-1]
        assert (x, y) == pytest.approx((0.0, L))

    def test_arc_length_clamped(self):
        # A slope budget the cubic exceeds near the tip: the axial
        # increment clamps, so total reach stays below L.
        pts = poly_centerline(np.array([0.0, -300.0]), GEOM200)
        assert np.all(np.diff(pts[:, 1]) >= 0.0)
        assert pts[-1, 1] < L

    def test_small_lateral_reach(self):
        pts = poly_centerline(np.array([5.0, -3.0]), GEOM200)
        total = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        assert total == pytest.approx(L, rel=1e-3)

    def test_nonfinite_coeffs_rejected(self):
        with pytest.raises(ValueError):
            poly_centerline(np.array([np.inf, 1.0]), GEOM200)

    @pytest.mark.parametrize("c", [1.0, [1.0], [0.0, 0.0, 1.0, 2.0],
                                   np.zeros((3, 4))])
    def test_non_pair_rejected(self, c):
        with pytest.raises(ValueError):
            poly_centerline(c, GEOM200)

    def test_batch_matches_rows(self):
        c = np.random.default_rng(3).normal(0.0, 50.0, (3, 4, 2))
        geom = TentacleGeometry(n_samples=37)
        pts = poly_centerline(c, geom)
        assert pts.shape == (3, 4, 37, 2)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(pts[i, j],
                                      poly_centerline(c[i, j], geom))


class TestPolyTipReference:
    def test_tips_equal_per_row_loop(self):
        rng = np.random.default_rng(11)
        c = np.concatenate([rng.normal(0.0, 60.0, (200, 2)),
                            rng.uniform(-400.0, 400.0, (50, 2)),
                            [[0.0, -300.0], [0.0, 0.0], [5.0, -3.0]]])
        got = SHAPES["poly"].tips(c, GEOM200)
        ref = _ref_poly_tips(c, L)
        assert np.array_equal(got, ref)
        # The large coefficients exercise the slope clamp.
        assert np.any(ref[:, 1] < 0.99 * L)


class TestShapes:
    Q = np.random.default_rng(5).uniform(-2.0, 2.0, (40, 2))
    STATIONS = np.linspace(0.0, 1.0, 16)

    def test_affine_entries_equal_the_kinematics(self):
        affine = SHAPES["affine"]
        assert affine.targets(self.Q, GEOM200) is self.Q
        assert np.array_equal(affine.tips(self.Q, GEOM200),
                              tip_positions(self.Q, GEOM200))
        assert np.array_equal(affine.lateral(self.Q, self.STATIONS, L),
                              lateral_displacements(self.Q, self.STATIONS, L))
        assert np.array_equal(
            affine.centerline(self.Q[3], GEOM200),
            sample_centerline(CurvatureState(*self.Q[3]), GEOM200))

    def test_affine_entries_look_up_kinematics_when_called(self,
                                                           monkeypatch):
        # A wrapper installed over the module's names sees every call.
        monkeypatch.setattr(fitting, "tip_positions", lambda q, g: "tips")
        monkeypatch.setattr(fitting, "lateral_displacements",
                            lambda q, s, L: "lateral")
        assert SHAPES["affine"].tips(self.Q, GEOM200) == "tips"
        assert SHAPES["affine"].lateral(self.Q, self.STATIONS, L) == "lateral"

    def test_poly_lateral_is_least_squares_profile(self):
        # At the stations poly_targets fits on, the cubic's field is the
        # projection of the true lateral profile onto s^2 and s^3.
        s = np.linspace(0.0, 1.0, GEOM200.n_samples)
        lat = lateral_displacements(self.Q, s, L)
        got = SHAPES["poly"].lateral(poly_targets(self.Q, GEOM200), s, L)
        basis = np.column_stack([s * s, s ** 3])
        want = basis @ np.linalg.pinv(basis) @ lat
        assert got.shape == (len(s), len(self.Q))
        assert np.allclose(got, want, rtol=0.0, atol=1e-9 * L)
        assert np.allclose(basis.T @ (lat - got), 0.0, atol=1e-8 * L)

    def test_poly_lateral_of_coefficients(self):
        got = SHAPES["poly"].lateral(np.array([[2.0, -1.0]]), self.STATIONS,
                                     L)
        s = self.STATIONS
        assert np.allclose(got[:, 0], 2.0 * s * s - s ** 3, rtol=0.0,
                           atol=1e-12)

    def test_poly_centerline_and_tips(self):
        c = np.array([[40.0, -25.0], [-300.0, 200.0]])
        assert np.array_equal(SHAPES["poly"].centerline(c[0], GEOM200),
                              poly_centerline(c[0], GEOM200))
        assert np.array_equal(SHAPES["poly"].tips(c, GEOM200),
                              poly_centerline(c, GEOM200)[:, -1])


class TestNrmse:
    def test_identity(self):
        assert nrmse([0, 1, 2], [0, 1, 2]) == 0.0

    def test_hand_value(self):
        assert nrmse([0.1, 0.9], [0.0, 1.0]) == pytest.approx(10.0)

    def test_zero_range(self):
        with pytest.raises(ValueError):
            nrmse([1.0, 2.0], [3.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nrmse([1.0], [1.0, 2.0])

    def test_shift_invariance(self):
        t = np.sin(np.linspace(0, 5, 40))
        p = t + 0.1 * np.cos(np.linspace(0, 5, 40))
        assert nrmse(p + 3.0, t + 3.0) == pytest.approx(nrmse(p, t))

    def test_scale_invariance(self):
        t = np.sin(np.linspace(0, 5, 40))
        p = t + 0.05
        assert nrmse(7.0 * p, 7.0 * t) == pytest.approx(nrmse(p, t))


class TestFitReport:
    def test_identical_series_zero(self):
        states = np.array([[0.5, -0.2], [1.0, 0.3], [-0.4, 0.1]])
        rep = fit_report(states, states, GEOM200, "affine",
                         tip_positions(states, GEOM200))
        assert rep.nrmse_seg1 == 0.0
        assert rep.nrmse_seg2 == 0.0
        assert rep.abs_tip_err_mean == 0.0
        assert rep.rel_tip_err == 0.0

    def test_constant_predictor_rel_tip(self):
        # Square-wave truth vs its mean: every tip misses by the half
        # range, so the relative tip error approaches 50%.
        truth = np.array([[0.8, 0.1], [-0.8, -0.1]] * 20)
        pred = np.zeros_like(truth)
        rep = fit_report(pred, truth, GEOM200, "affine",
                         tip_positions(truth, GEOM200))
        assert 40.0 < rep.rel_tip_err < 60.0

    def test_poly_channels(self):
        truth = np.array([[2.0, -1.0], [-1.5, 0.5], [0.5, 1.0]])
        pred = truth + np.array([0.1, -0.1])
        rep = fit_report(pred, truth, GEOM200, "poly",
                         poly_centerline(truth, GEOM200)[:, -1])
        assert rep.nrmse_seg1 == pytest.approx(100 * 0.1 / 3.5)
        assert rep.nrmse_seg2 == pytest.approx(100 * 0.1 / 2.0)

    def test_truth_tip_override(self):
        truth = np.array([[0.5, 0.0], [-0.5, 0.0], [0.2, 0.1]])
        tips = tip_positions(truth, GEOM200)
        rep_a = fit_report(truth, truth, GEOM200, "affine", tips)
        assert rep_a.abs_tip_err_mean == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError, match="align"):
            fit_report(truth, truth, GEOM200, "affine", tips[:2])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_report(np.zeros((3, 2)), np.zeros((4, 2)), GEOM200,
                       "affine", np.zeros((4, 2)))

    @pytest.mark.parametrize("kind", ["affine", "poly"])
    def test_non_pair_states_rejected(self, kind):
        states = np.arange(12.0).reshape(3, 4)
        with pytest.raises(ValueError):
            fit_report(states, states, GEOM200, kind, np.zeros((3, 2)))

    def test_zero_tip_range(self):
        states = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            fit_report(states, states, GEOM200, "affine",
                       tip_positions(states, GEOM200))
