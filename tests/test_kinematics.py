import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentaclelab.kinematics import (CurvatureState, TentacleGeometry,
                                    _integrals, _layout,
                                    lateral_displacements,
                                    sample_centerline, tip_position,
                                    tip_positions)

L = 220.0
GEOM = TentacleGeometry()


def midpoint_oracle(q1, q2, L, n=1_000_000):
    """Independent midpoint-rule evaluation of the position integrals."""
    v = (np.arange(n) + 0.5) / n
    alpha = q1 * v + 0.5 * q2 * v * v
    return (-L * np.sin(alpha).mean(), L * np.cos(alpha).mean())


def arc_tip(q1, L):
    return (-L * (1.0 - np.cos(q1)) / q1, L * np.sin(q1) / q1)


def heading(q, s, h=1e-4):
    """Centerline heading at each s, from the chord of sample_centerline
    over [s - h, s + h]: the tangent is (-sin(alpha), cos(alpha))."""
    geom = TentacleGeometry(n_samples=int(round(1 / h)) + 1)
    pts = sample_centerline(q, geom)
    k = np.rint(np.asarray(s) / h).astype(int)
    lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, geom.n_samples - 1)
    d = pts[hi] - pts[lo]
    return np.arctan2(-d[..., 0], d[..., 1])


class TestAxisAngle:
    """The centerline heading is the axis angle q1*s + q2*s**2/2."""

    def test_straight(self):
        assert heading(CurvatureState(0.0, 0.0), 0.7) == 0.0

    def test_constant_curvature_full(self):
        assert heading(CurvatureState(np.pi, 0.0), 1.0) == \
            pytest.approx(np.pi, abs=1e-3)

    def test_closed_form_value(self):
        assert heading(CurvatureState(1.0, 2.0), 0.5) == \
            pytest.approx(0.75, abs=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lateral_displacements(np.zeros((1, 2)), np.array([1.2]), L)
        with pytest.raises(ValueError):
            lateral_displacements(np.zeros((1, 2)), np.array([-0.1]), L)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_zero_at_root(self, q1, q2):
        assert heading(CurvatureState(q1, q2), 0.0) == \
            pytest.approx(0.0, abs=1e-3)

    def test_vectorized(self):
        s = np.array([0.25, 0.5, 0.75])
        out = heading(CurvatureState(1.0, 2.0), s)
        assert np.allclose(out, s + s * s, atol=1e-7)


class TestCenterlinePosition:
    def test_straight_tip(self):
        assert tip_position(CurvatureState(0, 0), GEOM) == \
            pytest.approx((0.0, L))

    @pytest.mark.parametrize("q1", [np.pi, np.pi / 2, 1.0, -2.5, 2 * np.pi - 0.1])
    def test_constant_curvature_oracle(self, q1):
        x, y = tip_position(CurvatureState(q1, 0.0), GEOM)
        xo, yo = arc_tip(q1, L)
        assert abs(x - xo) < 1e-9 * L
        assert abs(y - yo) < 1e-9 * L

    @pytest.mark.parametrize("q", [(0.0, np.pi), (2.0, -1.0), (-3.0, 5.0),
                                   (4 * np.pi, -4 * np.pi)])
    def test_midpoint_oracle(self, q):
        x, y = tip_position(CurvatureState(*q), GEOM)
        xo, yo = midpoint_oracle(q[0], q[1], L)
        assert abs(x - xo) < 1e-7 * L
        assert abs(y - yo) < 1e-7 * L

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lateral_displacements(np.zeros((1, 2)), np.array([1.5]), L)
        with pytest.raises(ValueError):
            TentacleGeometry(length_mm=-2.0)


class TestGeometry:
    @pytest.mark.parametrize("n", [2.5, True, 1, 2.0, "200"])
    def test_n_samples_must_be_an_integer_ge_2(self, n):
        with pytest.raises(ValueError, match="n_samples"):
            TentacleGeometry(n_samples=n)

    @pytest.mark.parametrize("field", ["length_mm", "root_diameter_mm"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_lengths_must_be_finite_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            TentacleGeometry(**{field: value})

    def test_numpy_integer_samples_accepted(self):
        assert TentacleGeometry(n_samples=np.int64(24)).n_samples == 24


class TestSampleCenterline:
    def test_straight_three_points(self):
        pts = sample_centerline(CurvatureState(0, 0),
                                TentacleGeometry(n_samples=3))
        assert np.allclose(pts, [[0, 0], [0, 110], [0, 220]])

    def test_half_circle_two_points(self):
        pts = sample_centerline(CurvatureState(np.pi, 0),
                                TentacleGeometry(n_samples=2))
        assert pts[0] == pytest.approx((0.0, 0.0))
        assert pts[1][0] == pytest.approx(-2 * 220 / np.pi, abs=1e-6)
        assert pts[1][1] == pytest.approx(0.0, abs=1e-6)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            TentacleGeometry(n_samples=1)

    def test_first_point_is_origin(self):
        pts = sample_centerline(CurvatureState(2.0, -1.0), GEOM)
        assert pts[0, 0] == 0.0 and pts[0, 1] == 0.0

    @pytest.mark.parametrize("q", [(2 * np.pi, 0.0), (0.0, 2 * np.pi),
                                   (-np.pi, np.pi), (1.0, 1.0)])
    def test_arc_length_preservation(self, q):
        pts = sample_centerline(CurvatureState(*q), GEOM)
        total = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        assert abs(total - L) / L < 1e-4


class TestSymmetry:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(-6, 6), st.floats(-6, 6))
    def test_mirror(self, q1, q2):
        p = sample_centerline(CurvatureState(q1, q2), GEOM)
        m = sample_centerline(CurvatureState(-q1, -q2), GEOM)
        assert np.allclose(p[:, 0], -m[:, 0], atol=1e-9)
        assert np.allclose(p[:, 1], m[:, 1], atol=1e-9)


class TestBatchHelpers:
    def test_tip_positions_matches_scalar(self):
        qs = np.array([[0.5, -0.3], [2.0, 1.0], [0.0, 0.0]])
        batch = tip_positions(qs, GEOM)
        for row, tip in zip(qs, batch):
            assert tip == pytest.approx(tip_position(CurvatureState(*row), GEOM))

    def test_lateral_matches_positions(self):
        qs = np.array([[1.0, -0.5], [-2.0, 0.7]])
        stations = np.linspace(0.0, 1.0, 11)
        lat = lateral_displacements(qs, stations, L)
        assert lat.shape == (11, 2)
        for t, row in enumerate(qs):
            pts = sample_centerline(CurvatureState(*row),
                                    TentacleGeometry(n_samples=11))
            assert lat[:, t] == pytest.approx(pts[:, 0], abs=1e-9)


class TestInvariants:
    def test_nonfinite_state_rejected(self):
        with pytest.raises(ValueError):
            CurvatureState(np.nan, 0.0)
        with pytest.raises(ValueError):
            CurvatureState(0.0, np.inf)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            TentacleGeometry(length_mm=0.0)
        with pytest.raises(ValueError):
            TentacleGeometry(root_diameter_mm=-1.0)


_REF_PANELS = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def per_station_lateral_displacements(q_series, stations, L):
    """Per-station reference: 16 panels on each [0, s] separately."""
    q_series = np.asarray(q_series, dtype=float)
    stations = np.asarray(stations, dtype=float)
    edges = stations[:, None] * np.linspace(0.0, 1.0, _REF_PANELS + 1)[None, :]
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    v = (mid[:, :, None] + half[:, :, None] * _GL_NODES[None, None, :]).reshape(
        len(stations), -1)
    w = (half[:, :, None] * np.broadcast_to(
        _GL_WEIGHTS[None, None, :], half.shape + (10,))).reshape(
        len(stations), -1)
    out = np.empty((len(q_series), len(stations)))
    block = max(1, int(2e6 // max(v.size, 1)))
    for k in range(0, len(q_series), block):
        q1 = q_series[k:k + block, 0][:, None, None]
        q2 = q_series[k:k + block, 1][:, None, None]
        alpha = q1 * v[None, :, :] + 0.5 * q2 * v[None, :, :] ** 2
        out[k:k + block] = -L * np.sum(w[None, :, :] * np.sin(alpha), axis=2)
    return out.T


def reference_tips(q_series, L, panels=64):
    """Tip (x, y) by composite Gauss-Legendre with many panels."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    v = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    alpha = q_series[:, :1] * v + 0.5 * q_series[:, 1:] * v * v
    return np.column_stack([-L * (w * np.sin(alpha)).sum(axis=1),
                            L * (w * np.cos(alpha)).sum(axis=1)])


def reference_positions(q, s, L, panels=64):
    """(x, y) at each s for one state, by 64 panels on each [0, s]."""
    edges = np.asarray(s, dtype=float)[:, None] * np.linspace(
        0.0, 1.0, panels + 1)[None, :]
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    v = mid[:, :, None] + half[:, :, None] * _GL_NODES
    w = half[:, :, None] * _GL_WEIGHTS
    alpha = q[0] * v + 0.5 * q[1] * v * v
    return np.column_stack([-L * (w * np.sin(alpha)).sum(axis=(1, 2)),
                            L * (w * np.cos(alpha)).sum(axis=(1, 2))])


def _states(qmax, n=300, seed=0):
    rng = np.random.default_rng(seed)
    corners = np.array([[qmax, qmax], [-qmax, qmax], [qmax, -qmax],
                        [-qmax, -qmax], [qmax, 0.0], [0.0, -qmax],
                        [0.0, 0.0]])
    return np.vstack([corners, rng.uniform(-qmax, qmax, size=(n, 2))])


class TestSharedNodeQuadrature:
    @pytest.mark.parametrize("stations", [
        np.array([0.7, 0.1, 1.0, 0.35, 0.0]),
        np.array([0.5, 0.2, 0.5, 1.0, 0.2, 0.0, 0.0]),
        np.array([0.0]),
        np.array([1.0]),
        np.linspace(0.0, 1.0, 3),
        np.linspace(0.0, 1.0, 16),
        np.linspace(0.0, 1.0, 200),
    ], ids=["unsorted", "duplicates", "root", "tip", "3", "16", "200"])
    def test_matches_per_station_reference(self, stations):
        q = _states(10.0)
        got = lateral_displacements(q, stations, L)
        ref = per_station_lateral_displacements(q, stations, L)
        assert got.shape == (len(stations), len(q))
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * L)

    def test_time_blocks_agree(self):
        # 200 stations use 1990 nodes per state, so a time block holds 16
        # states and 2000 states span 125 blocks.
        q = _states(4.0, n=2000, seed=1)
        s = np.linspace(0.0, 1.0, 200)
        whole = lateral_displacements(q, s, L)
        parts = np.hstack([lateral_displacements(q[:700], s, L),
                           lateral_displacements(q[700:], s, L)])
        assert np.array_equal(whole, parts)
        # Across many blocks, each state equals that state alone: the tip,
        # 16 stations (150 nodes, 218 states a block), 200 stations, and
        # 16 shuffled stations with repeats. At the tip the 1000 states of
        # bend |q1| + |q2| <= 8 take 1-4 panels (10-40 nodes, 819 or more
        # states a block, so one block per node set); the 500 steep ones,
        # of bend above 17.5, take the capped 8 panels (80 nodes, 409
        # states a block) and span two blocks.
        q = q[:1000]
        rng = np.random.default_rng(6)
        steep = rng.uniform(9.0, 10.0, size=(500, 2)) \
            * rng.choice([-1.0, 1.0], size=(500, 2))
        s16 = np.linspace(0.0, 1.0, 16)
        shuffled = np.random.default_rng(5).permutation(
            np.concatenate([s16, s16[2:7], [0.0, 1.0]]))
        q_tip = np.vstack([q, steep])
        whole = tip_positions(q_tip, GEOM)
        alone = np.vstack([tip_positions(qi[None], GEOM) for qi in q_tip])
        assert np.array_equal(whole, alone)
        for s in (s16, np.linspace(0.0, 1.0, 200), shuffled):
            whole = lateral_displacements(q, s, L)
            alone = np.hstack([lateral_displacements(qi[None], s, L)
                               for qi in q])
            assert np.array_equal(whole, alone)

    def test_empty_inputs(self):
        assert lateral_displacements(np.zeros((0, 2)),
                                     np.linspace(0, 1, 4), L).shape == (4, 0)
        assert lateral_displacements(_states(1.0, n=3),
                                     np.array([]), L).shape == (0, 10)

    def test_tip_positions_match_64_panel_reference(self):
        q = _states(20.0, n=2000, seed=2)
        got = tip_positions(q, GEOM)
        assert np.allclose(got, reference_tips(q, L), rtol=0.0,
                           atol=1e-13 * L)

    @pytest.mark.parametrize("n_samples", [2, 200, 600])
    def test_sample_centerline_matches_64_panel_reference(self, n_samples):
        geom = TentacleGeometry(n_samples=n_samples)
        s = np.linspace(0.0, 1.0, n_samples)
        for q in _states(20.0, n=20, seed=3):
            got = sample_centerline(CurvatureState(*q), geom)
            assert np.allclose(got, reference_positions(q, s, L), rtol=0.0,
                               atol=1e-13 * L)

    def test_centerline_position_matches_64_panel_reference(self):
        s = np.array([0.9, 0.05, 1.0, 0.3, 0.0, 0.55])
        for q in _states(20.0, n=20, seed=4):
            ref = reference_positions(q, s, L)
            assert np.allclose(lateral_displacements(q[None, :], s, L)[:, 0],
                               ref[:, 0], rtol=0.0, atol=1e-13 * L)
            assert np.allclose(tip_position(CurvatureState(*q), GEOM),
                               ref[2], rtol=0.0, atol=1e-13 * L)

    def test_root_row_exactly_zero(self):
        q = _states(20.0, n=20, seed=5)
        for row in q:
            state = CurvatureState(*row)
            assert np.all(sample_centerline(state, GEOM)[0] == 0.0)
        lat = lateral_displacements(q, np.array([0.4, 0.0, 1.0]), L)
        assert np.all(lat[1] == 0.0)

    def test_nan_station_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            lateral_displacements(_states(1.0, n=3), np.array([0.5, np.nan]),
                                  L)


def fixed_panel_integrals(q_series, stations, fns, per_arc=8):
    """The shared-node quadrature with one panel count for every state:
    each gap gets ceil(gap * per_arc) panels. With per_arc = 8 this is
    `_integrals` as it was before panels were sized to each state's bend."""
    q_series = np.asarray(q_series, dtype=float)
    knots, where = np.unique(np.concatenate([[0.0], stations]),
                             return_inverse=True)
    gaps = np.diff(knots)
    panels = np.ceil(gaps * per_arc).astype(int)
    gap_of = np.repeat(np.arange(len(gaps)), panels)
    ends = np.concatenate([[0], np.cumsum(panels)])
    h = gaps[gap_of] / panels[gap_of]
    mid = knots[gap_of] + h * (np.arange(len(h)) - ends[gap_of] + 0.5)
    v = (mid[:, None] + 0.5 * h[:, None] * _GL_NODES[None, :]).ravel()
    half_v2 = 0.5 * v * v
    col = ends[where[1:]]
    half_h = 0.5 * h
    n_t = len(q_series)
    outs = [np.empty((n_t, len(stations))) for _ in fns]
    block = max(1, 32768 // max(1, v.size))
    rows = min(block, n_t)
    alpha = np.empty((rows, v.size))
    buf = np.empty((rows, v.size))
    cum = np.zeros((rows, len(h) + 1))
    for k in range(0, n_t, block):
        q = q_series[k:k + block]
        n = len(q)
        a, b, c = alpha[:n], buf[:n], cum[:n]
        np.multiply(q[:, :1], v, out=a)
        np.multiply(q[:, 1:], half_v2, out=b)
        a += b
        for out, fn in zip(outs, fns):
            fn(a, out=b)
            per_panel = np.einsum("tpk,k->tp",
                                  b.reshape(n, len(h), 10), _GL_WEIGHTS)
            per_panel *= half_h
            np.cumsum(per_panel, axis=1, out=c[:, 1:])
            out[k:k + n] = c[:, col]
    return outs


def _bent(bends, seed):
    """One state per entry of `bends`, with |q1| + |q2| equal to it, split
    at random between the two coordinates with random signs."""
    rng = np.random.default_rng(seed)
    bends = np.asarray(bends, dtype=float)
    share = rng.uniform(0.0, 1.0, size=len(bends))
    signs = rng.choice([-1.0, 1.0], size=(len(bends), 2))
    return signs * np.column_stack([share * bends, (1.0 - share) * bends])


# |q1| + |q2| either side of each panel-count edge, on it, and up to 40.
_EDGES = (2.5, 5.0, 10.0, 17.5)
_EDGE_BENDS = np.concatenate([[0.0, 1.0, 40.0]] + [
    e + np.array([-1e-9, 0.0, 1e-9, -0.3, 0.3]) for e in _EDGES])


class TestPanelsPerState:
    """Each state's panel count follows its bend |q1| + |q2|."""

    def test_tips_match_64_panel_reference_across_bands(self):
        q = np.vstack([_bent(np.repeat(_EDGE_BENDS, 20), seed=6),
                       _states(20.0, n=500, seed=7)])
        assert np.allclose(tip_positions(q, GEOM), reference_tips(q, L),
                           rtol=0.0, atol=1e-13 * L)

    @pytest.mark.parametrize("per_arc", range(1, 9))
    def test_band_uses_its_panel_count(self, per_arc):
        # Bends in ((P - 1) * 2.5, P * 2.5] get P panels; the last band
        # runs on to 40 at the cap of 8. The top bend sits just inside its
        # band, so that rounding in _bent cannot lift it into the next.
        hi = 2.5 * per_arc - 1e-9 if per_arc < 8 else 40.0
        bends = np.linspace(2.5 * (per_arc - 1), hi, 41)[1:]
        q = _bent(bends, seed=per_arc)
        s = np.array([1.0, 0.4])
        got = _integrals(q, s, (np.sin, np.cos))
        want = fixed_panel_integrals(q, s, (np.sin, np.cos), per_arc)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_mixed_bands_equal_each_state_alone(self):
        q = np.random.default_rng(8).permutation(
            _bent(np.repeat(np.linspace(0.0, 40.0, 33), 40), seed=9))
        whole = tip_positions(q, GEOM)
        alone = np.vstack([tip_positions(qi[None], GEOM) for qi in q])
        assert np.array_equal(whole, alone)
        s = np.array([0.3, 1.0, 0.55, 0.3, 0.0])
        whole = lateral_displacements(q, s, L)
        alone = np.hstack([lateral_displacements(qi[None], s, L)
                           for qi in q])
        assert np.array_equal(whole, alone)

    @pytest.mark.parametrize("n_stations", [16, 50, 200, 600])
    def test_close_stations_keep_the_8_panel_nodes(self, n_stations):
        # No gap exceeds 1/8, so every state gets one panel per gap.
        q = np.vstack([_bent(_EDGE_BENDS, seed=10),
                       _states(20.0, n=200, seed=11)])
        s = np.linspace(0.0, 1.0, n_stations)
        for fns in ((np.sin,), (np.sin, np.cos)):
            for g, w in zip(_integrals(q, s, fns),
                            fixed_panel_integrals(q, s, fns)):
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("stations", [
        np.array([1.0]), np.array([0.3, 1.0, 0.55, 0.0]),
        np.linspace(0.0, 1.0, 3)], ids=["tip", "unsorted", "3"])
    def test_bends_above_17_5_keep_the_8_panel_nodes(self, stations):
        q = _bent(np.concatenate([np.linspace(17.5, 40.0, 200)[1:],
                                  [17.5 + 1e-9]]), seed=12)
        for g, w in zip(_integrals(q, stations, (np.sin, np.cos)),
                        fixed_panel_integrals(q, stations,
                                              (np.sin, np.cos))):
            assert np.array_equal(g, w)

    def test_nonfinite_state_gives_nan_and_leaves_others(self):
        q = np.array([[0.5, 0.2], [np.nan, 0.0], [np.inf, 1.0], [30.0, 1.0]])
        with np.errstate(invalid="ignore"):
            tips = tip_positions(q, GEOM)
        assert np.all(np.isnan(tips[1:3]))
        assert np.array_equal(tips[[0, 3]], tip_positions(q[[0, 3]], GEOM))


class TestLayoutCache:
    """`_layout` builds each station set's nodes once; what it hands out
    cannot be changed, so every call integrates on the same nodes."""

    # With 1 to 4 panels per unit arc, gaps of 0.4 and 0.6 make four node
    # sets; gaps of 0.5 make two, one for 1 and 2 panels, one for 3 and 4.
    STATIONS = (np.array([1.0, 0.4]), np.array([0.5, 1.0]))

    def test_a_then_b_then_a(self):
        _layout.cache_clear()
        q = _bent(np.linspace(0.0, 7.4, 30), seed=13)
        a, b = self.STATIONS
        first = _integrals(q, a, (np.sin, np.cos))
        _integrals(q, b, (np.sin, np.cos))
        for g, w in zip(_integrals(q, a, (np.sin, np.cos)), first):
            assert np.array_equal(g, w)
        assert _layout.cache_info().hits >= 1

    def test_writing_a_result_leaves_the_next_call(self):
        q = _states(3.0, n=20, seed=14)
        s = np.linspace(0.0, 1.0, 16)
        first, = _integrals(q, s, (np.sin,))
        want = first.copy()
        first[:] = 7.0
        got, = _integrals(q, s, (np.sin,))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("stations", STATIONS, ids=["4 sets", "2 sets"])
    def test_cached_arrays_are_read_only(self, stations):
        for layout in _layout(stations.tobytes(), (1, 2, 3, 4)):
            for a in layout:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]

    @pytest.mark.parametrize("stations", STATIONS, ids=["4 sets", "2 sets"])
    def test_mixed_panel_counts_match_fixed_panels(self, stations):
        bends = np.repeat([0.5, 2.0, 3.0, 4.9, 6.0, 9.0], 10)
        q = np.random.default_rng(15).permutation(_bent(bends, seed=16))
        per_arc = np.ceil(np.abs(q).sum(axis=1) / 2.5).astype(int)
        assert set(per_arc) == {1, 2, 3, 4}
        fns = (np.sin, np.cos)
        got = _integrals(q, stations, fns)
        for p in range(1, 5):
            rows = per_arc == p
            for g, w in zip(got, fixed_panel_integrals(q[rows], stations,
                                                       fns, p)):
                assert np.array_equal(g[rows], w)
