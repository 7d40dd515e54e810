"""Planar forward kinematics of the affine curvature tentacle model.

The tentacle centerline is described by two Lagrangian coordinates
(q1, q2): curvature varies linearly along the normalized arc coordinate
s in [0, 1], so the axis angle is alpha(s) = q1*s + q2*s**2/2 and
Cartesian positions follow by integrating (-L*sin(alpha), L*cos(alpha)).
The position integrals are clothoid-type (quadratic phase) and are
evaluated here with composite Gauss-Legendre quadrature of order 10
instead of special functions. Each state gets its own panel count: over
a panel of width h the axis angle changes by at most (|q1| + |q2|)*h, so
min(8, max(1, ceil((|q1| + |q2|) / 2.5))) panels per unit arc keep each
panel's phase span within 2.5 rad below the cap. Against a 64-panel
reference, on 20,000 random states per band, the largest tip error is
2.6e-16*L with 1 panel (|q1| + |q2| <= 2.5) or 2 (<= 5), 3.9e-16*L with
3-4 (<= 10) or 5-7 (<= 17.5), and a fixed 8 panels give 3.9e-16*L on
the same states. A swept cell's tip (|q1| + |q2| under 2) costs 10 nodes
rather than 80. Calls whose stations lie at most 1/8 apart (the
16-station lateral field, the 50-point midline, the 600-sample render)
and states with |q1| + |q2| > 17.5 get exactly the nodes of a fixed
8-panel rule. Every position here comes from one routine, `_integrals`:
its stations share nodes and accumulate from the root, and it evaluates
only the integrands asked for (the lateral field needs no cosines).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checks import integer, number

__all__ = [
    "CurvatureState",
    "TentacleGeometry",
    "lateral_displacements",
    "sample_centerline",
    "tip_position",
    "tip_positions",
]

# Composite quadrature resolution. A state gets ceil(bend / _GL_SPAN)
# panels per unit arc coordinate, bend = |q1| + |q2|, at least 1 and at
# most _GL_PANELS, so no panel's axis angle spans more than _GL_SPAN rad
# below the cap. At the cap, against a 64-panel reference on a 161 x 161
# grid of |q1|, |q2| <= 20, the tip error is 2.6e-16*L with 8 panels and
# 2.2e-16*L with 16; with 4 it grows to 3.7e-12*L.
_GL_ORDER = 10
_GL_PANELS = 8
_GL_SPAN = 2.5
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


@dataclass(frozen=True)
class CurvatureState:
    """Affine curvature coordinates: c(s) = q1 + q2*s, both in radians."""

    q1: float
    q2: float

    def __post_init__(self):
        number("q1", self.q1)
        number("q2", self.q2)

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2], dtype=float)


@dataclass(frozen=True)
class TentacleGeometry:
    """Undeformed tentacle geometry and centerline sampling resolution."""

    length_mm: float = 220.0
    n_samples: int = 200
    root_diameter_mm: float = 24.0

    def __post_init__(self):
        for k in ("length_mm", "root_diameter_mm"):
            if number(k, getattr(self, k)) <= 0:
                raise ValueError(f"{k} must be positive")
        integer("n_samples", self.n_samples, 2)


def _check_s(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if not np.all((s >= 0.0) & (s <= 1.0)):          # NaN fails too
        raise ValueError("arc coordinate s must lie in [0, 1]")
    return s


def _integrals(q_series, stations, fns) -> list:
    """int_0^s fn(alpha(v)) dv for (T, 2) states and (N_s,) stations.

    Returns one (T, N_s) array per elementwise integrand in `fns`.
    Shared-node cumulative quadrature: the distinct stations, with 0
    added, cut [0, max s] into gaps. A state with P panels per unit arc
    (see _GL_SPAN) gives each gap ceil(gap * P) Gauss-Legendre panels,
    sums each panel once, and one cumulative sum over the panels gives
    every station's integral from the root, exactly 0 at s = 0. Sixteen
    uniform stations cost 150 nodes per state rather than 16 separate
    [0, s] integrals. States whose node sets coincide run together, which
    is every state when no gap exceeds 1/8; each result depends only on
    its own state. Stations may come in any order and repeat.
    """
    q_series = np.asarray(q_series, dtype=float)
    # fmax sends a NaN state to one panel; its integrals are NaN anyway.
    bend = np.abs(q_series).sum(axis=1)
    per_arc = np.fmin(_GL_PANELS, np.fmax(1, np.ceil(bend / _GL_SPAN)))
    per_arc = per_arc.astype(int)
    counts = tuple(np.flatnonzero(np.bincount(per_arc)).tolist())
    layouts = _layout(np.asarray(stations, dtype=float).tobytes(), counts)
    outs = [np.empty((len(q_series), len(stations))) for _ in fns]
    for member, *nodes in layouts:
        # One node set for every state reads and writes them by slice.
        rows = None if len(layouts) == 1 else np.flatnonzero(member[per_arc])
        _panel_sums(q_series, rows, *nodes, fns, outs)
    return outs


@lru_cache(maxsize=16)
def _layout(stations: bytes, counts: tuple) -> tuple:
    """Quadrature nodes of `_integrals` for float64 stations, given as
    bytes, and the panels per unit arc in use.

    One read-only (member, v, v**2 / 2, h / 2, col) per distinct node
    set: member[P] is true for the counts P that share it, v are the
    nodes, h the panel widths, and station i's integral sits in column
    col[i] of the cumulative panel sums.
    """
    knots, where = np.unique(np.concatenate([[0.0], np.frombuffer(stations)]),
                             return_inverse=True)
    gaps = np.diff(knots)
    node_sets = {}
    for p in counts:
        panels = np.ceil(gaps * p).astype(int)
        node_sets.setdefault(panels.tobytes(), (panels, []))[1].append(p)
    layouts = []
    for panels, ps in node_sets.values():
        member = np.zeros(_GL_PANELS + 1, dtype=bool)
        member[ps] = True
        gap_of = np.repeat(np.arange(len(gaps)), panels)
        ends = np.concatenate([[0], np.cumsum(panels)])
        h = gaps[gap_of] / panels[gap_of]
        mid = knots[gap_of] + h * (np.arange(len(h)) - ends[gap_of] + 0.5)
        v = (mid[:, None] + 0.5 * h[:, None] * _GL_NODES[None, :]).ravel()
        # Column p of `cum` holds the integral over the first p panels, so
        # knot j (the end of gap j - 1) sits in column ends[j].
        layout = (member, v, 0.5 * v * v, 0.5 * h, ends[where[1:]])
        for a in layout:
            a.flags.writeable = False
        layouts.append(layout)
    return tuple(layouts)


def _panel_sums(q_series, rows, v, half_v2, half_h, col, fns, outs) -> None:
    """Fill rows `rows` (all rows if None) of each of `outs` from the
    nodes of one `_layout` node set."""
    n_t = len(q_series) if rows is None else len(rows)
    n_panels = len(half_h)
    # Time blocks of about 32k angles (256 kB per buffer): `alpha`, the
    # integrand buffer and `cum` are allocated once per node set, refilled
    # in place and stay in a core's L2 cache, where blocks of 2e6 angles
    # spent more time writing multi-MB temporaries than in sin and cos.
    # No BLAS here: threaded BLAS products slowed the GP and COD after
    # them in a sweep.
    block = max(1, 32768 // max(1, v.size))
    n_rows = min(block, n_t)
    alpha = np.empty((n_rows, v.size))
    buf = np.empty((n_rows, v.size))
    cum = np.zeros((n_rows, n_panels + 1))
    for k in range(0, n_t, block):
        idx = slice(k, k + block) if rows is None else rows[k:k + block]
        q = q_series[idx]
        n = len(q)
        a, b, c = alpha[:n], buf[:n], cum[:n]
        np.multiply(q[:, :1], v, out=a)
        np.multiply(q[:, 1:], half_v2, out=b)
        a += b
        for out, fn in zip(outs, fns):
            fn(a, out=b)
            per_panel = np.einsum("tpk,k->tp",
                                  b.reshape(n, n_panels, _GL_ORDER),
                                  _GL_WEIGHTS)
            per_panel *= half_h
            np.cumsum(per_panel, axis=1, out=c[:, 1:])
            out[idx] = c[:, col]


def sample_centerline(q: CurvatureState, geom: TentacleGeometry) -> np.ndarray:
    """Centerline sampled at n uniform arc-coordinate points, root first.

    Returns an (n_samples, 2) array of (x, y) in mm; the first row is the
    origin. x = -int_0^s L sin(alpha(v)) dv, y = +int_0^s L cos(alpha(v)) dv.
    """
    x, y = _integrals(q.as_array()[None, :],
                      np.linspace(0.0, 1.0, geom.n_samples), (np.sin, np.cos))
    return np.column_stack([-geom.length_mm * x[0], geom.length_mm * y[0]])


def tip_position(q: CurvatureState, geom: TentacleGeometry):
    """Tip point (s = 1) of the deformed centerline: an (x, y) tuple in mm."""
    x, y = tip_positions(q.as_array()[None, :], geom)[0]
    return float(x), float(y)


def lateral_displacements(q_series: np.ndarray, stations: np.ndarray,
                          L: float) -> np.ndarray:
    """Lateral (x) displacement at fixed stations for a series of states.

    Args:
        q_series: (T, 2) array of (q1, q2) per time step.
        stations: (N_s,) arc coordinates in [0, 1], in any order.
        L: undeformed length in mm.

    Returns:
        (N_s, T) C-contiguous array of x positions in mm.
    """
    x, = _integrals(q_series, _check_s(stations), (np.sin,))
    return np.multiply(-L, x.T, order="C")


def tip_positions(q_series: np.ndarray, geom: TentacleGeometry) -> np.ndarray:
    """Tip (x, y) in mm for each state in a (T, 2) series."""
    x, y = _integrals(q_series, np.ones(1), (np.sin, np.cos))
    return np.column_stack([-geom.length_mm * x[:, 0],
                            geom.length_mm * y[:, 0]])
