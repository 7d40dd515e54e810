"""Planar forward kinematics of the affine curvature tentacle model.

The tentacle centerline is described by two Lagrangian coordinates
(q1, q2): curvature varies linearly along the normalized arc coordinate
s in [0, 1], so the axis angle is alpha(s) = q1*s + q2*s**2/2 and
Cartesian positions follow by integrating (-L*sin(alpha), L*cos(alpha)).
The position integrals are clothoid-type (quadratic phase) and are
evaluated here with composite Gauss-Legendre quadrature instead of
special functions: 8 panels of order 10 on [0, 1] put the tip within
2.6e-16*L of a 64-panel reference for |q1|, |q2| <= 20, twice the 10 rad
cap of the simulator. `lateral_displacements` integrates many stations
at once on one shared node set and accumulates the integrals from the
root outward, so neighbouring stations do not repeat each other's work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CurvatureState",
    "TentacleGeometry",
    "axis_angle",
    "centerline_position",
    "sample_centerline",
    "tip_position",
]

# Composite quadrature resolution, in panels per unit arc coordinate.
# Against a 64-panel reference on a 161 x 161 grid of |q1|, |q2| <= 20,
# the tip error is 2.6e-16*L with 8 panels and 2.2e-16*L with 16; with 4
# it grows to 3.7e-12*L, so 8 is the floor.
_GL_ORDER = 10
_GL_PANELS = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


@dataclass(frozen=True)
class CurvatureState:
    """Affine curvature coordinates: c(s) = q1 + q2*s, both in radians."""

    q1: float
    q2: float

    def __post_init__(self):
        if not (math.isfinite(self.q1) and math.isfinite(self.q2)):
            raise ValueError("curvature coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.q2], dtype=float)


@dataclass(frozen=True)
class TentacleGeometry:
    """Undeformed tentacle geometry and centerline sampling resolution."""

    length_mm: float = 220.0
    n_samples: int = 200
    root_diameter_mm: float = 24.0

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValueError("length_mm must be positive")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        if self.root_diameter_mm <= 0:
            raise ValueError("root_diameter_mm must be positive")


def _check_s(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("arc coordinate s must lie in [0, 1]")
    return s


def axis_angle(q: CurvatureState, s):
    """Axis angle alpha(s) = q1*s + q2*s**2/2 in radians.

    Accepts a scalar or array s in [0, 1].
    """
    s = _check_s(s)
    out = q.q1 * s + 0.5 * q.q2 * s * s
    return float(out) if out.ndim == 0 else out


def _quad_positions(q1, q2, s_upper: np.ndarray, L: float) -> np.ndarray:
    """Integrate (-L sin alpha, L cos alpha) over [0, s] for each s in s_upper.

    Returns an (n, 2) array of (x, y) in mm.
    """
    s_upper = np.atleast_1d(np.asarray(s_upper, dtype=float))
    # Panel edges for each upper bound: s * j/P, j = 0..P
    edges = s_upper[:, None] * np.linspace(0.0, 1.0, _GL_PANELS + 1)[None, :]
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])          # (n, P)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])           # (n, P)
    # Nodes mapped into every panel: (n, P, order)
    v = mid[:, :, None] + half[:, :, None] * _GL_NODES[None, None, :]
    alpha = q1 * v + 0.5 * q2 * v * v
    w = half[:, :, None] * _GL_WEIGHTS[None, None, :]
    x = -L * np.sum(w * np.sin(alpha), axis=(1, 2))
    y = L * np.sum(w * np.cos(alpha), axis=(1, 2))
    return np.stack([x, y], axis=-1)


def centerline_position(q: CurvatureState, s, L: float):
    """Cartesian position (x, y) in mm of the centerline point at s.

    x = -int_0^s L sin(alpha(v)) dv, y = +int_0^s L cos(alpha(v)) dv,
    evaluated by composite Gauss-Legendre quadrature.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    s_arr = _check_s(s)
    pts = _quad_positions(q.q1, q.q2, s_arr, L)
    if np.ndim(s) == 0:
        return float(pts[0, 0]), float(pts[0, 1])
    return pts


def sample_centerline(q: CurvatureState, geom: TentacleGeometry) -> np.ndarray:
    """Centerline sampled at n uniform arc-coordinate points, root first.

    Returns an (n_samples, 2) array of (x, y) in mm; the first row is the
    origin.
    """
    s = np.linspace(0.0, 1.0, geom.n_samples)
    pts = _quad_positions(q.q1, q.q2, s, geom.length_mm)
    pts[0] = 0.0
    return pts


def tip_position(q: CurvatureState, geom: TentacleGeometry):
    """Tip point (s = 1) of the deformed centerline, in mm."""
    return centerline_position(q, 1.0, geom.length_mm)


def lateral_displacements(q_series: np.ndarray, stations: np.ndarray,
                          L: float) -> np.ndarray:
    """Lateral (x) displacement at fixed stations for a series of states.

    Shared-node cumulative quadrature: the distinct stations, with 0
    added, cut [0, max s] into gaps; each gap gets ceil(gap * _GL_PANELS)
    Gauss-Legendre panels, the integral over each gap is summed once per
    state, and a cumulative sum over the gaps gives every station's
    integral from the root. Sixteen uniform stations cost 150 nodes per
    state rather than 16 separate [0, s] integrals. Stations may come in
    any order and repeat.

    Args:
        q_series: (T, 2) array of (q1, q2) per time step.
        stations: (N_s,) arc coordinates in [0, 1].
        L: undeformed length in mm.

    Returns:
        (N_s, T) array of x positions in mm.
    """
    q_series = np.asarray(q_series, dtype=float)
    stations = _check_s(stations)
    knots, where = np.unique(np.concatenate([[0.0], stations]),
                             return_inverse=True)
    if len(knots) == 1:            # every station at the root
        return -L * np.zeros((len(stations), len(q_series)))
    gaps = np.diff(knots)
    panels = np.ceil(gaps * _GL_PANELS).astype(int)
    gap_of = np.repeat(np.arange(len(gaps)), panels)
    first = np.cumsum(panels) - panels
    h = gaps[gap_of] / panels[gap_of]
    mid = knots[gap_of] + h * (np.arange(len(gap_of)) - first[gap_of] + 0.5)
    v = (mid[:, None] + 0.5 * h[:, None] * _GL_NODES[None, :]).ravel()
    w = (0.5 * h[:, None] * _GL_WEIGHTS[None, :]).ravel()
    # Evaluate in time blocks to keep the (block, nodes) temporary small
    # for long series. Column 0 of `cum` is the root; column g + 1 holds
    # the integral up to the end of gap g.
    out = np.empty((len(q_series), len(stations)))
    block = max(1, int(2e6 // v.size))
    for k in range(0, len(q_series), block):
        q1 = q_series[k:k + block, 0][:, None]
        q2 = q_series[k:k + block, 1][:, None]
        alpha = q1 * v[None, :] + 0.5 * q2 * v[None, :] ** 2
        per_gap = np.add.reduceat(w[None, :] * np.sin(alpha),
                                  first * _GL_ORDER, axis=1)
        cum = np.zeros((len(per_gap), len(knots)))
        np.cumsum(per_gap, axis=1, out=cum[:, 1:])
        out[k:k + block] = -L * cum[:, where[1:]]
    return out.T


def tip_positions(q_series: np.ndarray, geom: TentacleGeometry) -> np.ndarray:
    """Tip (x, y) in mm for each state in a (T, 2) series."""
    q_series = np.asarray(q_series, dtype=float)
    out = np.empty((len(q_series), 2))
    # Shared nodes on [0, 1].
    edges = np.linspace(0.0, 1.0, _GL_PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    v = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    q1 = q_series[:, 0][:, None]
    q2 = q_series[:, 1][:, None]
    alpha = q1 * v[None, :] + 0.5 * q2 * v[None, :] ** 2
    out[:, 0] = -geom.length_mm * np.sum(w[None, :] * np.sin(alpha), axis=1)
    out[:, 1] = geom.length_mm * np.sum(w[None, :] * np.cos(alpha), axis=1)
    return out
