"""Shape-model fitting of observed centerlines and reconstruction error metrics.

Two reduced shape models describe a centerline: the affine curvature
model (q1, q2), fit to a sampled centerline, and the root-clamped cubic
x(s) = c2 s^2 + c3 s^3 of the lateral displacement, fit to a state's
lateral profile. Every command reads them through `SHAPES`, by target.
Error metrics follow the usual reconstruction-comparison conventions:
channel-wise NRMSE plus absolute and relative tip error.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .checks import number_array
from .kinematics import CurvatureState, TentacleGeometry, \
    lateral_displacements, sample_centerline, tip_positions

__all__ = [
    "Shape",
    "SHAPES",
    "Centerline",
    "FitReport",
    "AffineFit",
    "fit_affine",
    "nrmse",
    "fit_report",
    "poly_targets",
    "poly_centerline",
]


class Centerline:
    """Ordered planar centerline points at implicitly uniform arc parameter.

    Points are (x, y) in mm; the root is the first point.
    """

    def __init__(self, points):
        pts = number_array("centerline points", points)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (N, 2) array")
        if len(pts) < 2:
            raise ValueError("a centerline needs at least 2 points")
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(seg == 0.0):
            raise ValueError("consecutive centerline points must be distinct")
        self.points = pts
        self.segment_lengths = seg

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class AffineFit:
    """Affine-model fit result with its tangent-angle residual."""

    state: CurvatureState
    residual_rms: float


@dataclass(frozen=True)
class FitReport:
    nrmse_seg1: float        # percent, channel q1 (or c2)
    nrmse_seg2: float        # percent, channel q2 (or c3)
    abs_tip_err_mean: float  # mm
    abs_tip_err_std: float   # mm
    rel_tip_err: float       # percent of ground-truth tip range

    def as_dict(self) -> dict:
        return {
            "nrmse_seg1_pct": self.nrmse_seg1,
            "nrmse_seg2_pct": self.nrmse_seg2,
            "abs_tip_err_mean_mm": self.abs_tip_err_mean,
            "abs_tip_err_std_mm": self.abs_tip_err_std,
            "rel_tip_err_pct": self.rel_tip_err,
        }


def _tangent_angles(cl: Centerline):
    """Segment heading angles and mid-segment arc lengths.

    The heading convention matches the kinematics: tangent =
    (-sin(alpha), cos(alpha)), so alpha = atan2(-dx, dy), unwrapped.
    """
    d = np.diff(cl.points, axis=0)
    alpha = np.unwrap(np.arctan2(-d[:, 0], d[:, 1]))
    # Chord length understates arc length by (turn/2)/sin(turn/2); correct
    # with the local turn angle so strongly curled shapes keep an unbiased
    # arc parameter.
    turn = np.gradient(alpha) if len(alpha) > 1 else np.zeros_like(alpha)
    seg = cl.segment_lengths / np.sinc(turn / (2.0 * np.pi))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_mid = 0.5 * (cum[:-1] + cum[1:])
    return alpha, s_mid


def fit_affine(cl: Centerline, L: float) -> AffineFit:
    """Least-squares fit of (q1, q2) to the centerline's tangent angles.

    Discrete headings at segment midpoints are regressed on the model
    alpha(s) = q1*s + q2*s**2/2 with s = arc length / L.
    """
    if len(cl) < 4:
        raise ValueError("affine fit needs at least 4 centerline points")
    if L <= 0:
        raise ValueError("L must be positive")
    alpha, s_mid = _tangent_angles(cl)
    s = s_mid / L
    A = np.column_stack([s, 0.5 * s * s])
    coef, *_ = np.linalg.lstsq(A, alpha, rcond=None)
    resid = alpha - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return AffineFit(CurvatureState(float(coef[0]), float(coef[1])), rms)


def poly_targets(q: np.ndarray, geom: TentacleGeometry) -> np.ndarray:
    """(c2, c3) per state of a (T, 2) series, fitted to its lateral profile.

    The root is clamped (x(0) = x'(0) = 0), so c0 = c1 = 0 and the fit
    reduces to the quadratic and cubic basis columns.
    """
    s = np.linspace(0.0, 1.0, geom.n_samples)
    lat = lateral_displacements(q, s, geom.length_mm)   # (N_s, T)
    coef, *_ = np.linalg.lstsq(_cubic(s), lat, rcond=None)  # (2, T)
    return coef.T


def _cubic(s) -> np.ndarray:
    """The (N_s, 2) basis columns s^2 and s^3 of the root-clamped cubic."""
    return np.column_stack([s * s, s ** 3])


def poly_centerline(coeffs, geom: TentacleGeometry) -> np.ndarray:
    """Centerline implied by root-clamped cubics x(s) = c2 s^2 + c3 s^3.

    `coeffs` is a (..., 2) array of (c2, c3); the result is a
    (..., n_samples, 2) array of (x, y) in mm, root first. The axial
    coordinate is completed from the arc-length constraint
    dx^2 + dy^2 = (L ds)^2; where the cubic's slope exceeds the arc-length
    budget (strongly deformed shapes the cubic cannot represent) the axial
    increment clamps to zero, which is what makes large-deformation tips
    poorly reconstructed by this model.
    """
    c = number_array("polynomial coefficients", coeffs)
    if c.ndim == 0 or c.shape[-1] != 2:
        raise ValueError("polynomial coefficients must be (..., 2) arrays "
                         "of (c2, c3)")
    L = geom.length_mm
    s = np.linspace(0.0, 1.0, geom.n_samples)
    c2, c3 = c[..., :1], c[..., 1:]
    x = c2 * s * s + c3 * s**3
    dxds = 2.0 * c2 * s + 3.0 * c3 * s * s
    dyds = np.sqrt(np.maximum(L * L - dxds * dxds, 0.0))
    ds = s[1] - s[0]
    y = np.concatenate([np.zeros(c.shape[:-1] + (1,)), np.cumsum(
        0.5 * (dyds[..., 1:] + dyds[..., :-1]) * ds, axis=-1)], axis=-1)
    return np.stack([x, y], axis=-1)


def nrmse(pred, truth) -> float:
    """Root-mean-square error normalized by the truth range, in percent."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or len(truth) < 2:
        raise ValueError("series must have equal length >= 2")
    rng = float(truth.max() - truth.min())
    if rng == 0.0:
        raise ValueError("truth series has zero range")
    rmse = float(np.sqrt(np.mean((pred - truth) ** 2)))
    return 100.0 * rmse / rng


class Shape(NamedTuple):
    """One shape model's view of its (T, 2) state series."""

    targets: Callable       # (q, geom): training targets of true (q1, q2)
    tips: Callable          # (states, geom): (T, 2) body-frame tips, mm
    lateral: Callable       # (states, stations, L): (N_s, T) lateral x, mm
    centerline: Callable    # (state, geom): (n_samples, 2) centerline, mm


# Shape models by target name. The affine entries look the kinematics
# functions up when called, so a wrapper installed over them sees the call.
SHAPES = {
    "affine": Shape(
        lambda q, geom: q,
        lambda q, geom: tip_positions(q, geom),
        lambda q, stations, L: lateral_displacements(q, stations, L),
        lambda q, geom: sample_centerline(CurvatureState(*q), geom)),
    "poly": Shape(
        poly_targets,
        lambda c, geom: poly_centerline(c, geom)[:, -1],
        lambda c, stations, L: _cubic(np.asarray(stations)) @ c.T,
        poly_centerline),
}


def fit_report(pred_states, truth_states, geom: TentacleGeometry,
               kind: str, truth_tip) -> FitReport:
    """Channel NRMSE and tip-error metrics of a predicted state series.

    Both series are (T, 2): (q1, q2) for affine states, (c2, c3) for
    polynomial states. Tip errors are Euclidean distances between the
    predicted tips and `truth_tip`, the (T, 2) true tip positions in mm,
    so polynomial predictions are judged against the actual tip; the
    relative tip error is normalized by the maximum lateral tip range of
    the ground truth.
    """
    pred = np.asarray(pred_states, dtype=float)
    truth = np.asarray(truth_states, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth series must align")
    if pred.ndim != 2 or pred.shape[1] != 2:
        raise ValueError("state series must be (T, 2) arrays")
    n1 = nrmse(pred[:, 0], truth[:, 0])
    n2 = nrmse(pred[:, 1], truth[:, 1])
    tip_pred = SHAPES[kind].tips(pred, geom)
    tip_true = np.asarray(truth_tip, dtype=float)
    if tip_true.shape != tip_pred.shape:
        raise ValueError("truth_tip must align with the state series")
    err = np.linalg.norm(tip_pred - tip_true, axis=1)
    tip_range = float(tip_true[:, 0].max() - tip_true[:, 0].min())
    if tip_range == 0.0:
        raise ValueError("ground-truth tip range is zero")
    return FitReport(
        nrmse_seg1=n1,
        nrmse_seg2=n2,
        abs_tip_err_mean=float(err.mean()),
        abs_tip_err_std=float(err.std()),
        rel_tip_err=100.0 * float(err.mean()) / tip_range,
    )
