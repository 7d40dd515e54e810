"""Shape-derived swimming performance metrics.

Tip deflection, FFT-based analytic signals, complex orthogonal
decomposition (COD) of a lateral deformation field, and the traveling
wave index (TWI) of complex spatial modes. TWI is 1 for a pure traveling
wave and 0 for a pure standing wave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import number_array
from .csvio import write_csv
from .fitting import SHAPES
from .kinematics import TentacleGeometry

__all__ = [
    "DeformationField",
    "ModeSet",
    "tip_deflection",
    "analytic_signal",
    "cod",
    "twi",
    "field_twi",
    "field_from_states",
]


@dataclass(frozen=True)
class DeformationField:
    """Lateral displacement (mm) at N_s stations over N_t time steps."""

    lateral: np.ndarray     # (N_s, N_t)
    dt: float
    stations: np.ndarray    # (N_s,) arc coordinates in [0, 1]

    def __post_init__(self):
        lat = number_array("lateral", self.lateral)
        if lat.ndim != 2 or lat.shape[0] < 3 or lat.shape[1] < 8:
            raise ValueError("field needs >= 3 stations and >= 8 time steps")
        stations = number_array("stations", self.stations)
        if len(stations) != lat.shape[0]:
            raise ValueError("stations must match the field's first axis")
        object.__setattr__(self, "lateral", lat)
        object.__setattr__(self, "stations", stations)


@dataclass(frozen=True)
class ModeSet:
    """COD result: complex unit modes, eigenvalues, per-mode TWI and energy."""

    modes: np.ndarray            # (N_s, n_modes), complex, unit norm, dominant first
    eigenvalues: np.ndarray      # (n_modes,), non-negative, descending
    twi: np.ndarray              # (n_modes,), each in [0, 1]
    energy_fraction: np.ndarray  # (n_modes,), sums to 1
    stations: np.ndarray


def tip_deflection(tip_lateral, ell: float) -> float:
    """Tip deflection angle atan(range / (2*ell)) in degrees."""
    x = np.asarray(tip_lateral, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 samples")
    if ell <= 0:
        raise ValueError("ell must be positive")
    rng = float(x.max() - x.min())
    return float(np.degrees(np.arctan(rng / (2.0 * ell))))


def analytic_signal(x) -> np.ndarray:
    """Discrete analytic signal of a real series (mean removed).

    Transforms along the last axis, so an (N_s, N_t) field takes one
    `fft` and one `ifft` call. FFT construction: zero the
    negative-frequency bins and double the positive ones, keeping DC and
    Nyquist with unit weight. The input is made C-contiguous first, so
    each row's mean and transform equal those of the row alone, bit for
    bit.
    """
    x = np.ascontiguousarray(x, dtype=float)
    n = x.shape[-1]
    if n < 8:
        raise ValueError("need at least 8 samples")
    X = np.fft.fft(x - x.mean(axis=-1, keepdims=True))
    h = np.zeros(n)
    h[0] = 1.0
    h[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return np.fft.ifft(X * h)


def twi(modes):
    """Traveling wave index of complex modes: sigma_min / sigma_max of
    the two-column real matrix [Re(w), Im(w)] of each mode w.

    One (N_s,) mode gives a float; a (..., N_s) stack of modes gives an
    array, from one batched SVD.
    """
    w = np.asarray(modes, dtype=complex)
    if np.any(np.linalg.norm(w, axis=-1) == 0.0):
        raise ValueError("mode vector must be nonzero")
    sv = np.linalg.svd(np.stack([w.real, w.imag], axis=-1),
                       compute_uv=False)
    ratio = sv[..., 1] / sv[..., 0]
    return float(ratio) if w.ndim == 1 else ratio


def cod(field: DeformationField) -> ModeSet:
    """Complex orthogonal decomposition of a deformation field.

    Each station's series is demeaned and converted to its analytic
    signal; the Hermitian correlation matrix Z Z^H / N_t is then
    eigendecomposed, modes sorted by descending eigenvalue.
    """
    lat = field.lateral
    if np.allclose(lat, lat[:, :1]):
        raise ValueError("degenerate field: no temporal variation")
    Z = analytic_signal(lat)
    R = Z @ Z.conj().T / lat.shape[1]
    vals, vecs = np.linalg.eigh(R)
    order = np.argsort(vals)[::-1]
    vals = np.maximum(vals[order], 0.0)
    vecs = vecs[:, order]
    total = vals.sum()
    twis = np.where(vals > 0, twi(vecs.T), 0.0)
    return ModeSet(
        modes=vecs,
        eigenvalues=vals,
        twi=twis,
        energy_fraction=vals / total,
        stations=field.stations,
    )


def field_twi(modes: ModeSet) -> float:
    """Field-level TWI: the TWI of the dominant mode."""
    return float(modes.twi[0])


def field_from_states(q_series, geom: TentacleGeometry,
                      n_stations: int = 24, dt: float = 1.0,
                      shape: str = "affine") -> DeformationField:
    """Lateral deformation field of a (T, 2) series of SHAPES[shape] states."""
    q_series = np.asarray(q_series, dtype=float)
    stations = np.linspace(0.0, 1.0, n_stations)
    lat = SHAPES[shape].lateral(q_series, stations, geom.length_mm)
    return DeformationField(lateral=lat, dt=dt, stations=stations)


def modeset_to_csv(modes: ModeSet, path) -> None:
    """Write the two leading mode shapes as CSV: station, Re/Im per mode."""
    m1, m2 = modes.modes[:, 0], modes.modes[:, 1]
    write_csv(path, "station,mode1_re,mode1_im,mode2_re,mode2_im",
              np.column_stack([modes.stations, m1.real, m1.imag, m2.real,
                               m2.imag]))
