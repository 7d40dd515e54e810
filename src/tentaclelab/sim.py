"""Desk-scale stand-in for the water-tank rig.

Two driven-damped bending modes (q1, q2) respond to the base pitching
angle; embedded pressure sensors are modeled as a gained, lagged,
mildly saturating map of the state with additive Gaussian noise; thrust
is replaced by a reactive proxy proportional to the mean squared
lateral tip velocity.

`integrate` steps the modal states; `simulate` adds the world tip and
thrust of every step, as datasets need. A sweep cell integrates every
step, since the dynamics need the transient, but takes the tip and
`thrust_series` only from its first scored step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .actuation import ActuationProgram
from .checks import integer, number, number_array
from .csvio import read_csv, write_csv
from .kinematics import TentacleGeometry, tip_positions

__all__ = [
    "SimParams",
    "SensorModel",
    "SimTrace",
    "SimulationError",
    "ModalRun",
    "integrate",
    "simulate",
    "sensor_readout",
    "thrust_series",
    "thrust_proxy",
    "world_tip_positions",
    "moving_average",
    "material_preset",
]

# Thrust proxy coefficient; mN per (mm/s)^2.
C_T = 2e-4


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimParams:
    """Modal dynamics parameters of the driven tentacle."""

    f0_hz: float = 3.2
    zeta: float = 0.2
    mode2_ratio: float = 2.2
    drive_gain1: float = 0.7
    drive_gain2: float = 0.4
    phase_lag_s: float = 0.7 / 3.2
    quad_drag: float = 0.8
    vel_coupling: float = 4.0

    def __post_init__(self):
        for k, v in vars(self).items():
            number(k, v)
        if self.f0_hz <= 0:
            raise ValueError("f0_hz must be positive")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie in (0, 1)")
        if self.mode2_ratio <= 1.0:
            raise ValueError("mode2_ratio must exceed 1")
        for k in ("phase_lag_s", "quad_drag"):
            if getattr(self, k) < 0:
                raise ValueError(f"{k} must be >= 0")

    def check_step(self, dt) -> float:
        if number("dt", dt) <= 0:
            raise ValueError("dt must be positive")
        max_dt = 1.0 / (50.0 * self.f0_hz)
        if dt > max_dt:
            raise ValueError(f"dt must be <= 1/(50*f0) = {max_dt:g} s")
        return dt


@dataclass(frozen=True)
class SensorModel:
    """Pressure transduction model: n channels from the 2-D bending state."""

    gain: np.ndarray                       # (n, 2), kPa per rad
    rate_gain: np.ndarray = None           # (n, 2), kPa*s per rad
    baseline_kpa: float = 101.3
    lag_tau_s: float = 0.02
    sat_kappa: float = 0.0                 # cubic term coefficient, 1/kPa^2
    noise_sigma_kpa: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for k in ("baseline_kpa", "lag_tau_s", "sat_kappa", "noise_sigma_kpa"):
            number(k, getattr(self, k))
        integer("seed", self.seed, 0)
        g = number_array("gain", self.gain)
        if g.ndim != 2 or g.shape[1] != 2 or len(g) < 1:
            raise ValueError("gain must be an n x 2 matrix, n >= 1")
        rank = min(len(g), 2)
        if np.linalg.matrix_rank(g) < rank:
            raise ValueError(f"gain must have rank min(n, 2) = {rank}")
        rg = self.rate_gain
        rg = np.zeros(g.shape) if rg is None else number_array("rate_gain", rg)
        if rg.shape != g.shape:
            raise ValueError(f"rate_gain must have the gain's shape {g.shape}")
        if self.lag_tau_s < 0 or self.noise_sigma_kpa < 0:
            raise ValueError("lag_tau_s and noise_sigma_kpa must be >= 0")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "rate_gain", rg)


@dataclass(frozen=True)
class SimTrace:
    """Time-aligned record of one simulated run."""

    time: np.ndarray
    base_angle_deg: np.ndarray
    q: np.ndarray                 # (T, 2)
    pressures: np.ndarray         # (T, n) kPa; no channels until read out
    tip: np.ndarray               # (T, 2) mm
    thrust: np.ndarray            # (T,) mN, instantaneous proxy
    dt: float
    q_dot: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        n = len(self.time)
        for name in ("base_angle_deg", "q", "pressures", "tip", "thrust"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name} must have length {n}")

    def to_csv(self, path) -> None:
        """Write the trace, one p column per pressure channel."""
        p = "".join(f"p{i}," for i in range(1, self.pressures.shape[1] + 1))
        write_csv(path, f"t,theta_deg,q1,q2,{p}tip_x,tip_y,thrust",
                  np.column_stack([self.time, self.base_angle_deg, self.q,
                                   self.pressures, self.tip, self.thrust]))

    @classmethod
    def from_csv(cls, path) -> "SimTrace":
        """A trace written by `to_csv`, with at least 2 rows to recover dt."""
        c = read_csv(path, ("t", "theta_deg", "q1", "q2", "tip_x", "tip_y",
                            "thrust"), min_rows=2)
        t = c["t"]
        # Channels p1..pn; a trace no sensor read holds none.
        n = sum(k[:1] == "p" and k[1:].isdigit() for k in c)
        missing = [f"p{i}" for i in range(1, n + 1) if f"p{i}" not in c]
        if missing:
            raise ValueError(f"{path}: no pressure column {missing[0]}")
        p = [c[f"p{i}"] for i in range(1, n + 1)]
        return cls(time=t, base_angle_deg=c["theta_deg"],
                   q=np.column_stack([c["q1"], c["q2"]]),
                   pressures=np.column_stack([np.empty((len(t), 0)), *p]),
                   tip=np.column_stack([c["tip_x"], c["tip_y"]]),
                   thrust=c["thrust"], dt=float(t[1] - t[0]))


class ModalRun(NamedTuple):
    """Modal states of an integrated run, one row per program step."""

    q: np.ndarray                 # (T, 2) rad
    q_dot: np.ndarray             # (T, 2) rad/s
    dt: float


def integrate(program: ActuationProgram, params: SimParams) -> ModalRun:
    """Integrate the two modal oscillators driven by the base angle.

    Per mode i: qi'' + 2*zeta*wi*qi' + wi^2*qi = ki * theta(t - delay_i)
    with w1 = 2*pi*f0, w2 = mode2_ratio * w1, delay_1 = 0 and
    delay_2 = phase_lag_s; semi-implicit Euler at the program's step.
    The forcing coefficient is ki = drive_gain_i * wi^2, so drive_gain_i
    is the dimensionless static gain (rad of modal state per rad of base
    angle at DC) independent of f0. Raises SimulationError once a modal
    state exceeds 10 rad.
    """
    dt = params.check_step(program.dt)
    theta = np.radians(program.theta_deg)
    n = len(theta)
    w1 = 2.0 * math.pi * params.f0_hz
    w2 = params.mode2_ratio * w1
    # At most n steps of delay, so the delayed drive costs O(n) whatever
    # phase_lag_s is.
    lag = min(n, int(round(params.phase_lag_s / dt)))
    # Effective drive: base angle plus a drag-type velocity coupling
    # (normalized by w1), so quasi-static pitching produces little bend.
    theta_dot = np.gradient(theta, dt)
    eff = theta + params.vel_coupling * theta_dot / w1
    eff_delayed = np.zeros(n)
    eff_delayed[lag:] = eff[:n - lag]
    drive1 = params.drive_gain1 * w1 * w1 * eff
    drive2 = params.drive_gain2 * w2 * w2 * eff_delayed

    # The modes do not couple, so each runs its own loop on Python
    # floats, yielding only its rate. The hoisted products keep the
    # original left-to-right evaluation order. The loop's x += dt * v
    # from 0.0 is the sequential prefix sum np.cumsum takes of the same
    # products, so q comes from q_dot bit for bit; adding 0.0 gives the
    # loop's +0.0 where the sum starts at -0.0.
    cq = params.quad_drag

    def rates(drive, w):
        damp, stiff = 2.0 * params.zeta * w, w * w
        v = x = 0.0
        for d in drive.tolist():
            v += dt * (d - damp * v - cq * abs(v) * v - stiff * x)
            x += dt * v
            yield v

    q_dot = np.column_stack([np.fromiter(rates(drive1, w1), float, n),
                             np.fromiter(rates(drive2, w2), float, n)])
    q = np.cumsum(dt * q_dot, axis=0)
    q += 0.0
    over = np.flatnonzero((np.abs(q) > 10.0).any(axis=1))
    if len(over):
        k = over[0]
        raise SimulationError(
            f"modal state exceeded 10 rad at t={k * dt:.4f} s "
            f"(q1={q[k, 0]:.3f}, q2={q[k, 1]:.3f}); reduce drive or check "
            "params")
    return ModalRun(q, q_dot, dt)


def simulate(program: ActuationProgram, params: SimParams,
             geom: TentacleGeometry | None = None) -> SimTrace:
    """Full trace of a program: `integrate`, then the world tip and
    thrust proxy of every step."""
    run = integrate(program, params)
    tip = world_tip_positions(tip_positions(run.q, geom or TentacleGeometry()),
                              program.theta_deg)
    return SimTrace(time=program.time, base_angle_deg=program.theta_deg,
                    q=run.q, pressures=np.zeros((len(tip), 0)), tip=tip,
                    thrust=thrust_series(tip[:, 0], run.dt), dt=run.dt,
                    q_dot=run.q_dot)


def world_tip_positions(tip_body: np.ndarray,
                        base_angle_deg: np.ndarray) -> np.ndarray:
    """World-frame (x, y) in mm of (T, 2) body-frame tips under base pitch.

    The base pitch rotates the whole bent shape about the root, so the
    observed tip motion combines rigid rotation and bending.
    """
    theta = np.radians(base_angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    return np.column_stack([c * tip_body[:, 0] - s * tip_body[:, 1],
                            s * tip_body[:, 0] + c * tip_body[:, 1]])


def sensor_readout(trace: SimTrace | ModalRun,
                   model: SensorModel) -> np.ndarray:
    """Synthetic pressure series, one column per gain row, for a simulated
    trace or an integrated run, in kPa.

    p = baseline + lag(G q + G_r q' + kappa (G q)^3, tau) + noise.
    Deterministic given the model seed. q' is the simulator's `q_dot`,
    which a trace read by `SimTrace.from_csv` does not hold.
    """
    q, qd = trace.q, trace.q_dot
    if qd is None:
        raise ValueError("sensor readout needs the simulated rate q_dot, "
                         "which a trace read from CSV does not hold")
    gq = q @ model.gain.T
    u = gq + qd @ model.rate_gain.T + model.sat_kappa * gq ** 3
    if model.lag_tau_s > 0:
        a = trace.dt / (model.lag_tau_s + trace.dt)
        u = np.column_stack([list(accumulate(ch, lambda s, x: s + a * (x - s)))
                             for ch in u.T.tolist()])
    rng = np.random.default_rng(model.seed)
    noise = rng.normal(0.0, model.noise_sigma_kpa, size=u.shape) \
        if model.noise_sigma_kpa > 0 else 0.0
    return model.baseline_kpa + u + noise


def thrust_series(tip_x: np.ndarray, dt: float) -> np.ndarray:
    """Instantaneous thrust proxy C_T * vx^2 in mN, vx = np.gradient(tip_x);
    a series from a later start equals the full run's from its 2nd value."""
    vx = np.gradient(tip_x, dt)
    return C_T * vx * vx


def thrust_proxy(thrust: np.ndarray, cycle: np.ndarray) -> np.ndarray:
    """Per-cycle mean of a thrust series, in mN.

    `cycle` labels each step with its nondecreasing integer cycle. Entry
    i is the mean of cycle cycle[0] + i, up to the last whole cycle; the
    final, partial cycle is left out.
    """
    keep = cycle < cycle[-1]
    if not keep.any():
        raise ValueError("thrust needs at least one whole actuation cycle")
    k = cycle[keep] - cycle[0]
    return np.bincount(k, weights=thrust[keep]) / np.bincount(k)


def moving_average(series, k: int) -> np.ndarray:
    """Centered moving average with edge truncation; k must be odd."""
    if k < 1 or k % 2 == 0:
        raise ValueError("window length must be a positive odd integer")
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n == 0:
        return x.copy()
    half = k // 2
    idx = np.arange(n)
    count = np.minimum(idx + half, n - 1) - np.maximum(idx - half, 0) + 1
    return np.convolve(x, np.ones(k))[half:half + n] / count


# Material presets: natural bending frequencies of the two silicones; the
# softer one deforms considerably more under the same base motion.
_PRESETS = {
    "dragonskin": dict(f0_hz=3.2, drive_gain1=0.7, drive_gain2=0.4, epochs=35),
    "ecoflex": dict(f0_hz=2.7, drive_gain1=2.7, drive_gain2=1.53, epochs=20),
}


def _preset(name) -> dict:
    if not isinstance(name, str) or name not in _PRESETS:
        raise ValueError(f"unknown material {name!r}; "
                         f"choose from {sorted(_PRESETS)}")
    return _PRESETS[name]


def material_preset(name: str) -> SimParams:
    """SimParams preset for a silicone: 'dragonskin' or 'ecoflex'."""
    p = _preset(name)
    return SimParams(f0_hz=p["f0_hz"], drive_gain1=p["drive_gain1"],
                     drive_gain2=p["drive_gain2"],
                     phase_lag_s=0.7 / p["f0_hz"])


def preset_epochs(name: str) -> int:
    return _preset(name)["epochs"]


def default_sensor_model(seed: int = 0) -> SensorModel:
    """Well-conditioned rank-2 sensor map used by the default configs."""
    gain = np.array([[9.0, 2.5],
                     [-5.0, 6.0],
                     [2.0, -7.5]])
    rate_gain = np.array([[0.12, 0.03],
                          [-0.06, 0.08],
                          [0.02, -0.10]])
    return SensorModel(gain=gain, rate_gain=rate_gain, baseline_kpa=101.3,
                       lag_tau_s=0.02, sat_kappa=2e-4, noise_sigma_kpa=0.05,
                       seed=seed)
