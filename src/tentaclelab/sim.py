"""Desk-scale stand-in for the water-tank rig.

Two driven-damped bending modes (q1, q2) respond to the base pitching
angle; embedded pressure sensors are modeled as a gained, lagged,
mildly saturating map of the state with additive Gaussian noise; thrust
is replaced by a reactive proxy proportional to the mean squared
lateral tip velocity.

`integrate` steps the modal states; `run_trace` adds the world tip and
thrust from a given step on. `simulate` traces every step, as datasets
need; a sweep cell integrates every step, since the dynamics need the
transient, but takes the tip and thrust only from its first scored step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .actuation import ActuationProgram
from .kinematics import TentacleGeometry, tip_positions

__all__ = [
    "SimParams",
    "SensorModel",
    "SimTrace",
    "SimulationError",
    "ModalRun",
    "integrate",
    "run_trace",
    "simulate",
    "sensor_readout",
    "thrust_proxy",
    "world_tip_positions",
    "moving_average",
    "material_preset",
]

TRACE_HEADER = "t,theta_deg,q1,q2,p1,p2,p3,tip_x,tip_y,thrust"

# Thrust proxy coefficient; mN per (mm/s)^2.
C_T = 2e-4


class SimulationError(RuntimeError):
    pass


def _check_finite(obj, names) -> None:
    """Reject the attributes of `obj` that are bools or not finite reals."""
    bad = [k for k, v in ((k, getattr(obj, k)) for k in names)
           if isinstance(v, bool) or not isinstance(v, numbers.Real)
           or not math.isfinite(v)]
    if bad:
        raise ValueError(f"{', '.join(bad)}: expected a finite number")


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
    dt: float = 0.005

    def __post_init__(self):
        _check_finite(self, vars(self))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.f0_hz <= 0:
            raise ValueError("f0_hz must be positive")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie in (0, 1)")
        if self.mode2_ratio <= 1.0:
            raise ValueError("mode2_ratio must exceed 1")
        max_dt = 1.0 / (50.0 * self.f0_hz)
        if self.dt > max_dt:
            raise ValueError(f"dt must be <= 1/(50*f0) = {max_dt:g} s")


@dataclass(frozen=True)
class SensorModel:
    """Pressure transduction model: 3 channels from the 2-D bending state."""

    gain: np.ndarray                       # (3, 2), kPa per rad
    rate_gain: np.ndarray = None           # (3, 2), kPa*s per rad
    baseline_kpa: float = 101.3
    lag_tau_s: float = 0.02
    sat_kappa: float = 0.0                 # cubic term coefficient, 1/kPa^2
    noise_sigma_kpa: float = 0.05
    seed: int = 0

    def __post_init__(self):
        _check_finite(self, ("baseline_kpa", "lag_tau_s", "sat_kappa",
                             "noise_sigma_kpa"))
        g = np.asarray(self.gain, dtype=float)
        if g.shape != (3, 2):
            raise ValueError("gain must be a 3x2 matrix")
        if np.linalg.matrix_rank(g) < 2:
            raise ValueError("gain must have rank 2 for the state to be "
                             "recoverable")
        rg = self.rate_gain
        rg = np.zeros((3, 2)) if rg is None else np.asarray(rg, dtype=float)
        if rg.shape != (3, 2):
            raise ValueError("rate_gain must be a 3x2 matrix")
        if self.lag_tau_s < 0 or self.noise_sigma_kpa < 0:
            raise ValueError("lag_tau_s and noise_sigma_kpa must be >= 0")
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ValueError("seed must be an integer >= 0")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "rate_gain", rg)


@dataclass(frozen=True)
class SimTrace:
    """Time-aligned record of one simulated run."""

    time: np.ndarray
    base_angle_deg: np.ndarray
    q: np.ndarray                 # (T, 2)
    pressures: np.ndarray         # (T, 3) kPa; zeros until sensor_readout
    tip: np.ndarray               # (T, 2) mm
    thrust: np.ndarray            # (T,) mN, instantaneous proxy
    dt: float
    q_dot: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        n = len(self.time)
        for name in ("base_angle_deg", "q", "pressures", "tip", "thrust"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name} must have length {n}")

    def with_pressures(self, pressures: np.ndarray) -> "SimTrace":
        return replace(self, pressures=np.asarray(pressures, dtype=float))

    def to_csv(self, path) -> None:
        cols = np.column_stack([
            self.time, self.base_angle_deg, self.q, self.pressures,
            self.tip, self.thrust])
        with open(path, "w") as f:
            f.write(TRACE_HEADER + "\n")
            np.savetxt(f, cols, fmt="%.10g", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "SimTrace":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 10:
            raise ValueError(f"not a trace CSV: {path}")
        if len(data) < 2:
            raise ValueError(f"trace CSV {path} has {len(data)} rows; a trace "
                             "needs >= 2 rows to recover dt")
        t = data[:, 0]
        return cls(time=t, base_angle_deg=data[:, 1], q=data[:, 2:4],
                   pressures=data[:, 4:7], tip=data[:, 7:9],
                   thrust=data[:, 9], dt=float(t[1] - t[0]))


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
    dt = replace(params, dt=program.dt).dt      # SimParams checks the step
    theta = np.radians(program.theta_deg)
    n = len(theta)
    w1 = 2.0 * math.pi * params.f0_hz
    w2 = params.mode2_ratio * w1
    lag_steps = int(round(params.phase_lag_s / dt))
    # Effective drive: base angle plus a drag-type velocity coupling
    # (normalized by w1), so quasi-static pitching produces little bend.
    theta_dot = np.gradient(theta, dt)
    eff = theta + params.vel_coupling * theta_dot / w1
    eff_delayed = np.concatenate([np.zeros(lag_steps), eff])[:n]
    drive1 = (params.drive_gain1 * w1 * w1 * eff).tolist()
    drive2 = (params.drive_gain2 * w2 * w2 * eff_delayed).tolist()

    # The step runs on Python floats; the hoisted products keep the
    # original left-to-right evaluation order, so results are unchanged.
    # Each step yields (x1, x2, v1, v2) straight into one flat float64
    # record, with no per-column Python lists to convert afterwards.
    damp1, stiff1 = 2.0 * params.zeta * w1, w1 * w1
    damp2, stiff2 = 2.0 * params.zeta * w2, w2 * w2
    cq = params.quad_drag

    def steps():
        v1 = v2 = x1 = x2 = 0.0
        for k in range(n):
            v1 += dt * (drive1[k] - damp1 * v1 - cq * abs(v1) * v1
                        - stiff1 * x1)
            x1 += dt * v1
            v2 += dt * (drive2[k] - damp2 * v2 - cq * abs(v2) * v2
                        - stiff2 * x2)
            x2 += dt * v2
            yield x1
            yield x2
            yield v1
            yield v2

    record = np.fromiter(steps(), float, 4 * n).reshape(n, 4)
    q = np.ascontiguousarray(record[:, :2])
    over = np.flatnonzero((np.abs(q) > 10.0).any(axis=1))
    if len(over):
        k = over[0]
        raise SimulationError(
            f"modal state exceeded 10 rad at t={k * dt:.4f} s "
            f"(q1={q[k, 0]:.3f}, q2={q[k, 1]:.3f}); reduce drive or check "
            "params")
    return ModalRun(q, np.ascontiguousarray(record[:, 2:]), dt)


def run_trace(program: ActuationProgram, run: ModalRun,
              geom: TentacleGeometry, start: int) -> SimTrace:
    """Trace of steps `start`.. of an integrated run.

    The world tip and the thrust proxy are computed for those steps only.
    Thrust differentiates the tip with np.gradient, so every value but
    the first (a one-sided difference) equals the full run's bit for bit.
    """
    sl = slice(start, None)
    tip = world_tip_positions(run.q[sl], program.theta_deg[sl], geom)
    vx = np.gradient(tip[:, 0], run.dt)
    return SimTrace(time=program.time[sl].copy(),
                    base_angle_deg=program.theta_deg[sl].copy(),
                    q=run.q[sl], pressures=np.zeros((len(tip), 3)), tip=tip,
                    thrust=C_T * vx * vx, dt=run.dt, q_dot=run.q_dot[sl])


def simulate(program: ActuationProgram, params: SimParams,
             geom: TentacleGeometry | None = None) -> SimTrace:
    """Full trace of a program: `integrate`, then the world tip and
    thrust proxy of every step. A sweep cell instead integrates every
    step but takes the tip and thrust only from its first scored step
    (`run_trace` with a later start).
    """
    return run_trace(program, integrate(program, params),
                     geom or TentacleGeometry(), 0)


def world_tip_positions(q: np.ndarray, base_angle_deg: np.ndarray,
                        geom: TentacleGeometry) -> np.ndarray:
    """World-frame tip (x, y) in mm for (T, 2) states under base pitch.

    The base pitch rotates the whole bent shape about the root, so the
    observed tip motion combines rigid rotation and bending.
    """
    tip_body = tip_positions(q, geom)
    theta = np.radians(base_angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    return np.column_stack([c * tip_body[:, 0] - s * tip_body[:, 1],
                            s * tip_body[:, 0] + c * tip_body[:, 1]])


def sensor_readout(trace: SimTrace | ModalRun,
                   model: SensorModel) -> np.ndarray:
    """Synthetic 3-channel pressure series for a simulated trace or an
    integrated run, in kPa.

    p = baseline + lag(G q + G_r q' + kappa (G q)^3, tau) + noise.
    Deterministic given the model seed. q' is the simulator's `q_dot`;
    a trace without it, such as one read by `SimTrace.from_csv`, uses
    the finite difference np.gradient(q, dt, axis=0) instead.
    """
    q = trace.q
    qd = trace.q_dot
    if qd is None:
        qd = np.gradient(q, trace.dt, axis=0)
    u = q @ model.gain.T
    u = u + qd @ model.rate_gain.T + model.sat_kappa * (q @ model.gain.T) ** 3
    if model.lag_tau_s > 0:
        a = trace.dt / (model.lag_tau_s + trace.dt)
        lagged = np.empty_like(u)
        state = u[0].copy()
        for k in range(len(u)):
            state = state + a * (u[k] - state)
            lagged[k] = state
        u = lagged
    rng = np.random.default_rng(model.seed)
    noise = rng.normal(0.0, model.noise_sigma_kpa, size=u.shape) \
        if model.noise_sigma_kpa > 0 else 0.0
    return model.baseline_kpa + u + noise


def thrust_proxy(trace: SimTrace, frequency_hz: float) -> np.ndarray:
    """Per-cycle mean thrust proxy of a fixed-frequency run, in mN.

    Cycle k holds the steps with floor(time * f) = k. Entry i is the mean
    of cycle c + i, where c is the cycle of the trace's first step (0 for
    a whole run), up to the last whole cycle of the run; the final,
    partial cycle is left out.
    """
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    cycle = np.floor(trace.time * frequency_hz).astype(int)
    if cycle[-1] < 2:
        raise ValueError("trace must span at least 2 actuation cycles")
    keep = cycle < cycle[-1]
    k = cycle[keep] - cycle[0]
    return np.bincount(k, weights=trace.thrust[keep]) / np.bincount(k)


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
