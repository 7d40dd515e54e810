"""Actuation programs for the root pitching drive.

The base angle is a triangular wave with either a fixed frequency and
amplitude or a training-style program: per-cycle random amplitudes in
[-30, 30] degrees while the motor speed ramps from 12 to 80 RPM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ActuationProgram", "ProgramSpec", "triangular_wave", "build_program"]

# Mapping from motor speed to triangular-wave frequency for ramp programs.
# 0.04 Hz/RPM puts the 12-80 RPM ramp at 0.48-3.2 Hz, spanning the useful
# f/f0 range of both material presets.
RPM_TO_HZ = 0.04


def triangular_wave(t, f: float, A: float, phase: float = 0.0):
    """Zero-mean triangular wave of period 1/f and peak +-A, in degrees.

    Starts at zero, rising: the first peak +A occurs at a quarter period.
    """
    if f <= 0:
        raise ValueError("frequency must be positive")
    u = np.mod(np.asarray(t, dtype=float) * f + phase, 1.0)
    out = np.where(u < 0.25, 4.0 * u,
                   np.where(u < 0.75, 2.0 - 4.0 * u, 4.0 * u - 4.0)) * A
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProgramSpec:
    """Declarative description of an actuation program."""

    duration_s: float
    dt: float
    amplitude_deg: float = 20.0
    frequency_hz: float | None = 2.0
    amplitude_mode: str = "fixed"       # "fixed" | "random"
    rpm_ramp: tuple | None = None       # (start, end), overrides frequency
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        if abs(self.amplitude_deg) > 90.0:
            raise ValueError("|amplitude| must not exceed 90 degrees")
        if self.amplitude_mode not in ("fixed", "random"):
            raise ValueError(f"unknown amplitude_mode {self.amplitude_mode!r}")
        if self.rpm_ramp is not None:
            lo, hi = self.rpm_ramp
            if not (12.0 <= lo <= 80.0 and 12.0 <= hi <= 80.0):
                raise ValueError("RPM ramp endpoints must lie in [12, 80]")
        elif self.frequency_hz is None or self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")


@dataclass(frozen=True)
class ActuationProgram:
    """Sampled base-angle program: theta(t) in degrees on a uniform grid."""

    time: np.ndarray
    theta_deg: np.ndarray
    dt: float
    cycle_index: np.ndarray = field(repr=False, default=None)
    amplitudes: np.ndarray = field(repr=False, default=None)


def build_program(spec: ProgramSpec) -> ActuationProgram:
    """Sample a program on a uniform grid, deterministic given the seed.

    Per-cycle random amplitudes are drawn uniformly in [-30, 30] degrees
    at each new cycle; ramp programs sweep the instantaneous frequency
    linearly between the RPM endpoints (RPM_TO_HZ Hz per RPM).
    """
    n = int(round(spec.duration_s / spec.dt))
    t = np.arange(n) * spec.dt
    if spec.rpm_ramp is not None:
        rpm = spec.rpm_ramp[0] + (spec.rpm_ramp[1] - spec.rpm_ramp[0]) * (
            t / spec.duration_s)
        f_inst = rpm * RPM_TO_HZ
    else:
        f_inst = np.full(n, float(spec.frequency_hz))
    # Phase accumulator; cycle boundaries at integer phase.
    phase = np.concatenate([[0.0], np.cumsum(f_inst[:-1] * spec.dt)])
    cycle = np.floor(phase).astype(int)
    n_cycles = cycle[-1] + 1
    rng = np.random.default_rng(spec.seed)
    if spec.amplitude_mode == "random":
        amps = rng.uniform(-30.0, 30.0, size=n_cycles)
    else:
        amps = np.full(n_cycles, spec.amplitude_deg)
    theta = amps[cycle] * triangular_wave(phase, 1.0, 1.0)
    return ActuationProgram(time=t, theta_deg=theta, dt=spec.dt,
                            cycle_index=cycle, amplitudes=amps)
