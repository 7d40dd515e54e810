"""Actuation programs for the root pitching drive.

The base angle is a triangular wave with either a fixed frequency and
amplitude or a training-style program: per-cycle random amplitudes in
[-30, 30] degrees while the motor speed ramps from 12 to 80 RPM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checks import integer, number, number_list

__all__ = ["ActuationProgram", "ProgramSpec", "triangular_wave", "build_program"]

# Mapping from motor speed to triangular-wave frequency for ramp programs.
# 0.04 Hz/RPM puts the 12-80 RPM ramp at 0.48-3.2 Hz, spanning the useful
# f/f0 range of both material presets.
RPM_TO_HZ = 0.04


def triangular_wave(t, f: float, A: float):
    """Zero-mean triangular wave of period 1/f and peak +-A, in degrees.

    Starts at zero, rising: the first peak +A occurs at a quarter period.
    """
    if f <= 0:
        raise ValueError("frequency must be positive")
    u = np.mod(np.asarray(t, dtype=float) * f, 1.0)
    out = np.where(u < 0.25, 4.0 * u,
                   np.where(u < 0.75, 2.0 - 4.0 * u, 4.0 * u - 4.0)) * A
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProgramSpec:
    """An actuation program: a fixed frequency and amplitude, or with
    `rpm_ramp` a frequency ramp and a random amplitude per cycle."""

    duration_s: float
    dt: float
    amplitude_deg: float = 20.0
    frequency_hz: float | None = 2.0
    rpm_ramp: tuple | None = None       # (start, end), overrides both
    seed: int = 0

    def __post_init__(self):
        for k in ("duration_s", "dt", "amplitude_deg"):
            number(k, getattr(self, k))
        integer("seed", self.seed, 0)
        if self.duration_s <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        steps = self.duration_s / self.dt
        if np.isinf(steps):
            raise ValueError(f"duration_s {self.duration_s:g} s is too many "
                             f"steps of {self.dt:g} s to count")
        if round(steps) < 2:
            raise ValueError(f"duration {self.duration_s:g} s is shorter "
                             f"than 2 steps of {self.dt:g} s")
        if abs(self.amplitude_deg) > 90.0:
            raise ValueError("|amplitude| must not exceed 90 degrees")
        if self.rpm_ramp is not None:
            ramp = number_list("rpm_ramp", self.rpm_ramp, 2)
            if not all(12.0 <= rpm <= 80.0 for rpm in ramp):
                raise ValueError("RPM ramp endpoints must lie in [12, 80]")
            object.__setattr__(self, "rpm_ramp", ramp)
        elif (self.frequency_hz is None
              or number("frequency_hz", self.frequency_hz) <= 0):
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

    Ramp programs sweep the instantaneous frequency linearly between the
    RPM endpoints (RPM_TO_HZ Hz per RPM) and draw a random amplitude
    uniformly in [-30, 30] degrees at each new cycle.
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
    if spec.rpm_ramp is not None:
        amps = rng.uniform(-30.0, 30.0, size=n_cycles)
    else:
        amps = np.full(n_cycles, spec.amplitude_deg)
    theta = amps[cycle] * triangular_wave(phase, 1.0, 1.0)
    return ActuationProgram(time=t, theta_deg=theta, dt=spec.dt,
                            cycle_index=cycle, amplitudes=amps)
