"""A fixed reference computation that gauges how fast the host runs now.

The 2-vCPU guest this benchmark was built on switches between two speeds,
1.6-2x apart, for stretches of seconds to minutes, whatever the benchmark
itself does (see README.md). The run times this probe right before and
right after every timed step and reports the step's time scaled to the
speed at which the probe takes REF_PROBE_S. The probe is the benchmark's
own code (NumPy element-wise work and a pure-Python loop, no BLAS calls),
so no change to tentaclelab moves it.
"""

from __future__ import annotations

import time

import numpy as np

# Duration of one probe at the reference speed, a fixed constant: about
# the fastest probe time measured on a 2-vCPU Intel Xeon KVM guest with
# Python 3.11 and NumPy 2.4 (the median there was about 0.045 s).
REF_PROBE_S = 0.027

_X = np.linspace(0.0, 1.0, 20000)


def probe() -> float:
    """Run the reference computation once; return its wall time (s)."""
    t0 = time.perf_counter()
    for _ in range(40):
        np.cumsum(np.sin(_X * 3.1) * np.cos(_X * 1.7))
    acc = 0
    for i in range(150000):
        acc += i * i % 7
    return time.perf_counter() - t0


def at_reference(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled to the reference speed, from the probe times
    taken just before and just after it."""
    return elapsed * REF_PROBE_S * 2.0 / (before + after)
