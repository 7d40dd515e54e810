#!/usr/bin/env python3
"""Sensor-count experiment: test NRMSE vs number of pressure channels.

Trains the sequence regressor on synthetic datasets with 1 to 4 pressure
channels and reports the test reconstruction NRMSE for each count. One
channel is rank-deficient (both bending coordinates alias onto a single
pressure), so its error stays high; two or more channels make the state
observable and the error drops sharply.

Usage: python3 scripts/sensor_sweep.py [--out DIR] [--duration S]
"""

import argparse
import os
import sys
import time

import numpy as np

from tentaclelab.cli import simulate_ramp
from tentaclelab.config import default_config
from tentaclelab.plotting import line_plot_svg
from tentaclelab.regressor import LabeledSequence, TrainConfig, forward, train
from tentaclelab.sim import default_sensor_model

# The default three-channel sensor model plus one more channel; channel
# subsets take the leading rows. The first row alone is rank 1, so the
# one-channel case is unobservable.
SENSOR = default_sensor_model()
MASTER_GAIN = np.vstack([SENSOR.gain, [4.0, 8.0]])
MASTER_RATE = np.vstack([SENSOR.rate_gain, [0.05, 0.06]])


def channel_readout(trace, n_channels: int, seed: int) -> np.ndarray:
    """Pressure series for the first n rows of the master sensor map,
    without the saturation term."""
    G = MASTER_GAIN[:n_channels]
    Gr = MASTER_RATE[:n_channels]
    u = trace.q @ G.T + trace.q_dot @ Gr.T
    a = trace.dt / (SENSOR.lag_tau_s + trace.dt)
    lagged = np.empty_like(u)
    state = u[0].copy()
    for k in range(len(u)):
        state = state + a * (u[k] - state)
        lagged[k] = state
    rng = np.random.default_rng(seed)
    return SENSOR.baseline_kpa + lagged + rng.normal(
        0.0, SENSOR.noise_sigma_kpa, u.shape)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default="sensor_sweep_out",
                    help="output directory")
    ap.add_argument("--duration", type=float, default=60.0,
                    help="training duration in seconds")
    ap.add_argument("--epochs", type=int, default=10)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    # States of the default `dataset` ramp; channel_readout reads them
    # through each channel subset.
    traces = {"train": simulate_ramp(default_config(), args.duration, 0),
              "test": simulate_ramp(default_config(), 0.4 * args.duration, 1)}

    rows = []
    for n in (1, 2, 3, 4):
        t0 = time.time()
        p_train = channel_readout(traces["train"], n, seed=0)
        p_test = channel_readout(traces["test"], n, seed=1)
        cfg = TrainConfig(epochs=args.epochs)
        w, _ = train([LabeledSequence(p_train, traces["train"].q,
                                      traces["train"].dt)], cfg)
        pred = forward(w, p_test)
        truth = traces["test"].q
        nr = [100.0 * np.sqrt(np.mean((pred[:, j] - truth[:, j]) ** 2))
              / np.ptp(truth[:, j]) for j in range(2)]
        rows.append((n, nr[0], nr[1]))
        print(f"channels={n}: test NRMSE {nr[0]:.2f}% / {nr[1]:.2f}% "
              f"({time.time() - t0:.0f}s)")

    csv_path = os.path.join(args.out, "sensor_sweep.csv")
    with open(csv_path, "w") as f:
        f.write("n_channels,nrmse_seg1_pct,nrmse_seg2_pct\n")
        for n, a, b in rows:
            f.write(f"{n},{a:.10g},{b:.10g}\n")
    arr = np.array(rows)
    line_plot_svg({"segment 1": (arr[:, 0], arr[:, 1]),
                   "segment 2": (arr[:, 0], arr[:, 2])},
                  os.path.join(args.out, "sensor_sweep.svg"),
                  title="Reconstruction error vs sensor count",
                  xlabel="pressure channels", ylabel="test NRMSE (%)")
    print(f"wrote {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
