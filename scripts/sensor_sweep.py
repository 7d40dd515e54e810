#!/usr/bin/env python3
"""Sensor-count experiment: test NRMSE vs number of pressure channels.

Trains the sequence regressor on the default `dataset` ramp read through
1 to 4 pressure channels, without the saturation term, and reports the
test reconstruction NRMSE for each count. One channel is rank-deficient
(both bending coordinates alias onto a single pressure), so its error
stays high; two or more channels make the state observable and the error
drops sharply.

Usage: python3 scripts/sensor_sweep.py [--out DIR] [--duration S]
"""

import argparse
import os
import sys
import time

import numpy as np

from tentaclelab.cli import simulate_ramp
from tentaclelab.config import RunConfig, default_config
from tentaclelab.csvio import write_csv
from tentaclelab.fitting import nrmse
from tentaclelab.plotting import line_plot_svg
from tentaclelab.regressor import LabeledSequence, forward, train

# The default sensor's three rows plus a fourth; n channels take the
# leading n rows. The first row alone is rank 1.
GAIN = default_config().sensor["gain"] + [[4.0, 8.0]]
RATE_GAIN = default_config().sensor["rate_gain"] + [[0.05, 0.06]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default="sensor_sweep_out",
                    help="output directory")
    ap.add_argument("--duration", type=float, default=60.0,
                    help="training duration in seconds")
    ap.add_argument("--epochs", type=int, default=10)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for n in (1, 2, 3, 4):
        t0 = time.time()
        cfg = RunConfig(sensor={"gain": GAIN[:n], "rate_gain": RATE_GAIN[:n],
                                "sat_kappa": 0.0},
                        train={"epochs": args.epochs})
        tr = simulate_ramp(cfg, args.duration, cfg.dataset["train_seed"])
        te = simulate_ramp(cfg, 0.4 * args.duration, cfg.dataset["test_seed"])
        w, _ = train([LabeledSequence(tr.pressures, tr.q, tr.dt)],
                     cfg.build_train_config())
        pred = forward(w, te.pressures)
        nr = [nrmse(pred[:, j], te.q[:, j]) for j in range(2)]
        rows.append((n, nr[0], nr[1]))
        print(f"channels={n}: test NRMSE {nr[0]:.2f}% / {nr[1]:.2f}% "
              f"({time.time() - t0:.0f}s)")

    csv_path = os.path.join(args.out, "sensor_sweep.csv")
    write_csv(csv_path, "n_channels,nrmse_seg1_pct,nrmse_seg2_pct", rows)
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
