"""The benchmark's workloads: generated configs, set-up fixtures, one
closed-loop pass of CLI commands, output checks and quality numbers.

Every workload is one client running commands back to back through
`tentaclelab.cli.main`. The workload seed reaches the program only
through `--seed` and the generated config. See README.md for why each
workload exists.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import hostspeed

PACKAGE = "tentaclelab"

# Sizes of the learn workload: long enough that its eval errors clear the
# 10% thresholds of acceptance criterion 5 with margin, far shorter than
# the default `train` (100 s of data, 35 epochs, about 125 s).
TRAIN_DURATION_S = 40.0
TEST_DURATION_S = 10.0
EPOCHS = 4
BO_BUDGET = 30
# Render time depends on the state drawn; with 20 frames the pass time
# differed by up to 1.3x between seeds, the same in every set of runs.
VISION_FRAMES = 60
VISION_TEST_DURATION_S = 40.0

# Output checks (acceptance criteria 3 and 5).
RECON_ERR_MAX_PCT = 10.0
MIDLINE_ERR_MAX_RAD = 0.08

# Artifacts compared byte for byte between same-seed passes.
DETERMINISTIC_EXT = (".csv", ".json", ".pgm")


class ProgramMissing(RuntimeError):
    pass


def load_program(root: str):
    """Import tentaclelab from <root>/src and return its cli module."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "cli.py")):
        raise ProgramMissing(f"no {PACKAGE} sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise ProgramMissing(f"{PACKAGE} imported from {cli.__file__}, "
                             f"not from {src}")
    return cli


def _tl(module: str):
    return importlib.import_module(f"{PACKAGE}.{module}")


# ------------------------------------------------------------ accounting

@dataclass
class Ledger:
    """Operations attempted and failed; feeds `failed_frac`."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def check(self, ok: bool, what: str) -> bool:
        self.count(1, 0 if ok else 1, what)
        return ok


class PassAborted(RuntimeError):
    pass


class Runner:
    """Runs CLI commands in-process, one after another, timing each.

    Every timed step sits between two runs of the host-speed probe; the
    step's time at the reference speed adds up in `ref_seconds` and the
    probe times collect in `probes`.
    """

    def __init__(self, cli_main, ledger: Ledger, tracer=None):
        self.cli_main = cli_main
        self.ledger = ledger
        self.tracer = tracer
        self.ref_seconds = 0.0
        self.probes = []

    def timed(self, fn):
        """fn() and its wall time (s)."""
        before = hostspeed.probe()
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        after = hostspeed.probe()
        self.probes += [before, after]
        self.ref_seconds += hostspeed.at_reference(elapsed, before, after)
        return out, elapsed

    def _call(self, argv):
        if self.tracer is None:
            return self.cli_main(argv)
        with self.tracer.span(f"cli.{argv[0]}"):
            return self.cli_main(argv)

    def run(self, argv) -> float:
        argv = [str(a) for a in argv]
        code, elapsed = self.timed(lambda: self._call(argv))
        if not self.ledger.check(code == 0, f"`{' '.join(argv)}` exit {code}"):
            raise PassAborted(f"{argv[0]} exited with code {code}")
        return elapsed


# ---------------------------------------------------------------- checks

def config_digest(doc: dict) -> str:
    """sha256 of the canonical JSON of a config document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _subset(want, have) -> bool:
    if isinstance(want, dict):
        return isinstance(have, dict) and all(
            k in have and _subset(v, have[k]) for k, v in want.items())
    return want == have


def check_manifest(ledger: Ledger, outdir: str, generated: dict) -> None:
    """The manifest's config carries every generated value and its
    config_hash is the sha256 the benchmark computes over that config."""
    with open(os.path.join(outdir, "manifest.json")) as f:
        doc = json.load(f)
    cfg = doc.get("config", {})
    ledger.check(_subset(generated, cfg),
                 f"{outdir}: manifest config differs from generated config")
    ledger.check(doc.get("config_hash") == config_digest(cfg),
                 f"{outdir}: config_hash mismatch")


def artifact_digests(root: str) -> dict:
    """relative path -> sha256 of every deterministic artifact."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(DETERMINISTIC_EXT):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as f:
                    out[os.path.relpath(path, root)] = \
                        hashlib.sha256(f.read()).hexdigest()
    return out


def _csv_rows(path) -> np.ndarray:
    return np.atleast_2d(np.genfromtxt(path, delimiter=",", skip_header=1))


def _read_json(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------- workloads

@dataclass
class PassResult:
    """Timings (s), throughputs and quality numbers of one pass."""

    seconds: dict = field(default_factory=dict)
    # Wall time of the pass's timed steps at the reference host speed.
    ref_wall: float = 0.0
    quality: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


class Workload:
    name = ""
    why = ""
    # Run one untimed pass before timing; without it the first two passes
    # are timed, so that every run still compares two passes' artifacts.
    warmup = True

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = self.generated_config()
        self.fixture = None

    def generated_config(self) -> dict:
        s = self.seed
        return {"schema": _tl("config").CONFIG_SCHEMA,
                "sensor": {"seed": s},
                "train": {"seed": s},
                "dataset": {"train_seed": s, "test_seed": s + 1},
                "bo": {"seed": s}}

    def sizes(self) -> dict:
        return {}

    def _argv(self, command, out, *extra):
        return [command, "--config", self.cfg_path, "--seed", self.seed,
                "--out", out, *extra]

    def setup(self, runner: Runner, d: str) -> None:
        """Write the generated config (and fixtures) under d."""
        os.makedirs(d, exist_ok=True)
        self.fixture = d
        self.cfg_path = os.path.join(d, "config.json")
        with open(self.cfg_path, "w") as f:
            json.dump(self.cfg, f, indent=2, sort_keys=True)

    def run_pass(self, runner: Runner, d: str) -> PassResult:
        raise NotImplementedError


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for k, v in extra.items():
        out[k] = {**out.get(k, {}), **v}
    return out


def _train_config(cfg: dict) -> dict:
    return _merge(cfg, {
        "train": {"epochs": EPOCHS},
        "dataset": {"train_duration_s": TRAIN_DURATION_S,
                    "test_duration_s": TEST_DURATION_S}})


def _rows(duration_s: float) -> int:
    return round(duration_s / _tl("config").default_config().dataset["dt"])


def _train_sizes() -> dict:
    return {"train_rows": _rows(TRAIN_DURATION_S),
            "test_rows": _rows(TEST_DURATION_S), "epochs": EPOCHS}


class Learn(Workload):
    name = "learn"
    why = ("dataset, train and eval on a short split: BPTT in "
           "regressor.gradients does most of the work")
    # A cold first pass measured no slower than warm ones (6.1 s against
    # 6.4 and 6.5 s at seed 3), so the warm-up is skipped.
    warmup = False

    def generated_config(self):
        return _train_config(super().generated_config())

    def sizes(self):
        return _train_sizes()

    def run_pass(self, runner, d):
        r = PassResult()
        data, model, ev = (os.path.join(d, x) for x in ("data", "model",
                                                        "eval"))
        r.seconds["dataset"] = runner.run(self._argv("dataset", data))
        r.seconds["train"] = runner.run(self._argv("train", model,
                                                   "--data", data))
        r.seconds["eval"] = runner.run(self._argv(
            "eval", ev, "--data", data,
            "--weights", os.path.join(model, "weights.json")))
        for out in (data, model, ev):
            check_manifest(runner.ledger, out, self.cfg)
        rows = len(_csv_rows(os.path.join(data, "train.csv")))
        r.rates["train_steps_per_s"] = EPOCHS * rows / r.seconds["train"]
        losses = _csv_rows(os.path.join(model, "loss_history.csv"))
        rep = _read_json(os.path.join(ev, "report.json"))["report"]
        r.quality = {
            "final_loss": float(losses[-1, 1]),
            "rel_tip_err_pct": rep["rel_tip_err_pct"],
            "nrmse_max_pct": max(rep["nrmse_seg1_pct"],
                                 rep["nrmse_seg2_pct"]),
        }
        ok = (len(losses) == EPOCHS
              and r.quality["rel_tip_err_pct"] <= RECON_ERR_MAX_PCT
              and r.quality["nrmse_max_pct"] <= RECON_ERR_MAX_PCT)
        runner.ledger.check(ok, f"learn: eval errors over "
                                f"{RECON_ERR_MAX_PCT}%: {r.quality}")
        return r


class SweepTrue(Workload):
    name = "sweep_true"
    why = ("default metrics sweep and optimize from true states: sim and "
           "kinematics work, no regressor")

    def sizes(self):
        return {"sweep_cells": self._cells(), "budget": BO_BUDGET}

    def _cells(self):
        sw = _tl("config").default_config().sweep
        return len(sw["amplitudes_deg"]) * len(sw["freq_ratios"])

    def run_pass(self, runner, d):
        r = PassResult()
        met, opt = os.path.join(d, "metrics"), os.path.join(d, "opt")
        r.seconds["metrics"] = runner.run(self._argv("metrics", met))
        r.seconds["optimize"] = runner.run(self._argv(
            "optimize", opt, "--budget", BO_BUDGET))
        for out in (met, opt):
            check_manifest(runner.ledger, out, self.cfg)
        rows = _csv_rows(os.path.join(met, "metrics.csv"))
        runner.ledger.check(
            len(rows) == self._cells() and bool(np.all(np.isfinite(rows))),
            f"{self.name}: metrics.csv has {len(rows)} finite rows, "
            f"want {self._cells()}")
        history = _csv_rows(os.path.join(opt, "history.csv"))
        runner.ledger.count(BO_BUDGET, BO_BUDGET - len(history),
                            f"{self.name}: BO evaluations masked")
        best = _read_json(os.path.join(opt, "best.json"))
        runner.ledger.check(0.0 <= best["twi"] <= 1.0,
                            f"{self.name}: best TWI {best['twi']}")
        r.rates["sweep_cells_per_s"] = len(rows) / r.seconds["metrics"]
        r.rates["bo_evals_per_s"] = BO_BUDGET / r.seconds["optimize"]
        r.quality["bo_best_twi"] = best["twi"]
        return r


class Vision(Workload):
    name = "vision"
    why = ("render, midline and affine fit of test-split states: "
           "vision.render_silhouette and extract_midline only")

    def generated_config(self):
        return _merge(super().generated_config(), {"dataset": {
            "train_duration_s": 1.0,
            "test_duration_s": VISION_TEST_DURATION_S}})

    def sizes(self):
        return {"frames": VISION_FRAMES,
                "test_rows": _rows(VISION_TEST_DURATION_S)}

    def setup(self, runner, d):
        super().setup(runner, d)
        data = os.path.join(d, "data")
        runner.run(self._argv("dataset", data))
        trace = _tl("sim").SimTrace.from_csv(os.path.join(data, "test.csv"))
        idx = np.linspace(0, len(trace.q) - 1, VISION_FRAMES).round()
        self.states = trace.q[idx.astype(int)]
        self.states_path = os.path.join(d, "states.csv")
        with open(self.states_path, "w") as f:
            f.write("q1,q2\n")
            for q1, q2 in self.states:
                f.write(f"{float(q1)!r},{float(q2)!r}\n")
        cfg = _tl("config").RunConfig.from_json(self.cfg_path)
        self.length_mm = cfg.build_geometry().length_mm

    def run_pass(self, runner, d):
        r = PassResult()
        frames, mid = os.path.join(d, "frames"), os.path.join(d, "midlines")
        r.seconds["render"] = runner.run(self._argv(
            "render", frames, "--states", self.states_path))
        images = sorted(glob.glob(os.path.join(frames, "*.pgm")))
        r.seconds["midline"] = runner.run(self._argv(
            "midline", mid, "--images", *images))
        for out in (frames, mid):
            check_manifest(runner.ledger, out, self.cfg)
        (worst, ok), r.seconds["fit"] = runner.timed(lambda: self._fit(mid))
        runner.ledger.count(VISION_FRAMES, VISION_FRAMES - ok,
                            "vision: frames without a fitted midline")
        r.rates["frames_per_s"] = ok / r.wall
        r.quality["midline_err_rad"] = worst
        runner.ledger.check(worst < MIDLINE_ERR_MAX_RAD,
                            f"vision: midline fit error {worst:.4f} rad")
        return r

    def _fit(self, mid):
        """fitting.fit_affine on every frame's midline: the largest
        |q - fit| and the number of frames fitted."""
        vision, fitting = _tl("vision"), _tl("fitting")
        worst, ok = 0.0, 0
        for k, q in enumerate(self.states):
            path = os.path.join(mid, f"frame_{k:04d}_midline.csv")
            try:
                fit = fitting.fit_affine(vision.midline_from_csv(path),
                                         self.length_mm)
            except (OSError, ValueError, vision.VisionError):
                continue
            ok += 1
            worst = max(worst, abs(fit.state.q1 - q[0]),
                        abs(fit.state.q2 - q[1]))
        return worst, ok


WORKLOADS = {w.name: w for w in (Learn, SweepTrue, Vision)}
