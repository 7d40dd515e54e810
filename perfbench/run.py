"""Run one benchmark workload against the tentaclelab sources of this
checkout and print its metrics.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 10 --trace 0

Run from the repository root. The output is an environment stamp, every
end-to-end metric that applies to the workload by name and unit (with
--trace 1: the per-layer table and the tracing overhead instead), and as
the last line one JSON object with the keys correct, attempted, failed
and metrics. Exits 2 without a result when the sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import hostspeed, trace, workloads  # noqa: E402
from perfbench.stats import block_means, summarize  # noqa: E402

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# End-to-end metrics in the JSON result: the ones every workload has.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# Units of the workload-specific end-to-end metrics, printed only.
UNITS = {
    "train_steps_per_s": "steps/s", "sweep_cells_per_s": "cells/s",
    "bo_evals_per_s": "evals/s", "frames_per_s": "frames/s",
    "final_loss": "normalized_MSE", "rel_tip_err_pct": "%",
    "nrmse_max_pct": "%", "bo_best_twi": "1", "midline_err_rad": "rad",
}

# Layers predicted to dominate each workload's traced self time.
PREDICTED_DOMINANT = {
    "learn": ("regressor.gradients",),
    "sweep_true": ("kinematics.tip_positions",
                   "kinematics.lateral_displacements", "sim.simulate"),
    "vision": ("vision.render_silhouette",),
}


# ----------------------------------------------------------- environment

def _git():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=20,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    """BLAS name and version numpy was built with, and its thread count."""
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info['name']} {info['version']}"
    except (KeyError, TypeError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "blas" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return name, threads


def environment(seed: int, sizes: dict) -> dict:
    import numpy
    import scipy
    sha, dirty = _git()
    blas, threads = _blas()
    return {"git_sha": sha, "git_dirty": dirty, "seed": seed,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "sizes": sizes}


# ------------------------------------------------------------------ run

def _setup_child(args, cli):
    """Build one set-up into args.setup_child and pickle what the parent
    needs next to it: the workload with its fixture paths, the ledger."""
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ledger = workloads.Ledger()
    aborted = None
    try:
        wl.setup(workloads.Runner(cli.main, ledger), args.setup_child)
    except workloads.PassAborted as e:
        aborted = str(e)
    with open(args.setup_child + ".pkl", "wb") as f:
        pickle.dump({"workload": wl, "ledger": ledger, "aborted": aborted}, f)
    return 0


class RunState:
    """One workload run: set-up repeats, then closed-loop passes."""

    def __init__(self, workload_cls, seed, workdir, cli_main):
        self.workload_cls = workload_cls
        self.seed = seed
        self.workdir = workdir
        self.ledger = workloads.Ledger()
        self.runner = workloads.Runner(cli_main, self.ledger)
        self.workload = None
        self.reference = None
        self.n_pass = 0
        self.compared = 0
        self.aborted = None
        # (wall s, s at the reference host speed) of each set-up
        self.setup_times = []

    def _setup_once(self, d):
        """One set-up in a fresh process: interpreter start, imports,
        generated config and fixtures. Returns the process's result, or
        None and an error; its wall time goes through the runner's
        host-speed probes into self.setup_times."""
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", self.workload_cls.name, "--seed", str(self.seed),
               "--seconds", "0", "--setup-child", d]
        self.runner.ref_seconds = 0.0
        try:
            proc, elapsed = self.runner.timed(lambda: subprocess.run(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, timeout=SETUP_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            return None, "set-up timed out"
        self.setup_times.append((elapsed, self.runner.ref_seconds))
        if proc.returncode != 0 or not os.path.isfile(d + ".pkl"):
            return None, (f"set-up process exit {proc.returncode}: "
                          f"{proc.stdout[-2000:]}")
        with open(d + ".pkl", "rb") as f:
            return pickle.load(f), None

    def setup(self):
        """Build the set-up SETUP_REPEATS times, each in its own process,
        so that this process's peak memory covers only the passes. The
        repeats must be byte identical; the last one's fixtures are kept.
        """
        digests = []
        for k in range(SETUP_REPEATS):
            d = os.path.join(self.workdir, f"setup{k}")
            built, error = self._setup_once(d)
            if built is None:
                self.ledger.count(1, 1, error)
            else:
                self.ledger.merge(built["ledger"])
                error = built["aborted"] and f"set-up: {built['aborted']}"
            if error:
                self.aborted = error
                return
            digests.append(workloads.artifact_digests(d))
            self.workload = built["workload"]
            if k:
                shutil.rmtree(os.path.join(self.workdir, f"setup{k - 1}"))
        self.ledger.check(all(dg == digests[0] for dg in digests),
                          "set-up artifacts differ between same-seed repeats")

    def one_pass(self, tracer=None):
        """One pass, its artifacts checked against the first pass's."""
        d = os.path.join(self.workdir, f"pass{self.n_pass}")
        self.n_pass += 1
        self.runner.tracer = tracer
        self.runner.ref_seconds = 0.0
        try:
            result = self.workload.run_pass(self.runner, d)
        finally:
            self.runner.tracer = None
        result.ref_wall = self.runner.ref_seconds
        digests = workloads.artifact_digests(d)
        if self.reference is None:
            self.reference = digests
        else:
            self.compared += 1
            self.ledger.check(digests == self.reference,
                              "artifacts differ from the first same-seed pass")
        shutil.rmtree(d)
        return result

    def loop(self, seconds, step, min_steps=1):
        """Call step() back to back within `seconds`: at least min_steps
        times, and again only while the last step's duration still fits.
        A failed command ends the loop."""
        t0 = time.perf_counter()
        try:
            for n in itertools.count(1):
                t_step = time.perf_counter()
                step()
                now = time.perf_counter()
                if n >= min_steps and now - t0 + (now - t_step) > seconds:
                    break
        except workloads.PassAborted as e:
            self.aborted = str(e)


def _metric_line(name, value, unit, extra=""):
    return f"metric {name:<22} {value:>14.6g} {unit:<15} {extra}".rstrip()


def _timing_extra(values):
    s = summarize(values)
    tail = ("tail n/a (<20 samples)" if s["tail"] is None
            else f"tail p{s['tail_pct']:g}={s['tail']:.6g}")
    return f"n={s['n']} {tail}"


def report_end_to_end(state, results, import_s, out):
    """End-to-end lines into `out`; returns the JSON metrics. The gated
    times are at the reference host speed (see hostspeed.py); the raw
    wall times are printed beside them."""
    ledger = state.ledger
    metrics = {}
    raw_setup = [t for t, _ in state.setup_times]
    metrics["setup_s"] = statistics.median(
        [t for _, t in state.setup_times] or [0.0])
    out.append(_metric_line(
        "setup_s", metrics["setup_s"], "s",
        f"at reference speed, median of {len(raw_setup)} set-ups, each a "
        f"fresh process; wall {[round(t, 3) for t in raw_setup]} s; this "
        f"process imported in {import_s:.3f} s"))
    if results:
        blocks = block_means(r.ref_wall for r in results)
        metrics["wall_s"] = statistics.median(blocks)
        out.append(_metric_line(
            "wall_s", metrics["wall_s"], "s",
            f"per pass at reference speed, median of {len(blocks)} block "
            f"means {[round(b, 4) for b in blocks]}"))
        walls = [r.wall for r in results]
        out.append(_metric_line("pass_wall_s", statistics.median(walls), "s",
                                "wall time per pass, " + _timing_extra(walls)))
        out.append("passes " + " ".join(f"{w:.3f}" for w in walls))
    probes = state.runner.probes
    if probes:
        out.append(f"host speed: probe median {statistics.median(probes):.4f}"
                   f" s over {len(probes)} runs, range {min(probes):.4f}-"
                   f"{max(probes):.4f} s; reference "
                   f"{hostspeed.REF_PROBE_S:.4f} s")
    if results:
        for name in results[0].rates:
            vals = [r.rates[name] for r in results]
            out.append(_metric_line(name, statistics.median(vals),
                                    UNITS[name], _timing_extra(vals)))
        for name, value in results[-1].quality.items():
            out.append(_metric_line(name, value, UNITS[name],
                                    "deterministic for the seed"))
    frac = ledger.failed / max(ledger.attempted, 1)
    out.append(_metric_line("failed_frac", frac, "ratio",
                            f"{ledger.failed} of {ledger.attempted} "
                            f"operations"))
    metrics["peak_rss_mb"] = peak_rss_mb()
    out.append(_metric_line(
        "peak_rss_mb", metrics["peak_rss_mb"], "MB",
        f"imports and passes; largest set-up process "
        f"{peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB"))
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def report_per_layer(tracer, traced, untraced, name, out):
    n = max(len(traced), 1)
    values = trace.layer_metrics(tracer.spans)
    additive = ("calls", "self_s", "steps", "bytes", "states", "evals",
                "flops", "evals_attempted", "evals_masked")
    for key in values:
        if key.rsplit(".", 1)[1] in additive:
            values[key] /= n
    wall_t = statistics.median(r.wall for r in traced) if traced else 0.0
    wall_u = statistics.median(r.wall for r in untraced) if untraced else 0.0
    values["trace.spans"] = len(tracer.spans) / n
    values["trace.wall_s"] = wall_t
    values["trace.untraced_wall_s"] = wall_u
    values["trace.overhead_s"] = wall_t - wall_u
    out.append(f"trace passes traced={len(traced)} untraced={len(untraced)};"
               f" per-layer counts and self times are per pass")
    out.append(f"trace overhead {wall_t - wall_u:+.4f} s per pass "
               f"({100 * (wall_t - wall_u) / wall_u if wall_u else 0:+.2f}%"
               f" of untraced wall {wall_u:.4f} s)")
    shares = {}
    for key, v in values.items():
        if key.endswith(".self_s") and v > 0:
            shares[key[:-len(".self_s")]] = v / wall_t if wall_t else 0.0
    out.append("layer self-time shares of the traced pass:")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        out.append(f"  {layer:<36} {100 * share:6.2f}%  "
                   f"{values[layer + '.self_s']:.4f} s")
    top = max(shares, key=shares.get) if shares else None
    predicted = PREDICTED_DOMINANT[name]
    group = sum(shares.get(p, 0.0) for p in predicted)
    verdict = "confirmed" if top in predicted else "WRONG"
    out.append(f"prediction: {' + '.join(predicted)} dominates {name}: "
               f"{verdict} (top layer {top}, predicted group "
               f"{100 * group:.1f}% of the pass)")
    units = dict(trace.per_layer_spec())
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: build one set-up into this directory and exit.
    p.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        cli = workloads.load_program(ROOT)
    except workloads.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    if args.setup_child:
        return _setup_child(args, cli)
    base = os.path.join(ROOT, "perfbench", ".work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, cli, import_s, base, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, import_s, base, workdir):
    cls = workloads.WORKLOADS[args.workload]
    state = RunState(cls, args.seed, workdir, cli.main)
    state.setup()
    sizes = state.workload.sizes() if state.workload else {}
    print("env " + json.dumps(environment(args.seed, sizes), sort_keys=True))
    print(f"workload {cls.name}: {cls.why}")
    out = []
    if args.trace == 0:
        results = []
        if cls.warmup and not state.aborted:
            state.loop(0, state.one_pass)
        if not state.aborted:
            state.loop(args.seconds,
                       lambda: results.append(state.one_pass()),
                       min_steps=1 if cls.warmup else 2)
        out.append(f"passes {len(results)} timed"
                   f"{' after 1 warm-up' if cls.warmup else ''}, "
                   f"{state.compared} compared byte for byte with the "
                   f"first; set-up repeated {len(state.setup_times)}x")
        metrics = report_end_to_end(state, results, import_s, out)
    else:
        tracer = trace.Tracer()
        traced, untraced = [], []

        def traced_step():
            untraced.append(state.one_pass())
            tracer.run += 1
            inst = trace.install(tracer)
            try:
                traced.append(state.one_pass(tracer))
            finally:
                inst.uninstall()

        if not state.aborted:
            state.loop(0, state.one_pass)
        if not state.aborted:
            state.loop(args.seconds, traced_step)
        trace.write_spans(tracer.spans, os.path.join(
            base, f"spans-{cls.name}-seed{args.seed}.jsonl"))
        metrics = report_per_layer(tracer, traced, untraced, cls.name, out)
    for line in out:
        print(line)
    ledger = state.ledger
    if state.aborted:
        ledger.failures.append(f"aborted: {state.aborted}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    correct = ledger.failed == 0 and not state.aborted
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
