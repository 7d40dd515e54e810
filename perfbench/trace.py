"""Span tracing of tentaclelab's public functions, installed from outside
the package.

`install` replaces each traced function in every tentaclelab module
namespace that holds it, so a call made from inside the package (for
example `tip_positions` inside `sim.simulate`, or `gradients` inside
`regressor.train`) opens a child span of its caller. The returned handle
puts every original object back. Spans stay in memory; `write_spans`
dumps them at the end of a run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .stats import percentile, summarize

PACKAGE = "tentaclelab"

CLI_COMMANDS = ("dataset", "train", "eval", "metrics", "optimize", "render",
                "midline")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the root
    run: int             # closed-loop pass the span belongs to
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; yields its counts dict."""
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, self._clock(), math.nan, parent,
                               self.run))
        self._open.append(idx)
        try:
            yield self.spans[idx].counts
        finally:
            self._open.pop()
            self.spans[idx].end = self._clock()


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children[i]):
            a, b = max(a, reach, s.start), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def write_spans(spans, path) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(asdict(s), sort_keys=True) + "\n")


# ---------------------------------------------------------------- counts

def lstm_flops_per_step(hidden: int, n_in: int, n_out: int) -> tuple:
    """Computed (not measured) matrix-product flops per time step of the
    biLSTM, 2 flops per multiply-add: (forward, forward + BPTT).

    Forward, per direction: W x + U h is 4H x (n_in + H) MACs; the head
    is 2H -> H -> n_out. BPTT, per direction: dW += dz x^T (4H x n_in),
    dU += dz h^T (4H x H) and U^T dz (4H x H); the head adds dW2, da,
    dW1 and du. `gradients` reruns the forward pass, so it pays both.
    """
    H = hidden
    forward = 2 * (2 * 4 * H * (n_in + H)) + 2 * (2 * H * H + H * n_out)
    bptt = 2 * (2 * 4 * H * n_in + 2 * 2 * 4 * H * H) \
        + 2 * (2 * H * n_out + 2 * 2 * H * H)
    return forward, forward + bptt


def _quadrature_nodes():
    """Gauss-Legendre nodes per position integral (panels x order)."""
    kin = sys.modules[f"{PACKAGE}.kinematics"]
    return kin._GL_PANELS * kin._GL_ORDER


def _weights_flops(w, which):
    return lstm_flops_per_step(w.hidden, w.n_in, w.n_out)[which]


def _count_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


def _count_optimize(a, r):
    rows = len(r[1])
    return {"evals_attempted": a["budget"],
            "evals_masked": a["budget"] - rows}


def _count_forward(a, r):
    steps = len(a["seq"])
    return {"steps": steps, "flops": steps * _weights_flops(a["w"], 0)}


def _count_gradients(a, r):
    steps = sum(len(s.inputs) for s in a["batch"])
    return {"steps": steps, "flops": steps * _weights_flops(a["w"], 1)}


def _count_lateral(a, r):
    states = len(a["q_series"])
    return {"states": states,
            "evals": states * len(a["stations"]) * _quadrature_nodes()}


def _count_tips(a, r):
    states = len(a["q_series"])
    return {"states": states, "evals": states * _quadrature_nodes()}


# Traced functions as "<module>.<name>" or "<module>.<Class>.<method>",
# each with the counter run on its bound arguments and return value.
TARGETS = {
    "actuation.build_program": None,
    "sim.simulate": lambda a, r: {"steps": len(r.time)},
    "sim.sensor_readout": lambda a, r: {"steps": len(r)},
    "sim.thrust_proxy": None,
    "sim.SimTrace.to_csv": _count_bytes,
    "sim.SimTrace.from_csv": _count_bytes,
    "kinematics.tip_positions": _count_tips,
    "kinematics.lateral_displacements": _count_lateral,
    "kinematics.sample_centerline": None,
    "wavemetrics.field_from_states": None,
    "wavemetrics.cod": None,
    "regressor.gradients": _count_gradients,
    "regressor.forward": _count_forward,
    "regressor.train": None,
    "regressor.save_weights": None,
    "regressor.load_weights": None,
    "fitting.fit_report": None,
    "fitting.fit_affine": None,
    "bayesopt.optimize": _count_optimize,
    "bayesopt.gp_fit": None,
    "bayesopt.gp_predict": None,
    "bayesopt.acquisition": None,
    "vision.render_silhouette": None,
    "vision.extract_midline": None,
    "vision.binarize": None,
    "vision.write_pgm": _count_bytes,
    "vision.read_pgm": _count_bytes,
    "plotting.line_plot_svg": None,
    "plotting.overlay_svg": None,
}

# Per-layer statistics beyond calls and self_s, with their units.
_EXTRA_UNITS = {
    "steps": "count", "bytes": "B", "states": "count", "evals": "count",
    "evals_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms", "flops": "flop",
    "gflops": "GFLOP/s", "evals_attempted": "count", "evals_masked": "count",
    "useful_ratio": "ratio",
}
_EXTRAS = {
    "sim.simulate": ("steps",),
    "sim.sensor_readout": ("steps",),
    "sim.SimTrace.to_csv": ("bytes",),
    "sim.SimTrace.from_csv": ("bytes",),
    "kinematics.tip_positions": ("states", "evals", "evals_per_s"),
    "kinematics.lateral_displacements": ("states", "evals", "evals_per_s"),
    "regressor.gradients": ("steps", "p50_ms", "tail_ms", "flops", "gflops"),
    "regressor.forward": ("steps", "p50_ms", "tail_ms", "flops", "gflops"),
    "bayesopt.optimize": ("evals_attempted", "evals_masked",
                          "useful_ratio"),
    "vision.render_silhouette": ("p50_ms", "tail_ms"),
    "vision.extract_midline": ("p50_ms", "tail_ms"),
    "vision.write_pgm": ("bytes",),
    "vision.read_pgm": ("bytes",),
}

# Whole-pass numbers of a traced run.
RUN_METRICS = (("trace.spans", "count"), ("trace.wall_s", "s"),
               ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"))


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for target in TARGETS:
        out += [(f"{target}.calls", "count"), (f"{target}.self_s", "s")]
        out += [(f"{target}.{x}", _EXTRA_UNITS[x])
                for x in _EXTRAS.get(target, ())]
    out += [(f"cli.{c}.self_s", "s") for c in CLI_COMMANDS]
    return out + list(RUN_METRICS)


# -------------------------------------------------------------- patching

def _wrap(fn, name, tracer, counter):
    sig = inspect.signature(fn) if counter else None

    def traced(*args, **kwargs):
        with tracer.span(name) as counts:
            result = fn(*args, **kwargs)
        if counter:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts.update(counter(bound.arguments, result))
        return result

    traced.__wrapped__ = fn
    return traced


class Installation:
    """Handle on installed wrappers; `uninstall` restores the originals."""

    def __init__(self):
        self._saved = []          # (namespace object, attribute, original)

    def replace(self, obj, attr, new):
        self._saved.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)


def install(tracer: Tracer) -> Installation:
    """Wrap every TARGETS function in every tentaclelab namespace."""
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
               for m in {t.split(".")[0] for t in TARGETS}}
    importlib.import_module(f"{PACKAGE}.cli")
    namespaces = [mod for key, mod in sorted(sys.modules.items())
                  if key.startswith(PACKAGE + ".")]
    inst = Installation()
    try:
        for target, counter in TARGETS.items():
            mod, *path = target.split(".")
            if len(path) == 2:
                cls = getattr(modules[mod], path[0])
                raw = vars(cls)[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(raw.__func__, target, tracer,
                                            counter))
                else:
                    new = _wrap(raw, target, tracer, counter)
                inst.replace(cls, path[1], new)
                continue
            orig = getattr(modules[mod], path[0])
            new = _wrap(orig, target, tracer, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        inst.replace(ns, attr, new)
    except BaseException:
        inst.uninstall()
        raise
    return inst


# ------------------------------------------------------------ reporting

def layer_metrics(spans) -> dict:
    """Per-layer metrics (name -> value) from the spans of traced passes."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s, st in zip(spans, selfs):
        by_name[s.name].append((s, st))
    out = {}
    for target in list(TARGETS) + [f"cli.{c}" for c in CLI_COMMANDS]:
        rows = by_name.get(target, [])
        self_s = sum(st for _, st in rows)
        totals = defaultdict(float)
        for s, _ in rows:
            for k, v in s.counts.items():
                totals[k] += v
        if target.startswith("cli."):
            out[f"{target}.self_s"] = self_s
            continue
        out[f"{target}.calls"] = len(rows)
        out[f"{target}.self_s"] = self_s
        durations_ms = [1e3 * (s.end - s.start) for s, _ in rows]
        for x in _EXTRAS.get(target, ()):
            out[f"{target}.{x}"] = _extra(x, totals, self_s, durations_ms)
    return out


def _extra(stat, totals, self_s, durations_ms):
    if stat == "p50_ms":
        return percentile(durations_ms, 50) if durations_ms else 0.0
    if stat == "tail_ms":
        # 0 when fewer than 20 calls leave no percentile with ten beyond.
        return summarize(durations_ms)["tail"] or 0.0
    if stat == "gflops":
        return totals["flops"] / self_s / 1e9 if self_s > 0 else 0.0
    if stat == "evals_per_s":
        return totals["evals"] / self_s if self_s > 0 else 0.0
    if stat == "useful_ratio":
        tried = totals["evals_attempted"]
        return (tried - totals["evals_masked"]) / tried if tried else 0.0
    return totals[stat]
