"""Command-line pipeline: dataset generation, training, evaluation,
metric sweeps, actuation optimization, rendering, and report assembly.

Every command is driven by a JSON RunConfig and writes a manifest with
the config hash, so reruns are bit-identical and traceable. `main` checks
the config and its input files, loads `--weights` as `args.model`, runs
`cmd_<name>(cfg, args)` in a staging directory beside `--out` and moves
the files it returns, then the manifest, into `--out`: a command that
fails leaves `--out` as it found it, and one that succeeds first removes
the files the manifest it replaces lists and it did not write. `report`
only reads a run directory.
Exit codes: 0 success, 1 usage/config error, 2 runtime/numerical error.

`metrics` and `optimize` score each actuation cell with `evaluate_cell`,
which integrates every step of the cell but takes the world tip and the
thrust only from its first scored step.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .actuation import ProgramSpec, build_program
from .bayesopt import OptimizationError, optimize
from .config import CONFIG_SCHEMA, ConfigError, RunConfig, cell_window, \
    config_hash, read_config_doc
from .csvio import read_csv, write_csv
from .fitting import SHAPES, fit_report
from .kinematics import CurvatureState, sample_centerline, tip_positions
from .plotting import line_plot_svg, overlay_svg
from .regressor import LabeledSequence, TrainingError, forward, \
    load_weights, save_weights, train
from .sim import SimTrace, SimulationError, integrate, moving_average, \
    sensor_readout, simulate, thrust_proxy, thrust_series, \
    world_tip_positions
from .vision import ImageSpec, VisionError, binarize, extract_midline, \
    midline_to_csv, read_pgm, render_silhouette, write_pgm
from .wavemetrics import ModeSet, cod, field_from_states, field_twi, \
    modeset_to_csv, tip_deflection

__all__ = ["main", "CELL_SCORES", "CellResult", "evaluate_cell",
           "simulate_ramp"]


def _write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# (flag, section, key, offset): each flag given sets its keys to its value
# plus the offset, in the config document before its one validation, so a
# flag stands in for the file's value and the manifest records it.
# `--seed n` sets every seed, and the test split's to n + 1.
_FLAG_KEYS = (("seed", "sensor", "seed", 0), ("seed", "train", "seed", 0),
              ("seed", "dataset", "train_seed", 0),
              ("seed", "dataset", "test_seed", 1), ("seed", "bo", "seed", 0),
              ("budget", "bo", "budget", 0),
              ("duration", "dataset", "train_duration_s", 0),
              ("duration_test", "dataset", "test_duration_s", 0))


def _load_config(args) -> RunConfig:
    """The --config document, or the defaults, with the flags folded in.
    A document or section that is not a JSON object stays as it is, for
    `RunConfig.from_dict` to name."""
    doc = (read_config_doc(args.config) if args.config
           else {"schema": CONFIG_SCHEMA})
    for flag, section, key, offset in _FLAG_KEYS:
        value = getattr(args, flag, None)
        if (value is not None and isinstance(doc, dict)
                and isinstance(doc.setdefault(section, {}), dict)):
            doc[section][key] = value + offset
    return RunConfig.from_dict(doc)


def simulate_ramp(cfg: RunConfig, duration: float, seed: int) -> SimTrace:
    """The `dataset` program of `duration` seconds for split seed `seed`,
    read out by the configured sensors with noise seed sensor.seed + seed."""
    trace = simulate(build_program(cfg.build_ramp_spec(duration, seed)),
                     cfg.build_sim_params(), cfg.build_geometry())
    model = replace(cfg.build_sensor_model(), seed=cfg.sensor["seed"] + seed)
    return replace(trace, pressures=sensor_readout(trace, model))


def cmd_dataset(cfg, args) -> list:
    ds = cfg.dataset
    for split in ("train", "test"):
        trace = simulate_ramp(cfg, ds[f"{split}_duration_s"],
                              ds[f"{split}_seed"])
        trace.to_csv(os.path.join(args.out, f"{split}.csv"))
    return ["train.csv", "test.csv"]


def _read_split(cfg, path) -> SimTrace:
    """The trace at `path`, if it steps at `dataset.dt` to the CSV's
    written digits."""
    trace = SimTrace.from_csv(path)
    step, dt = f"{trace.dt:.10g}", f"{cfg.dataset['dt']:.10g}"
    if step != dt:
        raise ConfigError(f"{path} steps at {step} s; the config's "
                          f"dataset.dt is {dt} s")
    return trace


def cmd_train(cfg, args) -> list:
    out = args.out
    trace = _read_split(cfg, os.path.join(args.data, "train.csv"))
    targets = SHAPES[cfg.target].targets(trace.q, cfg.build_geometry())
    seq = LabeledSequence(trace.pressures, targets, trace.dt)
    weights, history = train([seq], cfg.build_train_config())
    save_weights(replace(weights, target=cfg.target),
                 os.path.join(out, "weights.json"))
    write_csv(os.path.join(out, "loss_history.csv"), "epoch,loss",
              list(enumerate(history)))
    line_plot_svg({"training loss": (np.arange(len(history)), history)},
                  os.path.join(out, "loss_history.svg"),
                  title="Training loss", xlabel="epoch", ylabel="MSE")
    return ["weights.json", "loss_history.csv", "loss_history.svg"]


def cmd_eval(cfg, args) -> list:
    out = args.out
    path = os.path.join(args.data, "test.csv")
    trace = _read_split(cfg, path)
    n = trace.pressures.shape[1]
    if args.model.n_in != n:
        raise ConfigError(f"{args.weights} takes {args.model.n_in} pressure "
                          f"channels; {path} holds {n}")
    preds = forward(args.model, trace.pressures)
    geom = cfg.build_geometry()
    shape = SHAPES[cfg.target]
    report = fit_report(preds, shape.targets(trace.q, geom), geom,
                        kind=cfg.target,
                        truth_tip=tip_positions(trace.q, geom))
    _write_json(os.path.join(out, "report.json"),
                {"target": cfg.target, "report": report.as_dict()})
    # Overlay a handful of evenly spaced instants.
    idx = np.linspace(0, len(preds) - 1, 6).astype(int)
    pairs = [(sample_centerline(CurvatureState(*trace.q[i]), geom),
              shape.centerline(preds[i], geom)) for i in idx]
    overlay_svg(pairs, os.path.join(out, "overlay.svg"),
                title="Reconstructed vs true centerlines")
    return ["report.json", "overlay.svg"]


# The scores of a cell, one row each in metrics.csv's column order:
# (column, plot file stem, plot label). CellResult's fields, the columns of
# metrics.csv and history.csv, the keys of best.json, the sweep plots and
# the report's plot list all read this table: a new score is one more row.
CELL_SCORES = (("thrust_mN", "thrust", "thrust proxy (mN)"),
               ("tip_defl_deg", "tip_deflection", "tip deflection (deg)"),
               ("twi", "twi", "TWI"))
_SCORE_COLUMNS = tuple(column for column, _, _ in CELL_SCORES)

# Scores of one (f, A) actuation cell, then its modes: the COD of the
# cell's field, None at A = 0.
CellResult = NamedTuple("CellResult", [(c, float) for c in _SCORE_COLUMNS]
                        + [("modes", ModeSet | None)])


def evaluate_cell(cfg: RunConfig, f: float, A: float,
                  weights=None) -> CellResult:
    """Simulate one (f, A) actuation cell of the `sweep` section and score it.

    TWI and tip deflection come from the states the metrics are computed
    from: the simulated states, or under `weights` the states the
    regressor reconstructs from the cell's pressures, read through the
    shape model SHAPES[weights.target]. Thrust always comes from the
    simulated run. A zero amplitude scores zero and has no modes.

    The cell integrates every step, since the dynamics need the
    transient, but computes the world tip and thrust only from its first
    scored step s0: the earlier of the field window's start and the step
    before the first post-transient step k_tc, so every scored thrust
    value is the central difference a full trace would hold. Pressures,
    and so reconstructed states, still come from every step.
    """
    if A == 0.0:
        return CellResult(*(0.0 for _ in CELL_SCORES), None)
    geom = cfg.build_geometry()
    sw, dt = cfg.sweep, cfg.dataset["dt"]
    prog = build_program(ProgramSpec(
        duration_s=sw["cycles"] / f, dt=dt, amplitude_deg=A, frequency_hz=f))
    run = integrate(prog, cfg.build_sim_params())
    win = cell_window(sw, f, dt)
    k_tc = int(np.searchsorted(prog.cycle_index, sw["transient_cycles"]))
    s0 = max(0, min(win.start, k_tc - 1))
    theta = prog.theta_deg[s0:]
    tipx = world_tip_positions(tip_positions(run.q[s0:], geom), theta)[:, 0]
    thrust = thrust_series(tipx, run.dt)
    q, shape = run.q, {}     # true states: field_from_states' default shape
    if weights is not None:
        q = forward(weights, sensor_readout(run, cfg.build_sensor_model()))
        shape = {"shape": weights.target}
        tips = SHAPES[weights.target].tips(q[s0:], geom)
        tipx = world_tip_positions(tips, theta)[:, 0]
    modes = cod(field_from_states(q[win.start:win.stop:win.step], geom,
                                  sw["n_stations"], dt * win.step,
                                  **shape))
    cyc = thrust_proxy(thrust[k_tc - s0:], prog.cycle_index[k_tc:])
    return CellResult(
        thrust_mN=float(moving_average(cyc, 3).mean()),
        tip_defl_deg=tip_deflection(tipx[win.start - s0:], geom.length_mm),
        twi=field_twi(modes), modes=modes)


def cmd_metrics(cfg, args) -> list:
    out = args.out
    f0 = cfg.build_sim_params().f0_hz
    amps, ratios = cfg.sweep["amplitudes_deg"], cfg.sweep["freq_ratios"]
    cells = {(A, r): evaluate_cell(cfg, r * f0, A, args.model)
             for A in amps for r in ratios}
    write_csv(os.path.join(out, "metrics.csv"),
              ",".join(("f_hz", "A_deg", "freq_ratio") + _SCORE_COLUMNS),
              [(r * f0, A, r, *c[:-1]) for (A, r), c in cells.items()])
    # Mode shapes of the cell with the highest TWI (zero-amplitude cells
    # have none; the config guarantees a nonzero amplitude).
    best = max((c for c in cells.values() if c.modes is not None),
               key=lambda c: c.twi)
    modeset_to_csv(best.modes, os.path.join(out, "modes.csv"))
    files = ["metrics.csv", "modes.csv"]
    x = sorted(ratios)      # in increasing f / f0, so no line folds back
    for j, (_, stem, label) in enumerate(CELL_SCORES):
        series = {f"A={A:g} deg": (x, [cells[A, r][j] for r in x])
                  for A in amps}
        files.append(f"{stem}.svg")
        line_plot_svg(series, os.path.join(out, files[-1]), title=label,
                      xlabel="f / f0", ylabel=label)
    return files


def cmd_optimize(cfg, args) -> list:
    cells = []      # cells[i] scores history[i]: a failed cell raises first

    def objective(f, A):
        cells.append(evaluate_cell(cfg, f, A, args.model))
        return cells[-1].twi

    best, history = optimize(objective, cfg.build_search_space(),
                             cfg.bo["budget"], seed=cfg.bo["seed"])
    write_csv(os.path.join(args.out, "history.csv"),
              ",".join(("iter", "f_hz", "A_deg") + _SCORE_COLUMNS),
              [(i, r.f, r.A, *c[:-1])
               for i, (r, c) in enumerate(zip(history, cells))])
    top = cells[history.index(best)]
    _write_json(os.path.join(args.out, "best.json"),
                {"f_hz": best.f, "A_deg": best.A,
                 **dict(zip(_SCORE_COLUMNS, top))})
    return ["history.csv", "best.json"]


def cmd_render(cfg, args) -> list:
    geom = cfg.build_geometry()
    spec = ImageSpec()
    c = read_csv(args.states, ("q1", "q2"))     # a state or trace CSV
    files = []
    for i, (q1, q2) in enumerate(zip(c["q1"], c["q2"])):
        try:
            img = render_silhouette(CurvatureState(q1, q2), geom, spec)
        except VisionError as e:
            raise VisionError(f"{args.states} row {i + 1} (q1={q1:g}, "
                              f"q2={q2:g}): {e}") from None
        files.append(f"frame_{i:04d}.pgm")
        write_pgm(img, os.path.join(args.out, files[-1]))
    return files


def cmd_midline(cfg, args) -> list:
    geom = cfg.build_geometry()
    spec = ImageSpec()
    paths = {}      # output name -> image, checked before any is read
    for path in sorted(args.images):
        name = os.path.splitext(os.path.basename(path))[0] + "_midline.csv"
        if name in paths:
            raise ValueError(f"{paths[name]} and {path} would both write "
                             f"{name}")
        paths[name] = path
    for name, path in paths.items():
        img = read_pgm(path)
        try:
            cl = extract_midline(binarize(img), spec,
                                 max_len_mm=geom.length_mm)
        except VisionError as e:
            raise VisionError(f"{path}: {e}") from None
        midline_to_csv(cl, os.path.join(args.out, name))
    return list(paths)


def cmd_report(args) -> int:
    run = args.run
    if not os.path.isdir(run):
        raise ConfigError(f"--run {run}: not a directory")
    out_path = os.path.join(run, "report.html")
    sections = []

    def read(path, parse=str):
        """The parsed UTF-8 text of an artifact; errors name the file."""
        try:
            with open(path, encoding="utf-8") as f:
                return parse(f.read())
        except (OSError, ValueError) as e:
            raise ValueError(f"{path}: {e}") from None

    def add_svg(path, heading):
        if os.path.isfile(path):
            sections.append(f"<h2>{heading}</h2>\n" + read(path))

    def add_json_table(path, heading):
        if os.path.isfile(path):
            doc = read(path, _json_object)
            rows = "".join(f"<tr><td>{k}</td><td>{v}</td></tr>"
                           for k, v in sorted(_flatten(doc).items()))
            sections.append(f"<h2>{heading}</h2>\n<table border='1' "
                            f"cellpadding='4'>{rows}</table>")

    for sub in sorted(os.listdir(run)):
        d = os.path.join(run, sub)
        if not os.path.isdir(d):
            continue
        add_json_table(os.path.join(d, "report.json"),
                       f"{sub}: reconstruction error")
        add_json_table(os.path.join(d, "best.json"),
                       f"{sub}: optimized actuation")
        for stem in ("loss_history", "overlay",
                     *(s for _, s, _ in CELL_SCORES)):
            add_svg(os.path.join(d, f"{stem}.svg"), f"{sub}: {stem}")
    if not sections:
        print(f"error: no reportable artifacts under {run}",
              file=sys.stderr)
        return 1
    html = ("<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
            "<title>Run report</title></head><body>\n<h1>Run report</h1>\n"
            + "\n".join(sections) + "\n</body></html>\n")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(html)
    return 0


def _json_object(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("must be a JSON object")
    return doc


def _flatten(doc, prefix=""):
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It names no function: `main`
    looks up `cmd_<name>` when it dispatches."""
    p = argparse.ArgumentParser(
        prog="tentaclelab",
        description="Synthetic tentacle proprioception pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="RunConfig JSON path")
        sp.add_argument("--seed", type=int, help="override config seeds")
        sp.add_argument("--out", required=True, help="output directory")
        return sp

    sp = command("dataset", "generate labeled train/test CSVs")
    sp.add_argument("--duration", type=float, help="train duration (s)")
    sp.add_argument("--duration-test", type=float, help="test duration (s)")

    sp = command("train", "train the regressor")
    sp.add_argument("--data", required=True, help="dataset directory")

    sp = command("eval", "evaluate weights on the test split")
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--weights", required=True, help="weights JSON path")

    sp = command("metrics", "sweep (f, A) performance metrics")
    sp.add_argument("--weights", help="compute from reconstructed states")

    sp = command("optimize", "Bayesian-optimize actuation")
    sp.add_argument("--budget", type=int, help="evaluation budget")
    sp.add_argument("--weights", help="objective from reconstructed states")

    sp = command("render", "render state CSV rows to PGM frames")
    sp.add_argument("--states", required=True, help="state or trace CSV")

    sp = command("midline", "extract midlines from PGM images")
    sp.add_argument("--images", nargs="+", required=True, help="PGM paths")

    sp = sub.add_parser("report", help="collate a run directory into HTML")
    sp.add_argument("--run", required=True, help="run directory")
    return p


def _input_files(args) -> list:
    """(kind, path) of every file the command reads, weights first."""
    split = {"train": "train.csv", "eval": "test.csv"}.get(args.command)
    files = [("weights", getattr(args, "weights", None)),
             ("data", split and os.path.join(args.data, split)),
             ("states", getattr(args, "states", None))]
    files += [("image", p) for p in getattr(args, "images", None) or ()]
    return [(kind, p) for kind, p in files if p]


def _check_out(out) -> None:
    """Raise ConfigError unless --out, or the nearest of its ancestors that
    exists, is a directory."""
    path = os.path.realpath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out}: {path} is not a directory")


def _replaced_outputs(out, outputs) -> list:
    """Files the manifest in `out` lists and `outputs` does not: what a run
    into `out` replaces. Only plain names count, never the manifest; an
    unreadable manifest names none."""
    try:
        with open(os.path.join(out, "manifest.json")) as f:
            listed = json.load(f)["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return []
    if not isinstance(listed, list):
        return []
    return [n for n in listed if isinstance(n, str)
            and os.path.basename(n) == n
            and n not in ("..", "manifest.json", *outputs)]


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = _load_config(args)
        for kind, path in _input_files(args):
            if not os.path.isfile(path):
                raise FileNotFoundError(f"{kind} file not found: {path}")
        _check_out(args.out)
        weights = getattr(args, "weights", None)
        args.model = load_weights(weights) if weights else None
        n = len(cfg.sensor["gain"])     # what metrics and optimize feed it
        if args.command != "eval" and args.model and args.model.n_in != n:
            raise ConfigError(f"{weights} takes {args.model.n_in} pressure "
                              f"channels; the sensor section reads {n}")
        # Every command reads the network's outputs as one pair per step.
        if args.model and args.model.n_out != 2:
            raise ConfigError(f"{weights} predicts {args.model.n_out} "
                              f"outputs; {args.command} reads 2")
        if args.model and args.model.target != cfg.target:
            raise ConfigError(f"{weights} predicts {args.model.target} "
                              f"states; the config's target is {cfg.target}")
        out = args.out      # staged beside it: each move is a rename
        parent = os.path.dirname(os.path.realpath(out))
        os.makedirs(parent, exist_ok=True)
        args.out = tempfile.mkdtemp(prefix=".tentaclelab-", dir=parent)
        try:
            outputs = globals()[f"cmd_{args.command}"](cfg, args)
            _write_json(os.path.join(args.out, "manifest.json"), {
                "command": args.command, "schema": CONFIG_SCHEMA,
                "config_hash": config_hash(cfg), "config": cfg.to_dict(),
                "outputs": sorted(outputs)})
            os.makedirs(out, exist_ok=True)
            for name in _replaced_outputs(out, outputs):
                if os.path.isfile(os.path.join(out, name)):
                    os.remove(os.path.join(out, name))
            for name in outputs + ["manifest.json"]:
                os.replace(os.path.join(args.out, name),
                           os.path.join(out, name))
        finally:
            shutil.rmtree(args.out)
        return 0
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SimulationError, TrainingError, VisionError, OptimizationError,
            ValueError, np.linalg.LinAlgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
