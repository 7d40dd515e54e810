"""Command-line pipeline: dataset generation, training, evaluation,
metric sweeps, actuation optimization, rendering, and report assembly.

Every command is driven by a JSON RunConfig and writes a manifest with
the config hash, so reruns are bit-identical and traceable. `main` loads
and checks the config, checks that every input file exists, creates
`--out`, runs `cmd_<name>(cfg, args)`, which returns the files it wrote,
and writes the manifest; `report` only reads a run directory. Exit codes:
0 success, 1 usage/config error, 2 runtime/numerical error.

`metrics` and `optimize` score each actuation cell with `evaluate_cell`,
which integrates every step of the cell but takes the world tip and the
thrust only from its first scored step.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .actuation import ProgramSpec, build_program
from .bayesopt import OptimizationError, optimize
from .config import CONFIG_SCHEMA, ConfigError, RunConfig, cell_window, \
    config_hash, default_config
from .fitting import fit_report, poly_centerline, poly_targets
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

__all__ = ["main", "CellResult", "evaluate_cell", "simulate_ramp"]


def _write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(f"{v:.10g}" for v in row) + "\n")


# Flags that each override one config key, folded in before validation
# so the config check covers them and the manifest records them.
_FLAG_KEYS = (("budget", "bo", "budget"),
              ("duration", "dataset", "train_duration_s"),
              ("duration_test", "dataset", "test_duration_s"))


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else default_config()
    doc = cfg.to_dict()
    n = args.seed
    if n is not None:
        doc.update(sensor={**cfg.sensor, "seed": n},
                   train={**cfg.train, "seed": n},
                   dataset={**cfg.dataset, "train_seed": n,
                            "test_seed": n + 1},
                   bo={**cfg.bo, "seed": n})
    for flag, section, key in _FLAG_KEYS:
        if getattr(args, flag, None) is not None:
            doc[section] = {**doc[section], key: getattr(args, flag)}
    return RunConfig.from_dict(doc)


def simulate_ramp(cfg: RunConfig, duration: float, seed: int) -> SimTrace:
    """The `dataset` program of `duration` seconds, simulated and read out
    through the configured sensors."""
    trace = simulate(build_program(cfg.build_ramp_spec(duration, seed)),
                     cfg.build_sim_params(), cfg.build_geometry())
    pressures = sensor_readout(trace, cfg.build_sensor_model())
    return trace.with_pressures(pressures)


def _targets_for(cfg, trace) -> np.ndarray:
    if cfg.target == "affine":
        return trace.q
    return poly_targets(trace.q, cfg.build_geometry())


def cmd_dataset(cfg, args) -> list:
    ds = cfg.dataset
    files = []
    for split in ("train", "test"):
        trace = simulate_ramp(cfg, ds[f"{split}_duration_s"],
                              ds[f"{split}_seed"])
        trace.to_csv(os.path.join(args.out, f"{split}.csv"))
        files.append(f"{split}.csv")
    return files


def cmd_train(cfg, args) -> list:
    out = args.out
    trace = SimTrace.from_csv(os.path.join(args.data, "train.csv"))
    seq = LabeledSequence(trace.pressures, _targets_for(cfg, trace),
                          trace.dt)
    weights, history = train([seq], cfg.build_train_config())
    save_weights(weights, os.path.join(out, "weights.json"))
    _write_csv(os.path.join(out, "loss_history.csv"), "epoch,loss",
               enumerate(history))
    line_plot_svg({"training loss": (np.arange(len(history)), history)},
                  os.path.join(out, "loss_history.svg"),
                  title="Training loss", xlabel="epoch", ylabel="MSE")
    return ["weights.json", "loss_history.csv", "loss_history.svg"]


def cmd_eval(cfg, args) -> list:
    out = args.out
    weights = load_weights(args.weights)
    trace = SimTrace.from_csv(os.path.join(args.data, "test.csv"))
    preds = forward(weights, trace.pressures)
    geom = cfg.build_geometry()
    report = fit_report(preds, _targets_for(cfg, trace), geom,
                        kind=cfg.target,
                        truth_tip=tip_positions(trace.q, geom))
    _write_json(os.path.join(out, "report.json"),
                {"target": cfg.target, "report": report.as_dict()})
    # Overlay a handful of evenly spaced instants.
    idx = np.linspace(0, len(preds) - 1, 6).astype(int)
    pairs = []
    for i in idx:
        truth_cl = sample_centerline(CurvatureState(*trace.q[i]), geom)
        if cfg.target == "affine":
            pred_cl = sample_centerline(CurvatureState(*preds[i]), geom)
        else:
            pred_cl = poly_centerline(preds[i], geom)
        pairs.append((truth_cl, pred_cl))
    overlay_svg(pairs, os.path.join(out, "overlay.svg"),
                title="Reconstructed vs true centerlines")
    return ["report.json", "overlay.svg"]


class CellResult(NamedTuple):
    """Scores of one (f, A) actuation cell."""

    twi: float
    tip_defl_deg: float
    thrust_mN: float
    modes: ModeSet | None     # COD of the cell's field; None at A = 0


def evaluate_cell(cfg: RunConfig, f: float, A: float,
                  weights=None) -> CellResult:
    """Simulate one (f, A) actuation cell of the `sweep` section and score it.

    TWI and tip deflection come from the states the metrics are computed
    from: the simulated states, or under `weights` the states the
    regressor reconstructs from the cell's pressures. Thrust always comes
    from the simulated run. A zero amplitude scores zero and has no
    modes.

    The cell integrates every step, since the dynamics need the
    transient, but computes the world tip and thrust only from its first
    scored step s0: the earlier of the field window's start and the step
    before the first post-transient step k_tc, so every scored thrust
    value is the central difference a full trace would hold. Pressures,
    and so reconstructed states, still come from every step.
    """
    if A == 0.0:
        return CellResult(0.0, 0.0, 0.0, None)
    geom = cfg.build_geometry()
    params = cfg.build_sim_params()
    sw = cfg.sweep
    prog = build_program(ProgramSpec(
        duration_s=sw["cycles"] / f, dt=params.dt, amplitude_deg=A,
        frequency_hz=f))
    run = integrate(prog, params)
    win = cell_window(sw, f, params.dt)
    k_tc = int(np.searchsorted(prog.cycle_index, sw["transient_cycles"]))
    s0 = max(0, min(win.start, k_tc - 1))
    theta = prog.theta_deg[s0:]
    tipx = world_tip_positions(run.q[s0:], theta, geom)[:, 0]
    thrust = thrust_series(tipx, run.dt)
    q = run.q
    if weights is not None:
        q = forward(weights, sensor_readout(run, cfg.build_sensor_model()))
        tipx = world_tip_positions(q[s0:], theta, geom)[:, 0]
    modes = cod(field_from_states(q[win.start:win.stop:win.step], geom,
                                  sw["n_stations"], params.dt * win.step))
    cyc = thrust_proxy(thrust[k_tc - s0:], prog.cycle_index[k_tc:])
    return CellResult(field_twi(modes),
                      tip_deflection(tipx[win.start - s0:], geom.length_mm),
                      float(moving_average(cyc, 3).mean()), modes)


def cmd_metrics(cfg, args) -> list:
    out = args.out
    weights = load_weights(args.weights) if args.weights else None
    f0 = cfg.build_sim_params().f0_hz
    rows, cell_modes = [], []
    for A in cfg.sweep["amplitudes_deg"]:
        for r in cfg.sweep["freq_ratios"]:
            twi_val, defl, thrust, modes = evaluate_cell(cfg, r * f0, A,
                                                         weights)
            rows.append((r * f0, A, r, thrust, defl, twi_val))
            cell_modes.append(modes)
    _write_csv(os.path.join(out, "metrics.csv"),
               "f_hz,A_deg,freq_ratio,thrust_mN,tip_defl_deg,twi", rows)
    # Mode shapes of the cell with the highest TWI (zero-amplitude cells
    # have none; the config guarantees a nonzero amplitude).
    best = max((i for i, m in enumerate(cell_modes) if m is not None),
               key=lambda i: rows[i][5])
    modeset_to_csv(cell_modes[best], os.path.join(out, "modes.csv"))
    files = ["metrics.csv", "modes.csv"]
    arr = np.array(rows)
    for j, (name, label) in enumerate((
            ("thrust", "thrust proxy (mN)"),
            ("tip_deflection", "tip deflection (deg)"),
            ("twi", "TWI"))):
        series = {}
        for A in cfg.sweep["amplitudes_deg"]:
            sel = arr[arr[:, 1] == A]
            series[f"A={A:g} deg"] = (sel[:, 2], sel[:, 3 + j])
        fname = f"{name}.svg"
        line_plot_svg(series, os.path.join(out, fname), title=label,
                      xlabel="f / f0", ylabel=label)
        files.append(fname)
    return files


def cmd_optimize(cfg, args) -> list:
    weights = load_weights(args.weights) if args.weights else None
    bo = cfg.bo
    cells = []      # cells[i] scores history[i]: a failed cell raises first

    def objective(f, A):
        cells.append(evaluate_cell(cfg, f, A, weights))
        return cells[-1].twi

    best, history = optimize(objective, cfg.build_search_space(),
                             bo["budget"], seed=bo["seed"], rho=bo["rho"])
    _write_csv(os.path.join(args.out, "history.csv"),
               "iter,f,A,twi,tip_defl_deg,thrust_mN",
               [(i, r.f, r.A, c.twi, c.tip_defl_deg, c.thrust_mN)
                for i, (r, c) in enumerate(zip(history, cells))])
    top = cells[history.index(best)]
    _write_json(os.path.join(args.out, "best.json"),
                {"f_hz": best.f, "A_deg": best.A, "twi": top.twi,
                 "tip_defl_deg": top.tip_defl_deg,
                 "thrust_mN": top.thrust_mN})
    return ["history.csv", "best.json"]


def cmd_render(cfg, args) -> list:
    geom = cfg.build_geometry()
    spec = ImageSpec()
    # State and trace CSVs both name their q1 and q2 columns.
    with open(args.states) as f:
        lines = [line for line in f if line.strip()]
    names = lines[0].strip().split(",") if lines else []
    if not {"q1", "q2"} <= set(names) or len(lines) < 2:
        raise ValueError(f"{args.states}: a state CSV needs a header naming "
                         "q1 and q2 and at least one row")
    q = np.loadtxt(lines[1:], delimiter=",", ndmin=2,
                   usecols=(names.index("q1"), names.index("q2")))
    # Frames are written under a temporary name and renamed only once
    # every state has rendered, so a failure leaves no frame behind.
    files, parts = [], []
    try:
        for i, (q1, q2) in enumerate(q):
            try:
                img = render_silhouette(CurvatureState(q1, q2), geom, spec)
            except VisionError as e:
                raise VisionError(f"{args.states} row {i + 1} (q1={q1:g}, "
                                  f"q2={q2:g}): {e}") from None
            files.append(f"frame_{i:04d}.pgm")
            parts.append(os.path.join(args.out, files[-1] + ".part"))
            write_pgm(img, parts[-1])
    except BaseException:
        for part in parts:
            if os.path.exists(part):
                os.remove(part)
        raise
    for name, part in zip(files, parts):
        os.replace(part, os.path.join(args.out, name))
    return files


def cmd_midline(cfg, args) -> list:
    geom = cfg.build_geometry()
    spec = ImageSpec()
    paths = {}      # output name -> image, checked before any is written
    for path in sorted(args.images):
        name = os.path.splitext(os.path.basename(path))[0] + "_midline.csv"
        if name in paths:
            raise ValueError(f"{paths[name]} and {path} would both write "
                             f"{name}")
        paths[name] = path
    # Every midline is extracted before any is written.
    lines = {}
    for name, path in paths.items():
        img = read_pgm(path)
        try:
            lines[name] = extract_midline(binarize(img), spec,
                                          max_len_mm=geom.length_mm)
        except VisionError as e:
            raise VisionError(f"{path}: {e}") from None
    for name, cl in lines.items():
        midline_to_csv(cl, os.path.join(args.out, name))
    return list(lines)


def cmd_report(args) -> int:
    run = args.run
    out_path = os.path.join(run, "report.html")
    sections = []

    def add_svg(path, heading):
        if os.path.exists(path):
            with open(path) as f:
                sections.append(f"<h2>{heading}</h2>\n" + f.read())

    def add_json_table(path, heading):
        if os.path.exists(path):
            with open(path) as f:
                doc = json.load(f)
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
        for svg in ("loss_history.svg", "overlay.svg", "thrust.svg",
                    "tip_deflection.svg", "twi.svg"):
            add_svg(os.path.join(d, svg), f"{sub}: {svg[:-4]}")
    if not sections:
        print(f"error: no reportable artifacts under {run}",
              file=sys.stderr)
        return 1
    html = ("<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
            "<title>Run report</title></head><body>\n<h1>Run report</h1>\n"
            + "\n".join(sections) + "\n</body></html>\n")
    with open(out_path, "w") as f:
        f.write(html)
    return 0


def _flatten(doc, prefix=""):
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tentaclelab",
        description="Synthetic tentacle proprioception pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="RunConfig JSON path")
        sp.add_argument("--seed", type=int, help="override config seeds")
        sp.add_argument("--out", required=True, help="output directory")
        sp.set_defaults(fn=fn)
        return sp

    sp = command("dataset", cmd_dataset, "generate labeled train/test CSVs")
    sp.add_argument("--duration", type=float, help="train duration (s)")
    sp.add_argument("--duration-test", type=float, help="test duration (s)")

    sp = command("train", cmd_train, "train the regressor")
    sp.add_argument("--data", required=True, help="dataset directory")

    sp = command("eval", cmd_eval, "evaluate weights on the test split")
    sp.add_argument("--data", required=True, help="dataset directory")
    sp.add_argument("--weights", required=True, help="weights JSON path")

    sp = command("metrics", cmd_metrics, "sweep (f, A) performance metrics")
    sp.add_argument("--weights", help="compute from reconstructed states")

    sp = command("optimize", cmd_optimize, "Bayesian-optimize actuation")
    sp.add_argument("--budget", type=int, help="evaluation budget")
    sp.add_argument("--weights", help="objective from reconstructed states")

    sp = command("render", cmd_render, "render state CSV rows to PGM frames")
    sp.add_argument("--states", required=True, help="state or trace CSV")

    sp = command("midline", cmd_midline, "extract midlines from PGM images")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        if args.command == "report":
            return cmd_report(args)
        cfg = _load_config(args)
        for kind, path in _input_files(args):
            if not os.path.isfile(path):
                raise FileNotFoundError(f"{kind} file not found: {path}")
        os.makedirs(args.out, exist_ok=True)
        outputs = args.fn(cfg, args)
        _write_json(os.path.join(args.out, "manifest.json"), {
            "command": args.command, "schema": CONFIG_SCHEMA,
            "config_hash": config_hash(cfg), "config": cfg.to_dict(),
            "outputs": sorted(outputs)})
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
