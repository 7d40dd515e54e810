import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tentaclelab import cli
from tentaclelab.bayesopt import EvalRecord
from tentaclelab.cli import main
from tentaclelab.config import CONFIG_SCHEMA, default_config
from tentaclelab.vision import write_pgm

FAST_CONFIG = {
    "schema": CONFIG_SCHEMA,
    "train": {"epochs": 2, "hidden": 4, "sequence_chunk": 100},
    "dataset": {"train_duration_s": 6.0, "test_duration_s": 4.0},
    "sweep": {"amplitudes_deg": [20.0], "freq_ratios": [0.5, 1.0],
              "cycles": 6, "transient_cycles": 2, "n_stations": 8,
              "subsample": 8},
    "bo": {"budget": 4},
}


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "config.json"
    p.write_text(json.dumps(FAST_CONFIG))
    return str(p)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, fast_config):
    out = str(tmp_path_factory.mktemp("data"))
    assert main(["dataset", "--config", fast_config, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, fast_config, dataset_dir):
    out = str(tmp_path_factory.mktemp("model"))
    assert main(["train", "--config", fast_config, "--data", dataset_dir,
                 "--out", out]) == 0
    return out


class TestDataset:
    def test_outputs_and_manifest(self, dataset_dir):
        for name in ("train.csv", "test.csv", "manifest.json"):
            assert os.path.exists(os.path.join(dataset_dir, name))
        with open(os.path.join(dataset_dir, "manifest.json")) as f:
            man = json.load(f)
        assert man["command"] == "dataset"
        assert len(man["config_hash"]) == 64
        assert man["outputs"] == ["test.csv", "train.csv"]

    def test_row_counts(self, dataset_dir):
        train = np.genfromtxt(os.path.join(dataset_dir, "train.csv"),
                              delimiter=",", skip_header=1)
        assert len(train) == int(6.0 / 0.005)
        assert train.shape[1] == 10

    def test_byte_identical_rerun(self, tmp_path, fast_config):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["dataset", "--config", fast_config,
                         "--out", out]) == 0
        pa = open(os.path.join(a, "train.csv"), "rb").read()
        pb = open(os.path.join(b, "train.csv"), "rb").read()
        assert pa == pb

    def test_seed_changes_data(self, tmp_path, fast_config):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["dataset", "--config", fast_config, "--out", a]) == 0
        assert main(["dataset", "--config", fast_config, "--seed", "9",
                     "--out", b]) == 0
        pa = open(os.path.join(a, "train.csv"), "rb").read()
        pb = open(os.path.join(b, "train.csv"), "rb").read()
        assert pa != pb

    def test_zero_duration_rejected(self, tmp_path, fast_config):
        assert main(["dataset", "--config", fast_config, "--duration", "0",
                     "--out", str(tmp_path / "x")]) == 1

    # 0.006 s and 0.001 s are under 2 steps of the 5 ms dataset dt.
    @pytest.mark.parametrize("flag", ["--duration", "--duration-test"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "0.006", "0.001"])
    def test_bad_duration_exits_1_before_output(self, tmp_path, capsys,
                                                fast_config, flag, value):
        out = tmp_path / "x"
        assert main(["dataset", "--config", fast_config, flag, value,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: dataset: ")
        assert not out.exists()

    def test_durations_go_into_the_config(self, tmp_path, fast_config):
        out = str(tmp_path / "data")
        assert main(["dataset", "--config", fast_config, "--duration", "0.5",
                     "--duration-test", "0.25", "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            man = json.load(f)
        assert man["config"]["dataset"]["train_duration_s"] == 0.5
        assert man["config"]["dataset"]["test_duration_s"] == 0.25
        assert "durations_s" not in man
        rows = open(os.path.join(out, "test.csv")).read().strip()
        assert len(rows.split("\n")) == 1 + 50


class TestTrain:
    def test_outputs(self, trained_dir):
        for name in ("weights.json", "loss_history.csv", "loss_history.svg",
                     "manifest.json"):
            assert os.path.exists(os.path.join(trained_dir, name))
        hist = np.genfromtxt(os.path.join(trained_dir, "loss_history.csv"),
                             delimiter=",", skip_header=1)
        assert len(hist) == 2
        assert np.all(np.isfinite(hist[:, 1]))

    def test_missing_data_dir(self, tmp_path, fast_config):
        assert main(["train", "--config", fast_config,
                     "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 1


class TestEval:
    def test_report_and_overlay(self, tmp_path, fast_config, dataset_dir,
                                trained_dir):
        out = str(tmp_path / "eval")
        assert main(["eval", "--config", fast_config, "--data", dataset_dir,
                     "--weights", os.path.join(trained_dir, "weights.json"),
                     "--out", out]) == 0
        with open(os.path.join(out, "report.json")) as f:
            rep = json.load(f)
        assert rep["target"] == "affine"
        keys = set(rep["report"])
        assert {"nrmse_seg1_pct", "nrmse_seg2_pct", "rel_tip_err_pct"} <= keys
        svg = open(os.path.join(out, "overlay.svg")).read()
        assert svg.count("<polyline") == 12

    def test_poly_target(self, tmp_path, dataset_dir):
        cfg = tmp_path / "poly.json"
        cfg.write_text(json.dumps({**FAST_CONFIG, "target": "poly"}))
        model, out = str(tmp_path / "model"), str(tmp_path / "eval")
        assert main(["train", "--config", str(cfg), "--data", dataset_dir,
                     "--out", model]) == 0
        assert main(["eval", "--config", str(cfg), "--data", dataset_dir,
                     "--weights", os.path.join(model, "weights.json"),
                     "--out", out]) == 0
        with open(os.path.join(out, "report.json")) as f:
            rep = json.load(f)
        assert rep["target"] == "poly"
        assert len(rep["report"]) == 5
        assert all(np.isfinite(v) for v in rep["report"].values())
        svg = open(os.path.join(out, "overlay.svg")).read()
        assert svg.count("<polyline") == 12

    def test_missing_weights(self, tmp_path, fast_config, dataset_dir):
        assert main(["eval", "--config", fast_config, "--data", dataset_dir,
                     "--weights", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "out")]) == 1


class TestMetrics:
    def test_sweep_outputs(self, tmp_path, fast_config):
        out = str(tmp_path / "metrics")
        assert main(["metrics", "--config", fast_config, "--out", out]) == 0
        rows = np.genfromtxt(os.path.join(out, "metrics.csv"),
                             delimiter=",", skip_header=1)
        rows = np.atleast_2d(rows)
        assert rows.shape == (2, 6)
        # TWI and deflection are physical: bounded and non-negative.
        assert np.all(rows[:, 5] >= 0.0) and np.all(rows[:, 5] <= 1.0)
        assert np.all(rows[:, 4] >= 0.0)
        header = open(os.path.join(out, "metrics.csv")).readline().strip()
        assert header == "f_hz,A_deg,freq_ratio,thrust_mN,tip_defl_deg,twi"
        for name in ("modes.csv", "thrust.svg", "tip_deflection.svg",
                     "twi.svg"):
            assert os.path.exists(os.path.join(out, name))


class TestOptimize:
    def test_budget_goes_into_the_config(self, tmp_path, fast_config):
        out = str(tmp_path / "opt")
        assert main(["optimize", "--config", fast_config, "--budget", "3",
                     "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            man = json.load(f)
        assert man["config"]["bo"]["budget"] == 3
        assert "budget" not in man
        lines = open(os.path.join(out, "history.csv")).read().strip()
        assert len(lines.split("\n")) == 4

    def test_budget_below_3_exits_1_before_output(self, tmp_path, capsys,
                                                  fast_config):
        out = tmp_path / "opt"
        assert main(["optimize", "--config", fast_config, "--budget", "2",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bo: budget")
        assert not out.exists()

    def test_best_and_history(self, tmp_path, fast_config):
        out = str(tmp_path / "opt")
        assert main(["optimize", "--config", fast_config, "--budget", "4",
                     "--out", out]) == 0
        with open(os.path.join(out, "best.json")) as f:
            best = json.load(f)
        assert 0.32 <= best["f_hz"] <= 3.2
        assert 0.0 <= best["twi"] <= 1.0
        lines = open(os.path.join(out, "history.csv")).read().strip()
        assert len(lines.split("\n")) == 5

    def test_every_evaluation_failing_exits_2(self, tmp_path, capsys):
        # Drive gains this high push every cell past the 10 rad limit.
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA, "sim": {
            "drive_gain1": 60.0, "drive_gain2": 60.0}}))
        out = str(tmp_path / "opt")
        assert main(["optimize", "--config", str(p), "--budget", "4",
                     "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: all 4 objective evaluations failed; last error: "
            "SimulationError: modal state exceeded 10 rad")
        assert not os.path.exists(os.path.join(out, "best.json"))


class TestHistoryCsv:
    def test_format(self, tmp_path, monkeypatch, fast_config):
        def fake_cell(cfg, f, A, weights=None):
            return cli.CellResult(f + A, 2.0 * f, 3.0 * f, None)

        monkeypatch.setattr(cli, "evaluate_cell", fake_cell)
        out = tmp_path / "opt"
        assert main(["optimize", "--config", fast_config, "--budget", "4",
                     "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "iter,f,A,twi,tip_defl_deg,thrust_mN"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [0, 1, 2, 3]
        for _, f, A, twi, tip, thrust in rows:
            assert twi == pytest.approx(f + A)
            assert tip == pytest.approx(2.0 * f)
            assert thrust == pytest.approx(3.0 * f)
        best = json.loads((out / "best.json").read_text())
        top = max(rows, key=lambda row: row[3])
        assert [best[k] for k in ("f_hz", "A_deg", "twi", "tip_defl_deg",
                                  "thrust_mN")] == pytest.approx(top[1:])


class TestOneCellEvaluation:
    """`metrics` and `optimize` score an (f, A) cell the same way."""

    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["true_states", "reconstructed"])
    def test_metrics_row_matches_optimize_objective(
            self, tmp_path, monkeypatch, fast_config, trained_dir, weighted):
        extra = (["--weights", os.path.join(trained_dir, "weights.json")]
                 if weighted else [])
        out = str(tmp_path / "metrics")
        assert main(["metrics", "--config", fast_config, "--out", out]
                    + extra) == 0
        with open(os.path.join(out, "metrics.csv")) as f:
            rows = [line.strip().split(",") for line in f.readlines()[1:]]

        f0 = default_config().build_sim_params().f0_hz
        sw = FAST_CONFIG["sweep"]

        def fake_optimize(objective, space, budget, seed, rho):
            hist = [EvalRecord(r * f0, A, objective(r * f0, A))
                    for A in sw["amplitudes_deg"]
                    for r in sw["freq_ratios"]]
            return hist[0], hist

        monkeypatch.setattr(cli, "optimize", fake_optimize)
        opt = str(tmp_path / "opt")
        assert main(["optimize", "--config", fast_config, "--budget", "4",
                     "--out", opt] + extra) == 0
        with open(os.path.join(opt, "history.csv")) as f:
            hist = [line.strip().split(",") for line in f.readlines()[1:]]
        # metrics: f_hz,A_deg,freq_ratio,thrust_mN,tip_defl_deg,twi
        # history: iter,f,A,twi,tip_defl_deg,thrust_mN
        assert len(hist) == len(rows)
        for h, row in zip(hist, rows):
            assert h[1:3] + h[3:][::-1] == row[:2] + row[3:]


class TestEvaluateCell:
    def test_named_fields_unpack_in_order(self):
        cfg = default_config()
        cell = cli.evaluate_cell(cfg, 1.6, 20.0)
        twi_val, defl, thrust, modes = cell
        assert (cell.twi, cell.tip_defl_deg, cell.thrust_mN,
                cell.modes) == (twi_val, defl, thrust, modes)
        assert 0.0 <= twi_val <= 1.0 and defl > 0.0 and thrust > 0.0
        assert modes is not None

    def test_zero_amplitude_scores_zero(self):
        assert cli.evaluate_cell(default_config(), 1.6, 0.0) == \
            cli.CellResult(0.0, 0.0, 0.0, None)


DATASET_ERRORS = {
    "dt_too_coarse": {"dt": 0.01},
    "rpm_below_12": {"rpm_ramp": [5, 80]},
    "one_rpm_endpoint": {"rpm_ramp": [20]},
    "fractional_seed": {"train_seed": 1.5},
    "misspelt_key": {"train_durations_s": 6.0},
}


class TestDatasetConfigErrors:
    @pytest.mark.parametrize("dataset", DATASET_ERRORS.values(),
                             ids=DATASET_ERRORS.keys())
    def test_dataset_exits_1_naming_dataset(self, tmp_path, capsys, dataset):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA,
                                 "dataset": dataset}))
        out = tmp_path / "out"
        assert main(["dataset", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: dataset: ")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["bo", "train", "sensor"])
    def test_fractional_seed_exits_1_naming_section(self, tmp_path, capsys,
                                                    section):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA,
                                 section: {"seed": 1.5}}))
        out = tmp_path / "out"
        assert main(["dataset", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: seed")
        assert not out.exists()

    def test_unknown_sensor_key_exits_1(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA,
                                 "sensor": {"bogus": 1}}))
        out = tmp_path / "out"
        assert main(["dataset", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: sensor: ")
        assert not out.exists()


SWEEP_ERRORS = {
    "subsample_zero": {"subsample": 0},
    "no_amplitudes": {"amplitudes_deg": []},
    "transient_equals_cycles": {"transient_cycles": 12},
    "two_stations": {"n_stations": 2},
    "zero_freq_ratio": {"freq_ratios": [0.5, 0.0]},
    "unknown_key": {"cyclez": 3},
}


class TestSweepConfigErrors:
    @pytest.mark.parametrize("sweep", SWEEP_ERRORS.values(),
                             ids=SWEEP_ERRORS.keys())
    def test_metrics_exits_1_naming_sweep(self, tmp_path, capsys, sweep):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA, "sweep": sweep}))
        out = tmp_path / "out"
        assert main(["metrics", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: sweep: ")
        assert not out.exists()


BO_ERRORS = {
    "empty_A_set": {"A_set": []},
    "unknown_key": {"budgte": 4},
    "budget_below_3": {"budget": 2},
    "fractional_budget": {"budget": 4.5},
    "reversed_f_range": {"f_range": [3.2, 0.32]},
}


class TestBOConfigErrors:
    @pytest.mark.parametrize("command", ["metrics", "optimize"])
    @pytest.mark.parametrize("bo", BO_ERRORS.values(), ids=BO_ERRORS.keys())
    def test_exits_1_naming_bo(self, tmp_path, capsys, command, bo):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA, "bo": bo}))
        out = tmp_path / "out"
        assert main([command, "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: bo: ")
        assert not out.exists()


# Component sections: each bad value exits 1 at load, naming its section.
COMPONENT_ERRORS = {
    "sim_dt_zero": ("sim", {"dt": 0}),
    "sim_dt_negative": ("sim", {"dt": -1}),
    "sim_f0_nan": ("sim", {"f0_hz": float("nan")}),
    "sim_unknown_key": ("sim", {"f0": 3.2}),
    "geometry_fractional_samples": ("geometry", {"n_samples": 2.5}),
    "geometry_bool_samples": ("geometry", {"n_samples": True}),
    "geometry_one_sample": ("geometry", {"n_samples": 1}),
    "geometry_infinite_length": ("geometry", {"length_mm": float("inf")}),
    "geometry_nan_diameter": ("geometry",
                              {"root_diameter_mm": float("nan")}),
    "geometry_unknown_key": ("geometry", {"length": 220.0}),
    "train_unknown_key": ("train", {"epoch": 3}),
    "train_not_an_object": ("train", [1]),
    "train_fractional_epochs": ("train", {"epochs": 2.5}),
    "train_bool_hidden": ("train", {"hidden": True}),
    "train_string_lr0": ("train", {"lr0": "0.1"}),
    "sensor_not_an_object": ("sensor", None),
    "dataset_not_an_object": ("dataset", "dt"),
    "sweep_not_an_object": ("sweep", 5),
    "bo_not_an_object": ("bo", [1]),
    "bo_rho_above_one": ("bo", {"rho": 5}),
    "bo_string_rho": ("bo", {"rho": "x"}),
    "bo_amplitude_above_90": ("bo", {"A_set": [10, 120], "budget": 8}),
    "bo_nan_amplitude": ("bo", {"A_set": [10, float("nan")]}),
    "bo_repeated_amplitude": ("bo", {"A_set": [10, 20, 10]}),
    "bo_f_range_past_field_samples": ("bo", {"f_range": [0.32, 80],
                                             "budget": 12}),
    "sensor_string_baseline": ("sensor", {"baseline_kpa": "x"}),
    "sensor_nan_sat_kappa": ("sensor", {"sat_kappa": float("nan")}),
    # SensorModel takes any (n, 2) gain; a trace holds three pressures.
    "sensor_four_channel_gain": ("sensor", {"gain": [[9.0, 2.5], [-5.0, 6.0],
                                                     [2.0, -7.5], [4.0, 8.0]]}),
}


class TestComponentConfigErrors:
    @pytest.mark.parametrize("section,values", COMPONENT_ERRORS.values(),
                             ids=COMPONENT_ERRORS.keys())
    def test_optimize_exits_1_naming_section(self, tmp_path, capsys,
                                             section, values):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA, section: values}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: ")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["geometry", "sim", "train"])
    def test_unknown_key_is_listed(self, tmp_path, capsys, section):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA,
                                 section: {"bogus": 1}}))
        assert main(["dataset", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {section}: unknown keys ['bogus']\n")

    def test_config_not_an_object_exits_1(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["dataset", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: config: must be a JSON object\n")
        assert not out.exists()


class TestMissingWeights:
    @pytest.mark.parametrize("command", ["eval", "metrics", "optimize"])
    def test_exits_1_before_output(self, tmp_path, capsys, fast_config,
                                   command):
        weights, out = tmp_path / "none.json", tmp_path / "out"
        data = ["--data", str(tmp_path)] if command == "eval" else []
        assert main([command, "--config", fast_config, "--weights",
                     str(weights), "--out", str(out)] + data) == 1
        assert capsys.readouterr().err == (
            f"error: weights file not found: {weights}\n")
        assert not out.exists()


class TestMissingInputs:
    @pytest.mark.parametrize("command,kind", [
        ("train", "data"), ("eval", "data"), ("render", "states"),
        ("midline", "image")])
    def test_exits_1_before_output(self, tmp_path, capsys, fast_config,
                                   command, kind):
        out, missing = tmp_path / "out", tmp_path / "nowhere"
        weights = tmp_path / "w.json"
        weights.write_text("{}")
        if command == "train":
            args, path = ["--data", str(missing)], missing / "train.csv"
        elif command == "eval":
            args = ["--data", str(missing), "--weights", str(weights)]
            path = missing / "test.csv"
        elif command == "render":
            args, path = ["--states", str(missing)], missing
        else:
            path = missing / "nope.pgm"
            args = ["--images", str(weights), str(path)]
        assert main([command, "--config", fast_config, "--out", str(out)]
                    + args) == 1
        assert capsys.readouterr().err == (
            f"error: {kind} file not found: {path}\n")
        assert not out.exists()


class TestRenderMidline:
    def test_render_then_extract(self, tmp_path, fast_config):
        states = tmp_path / "states.csv"
        states.write_text("q1,q2\n0.5,-0.2\n-0.3,0.1\n")
        rend = str(tmp_path / "frames")
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", rend]) == 0
        frames = sorted(os.path.join(rend, f) for f in os.listdir(rend)
                        if f.endswith(".pgm"))
        assert len(frames) == 2
        mid = str(tmp_path / "midlines")
        assert main(["midline", "--config", fast_config, "--images",
                     *frames, "--out", mid]) == 0
        csvs = [f for f in os.listdir(mid) if f.endswith("_midline.csv")]
        assert len(csvs) == 2
        data = np.genfromtxt(os.path.join(mid, sorted(csvs)[0]),
                             delimiter=",", skip_header=1)
        assert data.shape[1] == 3
        # Frame 0 held q1=0.5: the midline leans to negative x.
        assert data[-1, 1] < -20.0

    def test_columns_taken_by_header_name(self, tmp_path, fast_config):
        frames = {}
        for name, text in (("plain", "q1,q2\n0.5,-0.2\n"),
                           ("reordered", "t,q2,x,q1\n9,-0.2,7,0.5\n")):
            states = tmp_path / f"{name}.csv"
            states.write_text(text)
            out = tmp_path / name
            assert main(["render", "--config", fast_config, "--states",
                         str(states), "--out", str(out)]) == 0
            frames[name] = (out / "frame_0000.pgm").read_bytes()
        assert frames["plain"] == frames["reordered"]

    @pytest.mark.parametrize("text", [
        "q1,q2\n", ",".join("abcdefghij") + "\n" + ",".join("0" * 10) + "\n"],
        ids=["header_only", "no_q_columns"])
    def test_bad_states_exit_2_before_frames(self, tmp_path, capsys,
                                              fast_config, text):
        states, out = tmp_path / "states.csv", tmp_path / "frames"
        states.write_text(text)
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {states}: a state CSV needs a header naming q1 and q2 "
            "and at least one row\n")
        assert os.listdir(out) == []

    def test_same_output_name_exits_2_before_writing(self, tmp_path, capsys,
                                                      fast_config):
        states = tmp_path / "states.csv"
        states.write_text("q1,q2\n0.5,-0.2\n")
        images = []
        for d in ("a", "b"):
            assert main(["render", "--config", fast_config, "--states",
                         str(states), "--out", str(tmp_path / d)]) == 0
            images.append(str(tmp_path / d / "frame_0000.pgm"))
        out = tmp_path / "mid"
        assert main(["midline", "--config", fast_config, "--images",
                     *images, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {images[0]} and {images[1]} would both write "
            "frame_0000_midline.csv\n")
        assert os.listdir(out) == []

    def test_state_out_of_frame_leaves_no_frame(self, tmp_path, capsys,
                                                fast_config):
        states, out = tmp_path / "states.csv", tmp_path / "frames"
        states.write_text("q1,q2\n0.5,-0.2\n3.0,3.0\n-0.3,0.1\n")
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {states} row 2 (q1=3, q2=3): configuration leaves the "
            "frame")
        assert os.listdir(out) == []

    def test_blank_image_leaves_no_midline(self, tmp_path, capsys,
                                           fast_config):
        states = tmp_path / "states.csv"
        states.write_text("q1,q2\n0.5,-0.2\n")
        frames = tmp_path / "frames"
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(frames)]) == 0
        # Sorted after the good frame, so that one is extracted first.
        blank = tmp_path / "z_blank.pgm"
        write_pgm(np.full((560, 960), 230, dtype=np.uint8), blank)
        out = tmp_path / "mid"
        assert main(["midline", "--config", fast_config, "--images",
                     str(frames / "frame_0000.pgm"), str(blank),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {blank}: ")
        assert os.listdir(out) == []

    def test_malformed_pgm_exits_2_naming_file(self, tmp_path, capsys,
                                               fast_config):
        img = tmp_path / "hdr.pgm"
        img.write_bytes(b"P5\n")
        assert main(["midline", "--config", fast_config, "--images",
                     str(img), "--out", str(tmp_path / "mid")]) == 2
        assert capsys.readouterr().err == (
            f"error: not a PGM file or malformed PGM header: {img}\n")


class TestReport:
    def test_collates_run(self, tmp_path, fast_config, dataset_dir,
                          trained_dir):
        run = tmp_path / "run"
        run.mkdir()
        out = str(run / "eval")
        assert main(["eval", "--config", fast_config, "--data", dataset_dir,
                     "--weights", os.path.join(trained_dir, "weights.json"),
                     "--out", out]) == 0
        assert main(["report", "--run", str(run)]) == 0
        html = (run / "report.html").read_text()
        assert "<h1>Run report</h1>" in html
        assert "reconstruction error" in html

    def test_empty_run_fails(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--run", str(empty)]) == 1


class TestUsage:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_arg(self):
        assert main(["train", "--out", "x"]) == 1

    def test_import_leaves_scipy_stats_out(self):
        # Every command pays for what importing the CLI loads.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = ("import sys, tentaclelab.cli; "
                "sys.exit('scipy.stats' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0
