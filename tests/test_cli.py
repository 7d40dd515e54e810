import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from tentaclelab import cli
from tentaclelab.bayesopt import EvalRecord
from tentaclelab.cli import main
from tentaclelab.config import CONFIG_SCHEMA, RunConfig, default_config
from tentaclelab.csvio import read_csv, write_csv
from tentaclelab.kinematics import TentacleGeometry, tip_positions
from tentaclelab.regressor import init_weights, save_weights
from tentaclelab.sim import SimTrace, thrust_series, world_tip_positions
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


@pytest.fixture(scope="module")
def poly_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg_poly") / "poly.json"
    p.write_text(json.dumps({**FAST_CONFIG, "target": "poly"}))
    return str(p)


@pytest.fixture(scope="module")
def poly_trained_dir(tmp_path_factory, poly_config, dataset_dir):
    out = str(tmp_path_factory.mktemp("model_poly"))
    assert main(["train", "--config", poly_config, "--data", dataset_dir,
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
        assert train.shape[1] == 7

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

    def test_plots_in_increasing_frequency(self, tmp_path):
        """Ratios out of order plot as the same ratios in order, while
        metrics.csv keeps the config's order."""
        outs = []
        for ratios in ([0.5, 0.2, 0.8], [0.2, 0.5, 0.8]):
            p = tmp_path / "config.json"
            p.write_text(json.dumps({**FAST_CONFIG, "sweep": {
                **FAST_CONFIG["sweep"], "freq_ratios": ratios}}))
            outs.append(tmp_path / "_".join(map(str, ratios)))
            assert main(["metrics", "--config", str(p), "--out",
                         str(outs[-1])]) == 0
        shuffled, ordered = outs
        for name in ("thrust.svg", "tip_deflection.svg", "twi.svg"):
            assert ((shuffled / name).read_bytes()
                    == (ordered / name).read_bytes())
        rows = [(d / "metrics.csv").read_text().split("\n")
                for d in (shuffled, ordered)]
        assert rows[0][1:4] == [rows[1][i] for i in (2, 1, 3)]


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
            return cli.CellResult(thrust_mN=3.0 * f, tip_defl_deg=2.0 * f,
                                  twi=f + A, modes=None)

        monkeypatch.setattr(cli, "evaluate_cell", fake_cell)
        out = tmp_path / "opt"
        assert main(["optimize", "--config", fast_config, "--budget", "4",
                     "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().strip().split("\n")
        columns = ("f_hz", "A_deg") + tuple(c for c, _, _ in cli.CELL_SCORES)
        assert lines[0] == ",".join(("iter",) + columns)
        assert lines[0] == "iter,f_hz,A_deg,thrust_mN,tip_defl_deg,twi"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [0, 1, 2, 3]
        for _, f, A, thrust, tip, twi in rows:
            assert twi == pytest.approx(f + A)
            assert tip == pytest.approx(2.0 * f)
            assert thrust == pytest.approx(3.0 * f)
        best = json.loads((out / "best.json").read_text())
        top = max(rows, key=lambda row: row[5])
        assert sorted(best) == sorted(columns)
        assert [best[k] for k in columns] == pytest.approx(top[1:])


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

        def fake_optimize(objective, space, budget, seed):
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
        # history: iter,f_hz,A_deg,thrust_mN,tip_defl_deg,twi
        assert len(hist) == len(rows)
        for h, row in zip(hist, rows):
            assert h[1:] == row[:2] + row[3:]


class TestEvaluateCell:
    def test_named_fields_unpack_in_order(self):
        cfg = default_config()
        cell = cli.evaluate_cell(cfg, 1.6, 20.0)
        thrust, defl, twi_val, modes = cell
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
    "equal_split_seeds": {"train_seed": 2, "test_seed": 2},
    "uncountable_duration": {"train_duration_s": 1e308},
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
    "repeated_amplitude": {"amplitudes_deg": [20.0, 20.0]},
    "repeated_freq_ratio": {"freq_ratios": [0.5, 1.0, 0.5]},
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
    "budget_above_grid": {"budget": 193},
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
    # Every program steps at dataset.dt; sim has no step of its own.
    "sim_dt": ("sim", {"dt": 0.0025}),
    "sim_f0_nan": ("sim", {"f0_hz": float("nan")}),
    "sim_int_beyond_float": ("sim", {"zeta": 10 ** 400}),
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
    # The acquisition takes no weight: a stale rho key of any value is refused.
    "bo_rho_above_one": ("bo", {"rho": 5}),
    "bo_string_rho": ("bo", {"rho": "x"}),
    "bo_amplitude_above_90": ("bo", {"A_set": [10, 120], "budget": 8}),
    "bo_nan_amplitude": ("bo", {"A_set": [10, float("nan")]}),
    "bo_repeated_amplitude": ("bo", {"A_set": [10, 20, 10]}),
    "bo_f_range_past_field_samples": ("bo", {"f_range": [0.32, 80],
                                             "budget": 12}),
    "sensor_string_baseline": ("sensor", {"baseline_kpa": "x"}),
    "sensor_nan_sat_kappa": ("sensor", {"sat_kappa": float("nan")}),
    "sensor_rank_1_gain": ("sensor", {"gain": [[1.0, 2.0], [2.0, 4.0]],
                                      "rate_gain": [[0.0, 0.0], [0.0, 0.0]]}),
    # Two gain rows against the default three rate-gain rows.
    "sensor_rate_gain_of_another_shape": ("sensor", {"gain": [[9.0, 2.5],
                                                              [-5.0, 6.0]]}),
    "sensor_nan_rate_gain": ("sensor", {"rate_gain": [
        [float("nan"), 0.03], [-0.06, 0.08], [0.02, -0.10]]}),
    "sensor_inf_rate_gain": ("sensor", {"rate_gain": [
        [0.12, 0.03], [-0.06, float("inf")], [0.02, -0.10]]}),
    "sensor_nan_gain": ("sensor", {"gain": [
        [9.0, 2.5], [float("nan"), 6.0], [2.0, -7.5]]}),
    "sensor_ragged_gain": ("sensor", {"gain": [[9.0, 2.5], [-5.0],
                                               [2.0, -7.5]]}),
    "sensor_string_gain": ("sensor", {"gain": [["9.0", "2.5"], ["-5.0", "6.0"],
                                               ["2.0", "-7.5"]]}),
    "geometry_bool_length": ("geometry", {"length_mm": True}),
    "geometry_bool_diameter": ("geometry", {"root_diameter_mm": True}),
    "bo_bool_f_range": ("bo", {"f_range": [True, 3.2]}),
    "bo_three_f_range": ("bo", {"f_range": [0.32, 1.0, 3.2]}),
    "bo_string_f_range": ("bo", {"f_range": ["0.3", 3.2]}),
}

# The cases that set one key: the message names it.
ONE_KEY_ERRORS = {k: v for k, v in COMPONENT_ERRORS.items()
                  if isinstance(v[1], dict) and len(v[1]) == 1}


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

    @pytest.mark.parametrize("section,values", ONE_KEY_ERRORS.values(),
                             ids=ONE_KEY_ERRORS.keys())
    def test_one_bad_key_is_named(self, tmp_path, capsys, section, values):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA, section: values}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: ")
        assert re.search(rf"\b{next(iter(values))}\b", err), err

    @pytest.mark.parametrize("section", ["geometry", "sim", "train"])
    def test_unknown_key_is_listed(self, tmp_path, capsys, section):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA,
                                 section: {"bogus": 1}}))
        assert main(["dataset", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {section}: unknown keys ['bogus']\n")

    def test_bo_rho_exits_1_naming_the_key(self, tmp_path, capsys):
        # The acquisition takes no weight; a file that still sets one
        # is refused, not silently run.
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"schema": CONFIG_SCHEMA,
                                 "bo": {"rho": 0.8}}))
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bo: unknown keys ['rho']\n")
        assert not out.exists()

    def test_config_not_an_object_exits_1(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["dataset", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: config: must be a JSON object\n")
        assert not out.exists()

    # A flag leaves a document or section that is not an object as it is.
    @pytest.mark.parametrize("name,text,argv", [
        ("config", "[1, 2]", ["dataset", "--seed", "4"]),
        ("sensor", '{"schema": 1, "sensor": null}', ["dataset", "--seed", "4"]),
        ("dataset", '{"schema": 1, "dataset": "dt"}',
         ["dataset", "--duration", "1"]),
        ("bo", '{"schema": 1, "bo": [1]}', ["optimize", "--budget", "3"]),
    ], ids=["config", "sensor", "dataset", "bo"])
    def test_not_an_object_under_a_flag_exits_1(self, tmp_path, capsys, name,
                                                text, argv):
        p = tmp_path / "config.json"
        p.write_text(text)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {name}: must be a JSON object\n")
        assert not out.exists()


# A flag stands in for the file's value, even one the file gets wrong:
# (command and flag, file sections, section the flag sets, its values).
FLAG_OVER_FILE = {
    "budget_above_grid": (["optimize", "--budget", "3"],
                          {"bo": {"A_set": [10], "budget": 65}},
                          "bo", {"budget": 3}),
    "equal_split_seeds": (["dataset", "--seed", "4"],
                          {"dataset": {"train_seed": 2, "test_seed": 2,
                                       "train_duration_s": 0.5,
                                       "test_duration_s": 0.25}},
                          "dataset", {"train_seed": 4, "test_seed": 5}),
}


class TestFlagOverFile:
    @pytest.mark.parametrize("argv,sections,section,values",
                             FLAG_OVER_FILE.values(),
                             ids=FLAG_OVER_FILE.keys())
    def test_flag_replaces_the_bad_value(self, tmp_path, capsys, argv,
                                         sections, section, values):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({**FAST_CONFIG, **sections}))
        out = tmp_path / "out"
        assert main(argv[:1] + ["--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: ")
        assert main(argv + ["--config", str(p), "--out", str(out)]) == 0
        with open(out / "manifest.json") as f:
            recorded = json.load(f)["config"][section]
        assert {k: recorded[k] for k in values} == values


class TestChannelCount:
    """A trace holds one pressure column per sensor channel."""

    # The default sensor's rows plus a fourth channel.
    GAIN = [[9.0, 2.5], [-5.0, 6.0], [2.0, -7.5], [4.0, 8.0]]
    RATE_GAIN = [[0.12, 0.03], [-0.06, 0.08], [0.02, -0.10], [0.05, 0.06]]

    def config(self, tmp_path, n):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({**FAST_CONFIG, "sensor": {
            "gain": self.GAIN[:n], "rate_gain": self.RATE_GAIN[:n]}}))
        return str(p)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_dataset_train_eval(self, tmp_path, n):
        cfg = self.config(tmp_path, n)
        data, model, ev = (str(tmp_path / d) for d in ("data", "model", "ev"))
        assert main(["dataset", "--config", cfg, "--out", data]) == 0
        p = "".join(f",p{i}" for i in range(1, n + 1))
        for split in ("train", "test"):
            with open(os.path.join(data, f"{split}.csv")) as f:
                assert f.readline() == f"t,theta_deg,q1,q2{p}\n"
        assert main(["train", "--config", cfg, "--data", data,
                     "--out", model]) == 0
        assert main(["eval", "--config", cfg, "--data", data, "--weights",
                     os.path.join(model, "weights.json"), "--out", ev]) == 0
        with open(os.path.join(ev, "report.json")) as f:
            rep = json.load(f)["report"]
        assert all(np.isfinite(v) for v in rep.values())

    @pytest.mark.parametrize("command", ["metrics", "optimize"])
    def test_weights_of_another_width_exit_1_before_output(
            self, tmp_path, capsys, trained_dir, command):
        weights = os.path.join(trained_dir, "weights.json")
        out = tmp_path / "out"
        assert main([command, "--config", self.config(tmp_path, 2),
                     "--weights", weights, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {weights} takes 3 pressure channels; the sensor section "
            "reads 2\n")
        assert not out.exists()

    def test_eval_weights_of_another_width_exit_1_naming_both(
            self, tmp_path, capsys, trained_dir):
        cfg, data = self.config(tmp_path, 2), tmp_path / "data"
        assert main(["dataset", "--config", cfg, "--duration", "0.5",
                     "--duration-test", "0.25", "--out", str(data)]) == 0
        weights = os.path.join(trained_dir, "weights.json")
        out = tmp_path / "ev"
        assert main(["eval", "--config", cfg, "--data", str(data),
                     "--weights", weights, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {weights} takes 3 pressure channels; "
            f"{data / 'test.csv'} holds 2\n")
        assert not out.exists()

    def test_split_noise_is_drawn_apart(self):
        cfg = RunConfig.from_dict(FAST_CONFIG)
        quiet = RunConfig.from_dict({**FAST_CONFIG,
                                     "sensor": {"noise_sigma_kpa": 0.0}})
        noise = {}
        for split in ("train", "test"):
            args = (cfg.dataset[f"{split}_duration_s"],
                    cfg.dataset[f"{split}_seed"])
            noise[split] = (cli.simulate_ramp(cfg, *args).pressures
                            - cli.simulate_ramp(quiet, *args).pressures)
        n = len(noise["test"])
        assert not np.allclose(noise["test"], noise["train"][:n], atol=1e-9)


class TestBadTrace:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_eval_exits_2_naming_the_cell_before_output(
            self, tmp_path, capsys, fast_config, dataset_dir, trained_dir,
            value):
        data, out = tmp_path / "data", tmp_path / "eval"
        shutil.copytree(dataset_dir, data)
        lines = (data / "test.csv").read_text().split("\n")
        row = lines[3].split(",")
        row[5] = value
        lines[3] = ",".join(row)
        (data / "test.csv").write_text("\n".join(lines))
        assert main(["eval", "--config", fast_config, "--data", str(data),
                     "--weights", os.path.join(trained_dir, "weights.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'test.csv'} row 3 column p2: {value} is not a "
            "finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_pressure_column_gap_exits_2_before_output(
            self, tmp_path, capsys, fast_config, dataset_dir, trained_dir,
            command):
        # A p1,p4,p3 header once loaded 3 channels with the 2nd and 3rd
        # swapped; now it names the missing p2.
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(dataset_dir, data)
        split = data / ("train.csv" if command == "train" else "test.csv")
        split.write_text(split.read_text().replace(",p2,", ",p4,", 1))
        extra = ([] if command == "train" else
                 ["--weights", os.path.join(trained_dir, "weights.json")])
        assert main([command, "--config", fast_config, "--data", str(data),
                     "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err == (
            f"error: {split}: no pressure column p2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_uneven_step_exits_2_before_output(
            self, tmp_path, capsys, fast_config, dataset_dir, trained_dir,
            command):
        # t jumps by 0.01 s at row 200; the split once loaded with
        # dt = 0.005 s taken from its first two rows.
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(dataset_dir, data)
        split = data / ("train.csv" if command == "train" else "test.csv")
        lines = split.read_text().split("\n")
        for i in range(200, len(lines) - 1):
            t, rest = lines[i].split(",", 1)
            lines[i] = f"{float(t) + 0.01:.10g},{rest}"
        split.write_text("\n".join(lines))
        extra = ([] if command == "train" else
                 ["--weights", os.path.join(trained_dir, "weights.json")])
        assert main([command, "--config", fast_config, "--data", str(data),
                     "--out", str(out)] + extra) == 2
        assert capsys.readouterr().err == (
            f"error: {split} row 200 column t: a step of 0.015 s after a "
            "first step of 0.005 s; t must step uniformly\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_split_at_another_step_exits_1_before_output(
            self, tmp_path, capsys, dataset_dir, trained_dir, command):
        # The split steps at 5 ms; a model trained or scored under a
        # 2.5 ms config would carry a manifest that misdescribes it.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**FAST_CONFIG, "dataset": {
            **FAST_CONFIG["dataset"], "dt": 0.0025}}))
        out = tmp_path / "out"
        split = os.path.join(dataset_dir, "train.csv" if command == "train"
                             else "test.csv")
        extra = ([] if command == "train" else
                 ["--weights", os.path.join(trained_dir, "weights.json")])
        assert main([command, "--config", str(cfg), "--data", dataset_dir,
                     "--out", str(out)] + extra) == 1
        assert capsys.readouterr().err == (
            f"error: {split} steps at 0.005 s; the config's dataset.dt is "
            "0.0025 s\n")
        assert not out.exists()


class TestParentFormatSplits:
    """Splits written with the world tip and thrust after the pressure
    columns, as `dataset` once wrote them, train and score as before."""

    @staticmethod
    def add_tip_columns(path):
        trace = SimTrace.from_csv(path)
        tip = world_tip_positions(tip_positions(trace.q, TentacleGeometry()),
                                  trace.base_angle_deg)
        p = "".join(f"p{i}," for i in range(1, trace.pressures.shape[1] + 1))
        write_csv(path, f"t,theta_deg,q1,q2,{p}tip_x,tip_y,thrust",
                  np.column_stack([trace.time, trace.base_angle_deg, trace.q,
                                   trace.pressures, tip,
                                   thrust_series(tip[:, 0], trace.dt)]))

    def test_train_and_eval_match_the_current_format(
            self, tmp_path, fast_config, dataset_dir, trained_dir):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        for split in ("train.csv", "test.csv"):
            self.add_tip_columns(data / split)
            with open(data / split) as f:
                assert f.readline().endswith(",p3,tip_x,tip_y,thrust\n")
        model = tmp_path / "model"
        assert main(["train", "--config", fast_config, "--data", str(data),
                     "--out", str(model)]) == 0
        for name in ("weights.json", "loss_history.csv"):
            with open(os.path.join(trained_dir, name), "rb") as f:
                assert (model / name).read_bytes() == f.read()
        weights = os.path.join(trained_dir, "weights.json")
        for d, out in ((dataset_dir, tmp_path / "ev"),
                       (str(data), tmp_path / "ev_parent")):
            assert main(["eval", "--config", fast_config, "--data", d,
                         "--weights", weights, "--out", str(out)]) == 0
        for name in ("report.json", "overlay.svg"):
            assert (tmp_path / "ev_parent" / name).read_bytes() == \
                (tmp_path / "ev" / name).read_bytes()


class TestPolyWeights:
    """A poly model's (c2, c3) reach every metric through its shape."""

    @pytest.mark.parametrize("command,table", [("metrics", "metrics.csv"),
                                               ("optimize", "history.csv")],
                             ids=["metrics", "optimize"])
    def test_under_poly_target_run_and_rerun_byte_identical(
            self, tmp_path, poly_config, poly_trained_dir, command, table):
        weights = os.path.join(poly_trained_dir, "weights.json")
        budget = ["--budget", "5"] if command == "optimize" else []
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main([command, "--config", poly_config, "--weights",
                         weights, "--out", str(out)] + budget) == 0
        cols = read_csv(a / table, ("thrust_mN", "tip_defl_deg", "twi"))
        assert len(cols["twi"]) == (2 if command == "metrics" else 5)
        assert np.all((cols["twi"] >= 0.0) & (cols["twi"] <= 1.0))
        assert np.all(cols["tip_defl_deg"] > 0.0)
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


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


# Each turns a trained weights document into a malformed one.
MALFORMED_WEIGHTS = {
    "not_an_object": (lambda doc: [doc], "must be a JSON object"),
    "missing_array": (lambda doc: {**doc, "params": {
        k: v for k, v in doc["params"].items() if k != "Ub"}},
        "missing parameter array Ub"),
    "wrong_shape": (lambda doc: {**doc, "params": {
        **doc["params"], "Uf": doc["params"]["Uf"][1:]}},
        "Uf has shape (15, 4); hidden 4, 3 inputs and 2 outputs need (16, 4)"),
}


class TestBadWeights:
    @pytest.mark.parametrize("command", ["eval", "metrics", "optimize"])
    @pytest.mark.parametrize("edit,message", MALFORMED_WEIGHTS.values(),
                             ids=MALFORMED_WEIGHTS.keys())
    def test_malformed_exits_2_naming_the_file_before_output(
            self, tmp_path, capsys, fast_config, dataset_dir, trained_dir,
            command, edit, message):
        with open(os.path.join(trained_dir, "weights.json")) as f:
            doc = json.load(f)
        weights, out = tmp_path / "weights.json", tmp_path / "out"
        weights.write_text(json.dumps(edit(doc)))
        data = ["--data", dataset_dir] if command == "eval" else []
        assert main([command, "--config", fast_config, "--weights",
                     str(weights), "--out", str(out)] + data) == 2
        assert capsys.readouterr().err == f"error: {weights}: {message}\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["eval", "metrics", "optimize"])
    @pytest.mark.parametrize("n_out", [1, 3])
    def test_output_width_other_than_2_exits_1_before_output(
            self, tmp_path, capsys, fast_config, dataset_dir, command, n_out):
        weights, out = tmp_path / "weights.json", tmp_path / "out"
        save_weights(init_weights(3, n_out, 4, 0), str(weights))
        data = ["--data", dataset_dir] if command == "eval" else []
        assert main([command, "--config", fast_config, "--weights",
                     str(weights), "--out", str(out)] + data) == 1
        assert capsys.readouterr().err == (
            f"error: {weights} predicts {n_out} outputs; {command} reads 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "metrics", "optimize"])
    def test_affine_weights_under_poly_target_exit_1_before_output(
            self, tmp_path, capsys, poly_config, dataset_dir, trained_dir,
            command):
        weights = os.path.join(trained_dir, "weights.json")
        out = tmp_path / "out"
        data = ["--data", dataset_dir] if command == "eval" else []
        assert main([command, "--config", poly_config, "--weights", weights,
                     "--out", str(out)] + data) == 1
        assert capsys.readouterr().err == (
            f"error: {weights} predicts affine states; the config's target "
            "is poly\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "metrics", "optimize"])
    def test_poly_weights_under_affine_target_exit_1_before_output(
            self, tmp_path, capsys, fast_config, dataset_dir, command):
        weights, out = tmp_path / "weights.json", tmp_path / "out"
        save_weights(replace(init_weights(3, 2, 4, 0), target="poly"),
                     str(weights))
        data = ["--data", dataset_dir] if command == "eval" else []
        assert main([command, "--config", fast_config, "--weights",
                     str(weights), "--out", str(out)] + data) == 1
        assert capsys.readouterr().err == (
            f"error: {weights} predicts poly states; the config's target "
            "is affine\n")
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


class TestOutHoldsAnInput:
    """A run into --out may remove the files the manifest there lists, so
    an --out that directly holds an input is refused before any output."""

    def _refused(self, capsys, argv, out, kind, path):
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: --out {out} holds the {kind} file {path}; write to "
            "another directory\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert _staged(out.parent) == []

    def test_train_into_its_data(self, tmp_path, capsys, fast_config,
                                 dataset_dir):
        d = tmp_path / "d"
        shutil.copytree(dataset_dir, d)
        self._refused(capsys, ["train", "--config", fast_config, "--data",
                               str(d), "--out", str(d)],
                      d, "data", d / "train.csv")

    def test_metrics_into_its_weights(self, tmp_path, capsys, fast_config,
                                      trained_dir):
        m = tmp_path / "m"
        shutil.copytree(trained_dir, m)
        w = m / "weights.json"
        self._refused(capsys, ["metrics", "--config", fast_config,
                               "--weights", str(w), "--out", str(m)],
                      m, "weights", w)

    def test_midline_into_its_frames(self, tmp_path, capsys, fast_config):
        states, fr = tmp_path / "states.csv", tmp_path / "fr"
        states.write_text("q1,q2\n0.5,-0.2\n-0.3,0.1\n")
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(fr)]) == 0
        frames = sorted(fr.glob("*.pgm"))
        self._refused(capsys, ["midline", "--config", fast_config,
                               "--images", *map(str, frames),
                               "--out", str(fr)],
                      fr, "image", frames[0])


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

    @pytest.mark.parametrize("text,why", [
        ("q1,q2\n", ": too few rows (0, at least 1 needed)"),
        (",".join("abcdefghij") + "\n" + ",".join("0" * 10) + "\n",
         ": no column q1, q2 in the header a,b,c,d,e,f,g,h,i,j"),
        ("q1,q2\n0.5,-0.2\nnan,0.1\n",
         " row 2 column q1: nan is not a finite number"),
        ("t,q1,q2\n0,0.5,-0.2\n1,0.3,-inf\n",
         " row 2 column q2: -inf is not a finite number"),
        ("q1,q2\n0.5,-0.2\n0.3,x", " row 2 column q2: 'x' is not a number"),
        ("q1,q2\n0.5,-0.2\n0.3", " row 2 column q2: no value"),
        ("q1,q2,q1\n0.5,-0.2,0.3\n",
         ": column q1 is named twice in the header q1,q2,q1")],
        ids=["header_only", "no_q_columns", "nan_row", "inf_row",
             "text_value", "short_row", "repeated_column"])
    def test_bad_states_exit_2_before_frames(self, tmp_path, capsys,
                                              fast_config, text, why):
        states, out = tmp_path / "states.csv", tmp_path / "frames"
        states.write_text(text)
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {states}{why}\n"
        assert not out.exists()

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
        assert not out.exists()

    def test_state_out_of_frame_leaves_no_frame(self, tmp_path, capsys,
                                                fast_config):
        states, out = tmp_path / "states.csv", tmp_path / "frames"
        states.write_text("q1,q2\n0.5,-0.2\n3.0,3.0\n-0.3,0.1\n")
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {states} row 2 (q1=3, q2=3): configuration leaves the "
            "frame")
        assert not out.exists()

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
        assert not out.exists()

    # A frame of any other size than the camera's: too small to hold the
    # root row, or big enough that the root pixel would be misplaced.
    @pytest.mark.parametrize("height,width", [(20, 20), (600, 1000)])
    def test_frame_not_the_cameras_exits_2(self, tmp_path, capsys,
                                           fast_config, height, width):
        img = np.full((height, width), 230, dtype=np.uint8)
        img[:height // 2, width // 2 - 4:width // 2 + 4] = 25
        frame, out = tmp_path / "frame.pgm", tmp_path / "mid"
        write_pgm(img, frame)
        assert main(["midline", "--config", fast_config, "--images",
                     str(frame), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {frame}: frame is {width}x{height} px; the camera's is "
            "960x560\n")
        assert not out.exists()

    def test_malformed_pgm_exits_2_naming_file(self, tmp_path, capsys,
                                               fast_config):
        img = tmp_path / "hdr.pgm"
        img.write_bytes(b"P5\n")
        assert main(["midline", "--config", fast_config, "--images",
                     str(img), "--out", str(tmp_path / "mid")]) == 2
        assert capsys.readouterr().err == (
            f"error: not a PGM file or malformed PGM header: {img}\n")


def _staged(parent) -> list:
    return [p for p in os.listdir(parent) if p.startswith(".tentaclelab-")]


class TestOutputContract:
    """A command's files and manifest reach --out only when it succeeds."""

    def test_failed_rerun_keeps_existing_out(self, tmp_path, monkeypatch,
                                             capsys, fast_config):
        out = tmp_path / "data"
        args = ["dataset", "--config", fast_config, "--duration", "0.5",
                "--duration-test", "0.25", "--out", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        ramp = cli.simulate_ramp

        def fail_on_test_split(cfg, duration, seed):
            if seed == cfg.dataset["test_seed"]:
                raise cli.SimulationError("test split diverged")
            return ramp(cfg, duration, seed)

        monkeypatch.setattr(cli, "simulate_ramp", fail_on_test_split)
        assert main(args + ["--seed", "7"]) == 2
        assert capsys.readouterr().err == "error: test split diverged\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert _staged(tmp_path) == []

    def test_failure_leaves_no_out_and_no_staging(self, tmp_path,
                                                  fast_config):
        states, out = tmp_path / "states.csv", tmp_path / "runs" / "frames"
        states.write_text("q1,q2\n0.5,-0.2\n3.0,3.0\n")
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 2
        assert not out.exists()
        assert _staged(tmp_path / "runs") == []

    def test_interrupt_leaves_no_staging(self, tmp_path, monkeypatch,
                                         fast_config):
        def interrupted(cfg, args):
            with open(os.path.join(args.out, "metrics.csv"), "w") as f:
                f.write("f_hz\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_metrics", interrupted)
        out = tmp_path / "metrics"
        with pytest.raises(KeyboardInterrupt):
            main(["metrics", "--config", fast_config, "--out", str(out)])
        assert not out.exists()
        assert _staged(tmp_path) == []

    def test_success_moves_outputs_and_manifest_only(self, tmp_path,
                                                     fast_config):
        states, out = tmp_path / "states.csv", tmp_path / "frames"
        states.write_text("q1,q2\n0.5,-0.2\n-0.3,0.1\n")
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "frame_0000.pgm", "frame_0001.pgm", "manifest.json"]
        assert _staged(tmp_path) == []

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_not_a_directory_exits_1_before_work(self, tmp_path, capsys,
                                                      monkeypatch,
                                                      fast_config, under):
        def unreachable(cfg, args):
            raise AssertionError("render ran")

        monkeypatch.setattr(cli, "cmd_render", unreachable)
        states, f = tmp_path / "states.csv", tmp_path / "taken"
        states.write_text("q1,q2\n0.5,-0.2\n")
        f.write_bytes(b"user data\n")
        out = f / "frames" if under else f
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --out {out}: {os.path.realpath(f)} is not a directory\n")
        assert f.read_bytes() == b"user data\n"
        assert _staged(tmp_path) == []

    def _render(self, fast_config, states, out, text):
        states.write_text(text)
        assert main(["render", "--config", fast_config, "--states",
                     str(states), "--out", str(out)]) == 0

    def test_rerun_removes_the_outputs_it_replaces(self, tmp_path,
                                                   fast_config):
        states, out = tmp_path / "states.csv", tmp_path / "frames"
        self._render(fast_config, states, out,
                     "q1,q2\n0.5,-0.2\n-0.3,0.1\n0.1,0.1\n")
        (out / "notes.txt").write_text("mine\n")
        self._render(fast_config, states, out, "q1,q2\n0.5,-0.2\n")
        assert sorted(os.listdir(out)) == [
            "frame_0000.pgm", "manifest.json", "notes.txt"]
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["outputs"] == ["frame_0000.pgm"]
        assert _staged(tmp_path) == []

    @pytest.mark.parametrize("manifest", [
        {"outputs": ["../victim.txt", "sub/kept.txt", "..", ".", "",
                     "manifest.json", 7, None]},
        {"outputs": "kept.txt"}, {"outputs": {"kept.txt": 1}},
        ["kept.txt"], "not json"],
        ids=["unplain_names", "string", "object", "list", "malformed"])
    def test_rerun_removes_only_plain_names_the_manifest_lists(
            self, tmp_path, fast_config, manifest):
        out = tmp_path / "frames"
        (out / "sub").mkdir(parents=True)
        for p in (tmp_path / "victim.txt", out / "sub" / "kept.txt",
                  out / "kept.txt"):
            p.write_text("mine\n")
        (out / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
        self._render(fast_config, tmp_path / "states.csv", out,
                     "q1,q2\n0.5,-0.2\n")
        assert sorted(os.listdir(out)) == [
            "frame_0000.pgm", "kept.txt", "manifest.json", "sub"]
        assert (out / "sub" / "kept.txt").exists()
        assert (tmp_path / "victim.txt").exists()


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

    @pytest.mark.parametrize("name, text, code, named", [
        ("f.txt", None, 1, "--run"),
        ("optimize/best.json", "[1, 2]", 2, "best.json"),
        ("eval/report.json", "{bad", 2, "report.json"),
        ("eval/report.json/x.txt", "x", 1, "no reportable artifacts"),
        ("metrics/twi.svg", b"\xff<svg/>", 2, "twi.svg: 'utf-8' codec"),
        ("eval/report.json", b'{"a": "\xff"}', 2, "report.json: 'utf-8'"),
    ], ids=["run_is_file", "json_list", "malformed_json", "json_is_dir",
            "svg_not_utf8", "json_not_utf8"])
    def test_bad_input_named(self, tmp_path, capsys, name, text, code,
                             named):
        # A bad --run, JSON or SVG file exits with an error naming it,
        # not a traceback; a directory where a JSON file belongs is
        # skipped.
        path = tmp_path / "run" / name
        path.parent.mkdir(parents=True)
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text or "not a run\n")
        run = path if text is None else tmp_path / "run"
        assert main(["report", "--run", str(run)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "run" / "report.html").exists()

    def test_utf8_under_ascii_locale(self, tmp_path):
        # Artifacts are read, and report.html written, as the UTF-8 its
        # <meta charset> declares, whatever the locale's encoding.
        svg = "<svg><text>θ = 30°</text></svg>"
        (tmp_path / "run" / "metrics").mkdir(parents=True)
        (tmp_path / "run" / "metrics" / "twi.svg").write_bytes(
            svg.encode("utf-8"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C",
                   PYTHONCOERCECLOCALE="0")
        code = ("import locale, sys\n"
                "assert locale.getpreferredencoding(False) != 'UTF-8'\n"
                "from tentaclelab.cli import main\n"
                "sys.exit(main(['report', '--run', sys.argv[1]]))")
        run = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code,
                              str(tmp_path / "run")], env=env,
                             stderr=subprocess.PIPE, text=True)
        assert (run.returncode, run.stderr) == (0, "")
        html = (tmp_path / "run" / "report.html").read_bytes()
        assert svg.encode("utf-8") in html


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

    def _leaves_scipy_out(self, code, *argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code += ("\nloaded = sorted(m for m in sys.modules\n"
                 "                if m.split('.')[0] == 'scipy')\n"
                 "sys.exit(' '.join(loaded) or None)")
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             stderr=subprocess.PIPE, text=True)
        assert (run.returncode, run.stderr) == (0, "")

    def test_import_leaves_scipy_out(self):
        # No command loads scipy: not the import, and (below) not a run
        # of any command.
        self._leaves_scipy_out("import sys, tentaclelab.cli")

    def test_render_midline_leave_scipy_out(self, tmp_path):
        # A straight, a curled and a self-overlapping state.
        states = tmp_path / "states.csv"
        states.write_text("q1,q2\n0.5,-0.2\n2.5,-2.0\n5.0,8.0\n")
        code = """import sys
from tentaclelab.cli import main
states, d = sys.argv[1:]
assert main(["render", "--states", states, "--out", d + "/frames"]) == 0
assert main(["midline", "--images"]
            + [f"{d}/frames/frame_{k:04d}.pgm" for k in range(3)]
            + ["--out", d + "/midline"]) == 0"""
        self._leaves_scipy_out(code, str(states), str(tmp_path / "run"))
        assert len(os.listdir(tmp_path / "run" / "midline")) == 4

    def test_dataset_train_eval_metrics_leave_scipy_out(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(
            {**FAST_CONFIG, "train": {**FAST_CONFIG["train"], "epochs": 1}}))
        code = """import sys
from tentaclelab.cli import main
cfg, d = sys.argv[1:]
for argv in (["dataset", "--duration", "1", "--duration-test", "1",
              "--out", d + "/data"],
             ["train", "--data", d + "/data", "--out", d + "/model"],
             ["eval", "--data", d + "/data", "--weights",
              d + "/model/weights.json", "--out", d + "/eval"],
             ["metrics", "--out", d + "/metrics"],
             ["optimize", "--budget", "4", "--out", d + "/optimize"]):
    assert main(argv + ["--config", cfg]) == 0, argv
assert main(["report", "--run", d]) == 0"""
        self._leaves_scipy_out(code, str(cfg), str(tmp_path / "run"))
        assert (tmp_path / "run" / "report.html").exists()
