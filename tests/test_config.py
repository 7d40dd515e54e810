import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentaclelab.actuation import ProgramSpec, build_program
from tentaclelab.config import (CONFIG_SCHEMA, ConfigError, RunConfig,
                                cell_window, config_hash, default_config)
from tentaclelab.sim import default_sensor_model


PARTIAL_SECTIONS = {"sensor": {"seed": 3}, "dataset": {"dt": 0.005},
                    "sweep": {"cycles": 12}, "bo": {"budget": 30}}


class TestRunConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.material == "dragonskin"
        assert cfg.target == "affine"
        assert cfg.build_sim_params().f0_hz == 3.2
        assert cfg.build_train_config().epochs == 35

    def test_ecoflex_defaults(self):
        cfg = default_config("ecoflex")
        assert cfg.build_sim_params().f0_hz == 2.7
        assert cfg.build_train_config().epochs == 20

    def test_sensor_defaults_are_sim_defaults(self):
        built = asdict(default_config().build_sensor_model())
        ref = asdict(default_sensor_model())
        assert built.keys() == ref.keys()
        for k in ref:
            assert np.array_equal(built[k], ref[k]), k

    def test_unknown_material(self):
        with pytest.raises(ConfigError):
            RunConfig(material="steel")

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            RunConfig(target="spline")

    def test_list_target_named(self):
        with pytest.raises(ConfigError, match=r"^target: must be 'affine' "
                                              r"or 'poly', got \['poly'\]$"):
            RunConfig(target=["poly"])

    def test_sim_override(self):
        cfg = RunConfig(sim={"zeta": 0.3})
        assert cfg.build_sim_params().zeta == 0.3
        # Preset fields not overridden stay in place.
        assert cfg.build_sim_params().drive_gain1 == 0.7

    def test_bad_nested_value_names_section(self):
        with pytest.raises(ConfigError, match="sim"):
            RunConfig(sim={"zeta": 2.0})

    @pytest.mark.parametrize("key", ["phase_lag_s", "quad_drag"])
    def test_negative_sim_value_names_the_key(self, key):
        with pytest.raises(ConfigError, match=f"^sim: {key} must be >= 0$"):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA, "sim": {key: -0.1}})
        RunConfig(sim={key: 0.0})

    def test_sim_has_no_seed(self):
        with pytest.raises(ConfigError, match="^sim: "):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                                 "sim": {"seed": 7}})

    @pytest.mark.parametrize("section", ["bo", "train", "sensor"])
    @pytest.mark.parametrize("seed", [1.5, True, -1, "0"])
    def test_seed_must_be_a_nonnegative_integer(self, section, seed):
        with pytest.raises(ConfigError, match=f"^{section}: seed"):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                                 section: {"seed": seed}})

    def test_bad_dataset(self):
        with pytest.raises(ConfigError):
            RunConfig(dataset={"train_duration_s": -1.0})

    @pytest.mark.parametrize("section", PARTIAL_SECTIONS)
    def test_partial_section_is_completed_from_defaults(self, section):
        values = PARTIAL_SECTIONS[section]
        cfg = RunConfig(**{section: values})
        assert cfg == RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                                           section: values})
        default = getattr(default_config(), section)
        assert getattr(cfg, section) == {**default, **values}


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        cfg = RunConfig(material="ecoflex", target="poly",
                        sim={"zeta": 0.25}, train={"hidden": 16})
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg.to_dict()))
        back = RunConfig.from_json(p)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)

    def test_schema_checked(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"schema": 99})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA, "motor": {}})

    def test_partial_sections_get_defaults(self):
        cfg = RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                                   "dataset": {"dt": 0.004}})
        assert cfg.dataset["dt"] == 0.004
        assert cfg.dataset["train_duration_s"] == 100.0

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_json(p)


_MATERIALS = st.sampled_from(["dragonskin", "ecoflex"])


def _partial(**strategies):
    return st.fixed_dictionaries({}, optional=strategies)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(material=_MATERIALS, target=st.sampled_from(["affine", "poly"]),
           sweep=_partial(subsample=st.integers(1, 4),
                          n_stations=st.integers(3, 32)),
           bo=_partial(budget=st.integers(3, 50), seed=st.integers(0, 2**31)),
           train=_partial(hidden=st.integers(1, 16),
                          lr0=st.floats(1e-4, 1.0)))
    def test_dict_json_and_hash_round_trip(self, tmp_path_factory, material,
                                           target, sweep, bo, train):
        cfg = RunConfig(material=material, target=target, sweep=sweep,
                        bo=bo, train=train)
        path = tmp_path_factory.getbasetemp() / "roundtrip.json"
        path.write_text(json.dumps(cfg.to_dict()))
        for back in (RunConfig.from_dict(cfg.to_dict()),
                     RunConfig.from_json(path)):
            assert back == cfg
            assert config_hash(back) == config_hash(cfg)


class TestHash:
    def test_stable_across_instances(self):
        assert config_hash(default_config()) == config_hash(default_config())

    def test_sensitive_to_changes(self):
        a = config_hash(default_config())
        b = config_hash(RunConfig(sim={"zeta": 0.21}))
        assert a != b

    def test_hash_is_sha256_hex(self):
        h = config_hash(default_config())
        assert len(h) == 64
        int(h, 16)

    def test_matches_manual_digest(self):
        import hashlib
        cfg = default_config()
        blob = json.dumps(cfg.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        assert config_hash(cfg) == hashlib.sha256(blob).hexdigest()


class TestSweepValidation:
    # The CLI tests run the cases that used to fail mid-run through
    # `metrics`; these are further invalid values.
    @pytest.mark.parametrize("sweep", [
        {"subsample": 4.0},
        {"cycles": True},
        {"amplitudes_deg": [0.0]},
        {"amplitudes_deg": [10.0, 120.0]},
        {"freq_ratios": [0.5, float("nan")]},
        {"transient_cycles": 11},
        {"transient_cycles": -1},
        # 0.64 Hz keeps only 7 samples after the transient.
        {"subsample": 400},
    ])
    def test_invalid_values_rejected_at_load(self, sweep):
        with pytest.raises(ConfigError, match="^sweep: "):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA, "sweep": sweep})

    def test_boundary_values_accepted(self):
        cfg = RunConfig.from_dict({"schema": CONFIG_SCHEMA, "sweep": {
            "amplitudes_deg": [0.0, -90.0], "transient_cycles": 10,
            "n_stations": 3, "subsample": 1}})
        assert cfg.sweep["transient_cycles"] == 10

    def test_default_hashes_unchanged(self):
        assert config_hash(default_config()) == (
            "7f8c2803d35422e0cb1b19fe1a7f0d0735c66a0d032d854aa4740f4d6a87ace5")
        assert config_hash(default_config("ecoflex")) == (
            "c36e71fc907798e9734286cd080932be61361f8d86261c7c4f136dc504e40629")


class TestBOValidation:
    # The CLI tests run invalid `bo` sections through `metrics` and
    # `optimize`; these are the keys and the boundary.
    @pytest.mark.parametrize("budget", [True, 3.0, "30"])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(ConfigError, match="^bo: budget"):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                                 "bo": {"budget": budget}})

    def test_budget_above_the_grid_names_both_numbers(self):
        with pytest.raises(ConfigError, match="^bo: budget 65 exceeds "
                           "the grid's 64 cells$"):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                                 "bo": {"budget": 65, "A_set": [15]}})
        RunConfig.from_dict({"schema": CONFIG_SCHEMA,
                             "bo": {"budget": 64, "A_set": [15]}})

    def test_search_space_and_boundary_budget(self):
        cfg = RunConfig.from_dict({"schema": CONFIG_SCHEMA, "bo": {
            "budget": 3, "f_range": [0.5, 2.0], "A_set": [15]}})
        space = cfg.build_search_space()
        assert space.f_range == (0.5, 2.0) and space.A_set == (15.0,)


class TestCellWindow:
    @pytest.mark.parametrize("material", ["dragonskin", "ecoflex"])
    def test_window_ends_at_the_cells_last_step(self, material):
        cfg = default_config(material)
        sw, dt = cfg.sweep, cfg.dataset["dt"]
        for r in sw["freq_ratios"]:
            f = r * cfg.build_sim_params().f0_hz
            n = len(build_program(ProgramSpec(
                duration_s=sw["cycles"] / f, dt=dt, frequency_hz=f)).time)
            win = cell_window(sw, f, dt)
            assert win.stop == n and win.step == sw["subsample"]
            assert win.start == int(sw["transient_cycles"] / f / dt)


class TestDatasetValidation:
    # The CLI tests run the cases that used to fail mid-run or pass
    # silently through `dataset`; these are further invalid values.
    @pytest.mark.parametrize("dataset", [
        {"dt": 0.0},
        {"rpm_ramp": 40},
        {"rpm_ramp": [12.0, "80"]},
        {"test_seed": -1},
        {"test_duration_s": float("inf")},
    ])
    def test_invalid_values_rejected_at_load(self, dataset):
        with pytest.raises(ConfigError, match="^dataset: "):
            RunConfig.from_dict({"schema": CONFIG_SCHEMA, "dataset": dataset})

    def test_dt_bound_follows_the_material(self):
        # 1/(50*f0) is 0.00625 s for dragonskin and 0.0074 s for ecoflex.
        doc = {"schema": CONFIG_SCHEMA, "dataset": {"dt": 0.007}}
        with pytest.raises(ConfigError, match="dataset: dt must be <="):
            RunConfig.from_dict(doc)
        cfg = RunConfig.from_dict({**doc, "material": "ecoflex"})
        assert cfg.build_ramp_spec(1.0, 0).dt == 0.007

    def test_dt_bound_follows_sim_f0(self):
        # The bound reads the sim section's f0, not only the material's.
        doc = {"schema": CONFIG_SCHEMA, "sim": {"f0_hz": 5.0}}
        with pytest.raises(ConfigError, match=r"^dataset: dt must be <= "
                                              r"1/\(50\*f0\) = 0.004 s$"):
            RunConfig.from_dict(doc)
        cfg = RunConfig.from_dict({**doc, "dataset": {"dt": 0.004}})
        assert cfg.dataset["dt"] == 0.004

    def test_sim_has_no_dt(self):
        # Every program steps at dataset.dt, the sweep's cells included.
        with pytest.raises(ConfigError, match=r"^sim: unknown keys \['dt'\]$"):
            RunConfig(sim={"dt": 0.005})
