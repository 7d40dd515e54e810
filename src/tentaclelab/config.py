"""Run configuration: JSON schema, defaults, and content hashing.

A RunConfig bundles every knob a pipeline command needs; its sha256
content hash is stamped into output manifests so any artifact can be
traced to the exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .actuation import ProgramSpec
from .bayesopt import SearchSpace
from .checks import integer, number, number_list
from .fitting import SHAPES
from .kinematics import TentacleGeometry
from .regressor import TrainConfig
from .sim import SensorModel, SimParams, default_sensor_model, \
    material_preset, preset_epochs

__all__ = ["RunConfig", "ConfigError", "read_config_doc", "default_config",
           "config_hash", "cell_window"]

CONFIG_SCHEMA = 1

# JSON form of sim.default_sensor_model, where the sensor defaults live.
_DEFAULT_SENSOR = {k: v.tolist() if isinstance(v, np.ndarray) else v
                   for k, v in asdict(default_sensor_model()).items()}

_DEFAULT_DATASET = {
    "train_duration_s": 100.0,
    "test_duration_s": 40.0,
    "dt": 0.005,
    "rpm_ramp": [12.0, 80.0],
    "train_seed": 0,
    "test_seed": 1,
}

_DEFAULT_SWEEP = {
    "amplitudes_deg": [10.0, 20.0, 30.0],
    "freq_ratios": [round(0.1 * k, 10) for k in range(1, 11)],
    "cycles": 12,
    "transient_cycles": 4,
    "n_stations": 16,
    "subsample": 4,
}

_DEFAULT_BO = {
    "budget": 30,
    "f_range": [0.32, 3.2],
    "A_set": [10.0, 20.0, 30.0],
    "seed": 0,
}


class ConfigError(ValueError):
    pass


def _section(base, check):
    """A RunConfig section: a JSON object that `check(cfg)` accepts.

    A dict `base` holds the defaults that complete the section; a
    component class `base` names its keys and leaves it partial, for the
    class's own defaults to fill. `check` runs with every earlier section
    in place, and its TypeError or ValueError becomes a ConfigError that
    names the section.
    """
    complete = isinstance(base, dict)
    return field(default_factory=dict, metadata={
        "keys": frozenset(base if complete else _names(base)),
        "defaults": base if complete else {}, "check": check})


def _names(cls) -> list:
    return [f.name for f in fields(cls)]


def _check_dataset(cfg: "RunConfig") -> None:
    """Reject a dataset section that `dataset` could not run."""
    ds = cfg.dataset
    cfg.build_sim_params().check_step(ds["dt"])
    for split in ("train", "test"):
        duration, seed = ds[f"{split}_duration_s"], ds[f"{split}_seed"]
        if number(f"{split}_duration_s", duration) <= 0:
            raise ValueError(f"{split}_duration_s must be positive")
        cfg.build_ramp_spec(duration, integer(f"{split}_seed", seed, 0))
    # Each split's seed draws its program and its sensor noise.
    if ds["train_seed"] == ds["test_seed"]:
        raise ValueError("train_seed and test_seed must differ")


def _check_sweep(cfg: "RunConfig") -> None:
    """Reject a sweep section that `metrics` or `optimize` could not run."""
    sw, params = cfg.sweep, cfg.build_sim_params()
    amps = _check_amplitudes("amplitudes_deg", sw["amplitudes_deg"])
    if all(a == 0 for a in amps):
        raise ValueError("amplitudes_deg needs a nonzero amplitude; "
                         "a zero-amplitude cell has no deformation field")
    ratios = number_list("freq_ratios", sw["freq_ratios"])
    if not all(r > 0 for r in ratios):
        raise ValueError("freq_ratios must be positive")
    if len(set(ratios)) < len(ratios):     # a cell is scored once
        raise ValueError("freq_ratios must be distinct")
    integer("n_stations", sw["n_stations"], 3)
    integer("subsample", sw["subsample"], 1)
    # Thrust averages the whole cycles after the transient; a run of
    # `cycles` cycles holds cycles - 1 of them.
    cycles = integer("cycles", sw["cycles"], 2)
    if integer("transient_cycles", sw["transient_cycles"], 0) > cycles - 2:
        raise ValueError("transient_cycles must lie in "
                         f"[0, cycles - 2] = [0, {cycles - 2}]")
    _check_field_samples(cfg, [r * params.f0_hz for r in ratios])


def _check_amplitudes(name, amps) -> tuple:
    amps = number_list(name, amps)
    if not all(abs(a) <= 90.0 for a in amps):
        raise ValueError(f"{name} must lie in [-90, 90] degrees")
    if len(set(amps)) < len(amps):
        raise ValueError(f"{name} must be distinct")
    return amps


def _check_field_samples(cfg: "RunConfig", freqs) -> None:
    """Reject a frequency whose sweep cell leaves its deformation field
    fewer than the 8 samples it needs."""
    dt = cfg.dataset["dt"]
    for f in freqs:
        n_t = len(cell_window(cfg.sweep, f, dt))
        if n_t < 8:
            raise ValueError(f"at f = {f:g} Hz only {n_t} field samples "
                             "follow the transient, 8 are needed; raise "
                             "sweep cycles or lower sweep subsample")


def _check_bo(cfg: "RunConfig") -> None:
    """Reject a bo section that `optimize` could not run: every cell of
    its grid must be one that `evaluate_cell` can score."""
    bo = cfg.bo
    _check_amplitudes("A_set", bo["A_set"])
    grid = cfg.build_search_space().grid()
    _check_field_samples(cfg, np.unique(grid[:, 0]))
    integer("seed", bo["seed"], 0)
    # optimize starts from three design points and scores no cell twice.
    if integer("budget", bo["budget"], 3) > len(grid):
        raise ValueError(f"budget {bo['budget']} exceeds the grid's "
                         f"{len(grid)} cells")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with nested component settings.

    Every section may be partial. `sensor`, `dataset`, `sweep` and `bo`
    are completed from their defaults, so manifests record every value;
    `geometry`, `sim` and `train` keep only the values set, because
    geometry's defaults live in `TentacleGeometry` and those of `sim` and
    `train` follow `material`.
    """

    material: str = "dragonskin"
    target: str = "affine"
    geometry: dict = _section(TentacleGeometry, lambda c: c.build_geometry())
    sim: dict = _section(SimParams, lambda c: c.build_sim_params())
    sensor: dict = _section(_DEFAULT_SENSOR, lambda c: c.build_sensor_model())
    train: dict = _section(TrainConfig, lambda c: c.build_train_config())
    dataset: dict = _section(_DEFAULT_DATASET, _check_dataset)
    sweep: dict = _section(_DEFAULT_SWEEP, _check_sweep)
    bo: dict = _section(_DEFAULT_BO, _check_bo)

    def __post_init__(self):
        try:
            material_preset(self.material)
        except ValueError as e:
            raise ConfigError(f"material: {e}") from e
        if not isinstance(self.target, str) or self.target not in SHAPES:
            raise ConfigError(f"target: must be "
                              f"{' or '.join(map(repr, SHAPES))}, "
                              f"got {self.target!r}")
        for f in fields(self):
            if "keys" not in f.metadata:
                continue
            section = getattr(self, f.name)
            if not isinstance(section, dict):
                raise ConfigError(f"{f.name}: must be a JSON object")
            unknown = set(section) - f.metadata["keys"]
            if unknown:
                raise ConfigError(f"{f.name}: unknown keys {sorted(unknown)}")
            object.__setattr__(self, f.name,
                               {**f.metadata["defaults"], **section})
            try:
                f.metadata["check"](self)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{f.name}: {e}") from e

    def build_geometry(self) -> TentacleGeometry:
        return TentacleGeometry(**self.geometry)

    def build_sim_params(self) -> SimParams:
        return replace(material_preset(self.material), **self.sim)

    def build_sensor_model(self) -> SensorModel:
        return SensorModel(**self.sensor)

    def build_train_config(self) -> TrainConfig:
        return TrainConfig(**{"epochs": preset_epochs(self.material),
                              **self.train})

    def build_ramp_spec(self, duration_s: float, seed: int) -> ProgramSpec:
        """The `dataset` section's ramped random-amplitude program."""
        ds = self.dataset
        return ProgramSpec(duration_s=duration_s, dt=ds["dt"],
                           rpm_ramp=ds["rpm_ramp"], seed=seed)

    def build_search_space(self) -> SearchSpace:
        return SearchSpace(f_range=self.bo["f_range"], A_set=self.bo["A_set"])

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA,
                **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config: must be a JSON object")
        if doc.get("schema") != CONFIG_SCHEMA:
            raise ConfigError(f"schema: expected {CONFIG_SCHEMA}, "
                              f"got {doc.get('schema')!r}")
        sections = {k: v for k, v in doc.items() if k != "schema"}
        unknown = set(sections) - set(_names(cls))
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        return cls(**sections)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(read_config_doc(path))


def read_config_doc(path):
    """The JSON document at `path`, unchecked; invalid JSON raises
    ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e


def cell_window(sweep: dict, f: float, dt: float) -> range:
    """Steps of a sweep cell at frequency f that enter its deformation
    field: every `subsample`-th step after the transient cycles."""
    return range(int(sweep["transient_cycles"] / f / dt),
                 int(round(sweep["cycles"] / f / dt)), sweep["subsample"])


def default_config(material: str = "dragonskin") -> RunConfig:
    return RunConfig(material=material)


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical (sorted-key) JSON serialization."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
