"""Run configuration: JSON schema, defaults, and content hashing.

A RunConfig bundles every knob a pipeline command needs; its sha256
content hash is stamped into output manifests so any artifact can be
traced to the exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .actuation import ProgramSpec
from .bayesopt import SearchSpace
from .kinematics import TentacleGeometry
from .regressor import TrainConfig
from .sim import SensorModel, SimParams, default_sensor_model, \
    material_preset, preset_epochs

__all__ = ["RunConfig", "ConfigError", "default_config", "config_hash",
           "cell_window"]

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
    "rho": 0.8,
    "seed": 0,
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with nested component settings."""

    material: str = "dragonskin"
    target: str = "affine"
    geometry: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    sensor: dict = field(default_factory=lambda: dict(_DEFAULT_SENSOR))
    train: dict = field(default_factory=dict)
    dataset: dict = field(default_factory=lambda: dict(_DEFAULT_DATASET))
    sweep: dict = field(default_factory=lambda: dict(_DEFAULT_SWEEP))
    bo: dict = field(default_factory=lambda: dict(_DEFAULT_BO))

    def __post_init__(self):
        if self.material not in ("dragonskin", "ecoflex"):
            raise ConfigError(f"material: unknown preset {self.material!r}")
        if self.target not in ("affine", "poly"):
            raise ConfigError(f"target: must be 'affine' or 'poly', "
                              f"got {self.target!r}")
        _check_keys("sensor", self.sensor, _DEFAULT_SENSOR)
        _check_keys("bo", self.bo, _DEFAULT_BO)
        # Partial sections: the component's own defaults fill the rest.
        for name, cls in (("geometry", TentacleGeometry), ("sim", SimParams),
                          ("train", TrainConfig)):
            _check_keys(name, getattr(self, name),
                        [f.name for f in fields(cls)], complete=False)
        for name, section in (("bo", self.bo), ("train", self.train),
                              ("sensor", self.sensor)):
            seed = section.get("seed", 0)
            if not _is_int(seed) or seed < 0:
                raise ConfigError(f"{name}: seed must be an integer >= 0")
        # Instantiate every nested component so field-level errors
        # surface at load time with the offending section named.
        for name, builder in (
                ("geometry", self.build_geometry),
                ("sim", self.build_sim_params),
                ("sensor", self.build_sensor_model),
                ("train", self.build_train_config),
                ("bo", self.build_search_space),
        ):
            try:
                builder()
            except ConfigError:
                raise
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{name}: {e}") from e
        _check_dataset(self)
        _check_sweep(self.sweep, self.build_sim_params())
        # optimize starts from three design points.
        if not _is_int(self.bo["budget"]) or self.bo["budget"] < 3:
            raise ConfigError("bo: budget must be an integer >= 3")

    def build_geometry(self) -> TentacleGeometry:
        return TentacleGeometry(**self.geometry)

    def build_sim_params(self) -> SimParams:
        base = material_preset(self.material)
        merged = {**base.__dict__, **self.sim}
        return SimParams(**merged)

    def build_sensor_model(self) -> SensorModel:
        s = self.sensor
        return SensorModel(gain=np.array(s["gain"], dtype=float),
                           rate_gain=np.array(s["rate_gain"], dtype=float),
                           baseline_kpa=s["baseline_kpa"],
                           lag_tau_s=s["lag_tau_s"],
                           sat_kappa=s["sat_kappa"],
                           noise_sigma_kpa=s["noise_sigma_kpa"],
                           seed=s["seed"])

    def build_train_config(self) -> TrainConfig:
        t = dict(self.train)
        t.setdefault("epochs", preset_epochs(self.material))
        return TrainConfig(**t)

    def build_ramp_spec(self, duration_s: float, seed: int) -> ProgramSpec:
        """The `dataset` section's ramped random-amplitude program."""
        ds = self.dataset
        return ProgramSpec(duration_s=duration_s, dt=ds["dt"],
                           amplitude_mode="random",
                           rpm_ramp=tuple(ds["rpm_ramp"]), seed=seed)

    def build_search_space(self) -> SearchSpace:
        return SearchSpace(f_range=tuple(self.bo["f_range"]),
                           A_set=tuple(self.bo["A_set"]))

    def to_dict(self) -> dict:
        return {
            "schema": CONFIG_SCHEMA,
            "material": self.material,
            "target": self.target,
            "geometry": self.geometry,
            "sim": self.sim,
            "sensor": self.sensor,
            "train": self.train,
            "dataset": self.dataset,
            "sweep": self.sweep,
            "bo": self.bo,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if doc.get("schema") != CONFIG_SCHEMA:
            raise ConfigError(f"schema: expected {CONFIG_SCHEMA}, "
                              f"got {doc.get('schema')!r}")
        kwargs = {}
        for key in ("material", "target", "geometry", "sim", "sensor",
                    "train", "dataset", "sweep", "bo"):
            if key in doc:
                kwargs[key] = doc[key]
        for key in ("sensor", "dataset", "sweep", "bo"):
            if key in kwargs:
                base = {"sensor": _DEFAULT_SENSOR, "dataset": _DEFAULT_DATASET,
                        "sweep": _DEFAULT_SWEEP, "bo": _DEFAULT_BO}[key]
                kwargs[key] = {**base, **kwargs[key]}
        unknown = set(doc) - {"schema", "material", "target", "geometry",
                              "sim", "sensor", "train", "dataset", "sweep",
                              "bo"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        return cls.from_dict(doc)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _check_keys(name: str, section: dict, keys,
                complete: bool = True) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: must be a JSON object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    missing = set(keys) - set(section)
    if complete and missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")


def _check_dataset(cfg: RunConfig) -> None:
    """Reject a dataset section that `dataset` could not run."""
    ds = cfg.dataset
    _check_keys("dataset", ds, _DEFAULT_DATASET)
    if not all(_is_real(ds[k]) and ds[k] > 0
               for k in ("train_duration_s", "test_duration_s", "dt")):
        raise ConfigError("dataset: train_duration_s, test_duration_s and dt "
                          "must be positive numbers")
    # The simulator's stability bound on the step.
    max_dt = 1.0 / (50.0 * cfg.build_sim_params().f0_hz)
    if ds["dt"] > max_dt:
        raise ConfigError(f"dataset: dt must be <= 1/(50*f0) = {max_dt:g} s")
    if not all(_is_int(ds[k]) and ds[k] >= 0
               for k in ("train_seed", "test_seed")):
        raise ConfigError("dataset: train_seed and test_seed must be "
                          "integers >= 0")
    ramp = ds["rpm_ramp"]
    if (not isinstance(ramp, (list, tuple)) or len(ramp) != 2
            or not all(map(_is_real, ramp))):
        raise ConfigError("dataset: rpm_ramp must be a list of two RPM "
                          "endpoints")
    for split in ("train", "test"):
        try:
            cfg.build_ramp_spec(ds[f"{split}_duration_s"], ds[f"{split}_seed"])
        except ValueError as e:
            raise ConfigError(f"dataset: {e}") from e


def cell_window(sweep: dict, f: float, dt: float) -> range:
    """Steps of a sweep cell at frequency f that enter its deformation
    field: every `subsample`-th step after the transient cycles."""
    return range(int(sweep["transient_cycles"] / f / dt),
                 int(round(sweep["cycles"] / f / dt)), sweep["subsample"])


def _check_sweep(sw: dict, params: SimParams) -> None:
    """Reject a sweep section that `metrics` or `optimize` could not run."""
    _check_keys("sweep", sw, _DEFAULT_SWEEP)
    amps, ratios = sw["amplitudes_deg"], sw["freq_ratios"]
    if (not isinstance(amps, (list, tuple)) or not amps
            or not all(_is_real(a) and abs(a) <= 90.0 for a in amps)):
        raise ConfigError("sweep: amplitudes_deg must be a nonempty list of "
                          "amplitudes in [-90, 90] degrees")
    if all(a == 0 for a in amps):
        raise ConfigError("sweep: amplitudes_deg needs a nonzero amplitude; "
                          "a zero-amplitude cell has no deformation field")
    if (not isinstance(ratios, (list, tuple)) or not ratios
            or not all(_is_real(r) and r > 0 for r in ratios)):
        raise ConfigError("sweep: freq_ratios must be a nonempty list of "
                          "positive numbers")
    cycles, transient = sw["cycles"], sw["transient_cycles"]
    n_stations, subsample = sw["n_stations"], sw["subsample"]
    if not all(map(_is_int, (cycles, transient, n_stations, subsample))):
        raise ConfigError("sweep: cycles, transient_cycles, n_stations and "
                          "subsample must be integers")
    # Thrust averages the whole cycles after the transient; a run of
    # `cycles` cycles holds cycles - 1 of them.
    if not 0 <= transient <= cycles - 2:
        raise ConfigError("sweep: transient_cycles must lie in "
                          f"[0, cycles - 2] = [0, {cycles - 2}]")
    if n_stations < 3:
        raise ConfigError("sweep: n_stations must be at least 3")
    if subsample < 1:
        raise ConfigError("sweep: subsample must be at least 1")
    # The deformation field needs 8 samples.
    for r in ratios:
        f = r * params.f0_hz
        n_t = len(cell_window(sw, f, params.dt))
        if n_t < 8:
            raise ConfigError(
                f"sweep: at f = {f:g} Hz only {n_t} field samples follow "
                "the transient, 8 are needed; raise cycles or lower "
                "subsample")


def default_config(material: str = "dragonskin") -> RunConfig:
    return RunConfig(material=material)


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical (sorted-key) JSON serialization."""
    blob = json.dumps(cfg.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
