"""The value rules, over every numeric field of every record.

A bool is no integer and no number, numpy's scalar types pass where
their kind is due, and NaN is no number.
"""

from dataclasses import fields

import numpy as np
import pytest

from tentaclelab.actuation import ProgramSpec
from tentaclelab.bayesopt import SearchSpace
from tentaclelab.checks import number_array
from tentaclelab.kinematics import CurvatureState, TentacleGeometry
from tentaclelab.regressor import TrainConfig
from tentaclelab.sim import SensorModel, SimParams, default_sensor_model
from tentaclelab.vision import ImageSpec

SENSOR = {f.name: getattr(default_sensor_model(), f.name)
          for f in fields(SensorModel)}

# name: (record, the valid arguments the case edits, {field: kind}). A
# kind is "int", "number", "list" (of numbers) or "array" (of numbers).
RECORDS = {
    "SimParams": (SimParams, {},
                  {f.name: "number" for f in fields(SimParams)}),
    "SensorModel": (SensorModel, SENSOR, {
        "gain": "array", "rate_gain": "array", "baseline_kpa": "number",
        "lag_tau_s": "number", "sat_kappa": "number",
        "noise_sigma_kpa": "number", "seed": "int"}),
    "TrainConfig": (TrainConfig, {}, {
        "lr0": "number", "lr_decay": "number", "momentum": "number",
        "epochs": "int", "sequence_chunk": "int", "hidden": "int",
        "seed": "int"}),
    "TentacleGeometry": (TentacleGeometry, {}, {
        "length_mm": "number", "n_samples": "int",
        "root_diameter_mm": "number"}),
    "CurvatureState": (CurvatureState, {"q1": 0.5, "q2": -0.2},
                       {"q1": "number", "q2": "number"}),
    "ImageSpec": (ImageSpec, {}, {
        "width": "int", "height": "int", "scale_mm_per_px": "number",
        "origin_px": "list"}),
    "ProgramSpec": (ProgramSpec, {"duration_s": 1.0, "dt": 0.01}, {
        "duration_s": "number", "dt": "number", "amplitude_deg": "number",
        "frequency_hz": "number", "seed": "int"}),
    "ProgramSpec_ramp": (ProgramSpec, {"duration_s": 1.0, "dt": 0.01,
                                       "rpm_ramp": (12.0, 80.0)},
                         {"rpm_ramp": "list"}),
    "SearchSpace": (SearchSpace, {}, {"f_range": "list", "A_set": "list"}),
}

CASES = {f"{name}.{field}": (record, args, field, kind)
         for name, (record, args, kinds) in RECORDS.items()
         for field, kind in kinds.items()}


def _valid(record, args, field):
    return getattr(record(**args), field)


def _variants(value, kind):
    """(a bool-valued edit, a numpy-typed copy, a NaN-valued edit) of a
    valid field value."""
    if kind == "int":
        return True, np.int64(value), np.nan
    if kind == "number":
        return True, np.float64(value), np.nan
    if kind == "list":
        return ((True, *value[1:]), tuple(map(np.float64, value)),
                (np.nan, *value[1:]))
    arr = np.asarray(value)
    nan = arr.copy()
    nan[0, 0] = np.nan
    return arr.astype(bool), arr.round().astype(np.int64), nan


@pytest.mark.parametrize("record,args,field,kind", CASES.values(),
                         ids=CASES.keys())
class TestEveryNumericField:
    def test_bool_refused(self, record, args, field, kind):
        bad = _variants(_valid(record, args, field), kind)[0]
        with pytest.raises(ValueError):
            record(**{**args, field: bad})

    def test_numpy_type_accepted(self, record, args, field, kind):
        value = _variants(_valid(record, args, field), kind)[1]
        got = getattr(record(**{**args, field: value}), field)
        assert np.array_equal(got, value)

    def test_nan_refused(self, record, args, field, kind):
        bad = _variants(_valid(record, args, field), kind)[2]
        with pytest.raises(ValueError):
            record(**{**args, field: bad})


class TestNumberArray:
    @pytest.mark.parametrize("value", [
        [[1.0, 2.0], [3.0]], [["1.0", "2.0"]], [True, False],
        np.array([1.0, None]), {"a": 1.0}, [1.0, np.inf]],
        ids=["ragged", "strings", "bools", "object", "dict", "inf"])
    def test_refused_naming_the_value(self, value):
        with pytest.raises(ValueError, match="^gain "):
            number_array("gain", value)

    def test_missing_is_named(self):
        with pytest.raises(ValueError, match="^missing gain$"):
            number_array("gain", None)

    @pytest.mark.parametrize("value", [[1, 2], np.arange(3, dtype=np.uint8),
                                       np.float32([0.5])])
    def test_ints_and_floats_become_float64(self, value):
        arr = number_array("gain", value)
        assert arr.dtype == np.float64
        assert np.array_equal(arr, np.asarray(value))
