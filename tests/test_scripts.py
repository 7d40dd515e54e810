import importlib.util
import os

import numpy as np

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestSensorSweep:
    def test_smoke(self, tmp_path, capsys):
        sweep = _load("sensor_sweep")
        out = str(tmp_path / "out")
        assert sweep.main(["--out", out, "--duration", "4",
                           "--epochs", "1"]) == 0
        rows = np.genfromtxt(os.path.join(out, "sensor_sweep.csv"),
                             delimiter=",", skip_header=1)
        assert rows.shape == (4, 3)
        assert list(rows[:, 0]) == [1, 2, 3, 4]
        assert np.all(np.isfinite(rows[:, 1:]))
        assert os.path.exists(os.path.join(out, "sensor_sweep.svg"))
