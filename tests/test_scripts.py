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


class TestCsvDiff:
    def test_reports_only_differing_csv_files(self, tmp_path, capsys):
        base, head = tmp_path / "base", tmp_path / "head"
        for d in (base, head):
            (d / "sub").mkdir(parents=True)
            (d / "same.csv").write_text("a,b\n1,2\n")
            (d / "notes.txt").write_text(str(d))
        (base / "sub" / "x.csv").write_text("t,v,tag\n0,2.0,p\n1,-4.0,p\n")
        (head / "sub" / "x.csv").write_text("t,v,tag\n0,2.5,p\n1,-4.0,q\n")
        (base / "shape.csv").write_text("a\n1\n")
        (head / "shape.csv").write_text("a\n1\n2\n")
        (base / "gone.csv").write_text("a\n1\n")
        assert _load("csv_diff").main([str(base), str(head)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"gone.csv: missing from {head}",
            "shape.csv: table shape differs",
            os.path.join("sub", "x.csv") + ": 1 numeric cells differ, "
            "largest absolute difference 0.5, largest relative difference "
            "0.2; 1 other cells differ",
        ]
