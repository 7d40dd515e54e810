import numpy as np
import pytest

from tentaclelab import csvio
from tentaclelab.csvio import read_csv, write_csv


def savetxt_bytes(tmp_path, header, rows):
    """The reference: what np.savetxt writes for the same rows."""
    p = tmp_path / "savetxt.csv"
    np.savetxt(p, np.asarray(rows, dtype=float), fmt="%.10g", delimiter=",",
               header=header, comments="")
    return p.read_bytes()


RNG = np.random.default_rng(5)
CASES = {
    "empty_2d": ("a,b", np.zeros((0, 2))),
    "empty_list": ("a", []),
    "one_d": ("a", [1.5, -2.0, 3e-7]),
    "one_row": ("a,b,c", [[1.0, 2.0, 3.0]]),
    "more_than_one_block": ("t,x,y", RNG.normal(size=(csvio._BLOCK_ROWS * 2
                                                       + 3, 3)) * 1e4),
    "exactly_one_block": ("x", RNG.normal(size=(csvio._BLOCK_ROWS, 1))),
    "special_values": ("a,b,c,d", [[-0.0, np.nan, np.inf, -np.inf],
                                   [1e300, -1e300, 1e-300, -1e-300],
                                   [1 / 3, 2.0 ** 60, 123456789.5, 0.0]]),
    "integers": ("i,j", np.arange(10).reshape(5, 2)),
    "no_header": ("", [[1.0, 2.0]]),
    "no_columns": ("a", np.zeros((3, 0))),
}


@pytest.mark.parametrize("header,rows", CASES.values(), ids=CASES.keys())
def test_bytes_equal_savetxt(tmp_path, header, rows):
    p = tmp_path / "write_csv.csv"
    write_csv(p, header, rows)
    assert p.read_bytes() == savetxt_bytes(tmp_path, header, rows)


def test_rejects_more_than_two_dimensions(tmp_path):
    with pytest.raises(ValueError, match="3-D"):
        write_csv(tmp_path / "x.csv", "a", np.zeros((2, 2, 2)))


def test_roundtrip_by_name(tmp_path):
    rows = RNG.normal(size=(7, 2))
    p = tmp_path / "r.csv"
    write_csv(p, "x,y", rows)
    cols = read_csv(p, ("y", "x"))
    assert np.allclose(cols["x"], rows[:, 0], rtol=1e-9)
    assert np.allclose(cols["y"], rows[:, 1], rtol=1e-9)
