"""The CSV format of every artifact: a header line of comma-separated
column names, then one row per record of `%.10g` values. Readers take
columns by header name; data rows are numbered from 1."""

import warnings

import numpy as np


def write_csv(path, header: str, rows) -> None:
    """Write (n, k) `rows` under a `header` line of k names."""
    np.savetxt(path, np.asarray(rows, dtype=float), fmt="%.10g",
               delimiter=",", header=header, comments="")


def read_csv(path, names, min_rows: int = 1) -> dict:
    """Every column of a CSV by header name. Raises ValueError, naming the
    file, on a missing name of `names`, fewer than `min_rows` rows or a
    non-finite value, which it names by row and column."""
    with open(path) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: see below
        header = f.readline().strip().split(",")
        missing = [name for name in names if name not in header]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)} in "
                             f"the header {','.join(header)}")
        try:
            data = np.loadtxt(f, delimiter=",", ndmin=2,
                              usecols=range(len(header)))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    if len(data) < min_rows:
        raise ValueError(f"{path}: too few rows ({len(data)}, at least "
                         f"{min_rows} needed)")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{path} row {i + 1} column {header[j]}: "
                         f"{data[i, j]} is not a finite number")
    return dict(zip(header, data.T))
