"""The CSV format of every artifact: a header line of comma-separated
column names, then one row per record of `%.10g` values. Readers take
columns by header name; data rows are numbered from 1."""

import warnings

import numpy as np


# Rows formatted per `%` and per write: the temporaries of one block are
# its text and the tuple of its values.
_BLOCK_ROWS = 1024


def write_csv(path, header: str, rows) -> None:
    """Write (n, k) `rows` under a `header` line of k names; 1-D `rows`
    are one column. The bytes are np.savetxt's with fmt="%.10g",
    delimiter="," and comments="": no header line for an empty header."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    elif rows.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D rows, got {rows.ndim}-D")
    line = ",".join(["%.10g"] * rows.shape[1]) + "\n"
    with open(path, "w") as f:
        if header:
            f.write(header + "\n")
        for i in range(0, len(rows), _BLOCK_ROWS):
            block = rows[i:i + _BLOCK_ROWS]
            f.write(line * len(block) % tuple(block.ravel().tolist()))


def read_csv(path, names, min_rows: int = 1) -> dict:
    """Every column of a CSV by header name. Raises ValueError, naming the
    file, on a header that names a column twice, a missing name of
    `names`, fewer than `min_rows` rows or a malformed or non-finite
    value, which it names by row and column."""
    with open(path) as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows: see below
        header = f.readline().strip().split(",")
        repeated = [name for i, name in enumerate(header)
                    if name in header[:i]]
        if repeated:
            raise ValueError(f"{path}: column {repeated[0]} is named twice "
                             f"in the header {','.join(header)}")
        missing = [name for name in names if name not in header]
        if missing:
            raise ValueError(f"{path}: no column {', '.join(missing)} in "
                             f"the header {','.join(header)}")
        try:
            data = np.loadtxt(f, delimiter=",", ndmin=2,
                              usecols=range(len(header)))
        except ValueError as e:
            raise ValueError(_bad_row(f, path, header)
                             or f"{path}: {e}") from None
    if len(data) < min_rows:
        raise ValueError(f"{path}: too few rows ({len(data)}, at least "
                         f"{min_rows} needed)")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{path} row {i + 1} column {header[j]}: "
                         f"{data[i, j]} is not a finite number")
    return dict(zip(header, data.T))


def _bad_row(f, path, header):
    """The first data row of open file `f` that `np.loadtxt` cannot read,
    named as `read_csv` names a non-finite value; None if none is found.
    Like `read_csv`, it skips comment and blank lines and ignores values
    past the header's columns."""
    f.seek(0)
    rows = (line.split("#", 1)[0].strip() for line in f.readlines()[1:])
    for i, row in enumerate(filter(None, rows), 1):
        fields = row.split(",")
        for j, name in enumerate(header):
            if j == len(fields):
                return f"{path} row {i} column {name}: no value"
            try:
                float(fields[j])
            except ValueError:
                return (f"{path} row {i} column {name}: {fields[j]!r} is "
                        "not a number")
    return None
