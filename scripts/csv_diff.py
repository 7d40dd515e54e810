#!/usr/bin/env python3
"""Size of the numeric differences between two output trees' CSV files.

For every CSV file under BASE whose bytes differ from the file at the
same relative path under HEAD, prints one line: the largest absolute and
relative difference between numeric cells at the same row and column,
and how many cells differ. The relative difference of cells a and b is
|a - b| / max(|a|, |b|). A file missing from HEAD, a different table
shape or a differing cell that is not a finite number is named instead.
Files other than CSV are not compared. Report only: always exits 0.

Usage: python3 scripts/csv_diff.py BASE HEAD
"""

import argparse
import csv
import math
import os
import sys


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _number(cell):
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def compare(base_path, head_path) -> str:
    """One line on how the CSV at `head_path` differs from `base_path`."""
    a, b = _rows(base_path), _rows(head_path)
    if [len(r) for r in a] != [len(r) for r in b]:
        return "table shape differs"
    max_abs = max_rel = 0.0
    numeric = other = 0
    for row_a, row_b in zip(a, b):
        for x, y in zip(row_a, row_b):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                other += 1
                continue
            numeric += 1
            d = abs(fx - fy)
            max_abs = max(max_abs, d)
            max_rel = max(max_rel, d / max(abs(fx), abs(fy)))
    line = (f"{numeric} numeric cells differ, largest absolute difference "
            f"{max_abs:.3g}, largest relative difference {max_rel:.3g}")
    if other:
        line += f"; {other} other cells differ"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    args = ap.parse_args(argv)
    for root, _, files in sorted(os.walk(args.base)):
        for name in sorted(files):
            if not name.endswith(".csv"):
                continue
            rel = os.path.relpath(os.path.join(root, name), args.base)
            base_path = os.path.join(args.base, rel)
            head_path = os.path.join(args.head, rel)
            if not os.path.isfile(head_path):
                print(f"{rel}: missing from {args.head}")
                continue
            with open(base_path, "rb") as fa, open(head_path, "rb") as fb:
                if fa.read() == fb.read():
                    continue
            print(f"{rel}: {compare(base_path, head_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
