"""Order statistics for timings: median, the tail percentile rule and
block means."""

from __future__ import annotations

import math
import statistics

# Consecutive blocks of passes whose mean pass times give wall_s.
BLOCKS = 3

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[_rank(p, len(xs)) - 1]


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten samples beyond it.

    A nearest-rank percentile p of n samples leaves n - ceil(p*n/100)
    samples above it. Returns None when even the median leaves fewer
    than ten, i.e. for fewer than 20 samples.
    """
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """Median, tail (with its percentile) and sample count."""
    xs = list(values)
    out = {"n": len(xs), "p50": statistics.median(xs) if xs else None,
           "tail": None, "tail_pct": tail_percentile(len(xs))}
    if out["tail_pct"] is not None:
        out["tail"] = percentile(xs, out["tail_pct"])
    return out



def block_means(values, blocks: int = BLOCKS) -> list:
    """Mean of each of `blocks` consecutive, near-equal runs of values
    (one block per value when there are fewer values than blocks)."""
    xs = list(values)
    k = min(blocks, len(xs))
    edges = [round(i * len(xs) / k) for i in range(k + 1)]
    return [statistics.fmean(xs[a:b]) for a, b in zip(edges, edges[1:])]
