"""Synthetic silhouette rendering and midline extraction.

Stands in for the camera pipeline: a known configuration is rendered as
a dark tapered band on a light background, thresholded, and reduced to
its midline by per-row boundary averaging. Images travel as binary
(P5) PGM files, midlines as CSV.

A pixel's anti-aliased level comes from its nearest centerline sample,
but only the band's rim searches for it (see `_nearest_sample`): around
each sample lies a disk in which every pixel's nearest sample, whichever
it is, is wide enough to give alpha 1, so those pixels are filled as
foreground directly (see `_interior_radius`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .checks import integer, number, number_list
from .csvio import read_csv, write_csv
from .fitting import Centerline
from .kinematics import CurvatureState, TentacleGeometry, sample_centerline

__all__ = [
    "ImageSpec",
    "VisionError",
    "render_silhouette",
    "binarize",
    "extract_midline",
    "otsu_threshold",
    "write_pgm",
    "read_pgm",
    "midline_to_csv",
    "midline_from_csv",
]

# Band rendering levels and taper: root half-width shrinks linearly to
# 25% at the tip.
_FG_LEVEL = 25
_BG_LEVEL = 230
_TIP_TAPER = 0.25

# Consecutive centerline samples per run of the nearest-sample search.
_RUN = 16

# (run, point) entries per block of the nearest-sample search: 512 rim
# points at the 38 runs of 600 samples, 152 KiB per (runs, points)
# buffer. With one block per rim (about 2.3k points, 0.7 MB a temporary)
# each frame mapped fresh pages for its temporaries, about 850 minor
# faults per call; blocks of 256 to 640 points took none and about
# halved the search (2.7-2.9 to 1.4-1.7 ms a call over 180 test-split
# frames on a 2-core x86-64 host), while at 1,024 points the faults came
# back.
_SEARCH_ENTRIES = 512 * 38

# Points of an extracted midline: few enough that segments stay long
# relative to the half-pixel midpoint quantization, which is what
# heading-based fitting wants.
MIDLINE_POINTS = 50

# P5 header: magic, width, height and maxval, separated by whitespace
# and '#' comment lines, then one whitespace byte before the pixels.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


class VisionError(RuntimeError):
    pass


@dataclass(frozen=True)
class ImageSpec:
    """Frame geometry: size in px, scale in mm/px, root pixel position."""

    width: int = 960
    height: int = 560
    scale_mm_per_px: float = 0.5
    origin_px: tuple = (480.0, 40.0)    # (col, row) of the tentacle root

    def __post_init__(self):
        integer("width", self.width, 16)
        integer("height", self.height, 16)
        if number("scale_mm_per_px", self.scale_mm_per_px) <= 0:
            raise ValueError("scale_mm_per_px must be positive")
        col, row = number_list("origin_px", self.origin_px, 2)
        if not (0 <= col <= self.width - 1 and 0 <= row <= self.height - 1):
            raise ValueError(f"origin {self.origin_px} lies outside the "
                             f"{self.width}x{self.height} px frame")


def _centerline_px(q: CurvatureState, geom: TentacleGeometry,
                   spec: ImageSpec, n: int):
    """Dense centerline in pixel coordinates plus per-point half-width (px)."""
    pts = sample_centerline(q, replace(geom, n_samples=n))    # (n, 2) mm
    s = np.linspace(0.0, 1.0, n)
    half_mm = 0.5 * geom.root_diameter_mm * (1.0 - (1.0 - _TIP_TAPER) * s)
    col = spec.origin_px[0] + pts[:, 0] / spec.scale_mm_per_px
    row = spec.origin_px[1] + pts[:, 1] / spec.scale_mm_per_px
    return col, row, half_mm / spec.scale_mm_per_px


def render_silhouette(q: CurvatureState, geom: TentacleGeometry,
                      spec: ImageSpec) -> np.ndarray:
    """Render the tentacle as an anti-aliased dark band.

    The band follows the sampled centerline with a linear width taper
    from the root diameter down to 25% at the tip; a pixel's alpha comes
    from its distance to the nearest sample. Raises VisionError if any
    part of the band leaves the frame. Returns the (height, width) uint8
    frame.
    """
    n = max(geom.n_samples, 600)
    col, row, half = _centerline_px(q, geom, spec, n)
    margin = half + 1.0
    bad = ((col - margin < 0) | (col + margin > spec.width - 1)
           | (row - margin < 0) | (row + margin > spec.height - 1))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise VisionError(
            f"configuration leaves the frame at centerline sample {k} "
            f"(px ({col[k]:.1f}, {row[k]:.1f}), half-width {half[k]:.1f})")

    # Only pixels within half + 0.5 of their nearest sample can differ
    # from the background (alpha > 0); the disks of that radius cover
    # them all, with 1e-9 px for rounding in the disk spans.
    c0 = int(np.floor((col - margin).min()))
    c1 = int(np.ceil((col + margin).max())) + 1
    r0 = int(np.floor((row - margin).min()))
    r1 = int(np.ceil((row + margin).max())) + 1
    shape = (r1 - r0, c1 - c0)
    cover = _disk_cover(col - c0, row - r0, half + 0.5 + 1e-9, shape)
    # Pixels the interior disks reach are solid foreground; only the
    # ring between them and the cover searches for its nearest sample.
    r = _interior_radius(col, row, half)
    solid = r > 0.0
    inner = _disk_cover(col[solid] - c0, row[solid] - r0, r[solid], shape)
    ring = cover & ~inner
    rr, cc = np.divmod(np.flatnonzero(ring), shape[1])
    dist, idx = _nearest_sample(col, row, cc + c0, rr + r0)
    # Signed distance to the band edge; 1 px linear anti-alias ramp.
    alpha = np.clip(0.5 + (half[idx] - dist), 0.0, 1.0)
    pix = np.full((spec.height, spec.width), _BG_LEVEL, dtype=np.uint8)
    box = pix[r0:r1, c0:c1]
    box[inner] = _FG_LEVEL
    box[ring] = np.round(_BG_LEVEL - alpha * (_BG_LEVEL - _FG_LEVEL))
    return pix


def _sample_runs(col, row):
    """Cut the samples into runs of _RUN consecutive ones (the last may
    be shorter). Returns each run's first and middle sample and the
    radius of the disk about the middle sample that holds the run."""
    n = len(col)
    start = np.arange(0, n, _RUN)
    mid = (start + np.minimum(start + _RUN, n)) // 2
    own = mid[np.arange(n) // _RUN]
    d = np.hypot(col - col[own], row - row[own])
    return start, mid, np.maximum.reduceat(d, start)


def _interior_radius(col, row, half) -> np.ndarray:
    """Per-sample radius within which every pixel has alpha exactly 1.

    low[k] is the smallest half-width in any run whose bounding disk
    comes within 2 * half[k] of sample k, so every sample within
    2 * half[k] of k has half >= low[k]. A pixel within r = low - 0.5 of
    sample k has its nearest sample j within 2 * r < 2 * half[k] of k, so
    0.5 + half[j] - dist >= 1 whichever nearest j is taken. No taper
    shape is assumed. The run bounds make low no larger than the
    smallest half-width actually within reach, which only moves pixels
    into the ring. The 1e-9 px absorbs rounding in the disk spans and
    distances. Radii <= 0 mark samples with no such disk.
    """
    start, mid, radius = _sample_runs(col, row)
    # (runs, samples): squared distances from the run middles.
    d2 = np.square(col - col[mid][:, None])
    d2 += np.square(row - row[mid][:, None])
    reach = (2.0 * half + radius[:, None]) * (1.0 + 1e-9)
    low = np.where(d2 <= reach * reach,
                   np.minimum.reduceat(half, start)[:, None], np.inf)
    return low.min(axis=0) - 0.5 - 1e-9


def _nearest_sample(col, row, x, y):
    """Distance to and index of each point's nearest sample, equal to a
    full distance matrix's: the distance is sqrt((x - col)**2 +
    (y - row)**2) and a tie goes to the lowest index.

    D, the distance to the nearest run middle, bounds each point's
    nearest distance from above, since the middle is a sample; so a run
    can hold the nearest sample only if its middle lies within D plus
    its radius (the triangle inequality), with a relative 1e-9 for
    rounding. Only those runs' samples are compared exactly.

    A point's answer depends on that point alone, so the points go in
    blocks of _SEARCH_ENTRIES // runs, through (runs, points) buffers
    allocated once per call.
    """
    _, mid, radius = _sample_runs(col, row)
    mid_col, mid_row, runs = col[mid][:, None], row[mid][:, None], len(mid)
    # (runs, _RUN): each run's samples, padded with inf.
    pad = np.full(runs * _RUN - len(col), np.inf)
    run_col = np.concatenate([col, pad]).reshape(runs, _RUN)
    run_row = np.concatenate([row, pad]).reshape(runs, _RUN)
    n = len(x)
    dist = np.empty(n)
    idx = np.empty(n, dtype=int)
    block = max(1, _SEARCH_ENTRIES // runs)
    d2_buf = np.empty(runs * min(block, n))
    dy_buf = np.empty_like(d2_buf)
    for k in range(0, n, block):
        xb, yb = x[k:k + block], y[k:k + block]
        m = len(xb)
        # (runs, m): the middles' squared distances.
        d2 = np.subtract(mid_col, xb, out=d2_buf[:runs * m].reshape(runs, m))
        d2 *= d2
        dy = np.subtract(mid_row, yb, out=dy_buf[:runs * m].reshape(runs, m))
        dy *= dy
        d2 += dy
        reach = np.add(np.sqrt(d2.min(axis=0)), radius[:, None], out=dy)
        reach *= 1.0 + 1e-9
        reach *= reach
        run, pt = np.divmod(np.flatnonzero(d2 <= reach), m)
        # (pairs, _RUN): each kept run's squared sample distances.
        cand = run_col[run] - xb[pt, None]
        cand *= cand
        cand_dy = run_row[run] - yb[pt, None]
        cand_dy *= cand_dy
        cand += cand_dy
        j = np.argmin(cand, axis=1)
        pair_d2 = cand[np.arange(len(j)), j]
        best = dist[k:k + m]
        best.fill(np.inf)
        np.minimum.at(best, pt, pair_d2)
        hit = pair_d2 == best[pt]
        near = idx[k:k + m]
        near.fill(len(col))
        np.minimum.at(near, pt[hit], run[hit] * _RUN + j[hit])
    np.sqrt(dist, out=dist)
    return dist, idx


def _disk_cover(col, row, radius, shape) -> np.ndarray:
    """Boolean (rows, cols) mask of the pixels inside any disk.

    Each disk becomes one column span per pixel row it touches; the
    spans are summed into a row-wise difference array and integrated.
    Disks must lie inside the shape.
    """
    lo = np.ceil(row - radius).astype(int)
    n_rows = np.floor(row + radius).astype(int) - lo + 1
    k = np.repeat(np.arange(len(row)), n_rows)      # disk of each span
    first = np.cumsum(n_rows) - n_rows              # its first span
    r = lo[k] + np.arange(len(k)) - first[k]
    w = np.sqrt(np.maximum(radius[k] ** 2 - (r - row[k]) ** 2, 0.0))
    start = np.ceil(col[k] - w).astype(int)
    stop = np.floor(col[k] + w).astype(int) + 1
    size = shape[0] * (shape[1] + 1)
    base = r * (shape[1] + 1)
    diff = (np.bincount(base + start, minlength=size)
            - np.bincount(base + stop, minlength=size))
    run = np.cumsum(diff.reshape(shape[0], shape[1] + 1), axis=1)
    return run[:, :-1] > 0


def otsu_threshold(pixels: np.ndarray) -> int:
    """Between-class-variance maximizing threshold of an 8-bit image,
    computed on the uint8 cast `binarize` compares (see `_as_uint8`)."""
    hist = _byte_histogram(_as_uint8(pixels)).astype(float)
    total = hist.sum()
    w0 = np.cumsum(hist)
    m = np.cumsum(hist * np.arange(256))
    w1 = total - w0
    mu0 = np.where(w0 > 0, m / np.maximum(w0, 1), 0.0)
    mu1 = np.where(w1 > 0, (m[-1] - m) / np.maximum(w1, 1), 0.0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return int(np.argmax(between))


def _as_uint8(pixels) -> np.ndarray:
    """The frame as uint8, fractional values truncated. Raises ValueError
    on a value that is not finite or lies outside [0, 255], which the
    cast would wrap in a platform-dependent way."""
    pixels = np.asarray(pixels)
    if pixels.dtype == np.uint8:
        return pixels
    if not np.all((pixels >= 0) & (pixels <= 255)):     # NaN fails both
        raise ValueError("frame values must be finite and within [0, 255]")
    return pixels.astype(np.uint8)


def _byte_histogram(pixels: np.ndarray) -> np.ndarray:
    """256-bin count of a uint8 array, equal to np.bincount's.

    Only the bytes that differ from the first are counted one by one; all
    the others hold the first byte, so their number goes into its bin. A
    rendered frame is mostly flat background, so few bytes are counted.
    """
    flat = np.ravel(pixels)
    other = flat[flat != flat[:1]]
    hist = np.bincount(other, minlength=256)
    hist[flat[:1]] += len(flat) - len(other)    # no bin if flat is empty
    return hist


def binarize(pixels: np.ndarray) -> np.ndarray:
    """Boolean foreground mask of the pixels at or below Otsu's threshold.

    The frame is compared as the uint8 cast the threshold is computed on;
    a value that is not finite or lies outside [0, 255] raises ValueError.
    On a frame with two or more grey levels the threshold lies at or above
    the darkest and below the brightest, so the mask has both classes; a
    flat frame raises VisionError.
    """
    pixels = _as_uint8(pixels)
    mask = pixels <= otsu_threshold(pixels)
    if mask.all() or not mask.any():
        raise VisionError("binarization found no background contrast")
    return mask


def extract_midline(mask: np.ndarray, spec: ImageSpec,
                    max_len_mm: float) -> Centerline:
    """Midline of a binary band by per-row boundary averaging.

    Per image row, the midpoint of the leftmost and rightmost foreground
    pixels is taken; points are converted to root-relative mm, cut at the
    physical length `max_len_mm` (discarding the rounded tip cap of the
    band) and resampled to MIDLINE_POINTS uniform arc-length points
    starting at the root. Requires a mask of the camera's (height,
    width) with a single 4-connected component touching the root row.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (spec.height, spec.width):
        size = "x".join(map(str, mask.shape[::-1]))
        raise VisionError(f"frame is {size} px; the camera's is "
                          f"{spec.width}x{spec.height}")
    on_row = mask.any(axis=1)
    rows = np.flatnonzero(on_row)
    if len(rows) == 0:
        raise VisionError("mask has no foreground")
    # The runs of the foreground's bounding box: its components are the
    # mask's.
    on_col = np.flatnonzero(mask.any(axis=0))
    run_row, first, stop = _row_runs(
        mask[rows[0]:rows[-1] + 1, on_col[0]:on_col[-1] + 1])
    n_comp = _count_components(run_row, first, stop)
    if n_comp > 1:
        raise VisionError(f"mask has {n_comp} foreground components; "
                          "expected a single band")
    root_row = int(round(spec.origin_px[1]))
    if not on_row[root_row]:
        raise VisionError("foreground does not touch the root row")

    below = rows >= root_row
    rows = rows[below]
    if len(rows) < 2:
        raise VisionError("band spans fewer than 2 rows below the root")
    if np.any(np.diff(rows) > 3):
        raise VisionError("band is discontinuous (row gap > 2)")
    left, right = _row_ends(run_row, first, stop)
    cols = on_col[0] + (left[below] + right[below]) * 0.5
    x = (cols - spec.origin_px[0]) * spec.scale_mm_per_px
    y = (rows - spec.origin_px[1]) * spec.scale_mm_per_px
    pts = np.column_stack([x, y])
    pts[0] = 0.0

    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = np.linspace(0.0, min(cum[-1], float(max_len_mm)),
                         MIDLINE_POINTS)
    res = np.column_stack([np.interp(target, cum, pts[:, 0]),
                           np.interp(target, cum, pts[:, 1])])
    return Centerline(res)


def _row_runs(mask: np.ndarray):
    """Foreground runs of a 2-D boolean mask in row-major order: each
    run's row, first column and end column (one past its last)."""
    edge = np.diff(mask, axis=1, prepend=False, append=False)
    row, col = np.divmod(np.flatnonzero(edge), edge.shape[1])
    return row[::2], col[::2], col[1::2]


def _row_ends(row, first, stop):
    """First and last foreground column of each row that holds a run:
    the start of its first run and the end of its last, less one."""
    new_row = np.flatnonzero(np.diff(row, prepend=-1))
    last = np.append(new_row[1:], len(row)) - 1
    return first[new_row], stop[last] - 1


def _count_components(row, first, stop) -> int:
    """Number of 4-connected components of the runs `_row_runs` gives.

    Two runs join when they lie in adjacent rows and share a column; the
    runs above run b that share a column with it are [lo[b], hi[b]), all
    earlier than b. Each run hangs under lo, its leftmost such run, so
    the runs that touch none above are the roots of a forest; a
    union-find over that forest then joins each run's other runs above.
    """
    width = int(stop.max(initial=0)) + 1
    key = row * width
    lo = np.searchsorted(key + stop, key - width + first, side="right")
    hi = np.searchsorted(key + first, key - width + stop, side="left")
    link = np.where(hi > lo, lo, np.arange(len(row))).tolist()
    n_comp = int(np.count_nonzero(hi == lo))

    def find(i):
        while link[i] != i:
            link[i] = link[link[i]]
            i = link[i]
        return i

    for b in np.flatnonzero(hi - lo > 1).tolist():
        for a in range(lo[b] + 1, hi[b]):
            ra, rb = find(a), find(b)
            if ra != rb:
                link[max(ra, rb)] = min(ra, rb)
                n_comp -= 1
    return n_comp


def write_pgm(pixels: np.ndarray, path) -> None:
    """Write a (height, width) uint8 frame as binary PGM (P5, maxval 255)."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"a frame is a uint8 array, not {pixels.dtype}")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(np.ascontiguousarray(pixels).data)


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM file as a (height, width) uint8 frame of at
    least 16x16 px; ImageSpec describes its camera."""
    with open(path, "rb") as f:
        data = f.read()
    m = _PGM_HEADER.match(data)
    if m is None:
        raise VisionError(f"not a PGM file or malformed PGM header: {path}")
    w, h, maxval = (int(v) for v in m.groups())
    if maxval != 255:
        raise VisionError(f"only maxval 255 PGM is supported: {path}")
    if w < 16 or h < 16:
        raise VisionError(f"PGM is {w}x{h} px; at least 16x16 is needed: "
                          f"{path}")
    size = len(data) - m.end()
    if size != w * h:
        raise VisionError(f"PGM payload holds {size} samples, "
                          f"{w}x{h} px need {w * h}: {path}")
    # The one copy: frombuffer's view of the bytes read is read-only.
    return np.frombuffer(data, np.uint8, offset=m.end()).reshape(h, w).copy()


def midline_to_csv(cl: Centerline, path) -> None:
    """Write a midline as s,x_mm,y_mm rows, s its normalized arc length."""
    seg = np.concatenate([[0.0], np.cumsum(cl.segment_lengths)])
    write_csv(path, "s,x_mm,y_mm", np.column_stack([seg / seg[-1], cl.points]))


def midline_from_csv(path) -> Centerline:
    c = read_csv(path, ("x_mm", "y_mm"))
    return Centerline(np.column_stack([c["x_mm"], c["y_mm"]]))
