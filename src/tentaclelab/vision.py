"""Synthetic silhouette rendering and midline extraction.

Stands in for the camera pipeline: a known configuration is rendered as
a dark tapered band on a light background, thresholded, and reduced to
its midline by per-row boundary averaging. Images travel as binary
(P5) PGM files, midlines as CSV.

A pixel's anti-aliased level comes from its nearest centerline sample,
but only the band's rim asks a k-d tree for it: around each sample lies
a disk in which every pixel's nearest sample, whichever it is, is wide
enough to give alpha 1, so those pixels are filled as foreground
directly (see `_interior_radius`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

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
        for size in (self.width, self.height):
            integer = isinstance(size, (int, np.integer))
            if not integer or isinstance(size, bool):
                raise ValueError(f"image size must be an integer, "
                                 f"not {size!r}")
        if self.width < 16 or self.height < 16:
            raise ValueError("image must be at least 16x16 px")
        if not (np.isfinite(self.scale_mm_per_px)
                and self.scale_mm_per_px > 0):
            raise ValueError("scale must be positive and finite")
        col, row = self.origin_px
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
    from scipy.spatial import cKDTree   # only render needs it

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
    # from the background; the disks of radius `margin` cover them all.
    c0 = int(np.floor((col - margin).min()))
    c1 = int(np.ceil((col + margin).max())) + 1
    r0 = int(np.floor((row - margin).min()))
    r1 = int(np.ceil((row + margin).max())) + 1
    shape = (r1 - r0, c1 - c0)
    cover = _disk_cover(col - c0, row - r0, margin, shape)
    # Pixels the interior disks reach are solid foreground; only the
    # ring between them and the cover goes through the tree.
    tree = cKDTree(np.column_stack([col, row]))
    r = _interior_radius(tree, col, row, half)
    solid = r > 0.0
    inner = _disk_cover(col[solid] - c0, row[solid] - r0, r[solid], shape)
    ring = cover & ~inner
    rr, cc = np.nonzero(ring)
    dist, idx = tree.query(np.column_stack([cc + c0, rr + r0]))
    # Signed distance to the band edge; 1 px linear anti-alias ramp.
    alpha = np.clip(0.5 + (half[idx] - dist), 0.0, 1.0)
    pix = np.full((spec.height, spec.width), _BG_LEVEL, dtype=np.uint8)
    box = pix[r0:r1, c0:c1]
    box[inner] = _FG_LEVEL
    box[ring] = np.round(_BG_LEVEL - alpha * (_BG_LEVEL - _FG_LEVEL))
    return pix


def _interior_radius(tree, col, row, half) -> np.ndarray:
    """Per-sample radius within which every pixel has alpha exactly 1.

    low[k] is the smallest half-width among the samples within
    2 * half[k] of sample k. A pixel within r = low - 0.5 of sample k has
    its nearest sample j within 2 * r < 2 * half[k] of k, so
    half[j] >= low[k] and 0.5 + half[j] - dist >= 1 whichever j the tree
    returns. Both pair directions count, so no taper shape is assumed.
    The 1e-9 px absorbs rounding in the disk spans and distances. Radii
    <= 0 mark samples with no such disk.
    """
    i, j = tree.query_pairs(2.0 * half.max(), output_type="ndarray").T
    d = np.hypot(col[i] - col[j], row[i] - row[j])
    low = half.copy()
    for a, b in ((i, j), (j, i)):
        near = d <= 2.0 * half[a]
        np.minimum.at(low, a[near], half[b[near]])
    return low - 0.5 - 1e-9


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
    """Between-class-variance maximizing threshold of an 8-bit image."""
    hist = _byte_histogram(np.asarray(pixels, dtype=np.uint8)).astype(float)
    total = hist.sum()
    w0 = np.cumsum(hist)
    m = np.cumsum(hist * np.arange(256))
    w1 = total - w0
    mu0 = np.where(w0 > 0, m / np.maximum(w0, 1), 0.0)
    mu1 = np.where(w1 > 0, (m[-1] - m) / np.maximum(w1, 1), 0.0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return int(np.argmax(between))


def _byte_histogram(pixels: np.ndarray) -> np.ndarray:
    """256-bin count of a uint8 array, equal to np.bincount's.

    The bytes are counted in pairs, viewed as uint16: the 65536-bin count
    of the pairs, reshaped (256, 256), gives each byte's count as its row
    sum plus its column sum, whatever the byte order. That halves the
    number of intp indices bincount makes; an odd last byte is counted
    alone.
    """
    flat = np.ascontiguousarray(pixels).ravel()
    even = len(flat) - len(flat) % 2
    pairs = np.bincount(flat[:even].view(np.uint16),
                        minlength=65536).reshape(256, 256)
    return (pairs.sum(axis=0) + pairs.sum(axis=1)
            + np.bincount(flat[even:], minlength=256))


def binarize(pixels: np.ndarray) -> np.ndarray:
    """Boolean foreground mask of the pixels at or below Otsu's threshold.

    On a frame with two or more grey levels the threshold lies at or above
    the darkest and below the brightest, so the mask has both classes; a
    flat frame raises VisionError.
    """
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
    starting at the root. Requires a single 4-connected component
    touching the root row.
    """
    from scipy import ndimage   # only midline needs it

    mask = np.asarray(mask, dtype=bool)
    on_row = mask.any(axis=1)
    rows = np.flatnonzero(on_row)
    if len(rows) == 0:
        raise VisionError("mask has no foreground")
    # Label the foreground bounding box only; components are unchanged.
    on_col = np.flatnonzero(mask.any(axis=0))
    _, n_comp = ndimage.label(
        mask[rows[0]:rows[-1] + 1, on_col[0]:on_col[-1] + 1],
        structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    if n_comp > 1:
        raise VisionError(f"mask has {n_comp} foreground components; "
                          "expected a single band")
    root_row = int(round(spec.origin_px[1]))
    if not on_row[root_row]:
        raise VisionError("foreground does not touch the root row")

    rows = rows[rows >= root_row]
    if len(rows) < 2:
        raise VisionError("band spans fewer than 2 rows below the root")
    if np.any(np.diff(rows) > 3):
        raise VisionError("band is discontinuous (row gap > 2)")
    cols = _row_centres(mask[rows])
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


def _row_centres(rows: np.ndarray) -> np.ndarray:
    """Midpoint of the first and last True column of each nonempty row."""
    first = np.argmax(rows, axis=1)
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1], axis=1)
    return (first + last) * 0.5


def write_pgm(pixels: np.ndarray, path) -> None:
    """Write a (height, width) uint8 frame as binary PGM (P5, maxval 255)."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"a frame is a uint8 array, not {pixels.dtype}")
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(pixels.tobytes())


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
    pix = np.frombuffer(data[m.end():], dtype=np.uint8)
    if pix.size != w * h:
        raise VisionError(f"PGM payload holds {pix.size} samples, "
                          f"{w}x{h} px need {w * h}: {path}")
    return pix.astype(np.uint8).reshape(h, w)


def midline_to_csv(cl: Centerline, path) -> None:
    """Write a midline as s,x_mm,y_mm rows, s its normalized arc length."""
    seg = np.concatenate([[0.0], np.cumsum(cl.segment_lengths)])
    write_csv(path, "s,x_mm,y_mm", np.column_stack([seg / seg[-1], cl.points]))


def midline_from_csv(path) -> Centerline:
    c = read_csv(path, ("x_mm", "y_mm"))
    return Centerline(np.column_stack([c["x_mm"], c["y_mm"]]))
