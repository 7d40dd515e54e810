import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from tentaclelab.fitting import Centerline, fit_affine
from tentaclelab.kinematics import (CurvatureState, TentacleGeometry,
                                    sample_centerline)
from tentaclelab.vision import (MIDLINE_POINTS, ImageSpec, VisionError,
                                binarize, extract_midline, midline_from_csv,
                                midline_to_csv, otsu_threshold, read_pgm,
                                render_silhouette, write_pgm)
from tentaclelab.vision import (_RUN, _SEARCH_ENTRIES, _byte_histogram,
                                _centerline_px, _count_components,
                                _disk_cover, _interior_radius,
                                _nearest_sample, _row_ends, _row_runs)

GEOM = TentacleGeometry()
SPEC = ImageSpec()


def render_mask(q1, q2, spec=SPEC):
    img = render_silhouette(CurvatureState(q1, q2), GEOM, spec)
    return binarize(img)


class TestImageSpec:
    def test_defaults(self):
        assert SPEC.width == 960 and SPEC.height == 560

    def test_too_small(self):
        with pytest.raises(ValueError):
            ImageSpec(width=8)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            ImageSpec(scale_mm_per_px=0.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            ImageSpec(scale_mm_per_px=scale)

    @pytest.mark.parametrize("size", [True, 100.0, np.float64(100.0)])
    @pytest.mark.parametrize("field", ["width", "height"])
    def test_size_not_integer(self, field, size):
        with pytest.raises(ValueError, match="integer"):
            ImageSpec(**{field: size}, origin_px=(0.0, 0.0))

    def test_numpy_integer_size(self):
        spec = ImageSpec(width=np.int64(100), height=np.int32(80),
                         origin_px=(50.0, 10.0))
        assert spec.width == 100 and spec.height == 80

    @pytest.mark.parametrize("origin", [(5000.0, 5000.0), (-0.5, 40.0),
                                        (960.0, 40.0), (480.0, 559.5)])
    def test_origin_outside_frame(self, origin):
        with pytest.raises(ValueError, match="outside"):
            ImageSpec(origin_px=origin)

    @pytest.mark.parametrize("origin", [(480.0, 40.0, 0.0), ("a", 40.0),
                                        (np.nan, 40.0)],
                             ids=["three_entries", "string", "nan"])
    def test_origin_not_two_numbers(self, origin):
        with pytest.raises(ValueError, match="origin_px"):
            ImageSpec(origin_px=origin)

    def test_origin_on_frame_edge(self):
        ImageSpec(origin_px=(0.0, 0.0))
        ImageSpec(origin_px=(959.0, 559.0))


class TestRenderSilhouette:
    def test_straight_is_column_symmetric(self):
        img = render_silhouette(CurvatureState(0.0, 0.0), GEOM, SPEC)
        c = int(SPEC.origin_px[0])
        w = 100
        left = img[:, c - w:c]
        right = img[:, c + 1:c + w + 1]
        assert np.array_equal(left, right[:, ::-1])

    def test_mirror_symmetry(self):
        a = render_silhouette(CurvatureState(1.0, -0.5), GEOM, SPEC)
        b = render_silhouette(CurvatureState(-1.0, 0.5), GEOM, SPEC)
        c = int(SPEC.origin_px[0])
        # Reflect about the root column.
        flipped = b[:, ::-1]
        shift = b.shape[1] - 1 - 2 * c
        assert np.array_equal(a, np.roll(flipped, -shift, axis=1))

    def test_bend_direction(self):
        # q1 > 0 bends toward negative x, left of the root column.
        mask = render_mask(1.0, 0.0)
        cols = np.flatnonzero(mask.any(axis=0))
        c = SPEC.origin_px[0]
        left_mass = mask[:, :int(c)].sum()
        right_mass = mask[:, int(c) + 1:].sum()
        assert left_mass > 2 * right_mass
        assert cols.min() < c - 100

    def test_band_area(self):
        # Foreground area tracks the tapered-band integral: width from
        # 24 mm at the root to 6 mm at the tip over 220 mm, plus caps.
        mask = render_mask(0.0, 0.0)
        area_mm2 = mask.sum() * SPEC.scale_mm_per_px**2
        band = 220.0 * 0.5 * (24.0 + 6.0)
        caps = 0.5 * np.pi * 12.0**2 + 0.5 * np.pi * 3.0**2
        assert abs(area_mm2 - (band + caps)) < 0.05 * (band + caps)

    def test_out_of_frame_error(self):
        small = ImageSpec(width=200, height=200, origin_px=(100.0, 10.0))
        with pytest.raises(VisionError):
            render_silhouette(CurvatureState(0.0, 0.0), GEOM, small)

    def test_levels(self):
        img = render_silhouette(CurvatureState(0.5, 0.0), GEOM, SPEC)
        assert img.min() == 25
        assert img.max() == 230

    # A straight, a bent and a curled frame.
    @pytest.mark.parametrize("q", [(0.8, -0.4), (2.5, -2.0), (0.0, 0.0)])
    def test_allocation_peak(self, q):
        # The nearest-sample search goes through the rim in blocks; one
        # pass over the whole rim peaked at 4.7-4.9 MB.
        render_silhouette(CurvatureState(*q), GEOM, SPEC)
        tracemalloc.start()
        try:
            render_silhouette(CurvatureState(*q), GEOM, SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5e6


# 128 x 96 px at 4 mm/px: small enough for a full distance matrix.
SMALL = ImageSpec(width=128, height=96, scale_mm_per_px=4.0,
                  origin_px=(64.0, 24.0))


def brute_force_render(q, spec):
    """Nearest sample of every frame pixel by a full distance matrix,
    with the renderer's alpha formula and levels."""
    col, row, half = _centerline_px(CurvatureState(*q), GEOM, spec, 600)
    rr, cc = np.mgrid[0:spec.height, 0:spec.width]
    dc = cc.reshape(-1, 1) - col
    dr = rr.reshape(-1, 1) - row
    d = np.sqrt(dc * dc + dr * dr)
    idx = np.argmin(d, axis=1)
    dist = d[np.arange(len(idx)), idx]
    alpha = np.clip(0.5 + (half[idx] - dist), 0.0, 1.0)
    return np.round(230 - alpha * 205).astype(np.uint8).reshape(rr.shape)


class TestRenderExactness:
    # Straight, curled past horizontal, and two states whose band
    # overlaps itself after a full turn.
    @pytest.mark.parametrize("q", [(0.0, 0.0), (2.5, -1.5), (8.0, 0.0),
                                   (-7.0, -4.0)])
    def test_matches_brute_force(self, q):
        img = render_silhouette(CurvatureState(*q), GEOM, SMALL)
        assert np.array_equal(img, brute_force_render(q, SMALL))

    # sha256 of the pixels, computed with the full-bounding-box query
    # renderer this cover-mask renderer replaced, before it was changed.
    @pytest.mark.parametrize("q, digest", [
        ((0.0, 0.0), "74f3d1df7a001e419dca6a76b063ec35"
                     "d1baed241a0505f9109a5d8e8f66441b"),
        ((0.8, -0.4), "b92b904bbb5050bad4a423ef1ac8ccf3"
                      "0f9a31b7c8b1f28412fc1ef05bcd9caf"),
        ((-1.2, 0.9), "580daa18cd79cffea193af1acb03aab6"
                      "f7a225dfaf9a7156bf78d5c9fc2b5b4d"),
        ((2.5, -2.0), "16fd0cf58ec5be27053df51b14ee020e"
                      "1bdb4222cf7accaff2eeb3e0c1e8defe"),
        ((-3.0, 4.0), "889b1360bc2d9659d0c5ac953347214c"
                      "19e319bfd1885bb84788e81ede2d7478"),
        ((0.3, 5.5), "3499b16fc806ccfa820455902a3d6f75"
                     "291d95a9892b5229b5601ffa01c5e813"),
    ])
    def test_pinned_digest(self, q, digest):
        img = render_silhouette(CurvatureState(*q), GEOM, SPEC)
        assert hashlib.sha256(img.tobytes()).hexdigest() == digest

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-np.pi, np.pi), st.floats(-6.0, 6.0))
    def test_cover_holds_every_band_pixel(self, q1, q2):
        col, row, half = _centerline_px(CurvatureState(q1, q2), GEOM, SPEC,
                                        600)
        margin = half + 1.0
        assume((col - margin).min() >= 0 and (row - margin).min() >= 0
               and (col + margin).max() <= SPEC.width - 1
               and (row + margin).max() <= SPEC.height - 1)
        # The renderer's cover radius: alpha is 0 beyond half + 0.5.
        cover = _disk_cover(col, row, half + 0.5 + 1e-9,
                            (SPEC.height, SPEC.width))
        rr, cc = np.mgrid[int(row.min() - margin.max()):
                          int(row.max() + margin.max()) + 1,
                          int(col.min() - margin.max()):
                          int(col.max() + margin.max()) + 1]
        dist, idx = cKDTree(np.column_stack([col, row])).query(
            np.column_stack([cc.ravel(), rr.ravel()]))
        band = 0.5 + (half[idx] - dist) > 0.0
        assert cover[rr.ravel()[band], cc.ravel()[band]].all()


def full_cover_render(q, spec):
    """The renderer before the interior fill: every cover pixel goes
    through the tree."""
    col, row, half = _centerline_px(q, GEOM, spec, 600)
    margin = half + 1.0
    c0 = int(np.floor((col - margin).min()))
    c1 = int(np.ceil((col + margin).max())) + 1
    r0 = int(np.floor((row - margin).min()))
    r1 = int(np.ceil((row + margin).max())) + 1
    cover = _disk_cover(col - c0, row - r0, margin, (r1 - r0, c1 - c0))
    rr, cc = np.nonzero(cover)
    dist, idx = cKDTree(np.column_stack([col, row])).query(
        np.column_stack([cc + c0, rr + r0]))
    alpha = np.clip(0.5 + (half[idx] - dist), 0.0, 1.0)
    pix = np.full((spec.height, spec.width), 230, dtype=np.uint8)
    pix[r0:r1, c0:c1][cover] = np.round(230 - alpha * 205)
    return pix


class TestInteriorFill:
    def test_matches_full_cover_renderer(self):
        # Both materials' bends stay within |q| <= 3.5 rad.
        rng = np.random.default_rng(24)
        rendered = 0
        while rendered < 200:
            q = CurvatureState(*rng.uniform(-3.5, 3.5, 2))
            try:
                img = render_silhouette(q, GEOM, SPEC)
            except VisionError:
                continue
            assert np.array_equal(img, full_cover_render(q, SPEC)), q
            rendered += 1

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-8.0, 8.0), st.floats(-6.0, 6.0))
    def test_filled_pixels_are_solid(self, q1, q2):
        # Every pixel an interior disk reaches has alpha exactly 1 by a
        # full distance matrix over the samples.
        col, row, half = _centerline_px(CurvatureState(q1, q2), GEOM, SMALL,
                                        600)
        margin = half + 1.0
        assume((col - margin).min() >= 0 and (row - margin).min() >= 0
               and (col + margin).max() <= SMALL.width - 1
               and (row + margin).max() <= SMALL.height - 1)
        r = _interior_radius(col, row, half)
        solid = r > 0.0
        inner = _disk_cover(col[solid], row[solid], r[solid],
                            (SMALL.height, SMALL.width))
        rr, cc = np.nonzero(inner)
        d = np.hypot(cc[:, None] - col, rr[:, None] - row)
        idx = np.argmin(d, axis=1)
        alpha = 0.5 + (half[idx] - d[np.arange(len(idx)), idx])
        assert len(rr) > 0 and (alpha >= 1.0).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_any_half_widths_stay_solid(self, seed):
        # No taper assumed: a random-walk centerline whose half-widths
        # jump between 2 and 8 px from sample to sample.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        heading = np.cumsum(rng.normal(0.0, 0.6, n))
        col = 20.0 + np.cumsum(0.7 * np.cos(heading))
        row = 20.0 + np.cumsum(0.7 * np.sin(heading))
        col += 10.0 - col.min()
        row += 10.0 - row.min()
        half = rng.uniform(2.0, 8.0, n)
        r = _interior_radius(col, row, half)
        solid = r > 0.0
        shape = (int(row.max()) + 12, int(col.max()) + 12)
        inner = _disk_cover(col[solid], row[solid], r[solid], shape)
        rr, cc = np.nonzero(inner)
        dist, idx = nearest_reference(col, row, cc, rr)
        assert len(rr) > 0 and (0.5 + (half[idx] - dist) >= 1.0).all()


def nearest_reference(col, row, x, y):
    """Nearest sample by a full distance matrix, lowest index on a tie."""
    dc = x[:, None] - col
    dr = y[:, None] - row
    d = np.sqrt(dc * dc + dr * dr)
    idx = np.argmin(d, axis=1)
    return d[np.arange(len(idx)), idx], idx


class TestNearestSample:
    # Sample counts that leave the last run full, one sample long and
    # part full.
    @settings(max_examples=40, deadline=None)
    @given(st.floats(-8.0, 8.0), st.floats(-6.0, 6.0),
           st.sampled_from([600, 601, 615, 640]), st.integers(0, 2**32 - 1))
    def test_matches_full_distance_matrix(self, q1, q2, n, seed):
        col, row, _ = _centerline_px(CurvatureState(q1, q2), GEOM, SMALL, n)
        rng = np.random.default_rng(seed)
        # Pixel centres and arbitrary points anywhere in the frame.
        x = np.concatenate([rng.integers(0, SMALL.width, 500),
                            rng.uniform(0, SMALL.width - 1, 1000)])
        y = np.concatenate([rng.integers(0, SMALL.height, 500),
                            rng.uniform(0, SMALL.height - 1, 1000)])
        dist, idx = _nearest_sample(col, row, x, y)
        ref_dist, ref_idx = nearest_reference(col, row, x, y)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)

    def test_tie_goes_to_lowest_index(self):
        # Samples 3, 20, 37 and 40 (three runs) share one position, and
        # (0, 0) lies 1 px from both samples 10 and 45; the rest lie on a
        # circle of radius 100 px.
        angle = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        col = 100.0 * np.cos(angle)
        row = 100.0 * np.sin(angle)
        col[[3, 20, 37, 40]] = 5.0
        row[[3, 20, 37, 40]] = 2.0
        col[[10, 45]] = 0.0
        row[[10, 45]] = [1.0, -1.0]
        x = np.array([5.0, 5.0, 0.0, 3.0])
        y = np.array([2.0, 2.5, 0.0, 2.0])
        dist, idx = _nearest_sample(col, row, x, y)
        ref_dist, ref_idx = nearest_reference(col, row, x, y)
        assert idx.tolist() == ref_idx.tolist() == [3, 3, 10, 3]
        assert np.array_equal(dist, ref_dist)

    def test_block_edges(self):
        # 600 samples on a circle of radius 100 px, except two pairs in
        # other runs that tie exactly at distance 1 and 2 from (0, 0) and
        # (20, 0). Tied points sit on both sides of each block edge.
        angle = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
        col = 100.0 * np.cos(angle)
        row = 100.0 * np.sin(angle)
        col[[37, 300, 100, 450]] = [0.0, 0.0, 20.0, 20.0]
        row[[37, 300, 100, 450]] = [1.0, -1.0, -2.0, 2.0]
        block = _SEARCH_ENTRIES // -(-len(col) // _RUN)
        rng = np.random.default_rng(28)
        for n in (0, 1, block - 1, block, block + 1, 2 * block + 1):
            x = rng.uniform(-110.0, 110.0, n)
            y = rng.uniform(-110.0, 110.0, n)
            before = [i for i in (0, block - 1, 2 * block - 1) if i < n]
            after = [i for i in (block, 2 * block) if i < n]
            x[before], y[before] = 0.0, 0.0
            x[after], y[after] = 20.0, 0.0
            dist, idx = _nearest_sample(col, row, x, y)
            ref_dist, ref_idx = nearest_reference(col, row, x, y)
            assert np.array_equal(idx, ref_idx), n
            assert dist.tobytes() == ref_dist.tobytes(), n
            assert idx[before].tolist() == [37] * len(before)
            assert dist[before].tolist() == [1.0] * len(before)
            assert idx[after].tolist() == [100] * len(after)
            assert dist[after].tolist() == [2.0] * len(after)


class TestDiskCover:
    def test_single_disk(self):
        cover = _disk_cover(np.array([5.0]), np.array([4.0]),
                            np.array([2.0]), (9, 11))
        rr, cc = np.mgrid[0:9, 0:11]
        assert np.array_equal(cover, (cc - 5) ** 2 + (rr - 4) ** 2 <= 4)

    def test_overlapping_disks_stay_covered(self):
        cover = _disk_cover(np.array([4.0, 6.0]), np.array([4.0, 4.0]),
                            np.array([2.5, 2.5]), (9, 11))
        assert cover[4, 2:9].all() and not cover[4, 9:].any()


class TestBinarize:
    def test_two_level_otsu(self):
        px = np.full((32, 32), 200, dtype=np.uint8)
        px[8:24, 8:24] = 50
        t = otsu_threshold(px)
        assert 50 <= t < 200
        mask = binarize(px)
        assert mask.sum() == 16 * 16

    def test_flat_image_rejected(self):
        px = np.full((32, 32), 128, dtype=np.uint8)
        with pytest.raises(VisionError):
            binarize(px)

    def test_empty_foreground_rejected(self):
        # A flat frame has no contrast, whatever its level.
        for level in (0, 128, 255):
            px = np.full((32, 32), level, dtype=np.uint8)
            with pytest.raises(VisionError, match="no background contrast"):
                binarize(px)

    def test_float_frame_compares_its_uint8_cast(self):
        # Otsu's threshold is computed on the uint8 cast (100 here), so
        # the frame is compared as that cast, not as 100.5.
        px = np.full((32, 32), 200.5)
        px[8:24, 8:24] = 100.5
        mask = binarize(px)
        assert mask.sum() == 16 * 16 and mask[8:24, 8:24].all()

    @pytest.mark.parametrize("level", [300.0, -5.0, np.nan])
    def test_out_of_range_float_frame_rejected(self, level):
        # The uint8 cast would wrap these (300.0 to 44, -5.0 to 251) or
        # cast NaN with only a RuntimeWarning.
        px = np.full((32, 32), 200.0)
        px[8:24, 8:24] = level
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (otsu_threshold, binarize):
                with pytest.raises(ValueError, match=r"within \[0, 255\]"):
                    fn(px)

    def test_brightness_shift_invariance(self):
        img = render_silhouette(CurvatureState(0.8, -0.4), GEOM, SPEC)
        shifted = np.clip(img.astype(int) + 20, 0, 255).astype(np.uint8)
        assert np.array_equal(binarize(img), binarize(shifted))


def otsu_reference(pixels):
    """otsu_threshold with the histogram from np.bincount of every byte."""
    hist = np.bincount(np.asarray(pixels, dtype=np.uint8).ravel(),
                       minlength=256).astype(float)
    w0 = np.cumsum(hist)
    m = np.cumsum(hist * np.arange(256))
    w1 = hist.sum() - w0
    mu0 = np.where(w0 > 0, m / np.maximum(w0, 1), 0.0)
    mu1 = np.where(w1 > 0, (m[-1] - m) / np.maximum(w1, 1), 0.0)
    return int(np.argmax(w0 * w1 * (mu0 - mu1) ** 2))


class TestByteHistogram:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 1001, 1002])
    def test_sizes(self, n):
        px = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
        assert np.array_equal(_byte_histogram(px),
                              np.bincount(px, minlength=256))

    @pytest.mark.parametrize("shape", [(33, 17), (32, 18), (560, 960)])
    def test_frames_and_views(self, shape):
        px = np.random.default_rng(1).integers(0, 256, shape, dtype=np.uint8)
        for view in (px, px.T, px[:, ::3], px[1::2, 1:], px[::-1, ::-1]):
            assert np.array_equal(_byte_histogram(view),
                                  np.bincount(view.ravel(), minlength=256))

    @pytest.mark.parametrize("px", [
        # A crop from the root pixel: the first byte is foreground.
        render_silhouette(CurvatureState(0.8, -0.4), GEOM, SPEC)[40:, 480:],
        np.full((32, 32), 7, dtype=np.uint8),
        np.clip(render_silhouette(CurvatureState(0.8, -0.4), GEOM, SPEC)
                + np.random.default_rng(6).normal(0.0, 3.0, (560, 960)),
                0, 255).astype(np.uint8),
    ], ids=["first_pixel_foreground", "single_level", "noise_sigma_3"])
    def test_rendered_and_flat_frames(self, px):
        assert np.array_equal(_byte_histogram(px),
                              np.bincount(px.ravel(), minlength=256))

    @pytest.mark.parametrize("px", [
        np.random.default_rng(2).random((20, 21)) < 0.3,
        np.random.default_rng(3).uniform(0.0, 255.0, (20, 21)),
        np.random.default_rng(4).integers(0, 256, (20, 21)),
    ], ids=["bool", "float", "int64"])
    def test_otsu_casts_as_before(self, px):
        assert otsu_threshold(px) == otsu_reference(px)

    def test_otsu_on_frames(self):
        for q in [(0.0, 0.0), (0.8, -0.4), (2.5, -2.0)]:
            img = render_silhouette(CurvatureState(*q), GEOM, SPEC)
            assert otsu_threshold(img) == otsu_reference(img)
            assert otsu_threshold(img[1:, 1:]) == otsu_reference(img[1:, 1:])


class TestExtractMidline:
    def test_straight_band(self):
        # Vertical rectangle below the root maps to a straight midline.
        mask = np.zeros((200, 100), dtype=bool)
        mask[40:180, 45:56] = True
        spec = ImageSpec(width=100, height=200, scale_mm_per_px=1.0,
                         origin_px=(50.0, 40.0))
        cl = extract_midline(mask, spec, max_len_mm=200.0)
        assert len(cl) == MIDLINE_POINTS
        assert np.allclose(cl.points[:, 0], 0.0, atol=0.5)
        assert cl.points[-1, 1] == pytest.approx(139.0, abs=1.0)

    def test_roundtrip_reconstruction(self):
        from scipy.spatial import cKDTree
        truth = CurvatureState(0.8, -0.4)
        mask = render_mask(0.8, -0.4)
        cl = extract_midline(mask, SPEC, max_len_mm=GEOM.length_mm)
        ref = sample_centerline(truth, TentacleGeometry(n_samples=2000))
        dist, _ = cKDTree(ref).query(cl.points)
        rms = np.sqrt(np.mean(dist**2))
        assert rms < 2.0 * SPEC.scale_mm_per_px

    def test_roundtrip_fit(self):
        mask = render_mask(0.6, 0.3)
        cl = extract_midline(mask, SPEC, max_len_mm=GEOM.length_mm)
        fit = fit_affine(cl, GEOM.length_mm)
        assert fit.state.q1 == pytest.approx(0.6, abs=0.05)
        assert fit.state.q2 == pytest.approx(0.3, abs=0.1)

    def test_two_components_rejected(self):
        mask = np.zeros((100, 100), dtype=bool)
        mask[40:60, 10:20] = True
        mask[40:60, 60:70] = True
        spec = ImageSpec(width=100, height=100, origin_px=(15.0, 40.0))
        with pytest.raises(VisionError):
            extract_midline(mask, spec, max_len_mm=100.0)

    def test_empty_mask_rejected(self):
        spec = ImageSpec(width=100, height=100, origin_px=(50.0, 40.0))
        with pytest.raises(VisionError):
            extract_midline(np.zeros((100, 100), dtype=bool), spec,
                            max_len_mm=100.0)

    def test_detached_from_root_rejected(self):
        mask = np.zeros((100, 100), dtype=bool)
        mask[60:90, 40:50] = True
        spec = ImageSpec(width=100, height=100, origin_px=(45.0, 10.0))
        with pytest.raises(VisionError):
            extract_midline(mask, spec, max_len_mm=100.0)

    def test_max_len_trims_tip_cap(self):
        mask = render_mask(0.0, 0.0)
        full = extract_midline(mask, SPEC, max_len_mm=2 * GEOM.length_mm)
        trimmed = extract_midline(mask, SPEC, max_len_mm=GEOM.length_mm)
        length = trimmed.segment_lengths.sum()
        assert length == pytest.approx(GEOM.length_mm, abs=0.5)
        assert full.segment_lengths.sum() > length


class TestRowRuns:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = rng.random((30, int(rng.integers(1, 60)))) < 0.1
            rows[np.arange(30), rng.integers(0, rows.shape[1], 30)] = True
            loop = np.array([(np.flatnonzero(r).min()
                              + np.flatnonzero(r).max()) * 0.5
                             for r in rows])
            left, right = _row_ends(*_row_runs(rows))
            assert np.array_equal((left + right) * 0.5, loop)

    @pytest.mark.parametrize("seed", range(10))
    def test_runs_rebuild_the_mask(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((int(rng.integers(1, 40)),
                           int(rng.integers(1, 40)))) < rng.uniform(0.05, 0.95)
        row, first, stop = _row_runs(mask)
        rebuilt = np.zeros_like(mask)
        for r, a, b in zip(row, first, stop):
            assert a < b and not rebuilt[r, a:b].any()
            rebuilt[r, a:b] = True
        assert np.array_equal(rebuilt, mask)
        # Row-major order, and runs of one row never touch.
        order = np.lexsort((first, row))
        assert np.array_equal(order, np.arange(len(row)))
        same = row[1:] == row[:-1]
        assert (first[1:][same] > stop[:-1][same]).all()


CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def component_masks():
    rng = np.random.default_rng(25)
    masks = [np.zeros((5, 7), bool), np.ones((5, 7), bool),
             np.ones((1, 1), bool), np.eye(6, dtype=bool),
             np.eye(6, dtype=bool)[::-1] | np.eye(6, dtype=bool),
             (np.indices((9, 11)).sum(axis=0) % 2).astype(bool)]
    for k in range(60):
        shape = (int(rng.integers(1, 30)), int(rng.integers(1, 30)))
        mask = rng.random(shape) < rng.uniform(0.05, 0.8)
        if k % 3 == 0:
            # Diagonal-only contacts: a checkerboard patch.
            r, c = rng.integers(0, shape[0]), rng.integers(0, shape[1])
            patch = mask[r:r + 6, c:c + 6]
            patch[:] = np.indices(patch.shape).sum(axis=0) % 2 == 0
        if k % 3 == 1:
            # 1-pixel runs only: one pixel in every other column.
            mask &= np.arange(shape[1]) % 2 == 0
        rows = rng.integers(0, shape[0], 2)
        mask[rows[0]] = False
        mask[rows[1]] = k % 2 == 0
        masks.append(mask)
    return masks


class TestCountComponents:
    @pytest.mark.parametrize("mask", component_masks())
    def test_matches_ndimage_label(self, mask):
        _, want = ndimage.label(mask, structure=CROSS)
        assert _count_components(*_row_runs(mask)) == want

    def test_diagonal_contact_does_not_join(self):
        mask = np.zeros((4, 4), bool)
        mask[0, 0:2] = mask[1, 2:4] = True
        assert _count_components(*_row_runs(mask)) == 2
        mask[1, 1] = True
        assert _count_components(*_row_runs(mask)) == 1

    def test_fork_joins_below(self):
        # Two prongs that meet lower down: one component, two runs above
        # the row that joins them.
        mask = np.zeros((6, 9), bool)
        mask[0:3, 1] = mask[0:3, 6] = True
        mask[3, 1:7] = True
        mask[0:5, 3] = True
        assert _count_components(*_row_runs(mask)) == 1


class TestPgmIO:
    def test_p5_roundtrip(self, tmp_path):
        img = render_silhouette(CurvatureState(0.4, 0.2), GEOM, SPEC)
        p = tmp_path / "img.pgm"
        write_pgm(img, p)
        back = read_pgm(p)
        assert np.array_equal(back, img)

    def test_ascii_p2_rejected_as_malformed_header(self, tmp_path):
        # Only the binary P5 that write_pgm writes is read.
        p = tmp_path / "ascii.pgm"
        vals = " ".join(str((r + c) % 256)
                        for r in range(20) for c in range(20))
        p.write_text(f"P2\n# synthetic test image\n20 20\n255\n{vals}\n")
        with pytest.raises(VisionError,
                           match=r"malformed PGM header: .*ascii\.pgm$"):
            read_pgm(p)

    def test_write_rejects_non_uint8(self, tmp_path):
        with pytest.raises(ValueError, match="uint8"):
            write_pgm(np.zeros((20, 20), dtype=int), tmp_path / "x.pgm")

    def test_too_small_rejected(self, tmp_path):
        p = tmp_path / "small.pgm"
        p.write_bytes(b"P5\n15 20\n255\n" + bytes(15 * 20))
        with pytest.raises(VisionError, match="15x20"):
            read_pgm(p)

    def test_not_pgm(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"PNG rubbish")
        with pytest.raises(VisionError):
            read_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "trunc.pgm"
        p.write_bytes(b"P5\n20 20\n255\n" + bytes(100))
        with pytest.raises(VisionError):
            read_pgm(p)

    @pytest.mark.parametrize("header", [b"P5\n", b"P5\n20 20",
                                        b"P5\n20 x 255\n", b"P2\n20 20 255"])
    def test_malformed_header_names_file(self, tmp_path, header):
        p = tmp_path / "hdr.pgm"
        p.write_bytes(header)
        with pytest.raises(VisionError, match=r"malformed PGM header: .*hdr"):
            read_pgm(p)

    @pytest.mark.parametrize("extra", [1, 400])
    def test_trailing_payload_bytes_rejected(self, tmp_path, extra):
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5\n20 20\n255\n" + bytes(400 + extra))
        with pytest.raises(VisionError, match=f"holds {400 + extra} samples"):
            read_pgm(p)


def _p2(samples):
    vals = ["7"] * 400
    vals[42] = samples
    return f"P2\n20 20\n255\n{' '.join(vals)}\n".encode()


# Malformed PGM files: each raises VisionError naming the file. The P2
# files fail at their header, since only P5 is read.
PGM_ERRORS = {
    "header": b"P5\n20 x 255\n",
    "maxval": b"P5\n20 20\n65535\n" + bytes(800),
    "too_small": b"P5\n15 20\n255\n" + bytes(15 * 20),
    "sample_not_integer": _p2("x"),
    "sample_too_large_for_int": _p2("9" * 30),
    "sample_out_of_range": _p2("300"),
    "short_payload": b"P5\n20 20\n255\n" + bytes(100),
}


@pytest.mark.parametrize("data", PGM_ERRORS.values(), ids=PGM_ERRORS.keys())
def test_pgm_error_names_file(tmp_path, data):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(VisionError, match=f": {re.escape(str(p))}$"):
        read_pgm(p)


class TestMidlineCsv:
    def test_roundtrip(self, tmp_path):
        pts = sample_centerline(CurvatureState(0.5, -0.2),
                                TentacleGeometry(n_samples=30))
        cl = Centerline(pts)
        p = tmp_path / "mid.csv"
        midline_to_csv(cl, p)
        back = midline_from_csv(p)
        assert np.allclose(back.points, cl.points, atol=1e-8)
        header = p.read_text().split("\n", 1)[0]
        assert header == "s,x_mm,y_mm"

    def test_bad_csv(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises((VisionError, ValueError)):
            midline_from_csv(p)
