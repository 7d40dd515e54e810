import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tentaclelab.fitting import Centerline, fit_affine
from tentaclelab.kinematics import (CurvatureState, TentacleGeometry,
                                    sample_centerline)
from tentaclelab.vision import (ImageSpec, VisionError, binarize,
                                extract_midline, midline_from_csv,
                                midline_to_csv, otsu_threshold, read_pgm,
                                render_silhouette, write_pgm)
from tentaclelab.vision import _centerline_px, _disk_cover, _row_centres

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
        cover = _disk_cover(col, row, margin, (SPEC.height, SPEC.width))
        rr, cc = np.mgrid[int(row.min() - margin.max()):
                          int(row.max() + margin.max()) + 1,
                          int(col.min() - margin.max()):
                          int(col.max() + margin.max()) + 1]
        dist, idx = cKDTree(np.column_stack([col, row])).query(
            np.column_stack([cc.ravel(), rr.ravel()]))
        band = 0.5 + (half[idx] - dist) > 0.0
        assert cover[rr.ravel()[band], cc.ravel()[band]].all()


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

    def test_numeric_threshold(self):
        px = np.full((32, 32), 200, dtype=np.uint8)
        px[0, 0] = 10
        mask = binarize(px, threshold=100)
        assert mask.sum() == 1

    def test_flat_image_rejected(self):
        px = np.full((32, 32), 128, dtype=np.uint8)
        with pytest.raises(VisionError):
            binarize(px)

    def test_empty_foreground_rejected(self):
        px = np.full((32, 32), 200, dtype=np.uint8)
        with pytest.raises(VisionError):
            binarize(px, threshold=5)

    def test_threshold_range(self):
        px = np.full((32, 32), 200, dtype=np.uint8)
        with pytest.raises(ValueError):
            binarize(px, threshold=300)

    def test_brightness_shift_invariance(self):
        img = render_silhouette(CurvatureState(0.8, -0.4), GEOM, SPEC)
        shifted = np.clip(img.astype(int) + 20, 0, 255).astype(np.uint8)
        assert np.array_equal(binarize(img), binarize(shifted))


class TestExtractMidline:
    def test_straight_band(self):
        # Vertical rectangle below the root maps to a straight midline.
        mask = np.zeros((200, 100), dtype=bool)
        mask[40:180, 45:56] = True
        spec = ImageSpec(width=100, height=200, scale_mm_per_px=1.0,
                         origin_px=(50.0, 40.0))
        cl = extract_midline(mask, spec, n_samples=20)
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
            extract_midline(mask, spec)

    def test_empty_mask_rejected(self):
        spec = ImageSpec(width=100, height=100, origin_px=(50.0, 40.0))
        with pytest.raises(VisionError):
            extract_midline(np.zeros((100, 100), dtype=bool), spec)

    def test_detached_from_root_rejected(self):
        mask = np.zeros((100, 100), dtype=bool)
        mask[60:90, 40:50] = True
        spec = ImageSpec(width=100, height=100, origin_px=(45.0, 10.0))
        with pytest.raises(VisionError):
            extract_midline(mask, spec)

    def test_max_len_trims_tip_cap(self):
        mask = render_mask(0.0, 0.0)
        full = extract_midline(mask, SPEC)
        trimmed = extract_midline(mask, SPEC, max_len_mm=GEOM.length_mm)
        assert trimmed.total_length == pytest.approx(GEOM.length_mm, abs=0.5)
        assert full.total_length > trimmed.total_length


class TestRowCentres:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = rng.random((30, int(rng.integers(1, 60)))) < 0.1
            rows[np.arange(30), rng.integers(0, rows.shape[1], 30)] = True
            loop = np.array([(np.flatnonzero(r).min()
                              + np.flatnonzero(r).max()) * 0.5
                             for r in rows])
            assert np.array_equal(_row_centres(rows), loop)


class TestPgmIO:
    def test_p5_roundtrip(self, tmp_path):
        img = render_silhouette(CurvatureState(0.4, 0.2), GEOM, SPEC)
        p = tmp_path / "img.pgm"
        write_pgm(img, p)
        back = read_pgm(p)
        assert np.array_equal(back, img)

    def test_p2_with_comments(self, tmp_path):
        p = tmp_path / "ascii.pgm"
        vals = " ".join(str((r + c) % 256)
                        for r in range(20) for c in range(20))
        p.write_text(f"P2\n# synthetic test image\n20 20\n255\n{vals}\n")
        img = read_pgm(p)
        assert img.shape == (20, 20)
        assert img[3, 4] == 7

    @pytest.mark.parametrize("sample", ["300", "-1"])
    def test_p2_sample_out_of_range(self, tmp_path, sample):
        p = tmp_path / "ascii.pgm"
        vals = ["7"] * 400
        vals[42] = sample
        p.write_text(f"P2\n20 20\n255\n{' '.join(vals)}\n")
        with pytest.raises(VisionError, match=r"outside \[0, 255\]"):
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
