from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiaedit.codec import ImageBuffer
from fiaedit.errors import ShapeMismatchError
from fiaedit.fixtures import checkerboard_image, gradient_image
from fiaedit.metrics import (
    METRIC_COLUMNS,
    PSNR_INFINITE,
    compute_report,
    mse,
    psnr,
    spectral_structure_distance,
    ssim,
)

# golden value pinned from the implementation's first verified run
SSD_GRADIENT_VS_CHECKER = 0.04619837123735154


def const_image(value, h=8, w=8):
    return ImageBuffer(np.full((3, h, w), value))


def luminance_board(level_a=0.2, level_b=0.8, h=16, w=16, cell=2):
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    board = ((ys // cell + xs // cell) % 2).astype(np.float64)
    gray = level_a + (level_b - level_a) * board
    return ImageBuffer(np.repeat(gray[None], 3, axis=0))


class TestMse:
    def test_identity_is_zero(self):
        img = gradient_image()
        assert mse(img, img) == 0.0

    def test_constant_pair_hand_value(self):
        assert mse(const_image(0.0), const_image(0.5)) == pytest.approx(0.25, abs=1e-15)

    def test_masked_half_equals_unmasked_of_that_half(self):
        rng = np.random.default_rng(0)
        a = ImageBuffer(rng.uniform(0, 1, (3, 8, 8)))
        b = ImageBuffer(rng.uniform(0, 1, (3, 8, 8)))
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, :4] = True
        half_a = ImageBuffer(a.pixels[:, :, :4])
        half_b = ImageBuffer(b.pixels[:, :, :4])
        assert mse(a, b, mask) == pytest.approx(mse(half_a, half_b), abs=1e-15)

    def test_full_mask_equals_unmasked(self):
        a, b = gradient_image(), checkerboard_image()
        assert mse(a, b, np.ones((16, 16), dtype=bool)) == mse(a, b)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            mse(const_image(0.1), const_image(0.2), np.zeros((8, 8), dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse(const_image(0.1, 8, 8), const_image(0.1, 8, 9))


class TestPsnr:
    def test_identity_hits_sentinel(self):
        img = gradient_image()
        assert psnr(img, img) == PSNR_INFINITE

    def test_hand_values(self):
        assert psnr(const_image(0.0), const_image(0.1)) == pytest.approx(20.0, abs=1e-9)
        assert psnr(const_image(0.0), const_image(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_sentinel_iff_zero_mse(self):
        a, b = const_image(0.4), const_image(0.4001)
        assert mse(a, b) > 0.0
        assert math.isfinite(psnr(a, b))


class TestSsim:
    def test_identity_is_one(self):
        img = gradient_image()
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_board_is_negative(self):
        board = luminance_board()
        inverted = ImageBuffer(1.0 - board.pixels)
        assert ssim(board, inverted) < 0.0

    def test_constant_pair_closed_form(self):
        a_val, b_val = 0.3, 0.6
        c1 = (0.01 * 1.0) ** 2
        c2 = (0.03 * 1.0) ** 2
        expected = ((2 * a_val * b_val + c1) * c2) / ((a_val**2 + b_val**2 + c1) * c2)
        got = ssim(const_image(a_val), const_image(b_val))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            ssim(const_image(0.5, 4, 4), const_image(0.5, 4, 4))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 999))
    def test_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        a = ImageBuffer(rng.uniform(0, 1, (3, 16, 16)))
        b = ImageBuffer(rng.uniform(0, 1, (3, 16, 16)))
        assert ssim(a, b) <= 1.0 + 1e-12


class TestSpectralStructureDistance:
    def test_identity_is_zero(self):
        img = gradient_image()
        assert spectral_structure_distance(img, img) == 0.0

    def test_symmetric(self):
        a, b = gradient_image(), checkerboard_image()
        assert spectral_structure_distance(a, b) == pytest.approx(
            spectral_structure_distance(b, a), rel=1e-12
        )

    def test_pinned_golden_value(self):
        a, b = gradient_image(), checkerboard_image()
        assert spectral_structure_distance(a, b) == pytest.approx(
            SSD_GRADIENT_VS_CHECKER, rel=1e-12
        )

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        a = ImageBuffer(rng.uniform(0, 1, (3, 8, 8)))
        b = ImageBuffer(rng.uniform(0, 1, (3, 8, 8)))
        assert spectral_structure_distance(a, b) >= 0.0


class TestReport:
    def test_identity_report_hits_all_ideals(self):
        img = gradient_image()
        report = compute_report(img, img)
        assert tuple(report) == METRIC_COLUMNS
        assert report["mse"] == 0.0
        assert report["psnr"] == PSNR_INFINITE
        assert report["ssim"] == pytest.approx(1.0, abs=1e-12)
        assert report["ssd"] == 0.0

    def test_mask_is_carried(self):
        # the mask reaches MSE and PSNR; SSIM and SSD stay whole-image
        a, b = gradient_image(), checkerboard_image()
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, :5] = True
        report = compute_report(a, b, mask)
        assert report["mse"] == mse(a, b, mask) != mse(a, b)
        assert report["psnr"] == psnr(a, b, mask)
        assert report["ssim"] == compute_report(a, b)["ssim"]
