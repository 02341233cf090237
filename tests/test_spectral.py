from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiaedit.errors import NumericFailure, ShapeMismatchError
from fiaedit.fia import FiaConfig
from fiaedit.spectral import (
    FusionWeights,
    LowPassFilter,
    Spectrum,
    decompose,
    fft2,
    fri_fuse,
    ifft2,
    lowpass_profile,
    make_gaussian_lowpass,
)

from oracle_dft import oracle_fft2_centered, oracle_fri_fuse, oracle_gaussian_mask

grids = st.tuples(st.integers(1, 3), st.integers(2, 9), st.integers(2, 9))


def random_tensor(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


class TestFft2:
    def test_constant_image_dc_exact(self):
        c = 0.7320508
        for h, w in [(4, 4), (6, 6), (8, 4)]:
            spec = fft2(np.full((1, h, w), c)).coeffs[0]
            assert spec[h // 2, w // 2] == c * h * w
            off_dc = spec.copy()
            off_dc[h // 2, w // 2] = 0.0
            assert np.all(off_dc == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(shape=grids, seed=st.integers(0, 10_000))
    def test_roundtrip(self, shape, seed):
        f = random_tensor(shape, seed)
        back = ifft2(fft2(f))
        assert np.abs(back - f).max() <= 1e-6 * max(1.0, np.abs(f).max())

    def test_matches_direct_dft_oracle(self):
        f = random_tensor((2, 4, 4), 7)
        assert np.abs(fft2(f).coeffs - oracle_fft2_centered(f)).max() < 1e-9

    def test_matches_oracle_non_power_of_two(self):
        f = random_tensor((1, 5, 7), 8)
        assert np.abs(fft2(f).coeffs - oracle_fft2_centered(f)).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(shape=grids, seed=st.integers(0, 10_000))
    def test_parseval(self, shape, seed):
        f = random_tensor(shape, seed)
        h, w = shape[1], shape[2]
        power_spec = np.sum(np.abs(fft2(f).coeffs) ** 2)
        power_sig = h * w * np.sum(f**2)
        assert power_spec == pytest.approx(power_sig, rel=1e-6)

    def test_rejects_non_finite(self):
        bad = np.zeros((1, 4, 4))
        bad[0, 0, 0] = np.nan
        with pytest.raises(NumericFailure):
            fft2(bad)

    def test_rejects_a_2d_array(self):
        with pytest.raises(ShapeMismatchError):
            fft2(np.zeros((4, 4)))
        with pytest.raises(ShapeMismatchError):
            Spectrum(np.zeros((4, 4), dtype=complex))


class TestIfft2:
    def test_zero_spectrum(self):
        out = ifft2(Spectrum(np.zeros((2, 4, 4), dtype=complex)))
        assert np.all(out == 0.0)

    def test_unit_dc_on_2x2_grid(self):
        coeffs = np.zeros((1, 2, 2), dtype=complex)
        coeffs[0, 1, 1] = 1.0  # DC bin sits at (h//2, w//2)
        out = ifft2(Spectrum(coeffs))
        assert out == pytest.approx(np.full((1, 2, 2), 0.25), abs=1e-12)

    def test_non_conjugate_symmetric_spectrum_raises(self):
        coeffs = np.zeros((1, 4, 4), dtype=complex)
        coeffs[0, 2, 3] = 1.0  # one bin without its mirror image
        with pytest.raises(NumericFailure):
            ifft2(Spectrum(coeffs))

    @settings(max_examples=30, deadline=None)
    @given(shape=grids, seed=st.integers(0, 10_000))
    def test_real_pipeline_imaginary_residue_below_1e9(self, shape, seed):
        spec = fft2(random_tensor(shape, seed))
        raw = np.fft.ifft2(
            np.fft.ifftshift(spec.coeffs, axes=(-2, -1)), axes=(-2, -1)
        )
        assert np.abs(raw.imag).max() < 1e-9


class TestGaussianLowpass:
    def test_normalized_dc_is_one(self):
        for sigma in (0.2, 0.9, 5.0):
            filt = make_gaussian_lowpass(8, 8, sigma)
            assert filt.mask[4, 4] == 1.0

    def test_profile_at_r_equal_sigma(self):
        assert lowpass_profile(0.9, 0.9) == pytest.approx(
            np.exp(-0.5), rel=1e-12
        )

    def test_matches_oracle_mask(self):
        filt = make_gaussian_lowpass(6, 9, 0.9)
        assert np.abs(filt.mask - oracle_gaussian_mask(6, 9, 0.9)).max() < 1e-12

    def test_radially_symmetric(self):
        filt = make_gaussian_lowpass(8, 8, 0.7)
        mask = filt.mask
        # same |frequency| left/right and up/down of DC
        assert mask[4, 4 - 2] == pytest.approx(mask[4, 4 + 2], rel=1e-15)
        assert mask[4 - 3, 4] == pytest.approx(mask[4 + 3, 4], rel=1e-15)
        assert mask[4 - 1, 4 - 1] == pytest.approx(mask[4 + 1, 4 + 1], rel=1e-15)

    def test_built_once_and_read_only(self):
        filt = make_gaussian_lowpass(6, 5, 0.9)
        assert make_gaussian_lowpass(6, 5, 0.9) is filt
        assert make_gaussian_lowpass(6, 5, 0.8) is not filt
        with pytest.raises(ValueError):
            filt.mask[0, 0] = 0.0

    @pytest.mark.parametrize("sigma", [1.6e-162, 1e-158, 1e-155])
    def test_tiny_sigma_keeps_dc_alone_without_a_warning(self, sigma):
        # r^2 / (2 sigma^2) overflows to inf off DC, and exp(-inf) = 0 is the
        # limit; the suite turns any RuntimeWarning into an error
        expected = np.zeros((8, 8))
        expected[4, 4] = 1.0
        assert np.array_equal(make_gaussian_lowpass(8, 8, sigma).mask, expected)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            make_gaussian_lowpass(4, 4, 0.0)
        with pytest.raises(ValueError):
            make_gaussian_lowpass(4, 4, -1.0)
        with pytest.raises(ValueError, match="grid dimensions"):
            make_gaussian_lowpass(0, 4, 0.9)

    @pytest.mark.parametrize("sigma", [1e-170, 1e-163, 0.0, -1.0, float("nan")])
    def test_direct_calls_and_the_config_refuse_a_sigma_alike(self, sigma):
        # 2 sigma^2 underflows to 0 below about 1.6e-162: the profile would be NaN at DC
        message = f"sigma must be positive with 2 sigma^2 > 0, got {sigma}"
        with pytest.raises(ValueError) as profile:
            lowpass_profile(0.0, sigma)
        with pytest.raises(ValueError) as mask:
            make_gaussian_lowpass(8, 8, sigma)
        with pytest.raises(ValueError) as config:
            FiaConfig(filter_sigma=sigma)
        assert str(profile.value) == str(mask.value) == message
        assert str(config.value) == f"filter_{message}"


class TestDecompose:
    @settings(max_examples=40, deadline=None)
    @given(shape=grids, seed=st.integers(0, 10_000), sigma=st.floats(0.1, 10.0))
    def test_partition_is_bitexact(self, shape, seed, sigma):
        spec = fft2(random_tensor(shape, seed))
        filt = make_gaussian_lowpass(shape[1], shape[2], sigma)
        high, low = decompose(spec, filt)
        assert np.array_equal(high.coeffs + low.coeffs, spec.coeffs)

    def test_all_pass_mask(self):
        spec = fft2(random_tensor((1, 4, 4), 0))
        filt = LowPassFilter(mask=np.ones((4, 4)))
        high, low = decompose(spec, filt)
        assert np.array_equal(low.coeffs, spec.coeffs)
        assert np.all(high.coeffs == 0.0)

    def test_half_mask_splits_evenly(self):
        spec = fft2(random_tensor((1, 4, 4), 1))
        filt = LowPassFilter(mask=np.full((4, 4), 0.5))
        high, low = decompose(spec, filt)
        assert np.array_equal(low.coeffs, spec.coeffs / 2)
        assert np.array_equal(high.coeffs, spec.coeffs / 2)

    def test_grid_mismatch(self):
        spec = fft2(random_tensor((1, 4, 4), 0))
        with pytest.raises(ShapeMismatchError):
            decompose(spec, make_gaussian_lowpass(8, 8, 0.9))


class TestFriFuse:
    def test_identical_inputs_with_unit_weights(self):
        f = random_tensor((2, 8, 8), 5)
        filt = make_gaussian_lowpass(8, 8, 0.9)
        out = fri_fuse(f, f, filt, FusionWeights(0.8, 0.2))
        assert np.abs(out - f).max() < 1e-6

    def test_pure_cross_swap_endpoint(self):
        f_src = random_tensor((1, 8, 8), 2)
        f_tar = random_tensor((1, 8, 8), 3)
        filt = make_gaussian_lowpass(8, 8, 0.9)
        out = fri_fuse(f_src, f_tar, filt, FusionWeights(1.0, 0.0))
        high_src, _ = decompose(fft2(f_src), filt)
        _, low_tar = decompose(fft2(f_tar), filt)
        expected = ifft2(Spectrum(high_src.coeffs + low_tar.coeffs))
        assert out == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        f_src = random_tensor((1, 8, 8), 11)
        f_tar = random_tensor((1, 8, 8), 12)
        filt = make_gaussian_lowpass(8, 8, 0.9)
        out = fri_fuse(f_src, f_tar, filt, FusionWeights(0.8, 0.2))
        expected = oracle_fri_fuse(f_src, f_tar, 0.9, 0.8, 0.2)
        assert np.abs(out - expected).max() < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(-3.0, 3.0))
    def test_linearity_in_both_inputs(self, seed, scale):
        rng = np.random.default_rng(seed)
        f, g = rng.standard_normal((2, 1, 4, 4))
        filt = make_gaussian_lowpass(4, 4, 0.9)
        w = FusionWeights(0.8, 0.2)
        scaled = fri_fuse(scale * f, scale * g, filt, w)
        assert scaled == pytest.approx(scale * fri_fuse(f, g, filt, w), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 12),
        w=st.integers(1, 12),
        sigma=st.floats(0.05, 50.0),
        seed=st.integers(0, 10_000),
    )
    def test_matches_the_oracle_on_odd_even_and_rectangular_grids(self, h, w, sigma, seed):
        # each output sums h*w terms of the axis products; the blend's own
        # few roundings add a few eps on top
        f_src, f_tar = random_tensor((2, 2, h, w), seed)
        out = fri_fuse(f_src, f_tar, make_gaussian_lowpass(h, w, sigma), FusionWeights(0.8, 0.2))
        expected = oracle_fri_fuse(f_src, f_tar, sigma, 0.8, 0.2)
        scale = max(np.abs(f_src).max(), np.abs(f_tar).max())
        assert np.abs(out - expected).max() <= (h * w + 4) * np.finfo(float).eps * scale

    @pytest.mark.parametrize("grid", [(2, 2), (8, 8), (5, 7), (32, 32)])
    def test_a_channel_does_not_depend_on_the_channels_fused_with_it(self, grid):
        # the edit path fuses every self site's Q and K in one call
        f_src, f_tar = random_tensor((2, 64, *grid), 13)
        filt = make_gaussian_lowpass(*grid, 0.9)
        weights = FusionWeights(0.8, 0.2)
        every = fri_fuse(f_src, f_tar, filt, weights)
        for lo, hi in ((0, 1), (8, 16), (0, 32)):
            assert np.array_equal(fri_fuse(f_src[lo:hi], f_tar[lo:hi], filt, weights), every[lo:hi])

    def test_a_mask_alone_does_not_fuse(self):
        f = random_tensor((1, 4, 4), 0)
        with pytest.raises(ValueError):
            fri_fuse(f, f, LowPassFilter(mask=np.ones((4, 4))), FusionWeights())

    def test_swap_weight_identity(self):
        f = random_tensor((1, 6, 6), 21)
        g = random_tensor((1, 6, 6), 22)
        filt = make_gaussian_lowpass(6, 6, 0.9)
        a = fri_fuse(f, g, filt, FusionWeights(0.8, 0.2))
        b = fri_fuse(g, f, filt, FusionWeights(0.2, 0.8))
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            fri_fuse(
                np.zeros((1, 4, 4)),
                np.zeros((1, 8, 8)),
                make_gaussian_lowpass(4, 4, 0.9),
                FusionWeights(),
            )
        with pytest.raises(ShapeMismatchError):
            fri_fuse(
                np.zeros((1, 8, 8)),
                np.zeros((1, 8, 8)),
                make_gaussian_lowpass(4, 4, 0.9),
                FusionWeights(),
            )
        with pytest.raises(ShapeMismatchError, match=r"expected \(C, H, W\)"):
            fri_fuse(
                np.zeros((4, 4)),
                np.zeros((4, 4)),
                make_gaussian_lowpass(4, 4, 0.9),
                FusionWeights(),
            )

    def test_rejects_non_finite(self):
        f = random_tensor((1, 4, 4), 0)
        bad = f.copy()
        bad[0, 1, 2] = np.inf
        filt = make_gaussian_lowpass(4, 4, 0.9)
        with pytest.raises(NumericFailure):
            fri_fuse(f, bad, filt, FusionWeights())
        with pytest.raises(NumericFailure):
            fri_fuse(bad, f, filt, FusionWeights())

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            FusionWeights(-0.1, 0.2)
