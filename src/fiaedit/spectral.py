"""2D spectra, Gaussian low-pass masks, and cross-weighted frequency fusion.

Conventions used throughout:

* Transforms act per channel on (C, H, W) tensors.  The forward transform is
  unscaled; the inverse carries the full 1/(H*W) factor.
* Spectra are stored DC-centered: after the shift, the zero-frequency bin
  sits at index (H//2, W//2) and the frequency at index ``i`` along an axis
  of length ``n`` is ``(i - n//2) / n``, i.e. u, v range over [-0.5, 0.5).
* Filter masks are radial functions of r = sqrt(u^2 + v^2) in those
  normalized units, which keeps a given sigma meaningful across grid sizes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, ShapeMismatchError


@dataclass(frozen=True)
class Spectrum:
    """Per-channel 2D DFT coefficients in DC-centered layout."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.ndim != 3:
            raise ShapeMismatchError(
                f"spectrum must be (C, H, W), got shape {self.coeffs.shape}"
            )

    @property
    def grid(self) -> tuple[int, int]:
        return self.coeffs.shape[-2], self.coeffs.shape[-1]


@dataclass(frozen=True)
class FusionWeights:
    """Weights for the cross-band blend; the dominant one favors the source."""

    lambda1: float = 0.8
    lambda2: float = 0.2

    def __post_init__(self) -> None:
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ValueError("fusion weights must be non-negative")


@dataclass(frozen=True)
class LowPassFilter:
    """Radially symmetric mask in [0, 1] with DC gain 1."""

    mask: np.ndarray

    @property
    def grid(self) -> tuple[int, int]:
        return self.mask.shape


def centered_frequencies(n: int) -> np.ndarray:
    """Per-bin frequencies after DC-centering: (i - n//2) / n."""
    return (np.arange(n) - n // 2) / n


def fft2(f: np.ndarray) -> Spectrum:
    """Per-channel 2D DFT of a real (C, H, W) tensor, DC moved to the center."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 3:
        raise ShapeMismatchError(f"expected (C, H, W), got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise NumericFailure("input contains non-finite values")
    return Spectrum(np.fft.fftshift(np.fft.fft2(f, axes=(-2, -1)), axes=(-2, -1)))


def ifft2(s: Spectrum) -> np.ndarray:
    """Real part of the inverse transform, scaled by 1/(H*W)."""
    out = np.fft.ifft2(np.fft.ifftshift(s.coeffs, axes=(-2, -1)), axes=(-2, -1))
    re = out.real
    # spectra built from real tensors stay conjugate-symmetric through every
    # operation in this module, so the imaginary part is numerical residue
    if np.abs(out.imag).max() > 1e-6 * max(1.0, np.abs(re).max()):
        raise NumericFailure("inverse transform produced a non-negligible imaginary part")
    return re


def lowpass_profile(r: np.ndarray | float, sigma: float) -> np.ndarray | float:
    """Gaussian radial profile ``exp(-r^2 / (2 sigma^2))``, exactly 1 at r = 0.

    The Gaussian's 1/(2 pi sigma^2) amplitude is left out: band splitting
    needs a mask in [0, 1], and that amplitude exceeds 1 for sigma < 0.4.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return np.exp(-np.square(r) / (2.0 * sigma * sigma))


@functools.lru_cache(maxsize=64)
def make_gaussian_lowpass(h: int, w: int, sigma: float) -> LowPassFilter:
    """Gaussian low-pass mask on an h-by-w centered frequency grid.

    Built once per ``(h, w, sigma)``; every caller shares the cached filter,
    so its mask is read-only.
    """
    if h < 1 or w < 1:
        raise ValueError("grid dimensions must be positive")
    v = centered_frequencies(h)[:, None]
    u = centered_frequencies(w)[None, :]
    r = np.sqrt(u * u + v * v)
    mask = lowpass_profile(r, sigma)
    mask.setflags(write=False)
    return LowPassFilter(mask=mask)


def decompose(s: Spectrum, filt: LowPassFilter) -> tuple[Spectrum, Spectrum]:
    """Split a spectrum into (high, low) bands: low = s*L, high = s*(1-L).

    The band carrying the larger mask weight is computed by multiplication
    and the other as its exact complement ``s - larger``; with the larger
    weight >= 1/2 that subtraction is exact (Sterbenz), so high + low
    reproduces the spectrum bit for bit.
    """
    if filt.grid != s.grid:
        raise ShapeMismatchError(
            f"filter grid {filt.grid} does not match spectrum grid {s.grid}"
        )
    mask = filt.mask
    complement = 1.0 - mask
    low_direct = s.coeffs * mask
    high_direct = s.coeffs * complement
    low_heavy = mask >= 0.5
    low = np.where(low_heavy, low_direct, s.coeffs - high_direct)
    high = np.where(low_heavy, s.coeffs - low_direct, high_direct)
    return Spectrum(high), Spectrum(low)


def fri_fuse(
    f_src: np.ndarray,
    f_tar: np.ndarray,
    filt: LowPassFilter,
    weights: FusionWeights,
) -> np.ndarray:
    """Cross-weighted frequency blend of two (C, H, W) feature maps.

    The source's high band is paired with the target's low band under the
    dominant weight and the two remaining bands under the minor weight:
    ``l1*(S*(1-L) + T*L) + l2*(S*L + T*(1-L))`` for spectra S, T and mask L.
    Collecting terms gives ``l1*S + l2*T + (l1-l2)*L*(T - S)``.  The
    transform is linear and L is real with L(-k) = L(k), so the blend is
    evaluated in the spatial domain as

        (l1*src + l2*tar) + (l1-l2) * irfft2(L * rfft2(tar - src))

    with one real transform pair per channel.  Swapping the inputs together
    with the weights negates both the difference and ``l1 - l2``, which
    leaves every rounding step unchanged, so the swap is bit-exact.
    """
    if f_src.shape != f_tar.shape:
        raise ShapeMismatchError(f"shapes differ: {f_src.shape} vs {f_tar.shape}")
    f_src = np.asarray(f_src, dtype=np.float64)
    f_tar = np.asarray(f_tar, dtype=np.float64)
    if f_src.ndim != 3:
        raise ShapeMismatchError(f"expected (C, H, W), got shape {f_src.shape}")
    if filt.grid != f_src.shape[-2:]:
        raise ShapeMismatchError(
            f"filter grid {filt.grid} does not match feature grid {f_src.shape[-2:]}"
        )
    if not (np.all(np.isfinite(f_src)) and np.all(np.isfinite(f_tar))):
        raise NumericFailure("input contains non-finite values")
    h, w = filt.grid
    # rfft2 keeps the non-negative frequencies of the last axis, DC first
    half_mask = np.fft.ifftshift(filt.mask)[:, : w // 2 + 1]
    band = np.fft.irfft2(half_mask * np.fft.rfft2(f_tar - f_src), s=(h, w))
    l1, l2 = weights.lambda1, weights.lambda2
    return (l1 * f_src + l2 * f_tar) + (l1 - l2) * band
