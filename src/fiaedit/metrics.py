"""Background-preservation metrics over image pairs.

MSE and PSNR accept an optional region mask; SSIM runs on non-overlapping
8x8 grayscale windows; the spectral structure distance compares log-magnitude
spectra and stands in for learned structure metrics, which need pretrained
feature extractors and are out of scope here.  A report is one dict of
columns (``mse``, ``psnr``, ``ssim``, ``ssd``), written as ``key=value``
lines by ``codec.format_entries`` wherever it goes out.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import ImageBuffer
from .errors import ShapeMismatchError

SSIM_WINDOW = 8
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_L = 1.0

PSNR_INFINITE = float("inf")


# a report's columns, in report order
METRIC_COLUMNS = ("mse", "psnr", "ssim", "ssd")


def _check_pair(a: ImageBuffer, b: ImageBuffer) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ShapeMismatchError(
            f"image shapes differ: {a.pixels.shape} vs {b.pixels.shape}"
        )


def mse(a: ImageBuffer, b: ImageBuffer, mask: np.ndarray | None = None) -> float:
    """Mean squared difference, over the mask region when one is given."""
    _check_pair(a, b)
    sq = np.square(a.pixels - b.pixels)
    if mask is None:
        return float(sq.mean())
    if mask.shape != a.grid:
        raise ShapeMismatchError(f"mask shape {mask.shape} != image grid {a.grid}")
    if not mask.any():
        raise ValueError("mask selects no pixels")
    return float(sq[:, mask].mean())


def _psnr_db(err: float) -> float:
    return PSNR_INFINITE if err == 0.0 else 10.0 * math.log10(1.0 / err)


def psnr(a: ImageBuffer, b: ImageBuffer, mask: np.ndarray | None = None) -> float:
    """10 log10(1 / mse) dB with peak 1.0; +inf for identical inputs."""
    return _psnr_db(mse(a, b, mask))


def _grayscale(img: ImageBuffer) -> np.ndarray:
    return img.pixels.mean(axis=0)


def ssim(a: ImageBuffer, b: ImageBuffer) -> float:
    """Mean local SSIM over non-overlapping 8x8 grayscale windows."""
    _check_pair(a, b)
    h, w = a.grid
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    ga, gb = _grayscale(a), _grayscale(b)
    n_y, n_x = h // SSIM_WINDOW, w // SSIM_WINDOW
    wa = ga[: n_y * SSIM_WINDOW, : n_x * SSIM_WINDOW].reshape(
        n_y, SSIM_WINDOW, n_x, SSIM_WINDOW
    )
    wb = gb[: n_y * SSIM_WINDOW, : n_x * SSIM_WINDOW].reshape(
        n_y, SSIM_WINDOW, n_x, SSIM_WINDOW
    )
    mu_a = wa.mean(axis=(1, 3))
    mu_b = wb.mean(axis=(1, 3))
    var_a = np.square(wa - mu_a[:, None, :, None]).mean(axis=(1, 3))
    var_b = np.square(wb - mu_b[:, None, :, None]).mean(axis=(1, 3))
    cov = ((wa - mu_a[:, None, :, None]) * (wb - mu_b[:, None, :, None])).mean(
        axis=(1, 3)
    )
    c1 = (SSIM_K1 * SSIM_L) ** 2
    c2 = (SSIM_K2 * SSIM_L) ** 2
    local = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )
    return float(local.mean())


def spectral_structure_distance(a: ImageBuffer, b: ImageBuffer) -> float:
    """L2 distance of log-magnitude grayscale spectra, per pixel."""
    _check_pair(a, b)
    h, w = a.grid
    la = np.log1p(np.abs(np.fft.fft2(_grayscale(a))))
    lb = np.log1p(np.abs(np.fft.fft2(_grayscale(b))))
    return float(np.linalg.norm(la - lb) / (h * w))


def compute_report(
    a: ImageBuffer, b: ImageBuffer, mask: np.ndarray | None = None
) -> dict[str, float]:
    """The report's columns by name, in ``METRIC_COLUMNS`` order.

    The mask restricts MSE and PSNR, which is read off the same MSE; SSIM
    and ``ssd`` read whole images.
    """
    err = mse(a, b, mask)
    return {
        "mse": err,
        "psnr": _psnr_db(err),
        "ssim": ssim(a, b),
        "ssd": spectral_structure_distance(a, b),
    }
