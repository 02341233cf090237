"""Independent brute-force spectral pipeline used as the tests' oracle.

Everything here evaluates the defining sums directly through explicit
exponential matrices and index arithmetic; none of it shares code with the
library's FFT-based implementation.
"""

from __future__ import annotations

import numpy as np


def _dft_matrix(n: int) -> np.ndarray:
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


def oracle_fft2_centered(f: np.ndarray) -> np.ndarray:
    """Direct per-channel 2D DFT with the DC bin rolled to the grid center."""
    c, h, w = f.shape
    eh, ew = _dft_matrix(h), _dft_matrix(w)
    out = np.empty((c, h, w), dtype=complex)
    for ch in range(c):
        out[ch] = eh @ f[ch] @ ew.T
    return np.roll(out, (h // 2, w // 2), axis=(-2, -1))


def oracle_ifft2_centered(spec: np.ndarray) -> np.ndarray:
    c, h, w = spec.shape
    eh, ew = np.conj(_dft_matrix(h)), np.conj(_dft_matrix(w))
    unrolled = np.roll(spec, (-(h // 2), -(w // 2)), axis=(-2, -1))
    out = np.empty((c, h, w), dtype=complex)
    for ch in range(c):
        out[ch] = eh @ unrolled[ch] @ ew.T / (h * w)
    return out.real


def oracle_gaussian_mask(h: int, w: int, sigma: float) -> np.ndarray:
    mask = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            u = (i - h // 2) / h
            v = (j - w // 2) / w
            mask[i, j] = np.exp(-(u * u + v * v) / (2.0 * sigma * sigma))
    return mask


def oracle_fri_fuse(
    f_src: np.ndarray,
    f_tar: np.ndarray,
    sigma: float,
    lambda1: float,
    lambda2: float,
) -> np.ndarray:
    """The whole decompose-and-blend chain over the direct transforms."""
    _, h, w = f_src.shape
    mask = oracle_gaussian_mask(h, w, sigma)
    fs = oracle_fft2_centered(f_src)
    ft = oracle_fft2_centered(f_tar)
    fused = lambda1 * (fs * (1.0 - mask) + ft * mask) + lambda2 * (
        fs * mask + ft * (1.0 - mask)
    )
    return oracle_ifft2_centered(fused)
