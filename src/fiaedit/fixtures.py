"""Procedurally generated test scenes: no downloads, bit-reproducible.

The steering scene pairs a blob foreground with a structured background and
ships the exact background mask, so runs can measure how much of the
background an edit disturbed.
"""

from __future__ import annotations

import numpy as np

from .codec import ImageBuffer, clamp_image
from .errors import ConfigError

# the checkerboard's cell side in pixels; the blob's radius, and the ring
# between it and the background mask, as fractions of the image side
_CHECKER_CELL = 2
_BLOB_RADIUS_FRAC = 0.22
_MASK_MARGIN_FRAC = 0.08


def gradient_image(h: int = 16, w: int = 16) -> ImageBuffer:
    """Smooth corner-to-corner ramps, one orientation per channel."""
    ys = np.linspace(0.0, 1.0, h)[:, None]
    xs = np.linspace(0.0, 1.0, w)[None, :]
    pixels = np.stack([ys + 0 * xs, 0 * ys + xs, 0.5 * (ys + xs)])
    return clamp_image(pixels)


def checkerboard_image(h: int = 16, w: int = 16) -> ImageBuffer:
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    board = ((ys // _CHECKER_CELL + xs // _CHECKER_CELL) % 2).astype(np.float64)
    pixels = np.stack([0.2 + 0.6 * board, 0.8 - 0.6 * board, np.full((h, w), 0.5)])
    return clamp_image(pixels)


def blob_scene(h: int = 16, w: int = 16) -> tuple[ImageBuffer, np.ndarray]:
    """Bright blob on a textured gradient background, plus a background mask.

    The mask marks pixels outside the blob with a safety ring between, so
    masked metrics never touch the edited object's boundary.
    """
    ys, xs = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    base_r = 0.25 + 0.5 * ys
    base_g = 0.25 + 0.5 * xs
    texture = 0.06 * (((ys * h // 2).astype(int) + (xs * w // 2).astype(int)) % 2)
    base_b = 0.35 + texture
    pixels = np.stack([base_r + texture, base_g + texture, base_b])

    r = np.hypot(ys - 0.5, xs - 0.5)
    blob = r < _BLOB_RADIUS_FRAC
    for c, level in enumerate((0.95, 0.85, 0.2)):
        pixels[c][blob] = level

    background = r >= _BLOB_RADIUS_FRAC + _MASK_MARGIN_FRAC
    return clamp_image(pixels), background


FIXTURES = {
    "gradient16": lambda: (gradient_image(16, 16), None),
    "checker16": lambda: (checkerboard_image(16, 16), None),
    "blob16": lambda: blob_scene(16, 16),
    "blob32": lambda: blob_scene(32, 32),
}


def load_fixture(name: str) -> tuple[ImageBuffer, np.ndarray | None]:
    if name not in FIXTURES:
        raise ConfigError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    return FIXTURES[name]()
