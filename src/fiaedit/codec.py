"""Image buffers, the invertible patch codec, and fiaedit's file formats.

The codec is a pure relayout (space to channel), so encode/decode round-trips
are bit-exact.  Images are 3xHxW float64 in [0, 1]; files are binary P6 PPM
with maxval 255, mapped by round(x * 255) on write and v / 255 on read.
Every text artifact (an edit trace, an ablation report and its timings,
a metric report) is ``key=value`` lines from :func:`format_entries`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError


@dataclass(frozen=True)
class ImageBuffer:
    pixels: np.ndarray  # (3, H, W) float64 in [0, 1]

    def __post_init__(self) -> None:
        if self.pixels.ndim != 3 or self.pixels.shape[0] != 3:
            raise ShapeMismatchError(
                f"image must be (3, H, W), got shape {self.pixels.shape}"
            )
        if self.pixels.min() < 0.0 or self.pixels.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")

    @property
    def grid(self) -> tuple[int, int]:
        return self.pixels.shape[-2], self.pixels.shape[-1]


def clamp_image(pixels: np.ndarray) -> ImageBuffer:
    """Build an image buffer, clipping values into [0, 1]."""
    return ImageBuffer(np.clip(pixels, 0.0, 1.0))


def encode(img: ImageBuffer, patch: int) -> np.ndarray:
    """Patchify (3, H, W) -> (3 * patch^2, H/patch, W/patch), losslessly.

    Output channel ``c * patch^2 + dy * patch + dx`` at position (i, j) holds
    input pixel (c, i * patch + dy, j * patch + dx).
    """
    if patch < 1:
        raise ValueError("patch must be >= 1")
    c, h, w = img.pixels.shape
    if h % patch or w % patch:
        raise ShapeMismatchError(f"{h}x{w} image not divisible by patch {patch}")
    hp, wp = h // patch, w // patch
    return (
        img.pixels.reshape(c, hp, patch, wp, patch)
        .transpose(0, 2, 4, 1, 3)
        .reshape(c * patch * patch, hp, wp)
        .copy()
    )


def decode(latent: np.ndarray, patch: int) -> ImageBuffer:
    """Exact inverse of :func:`encode`; output clamped into [0, 1]."""
    if patch < 1:
        raise ValueError("patch must be >= 1")
    cpp, hp, wp = latent.shape
    if cpp % (patch * patch):
        raise ShapeMismatchError(
            f"{cpp} channels not factorable by patch {patch}"
        )
    c = cpp // (patch * patch)
    pixels = (
        latent.reshape(c, patch, patch, hp, wp)
        .transpose(0, 3, 1, 4, 2)
        .reshape(c, hp * patch, wp * patch)
    )
    return clamp_image(pixels)


def write_ppm(img: ImageBuffer, path: str) -> None:
    """Write binary P6, 8-bit, maxval 255."""
    h, w = img.grid
    quantized = np.rint(np.clip(img.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.transpose(1, 2, 0).tobytes())


def format_entries(entries: dict[str, object]) -> str:
    """One ``key=value`` line per entry, in order.

    A value is written with ``str``, so a float is its shortest round-trip
    ``repr`` and reads back exactly with ``float``.  Keys hold no ``=``, and
    neither keys nor values hold a line break.
    """
    return "".join(f"{key}={value}\n" for key, value in entries.items())


def _read_ppm_token(fh) -> bytes:
    """Next whitespace-delimited header token, skipping # comments."""
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PPM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_ppm(path: str) -> ImageBuffer:
    """Read binary P6 into a [0, 1] image buffer.

    The header's size is checked against the bytes left in the file before
    any pixel data is read, so a forged header cannot ask for a huge read.
    """
    with open(path, "rb") as fh:
        if _read_ppm_token(fh) != b"P6":
            raise ValueError(f"{path} is not a binary P6 PPM")
        w = int(_read_ppm_token(fh))
        h = int(_read_ppm_token(fh))
        maxval = int(_read_ppm_token(fh))
        if maxval != 255:
            raise ValueError(f"only maxval 255 supported, got {maxval}")
        if w < 1 or h < 1:
            raise ValueError(f"{path}: image size {w}x{h} is not positive")
        n_bytes = 3 * h * w
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > left:
            raise ValueError(f"{path}: header needs {n_bytes} pixel bytes, {left} remain")
        data = fh.read(n_bytes)
        if len(data) != n_bytes:
            raise ValueError(f"{path}: expected {n_bytes} bytes of pixel data")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).transpose(2, 0, 1)
    return ImageBuffer(arr.astype(np.float64) / 255.0)


def read_mask(path: str) -> np.ndarray:
    """Boolean H*W mask from a PPM: any nonzero channel marks the pixel."""
    img = read_ppm(path)
    return np.any(img.pixels > 0.0, axis=0)


def write_mask(mask: np.ndarray, path: str) -> None:
    pixels = np.repeat(mask[None, :, :].astype(np.float64), 3, axis=0)
    write_ppm(ImageBuffer(pixels), path)
