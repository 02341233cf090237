from __future__ import annotations

import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiaedit.codec
from fiaedit.codec import (
    ImageBuffer,
    clamp_image,
    decode,
    encode,
    format_entries,
    read_mask,
    read_ppm,
    write_mask,
    write_ppm,
)
from fiaedit.errors import ShapeMismatchError
from fiaedit.fixtures import blob_scene, checkerboard_image, gradient_image, load_fixture

from conftest import report_entries


def random_image(h, w, seed=0):
    return ImageBuffer(np.random.default_rng(seed).uniform(0.0, 1.0, (3, h, w)))


class TestImageBuffer:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ImageBuffer(np.full((3, 4, 4), 1.5))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ShapeMismatchError):
            ImageBuffer(np.zeros((1, 4, 4)))

    def test_clamp_factory(self):
        img = clamp_image(np.full((3, 2, 2), 7.0))
        assert np.all(img.pixels == 1.0)


class TestCodec:
    @settings(max_examples=30, deadline=None)
    @given(
        hp=st.integers(1, 6), wp=st.integers(1, 6),
        patch=st.sampled_from([1, 2, 3]), seed=st.integers(0, 999),
    )
    def test_roundtrip_bitexact(self, hp, wp, patch, seed):
        img = random_image(hp * patch, wp * patch, seed)
        latent = encode(img, patch)
        assert latent.shape == (3 * patch * patch, hp, wp)
        assert np.array_equal(decode(latent, patch).pixels, img.pixels)

    def test_patch_one_is_identity_layout(self):
        img = random_image(4, 4)
        assert np.array_equal(encode(img, 1), img.pixels)

    def test_ramp_channels_hold_pixel_quadrants(self):
        ramp = np.arange(3 * 4 * 4, dtype=np.float64).reshape(3, 4, 4) / 48.0
        latent = encode(ImageBuffer(ramp), 2)
        assert latent.shape == (12, 2, 2)
        for c in range(3):
            for dy in range(2):
                for dx in range(2):
                    channel = latent[c * 4 + dy * 2 + dx]
                    for i in range(2):
                        for j in range(2):
                            assert channel[i, j] == ramp[c, 2 * i + dy, 2 * j + dx]

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ShapeMismatchError):
            encode(random_image(5, 4), 2)

    def test_unfactorable_latent_rejected(self):
        with pytest.raises(ShapeMismatchError):
            decode(np.zeros((10, 2, 2)), 2)

    def test_patch_below_one_rejected(self):
        with pytest.raises(ValueError):
            encode(random_image(4, 4), 0)
        with pytest.raises(ValueError):
            decode(np.zeros((12, 2, 2)), 0)

    def test_decode_clamps(self):
        latent = np.full((12, 2, 2), 2.5)
        assert np.all(decode(latent, 2).pixels == 1.0)


class TestPpm:
    def test_write_read_roundtrip_on_quantized_image(self, tmp_path):
        # values already on the 8-bit grid survive the file exactly
        raw = np.random.default_rng(3).integers(0, 256, (3, 5, 7))
        img = ImageBuffer(raw.astype(np.float64) / 255.0)
        path = str(tmp_path / "img.ppm")
        write_ppm(img, path)
        back = read_ppm(path)
        assert np.array_equal(back.pixels, img.pixels)
        assert back.grid == (5, 7)

    def test_quantization_rule(self, tmp_path):
        img = ImageBuffer(np.full((3, 2, 2), 0.3))
        path = str(tmp_path / "q.ppm")
        write_ppm(img, path)
        expected = np.rint(0.3 * 255.0) / 255.0
        assert np.all(read_ppm(path).pixels == expected)

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = read_ppm(str(path))
        assert img.grid == (1, 2)
        assert np.all(img.pixels == 0.0)

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError):
            read_ppm(str(path))

    def test_rejects_truncated_data(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(ValueError):
            read_ppm(str(path))
        # a file cut short between the size check and the read
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(6))
        stat = types.SimpleNamespace(st_size=1 << 20)  # the size it had at the check
        monkeypatch.setattr(fiaedit.codec.os, "fstat", lambda fd: stat)
        with pytest.raises(ValueError, match="t.ppm: expected 12 bytes of pixel data"):
            read_ppm(str(path))

    @pytest.mark.parametrize(
        "size", [b"0 4", b"4 0", b"-2 3", b"3 -2"], ids=["w0", "h0", "w-neg", "h-neg"]
    )
    def test_rejects_nonpositive_size(self, tmp_path, size):
        path = tmp_path / "z.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(48))
        with pytest.raises(ValueError, match="z.ppm.*not positive"):
            read_ppm(str(path))

    def test_rejects_size_beyond_file_before_reading(self, tmp_path):
        # 3*h*w overflows a single read: it must be refused from the header
        path = tmp_path / "big.ppm"
        path.write_bytes(b"P6\n99999999999 99999999999\n255\n" + bytes(12))
        with pytest.raises(ValueError, match="big.ppm"):
            read_ppm(str(path))

    def test_mask_roundtrip(self, tmp_path):
        _, mask = blob_scene(16, 16)
        path = str(tmp_path / "m.ppm")
        write_mask(mask, path)
        assert np.array_equal(read_mask(path), mask)


# dotted keys, as the trace and the report name their entries
ENTRY_KEYS = st.lists(
    st.text("abcxyz_0189", min_size=1, max_size=6), min_size=1, max_size=4
).map(".".join)
ENTRY_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308]),
    st.integers(),
    # one line, often holding "=" (a report's delta line does)
    st.text(st.one_of(st.just("="), st.characters(blacklist_categories=("Cc", "Zl", "Zp")))),
)


class TestEntries:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(ENTRY_KEYS, ENTRY_VALUES, max_size=8))
    def test_every_entry_reads_back(self, entries):
        back = report_entries(format_entries(entries))
        assert list(back) == list(entries)
        for key, value in entries.items():
            if isinstance(value, float):
                # bit for bit: -0.0 stays negative, a subnormal keeps its last bit
                assert struct.pack("<d", float(back[key])) == struct.pack("<d", value)
            else:
                assert type(value)(back[key]) == value

    def test_one_line_per_entry_in_order(self):
        text = format_entries({"schema": "x/1", "cells": 2, "a.b": 0.1, "d": "k=v w=u"})
        assert text == "schema=x/1\ncells=2\na.b=0.1\nd=k=v w=u\n"
        assert format_entries({}) == ""


class TestFixtures:
    def test_fixture_images_are_valid_and_deterministic(self):
        for make in (gradient_image, checkerboard_image):
            a, b = make(), make()
            assert np.array_equal(a.pixels, b.pixels)
            assert a.pixels.min() >= 0.0 and a.pixels.max() <= 1.0

    def test_blob_scene_mask_separates_regions(self):
        img, mask = blob_scene(16, 16)
        assert mask.shape == (16, 16)
        assert 0 < mask.sum() < 16 * 16
        # blob center is bright in red and excluded from the background mask
        assert img.pixels[0, 8, 8] > 0.9
        assert not mask[8, 8]
        assert mask[0, 0]

    def test_blob512_is_the_papers_latent_grid_at_patch_8(self):
        # the paper edits 512x512 images on a 64x64 latent grid
        img, mask = load_fixture("blob512")
        latent = encode(img, 8)
        assert latent.shape == (192, 64, 64)
        assert np.array_equal(decode(latent, 8).pixels, img.pixels)
        assert mask.shape == (512, 512) and not mask[256, 256] and mask[0, 0]
