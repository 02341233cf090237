"""Property tests at the input boundaries: PPM bytes and grid text.

Whatever the input, the only outcomes allowed are a result or a package
error (``FiaEditError``) or ``ValueError``; the CLI always returns an exit
code and never raises.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fiaedit.ablation import _GRID_AXES, GridSpec, parse_grid
from fiaedit.cli import main
from fiaedit.codec import ImageBuffer, read_ppm
from fiaedit.errors import FiaEditError

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# a P6 header whose fields are plausible or not, followed by arbitrary bytes
_SIZES = st.integers(min_value=-3, max_value=12) | st.integers(min_value=-10**12, max_value=10**12)
_P6_FILES = st.builds(
    lambda w, h, maxval, sep, tail: b"P6" + sep + f"{w} {h}".encode() + sep
    + str(maxval).encode() + sep + tail,
    _SIZES,
    _SIZES,
    st.sampled_from([255, 0, 65535, -1]),
    st.sampled_from([b"\n", b" ", b"\t", b"\n# c\n"]),
    st.binary(max_size=600),
)
_PPM_BYTES = st.binary(max_size=300) | (st.binary(max_size=300).map(lambda b: b"P6\n" + b)) | _P6_FILES


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.ppm"


@FUZZ
@given(data=_PPM_BYTES)
def test_read_ppm_gives_an_image_or_a_value_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    try:
        img = read_ppm(str(fuzz_path))
    except (ValueError, FiaEditError):
        return
    assert isinstance(img, ImageBuffer)


@FUZZ
@given(data=_PPM_BYTES)
def test_metrics_cli_always_returns_an_exit_code(fuzz_path, data):
    fuzz_path.write_bytes(data)
    rc = main(["metrics", str(fuzz_path), str(fuzz_path)])
    assert rc in (0, 1, 2)


_AXIS_TEXT = st.lists(
    st.tuples(
        st.sampled_from(sorted(_GRID_AXES)) | st.text(max_size=8),
        st.lists(st.text(max_size=8) | st.sampled_from(["true", "off", "0.9", "1-2", "nan"]),
                 max_size=4),
    ),
    max_size=4,
).map(lambda axes: ";".join(f"{name}={','.join(values)}" for name, values in axes))


@FUZZ
@given(spec=st.text(max_size=80) | _AXIS_TEXT)
def test_parse_grid_gives_a_grid_or_a_value_error(spec):
    try:
        grid = parse_grid(spec)
    except (ValueError, FiaEditError):
        return
    assert isinstance(grid, GridSpec)
    assert grid.cells()
