from __future__ import annotations

import filecmp
import os
import resource
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fiaedit.codec
from fiaedit.cli import _exit_code_for, main, run_selftest
from fiaedit.codec import read_ppm, write_mask, write_ppm
from fiaedit.errors import ConfigError, EditRunError, NumericFailure
from fiaedit.fixtures import blob_scene, checkerboard_image, gradient_image, load_fixture
from fiaedit.metrics import compute_report
from fiaedit.model import VelocityModel

from conftest import report_entries

ZERO_EDIT_CONFIG = """
model.channels = 12
model.seed = 11
schedule.steps = 4
guidance.mu_src = 2.0
guidance.mu_tar = 2.0
prompts.source = the very same prompt
prompts.target = the very same prompt
edit.noise_mode = none
codec.patch = 2
"""

EDIT_CONFIG = """
model.channels = 12
model.seed = 11
schedule.steps = 4
guidance.mu_src = 1.5
guidance.mu_tar = 3.0
prompts.source = a small bright blob
prompts.target = a dark square
edit.noise_mode = reused
codec.patch = 2
"""

# pinned golden output for gradient16 vs checker16: each column's repr
METRICS_GOLDEN = [
    "mse=0.13867302640010254",
    "psnr=8.580080063010772",
    "ssim=0.06591825507096455",
    "ssd=0.04619702175423046",
]


@pytest.fixture()
def scene(tmp_path):
    image, mask = blob_scene(16, 16)
    src = str(tmp_path / "source.ppm")
    msk = str(tmp_path / "mask.ppm")
    write_ppm(image, src)
    write_mask(mask, msk)
    return src, msk


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEdit:
    def test_zero_edit_reproduces_input_bytes(self, tmp_path, scene):
        src, _ = scene
        cfg = write_config(tmp_path, ZERO_EDIT_CONFIG)
        out = str(tmp_path / "out.ppm")
        assert main(["edit", src, "--config", cfg, "--out", out]) == 0
        assert filecmp.cmp(src, out, shallow=False)
        assert os.path.exists(out + ".trace")

    def test_repeat_invocations_are_byte_identical(self, tmp_path, scene):
        src, _ = scene
        cfg = write_config(tmp_path, EDIT_CONFIG)
        out1, out2 = str(tmp_path / "o1.ppm"), str(tmp_path / "o2.ppm")
        assert main(["edit", src, "--config", cfg, "--out", out1]) == 0
        assert main(["edit", src, "--config", cfg, "--out", out2]) == 0
        assert filecmp.cmp(out1, out2, shallow=False)
        assert filecmp.cmp(out1 + ".trace", out2 + ".trace", shallow=False)

    def test_seed_flag_changes_noisy_output(self, tmp_path, scene):
        src, _ = scene
        cfg = write_config(tmp_path, EDIT_CONFIG)
        seeded = write_config(tmp_path, EDIT_CONFIG + "edit.seed = 7\n", name="seeded.cfg")
        out1, out2, out3 = (str(tmp_path / f"o{i}.ppm") for i in (1, 2, 3))
        assert main(["edit", src, "--config", cfg, "--out", out1, "--seed", "0"]) == 0
        assert main(["edit", src, "--config", cfg, "--out", out2, "--seed", "7"]) == 0
        assert not filecmp.cmp(out1, out2, shallow=False)
        # the flag is the config key: the same image and trace bytes
        assert main(["edit", src, "--config", seeded, "--out", out3]) == 0
        assert filecmp.cmp(out2, out3, shallow=False)
        assert filecmp.cmp(out2 + ".trace", out3 + ".trace", shallow=False)

    def test_trace_reports_steps_and_schema(self, tmp_path, scene):
        src, _ = scene
        cfg = write_config(tmp_path, EDIT_CONFIG)
        out = str(tmp_path / "out.ppm")
        main(["edit", src, "--config", cfg, "--out", out])
        lines = Path(out + ".trace").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "schema=edit-trace/1"
        assert "steps=4" in lines
        assert sum(1 for ln in lines if ".vdelta_norm=" in ln) == 4

    def test_snapshot_stride_adds_latent_norms_to_trace(self, tmp_path, scene):
        src, _ = scene
        cfg = write_config(tmp_path, EDIT_CONFIG)
        out = str(tmp_path / "out.ppm")
        main(["edit", src, "--config", cfg, "--out", out, "--snapshot-stride", "2"])
        lines = Path(out + ".trace").read_text(encoding="utf-8").splitlines()
        norms = [ln for ln in lines if ".latent_norm=" in ln]
        assert [ln.split(".")[1] for ln in norms] == ["0", "2"]

    def test_missing_config_is_exit_1(self, tmp_path, scene, capsys):
        src, _ = scene
        rc = main(["edit", src, "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path / "x.ppm")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_image_is_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, EDIT_CONFIG)
        rc = main(["edit", str(tmp_path / "no.ppm"), "--config", cfg, "--out", str(tmp_path / "x.ppm")])
        assert rc == 2

    def test_geometry_mismatch_is_exit_1(self, tmp_path, scene, capsys):
        src, _ = scene
        # a valid patch-3 config: the 16x16 scene does not tile into 3x3 patches
        text = EDIT_CONFIG.replace("codec.patch = 2", "codec.patch = 3")
        bad = write_config(tmp_path, text.replace("model.channels = 12", "model.channels = 27"))
        rc = main(["edit", src, "--config", bad, "--out", str(tmp_path / "x.ppm")])
        assert rc == 1
        assert "16x16 image not divisible by patch 3" in capsys.readouterr().err

    def test_block_range_outside_the_model_is_exit_1_before_the_model_is_built(
        self, tmp_path, scene, capsys, monkeypatch
    ):
        src, _ = scene
        built = []
        init = VelocityModel.__init__

        def spy(self, cfg):
            built.append(cfg)
            init(self, cfg)

        monkeypatch.setattr(VelocityModel, "__init__", spy)
        for mu_tar in ("3.0", "0"):
            text = EDIT_CONFIG.replace("guidance.mu_tar = 3.0", f"guidance.mu_tar = {mu_tar}")
            cfg = write_config(tmp_path, text + "fia.fij_block_lo = 0\nfia.fij_block_hi = 9\n")
            out = tmp_path / "x.ppm"
            assert main(["edit", src, "--config", cfg, "--out", str(out)]) == 1
            assert "fij_block_range (0, 9) outside a model of 6 blocks" in capsys.readouterr().err
            assert not out.exists()
        assert built == []

    def test_filter_sigma_whose_square_underflows_is_exit_1(self, tmp_path, scene, capsys):
        src, _ = scene
        cfg = write_config(tmp_path, EDIT_CONFIG + "fia.filter_sigma = 1e-320\n")
        rc = main(["edit", src, "--config", cfg, "--out", str(tmp_path / "x.ppm")])
        assert rc == 1
        assert "filter_sigma must be positive" in capsys.readouterr().err


def _limit_address_space():
    # the child alone: a missing bound ends in MemoryError, not a swapping host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestResourceBudget:
    @pytest.mark.parametrize(
        "command",
        ["edit-wide-model", "edit-large-image", "ablate-wide-model", "edit-long-prompt"],
    )
    def test_over_budget_is_exit_1_before_allocating(self, tmp_path, scene, command):
        src, _ = scene
        cfg = write_config(tmp_path, EDIT_CONFIG)
        if command == "edit-large-image":
            # a valid 1024x1024 PPM: 262,144 tokens, so a bound of about
            # 3.3 GiB, nearly all of it a step's five branches' token-wise arrays
            src = str(tmp_path / "large.ppm")
            write_ppm(gradient_image(1024, 1024), src)
        elif command == "edit-long-prompt":
            # 500,000 words: about 2.2 GiB of cross scores, K/V and packets
            # on the 8x8 latent grid, refused before the prompt is embedded
            long_prompt = "prompts.target = " + "word " * 500_000
            cfg = write_config(
                tmp_path, EDIT_CONFIG.replace("prompts.target = a dark square", long_prompt)
            )
        else:
            cfg = write_config(tmp_path, EDIT_CONFIG + "model.d_model = 200000\n")
        out = str(tmp_path / "out")
        argv = (
            ["ablate", "--config", cfg, "--grid", "filter_sigma=0.9", "--out", out]
            if command.startswith("ablate")
            else ["edit", src, "--config", cfg, "--out", out]
        )
        result = subprocess.run(
            [sys.executable, "-m", "fiaedit", *argv],
            capture_output=True, text=True, timeout=60,
            preexec_fn=_limit_address_space,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert result.returncode == 1, result.stderr
        assert "GiB bound" in result.stderr
        assert "Traceback" not in result.stderr


class TestExtremeGuidance:
    @pytest.mark.parametrize(
        "mu_src, mu_tar, code",
        [(3.5, 1e6, 0), (1e6, 13.5, 0), (1e6, 1e6, 0), (3.5, 1e300, 3), (1e300, 1e300, 3)],
    )
    def test_edit_is_finite_or_exit_3(self, tmp_path, capsys, mu_src, mu_tar, code):
        image, _ = load_fixture("blob16")
        src = str(tmp_path / "blob16.ppm")
        write_ppm(image, src)
        cfg = write_config(
            tmp_path,
            "prompts.source = a small bright blob\nprompts.target = a dark square\n"
            f"guidance.mu_src = {mu_src!r}\nguidance.mu_tar = {mu_tar!r}\n",
        )
        out = str(tmp_path / "out.ppm")
        assert main(["edit", src, "--config", cfg, "--out", out]) == code
        if code == 3:
            assert "not finite or its norm overflows" in capsys.readouterr().err
            return
        with open(out + ".trace", encoding="utf-8") as fh:
            values = [line.split("=", 1)[1] for line in fh if line.startswith(("step.", "final."))]
        assert all(np.isfinite(float(v)) for v in values)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        mu_src=st.just(0.0) | st.floats(min_value=1.0, max_value=1e308),
        mu_tar=st.just(0.0) | st.floats(min_value=1.0, max_value=1e308),
        lambdas=st.tuples(*[st.floats(min_value=0.0, max_value=1e308)] * 2),
    )
    def test_any_guidance_or_fusion_weights_end_finite_or_in_exit_3(
        self, tmp_path, capsys, mu_src, mu_tar, lambdas
    ):
        # under the suite's error::RuntimeWarning filter: a numpy warning on
        # the way would end the run with another code
        image, _ = load_fixture("blob16")
        src, out = str(tmp_path / "blob16.ppm"), str(tmp_path / "out.ppm")
        write_ppm(image, src)
        cfg = write_config(
            tmp_path,
            "prompts.source = a small bright blob\nprompts.target = a dark square\n"
            "schedule.steps = 3\ncodec.patch = 2\n"
            f"guidance.mu_src = {mu_src!r}\nguidance.mu_tar = {mu_tar!r}\n"
            f"fia.lambda1 = {lambdas[0]!r}\nfia.lambda2 = {lambdas[1]!r}\n",
        )
        code = main(["edit", src, "--config", cfg, "--out", out])
        err = capsys.readouterr().err
        assert code in (0, 3), err
        if code == 3:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            return
        assert err == ""
        with open(out + ".trace", encoding="utf-8") as fh:
            values = [line.split("=", 1)[1] for line in fh if line.startswith(("step.", "final."))]
        assert all(np.isfinite(float(v)) for v in values)


class TestMetrics:
    def test_identity_ideals(self, tmp_path, scene, capsys):
        src, _ = scene
        assert main(["metrics", src, src]) == 0
        out = capsys.readouterr().out
        assert "mse=0.0\n" in out
        assert "psnr=inf" in out
        assert "ssim=1.0\n" in out

    def test_pinned_golden_lines(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        write_ppm(gradient_image(16, 16), a)
        write_ppm(checkerboard_image(16, 16), b)
        assert main(["metrics", a, b]) == 0
        assert capsys.readouterr().out.splitlines() == METRICS_GOLDEN

    def test_prints_the_bytes_selftest_writes_to_metrics_txt(self, tmp_path, capsys):
        ok, _ = run_selftest(str(tmp_path / "self"))
        assert ok
        run = tmp_path / "self" / "a"
        edited, source = str(run / "edited.ppm"), str(run / "source.ppm")
        capsys.readouterr()
        assert main(["metrics", edited, source]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (run / "metrics.txt").read_bytes()
        # each printed value reads back exactly
        columns = compute_report(read_ppm(edited), read_ppm(source))
        assert {k: float(v) for k, v in report_entries(out).items()} == columns

    def test_mask_restricts_region(self, tmp_path, scene, capsys):
        src, msk = scene
        a = str(tmp_path / "a.ppm")
        write_ppm(gradient_image(16, 16), a)
        main(["metrics", src, a])
        unmasked = capsys.readouterr().out
        main(["metrics", src, a, "--mask", msk])
        masked = capsys.readouterr().out
        assert unmasked.splitlines()[0] != masked.splitlines()[0]
        # ssim has no masked variant: line unchanged
        assert unmasked.splitlines()[2] == masked.splitlines()[2]

    def test_forged_header_size_is_exit_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "big.ppm"
        path.write_bytes(b"P6\n99999999999 99999999999\n255\n")
        assert main(["metrics", str(path), str(path)]) == 1
        assert str(path) in capsys.readouterr().err
        # so is a file cut short between the size check and the read
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(6))
        stat = types.SimpleNamespace(st_size=1 << 20)  # the size it had at the check
        monkeypatch.setattr(fiaedit.codec.os, "fstat", lambda fd: stat)
        assert main(["metrics", str(path), str(path)]) == 1
        assert f"{path}: expected 12 bytes of pixel data" in capsys.readouterr().err

    def test_size_mismatch_is_exit_1(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        write_ppm(gradient_image(16, 16), a)
        write_ppm(gradient_image(8, 8), b)
        assert main(["metrics", a, b]) == 1
        assert "shapes differ" in capsys.readouterr().err
        # so does a mask of another grid than the images'
        mask = str(tmp_path / "mask.ppm")
        write_mask(np.ones((8, 8), dtype=bool), mask)
        assert main(["metrics", a, a, "--mask", mask]) == 1
        assert "mask shape (8, 8) != image grid (16, 16)" in capsys.readouterr().err


class TestAblate:
    def test_sigma_grid_writes_report_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EDIT_CONFIG)
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--config", cfg, "--grid", "filter_sigma=0.2,0.9,5.0", "--out", out])
        assert rc == 0
        report = Path(out, "report.txt").read_text(encoding="utf-8")
        assert "cells=3" in report
        assert report.count(".status=ok") == 3
        assert os.path.exists(os.path.join(out, "report.txt.timings"))

    def test_seed_flag_is_the_seed_key(self, tmp_path):
        flag, key = str(tmp_path / "flag"), str(tmp_path / "key")
        cfg = write_config(tmp_path, EDIT_CONFIG)
        seeded = write_config(tmp_path, EDIT_CONFIG + "edit.seed = 7\n", name="seeded.cfg")
        grid = ["--grid", "fri_mode=off,freq"]
        assert main(["ablate", "--config", cfg, *grid, "--out", flag, "--seed", "7"]) == 0
        assert main(["ablate", "--config", seeded, *grid, "--out", key]) == 0
        report = Path(flag, "report.txt").read_bytes()
        assert b"seed=7\n" in report
        assert report == Path(key, "report.txt").read_bytes()

    def test_bad_grid_is_exit_1(self, tmp_path):
        cfg = write_config(tmp_path, EDIT_CONFIG)
        rc = main(["ablate", "--config", cfg, "--grid", "nope=1", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_bad_grid_value_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EDIT_CONFIG)
        out = tmp_path / "x"
        rc = main(["ablate", "--config", cfg, "--grid", "fij_enabled=maybe", "--out", str(out)])
        assert rc == 1
        assert "fij_enabled" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_value_with_whitespace_is_exit_1(self, tmp_path, capsys):
        # int() would take "4 " and the cell would run, but its report's
        # delta line could not be read back
        cfg = write_config(tmp_path, EDIT_CONFIG)
        out = tmp_path / "x"
        rc = main(["ablate", "--config", cfg, "--grid", "fij_block_range=4 -5", "--out", str(out)])
        assert rc == 1
        assert "holds whitespace" in capsys.readouterr().err
        assert not out.exists()

    def test_fij_cutoff_beyond_the_steps_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EDIT_CONFIG + "fia.fij_step_cutoff = 5\n")
        out = tmp_path / "x"
        rc = main(["ablate", "--config", cfg, "--grid", "fri_mode=off,freq", "--out", str(out)])
        assert rc == 1
        assert "fij_step_cutoff 5 exceeds total steps 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "\n".join(ln for ln in EDIT_CONFIG.splitlines() if not ln.startswith("prompts.")),
                "prompts.source and prompts.target are required",
            ),
            (EDIT_CONFIG + "model.d_model = 2\nmodel.n_heads = 1\n", "d_model must be >= 4, got 2"),
            (
                EDIT_CONFIG + "fia.fij_block_lo = 0\nfia.fij_block_hi = 9\n",
                "fij_block_range (0, 9) outside a model of 6 blocks",
            ),
            (
                EDIT_CONFIG + "fia.fij_block_lo = 3\nfia.fij_block_hi = 1\n",
                "bad fij_block_range (3, 1)",
            ),
            (
                EDIT_CONFIG + "fia.fij_step_cutoff = -2\n",
                "fia.fij_step_cutoff must be >= -1 (-1 means the default), got -2",
            ),
            (
                EDIT_CONFIG + "edit.snapshot_stride = -1\n",
                "edit.snapshot_stride must be non-negative",
            ),
            (EDIT_CONFIG + "model.blocks_dual = 0\n", "need at least one dual block"),
            (
                EDIT_CONFIG.replace("model.seed = 11", "model.seed = -1"),
                "seed must be non-negative",
            ),
        ],
        ids=[
            "no-prompts", "d_model-2", "block-range", "reversed-block-range", "cutoff-minus-2",
            "snapshot-stride-minus-1", "blocks-dual-0", "model-seed-minus-1",
        ],
    )
    def test_fault_shared_by_every_cell_is_exit_1(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "x"
        rc = main(["ablate", "--config", cfg, "--grid", "fij_enabled=true,false", "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_fixture_is_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EDIT_CONFIG)
        with pytest.raises(ConfigError):
            load_fixture("nope")
        rc = main(["ablate", "--config", cfg, "--grid", "filter_sigma=0.9",
                   "--fixture", "nope", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "unknown fixture 'nope'" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes_and_reports_each_artifact(self, tmp_path, capsys):
        rc = main(["selftest", "--out", str(tmp_path / "self")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6
        assert "selftest PASS" in out

    def test_run_selftest_returns_lines(self, tmp_path):
        ok, lines = run_selftest(str(tmp_path / "self"))
        assert ok
        assert all(line.startswith("PASS") for line in lines)


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        assert main([]) == 1
        assert main(["edit"]) == 1

    def test_numeric_failure_maps_to_3(self):
        numeric = EditRunError("edit aborted at step 2: bad values")
        numeric.__cause__ = NumericFailure("non-finite")
        assert _exit_code_for(numeric) == 3

    def test_config_error_maps_to_1_even_when_caused_by_io(self):
        err = ConfigError("cannot read config")
        err.__cause__ = FileNotFoundError("gone")
        assert _exit_code_for(err) == 1

    def test_io_error_maps_to_2(self):
        assert _exit_code_for(FileNotFoundError("gone")) == 2

    def test_module_entrypoint_runs(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fiaedit", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "selftest" in result.stdout
