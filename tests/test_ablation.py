from __future__ import annotations

import numpy as np
import pytest

from fiaedit.ablation import (
    apply_cell,
    build_edit_request,
    format_report,
    format_timings,
    parse_grid,
    parse_report,
    run_ablation,
)
from fiaedit.codec import decode, encode
from fiaedit.config import parse_config
from fiaedit.engine import run_edit
from fiaedit.errors import ConfigError
from fiaedit.fixtures import load_fixture
from fiaedit.metrics import compute_report
from fiaedit.model import VelocityModel

BASE = parse_config(
    """
model.channels = 12
model.seed = 11
schedule.steps = 4
guidance.mu_src = 1.5
guidance.mu_tar = 3.0
prompts.source = a small bright blob
prompts.target = a dark square
edit.noise_mode = none
codec.patch = 2
"""
)


class TestGridSpec:
    def test_sigma_axis_produces_one_row_per_value(self):
        grid = parse_grid("filter_sigma=0.2,0.9,5.0")
        assert len(grid.cells()) == 3

    def test_cartesian_product_in_axis_order(self):
        grid = parse_grid("fij_enabled=true,false;noise_mode=none,reused")
        cells = grid.cells()
        assert len(cells) == 4
        assert cells[0] == (("fij_enabled", "true"), ("noise_mode", "none"))
        assert cells[-1] == (("fij_enabled", "false"), ("noise_mode", "reused"))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("learning_rate=0.1")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("filter_sigma=1;filter_sigma=2")

    @pytest.mark.parametrize(
        "spec",
        [
            "fij_enabled=true,maybe",
            "fri_mode=banana",
            "noise_mode=loud",
            "filter_sigma=0.9,wide",
            "filter_sigma=nan",
            "fij_block_range=3",
            "fij_block_range=0-x",
        ],
    )
    def test_malformed_value_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_grid(spec)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_grid("  ;  ")


class TestApplyCell:
    def test_fri_mode_off_disables(self):
        cfg = apply_cell(BASE, (("fri_mode", "off"),))
        assert not cfg.fia_fri_enabled

    def test_fri_mode_add_enables_and_sets_mode(self):
        cfg = apply_cell(BASE, (("fri_mode", "add"),))
        assert cfg.fia_fri_enabled and cfg.fia_fri_mode == "add"

    def test_block_range_parses(self):
        cfg = apply_cell(BASE, (("fij_block_range", "0-5"),))
        assert cfg.make_fia().fij_block_range == (0, 5)
        auto = apply_cell(cfg, (("fij_block_range", "auto"),))
        assert auto.make_fia().fij_block_range is None

    def test_bad_value_raises(self):
        with pytest.raises(ConfigError):
            apply_cell(BASE, (("fri_mode", "banana"),))


class TestRunAblation:
    def test_row_per_cell_and_deterministic_order(self):
        grid = parse_grid("filter_sigma=0.2,0.9,5.0")
        report = run_ablation(BASE, grid, fixture="blob16")
        assert len(report.rows) == 3
        assert [r.delta[0][1] for r in report.rows] == ["0.2", "0.9", "5.0"]
        assert all(r.status == "ok" for r in report.rows)
        assert all(set(r.metrics) == {"mse", "psnr", "ssim", "ssd"} for r in report.rows)

    def test_all_off_cell_matches_bypassed_engine(self):
        grid = parse_grid("fri_mode=off;fij_enabled=false")
        report = run_ablation(BASE, grid, fixture="blob16")
        row = report.rows[0]

        cfg = apply_cell(BASE, grid.cells()[0])
        image, mask = load_fixture("blob16")
        latent = encode(image, cfg.codec_patch)
        model = VelocityModel(cfg.make_model_config())
        trace = run_edit(model, build_edit_request(cfg, latent), bypass_fia=True)
        expected = compute_report(decode(trace.final_latent, cfg.codec_patch), image, mask)
        assert row.metrics["mse"] == expected.mse
        assert row.metrics["psnr"] == expected.psnr

    def test_failed_cell_is_recorded_and_run_continues(self):
        grid = parse_grid("filter_sigma=-1.0,0.9")
        report = run_ablation(BASE, grid, fixture="blob16")
        assert [r.status for r in report.rows] == ["error", "ok"]
        assert report.rows[0].error

    def test_channel_mismatch_rejected_upfront(self):
        bad = parse_config("model.channels = 4\ncodec.patch = 2\n"
                           "prompts.source = a\nprompts.target = b\n")
        with pytest.raises(ConfigError, match="channels"):
            run_ablation(bad, parse_grid("filter_sigma=0.9"), fixture="blob16")

    def test_jobs_pool_matches_serial(self):
        grid = parse_grid("noise_mode=none,reused")
        serial = run_ablation(BASE, grid, fixture="blob16", jobs=1)
        pooled = run_ablation(BASE, grid, fixture="blob16", jobs=2)
        for a, b in zip(serial.rows, pooled.rows):
            assert a.delta == b.delta
            assert a.metrics == b.metrics

    def test_directional_injection_row_pair(self):
        # steering regime through the grid harness: the injection-on row
        # must beat the injection-off row on background-masked error
        steering = parse_config(
            """
model.channels = 12
model.seed = 0
schedule.steps = 12
guidance.mu_src = 1.0
guidance.mu_tar = 1.0
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
edit.noise_mode = none
fia.fri_enabled = false
fia.fij_block_lo = 0
fia.fij_block_hi = 5
codec.patch = 2
"""
        )
        report = run_ablation(steering, parse_grid("fij_enabled=true,false"), "blob16")
        on, off = report.rows
        assert on.metrics["mse"] < off.metrics["mse"]


class TestReportFormat:
    def test_roundtrip_is_lossless(self):
        grid = parse_grid("filter_sigma=0.5,0.9;fij_enabled=true,false")
        report = run_ablation(BASE, grid, fixture="blob16")
        parsed = parse_report(format_report(report))
        assert parsed.seed == report.seed
        assert parsed.fixture == report.fixture
        assert parsed.axes == report.axes
        for a, b in zip(parsed.rows, report.rows):
            assert a.delta == b.delta
            assert a.status == b.status
            assert a.metrics == b.metrics

    def test_timings_sidecar_lists_every_cell(self):
        grid = parse_grid("filter_sigma=0.5,0.9")
        report = run_ablation(BASE, grid, fixture="blob16")
        timings = format_timings(report)
        assert "cell.0.wall_s=" in timings and "cell.1.wall_s=" in timings

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_report("schema=other/9\ncells=0\n")
