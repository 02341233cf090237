from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import fiaedit.config
from fiaedit.ablation import (
    AblationReport,
    AblationRow,
    apply_cell,
    format_report,
    format_table,
    format_timings,
    parse_grid,
    run_ablation,
)
from fiaedit.codec import clamp_image, decode, encode
from fiaedit.config import build_edit_request, parse_config
from fiaedit.engine import run_edit
from fiaedit.errors import ConfigError
from fiaedit.fixtures import FIXTURES, load_fixture
from fiaedit.metrics import compute_report
from fiaedit.model import VelocityModel
from fiaedit.prompts import embed_prompt

from conftest import branches, delta_pairs, report_entries

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
            "fij_block_range=4 -5,0-5",
            "fij_block_range=4\x85-5",
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

    def test_filter_sigma_whose_square_underflows_is_a_config_error_row(self):
        grid = parse_grid("filter_sigma=1e-320,0.9")
        report = run_ablation(BASE, grid, fixture="blob16")
        assert [r.status for r in report.rows] == ["error", "ok"]
        assert report.rows[0].error.startswith("ConfigError: filter_sigma must be positive")
        assert report.rows[1].metrics == solo_rows(BASE, grid)[1]

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_every_fixture_reports_on_its_own_image(self, fixture):
        # run_ablation reports a finished cell unguarded: its decoded latent is
        # an image of the fixture's grid, and the fixture's grid and mask suit
        # every metric
        image, mask = load_fixture(fixture)
        assert min(image.grid) >= 16
        assert mask is None or (mask.shape == image.grid and mask.any())
        noise = np.random.default_rng(0).uniform(-0.5, 1.5, image.pixels.shape)
        for edited in (image, clamp_image(noise)):
            columns = compute_report(edited, image, mask).columns()
            assert not np.isnan(list(columns.values())).any()

    def test_channel_mismatch_rejected_upfront(self):
        with pytest.raises(ConfigError, match="channels"):
            parse_config("model.channels = 4\ncodec.patch = 2\n"
                         "prompts.source = a\nprompts.target = b\n")
        # a config that skipped validation still fails before any cell runs
        bad = dataclasses.replace(BASE, model_channels=4)
        with pytest.raises(ConfigError, match="channels"):
            run_ablation(bad, parse_grid("filter_sigma=0.9"), fixture="blob16")


# the component_grid base of scripts/run_experiments.py, and its noise_modes
# base but for edit.noise_mode, which every cell of that grid sets
COMPONENT_BASE = parse_config(
    """
model.channels = 12
model.seed = 11
schedule.steps = 12
guidance.mu_src = 1.0
guidance.mu_tar = 1.0
prompts.source = a small bright blob on a striped background
prompts.target = a dark square on a plain background
edit.noise_mode = none
fia.fij_block_lo = 0
fia.fij_block_hi = 5
codec.patch = 2
"""
)
NOISE_BASE = dataclasses.replace(
    COMPONENT_BASE,
    guidance_mu_src=1.5,
    guidance_mu_tar=3.0,
    fia_fij_block_lo=-1,
    fia_fij_block_hi=-1,
)


def solo_rows(base, grid, fixture="blob16"):
    """Each cell's metrics from its own run_edit, None for a cell that fails."""
    image, mask = load_fixture(fixture)
    latent = encode(image, base.codec_patch)
    model = VelocityModel(base.make_model_config())
    rows = []
    for delta in grid.cells():
        try:
            cfg = apply_cell(base, delta)
            trace = run_edit(model, build_edit_request(cfg, latent))
        except Exception:
            rows.append(None)
            continue
        report = compute_report(decode(trace.final_latent, cfg.codec_patch), image, mask)
        rows.append({"mse": report.mse, "psnr": report.psnr, "ssim": report.ssim,
                     "ssd": report.spectral_structure_distance})
    return rows


class TestLockstep:
    @pytest.mark.parametrize(
        "base, spec, per_step",
        [
            # 6 cells, unguided: the source and 6 probes, and a fork of each
            # probe that captures; injection closes after step 6, which
            # empties the capture set of the injection-only cell
            (COMPONENT_BASE, "fij_enabled=false,true;fri_mode=off,add,freq",
             [12] * 7 + [11] * 5),
            # 3 cells, guided: source and 3 probes, twice each, and 3 forks
            (NOISE_BASE, "noise_mode=none,fresh,reused", [11] * 12),
        ],
        ids=["component-grid", "noise-modes"],
    )
    def test_one_call_per_step_and_prompts_embedded_once(
        self, monkeypatch, base, spec, per_step
    ):
        forward = VelocityModel._forward
        calls = []

        def counting(model, states, sigma_t):
            out = forward(model, states, sigma_t)
            calls.append(branches(states, out))
            return out

        embeds = []

        def counting_embed(*args, **kwargs):
            embeds.append(args[0])
            return embed_prompt(*args, **kwargs)

        monkeypatch.setattr(VelocityModel, "_forward", counting)
        monkeypatch.setattr(fiaedit.config, "embed_prompt", counting_embed)
        report = run_ablation(base, parse_grid(spec), fixture="blob16")
        assert all(row.status == "ok" for row in report.rows)
        assert calls == per_step
        assert embeds == [base.prompts_source, base.prompts_target]

    def test_failed_cell_keeps_its_row_and_spares_the_others(self):
        grid = parse_grid("fij_block_range=0-3,0-9,4-5")
        report = run_ablation(BASE, grid, fixture="blob16")
        assert [r.status for r in report.rows] == ["ok", "error", "ok"]
        assert report.rows[1].error == (
            "ConfigError: fij_block_range (0, 9) outside a model of 6 blocks"
        )
        solo = solo_rows(BASE, grid)
        assert solo[1] is None
        assert [report.rows[i].metrics for i in (0, 2)] == [solo[0], solo[2]]

    def test_a_cell_that_fails_mid_run_keeps_its_own_error_row(self):
        # fusion weights of 1e308 blow up the FREQ cell's fused Q/K at step 0,
        # while the ADD cell averages and the off cell never fuses
        base = dataclasses.replace(
            BASE, fia_lambda1=1e308, fia_lambda2=1e308, fia_fij_enabled=False
        )
        grid = parse_grid("fri_mode=off,add,freq")
        report = run_ablation(base, grid, fixture="blob16")
        assert [r.status for r in report.rows] == ["ok", "ok", "error"]
        assert report.rows[2].error.startswith(
            "EditRunError: edit aborted at step 0: velocity difference is not finite"
        )
        solo = solo_rows(base, grid)
        assert solo[2] is None
        assert [r.metrics for r in report.rows[:2]] == solo[:2]


class TestReportFormat:
    def test_roundtrip_is_lossless(self):
        grid = parse_grid("filter_sigma=0.5,0.9;fij_enabled=true,false")
        report = run_ablation(BASE, grid, fixture="blob16")
        entries = report_entries(format_report(report))
        assert entries["seed"] == str(report.seed)
        assert entries["fixture"] == report.fixture
        assert entries["axes"].split(",") == list(report.axes)
        assert entries["cells"] == str(len(report.rows))
        for i, row in enumerate(report.rows):
            assert delta_pairs(entries[f"cell.{i}.delta"]) == row.delta
            assert entries[f"cell.{i}.status"] == row.status == "ok"
            # metrics are written with repr, so each float reads back exactly
            for name, value in row.metrics.items():
                assert float(entries[f"cell.{i}.{name}"]) == value

    def test_timings_sidecar_lists_every_cell(self):
        grid = parse_grid("filter_sigma=0.5,0.9")
        report = run_ablation(BASE, grid, fixture="blob16")
        lines = format_timings(report).splitlines()
        # the cells run in lockstep, so the grid has one wall time
        assert lines[:2] == ["schema=ablation-timings/2", "cells=2"]
        assert len(lines) == 3 and lines[2].startswith("wall_s=")
        assert float(lines[2].partition("=")[2]) > 0.0


def test_format_table_has_a_column_per_axis_and_metric_and_shows_errors():
    report = AblationReport(
        seed=0,
        fixture="blob16",
        axes=("fij_enabled", "fij_block_range"),
        rows=(
            AblationRow(
                delta=(("fij_enabled", "true"), ("fij_block_range", "0-3")),
                status="ok",
                metrics={"mse": 0.5, "psnr": 3.0, "ssim": 0.25, "ssd": 1.0},
            ),
            AblationRow(
                delta=(("fij_enabled", "false"), ("fij_block_range", "0-9")),
                status="error",
                error="ConfigError: fij_block_range (0, 9) outside a model of 6 blocks",
            ),
        ),
    )
    assert format_table(report).splitlines() == [
        "fij_enabled fij_block_range          mse         psnr         ssim          ssd",
        "       true             0-3     0.500000     3.000000     0.250000     1.000000",
        "      false             0-9 error: ConfigError: fij_block_range (0, 9) outside"
        " a model of 6 blocks",
    ]
