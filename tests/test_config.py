from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from fiaedit.config import _SCHEMA, RunConfig, load_config, parse_config, with_overrides
from fiaedit.errors import ConfigError
from fiaedit.fia import FiaConfig, FriMode
from fiaedit.model import GuidanceConfig, ModelConfig
from fiaedit.schedule import MAX_STEPS, NoiseMode

SAMPLE = """
# sample run
model.channels = 12
model.d_model = 16
model.n_heads = 4
schedule.steps = 20
guidance.mu_src = 2.0
guidance.mu_tar = 7.5
prompts.source = a red blob
prompts.target = "a blue square"
fia.fri_mode = add
fia.fij_step_cutoff = 9
edit.noise_mode = none
"""


class TestDefaults:
    def test_stock_constants_are_wired(self):
        cfg = RunConfig()
        assert cfg.schedule_steps == 50
        assert (cfg.guidance_mu_src, cfg.guidance_mu_tar) == (3.5, 13.5)
        assert (cfg.fia_lambda1, cfg.fia_lambda2) == (0.8, 0.2)
        assert cfg.fia_filter_sigma == 0.9
        assert cfg.make_fia().resolved_cutoff(cfg.schedule_steps) == 27
        assert cfg.noise_mode() is NoiseMode.REUSED_EPSILON

    def test_factories_build_valid_objects(self):
        cfg = RunConfig()
        assert cfg.make_model_config().n_blocks_dual == 4
        assert cfg.make_schedule().sigmas[0] == 1.0
        assert cfg.make_fia().fri_mode is FriMode.FREQ


    def test_defaults_match_the_owning_classes(self):
        cfg = RunConfig()
        assert cfg.make_model_config() == ModelConfig()
        assert cfg.make_guidance() == GuidanceConfig()
        assert cfg.make_fia() == FiaConfig()


# every field away from its default, and valid
NON_DEFAULT = RunConfig(
    model_channels=48,
    model_blocks_dual=2,
    model_blocks_cross_only=1,
    model_d_model=16,
    model_n_heads=4,
    model_seed=7,
    schedule_steps=20,
    schedule_skip_fraction=0.25,
    guidance_mu_src=2.0,
    guidance_mu_tar=7.5,
    prompts_source="a red blob",
    prompts_target="a blue square",
    prompts_seed=3,
    fia_fri_enabled=False,
    fia_fri_mode="add",
    fia_lambda1=0.6,
    fia_lambda2=0.4,
    fia_filter_sigma=0.2,
    fia_fij_enabled=False,
    fia_fij_step_cutoff=9,
    fia_fij_block_lo=0,
    fia_fij_block_hi=2,
    edit_seed=5,
    edit_noise_mode="fresh",
    edit_snapshot_stride=2,
    codec_patch=4,
)


class TestSchema:
    def test_every_field_round_trips_through_its_key(self):
        for f in dataclasses.fields(RunConfig):
            assert getattr(NON_DEFAULT, f.name) != f.default, f.name
        lines = []
        for key, (attr, _) in _SCHEMA.items():
            value = getattr(NON_DEFAULT, attr)
            text = str(value).lower() if isinstance(value, bool) else str(value)
            lines.append(f"{key} = {text}")
        assert len(lines) == len(dataclasses.fields(RunConfig))
        assert parse_config("\n".join(lines)) == NON_DEFAULT

    def test_readme_config_table_lists_every_key(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        table = readme.read_text(encoding="utf-8").split("## Config format", 1)[1]
        table = table.split("\n## ", 1)[0]
        documented = []
        for line in table.splitlines():
            if line.startswith("| `"):
                first_cell = line.split("|")[1]
                documented += re.findall(r"`([a-z_]+\.[a-z_0-9]+)`", first_cell)
        assert sorted(documented) == sorted(_SCHEMA)


class TestParsing:
    def test_sample_document(self):
        cfg = parse_config(SAMPLE)
        assert cfg.model_d_model == 16
        assert cfg.schedule_steps == 20
        assert cfg.prompts_source == "a red blob"
        assert cfg.prompts_target == "a blue square"
        assert cfg.fia_fri_mode == "add"
        assert cfg.fia_fij_step_cutoff == 9
        assert cfg.edit_noise_mode == "none"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("model.depth = 3\n")
        # the mask is always peak-1: a raw Gaussian amplitude is no band split
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("fia.filter_normalized = true\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("model.seed = 1\nmodel.seed = 2\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError):
            parse_config("model.seed = soon\n")
        with pytest.raises(ConfigError):
            parse_config("guidance.mu_src = nan\n")
        with pytest.raises(ConfigError):
            parse_config("fia.fri_enabled = yes\n")
        with pytest.raises(ConfigError):
            parse_config("edit.noise_mode = sometimes\n")

    def test_quoted_choice_values(self):
        cfg = parse_config('fia.fri_mode = "add"\nedit.noise_mode = "none"\n')
        assert cfg.fia_fri_mode == "add"
        assert cfg.make_fia().fri_mode is FriMode.ADD
        assert cfg.noise_mode() is NoiseMode.NONE

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# comment\n\nmodel.seed = 9\n")
        assert cfg.model_seed == 9


class TestValidation:
    def test_cross_field_validation(self):
        with pytest.raises(ConfigError):
            parse_config("model.d_model = 8\nmodel.n_heads = 3\n")
        with pytest.raises(ConfigError):
            parse_config("fia.filter_sigma = -1\n")
        with pytest.raises(ConfigError):
            parse_config("codec.patch = 0\n")

    def test_width_below_the_prompt_embedding_rejected(self):
        # ModelConfig takes d_model = 2, but embed_prompt needs 4: refuse it
        # at parse time, not once the model is built
        with pytest.raises(ConfigError, match="model.d_model must be >= 4, got 2"):
            parse_config("model.d_model = 2\nmodel.n_heads = 1\n")
        assert parse_config("model.d_model = 4\nmodel.n_heads = 1\n").model_d_model == 4

    def test_metrics_select_is_not_a_key(self):
        # reports always carry every metric column
        with pytest.raises(ConfigError, match="unknown key 'metrics.select'"):
            parse_config("metrics.select = mse\n")

    def test_fij_cutoff_beyond_the_steps_rejected(self):
        with pytest.raises(ConfigError, match="fij_step_cutoff 5 exceeds total steps 4"):
            parse_config("schedule.steps = 4\nfia.fij_step_cutoff = 5\n")
        assert parse_config("schedule.steps = 4\nfia.fij_step_cutoff = 4\n").fia_fij_step_cutoff == 4
        # -1 means the default window; below it is refused
        with pytest.raises(ConfigError, match="fia.fij_step_cutoff must be >= -1"):
            parse_config("fia.fij_step_cutoff = -2\n")
        # the cutoff is read only while injection is on
        off = parse_config("schedule.steps = 4\nfia.fij_step_cutoff = 5\nfia.fij_enabled = false\n")
        assert off.fia_fij_step_cutoff == 5
        with pytest.raises(ConfigError, match="exceeds total steps"):
            with_overrides(off, fia_fij_enabled=True)

    def test_block_range_outside_the_model_rejected(self):
        with pytest.raises(ConfigError, match=r"fij_block_range \(0, 9\) outside a model of 6 blocks"):
            parse_config("fia.fij_block_lo = 0\nfia.fij_block_hi = 9\n")
        with pytest.raises(ConfigError, match="no cross-only blocks"):
            parse_config("model.blocks_cross_only = 0\n")
        # the range is read only while injection is on
        off = parse_config("model.blocks_cross_only = 0\nfia.fij_enabled = false\n")
        with pytest.raises(ConfigError, match="no cross-only blocks"):
            with_overrides(off, fia_fij_enabled=True)
        pinned = with_overrides(off, fia_fij_block_lo=0, fia_fij_block_hi=3, fia_fij_enabled=True)
        assert pinned.make_fia().fij_block_range == (0, 3)

    @pytest.mark.parametrize(
        "bad_range",
        ["fia.fij_block_lo = 0\nfia.fij_block_hi = 9\n", "model.blocks_cross_only = 0\n"],
        ids=["outside", "no-tail"],
    )
    def test_a_bad_window_is_named_before_a_bad_range(self, bad_range):
        with pytest.raises(ConfigError, match="^fij_step_cutoff 5 exceeds total steps 4$"):
            parse_config("schedule.steps = 4\nfia.fij_step_cutoff = 5\n" + bad_range)

    def test_half_specified_block_range_rejected(self):
        with pytest.raises(ConfigError, match="fij_block_lo"):
            parse_config("fia.fij_block_lo = 2\n")
        with pytest.raises(ConfigError, match=r"bad fij_block_range \(3, 1\)"):
            parse_config("fia.fij_block_lo = 3\nfia.fij_block_hi = 1\n")

    def test_block_range_resolves(self):
        cfg = parse_config("fia.fij_block_lo = 1\nfia.fij_block_hi = 3\n")
        assert cfg.make_fia().fij_block_range == (1, 3)

    def test_step_count_is_bounded_before_the_grid_is_built(self):
        # a trillion steps once tried to allocate the whole noise grid
        with pytest.raises(ConfigError, match="step_count"):
            parse_config(f"schedule.steps = {10**12}")
        assert parse_config(f"schedule.steps = {MAX_STEPS}").schedule_steps == MAX_STEPS
        with pytest.raises(ConfigError, match="step_count"):
            parse_config(f"schedule.steps = {MAX_STEPS + 1}")

    def test_with_overrides_validates(self):
        cfg = RunConfig()
        assert with_overrides(cfg, edit_seed=5).edit_seed == 5
        with pytest.raises(ConfigError):
            with_overrides(cfg, edit_seed=-1)


class TestLoadConfig:
    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SAMPLE, encoding="utf-8")
        assert load_config(str(path)).model_d_model == 16
