from __future__ import annotations

import pytest

from fiaedit.config import RunConfig, load_config, parse_config, with_overrides
from fiaedit.errors import ConfigError
from fiaedit.fia import FiaConfig, FriMode
from fiaedit.model import GuidanceConfig, ModelConfig
from fiaedit.schedule import NoiseMode

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
        assert cfg.selected_metrics() == ("mse", "psnr", "ssim", "ssd")


    def test_defaults_match_the_owning_classes(self):
        cfg = RunConfig()
        assert cfg.make_model_config() == ModelConfig()
        assert cfg.make_guidance() == GuidanceConfig()
        assert cfg.make_fia() == FiaConfig()


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
        with pytest.raises(ConfigError):
            parse_config("metrics.select = mse,vibes\n")

    def test_half_specified_block_range_rejected(self):
        with pytest.raises(ConfigError, match="fij_block_lo"):
            parse_config("fia.fij_block_lo = 2\n")

    def test_block_range_resolves(self):
        cfg = parse_config("fia.fij_block_lo = 1\nfia.fij_block_hi = 3\n")
        assert cfg.make_fia().fij_block_range == (1, 3)

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
