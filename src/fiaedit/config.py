"""Run configuration: a strict dotted-key text format.

One ``section.key = value`` assignment per line; full-line comments start
with ``#``; string values may be double-quoted (required only when they
begin with a quote or need leading/trailing spaces).  Unknown keys are
rejected, every value is type-checked, and environment variables never
override anything, so a config file plus a seed pins a run completely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .codec import ImageBuffer, encode
from .engine import EditRequest, check_budget
from .errors import ConfigError
from .fia import FiaConfig, FriMode, plan_capture
from .model import GuidanceConfig, ModelConfig, VelocityModel
from .prompts import embed_prompt, prompt_words
from .schedule import NoiseMode, NoiseSchedule, make_linear_schedule
from .spectral import FusionWeights


@dataclass(frozen=True)
class RunConfig:
    """Flat view of every config key; defaults come from the owning classes.

    Field ``section_name`` is the key ``section.name``, and its annotation
    picks the value parser (see ``_SCHEMA``).
    """

    model_channels: int = ModelConfig.channels
    model_blocks_dual: int = ModelConfig.n_blocks_dual
    model_blocks_cross_only: int = ModelConfig.n_blocks_cross_only
    model_d_model: int = ModelConfig.d_model
    model_n_heads: int = ModelConfig.n_heads
    model_seed: int = ModelConfig.seed
    schedule_steps: int = 50
    schedule_skip_fraction: float = 0.0
    guidance_mu_src: float = GuidanceConfig.mu_src
    guidance_mu_tar: float = GuidanceConfig.mu_tar
    prompts_source: str = ""
    prompts_target: str = ""
    prompts_seed: int = 0
    fia_fri_enabled: bool = FiaConfig.fri_enabled
    fia_fri_mode: str = FiaConfig.fri_mode.value
    fia_lambda1: float = FusionWeights.lambda1
    fia_lambda2: float = FusionWeights.lambda2
    fia_filter_sigma: float = FiaConfig.filter_sigma
    fia_fij_enabled: bool = FiaConfig.fij_enabled
    fia_fij_step_cutoff: int = -1  # -1: first ceil(0.54 * steps)
    fia_fij_block_lo: int = -1  # -1: the cross-only tail
    fia_fij_block_hi: int = -1
    edit_seed: int = EditRequest.seed
    edit_noise_mode: str = EditRequest.noise_mode.value
    edit_snapshot_stride: int = EditRequest.snapshot_stride
    codec_patch: int = 2

    def make_model_config(self) -> ModelConfig:
        expected_channels = 3 * self.codec_patch**2
        if self.model_channels != expected_channels:
            raise ConfigError(
                f"model.channels={self.model_channels} but codec.patch="
                f"{self.codec_patch} produces {expected_channels} latent channels"
            )
        return ModelConfig(
            n_blocks_dual=self.model_blocks_dual,
            n_blocks_cross_only=self.model_blocks_cross_only,
            d_model=self.model_d_model,
            n_heads=self.model_n_heads,
            seed=self.model_seed,
            channels=self.model_channels,
        )

    def make_schedule(self) -> NoiseSchedule:
        return make_linear_schedule(self.schedule_steps, self.schedule_skip_fraction)

    def make_guidance(self) -> GuidanceConfig:
        return GuidanceConfig(mu_src=self.guidance_mu_src, mu_tar=self.guidance_mu_tar)

    def make_fia(self) -> FiaConfig:
        block_range = None
        if self.fia_fij_block_lo >= 0 or self.fia_fij_block_hi >= 0:
            if self.fia_fij_block_lo < 0 or self.fia_fij_block_hi < 0:
                raise ConfigError("set both fia.fij_block_lo and fia.fij_block_hi")
            block_range = (self.fia_fij_block_lo, self.fia_fij_block_hi)
        return FiaConfig(
            fri_enabled=self.fia_fri_enabled,
            fri_mode=FriMode(self.fia_fri_mode),
            fusion=FusionWeights(self.fia_lambda1, self.fia_lambda2),
            filter_sigma=self.fia_filter_sigma,
            fij_enabled=self.fia_fij_enabled,
            fij_step_cutoff=(
                None if self.fia_fij_step_cutoff < 0 else self.fia_fij_step_cutoff
            ),
            fij_block_range=block_range,
        )

    def noise_mode(self) -> NoiseMode:
        return NoiseMode(self.edit_noise_mode)


def build_edit_request(cfg: RunConfig, source_latent) -> EditRequest:
    if not cfg.prompts_source or not cfg.prompts_target:
        raise ConfigError("prompts.source and prompts.target are required")
    d_model = cfg.model_d_model
    return EditRequest(
        source_latent=source_latent,
        p_src=embed_prompt(cfg.prompts_source, d_model, cfg.prompts_seed),
        p_tar=embed_prompt(cfg.prompts_target, d_model, cfg.prompts_seed),
        schedule=cfg.make_schedule(),
        guidance=cfg.make_guidance(),
        fia=cfg.make_fia(),
        seed=cfg.edit_seed,
        noise_mode=cfg.noise_mode(),
        snapshot_stride=cfg.edit_snapshot_stride,
    )


def build_run(
    cfg: RunConfig, image: ImageBuffer, n_requests: int = 1
) -> tuple[VelocityModel, EditRequest]:
    """The model and request to edit ``image``; checks ``n_requests``' budget first."""
    latent = encode(image, cfg.codec_patch)
    model_cfg = cfg.make_model_config()
    words = [len(prompt_words(p)) for p in (cfg.prompts_source, cfg.prompts_target)]
    check_budget(model_cfg, latent.shape[-2:], n_requests, words)
    return VelocityModel(model_cfg), build_edit_request(cfg, latent)


def _parse_bool(raw: str, key: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{key}: expected true/false, got {raw!r}")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite, got {raw!r}")
    return value


def _parse_choice(options: tuple[str, ...]):
    def parse(raw: str, key: str) -> str:
        value = _parse_str(raw, key)
        if value not in options:
            raise ConfigError(f"{key}: expected one of {options}, got {raw!r}")
        return value

    return parse


def _parse_str(raw: str, key: str) -> str:
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    return raw


_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool, "str": _parse_str}
# the string fields that take one of an enum's values
_CHOICES = {"fia_fri_mode": FriMode, "edit_noise_mode": NoiseMode}

# config key -> (RunConfig field, value parser)
_SCHEMA = {
    f.name.replace("_", ".", 1): (
        f.name,
        _parse_choice(tuple(m.value for m in _CHOICES[f.name]))
        if f.name in _CHOICES
        else _PARSERS[f.type],
    )
    for f in fields(RunConfig)
}


def parse_config(text: str) -> RunConfig:
    """Parse and schema-validate one config document."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, parser = _SCHEMA[key]
        values[attr] = parser(raw_value, key)

    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.codec_patch < 1:
        raise ConfigError(f"codec.patch must be >= 1, got {cfg.codec_patch}")
    # the model alone takes a width of 2, but prompt embeddings need 4
    if cfg.model_d_model < 4:
        raise ConfigError(f"model.d_model must be >= 4, got {cfg.model_d_model}")
    try:
        model_cfg = cfg.make_model_config()
        cfg.make_schedule()
        cfg.make_guidance()
        plan_capture(cfg.make_fia(), model_cfg, 0, cfg.schedule_steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.edit_seed < 0:
        raise ConfigError("edit.seed must be non-negative")
    if cfg.edit_snapshot_stride < 0:
        raise ConfigError("edit.snapshot_stride must be non-negative")
    for name, value in (
        ("fia.fij_step_cutoff", cfg.fia_fij_step_cutoff),
        ("fia.fij_block_lo", cfg.fia_fij_block_lo),
        ("fia.fij_block_hi", cfg.fia_fij_block_hi),
    ):
        if value < -1:
            raise ConfigError(f"{name} must be >= -1 (-1 means the default), got {value}")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def with_overrides(cfg: RunConfig, **overrides: object) -> RunConfig:
    updated = replace(cfg, **overrides)
    _validate(updated)
    return updated
