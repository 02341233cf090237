"""Source-aware constraint on the target velocity pass.

Two mechanisms feed a hook plan for the constrained target pass:

* frequency interaction fuses the source and target self-attention Q/K in
  the spectral domain (or averages them, in ``ADD`` mode) at every step;
* feature injection substitutes the source cross-attention packet (Q, K, V
  and text embedding) in a chosen block range during the early steps.

Target features come from an unconstrained probe of the target branch.
The constrained pass reuses the probe's unconditional forward, so a guided
step with a non-empty override plan costs one extra conditional forward:
five forwards against four with the constraints off.  Sites are read from
the model's ``ModelConfig``, and packets travel as ``{site: packet}``
tables, the form ``VelocityModel.velocity`` returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PacketAlignmentError, ShapeMismatchError, TopologyError
from .model import (
    AttentionPacket,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    ReplaceQKVE,
    Site,
    VelocityModel,
    guide,
)
from .prompts import PromptEmbedding, embeddings_equal
from .spectral import FusionWeights, fri_fuse, make_gaussian_lowpass

DEFAULT_FIJ_STEP_FRACTION = 0.54
DEFAULT_FILTER_SIGMA = 0.9


class FriMode(enum.Enum):
    FREQ = "freq"
    ADD = "add"


def default_fij_cutoff(total_steps: int) -> int:
    """Injection window: the first ceil(0.54 * T) steps (27 of 50)."""
    return math.ceil(DEFAULT_FIJ_STEP_FRACTION * total_steps)


@dataclass(frozen=True)
class FiaConfig:
    """Switches and strengths for every constraint mechanism.

    ``fij_step_cutoff=None`` resolves to ``default_fij_cutoff`` for the run's
    step count; ``fij_block_range=None`` resolves to the model's cross-only
    tail.  Both can be pinned explicitly for placement and window studies.
    """

    fri_enabled: bool = True
    fri_mode: FriMode = FriMode.FREQ
    fusion: FusionWeights = field(default_factory=FusionWeights)
    filter_sigma: float = DEFAULT_FILTER_SIGMA
    filter_normalized: bool = True
    fij_enabled: bool = True
    fij_step_cutoff: int | None = None
    fij_block_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.filter_sigma <= 0.0:
            raise ValueError(f"filter_sigma must be positive, got {self.filter_sigma}")
        if self.fij_step_cutoff is not None and self.fij_step_cutoff < 0:
            raise ValueError("fij_step_cutoff must be non-negative")
        if self.fij_block_range is not None:
            lo, hi = self.fij_block_range
            if lo < 0 or hi < lo:
                raise ValueError(f"bad fij_block_range {self.fij_block_range}")

    @staticmethod
    def disabled() -> "FiaConfig":
        return FiaConfig(fri_enabled=False, fij_enabled=False)

    def resolved_cutoff(self, total_steps: int) -> int:
        cutoff = (
            default_fij_cutoff(total_steps)
            if self.fij_step_cutoff is None
            else self.fij_step_cutoff
        )
        if cutoff > total_steps:
            raise ValueError(
                f"fij_step_cutoff {cutoff} exceeds total steps {total_steps}"
            )
        return cutoff

    def resolved_block_range(self, model_cfg: ModelConfig) -> tuple[int, int]:
        rng = (
            model_cfg.cross_only_range()
            if self.fij_block_range is None
            else self.fij_block_range
        )
        if rng[1] >= model_cfg.n_blocks:
            raise TopologyError(
                f"fij_block_range {rng} outside a model of {model_cfg.n_blocks} blocks"
            )
        return rng

    def fij_active(self, step_index: int, total_steps: int) -> bool:
        return self.fij_enabled and step_index < self.resolved_cutoff(total_steps)


def plan_capture(cfg: FiaConfig, model_cfg: ModelConfig) -> HookPlan:
    """Capture plan for the source and probe passes: every site FIA consumes."""
    sites: set[Site] = set()
    if cfg.fri_enabled:
        sites.update(model_cfg.self_sites())
    if cfg.fij_enabled:
        lo, hi = cfg.resolved_block_range(model_cfg)
        sites.update((b, AttnKind.CROSS) for b in range(lo, hi + 1))
    return HookPlan(capture=frozenset(sites))


def fold_heads_to_grid(a: np.ndarray, h: int, w: int) -> np.ndarray:
    """(heads, h*w, d_head) -> (heads*d_head, h, w), heads folded as channels."""
    heads, n_tok, d_head = a.shape
    if n_tok != h * w:
        raise ShapeMismatchError(f"{n_tok} tokens do not tile a {h}x{w} grid")
    return a.transpose(0, 2, 1).reshape(heads * d_head, h, w)


def unfold_grid_to_heads(g: np.ndarray, heads: int) -> np.ndarray:
    """Inverse of :func:`fold_heads_to_grid`."""
    c, h, w = g.shape
    d_head = c // heads
    return g.reshape(heads, d_head, h * w).transpose(0, 2, 1)


def _packets_identical(a: AttentionPacket, b: AttentionPacket) -> bool:
    if (a.text_embedding is None) != (b.text_embedding is None):
        return False
    if a.text_embedding is not None and not embeddings_equal(
        a.text_embedding, b.text_embedding
    ):
        return False
    return (
        np.array_equal(a.q, b.q)
        and np.array_equal(a.k, b.k)
        and np.array_equal(a.v, b.v)
    )


def _fuse_self_sites(
    pairs: list[tuple[Site, AttentionPacket, AttentionPacket]],
    cfg: FiaConfig,
    grid: tuple[int, int],
) -> dict[Site, ReplaceQK]:
    """Fused Q/K overrides for the given (site, source, target) triples.

    In ``FREQ`` mode the Q and K of every site are folded to channel grids,
    stacked, and fused by one :func:`fri_fuse` call; fusion acts on each
    channel alone, so this equals fusing site by site.
    """
    if cfg.fri_mode is FriMode.ADD:
        return {
            site: ReplaceQK(q=0.5 * (src.q + tar.q), k=0.5 * (src.k + tar.k))
            for site, src, tar in pairs
        }
    if not pairs:
        return {}
    feats = [(src.q, tar.q) for _, src, tar in pairs] + [
        (src.k, tar.k) for _, src, tar in pairs
    ]
    filt = make_gaussian_lowpass(*grid, cfg.filter_sigma, cfg.filter_normalized)
    fused = fri_fuse(
        np.concatenate([fold_heads_to_grid(s, *grid) for s, _ in feats]),
        np.concatenate([fold_heads_to_grid(t, *grid) for _, t in feats]),
        filt,
        cfg.fusion,
    )
    ends = np.cumsum([s.shape[0] * s.shape[2] for s, _ in feats])
    out = [
        unfold_grid_to_heads(part, s.shape[0])
        for part, (s, _) in zip(np.split(fused, ends[:-1]), feats)
    ]
    n = len(pairs)
    return {site: ReplaceQK(q=out[i], k=out[n + i]) for i, (site, _, _) in enumerate(pairs)}


def build_target_overrides(
    cfg: FiaConfig,
    step_index: int,
    total_steps: int,
    src_packets: dict[Site, AttentionPacket],
    tar_packets: dict[Site, AttentionPacket],
    grid: tuple[int, int],
    topology: ModelConfig,
) -> HookPlan:
    """Turn captured source/target packets into the constrained pass's plan.

    ``topology`` is the model's config, which lists the self sites.

    Frequency fusion overrides every self-attention site at every step;
    packet injection overrides the configured cross sites only while the
    step index is below the cutoff.  Substitutions that would be exact
    no-ops are dropped: fusing bit-identical features under weights that
    sum to 1 is the identity, and injecting a packet the target already
    computed replaces values with themselves.  Skipping them changes no
    bits and keeps fully symmetric runs exactly symmetric.
    """
    overrides: dict[Site, ReplaceQK | ReplaceQKVE] = {}

    if cfg.fri_enabled:
        unit_weights = cfg.fusion.lambda1 + cfg.fusion.lambda2 == 1.0
        to_fuse = []
        for site in topology.self_sites():
            src = src_packets.get(site)
            tar = tar_packets.get(site)
            if src is None or tar is None:
                raise PacketAlignmentError(f"missing self-attention packets at {site}")
            if src.q.shape != tar.q.shape or src.k.shape != tar.k.shape:
                raise ShapeMismatchError(f"packet shapes differ at {site}")
            if (
                unit_weights
                and np.array_equal(src.q, tar.q)
                and np.array_equal(src.k, tar.k)
            ):
                continue
            to_fuse.append((site, src, tar))
        overrides.update(_fuse_self_sites(to_fuse, cfg, grid))

    if cfg.fij_active(step_index, total_steps):
        lo, hi = cfg.resolved_block_range(topology)
        for b in range(lo, hi + 1):
            site = (b, AttnKind.CROSS)
            src = src_packets.get(site)
            if src is None:
                raise PacketAlignmentError(f"missing cross-attention packet at {site}")
            tar = tar_packets.get(site)
            if tar is not None and _packets_identical(src, tar):
                continue
            overrides[site] = ReplaceQKVE(packet=src)

    return HookPlan(overrides=overrides)


def constrained_velocity_pair(
    model: VelocityModel,
    x_src_t: np.ndarray,
    x_tar_t: np.ndarray,
    p_src: PromptEmbedding,
    p_tar: PromptEmbedding,
    sigma_t: float,
    step_index: int,
    total_steps: int,
    guidance: GuidanceConfig,
    cfg: FiaConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Source velocity and the source-constrained target velocity at one step.

    Runs the source pass (capturing) and an unconstrained target probe: its
    conditional pass (capturing) and its unconditional pass.  The target's
    conditional pass then runs again under the built overrides and is
    blended with the probe's unconditional pass, which has the same inputs
    and takes no hooks.  The rerun is skipped when the override plan comes
    out empty, since the probe's conditional pass already is the
    constrained one.  With ``mu_tar`` of 0 the conditional pass does not
    enter the result, so nothing is captured and the target is one plain
    unconditional pass.
    """
    if x_src_t.shape != x_tar_t.shape:
        raise ShapeMismatchError(
            f"state shapes differ: {x_src_t.shape} vs {x_tar_t.shape}"
        )
    mu = guidance.mu_tar
    capture = plan_capture(cfg, model.cfg) if mu != 0.0 else HookPlan()
    v_src, src_packets = model.velocity(
        x_src_t, p_src, sigma_t, guidance.mu_src, hooks=capture
    )
    if not capture.capture:
        v_tar, _ = model.velocity(x_tar_t, p_tar, sigma_t, mu)
        return v_src, v_tar

    v_cond, tar_packets = model.velocity(x_tar_t, p_tar, sigma_t, 1.0, hooks=capture)
    v_uncond = None if mu == 1.0 else model.velocity(x_tar_t, p_tar, sigma_t, 0.0)[0]
    grid = x_src_t.shape[-2:]
    plan = build_target_overrides(
        cfg, step_index, total_steps, src_packets, tar_packets, grid, model.cfg
    )
    if plan.overrides:
        v_cond, _ = model.velocity(x_tar_t, p_tar, sigma_t, 1.0, hooks=plan)
    return v_src, guide(v_cond, v_uncond, mu)
