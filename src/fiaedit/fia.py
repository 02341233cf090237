"""Source-aware constraint on the target velocity pass.

Two mechanisms feed a hook plan for the constrained target pass:

* frequency interaction fuses the source and target self-attention Q/K in
  the spectral domain (or averages them, in ``ADD`` mode) at every step;
* feature injection substitutes the source cross-attention packet (Q, K, V
  and text embedding) in a chosen block range during the early steps.

Target features come from an unconstrained probe of the target state.
One step serves one source and any number of targets (the cells of a
grid): the source state and every target's probe run as one model call,
and the constrained passes as a second, each a state with guidance scale 1,
so only its conditional pass runs.  A constrained pass reuses its probe's
unconditional pass, so a guided one-target step with a non-empty override
plan costs two calls of 4 and 1 branches, against one call of 4 branches
with the constraints off.  A state's two passes share the prefix up to
block 0's self-attention, so it runs once for the source and once per
target, while everything from block 0's output projection on runs once per
branch.  Sites are read from the model's ``ModelConfig``, and packets
travel as ``{site: packet}`` tables, the form ``VelocityModel.velocity``
returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import PacketAlignmentError, ShapeMismatchError, TopologyError
from .model import (
    AttentionPacket,
    EMPTY_PLAN,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    ReplaceQKVE,
    Site,
    State,
    VelocityModel,
    guide,
)
from .prompts import PromptEmbedding
from .spectral import FusionWeights, fri_fuse, lowpass_profile, make_gaussian_lowpass

DEFAULT_FIJ_STEP_FRACTION = 0.54


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
    filter_sigma: float = 0.9
    fij_enabled: bool = True
    fij_step_cutoff: int | None = None
    fij_block_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        try:
            lowpass_profile(0.0, self.filter_sigma)  # the low-pass profile's own check
        except ValueError as exc:
            raise ValueError(f"filter_{exc}") from None
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


def plan_capture(
    cfg: FiaConfig, model_cfg: ModelConfig, step_index: int, total_steps: int
) -> HookPlan:
    """Capture plan for the source and probe passes at one step.

    Every site that step's overrides read: the self sites under frequency
    interaction, and the injected cross sites while the injection window is
    open.
    """
    sites: set[Site] = set()
    if cfg.fri_enabled:
        sites.update(model_cfg.self_sites())
    if cfg.fij_enabled:
        lo, hi = cfg.resolved_block_range(model_cfg)
        if cfg.fij_active(step_index, total_steps):
            sites.update((b, AttnKind.CROSS) for b in range(lo, hi + 1))
    return HookPlan(capture=frozenset(sites))


def _fuse_self_sites(
    pairs: list[tuple[Site, AttentionPacket, AttentionPacket]],
    cfg: FiaConfig,
    grid: tuple[int, int],
) -> dict[Site, ReplaceQK]:
    """Fused Q/K overrides for the given (site, source, target) triples.

    In ``FREQ`` mode every site's Q, then every site's K, is stacked and
    reshaped to channel grids, one per head and feature, for one
    :func:`fri_fuse` call; fusion acts on each channel alone, so this
    equals fusing site by site.
    """
    if cfg.fri_mode is FriMode.ADD:
        return {
            site: ReplaceQK(q=0.5 * (src.q + tar.q), k=0.5 * (src.k + tar.k))
            for site, src, tar in pairs
        }
    if not pairs:
        return {}
    # (source/target, features, heads, tokens, d_head), Q features first
    feats = np.stack([
        [src.q for _, src, _ in pairs] + [src.k for _, src, _ in pairs],
        [tar.q for _, _, tar in pairs] + [tar.k for _, _, tar in pairs],
    ])
    heads, n_tok, d_head = feats.shape[2:]
    grids = feats.swapaxes(-1, -2).reshape(2, -1, *grid)
    filt = make_gaussian_lowpass(*grid, cfg.filter_sigma)
    fused = fri_fuse(grids[0], grids[1], filt, cfg.fusion)
    out = fused.reshape(-1, heads, d_head, n_tok).swapaxes(-1, -2)
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

    ``topology`` is the model's config.  The plan overrides the sites
    :func:`plan_capture` captures at this step: a self site takes the fused
    source/target Q/K, and a cross site the source packet.  Substitutions
    that would be exact no-ops are dropped: fusing bit-identical features
    under weights that sum to 1 is the identity, and injecting the Q/K/V the
    target already computed replaces values with themselves.  Skipping them
    changes no bits and keeps fully symmetric runs exactly symmetric.
    """
    unit_weights = cfg.fusion.lambda1 + cfg.fusion.lambda2 == 1.0
    overrides: dict[Site, ReplaceQK | ReplaceQKVE] = {}
    to_fuse = []
    # block order, so the fused stack does not depend on set iteration order
    sites = plan_capture(cfg, topology, step_index, total_steps).capture
    for site in sorted(sites, key=lambda s: (s[0], s[1].value)):
        src, tar = src_packets.get(site), tar_packets.get(site)
        is_self = site[1] is AttnKind.SELF
        if src is None or (is_self and tar is None):
            raise PacketAlignmentError(f"missing packets at {site}")
        same_qk = (
            tar is not None and np.array_equal(src.q, tar.q) and np.array_equal(src.k, tar.k)
        )
        if not is_self:
            # a cross site is injected even when its target packet is missing
            if not (same_qk and np.array_equal(src.v, tar.v)):
                overrides[site] = ReplaceQKVE(packet=src)
        elif src.q.shape != tar.q.shape or src.k.shape != tar.k.shape:
            raise ShapeMismatchError(f"packet shapes differ at {site}")
        elif not (unit_weights and same_qk):
            to_fuse.append((site, src, tar))
    overrides.update(_fuse_self_sites(to_fuse, cfg, grid))
    return HookPlan(overrides=overrides)


def constrained_velocities(
    model: VelocityModel,
    x_src_t: np.ndarray,
    x_tar_ts: Sequence[np.ndarray],
    p_src: PromptEmbedding,
    p_tars: Sequence[PromptEmbedding],
    sigma_t: float,
    step_index: int,
    total_steps: int,
    guidance: GuidanceConfig,
    cfgs: Sequence[FiaConfig],
) -> tuple[np.ndarray, list[np.ndarray | Exception]]:
    """The source velocity and each target's source-constrained velocity at one step.

    Target ``j`` has its own state, prompt and constraint; the source is
    shared.  One model call runs the source state, whose conditional pass
    captures the union of the targets' capture sets, and every target's
    unconstrained probe, whose conditional pass captures its own set.  A
    second call reruns each target's conditional pass under its overrides,
    as a state with guidance scale 1; the probe's unconditional pass has
    the same inputs and takes no hooks, so it is reused.  A target whose
    plan comes out empty is not rerun.  A pass whose guidance weight keeps
    it out of the result is not run, unless it captures; with ``mu_tar`` of
    0 nothing is captured.

    Every constraint must fit the model and the schedule (the engine checks
    this before step 0), and a failure of the first call raises.  A failure
    in building a target's overrides, or in the rerun, becomes the returned
    entry of each target it concerns, and the others carry on.
    """
    mu_src, mu = guidance.mu_src, guidance.mu_tar
    captures = [
        plan_capture(cfg, model.cfg, step_index, total_steps) if mu != 0.0 else EMPTY_PLAN
        for cfg in cfgs
    ]
    union = HookPlan(capture=frozenset().union(*(plan.capture for plan in captures)))
    (v_src_cond, v_src_uncond, src_packets), *probes = model._forward(
        [(x_src_t, p_src, mu_src, union)]
        + [(x, p, mu, plan) for x, p, plan in zip(x_tar_ts, p_tars, captures)],
        sigma_t,
    )

    grid = x_src_t.shape[-2:]
    results: dict[int, np.ndarray | Exception] = {}
    reruns: dict[int, State] = {}
    for j, (cfg, capture, (_, _, tar_packets)) in enumerate(zip(cfgs, captures, probes)):
        if not capture.capture:
            continue
        try:
            plan = build_target_overrides(
                cfg, step_index, total_steps, src_packets, tar_packets, grid, model.cfg
            )
        except Exception as exc:
            results[j] = exc
            continue
        if plan.overrides:
            reruns[j] = (x_tar_ts[j], p_tars[j], 1.0, plan)
    if reruns:
        try:
            out = model._forward(list(reruns.values()), sigma_t)
        except Exception as exc:
            results.update(dict.fromkeys(reruns, exc))
        else:
            for j, (v_cond, _, _) in zip(reruns, out):
                results[j] = guide(v_cond, probes[j][1], mu)
    return guide(v_src_cond, v_src_uncond, mu_src), [
        results[j] if j in results else guide(v_cond, v_uncond, mu)
        for j, (v_cond, v_uncond, _) in enumerate(probes)
    ]


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

    The one-target case of :func:`constrained_velocities`: a guided step
    with a non-empty override plan is one call of 4 branches and one of 1.
    """
    v_src, (v_tar,) = constrained_velocities(
        model, x_src_t, [x_tar_t], p_src, [p_tar], sigma_t,
        step_index, total_steps, guidance, [cfg],
    )
    if isinstance(v_tar, Exception):
        raise v_tar
    return v_src, v_tar
