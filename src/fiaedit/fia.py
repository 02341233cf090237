"""Source-aware constraint on the target velocity pass.

Two mechanisms feed a hook plan for the constrained target pass:

* frequency interaction fuses the source and target self-attention Q/K in
  the spectral domain (or averages them, in ``ADD`` mode) at every step;
* feature injection substitutes the source cross-attention packet (Q, K, V
  and text embedding) in a chosen block range during the early steps.

Target features come from an unconstrained probe of the target state.
One step serves one source and any number of targets (the cells of a
grid), in one model call: the source state, every target's probe, and
every target's constrained pass, a ``Fork`` of its probe's conditional
pass.  An override at a site reads only the source and probe packets
captured at that site, so the fork's rule builds it there, inside the
call; until its first applied override the fork copies its probe's
attention cores.  Every override comes from one path: a
:func:`build_target_overrides` call per site and group of targets that
share it, a group of one holding its probe's packet, a larger group at a
self site its probes' Q/K stacked on the head axis.  The constrained
pass reuses its probe's unconditional pass, so a guided one-target step
is one call of 5 branches, against 4 with the constraints off.  A
state's two passes share the prefix up to block 0's self-attention, so
it runs once for the source and once per target, while everything from
block 0's output projection on runs once per branch.  Sites are read
from the model's ``ModelConfig``, and packets travel as ``{site:
packet}`` tables, the form ``VelocityModel.velocity`` returns.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import PacketAlignmentError, ShapeMismatchError, TopologyError
from .model import (
    AttentionPacket,
    EMPTY_PLAN,
    AttnKind,
    Fork,
    ForkRule,
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


@functools.lru_cache(maxsize=256)
def plan_capture(
    cfg: FiaConfig, model_cfg: ModelConfig, step_index: int, total_steps: int
) -> HookPlan:
    """Capture plan for the source and probe passes at one step.

    Every site that step's overrides read: the self sites under frequency
    interaction, and the injected cross sites while the injection window is
    open.  Built once per step and constraint, and shared by every caller.
    """
    sites: set[Site] = set()
    if cfg.fri_enabled:
        sites.update(model_cfg.self_sites())
    if cfg.fij_enabled:
        lo, hi = cfg.resolved_block_range(model_cfg)
        if cfg.fij_active(step_index, total_steps):
            sites.update((b, AttnKind.CROSS) for b in range(lo, hi + 1))
    return HookPlan(capture=frozenset(sites))


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal``, answered at the first entry when that differs.

    Source and target features almost always differ there, and the
    comparison of two Python floats costs a tenth of a full one.
    """
    return a.shape == b.shape and (a.size == 0 or a.item(0) == b.item(0)) and np.array_equal(a, b)


def _noop(cfg: FiaConfig, site: Site, src: AttentionPacket, tar: AttentionPacket | None) -> bool:
    """Whether overriding ``site`` would hand the target its own features.

    Fusing bit-identical features under weights that sum to 1 is the
    identity, and injecting the Q/K/V the target already computed
    replaces values with themselves.
    """
    if tar is None or not (_equal(src.q, tar.q) and _equal(src.k, tar.k)):
        return False
    if site[1] is AttnKind.CROSS:
        return _equal(src.v, tar.v)
    return cfg.fusion.lambda1 + cfg.fusion.lambda2 == 1.0


def _fused(
    cfg: FiaConfig, src: AttentionPacket, tar: AttentionPacket, grid: tuple[int, int]
) -> ReplaceQK:
    """The fused Q/K override at one self site.

    The packets may hold several targets' heads, stacked along the head
    axis.  In ``FREQ`` mode the source's and then the target's Q and K are
    reshaped to channel grids, one per head and feature, for one
    :func:`fri_fuse` call; fusion acts on each channel alone, so a stack
    fuses as its targets do one by one.
    """
    if cfg.fri_mode is FriMode.ADD:
        return ReplaceQK(q=0.5 * (src.q + tar.q), k=0.5 * (src.k + tar.k))
    heads, n_tok, d_head = src.q.shape
    # (source/target, Q/K * heads * d_head, h, w)
    grids = np.concatenate([src.q, src.k, tar.q, tar.k]).swapaxes(-1, -2).reshape(2, -1, *grid)
    filt = make_gaussian_lowpass(*grid, cfg.filter_sigma)
    fused = fri_fuse(grids[0], grids[1], filt, cfg.fusion)
    q, k = fused.reshape(2, heads, d_head, n_tok).swapaxes(-1, -2)
    return ReplaceQK(q=q, k=k)


def build_target_overrides(
    cfg: FiaConfig,
    step_index: int,
    total_steps: int,
    src_packets: Mapping[Site, AttentionPacket],
    tar_packets: Mapping[Site, AttentionPacket],
    grid: tuple[int, int],
    topology: ModelConfig,
) -> HookPlan:
    """Turn captured source/target packets into the constrained pass's plan.

    ``topology`` is the model's config.  The plan overrides those of the
    sites :func:`plan_capture` captures at this step that either table
    holds: a self site takes the fused source/target Q/K, and a cross site
    the source packet.  A constrained pass asks at one site at a time, and
    full tables give the whole step's plan.  Substitutions that would be
    exact no-ops are dropped: fusing bit-identical features under weights
    that sum to 1 is the identity, and injecting the Q/K/V the target
    already computed replaces values with themselves.  Skipping them
    changes no bits and keeps fully symmetric runs exactly symmetric.
    """
    overrides: dict[Site, ReplaceQK | ReplaceQKVE] = {}
    sites = plan_capture(cfg, topology, step_index, total_steps).capture
    held = sites.intersection(src_packets.keys() | tar_packets.keys())
    # block order, so the first faulty site reported does not depend on set order
    for site in sorted(held, key=lambda s: (s[0], s[1].value)):
        src, tar = src_packets.get(site), tar_packets.get(site)
        is_self = site[1] is AttnKind.SELF
        if src is None or (is_self and tar is None):
            raise PacketAlignmentError(f"missing packets at {site}")
        if is_self and (src.q.shape != tar.q.shape or src.k.shape != tar.k.shape):
            raise ShapeMismatchError(f"packet shapes differ at {site}")
        # a cross site is injected even when its target packet is missing
        if not _noop(cfg, site, src, tar):
            overrides[site] = _fused(cfg, src, tar, grid) if is_self else ReplaceQKVE(packet=src)
    return HookPlan(overrides=overrides)


def _step_states(
    model: VelocityModel,
    x_src_t: np.ndarray,
    x_tar_ts: Sequence[np.ndarray],
    p_src: PromptEmbedding,
    p_tars: Sequence[PromptEmbedding],
    step_index: int,
    total_steps: int,
    guidance: GuidanceConfig,
    cfgs: Sequence[FiaConfig],
) -> tuple[list[State], dict[int, Exception]]:
    """One step's model states, and the table of targets whose overrides failed.

    The source state comes first, then each target's probe, then a fork of
    each probe whose conditional pass captures.  At each site, the first
    fork's rule asked builds the override there of every target that plans
    it, from the source and probe packets just captured, and the other
    rules read theirs.  A target whose override would be an exact no-op
    gets none.  The others are grouped so that one
    :func:`build_target_overrides` call per group gives all their
    overrides: at a cross site each injects the source packet, and at a
    self site targets with the same fusion settings have their probes' Q/K
    stacked along the head axis, against the source's repeated; a group of
    one passes its probe's packet as it is.  A group whose call fails is
    built again target by target, so a failure stays with its own target:
    the table holds it under the target's index, and that target gets no
    more overrides.
    """
    mu = guidance.mu_tar
    captures = [
        plan_capture(cfg, model.cfg, step_index, total_steps) if mu != 0.0 else EMPTY_PLAN
        for cfg in cfgs
    ]
    union = HookPlan(capture=frozenset().union(*(plan.capture for plan in captures)))
    errors: dict[int, Exception] = {}

    def stack(pkts: list[AttentionPacket]) -> AttentionPacket:
        # a self site's override reads no V
        q, k = np.concatenate([p.q for p in pkts]), np.concatenate([p.k for p in pkts])
        return AttentionPacket(q, k, pkts[0].v)

    def build(
        site: Site, packets: Sequence[Mapping[Site, AttentionPacket]]
    ) -> dict[int, ReplaceQK | ReplaceQKVE | None]:
        src, is_self = packets[0][site], site[1] is AttnKind.SELF
        groups: dict[object, list[int]] = {}
        for j, (cfg, plan) in enumerate(zip(cfgs, captures)):
            if site in plan.capture and j not in errors:
                if not _noop(cfg, site, src, packets[j + 1][site]):
                    key = (cfg.fri_mode, cfg.filter_sigma, cfg.fusion) if is_self else None
                    groups.setdefault(key, []).append(j)
        work, actions = list(groups.values()), {}
        while work:
            js = work.pop()
            tars = [packets[j + 1][site] for j in js]
            stacked = is_self and len(js) > 1
            s, tar = (stack([src] * len(js)), stack(tars)) if stacked else (src, tars[0])
            try:
                action = build_target_overrides(
                    cfgs[js[0]], step_index, total_steps, {site: s}, {site: tar},
                    x_src_t.shape[-2:], model.cfg,
                ).overrides.get(site)
            except Exception as exc:
                if len(js) > 1:
                    work += [[j] for j in js]
                else:
                    errors[js[0]] = exc
                continue
            if stacked:
                n = src.q.shape[0]
                for i, j in enumerate(js):
                    cut = slice(i * n, (i + 1) * n)
                    actions[j] = ReplaceQK(q=action.q[cut], k=action.k[cut])
            else:
                actions.update(dict.fromkeys(js, action))
        return actions

    last: tuple = (None, None, {})  # the site and call packets of the last build, and its overrides

    def rule(j: int) -> ForkRule:
        def override(site: Site, packets: Sequence[Mapping[Site, AttentionPacket]]):
            nonlocal last
            if site != last[0] or packets is not last[1]:
                last = (site, packets, build(site, packets))
            return last[2].get(j)

        return override

    states: list[State] = [(x_src_t, p_src, guidance.mu_src, union)]
    states += [(x, p, mu, plan) for x, p, plan in zip(x_tar_ts, p_tars, captures)]
    states += [
        (x_tar_ts[j], p_tars[j], 1.0, Fork(j + 1, plan.capture, rule(j)))
        for j, plan in enumerate(captures)
        if plan.capture
    ]
    return states, errors


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
    captures the union of the targets' capture sets; every target's
    unconstrained probe, whose conditional pass captures its own set; and
    every target's constrained pass, a ``Fork`` of its probe's conditional
    pass.  At each of the target's capture sites the fork's rule builds
    that site's override from the source and probe packets just captured
    there, and the fork runs its own cores from its first applied
    override on; a target whose overrides are all exact no-ops never
    forks.  The probe's unconditional pass has the same inputs as the
    constrained one's and takes no hooks, so it serves both.  A pass whose
    guidance weight keeps it out of the result is not run, unless it
    captures; with ``mu_tar`` of 0 nothing is captured and nothing forks.

    Every constraint must fit the model and the schedule (the engine checks
    this before step 0), and a failure of the call raises.  A failure in
    building a target's overrides becomes the returned entry of that
    target, and the others carry on.
    """
    states, errors = _step_states(
        model, x_src_t, x_tar_ts, p_src, p_tars, step_index, total_steps, guidance, cfgs
    )
    (v_src_cond, v_src_uncond, _), *out = model._forward(states, sigma_t)
    n = len(cfgs)
    v_conds = [v_cond for v_cond, _, _ in out[:n]]
    for (_, _, _, fork), (v_cond, _, _) in zip(states[n + 1 :], out[n:]):
        v_conds[fork.donor - 1] = v_cond
    return guide(v_src_cond, v_src_uncond, guidance.mu_src), [
        errors[j] if j in errors else guide(v_cond, v_uncond, guidance.mu_tar)
        for j, (v_cond, (_, v_uncond, _)) in enumerate(zip(v_conds, out))
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
    that captures is one call of 5 branches.
    """
    v_src, (v_tar,) = constrained_velocities(
        model, x_src_t, [x_tar_t], p_src, [p_tar], sigma_t,
        step_index, total_steps, guidance, [cfg],
    )
    if isinstance(v_tar, Exception):
        raise v_tar
    return v_src, v_tar
