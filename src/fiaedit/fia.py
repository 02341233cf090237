"""Source-aware constraint on the target velocity pass.

Two mechanisms constrain the target pass:

* frequency interaction fuses the source and target self-attention Q/K in
  the spectral domain (or averages them, in ``ADD`` mode) at every step;
* feature injection substitutes the source cross-attention packet (Q, K, V
  and text embedding) in a chosen block range during the early steps.

:func:`plan_capture` alone decides a step's constrained sites: it
resolves the injection window and block range, refuses them when they do
not fit the run, and returns the sites as a set.  Target features come
from an unconstrained probe of the target state.  One step serves one
source and any number of targets (the cells of a grid), in one model call
of one state each.  A target with sites captures them under a fork rule,
so the model runs its probe and its constrained pass side by side: at
each captured site the rule builds that site's override inside the call,
with one :func:`build_target_overrides` call on the source and probe
packets just captured there.  Until its first applied override the
constrained pass copies its probe's attention cores.  The constrained
pass reuses its probe's unconditional pass, so a guided one-target step
is one call of 5 branches, against 4 with the constraints off.  A state's
two passes share the prefix up to block 0's self-attention, so it runs
once for the source and once per target, while everything from block 0's
output projection on runs once per branch.  Sites are read from the
model's ``ModelConfig``, and a call's packets reach the rule as
``{site: packet}`` tables, the form ``VelocityModel.velocity`` returns.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ShapeMismatchError, TopologyError
from .model import (
    AttentionPacket,
    EMPTY_PLAN,
    AttnKind,
    ForkRule,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
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

    ``fij_step_cutoff=None`` means ``default_fij_cutoff`` for the run's step
    count, and ``fij_block_range=None`` the model's cross-only tail; pin them
    for window and placement studies.  :func:`plan_capture` checks they fit.
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

    def fij_active(self, step_index: int, total_steps: int) -> bool:
        return self.fij_enabled and step_index < self.resolved_cutoff(total_steps)


@functools.lru_cache(maxsize=256)
def plan_capture(
    cfg: FiaConfig, model_cfg: ModelConfig, step_index: int, total_steps: int
) -> frozenset[Site]:
    """The sites one step constrains, and so captures on the source and probe passes.

    The self sites under frequency interaction, and the cross sites of the
    injection block range while the injection window is open.  The one
    place that resolves the window and the range, and refuses them, window
    first, when they do not fit the run's step count or the model.
    """
    sites: set[Site] = set()
    if cfg.fri_enabled:
        sites.update(model_cfg.self_sites())
    if cfg.fij_enabled:
        cutoff = cfg.resolved_cutoff(total_steps)  # the window is refused first
        lo, hi = rng = cfg.fij_block_range or model_cfg.cross_only_range()
        if hi >= model_cfg.n_blocks:
            raise TopologyError(
                f"fij_block_range {rng} outside a model of {model_cfg.n_blocks} blocks"
            )
        if step_index < cutoff:
            sites.update((b, AttnKind.CROSS) for b in range(lo, hi + 1))
    return frozenset(sites)


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal``, answered at the first entry when that differs.

    Source and target features almost always differ there, and the
    comparison of two Python floats costs a tenth of a full one.
    """
    return a.shape == b.shape and (a.size == 0 or a.item(0) == b.item(0)) and np.array_equal(a, b)


def _identity(cfg: FiaConfig, src: AttentionPacket, tar: AttentionPacket) -> bool:
    """Whether fusing a self site's Q/K would hand the target its own features.

    Bit-identical features blended by ``ADD``'s mean, or by ``FREQ``
    weights that sum to 1, fuse to themselves.
    """
    weights = cfg.fusion
    return (
        (cfg.fri_mode is FriMode.ADD or weights.lambda1 + weights.lambda2 == 1.0)
        and _equal(src.q, tar.q)
        and _equal(src.k, tar.k)
    )


def _fused(
    cfg: FiaConfig, src: AttentionPacket, tar: AttentionPacket, grid: tuple[int, int]
) -> ReplaceQK:
    """The fused Q/K override at one self site.

    In ``FREQ`` mode the source's and then the target's Q and K are
    reshaped to channel grids, one per head and feature, for one
    :func:`fri_fuse` call.
    """
    if cfg.fri_mode is FriMode.ADD:
        return ReplaceQK(q=0.5 * (src.q + tar.q), k=0.5 * (src.k + tar.k))
    heads, n_tok, d_head = src.q.shape
    # (source/target, Q/K * heads * d_head, h, w), in one copy
    parts = [a.swapaxes(-1, -2) for a in (src.q, src.k, tar.q, tar.k)]
    grids = np.concatenate(parts, out=np.empty((4 * heads, d_head, n_tok))).reshape(2, -1, *grid)
    filt = make_gaussian_lowpass(*grid, cfg.filter_sigma)
    fused = fri_fuse(grids[0], grids[1], filt, cfg.fusion)
    q, k = fused.reshape(2, heads, d_head, n_tok).swapaxes(-1, -2)
    return ReplaceQK(q=q, k=k)


def build_target_overrides(
    cfg: FiaConfig,
    site: Site,
    src: AttentionPacket,
    tar: AttentionPacket,
    grid: tuple[int, int],
    topology: ModelConfig,
) -> HookPlan:
    """The constrained pass's override at one site, from the packets captured there.

    ``src`` and ``tar`` are the source's and the target probe's packets at
    ``site``, one of the sites :func:`plan_capture` names; ``topology`` is
    the model's config.  A cross site always takes the source packet
    itself, and a self site the fused source/target Q/K, unless the fusion
    is the identity map (see :func:`_identity`): then the plan is empty,
    which changes no bits and keeps fully symmetric runs exactly symmetric.
    """
    if site[1] is AttnKind.CROSS:
        return HookPlan(overrides={site: src})
    if src.q.shape != tar.q.shape or src.k.shape != tar.k.shape:
        raise ShapeMismatchError(f"packet shapes differ at {site}")
    if _identity(cfg, src, tar):
        return EMPTY_PLAN
    return HookPlan(overrides={site: _fused(cfg, src, tar, grid)})


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

    The source state comes first and captures the union of the targets'
    sites, then one state per target: ``EMPTY_PLAN`` if it has no sites,
    else a plan that captures them under a fork rule.  At each of those
    sites, target ``j``'s rule builds its own override with one
    :func:`build_target_overrides` call on the two packets just captured
    there, the source's and its probe's; that call drops identity fusion.  A
    failed call is recorded in the table under ``j``, and that target gets
    no more overrides, so a failure stays with its own target.
    """
    mu = guidance.mu_tar
    captures = [
        plan_capture(cfg, model.cfg, step_index, total_steps) if mu != 0.0 else frozenset()
        for cfg in cfgs
    ]
    union = HookPlan(capture=frozenset().union(*captures))
    errors: dict[int, Exception] = {}

    def rule(j: int) -> ForkRule:
        def override(site: Site, packets: Sequence[Mapping[Site, AttentionPacket]]):
            if j not in errors:
                try:
                    return build_target_overrides(
                        cfgs[j], site, packets[0][site], packets[j + 1][site],
                        x_src_t.shape[-2:], model.cfg,
                    ).overrides.get(site)
                except Exception as exc:
                    errors[j] = exc
            return None

        return override

    states: list[State] = [(x_src_t, p_src, guidance.mu_src, union)]
    states += [
        (x, p, mu, HookPlan(capture=sites, fork=rule(j)) if sites else EMPTY_PLAN)
        for j, (x, p, sites) in enumerate(zip(x_tar_ts, p_tars, captures))
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
    captures the union of the targets' capture sets, and one state per
    target, whose plan captures its own set under a fork rule: the model
    runs the target's unconstrained probe and beside it the constrained
    pass, whose velocity the state returns.  At each capture site the rule
    builds that site's override from the source and probe packets just
    captured there, and the constrained pass runs its own cores from its
    first applied override on; a target that only fuses, and only by the
    identity map, never forks.  The probe's unconditional pass has the same
    inputs as the constrained one's and takes no hooks, so it serves both,
    and each state's two velocities are guided as they come back.  A pass
    whose guidance weight keeps it out of the result is not run, unless it
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
    return guide(v_src_cond, v_src_uncond, guidance.mu_src), [
        errors[j] if j in errors else guide(v_cond, v_uncond, guidance.mu_tar)
        for j, (v_cond, v_uncond, _) in enumerate(out)
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
