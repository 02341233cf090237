from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import fiaedit.engine
from fiaedit.fia import FiaConfig, build_target_overrides, plan_capture
from fiaedit.model import (
    HookPlan,
    ModelConfig,
    VelocityModel,
    _append_ones,
    _attend_site,
    _scaled,
)
from fiaedit.prompts import embed_prompt

# a constraint with both mechanisms off
FIA_OFF = FiaConfig(fri_enabled=False, fij_enabled=False)


def branches(states, out) -> int:
    """Branches of a forward of ``states``: the passes that ran in its per-state results.

    A guided state whose plan has a fork rule and captures returns its
    constrained pass as ``v_cond``; its probe ran too and counts one more.
    """
    probes = sum(
        mu != 0.0 and plan.fork is not None and bool(plan.capture) for _, _, mu, plan in states
    )
    return probes + sum((v_cond is not None) + (v_uncond is not None) for v_cond, v_uncond, _ in out)


def step_plan(cfg, step, total, src, tar, grid, topology) -> HookPlan:
    """A step's whole override plan from ``{site: packet}`` tables.

    One ``build_target_overrides`` call per site the step's capture plan
    names, in block order, as a target's fork rule asks them.
    """
    overrides = {}
    for site in sorted(plan_capture(cfg, topology, step, total), key=lambda s: (s[0], s[1].value)):
        plan = build_target_overrides(cfg, site, src[site], tar[site], grid, topology)
        overrides.update(plan.overrides)
    return HookPlan(overrides=overrides)


def record_velocities(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``'s result and the velocities of each step it ran.

    A step's entry is its source velocity, then the velocity (or failure) of
    each target still running, in request order: what ``run_edits`` gets
    from ``constrained_velocities``, or, with ``bypass_fia``, from one
    ``VelocityModel.velocity`` call each at the step's sigma.  A run's
    sigmas strictly decrease, so they tell its steps apart.
    """
    by_sigma = {}
    constrained, velocity = fiaedit.engine.constrained_velocities, VelocityModel.velocity

    def keep(sigma_t, vs):
        by_sigma.setdefault(sigma_t, []).extend(
            v.copy() if isinstance(v, np.ndarray) else v for v in vs
        )

    def spy_constrained(model, x_src_t, x_tar_ts, p_src, p_tars, sigma_t, *rest):
        v_src, v_tars = constrained(model, x_src_t, x_tar_ts, p_src, p_tars, sigma_t, *rest)
        keep(sigma_t, [v_src, *v_tars])
        return v_src, v_tars

    def spy_velocity(self, x, p, sigma_t, *rest, **kwargs):
        v, packets = velocity(self, x, p, sigma_t, *rest, **kwargs)
        keep(sigma_t, [v])
        return v, packets

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fiaedit.engine, "constrained_velocities", spy_constrained)
        mp.setattr(VelocityModel, "velocity", spy_velocity)
        result = fn(*args, **kwargs)
    return result, [tuple(vs) for vs in by_sigma.values()]


def report_entries(text: str) -> dict[str, str]:
    """An ablation report's ``key=value`` lines, by key."""
    return dict(line.split("=", 1) for line in text.splitlines())


def delta_pairs(text: str) -> tuple[tuple[str, ...], ...]:
    """A report cell's delta, from its ``name=value`` words."""
    return tuple(tuple(word.split("=", 1)) for word in text.split())


def dyadic(rng: np.random.Generator, shape, scale: int = 1024, span: int = 2048):
    """Random dyadic rationals k/scale; sums and differences stay exact."""
    return rng.integers(-span, span + 1, size=shape).astype(np.float64) / scale


def keys_major(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """The keys-major core's operands from Q, K and V, each (heads, tokens, d_head).

    Q^T is contiguous and scaled, K is as given, and ``[V | 1]^T`` is built,
    as a forward builds them.
    """
    qs = _scaled(np.ascontiguousarray(q.swapaxes(-1, -2)))
    return qs, k, _append_ones(v.swapaxes(-1, -2))


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d_head)) v by the keys-major core and its divide."""
    heads, queries, d_head = q.shape[0], q.shape[1], v.shape[-1]
    out = np.empty((1, heads, d_head, queries))
    weighted = np.empty((1, heads, d_head + 1, queries))
    _attend_site([keys_major(q, k, v)], None, weighted, out)
    return out[0].swapaxes(-1, -2)


def traced_peak(model: VelocityModel, states) -> int:
    """Traced peak bytes of one warm ``_forward`` of ``states``."""
    model._forward(states, 0.5)  # caches the position features
    tracemalloc.start()
    try:
        model._forward(states, 0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def tiny_model() -> VelocityModel:
    """4 dual + 2 cross-only blocks on 4-channel latents; shared read-only."""
    return VelocityModel(
        ModelConfig(
            n_blocks_dual=4,
            n_blocks_cross_only=2,
            d_model=8,
            n_heads=2,
            seed=3,
            channels=4,
        )
    )


@pytest.fixture(scope="session")
def prompt_pair():
    return (
        embed_prompt("a cat sits on the mat", 8, seed=1),
        embed_prompt("a dog stands in the grass", 8, seed=1),
    )
