from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiaedit.fia
import fiaedit.model
from fiaedit.codec import encode
from fiaedit.engine import EditRequest, run_edit
from fiaedit.errors import NumericFailure, ShapeMismatchError, TopologyError
from fiaedit.fia import (
    FiaConfig,
    FriMode,
    build_target_overrides,
    constrained_velocities,
    constrained_velocity_pair,
    default_fij_cutoff,
    plan_capture,
)
from fiaedit.fixtures import load_fixture
from fiaedit.model import (
    AttentionPacket,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    VelocityModel,
)
from fiaedit.prompts import PromptEmbedding, embed_prompt
from fiaedit.schedule import (
    NoiseMode,
    draw_step_noise,
    interpolate_source,
    make_linear_schedule,
    reconstruct_target_state,
)
from fiaedit.spectral import FusionWeights, fri_fuse, make_gaussian_lowpass

from conftest import FIA_OFF, branches, step_plan
from oracle_dft import grid_to_heads, heads_to_grid, oracle_fri_fuse
from spec import reference_step


def make_self_packet(seed, heads=2, tokens=4, d_head=2):
    rng = np.random.default_rng(seed)
    q, k, v = rng.standard_normal((3, heads, tokens, d_head))
    return AttentionPacket(q, k, v)


def make_cross_packet(seed, heads=2, tokens=4, d_head=2):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((heads, tokens, d_head))
    k, v = rng.standard_normal((2, heads, 3, d_head))
    return AttentionPacket(q, k, v)


class TestDefaults:
    def test_cutoff_is_27_of_50(self):
        assert default_fij_cutoff(50) == 27

    def test_cutoff_scales_with_steps(self):
        assert default_fij_cutoff(12) == 7
        assert FiaConfig().resolved_cutoff(50) == 27

    def test_default_block_range_is_cross_only_tail(self):
        cfg = FiaConfig(fri_enabled=False)
        topo = ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2)
        assert plan_capture(cfg, topo, 0, 50) == {(4, AttnKind.CROSS), (5, AttnKind.CROSS)}

    def test_explicit_range_validated_against_topology(self):
        cfg = FiaConfig(fij_block_range=(0, 9))
        with pytest.raises(TopologyError):
            plan_capture(cfg, ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2), 0, 50)

    def test_cutoff_cannot_exceed_steps(self):
        with pytest.raises(ValueError):
            FiaConfig(fij_step_cutoff=20).resolved_cutoff(10)
        with pytest.raises(ValueError, match="fij_step_cutoff must be non-negative"):
            FiaConfig(fij_step_cutoff=-1)


class TestPlanCapture:
    def test_all_disabled_is_empty(self):
        topo = ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2)
        assert plan_capture(FIA_OFF, topo, 0, 50) == frozenset()

    def test_fri_only_captures_each_dual_block(self):
        cfg = FiaConfig(fri_enabled=True, fij_enabled=False)
        sites = plan_capture(cfg, ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2), 0, 50)
        assert sites == frozenset((b, AttnKind.SELF) for b in range(4))

    def test_defaults_capture_self_plus_tail_cross(self):
        sites = plan_capture(FiaConfig(), ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2), 0, 50)
        expected = {(b, AttnKind.SELF) for b in range(4)} | {
            (4, AttnKind.CROSS),
            (5, AttnKind.CROSS),
        }
        assert sites == frozenset(expected)

    def test_cross_sites_drop_once_the_injection_window_closes(
        self, tiny_model, prompt_pair, monkeypatch
    ):
        cfg = FiaConfig(fij_step_cutoff=2)
        selfs = frozenset(tiny_model.cfg.self_sites())
        everything = selfs | {(4, AttnKind.CROSS), (5, AttnKind.CROSS)}
        assert [plan_capture(cfg, tiny_model.cfg, i, 5) for i in range(5)] == (
            [everything] * 2 + [selfs] * 3
        )
        # the engine's probe captures the per-step set, and its fork rule is
        # asked for overrides at those sites
        forward = tiny_model._forward
        captured, asked = [], []

        def spying(states, sigma_t):
            plans = [plan for _, _, _, plan in states]
            captured.append(frozenset().union(*(plan.capture for plan in plans)))
            asked.append([plan.capture for plan in plans if plan.fork is not None])
            return forward(states, sigma_t)

        monkeypatch.setattr(tiny_model, "_forward", spying)
        p_src, p_tar = prompt_pair
        req = EditRequest(
            source_latent=np.random.default_rng(5).standard_normal((4, 6, 6)),
            p_src=p_src, p_tar=p_tar, schedule=make_linear_schedule(5, 0.0),
            guidance=GuidanceConfig(mu_src=1.5, mu_tar=3.0), fia=cfg,
        )
        run_edit(tiny_model, req)
        # one call per step
        assert captured == [everything] * 2 + [selfs] * 3
        assert asked == [[everything]] * 2 + [[selfs]] * 3


class TestBuildOverrides:
    topo = ModelConfig(n_blocks_dual=2, n_blocks_cross_only=1)

    def packets(self, seed_base):
        """Source and target packets keyed by site: self 0-1, cross 0-2."""
        def table(base):
            return {
                (0, AttnKind.SELF): make_self_packet(base),
                (1, AttnKind.SELF): make_self_packet(base + 1),
                (0, AttnKind.CROSS): make_cross_packet(base + 2),
                (1, AttnKind.CROSS): make_cross_packet(base + 3),
                (2, AttnKind.CROSS): make_cross_packet(base + 4),
            }

        return table(seed_base), table(seed_base + 10)

    def test_past_cutoff_keeps_fri_only(self):
        src, tar = self.packets(0)
        cfg = FiaConfig(fij_step_cutoff=5)
        plan = step_plan(cfg, 5, 10, src, tar, (2, 2), self.topo)
        kinds = {type(a) for a in plan.overrides.values()}
        assert kinds == {ReplaceQK}
        assert set(plan.overrides) == {(0, AttnKind.SELF), (1, AttnKind.SELF)}

    def test_before_cutoff_adds_packet_injection(self):
        src, tar = self.packets(0)
        cfg = FiaConfig(fij_step_cutoff=5)
        plan = step_plan(cfg, 4, 10, src, tar, (2, 2), self.topo)
        assert plan.overrides[(2, AttnKind.CROSS)] is src[(2, AttnKind.CROSS)]

    def test_identical_packets_fuse_to_no_override(self):
        src, _ = self.packets(0)
        cfg = FiaConfig(fij_enabled=False)
        plan = step_plan(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        assert not plan.overrides

    def test_identical_cross_packets_still_inject_the_source_packet(self):
        # the constrained pass may have left the probe before a cross site,
        # so a source packet equal to the probe's is no no-op
        src, _ = self.packets(0)
        cfg = FiaConfig(fri_enabled=False, fij_step_cutoff=10)
        plan = step_plan(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        site = (2, AttnKind.CROSS)
        assert set(plan.overrides) == {site}
        assert plan.overrides[site] is src[site]

    @pytest.mark.parametrize("lambda1", [0.8, 0.5, 2.0])
    def test_add_mode_skips_identical_qk_whatever_the_weights(self, lambda1):
        # the mean of a tensor with itself is that tensor, bit for bit
        src, _ = self.packets(0)
        cfg = FiaConfig(fri_mode=FriMode.ADD, fusion=FusionWeights(lambda1, 0.2), fij_enabled=False)
        plan = step_plan(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        assert not plan.overrides
        for site in self.topo.self_sites():
            assert np.array_equal(0.5 * (src[site].q + src[site].q), src[site].q)

    def test_non_unit_weights_do_not_skip_identical_packets(self):
        src, _ = self.packets(0)
        cfg = FiaConfig(fij_enabled=False, fusion=FusionWeights(0.5, 0.2))
        plan = step_plan(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        assert set(plan.overrides) == {(0, AttnKind.SELF), (1, AttnKind.SELF)}

    def test_freq_override_matches_spectral_oracle(self):
        src, tar = self.packets(7)
        cfg = FiaConfig(fij_enabled=False)
        plan = step_plan(cfg, 0, 10, src, tar, (2, 2), self.topo)
        got = plan.overrides[(0, AttnKind.SELF)]
        expected_q = grid_to_heads(
            oracle_fri_fuse(
                heads_to_grid(src[(0, AttnKind.SELF)].q, 2, 2),
                heads_to_grid(tar[(0, AttnKind.SELF)].q, 2, 2),
                0.9, 0.8, 0.2,
            ),
            2,
        )
        assert np.abs(got.q - expected_q).max() < 1e-9

    def test_batched_fusion_equals_per_site_calls(self):
        src, tar = self.packets(5)
        cfg = FiaConfig(fij_enabled=False)
        plan = step_plan(cfg, 0, 10, src, tar, (2, 2), self.topo)
        filt = make_gaussian_lowpass(2, 2, 0.9)
        for site in ((0, AttnKind.SELF), (1, AttnKind.SELF)):
            got = plan.overrides[site]
            for name in ("q", "k"):
                s_grid = heads_to_grid(getattr(src[site], name), 2, 2)
                t_grid = heads_to_grid(getattr(tar[site], name), 2, 2)
                alone = fri_fuse(s_grid, t_grid, filt, cfg.fusion)
                assert np.array_equal(getattr(got, name), grid_to_heads(alone, 2))
                oracle = oracle_fri_fuse(s_grid, t_grid, 0.9, 0.8, 0.2)
                assert np.abs(heads_to_grid(getattr(got, name), 2, 2) - oracle).max() < 1e-9

    def test_add_mode_is_the_mean(self):
        src, tar = self.packets(3)
        cfg = FiaConfig(fri_mode=FriMode.ADD, fij_enabled=False)
        plan = step_plan(cfg, 0, 10, src, tar, (2, 2), self.topo)
        site = (1, AttnKind.SELF)
        got = plan.overrides[site]
        assert np.array_equal(got.q, 0.5 * (src[site].q + tar[site].q))
        assert np.array_equal(got.k, 0.5 * (src[site].k + tar[site].k))

    def test_self_packets_of_different_shapes_rejected(self):
        site = (1, AttnKind.SELF)
        src, tar = make_self_packet(0), make_self_packet(1, tokens=6)
        with pytest.raises(ShapeMismatchError, match=r"packet shapes differ at \(1, "):
            build_target_overrides(FiaConfig(), site, src, tar, (2, 2), self.topo)
        k_only = AttentionPacket(src.q, tar.k, src.v)
        with pytest.raises(ShapeMismatchError):
            build_target_overrides(FiaConfig(), site, src, k_only, (2, 2), self.topo)

    def test_fri_applies_at_every_step(self):
        src, tar = self.packets(1)
        cfg = FiaConfig(fij_step_cutoff=3)
        for step in range(10):
            plan = step_plan(cfg, step, 10, src, tar, (2, 2), self.topo)
            assert (0, AttnKind.SELF) in plan.overrides
            has_fij = any(isinstance(a, AttentionPacket) for a in plan.overrides.values())
            assert has_fij == (step < 3)


@st.composite
def _plan_inputs(draw):
    """A small model, a constraint config valid for it, a step and a step count."""
    topo = ModelConfig(
        n_blocks_dual=draw(st.integers(1, 3)), n_blocks_cross_only=draw(st.integers(0, 2))
    )
    total = draw(st.integers(1, 8))
    blocks = st.integers(0, topo.n_blocks - 1)
    explicit = st.tuples(blocks, blocks).map(lambda r: (min(r), max(r)))
    cfg = FiaConfig(
        fri_enabled=draw(st.booleans()),
        fri_mode=draw(st.sampled_from(FriMode)),
        fusion=FusionWeights(draw(st.sampled_from([0.8, 0.5, 2.0])), 0.2),
        fij_enabled=draw(st.booleans()),
        fij_step_cutoff=draw(st.none() | st.integers(0, total)),
        # a model without a cross-only tail has no default injection range
        fij_block_range=draw(st.none() | explicit if topo.n_blocks_cross_only else explicit),
    )
    return cfg, topo, draw(st.integers(0, total - 1)), total


@settings(max_examples=60, deadline=None)
@given(inputs=_plan_inputs(), seed=st.integers(0, 2**32 - 1))
def test_override_sites_are_the_capture_sites(inputs, seed):
    # with no identical source/target pair, no override is skipped as a no-op
    cfg, topo, step, total = inputs
    rng = np.random.default_rng(seed)
    sites = [(b, kind) for b in range(topo.n_blocks) for kind in AttnKind if topo.contains((b, kind))]
    src, tar = (
        {site: AttentionPacket(*rng.standard_normal((3, 2, 4, 2))) for site in sites}
        for _ in range(2)
    )
    plan = step_plan(cfg, step, total, src, tar, (2, 2), topo)
    assert set(plan.overrides) == plan_capture(cfg, topo, step, total)
    for site, action in plan.overrides.items():
        assert isinstance(action, ReplaceQK if site[1] is AttnKind.SELF else AttentionPacket)


def public_plan(model, x_src, x_tar, p_src, p_tar, mu_src, cfg, step=0, total=10):
    """The source packets and the override plan, built the way the engine does."""
    capture = HookPlan(capture=plan_capture(cfg, model.cfg, step, total))
    _, src = model.velocity(x_src, p_src, 0.5, mu_src, hooks=capture)
    _, tar = model.velocity(x_tar, p_tar, 0.5, 1.0, hooks=capture)
    grid = x_src.shape[-2:]
    return src, step_plan(cfg, step, total, src, tar, grid, model.cfg)


class TestConstrainedPair:
    def test_a_target_whose_overrides_fail_raises_their_error(self, tiny_model, prompt_pair):
        # an inf target latent gives the probe non-finite features, which FREQ
        # fusion refuses at the first self site
        p_src, p_tar = prompt_pair
        x_src = np.random.default_rng(2).standard_normal((4, 6, 6))
        with np.errstate(all="ignore"), pytest.raises(NumericFailure, match="non-finite"):
            constrained_velocity_pair(
                tiny_model, x_src, np.full_like(x_src, np.inf), p_src, p_tar, 0.5, 0, 10,
                GuidanceConfig(), FiaConfig(),
            )

    def test_disabled_equals_plain_target_pass(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        rng = np.random.default_rng(0)
        x_src, x_tar = rng.standard_normal((2, 4, 6, 6))
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        v_src, v_tar = constrained_velocity_pair(
            tiny_model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10,
            guidance, FIA_OFF,
        )
        v_src_plain, _ = tiny_model.velocity(x_src, p_src, 0.5, 1.5)
        v_tar_plain, _ = tiny_model.velocity(x_tar, p_tar, 0.5, 3.0)
        assert np.array_equal(v_src, v_src_plain)
        assert np.array_equal(v_tar, v_tar_plain)

    def test_fij_injection_is_bitexact_at_injected_sites(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        rng = np.random.default_rng(1)
        x_src, x_tar = rng.standard_normal((2, 4, 6, 6))
        cfg = FiaConfig(fri_enabled=False, fij_enabled=True)
        src_by, plan = public_plan(tiny_model, x_src, x_tar, p_src, p_tar, 1.5, cfg)
        hooks = HookPlan(capture=frozenset(src_by), overrides=plan.overrides)
        _, got_by = tiny_model.velocity(x_tar, p_tar, 0.5, 1.0, hooks=hooks)
        for block in (4, 5):
            site = (block, AttnKind.CROSS)
            src, got = src_by[site], got_by[site]
            assert np.array_equal(got.q, src.q)
            assert np.array_equal(got.k, src.k)
            assert np.array_equal(got.v, src.v)
            assert got.text_embedding is src.text_embedding

    @settings(max_examples=40, deadline=None)
    @given(
        fri_enabled=st.booleans(),
        mode=st.sampled_from(FriMode),
        lambda1=st.sampled_from([0.0, 0.2, 0.3, 0.5, 0.8, 1.0]),
        add_lambda2=st.sampled_from([0.0, 0.2, 0.9]),
        filter_sigma=st.sampled_from([0.2, 0.9, 5.0]),
        fij_enabled=st.booleans(),
        cutoff=st.none() | st.integers(0, 10),
        block_range=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 5)).map(sorted),
        step=st.integers(0, 9),
        mu=st.sampled_from([1.0, 2.0, 13.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_symmetric_inputs_give_equal_velocities(
        self, tiny_model, prompt_pair, fri_enabled, mode, lambda1, add_lambda2, filter_sigma,
        fij_enabled, cutoff, block_range, step, mu, seed,
    ):
        # any fusion that is the identity map: ADD at any weights, or FREQ
        # weights that sum to 1; and every injection window and block range
        lambda2 = add_lambda2 if mode is FriMode.ADD else 1.0 - lambda1
        assert mode is FriMode.ADD or lambda1 + lambda2 == 1.0
        cfg = FiaConfig(
            fri_enabled=fri_enabled,
            fri_mode=mode,
            fusion=FusionWeights(lambda1, lambda2),
            filter_sigma=filter_sigma,
            fij_enabled=fij_enabled,
            fij_step_cutoff=cutoff,
            fij_block_range=None if block_range is None else tuple(block_range),
        )
        p, _ = prompt_pair
        x = np.random.default_rng(seed).standard_normal((4, 6, 6))
        v_src, v_tar = constrained_velocity_pair(
            tiny_model, x, x.copy(), p, p, 0.5, step, 10, GuidanceConfig(mu, mu), cfg
        )
        assert np.array_equal(v_src, v_tar)

    def test_a_symmetric_step_equals_the_reference_step(self):
        # FREQ fusion at weights that do not sum to 1 takes the constrained
        # pass off its probe at block 0, so every cross site must still inject
        model = VelocityModel(ModelConfig())
        x = np.random.default_rng(5).standard_normal((12, 8, 8))
        p = embed_prompt("a small bright blob", model.cfg.d_model)
        guidance, cfg = GuidanceConfig(3.5, 13.5), FiaConfig(fusion=FusionWeights(0.8, 0.3))
        v_src, v_tar = constrained_velocity_pair(
            model, x, x.copy(), p, p, 1.0, 0, 10, guidance, cfg
        )
        ref_src, (ref_tar,) = reference_step(
            model, x, [x.copy()], p, [p], 1.0, 0, 10, guidance, [cfg]
        )
        assert np.array_equal(v_src, ref_src)
        assert np.array_equal(v_tar, ref_tar)

    @pytest.mark.parametrize("mu_tar", [0.0, 1.0, 3.0])
    def test_target_equals_full_constrained_velocity(self, tiny_model, prompt_pair, mu_tar):
        p_src, p_tar = prompt_pair
        rng = np.random.default_rng(4)
        x_src, x_tar = rng.standard_normal((2, 4, 6, 6))
        _, v_tar = constrained_velocity_pair(
            tiny_model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10,
            GuidanceConfig(mu_src=1.5, mu_tar=mu_tar), FiaConfig(),
        )
        if mu_tar == 0.0:
            # no constraint reaches the target: one plain unconditional pass
            expected, _ = tiny_model.velocity(x_tar, p_tar, 0.5, 0.0)
        else:
            _, plan = public_plan(tiny_model, x_src, x_tar, p_src, p_tar, 1.5, FiaConfig())
            assert plan.overrides
            expected, _ = tiny_model.velocity(
                x_tar, p_tar, 0.5, mu_tar, hooks=HookPlan(overrides=plan.overrides)
            )
        assert np.array_equal(v_tar, expected)

    @pytest.mark.parametrize(
        "fia, bypass, mu_tar, batches",
        [
            (FiaConfig(), False, 3.0, (5,)),
            (FIA_OFF, False, 3.0, (4,)),
            (FiaConfig(), True, 3.0, (2, 2)),
            (FiaConfig(), False, 0.0, (3,)),
        ],
        # the number is the branch count per step
        ids=["fia0-False-5", "fia1-False-4", "fia2-True-4", "mu_tar0-False-3"],
    )
    def test_forwards_per_guided_step(
        self, tiny_model, prompt_pair, monkeypatch, fia, bypass, mu_tar, batches
    ):
        p_src, p_tar = prompt_pair
        forward = tiny_model._forward
        calls = []

        def counting(states, sigma_t):
            out = forward(states, sigma_t)
            calls.append((branches(states, out), [plan for _, _, _, plan in states]))
            return out

        monkeypatch.setattr(tiny_model, "_forward", counting)
        req = EditRequest(
            source_latent=np.random.default_rng(5).standard_normal((4, 6, 6)),
            p_src=p_src, p_tar=p_tar, schedule=make_linear_schedule(3, 0.0),
            guidance=GuidanceConfig(mu_src=1.5, mu_tar=mu_tar), fia=fia,
            noise_mode=NoiseMode.REUSED_EPSILON,
        )
        run_edit(tiny_model, req, bypass_fia=bypass)
        assert [n_branches for n_branches, _ in calls] == list(batches) * 3
        # the target's plan carries a fork rule in the call of every step that captures
        forks = [sum(plan.fork is not None for plan in plans) for _, plans in calls]
        assert forks == [1 if batches == (5,) else 0] * len(calls)

    @pytest.mark.parametrize(
        "fia, cores",
        [(FIA_OFF, [2]), (FiaConfig(), [3])],
        # a call's block-0 self cores: one per state, shared by its passes
        # unless the conditional pass overrides (0, SELF); a constrained pass
        # copies its probe's until its first override, here at (0, SELF)
        ids=["off", "probe-and-fork"],
    )
    def test_block_0_self_cores_per_guided_step(
        self, tiny_model, prompt_pair, monkeypatch, fia, cores
    ):
        # one dual block: every self-attention core is block 0's
        model = VelocityModel(
            dataclasses.replace(tiny_model.cfg, n_blocks_dual=1, n_blocks_cross_only=1)
        )
        attend, forward = fiaedit.model._attend, model._forward
        calls = []

        def counting_attend(q, k, v1, scores, out, shift=False):
            calls[-1] += scores is not None  # cross cores get no score buffer
            attend(q, k, v1, scores, out, shift)

        def counting_forward(*args):
            calls.append(0)
            return forward(*args)

        monkeypatch.setattr(fiaedit.model, "_attend", counting_attend)
        monkeypatch.setattr(model, "_forward", counting_forward)
        p_src, p_tar = prompt_pair
        x_src, x_tar = np.random.default_rng(3).standard_normal((2, 4, 6, 6))
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        constrained_velocity_pair(model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10, guidance, fia)
        assert calls == cores

    def test_one_divide_per_site_and_no_fft_in_a_guided_fri_step(
        self, tiny_model, prompt_pair, monkeypatch
    ):
        attend_site, forward = fiaedit.model._attend_site, tiny_model._forward
        divides, transforms = [], []

        def counting_attend_site(ops, scores, weighted, out):
            divides[-1] += 1  # each call checks and divides its site's branches once
            attend_site(ops, scores, weighted, out)

        def counting_forward(*args):
            divides.append(0)
            return forward(*args)

        monkeypatch.setattr(fiaedit.model, "_attend_site", counting_attend_site)
        monkeypatch.setattr(tiny_model, "_forward", counting_forward)
        for name in np.fft.__all__:
            monkeypatch.setattr(np.fft, name, lambda *a, _name=name, **k: transforms.append(_name))
        make_gaussian_lowpass.cache_clear()  # the filter is built inside the step too
        p_src, p_tar = prompt_pair
        x_src, x_tar = np.random.default_rng(3).standard_normal((2, 4, 6, 6))
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        constrained_velocity_pair(
            tiny_model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10, guidance, FiaConfig()
        )
        # one call, whose fork fuses at every self site
        sites = tiny_model.cfg.n_blocks_dual + tiny_model.cfg.n_blocks
        assert divides == [sites]
        assert transforms == []

    @pytest.mark.parametrize(
        "fia, same", [(FiaConfig(fri_enabled=False), False), (FiaConfig(), True)],
        ids=["fij-only", "zero-edit"],
    )
    def test_a_fork_runs_no_self_core_before_its_first_override(
        self, tiny_model, prompt_pair, monkeypatch, fia, same
    ):
        # injection forks at block 4, past every self site, and a zero edit
        # never forks: neither runs a self core more than a step with FIA off
        attend = fiaedit.model._attend
        cores = []

        def counting_attend(q, k, v1, scores, out, shift=False):
            cores[-1] += scores is not None  # cross cores get no score buffer
            attend(q, k, v1, scores, out, shift)

        monkeypatch.setattr(fiaedit.model, "_attend", counting_attend)
        p_src, p_tar = prompt_pair
        x_src, x_tar = np.random.default_rng(3).standard_normal((2, 4, 6, 6))
        if same:
            p_tar, x_tar = p_src, x_src.copy()
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        for cfg in (FIA_OFF, fia):
            cores.append(0)
            constrained_velocity_pair(
                tiny_model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10, guidance, cfg
            )
        off, on = cores
        # block 0's core is shared by each state's passes, the next three are not
        assert off == 2 + 3 * 4
        assert on == off

    def test_targets_in_one_call_keep_their_solo_bits(
        self, tiny_model, prompt_pair, monkeypatch
    ):
        # two FREQ targets fuse at every self site, a zero edit among them
        # fuses nowhere, and an ADD target averages; each builds its own
        # overrides and keeps the bits it has alone
        fuse, calls = fiaedit.fia.fri_fuse, []
        build, builds = fiaedit.fia.build_target_overrides, []

        def counting_fuse(*args):
            calls.append(args[0].shape[0])
            return fuse(*args)

        def counting_build(cfg, site, *args):
            builds.append(site)
            return build(cfg, site, *args)

        p_src, p_tar = prompt_pair
        x_src, x_a, x_b = np.random.default_rng(6).standard_normal((3, 4, 6, 6))
        targets = [
            (x_a, p_tar, FiaConfig()),
            (x_src.copy(), p_src, FiaConfig()),
            (x_b, p_tar, FiaConfig(fij_step_cutoff=0)),
            (x_b, p_tar, FiaConfig(fri_mode=FriMode.ADD)),
        ]
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        alone = [
            constrained_velocity_pair(tiny_model, x_src, x, p_src, p, 0.5, 0, 10, guidance, cfg)[1]
            for x, p, cfg in targets
        ]
        monkeypatch.setattr(fiaedit.fia, "fri_fuse", counting_fuse)
        monkeypatch.setattr(fiaedit.fia, "build_target_overrides", counting_build)
        _, together = constrained_velocities(
            tiny_model, x_src, [x for x, _, _ in targets], p_src, [p for _, p, _ in targets],
            0.5, 0, 10, guidance, [cfg for _, _, cfg in targets],
        )
        # each FREQ target fuses its own Q and K, heads times d_head channels each
        assert calls == [2 * tiny_model.cfg.d_model] * (2 * tiny_model.cfg.n_blocks_dual)
        # one call per target and site: every target at a self site, and at
        # an injected cross site the three whose injection window is open
        expected = {(b, AttnKind.SELF): 4 for b in range(tiny_model.cfg.n_blocks_dual)}
        expected.update({(b, AttnKind.CROSS): 3 for b in (4, 5)})
        assert Counter(builds) == expected and len(builds) == 22
        for got, ref in zip(together, alone, strict=True):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("fri", [False, True], ids=["fij-only", "fri-and-fij"])
    def test_an_injected_core_is_copied_from_the_source_branch(
        self, tiny_model, prompt_pair, monkeypatch, fri
    ):
        # a two-step run with the injection window open throughout; then each
        # step again, with the injected packets handed over as copies, which
        # the model recomputes
        model = VelocityModel(tiny_model.cfg)
        attend, cross_operands = fiaedit.model._attend, fiaedit.model._cross_operands
        counts = Counter()

        def counting_attend(*args):
            counts["cores"] += 1
            attend(*args)

        def counting_cross_operands(*args):
            counts["operands"] += 1
            return cross_operands(*args)

        monkeypatch.setattr(fiaedit.model, "_attend", counting_attend)
        monkeypatch.setattr(fiaedit.model, "_cross_operands", counting_cross_operands)
        p_src, p_tar = prompt_pair
        cfg, total = FiaConfig(fri_enabled=fri), 2
        sched, guidance = make_linear_schedule(total, 0.0), GuidanceConfig(mu_src=3.5, mu_tar=13.5)
        x_src = np.random.default_rng(2).standard_normal((4, 8, 8))
        x_fe, steps = x_src.copy(), []
        for i in range(total):
            sigma_t = sched.sigmas[i]
            x_src_t = interpolate_source(x_src, sigma_t, draw_step_noise(x_src.shape, 0, i))
            x_tar_t = reconstruct_target_state(x_fe, x_src_t, x_src)
            before, built = counts["cores"], counts["operands"]
            v_src, v_tar = constrained_velocity_pair(
                model, x_src_t, x_tar_t, p_src, p_tar, sigma_t, i, total, guidance, cfg
            )
            # one model call, which builds each prompt's K and [V | 1]^T once
            assert counts["operands"] - built == 2
            steps.append((sigma_t, x_src_t, x_tar_t, v_tar, counts["cores"] - before))
            x_fe = x_fe + (sched.sigmas[i + 1] - sigma_t) * (v_tar - v_src)

        build = fiaedit.fia.build_target_overrides

        def copying_build(*args):
            plan = build(*args)
            copied = {
                site: dataclasses.replace(a)
                for site, a in plan.overrides.items()
                if isinstance(a, AttentionPacket)
            }
            return HookPlan(overrides={**plan.overrides, **copied})

        for i, (sigma_t, x_src_t, x_tar_t, v_tar, cores) in enumerate(steps):
            capture = HookPlan(capture=plan_capture(cfg, model.cfg, i, total))
            _, src_by = model.velocity(x_src_t, p_src, sigma_t, guidance.mu_src, hooks=capture)
            _, tar_by = model.velocity(x_tar_t, p_tar, sigma_t, 1.0, hooks=capture)
            plan = step_plan(cfg, i, total, src_by, tar_by, x_src.shape[-2:], model.cfg)
            injected = [s for s, a in plan.overrides.items() if isinstance(a, AttentionPacket)]
            assert sorted(injected) == [(4, AttnKind.CROSS), (5, AttnKind.CROSS)]
            static, _ = model.velocity(
                x_tar_t, p_tar, sigma_t, guidance.mu_tar, hooks=HookPlan(overrides=plan.overrides)
            )
            assert np.array_equal(v_tar, static)
            with monkeypatch.context() as m:
                m.setattr(fiaedit.fia, "build_target_overrides", copying_build)
                before = counts["cores"]
                _, recomputed = constrained_velocity_pair(
                    model, x_src_t, x_tar_t, p_src, p_tar, sigma_t, i, total, guidance, cfg
                )
            assert counts["cores"] - before == cores + len(injected)
            assert np.array_equal(recomputed, v_tar)

    def test_constraint_changes_target_velocity(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        rng = np.random.default_rng(3)
        x_src, x_tar = rng.standard_normal((2, 4, 6, 6))
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        _, v_constrained = constrained_velocity_pair(
            tiny_model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10, guidance, FiaConfig(),
        )
        v_plain, _ = tiny_model.velocity(x_tar, p_tar, 0.5, 3.0)
        assert not np.array_equal(v_constrained, v_plain)


@functools.cache
def blob16_run() -> tuple[VelocityModel, np.ndarray, PromptEmbedding, PromptEmbedding]:
    """The stock model, the ``blob16`` fixture's latent at patch 2 and two prompts."""
    cfg = ModelConfig()
    p_src, p_tar = (
        embed_prompt(text, cfg.d_model)
        for text in ("a small bright blob on a striped background", "a dark square")
    )
    return VelocityModel(cfg), encode(load_fixture("blob16")[0], 2), p_src, p_tar


def blob16_edit(fia: FiaConfig, seed: int = 0, noise_mode: NoiseMode = NoiseMode.REUSED_EPSILON):
    """A 6-step edit of ``blob16`` under ``fia``: its final latent bytes and step records."""
    model, latent, p_src, p_tar = blob16_run()
    trace = run_edit(
        model,
        EditRequest(
            source_latent=latent, p_src=p_src, p_tar=p_tar, schedule=make_linear_schedule(6, 0.0),
            guidance=GuidanceConfig(), fia=fia, seed=seed, noise_mode=noise_mode,
        ),
    )
    return trace.final_latent.tobytes(), trace.records


class TestEditIdentities:
    """Two configs that differ in their settings give one edit, bit for bit."""

    @pytest.mark.parametrize("noise_mode", list(NoiseMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_freq_fusion_at_even_weights_is_add(self, seed, noise_mode):
        even = FiaConfig(fri_mode=FriMode.FREQ, fusion=FusionWeights(0.5, 0.5))
        add = FiaConfig(fri_mode=FriMode.ADD)
        assert blob16_edit(even, seed, noise_mode) == blob16_edit(add, seed, noise_mode)

    @pytest.mark.parametrize("fri", [False, True], ids=["fij-only", "fri-and-fij"])
    def test_injection_with_a_closed_window_is_injection_off(self, fri):
        closed = FiaConfig(fri_enabled=fri, fij_step_cutoff=0)
        off = FiaConfig(fri_enabled=fri, fij_enabled=False)
        assert blob16_edit(closed) == blob16_edit(off)

    def test_each_setting_moves_the_edit(self):
        # so neither identity holds because a setting is never read
        assert blob16_edit(FiaConfig(fri_mode=FriMode.FREQ)) != blob16_edit(
            FiaConfig(fri_mode=FriMode.ADD)
        )
        assert blob16_edit(FiaConfig(fri_enabled=False)) != blob16_edit(
            FiaConfig(fri_enabled=False, fij_enabled=False)
        )
