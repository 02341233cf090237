from __future__ import annotations

import inspect

import numpy as np
import pytest

from fiaedit.engine import EditRequest, run_edit
from fiaedit.errors import PacketAlignmentError, TopologyError
from fiaedit.fia import (
    FiaConfig,
    FriMode,
    build_target_overrides,
    constrained_velocity_pair,
    default_fij_cutoff,
    fold_heads_to_grid,
    plan_capture,
    unfold_grid_to_heads,
)
from fiaedit.model import (
    AttentionPacket,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    ReplaceQKVE,
)
from fiaedit.schedule import NoiseMode, make_linear_schedule
from fiaedit.spectral import FusionWeights, fri_fuse, make_gaussian_lowpass

from oracle_dft import oracle_fri_fuse


def make_self_packet(block, seed, heads=2, tokens=4, d_head=2):
    rng = np.random.default_rng(seed)
    q, k, v = rng.standard_normal((3, heads, tokens, d_head))
    return AttentionPacket(block, AttnKind.SELF, q, k, v)


def make_cross_packet(block, seed, heads=2, tokens=4, d_head=2):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((heads, tokens, d_head))
    k, v = rng.standard_normal((2, heads, 3, d_head))
    return AttentionPacket(block, AttnKind.CROSS, q, k, v)


class TestDefaults:
    def test_cutoff_is_27_of_50(self):
        assert default_fij_cutoff(50) == 27

    def test_cutoff_scales_with_steps(self):
        assert default_fij_cutoff(12) == 7
        assert FiaConfig().resolved_cutoff(50) == 27

    def test_default_block_range_is_cross_only_tail(self):
        assert FiaConfig().resolved_block_range(ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2)) == (4, 5)

    def test_explicit_range_validated_against_topology(self):
        cfg = FiaConfig(fij_block_range=(0, 9))
        with pytest.raises(TopologyError):
            cfg.resolved_block_range(ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2))

    def test_cutoff_cannot_exceed_steps(self):
        with pytest.raises(ValueError):
            FiaConfig(fij_step_cutoff=20).resolved_cutoff(10)


class TestPlanCapture:
    def test_all_disabled_is_empty(self):
        topo = ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2)
        plan = plan_capture(FiaConfig.disabled(), topo, 0, 50)
        assert plan == HookPlan()

    def test_fri_only_captures_each_dual_block(self):
        cfg = FiaConfig(fri_enabled=True, fij_enabled=False)
        plan = plan_capture(cfg, ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2), 0, 50)
        assert plan.capture == frozenset((b, AttnKind.SELF) for b in range(4))

    def test_defaults_capture_self_plus_tail_cross(self):
        plan = plan_capture(FiaConfig(), ModelConfig(n_blocks_dual=4, n_blocks_cross_only=2), 0, 50)
        expected = {(b, AttnKind.SELF) for b in range(4)} | {
            (4, AttnKind.CROSS),
            (5, AttnKind.CROSS),
        }
        assert plan.capture == frozenset(expected)

    def test_cross_sites_drop_once_the_injection_window_closes(
        self, tiny_model, prompt_pair, monkeypatch
    ):
        cfg = FiaConfig(fij_step_cutoff=2)
        selfs = frozenset(tiny_model.cfg.self_sites())
        everything = selfs | {(4, AttnKind.CROSS), (5, AttnKind.CROSS)}
        assert [plan_capture(cfg, tiny_model.cfg, i, 5).capture for i in range(5)] == (
            [everything] * 2 + [selfs] * 3
        )
        # the engine's probe captures the per-step set
        forward = tiny_model._forward
        captured = []

        def spying(x, prompts, sigma_t, hooks):
            captured.append(frozenset().union(*(plan.capture for plan in hooks)))
            return forward(x, prompts, sigma_t, hooks)

        monkeypatch.setattr(tiny_model, "_forward", spying)
        p_src, p_tar = prompt_pair
        req = EditRequest(
            source_latent=np.random.default_rng(5).standard_normal((4, 6, 6)),
            p_src=p_src, p_tar=p_tar, schedule=make_linear_schedule(5, 0.0),
            guidance=GuidanceConfig(mu_src=1.5, mu_tar=3.0), fia=cfg,
        )
        run_edit(tiny_model, req)
        # per step: the probe call, then the rerun, which captures nothing
        assert captured == [everything, frozenset()] * 2 + [selfs, frozenset()] * 3


class TestFoldUnfold:
    def test_roundtrip(self):
        a = np.random.default_rng(0).standard_normal((3, 12, 5))
        assert np.array_equal(unfold_grid_to_heads(fold_heads_to_grid(a, 3, 4), 3), a)

    def test_heads_fold_into_channels(self):
        a = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        g = fold_heads_to_grid(a, 2, 2)
        assert g.shape == (6, 2, 2)
        # head 0, feature 0 occupies the first channel, scanned row-major
        assert np.array_equal(g[0].ravel(), a[0, :, 0])
        assert np.array_equal(g[3].ravel(), a[1, :, 0])


class TestBuildOverrides:
    topo = ModelConfig(n_blocks_dual=2, n_blocks_cross_only=1)

    def packets(self, seed_base):
        """Source and target packets keyed by site: self 0-1, cross 0-2."""
        def table(base):
            pkts = [make_self_packet(0, base), make_self_packet(1, base + 1),
                    make_cross_packet(0, base + 2), make_cross_packet(1, base + 3),
                    make_cross_packet(2, base + 4)]
            return {p.site: p for p in pkts}

        return table(seed_base), table(seed_base + 10)

    def test_past_cutoff_keeps_fri_only(self):
        src, tar = self.packets(0)
        cfg = FiaConfig(fij_step_cutoff=5)
        plan = build_target_overrides(cfg, 5, 10, src, tar, (2, 2), self.topo)
        kinds = {type(a) for a in plan.overrides.values()}
        assert kinds == {ReplaceQK}
        assert set(plan.overrides) == {(0, AttnKind.SELF), (1, AttnKind.SELF)}

    def test_before_cutoff_adds_packet_injection(self):
        src, tar = self.packets(0)
        cfg = FiaConfig(fij_step_cutoff=5)
        plan = build_target_overrides(cfg, 4, 10, src, tar, (2, 2), self.topo)
        assert isinstance(plan.overrides[(2, AttnKind.CROSS)], ReplaceQKVE)
        assert plan.overrides[(2, AttnKind.CROSS)].packet is src[(2, AttnKind.CROSS)]

    def test_identical_packets_fuse_to_no_override(self):
        src, _ = self.packets(0)
        cfg = FiaConfig(fij_enabled=False)
        plan = build_target_overrides(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        assert not plan.overrides

    def test_identical_packets_skip_injection_too(self):
        src, _ = self.packets(0)
        cfg = FiaConfig(fri_enabled=False, fij_step_cutoff=10)
        plan = build_target_overrides(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        assert not plan.overrides

    def test_non_unit_weights_do_not_skip_identical_packets(self):
        src, _ = self.packets(0)
        cfg = FiaConfig(fij_enabled=False, fusion=FusionWeights(0.5, 0.2))
        plan = build_target_overrides(cfg, 0, 10, src, dict(src), (2, 2), self.topo)
        assert set(plan.overrides) == {(0, AttnKind.SELF), (1, AttnKind.SELF)}

    def test_freq_override_matches_spectral_oracle(self):
        src, tar = self.packets(7)
        cfg = FiaConfig(fij_enabled=False)
        plan = build_target_overrides(cfg, 0, 10, src, tar, (2, 2), self.topo)
        got = plan.overrides[(0, AttnKind.SELF)]
        expected_q = unfold_grid_to_heads(
            oracle_fri_fuse(
                fold_heads_to_grid(src[(0, AttnKind.SELF)].q, 2, 2),
                fold_heads_to_grid(tar[(0, AttnKind.SELF)].q, 2, 2),
                0.9, 0.8, 0.2,
            ),
            2,
        )
        assert np.abs(got.q - expected_q).max() < 1e-9

    def test_batched_fusion_equals_per_site_calls(self):
        src, tar = self.packets(5)
        cfg = FiaConfig(fij_enabled=False)
        plan = build_target_overrides(cfg, 0, 10, src, tar, (2, 2), self.topo)
        filt = make_gaussian_lowpass(2, 2, 0.9)
        for site in ((0, AttnKind.SELF), (1, AttnKind.SELF)):
            got = plan.overrides[site]
            for name in ("q", "k"):
                s_grid = fold_heads_to_grid(getattr(src[site], name), 2, 2)
                t_grid = fold_heads_to_grid(getattr(tar[site], name), 2, 2)
                alone = fri_fuse(s_grid, t_grid, filt, cfg.fusion)
                assert np.array_equal(getattr(got, name), unfold_grid_to_heads(alone, 2))
                oracle = oracle_fri_fuse(s_grid, t_grid, 0.9, 0.8, 0.2)
                assert np.abs(fold_heads_to_grid(getattr(got, name), 2, 2) - oracle).max() < 1e-9

    def test_add_mode_is_the_mean(self):
        src, tar = self.packets(3)
        cfg = FiaConfig(fri_mode=FriMode.ADD, fij_enabled=False)
        plan = build_target_overrides(cfg, 0, 10, src, tar, (2, 2), self.topo)
        site = (1, AttnKind.SELF)
        got = plan.overrides[site]
        assert np.array_equal(got.q, 0.5 * (src[site].q + tar[site].q))
        assert np.array_equal(got.k, 0.5 * (src[site].k + tar[site].k))

    def test_missing_packets_rejected(self):
        src, tar = self.packets(0)
        cfg = FiaConfig()
        with pytest.raises(PacketAlignmentError):
            build_target_overrides(
                cfg, 0, 10, {(0, AttnKind.SELF): src[(0, AttnKind.SELF)]}, tar, (2, 2), self.topo
            )

    def test_fri_applies_at_every_step(self):
        src, tar = self.packets(1)
        cfg = FiaConfig(fij_step_cutoff=3)
        for step in range(10):
            plan = build_target_overrides(cfg, step, 10, src, tar, (2, 2), self.topo)
            assert (0, AttnKind.SELF) in plan.overrides
            has_fij = any(isinstance(a, ReplaceQKVE) for a in plan.overrides.values())
            assert has_fij == (step < 3)


def public_plan(model, x_src, x_tar, p_src, p_tar, mu_src, cfg, step=0, total=10):
    """The source packets and the override plan, built the way the engine does."""
    capture = plan_capture(cfg, model.cfg, step, total)
    _, src = model.velocity(x_src, p_src, 0.5, mu_src, hooks=capture)
    _, tar = model.velocity(x_tar, p_tar, 0.5, 1.0, hooks=capture)
    grid = x_src.shape[-2:]
    return src, build_target_overrides(cfg, step, total, src, tar, grid, model.cfg)


class TestConstrainedPair:
    def test_disabled_equals_plain_target_pass(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        rng = np.random.default_rng(0)
        x_src, x_tar = rng.standard_normal((2, 4, 6, 6))
        guidance = GuidanceConfig(mu_src=1.5, mu_tar=3.0)
        v_src, v_tar = constrained_velocity_pair(
            tiny_model, x_src, x_tar, p_src, p_tar, 0.5, 0, 10,
            guidance, FiaConfig.disabled(),
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

    def test_symmetric_inputs_give_equal_velocities(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = np.random.default_rng(2).standard_normal((4, 6, 6))
        v_src, v_tar = constrained_velocity_pair(
            tiny_model, x, x.copy(), p, p, 0.5, 0, 10,
            GuidanceConfig(mu_src=2.0, mu_tar=2.0), FiaConfig(),
        )
        assert np.array_equal(v_src, v_tar)

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
            (FiaConfig(), False, 3.0, (4, 1)),
            (FiaConfig.disabled(), False, 3.0, (4,)),
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
        signature = inspect.signature(forward)
        calls = []

        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            calls.append((bound["x"].shape[0], bound["hooks"]))
            return forward(*args, **kwargs)

        monkeypatch.setattr(tiny_model, "_forward", counting)
        req = EditRequest(
            source_latent=np.random.default_rng(5).standard_normal((4, 6, 6)),
            p_src=p_src, p_tar=p_tar, schedule=make_linear_schedule(3, 0.0),
            guidance=GuidanceConfig(mu_src=1.5, mu_tar=mu_tar), fia=fia,
            noise_mode=NoiseMode.REUSED_EPSILON,
        )
        run_edit(tiny_model, req, bypass_fia=bypass)
        assert [n_branches for n_branches, _ in calls] == list(batches) * 3
        # the constrained forward runs at every step with a non-empty plan
        constrained = [n for n, hooks in calls if any(plan.overrides for plan in hooks)]
        assert constrained == ([1] * 3 if batches == (4, 1) else [])

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
