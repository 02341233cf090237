from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import re
import signal
import sys
import threading
import time
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import attend, branches as count_branches, dyadic, keys_major, traced_peak
from spec import reference_forward

import fiaedit.model
from fiaedit.errors import ShapeMismatchError, TopologyError
from fiaedit.fia import FiaConfig, FriMode, _step_states
from fiaedit.model import (
    AttentionPacket,
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    VelocityModel,
    _layer_norm,
    _score_shape,
    guide,
    peak_bytes,
    time_embedding,
)
from fiaedit.prompts import PromptEmbedding, embed_prompt, embeddings_equal


def latent(seed=0, shape=(4, 6, 6)):
    return np.random.default_rng(seed).standard_normal(shape)


class TestModelConfig:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=8, n_heads=3)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=7, n_heads=1)

    def test_no_channels_rejected(self):
        with pytest.raises(ValueError, match="channels must be positive"):
            ModelConfig(channels=0)

    def test_topology_split(self):
        topo = ModelConfig(n_blocks_dual=2, n_blocks_cross_only=2)
        assert topo.n_blocks == 4
        assert [topo.has_self(b) for b in range(4)] == [True, True, False, False]
        assert topo.cross_only_range() == (2, 3)
        assert topo.self_sites() == ((0, AttnKind.SELF), (1, AttnKind.SELF))


def model_arrays(model) -> list[np.ndarray]:
    """Every array of a model's weight set: weights, side-by-side weights, block records."""
    records = [a for rec in model._blocks for a in rec if a is not None]
    return [*model.weights.values(), model._cross_kv, *records]


class TestDeterminism:
    def test_same_config_same_weights(self):
        # the second model draws its own weights, not the first one's shared set
        cfg = ModelConfig(seed=5, channels=4)
        a = VelocityModel(cfg)
        fiaedit.model._weight_set.cache_clear()
        b = VelocityModel(cfg)
        assert not any(x is y for x, y in zip(model_arrays(a), model_arrays(b)))
        assert set(a.weights) == set(b.weights)
        pairs = zip(model_arrays(a), model_arrays(b), strict=True)
        assert all(np.array_equal(x, y) for x, y in pairs)

    def test_different_seed_different_weights(self):
        a = VelocityModel(ModelConfig(seed=5, channels=4))
        b = VelocityModel(ModelConfig(seed=6, channels=4))
        assert not np.array_equal(a.weights["w_in"], b.weights["w_in"])

    def test_velocity_repeatable(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent()
        v1, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        v2, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        assert np.array_equal(v1, v2)

    def test_weights_are_frozen(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.weights["w_in"][0, 0] = 1.0


class TestSharedWeights:
    def test_equal_configs_share_every_array(self):
        a = VelocityModel(ModelConfig(seed=5, channels=4))
        b = VelocityModel(ModelConfig(seed=5, channels=4))
        assert a.weights is b.weights and a._sites is b._sites
        assert all(x is y for x, y in zip(model_arrays(a), model_arrays(b), strict=True))

    @pytest.mark.parametrize("change", [{"seed": 6}, {"channels": 5}], ids=["seed", "channels"])
    def test_configs_that_differ_share_nothing(self, change):
        cfg = ModelConfig(seed=5, channels=4)
        a, b = VelocityModel(cfg), VelocityModel(dataclasses.replace(cfg, **change))
        assert not any(
            np.shares_memory(x, y) for x in model_arrays(a) for y in model_arrays(b)
        )

    def test_the_shared_set_rejects_mutation(self):
        model = VelocityModel(ModelConfig(seed=5, channels=4))
        w_in = model.weights["w_in"]
        with pytest.raises(TypeError):
            model.weights["w_in"] = np.zeros_like(w_in)
        with pytest.raises(TypeError):
            del model.weights["w_in"]
        with pytest.raises(TypeError):
            model._blocks[0] = model._blocks[1]
        with pytest.raises(TypeError):
            model._blocks[0][2] = None
        for arr in model_arrays(model):
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 1.0
        assert VelocityModel(model.cfg).weights["w_in"] is w_in

    def test_a_copy_or_pickle_shares_the_set(self):
        model = VelocityModel(ModelConfig(seed=5, channels=4))
        for other in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert other.cfg == model.cfg and other.weights is model.weights

    def test_a_model_built_after_clearing_the_cache_gives_the_shared_bytes(self, prompt_pair):
        cfg = ModelConfig(channels=4)
        shared = VelocityModel(cfg)
        VelocityModel(cfg)
        fiaedit.model._weight_set.cache_clear()
        fresh = VelocityModel(cfg)
        assert fresh.weights is not shared.weights
        # guided states on two prompts, one capturing at every site
        plan = HookPlan(capture=frozenset(shared._sites))
        states = [(latent(i), prompt_pair[i % 2], 2.5, plan) for i in range(3)]
        for (c_a, u_a, pk_a), (c_b, u_b, pk_b) in zip(
            shared._forward(states, 0.5), fresh._forward(states, 0.5), strict=True
        ):
            assert c_a.tobytes() == c_b.tobytes() and u_a.tobytes() == u_b.tobytes()
            assert pk_a.keys() == pk_b.keys()
            for site in pk_a:
                for name in ("q", "k", "v"):
                    assert getattr(pk_a[site], name).tobytes() == getattr(pk_b[site], name).tobytes()


class TestGuidance:
    def test_affine_in_mu(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(1)
        v0, _ = tiny_model.velocity(x, p, 0.5, 0.0)
        v1, _ = tiny_model.velocity(x, p, 0.5, 1.0)
        v2, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        assert np.abs((v2 - v1) - (v1 - v0)).max() < 1e-9

    def test_mu_zero_ignores_prompt(self, tiny_model, prompt_pair):
        p_a, p_b = prompt_pair
        x = latent(2)
        va, _ = tiny_model.velocity(x, p_a, 0.5, 0.0)
        vb, _ = tiny_model.velocity(x, p_b, 0.5, 0.0)
        assert np.array_equal(va, vb)

    def test_mu_one_is_prompt_sensitive(self, tiny_model, prompt_pair):
        p_a, p_b = prompt_pair
        x = latent(2)
        va, _ = tiny_model.velocity(x, p_a, 0.5, 1.0)
        vb, _ = tiny_model.velocity(x, p_b, 0.5, 1.0)
        assert not np.array_equal(va, vb)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_velocity_refuses_a_non_finite_scale(self, tiny_model, prompt_pair, mu):
        p, _ = prompt_pair
        with pytest.raises(ValueError, match="guidance scale must be finite"):
            tiny_model.velocity(latent(3), p, 0.5, mu)

    def test_guidance_config_validation(self):
        GuidanceConfig(mu_src=0.0, mu_tar=1.0)
        with pytest.raises(ValueError):
            GuidanceConfig(mu_src=0.5, mu_tar=2.0)


class TestHooks:
    def test_empty_plan_is_transparent(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(3)
        v_plain, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        v_hooked, _ = tiny_model.velocity(x, p, 0.5, 2.0, hooks=HookPlan())
        assert np.array_equal(v_plain, v_hooked)

    def test_capture_only_plan_does_not_change_output(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(3)
        sites = frozenset({(0, AttnKind.SELF), (5, AttnKind.CROSS)})
        v_plain, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        v_cap, packets = tiny_model.velocity(x, p, 0.5, 2.0, hooks=HookPlan(capture=sites))
        assert np.array_equal(v_plain, v_cap)
        assert set(packets) == sites

    def test_capture_completeness_and_uniqueness(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        cfg = tiny_model.cfg
        sites = frozenset(cfg.self_sites()) | {(b, AttnKind.CROSS) for b in range(cfg.n_blocks)}
        _, packets = tiny_model.velocity(latent(4), p, 0.5, 1.0, hooks=HookPlan(capture=sites))
        assert set(packets) == sites
        # a packet carries its site's kind: only a cross site reads a prompt
        assert all(
            (pkt.text_embedding is p) == (site[1] is AttnKind.CROSS)
            for site, pkt in packets.items()
        )

    def test_cross_packets_record_text_embedding(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        sites = frozenset({(4, AttnKind.CROSS)})
        _, packets = tiny_model.velocity(latent(5), p, 0.5, 1.0, hooks=HookPlan(capture=sites))
        assert packets[(4, AttnKind.CROSS)].text_embedding is p

    def test_captured_packets_are_frozen(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        sites = frozenset({(0, AttnKind.SELF)})
        _, packets = tiny_model.velocity(latent(5), p, 0.5, 1.0, hooks=HookPlan(capture=sites))
        with pytest.raises(ValueError):
            packets[(0, AttnKind.SELF)].q[0, 0, 0] = 99.0

    def test_qkve_override_reproduces_donor_activations(self, tiny_model, prompt_pair):
        p_a, p_b = prompt_pair
        x_a, x_b = latent(6), latent(7)
        site = (5, AttnKind.CROSS)
        capture = HookPlan(capture=frozenset({site}))
        _, donor_packets = tiny_model.velocity(x_a, p_a, 0.5, 1.0, hooks=capture)
        donor = donor_packets[site]
        plan = HookPlan(capture=frozenset({site}), overrides={site: donor})
        _, got = tiny_model.velocity(x_b, p_b, 0.5, 1.0, hooks=plan)
        pkt = got[site]
        assert np.array_equal(pkt.q, donor.q)
        assert np.array_equal(pkt.k, donor.k)
        assert np.array_equal(pkt.v, donor.v)
        assert pkt.text_embedding is donor.text_embedding

    def test_replace_qk_changes_output(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(8)
        site = (0, AttnKind.SELF)
        capture = HookPlan(capture=frozenset({site}))
        v_plain, packets = tiny_model.velocity(x, p, 0.5, 1.0, hooks=capture)
        pkt = packets[site]
        plan = HookPlan(overrides={site: ReplaceQK(q=pkt.q * 2.0, k=pkt.k.copy())})
        v_mod, _ = tiny_model.velocity(x, p, 0.5, 1.0, hooks=plan)
        assert not np.array_equal(v_plain, v_mod)

    def test_invalid_sites_rejected(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(9)
        with pytest.raises(TopologyError):
            tiny_model.velocity(x, p, 0.5, 1.0, hooks=HookPlan(capture=frozenset({(9, AttnKind.SELF)})))
        with pytest.raises(TopologyError):
            # block 5 is cross-only: no self site to override
            tiny_model.velocity(
                x, p, 0.5, 1.0,
                hooks=HookPlan(overrides={(5, AttnKind.SELF): ReplaceQK(np.zeros(1), np.zeros(1))}),
            )

    def test_wrong_action_kind_rejected(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        with pytest.raises(TopologyError):
            tiny_model.velocity(
                latent(10), p, 0.5, 1.0,
                hooks=HookPlan(overrides={(0, AttnKind.CROSS): ReplaceQK(np.zeros(1), np.zeros(1))}),
            )

    @pytest.mark.parametrize("site", [(0, AttnKind.SELF), (4, AttnKind.CROSS)])
    def test_override_of_the_wrong_shape_rejected(self, tiny_model, prompt_pair, site):
        # a self site's Q/K, or a cross packet's Q, for a grid one row short
        p, _ = prompt_pair
        capture = HookPlan(capture=frozenset({site}))
        pkt = tiny_model.velocity(latent(14, (4, 5, 6)), p, 0.5, 1.0, hooks=capture)[1][site]
        action = ReplaceQK(pkt.q, pkt.k) if site[1] is AttnKind.SELF else pkt
        hooks = HookPlan(overrides={site: action})
        with pytest.raises(ShapeMismatchError, match=f"override at {re.escape(str(site))} has shape"):
            tiny_model.velocity(latent(14), p, 0.5, 1.0, hooks=hooks)
        with pytest.raises(ShapeMismatchError):
            tiny_model._forward([(latent(14), p, 2.5, hooks)], 0.5)

    def test_batched_forward_rejects_a_packet_at_a_self_site(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(10)
        cross, self_site = (4, AttnKind.CROSS), (0, AttnKind.SELF)
        _, packets = tiny_model.velocity(x, p, 0.5, 1.0, hooks=HookPlan(capture=frozenset({cross})))
        hooks = HookPlan(overrides={self_site: packets[cross]})
        with pytest.raises(TopologyError):
            tiny_model._forward([(x, p, 1.0, hooks)], 0.5)
        with pytest.raises(TopologyError):
            tiny_model.velocity(x, p, 0.5, 1.0, hooks=hooks)

    @pytest.mark.parametrize("site", [(9, AttnKind.CROSS), (5, AttnKind.SELF)])
    def test_batched_forward_rejects_a_site_the_model_lacks(self, tiny_model, prompt_pair, site):
        p, _ = prompt_pair
        x = latent(11)
        for hooks in (
            HookPlan(capture=frozenset({site})),
            HookPlan(overrides={site: ReplaceQK(np.zeros(1), np.zeros(1))}),
        ):
            with pytest.raises(TopologyError, match=r"hook site \(\d, .* not in the model"):
                tiny_model._forward([(x, p, 1.0, hooks)], 0.5)


class TestForkRule:
    """A plan's fork rule runs a constrained pass beside its probe, in the same state."""

    capture = frozenset({(0, AttnKind.SELF), (1, AttnKind.SELF), (4, AttnKind.CROSS)})

    @pytest.fixture(autouse=True)
    def count_branches_per_site(self, monkeypatch):
        attend_site, self.widths = fiaedit.model._attend_site, []

        def counting(ops, *args):
            self.widths.append(len(ops))
            attend_site(ops, *args)

        monkeypatch.setattr(fiaedit.model, "_attend_site", counting)

    def forward(self, model, p, mu, plan):
        """The state's ``(v_cond, v_uncond, packets)``, and the branches at each site."""
        self.widths = []
        ((v_cond, v_uncond, packets),) = model._forward([(latent(12), p, mu, plan)], 0.5)
        return (v_cond, v_uncond, packets), self.widths

    def source_override(self, model, p, site):
        """An override at ``site`` from another state's packets."""
        _, src = model.velocity(latent(13), p, 0.5, 1.0, hooks=HookPlan(capture=frozenset({site})))
        if site[1] is AttnKind.CROSS:
            return src[site]
        return ReplaceQK(q=src[site].q, k=src[site].k)

    @staticmethod
    def assert_same(got, want):
        (v_cond, v_uncond, packets), (w_cond, w_uncond, w_packets) = got, want
        assert np.array_equal(v_cond, w_cond)
        assert (v_uncond is None and w_uncond is None) or np.array_equal(v_uncond, w_uncond)
        assert packets.keys() == w_packets.keys()
        for site, pkt in packets.items():
            assert np.array_equal(pkt.q, w_packets[site].q)
            assert np.array_equal(pkt.k, w_packets[site].k)
            assert np.array_equal(pkt.v, w_packets[site].v)
            assert pkt.text_embedding is w_packets[site].text_embedding

    @pytest.mark.parametrize("mu", [1.0, 2.5])
    @pytest.mark.parametrize("site", [(1, AttnKind.SELF), (4, AttnKind.CROSS)])
    @pytest.mark.parametrize("static", [False, True], ids=["rule-only", "with-static"])
    def test_the_rules_override_equals_a_static_one(self, tiny_model, prompt_pair, mu, site, static):
        p, p_src = prompt_pair
        ov = self.source_override(tiny_model, p_src, site)
        # static overrides before and after the rule's site, which the probe
        # runs, and the constrained pass with it
        statics = [(0, AttnKind.SELF), (5, AttnKind.CROSS)] if static else []
        fixed = {at: self.source_override(tiny_model, p_src, at) for at in statics}
        asked = []

        def rule(at, packets):
            assert at in packets[0]  # the probe has captured there
            asked.append(at)
            return ov if at == site else None

        plan = HookPlan(capture=self.capture, overrides=fixed, fork=rule)
        (v_cond, v_uncond, packets), widths = self.forward(tiny_model, p, mu, plan)
        assert sorted(asked, key=str) == sorted(self.capture, key=str)
        # the constrained pass is the probe's with the rule's override added
        (w_cond, _, _), _ = self.forward(tiny_model, p, mu, HookPlan(overrides={**fixed, site: ov}))
        assert np.array_equal(v_cond, w_cond)
        # the packets and the unconditional pass are the probe's
        probe, probe_widths = self.forward(
            tiny_model, p, mu, HookPlan(capture=self.capture, overrides=fixed)
        )
        self.assert_same((probe[0], v_uncond, packets), probe)
        # one more branch at every site, the constrained pass
        assert widths == [w + 1 for w in probe_widths]

    @pytest.mark.parametrize("mu", [1.0, 2.5])
    def test_a_rule_that_never_overrides_gives_the_probe(self, tiny_model, prompt_pair, mu):
        p, _ = prompt_pair
        asked = []
        plan = HookPlan(capture=self.capture, fork=lambda at, packets: asked.append(at))
        got, _ = self.forward(tiny_model, p, mu, plan)
        assert sorted(asked, key=str) == sorted(self.capture, key=str)
        want, _ = self.forward(tiny_model, p, mu, HookPlan(capture=self.capture))
        self.assert_same(got, want)

    def test_no_constrained_pass_without_guidance(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        asked = []
        plan = HookPlan(capture=self.capture, fork=lambda at, packets: asked.append(at))
        got, widths = self.forward(tiny_model, p, 0.0, plan)
        assert asked == []
        want, want_widths = self.forward(tiny_model, p, 0.0, HookPlan(capture=self.capture))
        self.assert_same(got, want)
        assert widths == want_widths
        assert count_branches([(None, p, 0.0, plan)], [got]) == 2


class TestShapes:
    def test_wrong_channel_count(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        with pytest.raises(ShapeMismatchError):
            tiny_model.velocity(np.zeros((3, 4, 4)), p, 0.5, 1.0)

    @pytest.mark.parametrize("shapes", [[(4, 4, 4), (4, 4, 5)], [(4, 16)], []])
    def test_branches_need_one_latent_shape(self, tiny_model, prompt_pair, shapes):
        p, _ = prompt_pair
        with pytest.raises(ShapeMismatchError):
            tiny_model._forward([(np.zeros(s), p, 0.0, HookPlan()) for s in shapes], 0.5)

    def test_wrong_prompt_width(self, tiny_model):
        p16 = embed_prompt("a cat", 16, 0)
        with pytest.raises(ShapeMismatchError):
            tiny_model.velocity(latent(), p16, 0.5, 1.0)


def divided(weighted: np.ndarray) -> np.ndarray:
    """A keys-major ``[numerator | row sum]`` product normalised, (heads, queries, d_head)."""
    return (weighted[..., :-1, :] / weighted[..., -1:, :]).swapaxes(-1, -2)


class TestSoftmax:
    def test_far_negative_row_does_not_underflow(self):
        # d_head 4 scales scores by exactly 1/2: row 0 is (-800, -801), row 1
        # (0.5, -0.5), and unit values make the outputs the softmax weights
        q = np.array([[[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]]])
        k = np.array([[[-800.0, 0.5, 0.0, 0.0], [-801.0, -0.5, 0.0, 0.0]]])
        weights = attend(q, k, np.eye(2, 4)[None])[0, :, :2]
        assert np.all(np.isfinite(weights))
        assert weights.sum(axis=-1) == pytest.approx([1.0, 1.0], abs=1e-15)
        assert weights[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)

    def test_in_band_scores_are_not_shifted(self):
        rng = np.random.default_rng(0)
        q, k = 4.0 * rng.uniform(-2.0, 2.0, (2, 2, 5, 4))
        v = rng.standard_normal((2, 5, 4))
        # the core's own (heads, keys, queries) score product: d_head 4
        # scales q by exactly 1/2
        qs, k, v1 = keys_major(q, k, v)
        scores = np.matmul(k, qs)
        assert 30.0 < np.abs(scores).max() <= 60.0
        unshifted = v1 @ np.exp(scores)
        shifted = v1 @ np.exp(scores - scores.max(axis=-2, keepdims=True))
        expected = divided(unshifted)
        # a shift by each query's maximum would have changed bits
        assert not np.array_equal(divided(shifted), expected)
        assert np.array_equal(attend(q, k, v), expected)

    def test_wide_rows_match_a_summed_reference(self):
        # row sums come from the product with [V | 1]^T, which may add in
        # another order than a reduction; with non-negative values every
        # output is a positive sum, so allow n * eps relative
        rng = np.random.default_rng(1)
        q, k = 5.0 * rng.uniform(-1.0, 1.0, (2, 2, 256, 4))
        v = rng.uniform(0.0, 1.0, (2, 256, 4))
        weights = np.exp(q @ k.swapaxes(-1, -2) / 2.0)
        expected = (weights @ v) / weights.sum(axis=-1, keepdims=True)
        got = attend(q, k, v)
        assert np.all(np.abs(got - expected) <= 256 * np.finfo(float).eps * expected)

    def test_scores_below_the_exp_limit_are_not_shifted(self):
        # no score is scanned first: a score near 100 meets exp unshifted,
        # and the output is [V | 1]^T @ exp(scores) divided by its last row
        rng = np.random.default_rng(3)
        q, k = 6.5 * rng.uniform(-2.0, 2.0, (2, 2, 6, 4))
        v = rng.standard_normal((2, 6, 4))
        qs, k, v1 = keys_major(q, k, v)
        scores = np.matmul(k, qs)
        assert 90.0 < scores.max() < 110.0
        unshifted = v1 @ np.exp(scores)
        shifted = v1 @ np.exp(scores - scores.max(axis=-2, keepdims=True))
        expected = divided(unshifted)
        assert not np.array_equal(divided(shifted), expected)
        assert np.array_equal(attend(q, k, v), expected)

    @pytest.mark.parametrize("row", ["overflows", "underflows"])
    def test_out_of_range_rows_are_shifted_without_a_warning(self, row):
        # q = 2 I and d_head 4 make the scores exactly k^T: one score of 800,
        # whose exp overflows, or one row entirely near -800, whose exp
        # underflows to 0/0; either way the product is redone shifted
        rng = np.random.default_rng(4)
        scores = rng.uniform(-5.0, 5.0, (1, 4, 6))
        if row == "overflows":
            scores[0, 1, 2] = 800.0
        else:
            scores[0, 1] += -800.0
        q, k = 2.0 * np.eye(4)[None], scores.swapaxes(-1, -2)
        v = rng.standard_normal((1, 6, 4))
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (weights / weights.sum(axis=-1, keepdims=True)) @ v
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = attend(q, k, v)
        assert np.all(np.isfinite(got))
        assert np.abs(got - expected).max() <= 6 * np.finfo(float).eps * np.abs(v).max()

    @pytest.mark.parametrize("keys", [256, 6], ids=["self", "cross"])
    @pytest.mark.parametrize("q_scale", [1.0, 64.0], ids=["in-band", "shifted"])
    def test_matches_a_float64_softmax_reference(self, keys, q_scale):
        # dyadic inputs make every score exact in any summation order, so
        # the core and the reference read the same scores
        rng = np.random.default_rng(2)
        q = q_scale * dyadic(rng, (2, 256, 4))
        k, v = dyadic(rng, (2, 2, keys, 4))
        scores = q @ k.swapaxes(-1, -2) / np.sqrt(4)
        assert (np.abs(scores).max() > 60.0) == (q_scale > 1.0)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = (weights / weights.sum(axis=-1, keepdims=True)) @ v
        got = attend(q, k, v)
        assert np.abs(got - expected).max() <= keys * np.finfo(float).eps * np.abs(v).max()


class TestQueryTiles:
    """A core runs over query tiles; a split site shares its (core, tile) pairs out."""

    @staticmethod
    def operands(seed, heads, n, q_scale=1.0):
        q, k, v = np.random.default_rng(seed).standard_normal((3, heads, n, 4))
        return keys_major(q_scale * q, k, v)

    @pytest.mark.parametrize("shift", [False, True], ids=["unshifted", "shifted"])
    def test_a_tiled_core_equals_a_single_tile_core(self, shift):
        # 2 heads on 256 tokens, which run on the calling thread: tiles of
        # 128 queries give the single tile's bytes
        assert _score_shape(2, 256) == (2, 256, 128)
        qs, k, v1 = self.operands(0, 2, 256)
        tiled, whole = np.empty((2, 2, 5, 256))
        fiaedit.model._attend(qs, k, v1, np.empty((2, 256, 128)), tiled, shift)
        fiaedit.model._attend(qs, k, v1, None, whole, shift)
        assert np.array_equal(tiled, whole)
        # 2 heads on 400 tokens (20x20, the smallest square grid whose self
        # sites split): tiles of 81 queries, the last of 76, which BLAS
        # blocks otherwise than one tile, so they agree to rounding
        assert len(_score_shape(2, 400)) == 4
        assert _score_shape(2, 400) == (2, 2, 400, 81)
        qs, k, v1 = self.operands(0, 2, 400)
        tiled, whole = np.empty((2, 2, 5, 400))
        fiaedit.model._attend(qs, k, v1, np.empty((2, 400, 81)), tiled, shift)
        fiaedit.model._attend(qs, k, v1, None, whole, shift)
        assert np.abs(tiled - whole).max() <= 400 * np.finfo(float).eps * np.abs(whole).max()

    @pytest.mark.parametrize(
        "heads, grid", [(2, (16, 16)), (1, (16, 16)), (2, (20, 20))],
        ids=["2-heads-16x16", "1-head-16x16", "2-heads-20x20"],
    )
    def test_only_a_site_of_the_split_size_asks_for_the_worker(
        self, tiny_model, prompt_pair, monkeypatch, heads, grid
    ):
        # 2 x 256^2 and 256^2 scores run on the calling thread alone; 2 x
        # 400^2 split, and each dual block's self site asks for the worker
        splits = grid == (20, 20)
        assert (len(_score_shape(heads, grid[0] * grid[1])) == 4) == splits
        worker, asked = fiaedit.model._worker, []

        def spying_worker():
            asked.append(True)
            return worker()

        monkeypatch.setattr(fiaedit.model, "_worker", spying_worker)
        cfg = dataclasses.replace(tiny_model.cfg, n_heads=heads)
        x = np.random.default_rng(9).standard_normal((2, cfg.channels, *grid))
        states = [(xi, p, 2.5, HookPlan()) for xi, p in zip(x, prompt_pair)]
        VelocityModel(cfg)._forward(states, 0.5)
        assert len(asked) == (cfg.n_blocks_dual if splits else 0)

    @pytest.mark.parametrize("loud", [False, True], ids=["in-band", "shifted-rerun"])
    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("tokens", [1024, 640])
    def test_a_split_site_gives_its_serial_bytes(self, monkeypatch, tokens, cores, loud):
        # one head: 16 tiles of 64 queries per core on 1,024 tokens, and six
        # of 102 and a short one of 28 on 640.  One core splits by its tiles,
        # the first half, rounded up, on the calling thread; of three, the
        # calling thread runs the first and that half of the second.  A loud
        # last core overflows exp, and its shifted rerun is tiled the same way
        shape = _score_shape(1, tokens)
        rows = shape[-1]
        assert shape == (2, 1, tokens, rows) and rows == {1024: 64, 640: 102}[tokens]
        cut = (-(-tokens // rows) + 1) // 2 * rows
        scales = [1.0] * (cores - 1) + [1e3 if loud else 1.0]
        ops = [self.operands(i, 1, tokens, scale) for i, scale in enumerate(scales)]
        ops.append(0)  # a branch that copies the first core
        attend, caller, calls = fiaedit.model._attend, threading.get_ident(), []

        def spying(qs, k, v1, scores, out, shift=False):
            calls.append((threading.get_ident() != caller, qs.shape[-1], shift))
            attend(qs, k, v1, scores, out, shift)

        monkeypatch.setattr(fiaedit.model, "_attend", spying)
        results = []
        for scores in (np.empty(shape[1:]), np.empty(shape)):
            weighted = np.empty((cores + 1, 1, 5, tokens))
            out = np.empty((cores + 1, 1, 4, tokens))
            calls.clear()
            fiaedit.model._attend_site(ops, scores, weighted, out)
            results.append((out, sorted(calls)))
        (serial, serial_calls), (split, split_calls) = results
        assert np.array_equal(split, serial)
        assert np.array_equal(split[-1], split[0])
        rerun = [(False, tokens, True)] if loud else []
        assert serial_calls == sorted([(False, tokens, False)] * cores + rerun)
        halves = [(False, cut, False), (True, tokens - cut, False)]
        if cores == 3:
            halves += [(False, tokens, False), (True, tokens, False)]
        assert split_calls == sorted(halves + rerun)


class TestPeakBytes:
    # 2 heads on 32x32 run their self cores over query tiles of 32 queries
    # on two threads, and on 16x16 over two tiles of 128 on the calling
    # thread; one head on 32x32 over 16 tiles of 64, on two threads
    @pytest.mark.parametrize(
        "grid, branches, heads",
        [((32, 32), 2, 2), ((16, 16), 4, 2), ((8, 8), 4, 2), ((32, 32), 2, 1)],
        ids=["grid0-2", "grid1-4", "grid2-4", "one-head-32x32"],
    )
    def test_bounds_the_traced_peak_of_a_forward(self, prompt_pair, grid, branches, heads):
        cfg = ModelConfig(n_heads=heads)
        model = VelocityModel(cfg)
        x = np.random.default_rng(0).standard_normal((branches, cfg.channels, *grid))
        half = branches // 2
        # one pass per state on distinct latents, half of them conditional;
        # every one conditional on one prompt; and guided states, whose two
        # passes share their latent; each without hooks, and with every
        # conditional pass capturing every site
        for (latents, mus, pool), capture in itertools.product(
            (
                (list(x), [1.0] * half + [0.0] * half, prompt_pair),
                (list(x), [1.0] * branches, prompt_pair[:1]),
                (list(x[:half]), [2.5] * half, prompt_pair),
            ),
            (frozenset(), all_sites(cfg)),
        ):
            states = [
                (xi, pool[i % len(pool)], mu, HookPlan(capture=capture if mu else frozenset()))
                for i, (xi, mu) in enumerate(zip(latents, mus))
            ]
            prompts = min(len(pool), sum(mu != 0.0 for mu in mus))
            assert traced_peak(model, states) <= peak_bytes(cfg, grid, branches, 6, prompts)
        # a guided step of FIA on a source and targets: each target's probe and
        # its fork, which fuses Q/K at every self site and injects at the tail
        p_src, p_tar = prompt_pair
        targets = max(1, half)
        for fri_mode in FriMode:
            states, _ = _step_states(
                model, x[0], list(x[1 : 1 + targets]), p_src, [p_tar] * targets,
                0, 10, GuidanceConfig(), [FiaConfig(fri_mode=fri_mode)] * targets,
            )
            n = count_branches(states, model._forward(states, 0.5))
            assert n == 2 + 3 * targets
            assert traced_peak(model, states) <= peak_bytes(cfg, grid, n, 6, 2)

    @pytest.mark.parametrize(
        "cfg, grid, words",
        [
            (ModelConfig(), (16, 16), 2000),
            (ModelConfig(), (32, 32), 2000),
            (ModelConfig(d_model=4, n_heads=1), (1, 1), 6),
            (ModelConfig(d_model=4, n_heads=1, n_blocks_dual=1, n_blocks_cross_only=0), (1, 1), 6),
        ],
        ids=["long-prompt-16", "long-prompt-32", "1x1", "1x1-one-block"],
    )
    def test_bounds_prompt_sized_arrays_and_python_objects(self, cfg, grid, words):
        # a guided state capturing every site: cross scores, each prompt's
        # K^T and [V | 1], and the K/V copies of its cross packets
        model = VelocityModel(cfg)
        texts = [" ".join(f"{w}{i}" for i in range(words)) for w in ("a", "b")]
        p_src, p_tar = (embed_prompt(text, cfg.d_model) for text in texts)
        x = np.random.default_rng(0).standard_normal((2, cfg.channels, *grid))
        plan = HookPlan(capture=all_sites(cfg))
        pair = [(x[0], p_src, 2.5, plan)]
        assert traced_peak(model, pair) <= peak_bytes(cfg, grid, 2, words, 1)
        # a lockstep step of two probes sharing their prompt with a source
        step = pair + [(xi, p_tar, 3.5, plan) for xi in x]
        assert traced_peak(model, step) <= peak_bytes(cfg, grid, 6, words, 2)
        # and with each probe's fork, injecting the source's cross packets
        fia = FiaConfig(fij_block_range=(0, cfg.n_blocks - 1))
        step, _ = _step_states(
            model, x[0], list(x), p_src, [p_tar] * 2, 0, 1, GuidanceConfig(2.5, 3.5), [fia] * 2
        )
        assert count_branches(step, model._forward(step, 0.5)) == 8
        assert traced_peak(model, step) <= peak_bytes(cfg, grid, 8, words, 2)


    @pytest.mark.parametrize(
        "cfg, grid, words, n",
        [
            # twelve blocks on one token and three long prompts: each prompt's
            # K^T and [V | 1] at every block are most of the peak
            (ModelConfig(d_model=8, n_heads=1, n_blocks_dual=2, n_blocks_cross_only=10),
             (1, 1), 2000, 3),
            # one wide block on 256 tokens: the token-wise arrays are
            (ModelConfig(d_model=16, n_heads=1, n_blocks_dual=1, n_blocks_cross_only=0,
                         channels=1), (16, 16), 6, 3),
            # one narrow block on two tokens: the Python objects are
            (ModelConfig(d_model=4, n_heads=1, n_blocks_dual=1, n_blocks_cross_only=0,
                         channels=1), (1, 2), 1, 1),
        ],
        ids=["prompt-operands", "token-wise", "objects"],
    )
    def test_bounds_a_forward_where_one_term_dominates(self, cfg, grid, words, n):
        # the bound holds here with 15-50% to spare, but not with that term
        # shrunk (per-prompt operands of two blocks only, a token-wise 8d, or
        # no fixed eight objects): 1.13-1.33 times such a bound
        model = VelocityModel(cfg)
        x = np.random.default_rng(0).standard_normal((n, cfg.channels, *grid))
        plan = HookPlan(capture=all_sites(cfg))
        states = [
            (xi, embed_prompt(" ".join(f"w{j}x{i}" for j in range(words)), cfg.d_model), 1.0, plan)
            for i, xi in enumerate(x)
        ]
        assert traced_peak(model, states) <= peak_bytes(cfg, grid, n, words, n)

    def test_scratch_grows_in_proportion_to_tokens(self):
        # a step of one request on 64x64 (4,096 tokens): two query tiles of
        # 2 x 4,096 x 16 scores, where a (2, heads, n, n) block took 512 MiB
        cfg = ModelConfig(channels=3)
        assert _score_shape(cfg.n_heads, 64 * 64) == (2, 2, 4096, 16)
        assert peak_bytes(cfg, (64, 64), 5, 6, 2) < 100 << 20


def numpy_with_empty(empty):
    """numpy as ``fiaedit.model`` sees it, with ``empty`` replaced."""
    fake = types.ModuleType("numpy")
    fake.__getattr__ = lambda name: getattr(np, name)
    fake.empty = empty
    return fake


def forward_bytes(model, states):
    """The bytes of every velocity and captured packet one ``_forward`` gives."""
    out = []
    for v_cond, v_uncond, packets in model._forward(states, 0.5):
        out += [None if v is None else v.tobytes() for v in (v_cond, v_uncond)]
        out += [(site, a.tobytes()) for site, p in sorted(packets.items(), key=str)
                for a in (p.q, p.k, p.v)]
    return out


class TestScratchBlock:
    def test_a_forward_allocates_one_block_that_peak_bytes_counts(self, prompt_pair, monkeypatch):
        # two guided states on 32x32 with 2 heads: four branches, and self
        # sites split over two query tiles of 32
        cfg = ModelConfig(channels=4)
        grid, n_b = (32, 32), 4
        layout = fiaedit.model._scratch_layout(cfg.n_heads, cfg.d_model, 32 * 32, n_b)
        size = sum(math.prod(shape) for shape in layout)
        made, products, hidden, sites = [], [], [], []
        self_operands, gelu_like = fiaedit.model._self_operands, fiaedit.model._gelu_like
        attend_site = fiaedit.model._attend_site

        def spying_empty(shape, dtype=float):
            made.append(np.empty(shape, dtype))
            return made[-1]

        def spying_self_operands(hn, w_qkv, heads, out):
            products.append(out)
            return self_operands(hn, w_qkv, heads, out)

        def spying_gelu_like(g, out):
            hidden.append((g, out))
            return gelu_like(g, out)

        def spying_attend_site(ops, scores, weighted, out):
            if scores is not None:
                sites.append((scores, weighted, out))
            return attend_site(ops, scores, weighted, out)

        monkeypatch.setattr(fiaedit.model, "np", numpy_with_empty(spying_empty))
        monkeypatch.setattr(fiaedit.model, "_self_operands", spying_self_operands)
        monkeypatch.setattr(fiaedit.model, "_gelu_like", spying_gelu_like)
        monkeypatch.setattr(fiaedit.model, "_attend_site", spying_attend_site)
        x = np.random.default_rng(8).standard_normal((2, cfg.channels, *grid))
        states = [(xi, p, 2.5, HookPlan()) for xi, p in zip(x, prompt_pair)]
        out = VelocityModel(cfg)._forward(states, 0.5)
        assert count_branches(states, out) == n_b
        # exactly one allocation of the layout's size, the call's largest
        (block,) = [a for a in made if a.size == size]
        assert max(a.size for a in made) == size
        # the Q/K/V products, the MLP's hidden buffers and the self sites'
        # scratch are all cut from it
        assert len(products) == cfg.n_blocks_dual and len(hidden) == cfg.n_blocks
        assert len(sites) == cfg.n_blocks_dual
        for buffer in [*products, *(a for pair in hidden for a in pair),
                       *(a for site in sites for a in site)]:
            assert np.shares_memory(buffer, block)
        # and peak_bytes counts its bytes: a larger layout raises it by as many
        bound = peak_bytes(cfg, grid, n_b, 6, 2)
        assert bound > block.nbytes
        layout_of = fiaedit.model._scratch_layout
        monkeypatch.setattr(
            fiaedit.model, "_scratch_layout", lambda *args: (*layout_of(*args), (1000,))
        )
        assert peak_bytes(cfg, grid, n_b, 6, 2) == bound + 8000

    @pytest.mark.parametrize(
        "case", ["split-tiles-20x20", "short-last-tile", "fri-freq-step", "shifted-rerun",
                 "fewer-states-than-branches"],
    )
    def test_no_buffer_is_read_before_it_is_written(self, prompt_pair, monkeypatch, case):
        # a forward whose np.empty hands out NaN, or 1.0, gives the same
        # bytes: every entry of the block that is read was written first
        p_src, p_tar = prompt_pair
        rng = np.random.default_rng(13)
        cfg = ModelConfig(channels=4, n_heads=1 if case == "short-last-tile" else 2)
        grid = {"split-tiles-20x20": (20, 20), "short-last-tile": (20, 32),
                "fri-freq-step": (8, 8), "fewer-states-than-branches": (6, 5)}.get(case, (16, 16))
        x = rng.standard_normal((3, cfg.channels, *grid))
        sites = all_sites(cfg)
        if case == "short-last-tile":
            # one head on 640 tokens: tiles of 102 queries, the last of 28
            assert _score_shape(1, 640) == (2, 1, 640, 102)
            states = [(x[0], p_src, 1.0, HookPlan(capture=sites))]
        elif case == "fri-freq-step":
            fia = FiaConfig(fri_mode=FriMode.FREQ)
            states, _ = _step_states(
                VelocityModel(cfg), x[0], list(x[1:]), p_src, [p_tar] * 2, 0, 10,
                GuidanceConfig(), [fia] * 2,
            )
            assert all(plan.fork is not None and plan.capture for _, _, _, plan in states[1:])
        elif case == "shifted-rerun":
            site = (0, AttnKind.SELF)
            _, own = VelocityModel(cfg).velocity(x[0], p_tar, 0.5, 1.0, HookPlan(capture=sites))
            loud = ReplaceQK(q=1e3 * own[site].q, k=own[site].k)
            states = [(x[0], p_tar, 2.5, HookPlan(overrides={site: loud})),
                      (x[1], p_src, 1.0, HookPlan())]
        elif case == "split-tiles-20x20":
            # one pass per state: each self site's cores run over five tiles
            # of 81 queries, the last of 76, the second core's on the worker
            assert len(_score_shape(2, 400)) == 4
            assert _score_shape(2, 400) == (2, 2, 400, 81)
            states = [(xi, p, 1.0, HookPlan(capture=sites)) for xi, p in zip(x, prompt_pair)]
        else:
            # guided states, two passes each, one unguided: block 0's prefix
            # has three rows for five branches
            states = [(xi, p, 2.5, HookPlan(capture=sites)) for xi, p in zip(x, prompt_pair)]
            states.append((x[2], p_src, 0.0, HookPlan()))
        shifted = []
        attend = fiaedit.model._attend

        def spying_attend(qs, k, v1, scores, out, shift=False):
            shifted.append(shift)
            attend(qs, k, v1, scores, out, shift)

        monkeypatch.setattr(fiaedit.model, "_attend", spying_attend)
        want = forward_bytes(VelocityModel(cfg), states)
        assert any(shifted) == (case == "shifted-rerun")
        # NaN reaches the output or fails the range check, whose rerun
        # rewrites a branch; 1.0 passes the check, so a skipped write shows
        for fill in (np.nan, 1.0):
            def filled(shape, dtype=float, fill=fill):
                return np.full(shape, fill, dtype)

            monkeypatch.setattr(fiaedit.model, "np", numpy_with_empty(filled))
            assert forward_bytes(VelocityModel(cfg), states) == want


class TestTimeEmbedding:
    def test_sigma_zero_alternates(self):
        emb = time_embedding(0.0, 8)
        assert np.array_equal(emb[0::2], np.zeros(4))
        assert np.array_equal(emb[1::2], np.ones(4))

    def test_repeatable(self):
        assert np.array_equal(time_embedding(0.37, 16), time_embedding(0.37, 16))

    def test_two_frequency_hand_values(self):
        emb = time_embedding(0.5, 4)
        expected = [np.sin(0.5), np.cos(0.5), np.sin(5.0), np.cos(5.0)]
        assert emb == pytest.approx(expected, abs=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            time_embedding(0.5, 5)

    @pytest.mark.parametrize("d_model", [2, 4, 8, 16])
    def test_geometric_frequencies(self, d_model):
        n_freq = d_model // 2
        freqs = np.geomspace(1.0, 10.0, n_freq) if n_freq > 1 else np.array([1.0])
        for sigma in (0.0, 0.37, 1.0):
            emb = time_embedding(sigma, d_model)
            assert np.array_equal(emb[0::2], np.sin(freqs * sigma))
            assert np.array_equal(emb[1::2], np.cos(freqs * sigma))


class TestLayerNorm:
    # a stream is (..., d, tokens): layer norm acts over the feature axis, -2
    @pytest.mark.parametrize("shape", [(8, 64), (8, 256), (4, 8, 64)])
    def test_agrees_with_the_mean_formula(self, shape):
        # the means are products, which add in another order than mean
        h = 3.0 * np.random.default_rng(0).standard_normal(shape) + 1.0
        centered = h - h.mean(axis=-2, keepdims=True)
        expected = centered / np.sqrt(np.square(centered).mean(axis=-2, keepdims=True) + 1e-6)
        assert np.abs(_layer_norm(h) - expected).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 8, 64), (6, 8, 7), (3, 4, 1), (2, 16, 33)])
    def test_batch_equals_each_slice_alone(self, shape):
        h = 3.0 * np.random.default_rng(1).standard_normal(shape) + 1.0
        out = _layer_norm(h)
        for i in range(shape[0]):
            assert np.array_equal(out[i], _layer_norm(h[i]))

    # views strided over branches and features, and offset along the tokens;
    # every stream a forward normalises keeps its token axis unit-stride
    @pytest.mark.parametrize("step", [np.s_[::2], np.s_[:, ::3], np.s_[1::2, 2:, 5:]])
    def test_strided_view_equals_its_contiguous_copy(self, step):
        h = 3.0 * np.random.default_rng(2).standard_normal((6, 8, 40)) + 1.0
        view = h[step]
        assert not view.flags.c_contiguous
        assert np.array_equal(_layer_norm(view), _layer_norm(np.ascontiguousarray(view)))


# what a call hands the model for a state's prompt, with a seed: a fresh
# prompt, a known one as it is, or rewritten in place and frozen again, or a
# new object of a known one's values (a copy, a view, a Fortran-ordered copy)
_PROMPT_MOVE = st.tuples(
    st.sampled_from(["fresh", "reuse", "copy", "view", "fortran", "refrozen"]),
    st.integers(0, 2**16),
)
_GRIDS = st.sampled_from([(4, 4), (6, 5)])


def all_sites(cfg):
    return frozenset(
        (b, kind) for b in range(cfg.n_blocks) for kind in AttnKind if cfg.contains((b, kind))
    )


class TestBatchedForward:
    def test_branch_does_not_depend_on_its_batch(self, tiny_model, prompt_pair, monkeypatch):
        p_src, p_tar = prompt_pair
        sites = all_sites(tiny_model.cfg)
        site = (0, AttnKind.SELF)
        attend = fiaedit.model._attend
        caller = threading.get_ident()
        shifted, overflowed_on_caller = [0], []

        def spying(qs, k, v1, scores, out, shift=False):
            shifted[-1] += shift
            attend(qs, k, v1, scores, out, shift)
            if not np.isfinite(out).all():
                overflowed_on_caller.append(threading.get_ident() == caller)

        monkeypatch.setattr(fiaedit.model, "_attend", spying)
        # on 6x6 every core runs on the calling thread; on 20x20 (2 heads,
        # 400 tokens) each self site's second half of cores runs on the
        # worker, the loud branch's among them, and its exp overflows there
        assert len(_score_shape(2, 400)) == 4
        for grid in ((6, 6), (20, 20)):
            x = np.stack([latent(s, (4, *grid)) for s in (0, 1, 2)] + [1e3 * latent(0, (4, *grid))])
            _, own = tiny_model.velocity(x[2], p_tar, 0.5, 1.0, hooks=HookPlan(capture=sites))
            loud = ReplaceQK(q=1e3 * own[site].q, k=own[site].k)
            # states 0-2 run their conditional pass alone, 3 its unconditional
            # pass alone: the batch's cores are states 0-3 in order
            states = [
                (x[0], p_src, 1.0, HookPlan(capture=sites)),
                (x[1], p_tar, 1.0, HookPlan(capture=sites)),
                (x[2], p_tar, 1.0, HookPlan(capture=sites, overrides={site: loud})),
                (x[3], p_tar, 0.0, HookPlan()),
            ]
            shifted[:], overflowed_on_caller[:] = [0], []
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = tiny_model._forward(states, 0.5)
            # the loud branch's core at (0, SELF) overflows exp and runs again
            # shifted; no other core of the batch does
            assert shifted == [1]
            assert overflowed_on_caller == [grid == (6, 6)]
            for i, got in enumerate(out):
                shifted.append(0)
                (alone,) = tiny_model._forward([states[i]], 0.5)
                assert shifted[-1] == (i == 2)
                ran, skipped = (0, 1) if i < 3 else (1, 0)
                assert got[skipped] is None and alone[skipped] is None
                assert np.array_equal(got[ran], alone[ran])
                packets, alone_packets = got[2], alone[2]
                if i == 3:
                    assert packets == alone_packets == {}
                else:
                    assert packets.keys() == alone_packets.keys() == sites
                    for key, pkt in packets.items():
                        ref = alone_packets[key]
                        assert np.array_equal(pkt.q, ref.q)
                        assert np.array_equal(pkt.k, ref.k)
                        assert np.array_equal(pkt.v, ref.v)
                        assert (pkt.text_embedding is None) == (key[1] is AttnKind.SELF)
                        if pkt.text_embedding is not None:
                            assert embeddings_equal(pkt.text_embedding, ref.text_embedding)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_core_fails_the_call_and_leaves_no_job(
        self, tiny_model, prompt_pair, monkeypatch, failing
    ):
        # two guided states on 20x20: each self site runs two of its four
        # cores on the worker
        assert len(_score_shape(2, 400)) == 4
        x = np.random.default_rng(5).standard_normal((2, 4, 20, 20))
        states = [(xi, p, 2.5, HookPlan()) for xi, p in zip(x, prompt_pair)]
        clean = tiny_model._forward(states, 0.5)
        attend = fiaedit.model._attend
        caller = threading.get_ident()
        started, finished, failed = [], [], []

        def failing_attend(*args):
            on_worker = threading.get_ident() != caller
            started.append(on_worker)
            try:
                if not failed and on_worker == (failing == "worker"):
                    failed.append(RuntimeError("core failed"))
                    raise failed[0]
                if on_worker:
                    time.sleep(0.01)  # so a failing caller's half ends first
                attend(*args)
            finally:
                finished.append(on_worker)

        monkeypatch.setattr(fiaedit.model, "_attend", failing_attend)
        with pytest.raises(RuntimeError) as err:
            tiny_model._forward(states, 0.5)
        assert err.value is failed[0]
        # the worker's half ran, and every core had ended when the call failed
        assert True in started and len(finished) == len(started)
        for got, ref in zip(tiny_model._forward(states, 0.5), clean):
            assert all(np.array_equal(a, b) for a, b in zip(got[:2], ref[:2]))

    def test_callers_on_several_threads_share_the_worker(self, tiny_model, prompt_pair):
        # four callers, more than the cores, each splitting every self site
        # under a short switch interval: every call keeps its serial bytes
        assert len(_score_shape(2, 400)) == 4
        x = np.random.default_rng(6).standard_normal((4, 2, 4, 20, 20))
        batches = [[(xi, p, 2.5, HookPlan()) for xi, p in zip(xs, prompt_pair)] for xs in x]
        want = [tiny_model._forward(states, 0.5) for states in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(batches)) as callers:
                runs = [
                    callers.submit(lambda s: [tiny_model._forward(s, 0.5) for _ in range(3)], s)
                    for s in batches
                ]
                got = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for repeats, ref in zip(got, want):
            for out in repeats:
                for state, state_ref in zip(out, ref):
                    assert all(np.array_equal(a, b) for a, b in zip(state[:2], state_ref[:2]))

    def test_a_forked_child_makes_its_own_worker(self, tiny_model, prompt_pair):
        # once a split forward has made the worker here, a child forked from
        # this process has no worker thread: its own split forward must still
        # finish, with this process's bytes, before the deadline
        assert len(_score_shape(2, 400)) == 4
        x = np.random.default_rng(7).standard_normal((2, 4, 20, 20))
        states = [(xi, p, 2.5, HookPlan()) for xi, p in zip(x, prompt_pair)]

        def digest():
            out = tiny_model._forward(states, 0.5)
            return hashlib.sha256(b"".join(v.tobytes() for state in out for v in state[:2])).digest()

        want = digest()
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report, and leave without running the parent's exit
            try:
                os.close(read)
                os.write(write, digest())
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as fh:
            deadline = time.monotonic() + 10.0
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the child's split forward did not finish in 10 s")
                time.sleep(0.01)
            assert fh.read() == want

    def test_cross_kv_projected_once_per_distinct_prompt(
        self, tiny_model, prompt_pair, monkeypatch
    ):
        cross_operands, built = fiaedit.model._cross_operands, []

        def counting_cross_operands(matrix, *args):
            built.append(matrix)
            return cross_operands(matrix, *args)

        monkeypatch.setattr(fiaedit.model, "_cross_operands", counting_cross_operands)
        p_src, p_tar = prompt_pair
        copies = [PromptEmbedding(p_tar.tokens, p_tar.matrix.copy()) for _ in range(6)]
        for p in copies:
            p.matrix.flags.writeable = False
        x = [latent(i) for i in range(7)]
        # a grid step: the source and six probes on one target prompt, handed
        # over as one object or as six frozen objects of its values
        for shared in ([p_tar] * 6, copies):
            built.clear()
            states = [(xi, p, 1.0, HookPlan()) for xi, p in zip(x, [p_src] + shared)]
            out = VelocityModel(tiny_model.cfg)._forward(states, 0.5)
            # every block's K and V in one product per distinct prompt value
            assert len(built) == 2
            assert sum(np.array_equal(m, p_tar.matrix) for m in built) == 1
            ((alone, _, _),) = tiny_model._forward([(x[3], p_tar, 1.0, HookPlan())], 0.5)
            assert np.array_equal(out[3][0], alone)

    @pytest.mark.parametrize("kind", ["writable", "read-only-view", "refrozen"])
    def test_a_prompt_that_can_change_is_projected_every_call(self, tiny_model, prompt_pair, kind):
        # a matrix written between calls, in place, through the base of a
        # read-only view, or unfrozen, written and frozen again, gives its
        # fresh bytes, never the latest call's operands
        p, other = prompt_pair
        base = p.matrix.copy()
        matrix = base.view() if kind == "read-only-view" else base
        matrix.flags.writeable = kind == "writable"
        prompt, x = PromptEmbedding(p.tokens, matrix), latent(3)
        first, _ = tiny_model.velocity(x, prompt, 0.5, 2.5)
        assert np.array_equal(first, tiny_model.velocity(x, p, 0.5, 2.5)[0])
        assert np.array_equal(first, tiny_model.velocity(x, prompt, 0.5, 2.5)[0])
        base.flags.writeable = True
        base[:] = other.matrix
        matrix.flags.writeable = kind == "writable"
        changed, _ = tiny_model.velocity(x, prompt, 0.5, 2.5)
        assert np.array_equal(changed, tiny_model.velocity(x, other, 0.5, 2.5)[0])
        assert not np.array_equal(changed, first)

    @settings(max_examples=30, deadline=None)
    @example(calls=[((4, 4), [("fresh", 1)]), ((4, 4), [("refrozen", 1)])])
    @given(calls=st.lists(st.tuples(_GRIDS, st.lists(_PROMPT_MOVE, min_size=1, max_size=3)),
                          min_size=1, max_size=6))
    def test_every_call_gives_a_fresh_models_bytes(self, calls):
        # one model through a history of calls: whatever it kept from the
        # calls before, each call's velocities are a fresh model's bytes
        cfg = ModelConfig(channels=4)
        model, pool = VelocityModel(cfg), []
        for c, (grid, moves) in enumerate(calls):
            states = []
            for move, seed in moves:
                if move == "fresh" or not pool:
                    words = " ".join(f"w{seed + i}" for i in range(1 + seed % 3))
                    p = embed_prompt(words, cfg.d_model)
                    pool.append(p)
                elif move == "refrozen":  # unfrozen, rewritten and frozen again
                    owners = [q for q in pool if q.matrix.flags.owndata]
                    p = owners[seed % len(owners)]
                    p.matrix.flags.writeable = True
                    p.matrix[:] = np.random.default_rng(seed).standard_normal(p.matrix.shape)
                    p.matrix.flags.writeable = False
                elif move == "reuse":
                    p = pool[seed % len(pool)]
                else:  # a new object of a known prompt's values
                    p = pool[seed % len(pool)]
                    matrix = {
                        "copy": p.matrix.copy(),
                        "view": p.matrix.view(),
                        "fortran": np.array(p.matrix, order="F"),
                    }[move]
                    p = PromptEmbedding(p.tokens, matrix)
                    pool.append(p)
                states.append((latent(c + len(states), (4, *grid)), p, 2.5, HookPlan()))
            got = model._forward(states, 0.5)
            want = VelocityModel(cfg)._forward(states, 0.5)
            for state, ref in zip(got, want, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(state[:2], ref[:2]))

    def test_a_call_leaves_the_model_as_it_found_it(self, prompt_pair):
        # an FIA step on a source and two targets: two prompts, captures at
        # the constrained sites and each target's fork; the model's
        # attributes are afterwards the same names bound to the same objects
        model = VelocityModel(ModelConfig(channels=4))
        before = dict(vars(model))
        p_src, p_tar = prompt_pair
        x = [latent(i) for i in range(3)]
        states, _ = _step_states(
            model, x[0], x[1:], p_src, [p_tar] * 2, 0, 10, GuidanceConfig(), [FiaConfig()] * 2
        )
        assert count_branches(states, model._forward(states, 0.5)) == 8
        assert vars(model).keys() == before.keys()
        assert all(vars(model)[name] is value for name, value in before.items())

    def test_self_qkv_is_one_product_per_dual_block(self, prompt_pair):
        # the product writes into the scratch block through np.matmul(out=),
        # which reaches a weight's ufunc override, not its __matmul__
        class CountingWeights(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                CountingWeights.products += ufunc is np.matmul
                inputs = [np.asarray(a) if isinstance(a, CountingWeights) else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        model = VelocityModel(ModelConfig(channels=4))
        model._blocks = [
            (None if w_qkv is None else w_qkv.view(CountingWeights), *rest)
            for w_qkv, *rest in model._blocks
        ]
        # three guided states on two prompts: six branches
        states = [(latent(i), prompt_pair[i % 2], 2.5, HookPlan()) for i in range(3)]
        out = model._forward(states, 0.5)
        assert CountingWeights.products == model.cfg.n_blocks_dual
        ((v_cond, v_uncond, _),) = VelocityModel(model.cfg)._forward(states[2:], 0.5)
        assert np.array_equal(out[2][0], v_cond) and np.array_equal(out[2][1], v_uncond)

    def test_velocity_is_the_batched_forward(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(4)
        ((v_cond, v_uncond, _),) = tiny_model._forward([(x, p, 2.5, HookPlan())], 0.5)
        v, _ = tiny_model.velocity(x, p, 0.5, 2.5)
        assert np.array_equal(v, v_uncond + 2.5 * (v_cond - v_uncond))

    @pytest.mark.parametrize("mu", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("capture", [frozenset(), frozenset({(0, AttnKind.SELF)})])
    def test_pass_rule(self, tiny_model, prompt_pair, mu, capture):
        # the conditional pass runs unless mu is 0 and nothing is captured,
        # the unconditional pass unless mu is 1
        p, _ = prompt_pair
        x = latent(6)
        hooks = HookPlan(capture=capture)
        ((v_cond, v_uncond, packets),) = tiny_model._forward([(x, p, mu, hooks)], 0.5)
        assert (v_cond is None) == (mu == 0.0 and not capture)
        assert (v_uncond is None) == (mu == 1.0)
        assert packets.keys() == capture
        v, captured = tiny_model.velocity(x, p, 0.5, mu, hooks=hooks)
        assert np.array_equal(guide(v_cond, v_uncond, mu), v)
        assert captured.keys() == capture
        for site, pkt in packets.items():
            assert np.array_equal(pkt.q, captured[site].q)
            assert np.array_equal(pkt.k, captured[site].k)
            assert np.array_equal(pkt.v, captured[site].v)

    def test_null_key_row_is_softmax_over_one_key(self, tiny_model):
        W = tiny_model.weights
        d, heads = tiny_model.cfg.d_model, tiny_model.cfg.n_heads
        d_head = d // heads
        hn = np.random.default_rng(9).standard_normal((10, d))
        null = W["null_token"]
        for b in range(tiny_model.cfg.n_blocks):
            q, k, v = (
                (z @ W[f"b{b}.cross.{name}"]).reshape(-1, heads, d_head).transpose(1, 0, 2)
                for z, name in ((hn, "wq"), (null, "wk"), (null, "wv"))
            )
            scores = q @ k.transpose(0, 2, 1) / np.sqrt(d_head)  # (heads, 10, 1)
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            weights /= weights.sum(axis=-1, keepdims=True)
            ref = (weights @ v).transpose(1, 0, 2).reshape(10, d) @ W[f"b{b}.cross.wo"]
            _, _, _, _, null_row, _, _ = tiny_model._blocks[b]
            assert np.abs(ref - null_row.T).max() <= 1e-12

    def test_unconditional_branch_matches_a_null_token_prompt(self, tiny_model):
        null_prompt = PromptEmbedding(tokens=(0,), matrix=tiny_model.weights["null_token"])
        x = latent(5)
        ((v_cond, v_uncond, _),) = tiny_model._forward([(x, null_prompt, 2.5, HookPlan())], 0.5)
        assert np.abs(v_cond - v_uncond).max() <= 1e-12 * np.abs(v_uncond).max()


class TestReferenceForward:
    def test_a_hooked_guided_state_matches_the_token_major_reference(
        self, tiny_model, prompt_pair
    ):
        # guided states that capture a self and a cross site and override one
        # of each, with Q/K and a donor packet of their own: one on a 6x5
        # grid, and two on 20x20, whose self sites split their cores
        assert len(_score_shape(2, 400)) == 4
        p, p_donor = prompt_pair
        rng = np.random.default_rng(12)
        heads, d_head, m = 2, 4, len(p_donor.tokens)
        self_site, cross_site = (1, AttnKind.SELF), (5, AttnKind.CROSS)
        capture = frozenset({(0, AttnKind.SELF), self_site, (3, AttnKind.CROSS), cross_site})
        for grid, n_states in (((6, 5), 1), ((20, 20), 2)):
            n = grid[0] * grid[1]
            states = []
            for _ in range(n_states):
                x = rng.standard_normal((4, *grid))
                q, k, v = (rng.standard_normal((heads, t, d_head)) for t in (n, m, m))
                donor = AttentionPacket(q, k, v, p_donor)
                qk = ReplaceQK(*rng.standard_normal((2, heads, n, d_head)))
                overrides = {self_site: qk, cross_site: donor}
                states.append((x, p, 2.5, HookPlan(capture=capture, overrides=overrides)))
            out = tiny_model._forward(states, 0.37)
            for (x, _, _, plan), (v_cond, v_uncond, packets) in zip(states, out):
                ref_cond, ref_uncond, ref_packets = reference_forward(tiny_model, x, p, 0.37, plan)
                for got, ref in ((v_cond, ref_cond), (v_uncond, ref_uncond)):
                    assert got.shape == ref.shape
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
                assert packets.keys() == ref_packets.keys() == capture
                for site, pkt in packets.items():
                    for got, ref in zip((pkt.q, pkt.k, pkt.v), ref_packets[site]):
                        assert got.shape == ref.shape
                        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
                assert packets[(3, AttnKind.CROSS)].text_embedding is p
                assert packets[cross_site].text_embedding is p_donor
