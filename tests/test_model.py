from __future__ import annotations

import numpy as np
import pytest

from fiaedit.errors import ShapeMismatchError, TopologyError
from fiaedit.model import (
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    ReplaceQKVE,
    Topology,
    VelocityModel,
    _softmax_rows,
    time_embedding,
)
from fiaedit.prompts import embed_prompt


def latent(seed=0, shape=(4, 6, 6)):
    return np.random.default_rng(seed).standard_normal(shape)


class TestModelConfig:
    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=8, n_heads=3)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=7, n_heads=1)

    def test_topology_split(self):
        topo = Topology(2, 2)
        assert topo.n_blocks == 4
        assert [topo.has_self(b) for b in range(4)] == [True, True, False, False]
        assert topo.cross_only_range() == (2, 3)
        assert topo.self_sites() == ((0, AttnKind.SELF), (1, AttnKind.SELF))


class TestDeterminism:
    def test_same_config_same_weights(self):
        cfg = ModelConfig(seed=5, channels=4)
        a, b = VelocityModel(cfg), VelocityModel(cfg)
        assert set(a.weights) == set(b.weights)
        assert all(np.array_equal(a.weights[k], b.weights[k]) for k in a.weights)

    def test_different_seed_different_weights(self):
        a = VelocityModel(ModelConfig(seed=5, channels=4))
        b = VelocityModel(ModelConfig(seed=6, channels=4))
        assert not np.array_equal(a.weights["w_in"], b.weights["w_in"])

    def test_velocity_repeatable(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent()
        v1, _ = tiny_model.velocity(x, p, 3, 0.5, 2.0)
        v2, _ = tiny_model.velocity(x, p, 3, 0.5, 2.0)
        assert np.array_equal(v1, v2)

    def test_weights_are_frozen(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.weights["w_in"][0, 0] = 1.0


class TestGuidance:
    def test_affine_in_mu(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(1)
        v0, _ = tiny_model.velocity(x, p, 3, 0.5, 0.0)
        v1, _ = tiny_model.velocity(x, p, 3, 0.5, 1.0)
        v2, _ = tiny_model.velocity(x, p, 3, 0.5, 2.0)
        assert np.abs((v2 - v1) - (v1 - v0)).max() < 1e-9

    def test_mu_zero_ignores_prompt(self, tiny_model, prompt_pair):
        p_a, p_b = prompt_pair
        x = latent(2)
        va, _ = tiny_model.velocity(x, p_a, 3, 0.5, 0.0)
        vb, _ = tiny_model.velocity(x, p_b, 3, 0.5, 0.0)
        assert np.array_equal(va, vb)

    def test_mu_one_is_prompt_sensitive(self, tiny_model, prompt_pair):
        p_a, p_b = prompt_pair
        x = latent(2)
        va, _ = tiny_model.velocity(x, p_a, 3, 0.5, 1.0)
        vb, _ = tiny_model.velocity(x, p_b, 3, 0.5, 1.0)
        assert not np.array_equal(va, vb)

    def test_guidance_config_validation(self):
        GuidanceConfig(mu_src=0.0, mu_tar=1.0)
        with pytest.raises(ValueError):
            GuidanceConfig(mu_src=0.5, mu_tar=2.0)


class TestHooks:
    def test_empty_plan_is_transparent(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(3)
        v_plain, _ = tiny_model.velocity(x, p, 3, 0.5, 2.0)
        v_hooked, _ = tiny_model.velocity(x, p, 3, 0.5, 2.0, hooks=HookPlan())
        assert np.array_equal(v_plain, v_hooked)

    def test_capture_only_plan_does_not_change_output(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(3)
        sites = frozenset({(0, AttnKind.SELF), (5, AttnKind.CROSS)})
        v_plain, _ = tiny_model.velocity(x, p, 3, 0.5, 2.0)
        v_cap, packets = tiny_model.velocity(x, p, 3, 0.5, 2.0, hooks=HookPlan(capture=sites))
        assert np.array_equal(v_plain, v_cap)
        assert {pkt.site for pkt in packets} == sites

    def test_capture_completeness_and_uniqueness(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        topo = tiny_model.topology
        sites = frozenset(topo.self_sites()) | frozenset(topo.cross_sites())
        _, packets = tiny_model.velocity(latent(4), p, 3, 0.5, 1.0, hooks=HookPlan(capture=sites))
        seen = [pkt.site for pkt in packets]
        assert len(seen) == len(sites)
        assert set(seen) == sites

    def test_cross_packets_record_text_embedding(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        sites = frozenset({(4, AttnKind.CROSS)})
        _, packets = tiny_model.velocity(latent(5), p, 3, 0.5, 1.0, hooks=HookPlan(capture=sites))
        assert packets[0].text_embedding is p

    def test_captured_packets_are_frozen(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        sites = frozenset({(0, AttnKind.SELF)})
        _, packets = tiny_model.velocity(latent(5), p, 3, 0.5, 1.0, hooks=HookPlan(capture=sites))
        with pytest.raises(ValueError):
            packets[0].q[0, 0, 0] = 99.0

    def test_qkve_override_reproduces_donor_activations(self, tiny_model, prompt_pair):
        p_a, p_b = prompt_pair
        x_a, x_b = latent(6), latent(7)
        site = (5, AttnKind.CROSS)
        capture = HookPlan(capture=frozenset({site}))
        _, donor_packets = tiny_model.velocity(x_a, p_a, 3, 0.5, 1.0, hooks=capture)
        donor = donor_packets[0]
        plan = HookPlan(capture=frozenset({site}), overrides={site: ReplaceQKVE(donor)})
        _, got = tiny_model.velocity(x_b, p_b, 3, 0.5, 1.0, hooks=plan)
        pkt = got[0]
        assert np.array_equal(pkt.q, donor.q)
        assert np.array_equal(pkt.k, donor.k)
        assert np.array_equal(pkt.v, donor.v)
        assert pkt.text_embedding is donor.text_embedding

    def test_replace_qk_changes_output(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(8)
        site = (0, AttnKind.SELF)
        capture = HookPlan(capture=frozenset({site}))
        v_plain, packets = tiny_model.velocity(x, p, 3, 0.5, 1.0, hooks=capture)
        pkt = packets[0]
        plan = HookPlan(overrides={site: ReplaceQK(q=pkt.q * 2.0, k=pkt.k.copy())})
        v_mod, _ = tiny_model.velocity(x, p, 3, 0.5, 1.0, hooks=plan)
        assert not np.array_equal(v_plain, v_mod)

    def test_invalid_sites_rejected(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(9)
        with pytest.raises(TopologyError):
            tiny_model.velocity(x, p, 3, 0.5, 1.0, hooks=HookPlan(capture=frozenset({(9, AttnKind.SELF)})))
        with pytest.raises(TopologyError):
            # block 5 is cross-only: no self site to override
            tiny_model.velocity(
                x, p, 3, 0.5, 1.0,
                hooks=HookPlan(overrides={(5, AttnKind.SELF): ReplaceQK(np.zeros(1), np.zeros(1))}),
            )

    def test_wrong_action_kind_rejected(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        with pytest.raises(TopologyError):
            tiny_model.velocity(
                latent(10), p, 3, 0.5, 1.0,
                hooks=HookPlan(overrides={(0, AttnKind.CROSS): ReplaceQK(np.zeros(1), np.zeros(1))}),
            )


class TestShapes:
    def test_wrong_channel_count(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        with pytest.raises(ShapeMismatchError):
            tiny_model.velocity(np.zeros((3, 4, 4)), p, 3, 0.5, 1.0)

    def test_wrong_prompt_width(self, tiny_model):
        p16 = embed_prompt("a cat", 16, 0)
        with pytest.raises(ShapeMismatchError):
            tiny_model.velocity(latent(), p16, 3, 0.5, 1.0)


class TestSoftmax:
    def test_far_negative_row_does_not_underflow(self):
        scores = np.array([[-800.0, -801.0], [0.5, -0.5]])
        weights = _softmax_rows(scores)
        assert np.all(np.isfinite(weights))
        assert weights.sum(axis=-1) == pytest.approx([1.0, 1.0], abs=1e-15)
        assert weights[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)

    def test_in_band_scores_are_not_shifted(self):
        scores = np.random.default_rng(0).uniform(-50.0, 50.0, (2, 5, 7))
        expected = np.exp(scores)
        expected *= 1.0 / expected.sum(axis=-1, keepdims=True)
        assert np.array_equal(_softmax_rows(scores.copy()), expected)


class TestTimeEmbedding:
    def test_sigma_zero_alternates(self):
        emb = time_embedding(0, 0.0, 8)
        assert np.array_equal(emb[0::2], np.zeros(4))
        assert np.array_equal(emb[1::2], np.ones(4))

    def test_repeatable(self):
        assert np.array_equal(time_embedding(3, 0.37, 16), time_embedding(3, 0.37, 16))

    def test_two_frequency_hand_values(self):
        emb = time_embedding(0, 0.5, 4)
        expected = [np.sin(0.5), np.cos(0.5), np.sin(5.0), np.cos(5.0)]
        assert emb == pytest.approx(expected, abs=1e-12)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            time_embedding(0, 0.5, 5)
