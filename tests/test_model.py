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
    VelocityModel,
    _layer_norm,
    _softmax_rows,
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

    def test_topology_split(self):
        topo = ModelConfig(n_blocks_dual=2, n_blocks_cross_only=2)
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
        v1, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        v2, _ = tiny_model.velocity(x, p, 0.5, 2.0)
        assert np.array_equal(v1, v2)

    def test_weights_are_frozen(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model.weights["w_in"][0, 0] = 1.0


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
        plan = HookPlan(capture=frozenset({site}), overrides={site: ReplaceQKVE(donor)})
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

    def test_batched_forward_rejects_a_packet_at_a_self_site(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(10)
        cross, self_site = (4, AttnKind.CROSS), (0, AttnKind.SELF)
        _, packets = tiny_model.velocity(x, p, 0.5, 1.0, hooks=HookPlan(capture=frozenset({cross})))
        hooks = HookPlan(overrides={self_site: ReplaceQKVE(packets[cross])})
        with pytest.raises(TopologyError):
            tiny_model._forward(x[None], [p], 0.5, [hooks])
        with pytest.raises(TopologyError):
            tiny_model.velocity(x, p, 0.5, 1.0, hooks=hooks)

    @pytest.mark.parametrize("site", [(9, AttnKind.CROSS), (5, AttnKind.SELF)])
    def test_batched_forward_rejects_a_site_the_model_lacks(self, tiny_model, prompt_pair, site):
        p, _ = prompt_pair
        x = latent(11)[None]
        for hooks in (
            HookPlan(capture=frozenset({site})),
            HookPlan(overrides={site: ReplaceQK(np.zeros(1), np.zeros(1))}),
        ):
            with pytest.raises(TopologyError, match=r"hook site \(\d, .* not in the model"):
                tiny_model._forward(x, [p], 0.5, [hooks])


class TestShapes:
    def test_wrong_channel_count(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        with pytest.raises(ShapeMismatchError):
            tiny_model.velocity(np.zeros((3, 4, 4)), p, 0.5, 1.0)

    def test_wrong_prompt_width(self, tiny_model):
        p16 = embed_prompt("a cat", 16, 0)
        with pytest.raises(ShapeMismatchError):
            tiny_model.velocity(latent(), p16, 0.5, 1.0)


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


    def test_wide_rows_match_a_summed_reference(self):
        # row sums come from a product with a ones vector, which may add in
        # another order than a reduction: allow n * eps relative
        scores = np.random.default_rng(1).uniform(-50.0, 50.0, (2, 256, 256))
        expected = np.exp(scores)
        expected /= expected.sum(axis=-1, keepdims=True)
        got = _softmax_rows(scores.copy())
        assert np.all(np.abs(got - expected) <= 256 * np.finfo(float).eps * expected)


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
    @pytest.mark.parametrize("shape", [(64, 8), (256, 8), (4, 64, 8)])
    def test_bit_identical_to_mean(self, shape):
        h = 3.0 * np.random.default_rng(0).standard_normal(shape) + 1.0
        centered = h - h.mean(axis=-1, keepdims=True)
        expected = centered / np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + 1e-6)
        assert np.array_equal(_layer_norm(h), expected)


def all_sites(cfg):
    return frozenset(
        (b, kind) for b in range(cfg.n_blocks) for kind in AttnKind if cfg.contains((b, kind))
    )


class TestBatchedForward:
    def test_branch_does_not_depend_on_its_batch(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        sites = all_sites(tiny_model.cfg)
        x = np.stack([latent(0), latent(1), latent(2), 1e3 * latent(0)])
        site = (0, AttnKind.SELF)
        _, own = tiny_model.velocity(x[1], p_tar, 0.5, 1.0, hooks=HookPlan(capture=sites))
        loud = ReplaceQK(q=1e3 * own[site].q, k=own[site].k)
        # the loud branch's scores leave the softmax guard band, so its rows
        # are shifted; the other branches' rows must not be
        scores = loud.q @ loud.k.swapaxes(-1, -2) / np.sqrt(loud.q.shape[-1])
        assert np.abs(scores).max() > 60.0
        prompts = [p_src, p_tar]
        hooks = [HookPlan(capture=sites), HookPlan(capture=sites, overrides={site: loud})]
        out, packets = tiny_model._forward(x, prompts, 0.5, hooks)
        assert len(packets) == 2
        for i in range(4):
            # branches 2 and 3 are unconditional: no prompt, no hooks
            alone, alone_packets = tiny_model._forward(
                x[i : i + 1], prompts[i : i + 1], 0.5, hooks[i : i + 1]
            )
            assert np.array_equal(out[i], alone[0])
            if i < 2:
                assert packets[i].keys() == alone_packets[0].keys() == sites
                for key, pkt in packets[i].items():
                    ref = alone_packets[0][key]
                    assert np.array_equal(pkt.q, ref.q)
                    assert np.array_equal(pkt.k, ref.k)
                    assert np.array_equal(pkt.v, ref.v)
                    assert (pkt.text_embedding is None) == (key[1] is AttnKind.SELF)
                    if pkt.text_embedding is not None:
                        assert embeddings_equal(pkt.text_embedding, ref.text_embedding)

    def test_cross_kv_projected_once_per_distinct_prompt(self, tiny_model, prompt_pair):
        class CountingMatrix(np.ndarray):
            products = 0

            def __matmul__(self, other):
                CountingMatrix.products += 1
                return np.asarray(self) @ other

        p_src, p_tar = prompt_pair
        shared = PromptEmbedding(p_tar.tokens, p_tar.matrix.view(CountingMatrix))
        x = np.stack([latent(i) for i in range(7)])
        # a grid step: the source and six probes on one target prompt
        out, _ = tiny_model._forward(x, [p_src] + [shared] * 6, 0.5, [HookPlan()] * 7)
        assert CountingMatrix.products == 2 * tiny_model.cfg.n_blocks  # K and V per block
        alone, _ = tiny_model._forward(x[3:4], [p_tar], 0.5, [HookPlan()])
        assert np.array_equal(out[3], alone[0])

    def test_velocity_is_the_batched_forward(self, tiny_model, prompt_pair):
        p, _ = prompt_pair
        x = latent(4)
        out, _ = tiny_model._forward(np.stack([x, x]), [p], 0.5, [HookPlan()])
        v, _ = tiny_model.velocity(x, p, 0.5, 2.5)
        assert np.array_equal(v, out[1] + 2.5 * (out[0] - out[1]))

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
            assert np.abs(ref - tiny_model._null_cross[b]).max() <= 1e-12

    def test_unconditional_branch_matches_a_null_token_prompt(self, tiny_model):
        null_prompt = PromptEmbedding(tokens=(0,), matrix=tiny_model.weights["null_token"])
        x = latent(5)
        out, _ = tiny_model._forward(np.stack([x, x]), [null_prompt], 0.5, [HookPlan()])
        assert np.abs(out[0] - out[1]).max() <= 1e-12 * np.abs(out[1]).max()
