from __future__ import annotations

import itertools

import numpy as np
import pytest
from conftest import dyadic, traced_peak

from fiaedit.errors import ShapeMismatchError, TopologyError
from fiaedit.model import (
    AttnKind,
    GuidanceConfig,
    HookPlan,
    ModelConfig,
    ReplaceQK,
    ReplaceQKVE,
    VelocityModel,
    _append_ones,
    _attend,
    _layer_norm,
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


def attend(q, k, v):
    """``_attend`` on plain Q, K and V, with K^T and ``[V | 1]`` as a forward builds them."""
    out = np.empty(q.shape)
    _attend(q, np.ascontiguousarray(k.swapaxes(-1, -2)), _append_ones(v), None, out)
    return out


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
        v1 = _append_ones(rng.standard_normal((2, 5, 4)))
        # the core's own score product: d_head 4 scales q by exactly 1/2
        scores = np.matmul(q * 0.5, np.ascontiguousarray(k.swapaxes(-1, -2)))
        assert 30.0 < np.abs(scores).max() <= 60.0
        unshifted = np.exp(scores) @ v1
        shifted = np.exp(scores - scores.max(axis=-1, keepdims=True)) @ v1
        expected = unshifted[..., :-1] / unshifted[..., -1:]
        # a shift by the row maximum would have changed bits
        assert not np.array_equal(shifted[..., :-1] / shifted[..., -1:], expected)
        assert np.array_equal(attend(q, k, v1[..., :-1]), expected)

    def test_wide_rows_match_a_summed_reference(self):
        # row sums come from the product with [V | 1], which may add in
        # another order than a reduction; with non-negative values every
        # output is a positive sum, so allow n * eps relative
        rng = np.random.default_rng(1)
        q, k = 5.0 * rng.uniform(-1.0, 1.0, (2, 2, 256, 4))
        v = rng.uniform(0.0, 1.0, (2, 256, 4))
        weights = np.exp(q @ k.swapaxes(-1, -2) / 2.0)
        expected = (weights @ v) / weights.sum(axis=-1, keepdims=True)
        got = attend(q, k, v)
        assert np.all(np.abs(got - expected) <= 256 * np.finfo(float).eps * expected)

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


class TestPeakBytes:
    @pytest.mark.parametrize("grid, branches", [((32, 32), 2), ((16, 16), 4), ((8, 8), 4)])
    def test_bounds_the_traced_peak_of_a_forward(self, prompt_pair, grid, branches):
        cfg = ModelConfig()
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
    def test_agrees_with_the_mean_formula(self, shape):
        # the means are products, which add in another order than mean
        h = 3.0 * np.random.default_rng(0).standard_normal(shape) + 1.0
        centered = h - h.mean(axis=-1, keepdims=True)
        expected = centered / np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + 1e-6)
        assert np.abs(_layer_norm(h) - expected).max() <= 1e-14

    @pytest.mark.parametrize("shape", [(4, 64, 8), (6, 7, 8), (3, 1, 4), (2, 33, 16)])
    def test_batch_equals_each_slice_alone(self, shape):
        h = 3.0 * np.random.default_rng(1).standard_normal(shape) + 1.0
        out = _layer_norm(h)
        for i in range(shape[0]):
            assert np.array_equal(out[i], _layer_norm(h[i]))

    @pytest.mark.parametrize("step", [np.s_[::2], np.s_[:, ::3], np.s_[1::2, 2:]])
    def test_strided_view_equals_its_contiguous_copy(self, step):
        h = 3.0 * np.random.default_rng(2).standard_normal((6, 40, 8)) + 1.0
        view = h[step]
        assert not view.flags.c_contiguous
        assert np.array_equal(_layer_norm(view), _layer_norm(np.ascontiguousarray(view)))


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
        # states 0 and 1 run their conditional pass alone, 2 and 3 their
        # unconditional pass alone
        states = [
            (x[0], p_src, 1.0, HookPlan(capture=sites)),
            (x[1], p_tar, 1.0, HookPlan(capture=sites, overrides={site: loud})),
            (x[2], p_src, 0.0, HookPlan()),
            (x[3], p_tar, 0.0, HookPlan()),
        ]
        out = tiny_model._forward(states, 0.5)
        for i, got in enumerate(out):
            (alone,) = tiny_model._forward([states[i]], 0.5)
            ran, skipped = (0, 1) if i < 2 else (1, 0)
            assert got[skipped] is None and alone[skipped] is None
            assert np.array_equal(got[ran], alone[ran])
            packets, alone_packets = got[2], alone[2]
            if i >= 2:
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

    def test_cross_kv_projected_once_per_distinct_prompt(self, tiny_model, prompt_pair):
        class CountingMatrix(np.ndarray):
            products = 0

            def __matmul__(self, other):
                CountingMatrix.products += 1
                return np.asarray(self) @ other

        p_src, p_tar = prompt_pair
        shared = PromptEmbedding(p_tar.tokens, p_tar.matrix.view(CountingMatrix))
        x = [latent(i) for i in range(7)]
        # a grid step: the source and six probes on one target prompt
        states = [(xi, p, 1.0, HookPlan()) for xi, p in zip(x, [p_src] + [shared] * 6)]
        out = tiny_model._forward(states, 0.5)
        assert CountingMatrix.products == 1  # every block's K and V in one product
        ((alone, _, _),) = tiny_model._forward([(x[3], p_tar, 1.0, HookPlan())], 0.5)
        assert np.array_equal(out[3][0], alone)

    def test_self_qkv_is_one_product_per_dual_block(self, prompt_pair):
        class CountingWeights(np.ndarray):
            products = 0

            def __rmatmul__(self, other):
                CountingWeights.products += 1
                return other @ np.asarray(self)

        model = VelocityModel(ModelConfig(channels=4))
        model._self_qkv = [w.view(CountingWeights) for w in model._self_qkv]
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
            assert np.abs(ref - tiny_model._null_cross[b]).max() <= 1e-12

    def test_unconditional_branch_matches_a_null_token_prompt(self, tiny_model):
        null_prompt = PromptEmbedding(tokens=(0,), matrix=tiny_model.weights["null_token"])
        x = latent(5)
        ((v_cond, v_uncond, _),) = tiny_model._forward([(x, null_prompt, 2.5, HookPlan())], 0.5)
        assert np.abs(v_cond - v_uncond).max() <= 1e-12 * np.abs(v_uncond).max()
