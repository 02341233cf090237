from __future__ import annotations

import numpy as np
import pytest

from fiaedit.engine import EditRequest, run_edit, run_edits
from fiaedit.errors import EditRunError, NumericFailure
from fiaedit.fia import FiaConfig, FriMode, constrained_velocity_pair
from fiaedit.model import GuidanceConfig, ModelConfig, VelocityModel
from fiaedit.prompts import embed_prompt
from fiaedit.schedule import NoiseMode, make_linear_schedule

from conftest import dyadic


class ConstantVelocityModel(VelocityModel):
    """Velocity fixture: a constant field per prompt text, hook-oblivious.

    It replaces the batched forward: a conditional branch gets its prompt's
    constant and an unconditional branch gets zero.
    """

    cfg = ModelConfig(n_blocks_dual=1, n_blocks_cross_only=1, channels=4)

    def __init__(self, table: dict[str, float]):
        self.table = table

    def _forward(self, x, prompts, sigma_t, hooks):
        out = np.zeros_like(x)
        for i, p in enumerate(prompts):
            out[i] = self.table[p.text]
        return out, [{} for _ in prompts]


def base_request(x, p_src, p_tar, steps=10, mu=(1.5, 3.0), fia=None, **kw):
    return EditRequest(
        source_latent=x,
        p_src=p_src,
        p_tar=p_tar,
        schedule=make_linear_schedule(steps, 0.0),
        guidance=GuidanceConfig(mu_src=mu[0], mu_tar=mu[1]),
        fia=fia if fia is not None else FiaConfig(),
        seed=7,
        **kw,
    )


@pytest.fixture(scope="module")
def source_latent():
    return np.random.default_rng(0).standard_normal((4, 8, 8))


class TestZeroEditInvariance:
    @pytest.mark.parametrize("fia", [FiaConfig(), FiaConfig.disabled()], ids=["on", "off"])
    def test_equal_prompts_reproduce_source_bitexactly(self, tiny_model, source_latent, fia):
        p = embed_prompt("the same prompt twice", 8, seed=0)
        req = base_request(
            source_latent, p, p, mu=(2.0, 2.0), fia=fia, noise_mode=NoiseMode.NONE
        )
        trace = run_edit(tiny_model, req)
        assert np.array_equal(trace.final_latent, source_latent)
        assert all(r.vdelta_norm == 0.0 for r in trace.records)


class TestTelescopingOracle:
    def test_constant_model_matches_closed_form(self):
        p_src = embed_prompt("source words", 8, 0)
        p_tar = embed_prompt("target words", 8, 0)
        model = ConstantVelocityModel({p_src.text: 0.25, p_tar.text: 1.75})
        x = dyadic(np.random.default_rng(1), (4, 4, 4))
        req = base_request(
            x, p_src, p_tar, steps=4, mu=(1.0, 1.0),
            fia=FiaConfig.disabled(), noise_mode=NoiseMode.NONE,
        )
        trace = run_edit(model, req)
        # dyadic sigma grid and dyadic constants: increments are exact
        expected = x + (0.0 - 1.0) * (1.75 - 0.25)
        assert np.array_equal(trace.final_latent, expected)

    def test_fifty_step_grid_within_tolerance(self):
        p_src = embed_prompt("source words", 8, 0)
        p_tar = embed_prompt("target words", 8, 0)
        model = ConstantVelocityModel({p_src.text: -0.3, p_tar.text: 0.9})
        x = np.random.default_rng(2).standard_normal((4, 4, 4))
        req = base_request(
            x, p_src, p_tar, steps=50, mu=(1.0, 1.0),
            fia=FiaConfig.disabled(), noise_mode=NoiseMode.NONE,
        )
        trace = run_edit(model, req)
        expected = x + (0.0 - 1.0) * (0.9 - (-0.3))
        assert np.abs(trace.final_latent - expected).max() < 1e-12


class TestDeterminismAndTraces:
    def test_identical_requests_identical_traces(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(source_latent, p_src, p_tar, noise_mode=NoiseMode.REUSED_EPSILON)
        a, b = run_edit(tiny_model, req), run_edit(tiny_model, req)
        assert np.array_equal(a.final_latent, b.final_latent)
        assert [r.vdelta_norm for r in a.records] == [r.vdelta_norm for r in b.records]

    def test_step_count_contract(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(
            source_latent, p_src, p_tar, steps=10,
            fia=FiaConfig(fij_step_cutoff=4), noise_mode=NoiseMode.NONE,
        )
        trace = run_edit(tiny_model, req)
        assert len(trace.records) == 10
        assert [r.fij_active for r in trace.records] == [True] * 4 + [False] * 6

    def test_sigmas_visited_in_strictly_decreasing_order(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(source_latent, p_src, p_tar, noise_mode=NoiseMode.NONE)
        trace = run_edit(tiny_model, req)
        sigmas = tuple(r.sigma_t for r in trace.records)
        assert sigmas == req.schedule.sigmas[:-1]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_snapshot_stride(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(
            source_latent, p_src, p_tar, steps=6,
            noise_mode=NoiseMode.NONE, snapshot_stride=3,
        )
        trace = run_edit(tiny_model, req)
        stored = [r.step_index for r in trace.records if r.latent is not None]
        assert stored == [0, 3]


class TestBypassEquivalence:
    def test_disabled_fia_matches_bypassed_build_bitwise(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(
            source_latent, p_src, p_tar,
            fia=FiaConfig.disabled(), noise_mode=NoiseMode.REUSED_EPSILON,
            record_velocities=True,
        )
        a = run_edit(tiny_model, req)
        b = run_edit(tiny_model, req, bypass_fia=True)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.v_src, rb.v_src)
            assert np.array_equal(ra.v_tar, rb.v_tar)
        assert np.array_equal(a.final_latent, b.final_latent)


class TestVelocityAntisymmetry:
    def test_full_role_swap_negates_the_difference(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        x = np.random.default_rng(5).standard_normal((4, 6, 6))
        fwd = constrained_velocity_pair(
            tiny_model, x, x.copy(), p_src, p_tar, 0.5, 0, 10,
            GuidanceConfig(mu_src=1.5, mu_tar=3.0), FiaConfig.disabled(),
        )
        rev = constrained_velocity_pair(
            tiny_model, x, x.copy(), p_tar, p_src, 0.5, 0, 10,
            GuidanceConfig(mu_src=3.0, mu_tar=1.5), FiaConfig.disabled(),
        )
        assert np.array_equal(fwd[1] - fwd[0], -(rev[1] - rev[0]))


class TestNoiseModes:
    def test_three_modes_give_three_distinct_outputs(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        finals = {}
        for mode in NoiseMode:
            req = base_request(source_latent, p_src, p_tar, steps=6, noise_mode=mode)
            finals[mode] = run_edit(tiny_model, req).final_latent
        assert not np.array_equal(finals[NoiseMode.NONE], finals[NoiseMode.REUSED_EPSILON])
        assert not np.array_equal(finals[NoiseMode.NONE], finals[NoiseMode.FRESH_GAUSSIAN])
        assert not np.array_equal(finals[NoiseMode.REUSED_EPSILON], finals[NoiseMode.FRESH_GAUSSIAN])

    def test_reused_epsilon_is_seed_deterministic(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(source_latent, p_src, p_tar, steps=6, noise_mode=NoiseMode.REUSED_EPSILON)
        assert np.array_equal(
            run_edit(tiny_model, req).final_latent, run_edit(tiny_model, req).final_latent
        )


class TestReconstruction:
    """The target branch mirrors the source: same prompt, same guidance."""

    def test_noise_free_reconstruction_is_identity(self, tiny_model, source_latent, prompt_pair):
        p_src, _ = prompt_pair
        req = base_request(source_latent, p_src, p_src, mu=(2.0, 2.0), noise_mode=NoiseMode.NONE)
        trace = run_edit(tiny_model, req)
        assert np.array_equal(trace.final_latent, source_latent)

    def test_noisy_reconstruction_differs_and_has_full_trace(self, tiny_model, source_latent, prompt_pair):
        p_src, _ = prompt_pair
        req = base_request(
            source_latent, p_src, p_src, steps=6, mu=(1.5, 1.5),
            noise_mode=NoiseMode.REUSED_EPSILON,
        )
        trace = run_edit(tiny_model, req)
        assert len(trace.records) == 6
        drift = float(np.linalg.norm(trace.final_latent - source_latent))
        assert drift > 0.0


class TestFailureSemantics:
    def test_errors_carry_the_step_index(self, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair

        class Exploding:
            cfg = ConstantVelocityModel.cfg

            def _forward(self, x, prompts, sigma_t, hooks):
                raise RuntimeError("boom")

        req = base_request(source_latent, p_src, p_tar, fia=FiaConfig.disabled())
        with pytest.raises(EditRunError, match="step 0"):
            run_edit(Exploding(), req)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_velocity_raises_numeric_failure(self, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair

        class Infinite:
            cfg = ConstantVelocityModel.cfg

            def _forward(self, x, prompts, sigma_t, hooks):
                return np.full_like(x, np.inf), [{} for _ in prompts]

        req = base_request(source_latent, p_src, p_tar, fia=FiaConfig.disabled())
        with pytest.raises(EditRunError) as err:
            run_edit(Infinite(), req)
        assert isinstance(err.value.__cause__, NumericFailure)


class TestLockstep:
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "fusion, bad_step",
        [
            pytest.param(FriMode.ADD, 0, id="0"),
            pytest.param(FriMode.ADD, 3, id="3"),
            # FREQ fusion meets the non-finite features before the velocity does
            pytest.param(FriMode.FREQ, 0, id="freq-0"),
            pytest.param(FriMode.FREQ, 3, id="freq-3"),
        ],
    )
    def test_one_request_failing_at_step_k_spares_the_others(
        self, tiny_model, source_latent, prompt_pair, fusion, bad_step
    ):
        p_src, p_tar = prompt_pair
        poisoned = embed_prompt("a prompt that poisons its branch", 8, seed=1)
        sigmas = make_linear_schedule(6, 0.0).sigmas

        class Poisoned(VelocityModel):
            """The real model, fed inf latents on the poisoned prompt's branches at one step."""

            def _forward(self, x, prompts, sigma_t, hooks):
                if sigma_t == sigmas[bad_step]:
                    x = x.copy()
                    for i, p in enumerate(prompts):
                        if p is poisoned:
                            x[i] = np.inf
                return super()._forward(x, prompts, sigma_t, hooks)

        model = Poisoned(tiny_model.cfg)
        reqs = [
            base_request(source_latent, p_src, p_tar, steps=6, record_velocities=True,
                         noise_mode=NoiseMode.REUSED_EPSILON),
            base_request(source_latent, p_src, poisoned, steps=6, record_velocities=True,
                         fia=FiaConfig(fri_mode=fusion)),
            base_request(source_latent, p_src, p_tar, steps=6, record_velocities=True,
                         fia=FiaConfig(fri_mode=FriMode.ADD), noise_mode=NoiseMode.FRESH_GAUSSIAN),
        ]
        results = run_edits(model, reqs)
        assert isinstance(results[1], EditRunError)
        assert str(results[1]).startswith(f"edit aborted at step {bad_step}:")
        assert isinstance(results[1].__cause__, NumericFailure)
        for req, got in zip(reqs[::2], results[::2]):
            solo = run_edit(model, req)
            assert np.array_equal(got.final_latent, solo.final_latent)
            for a, b in zip(got.records, solo.records, strict=True):
                assert a.vdelta_norm == b.vdelta_norm
                assert np.array_equal(a.v_src, b.v_src)
                assert np.array_equal(a.v_tar, b.v_tar)

    @pytest.mark.parametrize("mu_tar", [13.5, 0.0])
    def test_a_block_range_outside_the_model_fails_its_request_at_step_0(
        self, tiny_model, source_latent, prompt_pair, mu_tar
    ):
        p_src, p_tar = prompt_pair
        mu = (1.5, mu_tar)
        reqs = [
            base_request(source_latent, p_src, p_tar, steps=4, mu=mu, record_velocities=True),
            base_request(source_latent, p_src, p_tar, steps=4, mu=mu,
                         fia=FiaConfig(fij_block_range=(0, 9))),
            base_request(source_latent, p_src, p_tar, steps=4, mu=mu, record_velocities=True,
                         fia=FiaConfig(fri_mode=FriMode.ADD, fij_block_range=(0, 5))),
        ]
        results = run_edits(tiny_model, reqs)
        assert isinstance(results[1], EditRunError)
        assert str(results[1]) == (
            "edit aborted at step 0: fij_block_range (0, 9) outside a model of 6 blocks"
        )
        for req, got in zip(reqs[::2], results[::2]):
            solo = run_edit(tiny_model, req)
            assert np.array_equal(got.final_latent, solo.final_latent)
            for a, b in zip(got.records, solo.records, strict=True):
                assert a.vdelta_norm == b.vdelta_norm
                assert np.array_equal(a.v_src, b.v_src)
                assert np.array_equal(a.v_tar, b.v_tar)

    def test_a_failed_first_call_fails_every_request_at_its_step(
        self, tiny_model, source_latent, prompt_pair
    ):
        p_src, p_tar = prompt_pair
        sigmas = make_linear_schedule(4, 0.0).sigmas
        boom = RuntimeError("the shared call failed")

        class FailingAtStep2(VelocityModel):
            def _forward(self, x, prompts, sigma_t, hooks):
                if sigma_t == sigmas[2]:
                    raise boom
                return super()._forward(x, prompts, sigma_t, hooks)

        model = FailingAtStep2(tiny_model.cfg)
        reqs = [
            base_request(source_latent, p_src, p_tar, steps=4, fia=fia)
            for fia in (FiaConfig(), FiaConfig(fri_mode=FriMode.ADD), FiaConfig.disabled())
        ]
        for result in run_edits(model, reqs):
            assert isinstance(result, EditRunError)
            assert str(result) == "edit aborted at step 2: the shared call failed"
            assert result.__cause__ is boom

    def test_requests_must_share_their_source(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(source_latent, p_src, p_tar, steps=2)
        with pytest.raises(ValueError, match="share"):
            run_edits(tiny_model, [req, base_request(source_latent, p_tar, p_tar, steps=2)])
        with pytest.raises(ValueError, match="share"):
            run_edits(tiny_model, [req, base_request(source_latent, p_src, p_tar, steps=3)])
