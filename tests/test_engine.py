from __future__ import annotations

import itertools

import numpy as np
import pytest

import fiaedit.fia
from fiaedit.engine import EditRequest, check_budget, run_edit, run_edits
from fiaedit.errors import ConfigError, EditRunError, NumericFailure
from fiaedit.fia import FiaConfig, FriMode, constrained_velocity_pair
from fiaedit.model import MAX_PEAK_BYTES, GuidanceConfig, ModelConfig, VelocityModel, peak_bytes
from fiaedit.prompts import embed_prompt
from fiaedit.schedule import NoiseMode, make_linear_schedule

from conftest import FIA_OFF, dyadic, record_velocities


class ConstantVelocityModel(VelocityModel):
    """Velocity fixture: a constant field per prompt text, hook-oblivious.

    It replaces the batched forward: a state's conditional pass gets its
    prompt's constant and its unconditional pass gets zero.
    """

    cfg = ModelConfig(n_blocks_dual=1, n_blocks_cross_only=1, channels=4)

    def __init__(self, table: dict[str, float]):
        self.table = table

    def _forward(self, states, sigma_t):
        return [
            (np.full(x.shape, self.table[p.text]), np.zeros(x.shape), {}) for x, p, _, _ in states
        ]


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


def assert_solo_bits(model, reqs, results, together, live):
    """Requests 0 and 2 of a lockstep run keep the bits of their solo runs.

    ``together`` holds the lockstep run's velocities per step, as
    :func:`record_velocities` gives them, and ``live[i]`` the requests that
    step ``i`` ran, in order.
    """
    for r in (0, 2):
        solo, alone = record_velocities(run_edit, model, reqs[r])
        got = results[r]
        assert np.array_equal(got.final_latent, solo.final_latent)
        for a, b in zip(got.records, solo.records, strict=True):
            assert a.vdelta_norm == b.vdelta_norm
        mine = [(vs[0], vs[1 + step.index(r)]) for vs, step in zip(together, live)]
        for (a_src, a_tar), (b_src, b_tar) in zip(mine, alone, strict=True):
            assert np.array_equal(a_src, b_src)
            assert np.array_equal(a_tar, b_tar)


@pytest.fixture(scope="module")
def source_latent():
    return np.random.default_rng(0).standard_normal((4, 8, 8))


class TestZeroEditInvariance:
    @pytest.mark.parametrize("fia", [FiaConfig(), FIA_OFF], ids=["on", "off"])
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
            fia=FIA_OFF, noise_mode=NoiseMode.NONE,
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
            fia=FIA_OFF, noise_mode=NoiseMode.NONE,
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
        stored = [r.step_index for r in trace.records if r.latent_norm is not None]
        assert stored == [0, 3]


class TestBypassEquivalence:
    def test_disabled_fia_matches_bypassed_build_bitwise(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        req = base_request(
            source_latent, p_src, p_tar,
            fia=FIA_OFF, noise_mode=NoiseMode.REUSED_EPSILON,
        )
        a, a_steps = record_velocities(run_edit, tiny_model, req)
        b, b_steps = record_velocities(run_edit, tiny_model, req, bypass_fia=True)
        assert len(a_steps) == 10
        for (a_src, a_tar), (b_src, b_tar) in zip(a_steps, b_steps, strict=True):
            assert np.array_equal(a_src, b_src)
            assert np.array_equal(a_tar, b_tar)
        assert np.array_equal(a.final_latent, b.final_latent)


class TestVelocityAntisymmetry:
    def test_full_role_swap_negates_the_difference(self, tiny_model, prompt_pair):
        p_src, p_tar = prompt_pair
        x = np.random.default_rng(5).standard_normal((4, 6, 6))
        fwd = constrained_velocity_pair(
            tiny_model, x, x.copy(), p_src, p_tar, 0.5, 0, 10,
            GuidanceConfig(mu_src=1.5, mu_tar=3.0), FIA_OFF,
        )
        rev = constrained_velocity_pair(
            tiny_model, x, x.copy(), p_tar, p_src, 0.5, 0, 10,
            GuidanceConfig(mu_src=3.0, mu_tar=1.5), FIA_OFF,
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

            def _forward(self, states, sigma_t):
                raise RuntimeError("boom")

        req = base_request(source_latent, p_src, p_tar, fia=FIA_OFF)
        with pytest.raises(EditRunError, match="step 0"):
            run_edit(Exploding(), req)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_velocity_raises_numeric_failure(self, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair

        class Infinite:
            cfg = ConstantVelocityModel.cfg

            def _forward(self, states, sigma_t):
                return [(np.full(x.shape, np.inf),) * 2 + ({},) for x, _, _, _ in states]

        req = base_request(source_latent, p_src, p_tar, fia=FIA_OFF)
        with pytest.raises(EditRunError) as err:
            run_edit(Infinite(), req)
        assert isinstance(err.value.__cause__, NumericFailure)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "fia, bypass", [(FiaConfig(), False), (FIA_OFF, False), (FIA_OFF, True)],
        ids=["on", "off", "bypassed"],
    )
    def test_a_non_finite_source_latent_fails_step_0(
        self, tiny_model, source_latent, prompt_pair, bad, fia, bypass
    ):
        # so every Euler step starts from a finite latent, and keeps it finite
        x = source_latent.copy()
        x[1, 2, 3] = bad
        req = base_request(x, *prompt_pair, fia=fia)
        with pytest.raises(EditRunError, match="^edit aborted at step 0: ") as err:
            run_edit(tiny_model, req, bypass_fia=bypass)
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
        self, tiny_model, source_latent, prompt_pair, monkeypatch, fusion, bad_step
    ):
        p_src, p_tar = prompt_pair
        poisoned = embed_prompt("a prompt that poisons its branch", 8, seed=1)
        sigmas = make_linear_schedule(6, 0.0).sigmas
        calls = []  # the step of each model call

        class Poisoned(VelocityModel):
            """The real model, fed inf latents on the poisoned prompt's states at one step."""

            def _forward(self, states, sigma_t):
                calls.append(sigmas.index(sigma_t))
                if sigma_t == sigmas[bad_step]:
                    states = [
                        (np.full_like(x, np.inf) if p is poisoned else x, p, mu, hooks)
                        for x, p, mu, hooks in states
                    ]
                return super()._forward(states, sigma_t)

        model = Poisoned(tiny_model.cfg)
        reqs = [
            base_request(source_latent, p_src, p_tar, steps=6,
                         noise_mode=NoiseMode.REUSED_EPSILON),
            base_request(source_latent, p_src, poisoned, steps=6,
                         fia=FiaConfig(fri_mode=fusion)),
            base_request(source_latent, p_src, p_tar, steps=6,
                         fia=FiaConfig(fri_mode=FriMode.ADD), noise_mode=NoiseMode.FRESH_GAUSSIAN),
        ]
        build, builds = fiaedit.fia.build_target_overrides, []

        def spying_build(cfg, *args):
            builds.append([cfg, calls[-1], True])  # raised, until it returns
            plan = build(cfg, *args)
            builds[-1][2] = False
            return plan

        monkeypatch.setattr(fiaedit.fia, "build_target_overrides", spying_build)
        results, together = record_velocities(run_edits, model, reqs)
        assert isinstance(results[1], EditRunError)
        assert str(results[1]).startswith(f"edit aborted at step {bad_step}:")
        assert isinstance(results[1].__cause__, NumericFailure)
        # only FREQ fusion fails a build, and then that target builds no more that step
        failed = [i for i, (_, _, raised) in enumerate(builds) if raised]
        assert [builds[i][0] is reqs[1].fia for i in failed] == [True] * (fusion is FriMode.FREQ)
        for i in failed:
            cfg, step, _ = builds[i]
            assert not any(c is cfg and s == step for c, s, _ in builds[i + 1 :])
        # a step's targets are the requests still running: all three up to
        # the failing step, the other two after it
        live = [[0, 1, 2] if i <= bad_step else [0, 2] for i in range(len(together))]
        assert_solo_bits(model, reqs, results, together, live)

    @pytest.mark.parametrize("mu_tar", [13.5, 0.0])
    def test_a_block_range_outside_the_model_fails_its_request_at_step_0(
        self, tiny_model, source_latent, prompt_pair, mu_tar
    ):
        p_src, p_tar = prompt_pair
        mu = (1.5, mu_tar)
        reqs = [
            base_request(source_latent, p_src, p_tar, steps=4, mu=mu),
            base_request(source_latent, p_src, p_tar, steps=4, mu=mu,
                         fia=FiaConfig(fij_block_range=(0, 9))),
            base_request(source_latent, p_src, p_tar, steps=4, mu=mu,
                         fia=FiaConfig(fri_mode=FriMode.ADD, fij_block_range=(0, 5))),
        ]
        results, together = record_velocities(run_edits, tiny_model, reqs)
        assert isinstance(results[1], EditRunError)
        assert str(results[1]) == (
            "edit aborted at step 0: fij_block_range (0, 9) outside a model of 6 blocks"
        )
        # the request refused at step 0 runs in no call
        assert_solo_bits(tiny_model, reqs, results, together, [[0, 2]] * len(together))

    def test_a_bad_window_is_named_before_a_bad_range(self, tiny_model, source_latent, prompt_pair):
        p_src, p_tar = prompt_pair
        fia = FiaConfig(fij_step_cutoff=5, fij_block_range=(0, 9))
        (result,) = run_edits(tiny_model, [base_request(source_latent, p_src, p_tar, steps=4, fia=fia)])
        assert isinstance(result, EditRunError)
        assert str(result) == "edit aborted at step 0: fij_step_cutoff 5 exceeds total steps 4"

    def test_a_failed_first_call_fails_every_request_at_its_step(
        self, tiny_model, source_latent, prompt_pair
    ):
        p_src, p_tar = prompt_pair
        sigmas = make_linear_schedule(4, 0.0).sigmas
        boom = RuntimeError("the shared call failed")

        class FailingAtStep2(VelocityModel):
            def _forward(self, states, sigma_t):
                if sigma_t == sigmas[2]:
                    raise boom
                return super()._forward(states, sigma_t)

        model = FailingAtStep2(tiny_model.cfg)
        reqs = [
            base_request(source_latent, p_src, p_tar, steps=4, fia=fia)
            for fia in (FiaConfig(), FiaConfig(fri_mode=FriMode.ADD), FIA_OFF)
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


def test_the_budget_counts_each_requests_constrained_fork():
    # the first grid of 16 rows whose step does not fit a guided source, a
    # guided probe and the probe's fork, though it fits the first two; a
    # column adds 16 tokens, so the bound grows by less than a branch
    cfg = ModelConfig()
    w = next(w for w in itertools.count(1) if peak_bytes(cfg, (16, w), 5, 6, 2) > MAX_PEAK_BYTES)
    assert peak_bytes(cfg, (16, w), 4, 6, 2) <= MAX_PEAK_BYTES
    with pytest.raises(ConfigError, match="GiB bound"):
        check_budget(cfg, (16, w), 1, [6, 6])
    check_budget(cfg, (16, w - 1), 1, [6, 6])
