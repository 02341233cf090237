from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiaedit.errors import ShapeMismatchError
from fiaedit.schedule import (
    NoiseMode,
    NoiseSchedule,
    draw_step_noise,
    euler_step,
    interpolate_source,
    make_linear_schedule,
    reconstruct_target_state,
)

from conftest import dyadic


class TestLinearSchedule:
    def test_two_steps_no_skip(self):
        assert make_linear_schedule(2, 0.0).sigmas == (1.0, 0.5, 0.0)

    def test_single_step(self):
        assert make_linear_schedule(1, 0.0).sigmas == (1.0, 0.0)

    def test_four_steps_with_skip(self):
        sched = make_linear_schedule(4, 0.2)
        assert sched.sigmas == pytest.approx([0.8, 0.6, 0.4, 0.2, 0.0], abs=1e-12)
        assert sched.sigmas[0] == 0.8
        assert sched.sigmas[-1] == 0.0

    @pytest.mark.parametrize(
        "steps,skip",
        [(0, 0.0), (-3, 0.0), (5, 1.0), (5, -0.1), (5, float("nan")), (5, float("inf"))],
    )
    def test_rejects_bad_inputs(self, steps, skip):
        with pytest.raises(ValueError):
            make_linear_schedule(steps, skip)

    @given(steps=st.integers(1, 200), skip=st.floats(0.0, 0.99))
    def test_schedule_invariants(self, steps, skip):
        sched = make_linear_schedule(steps, skip)
        assert len(sched.sigmas) == steps + 1
        assert sched.step_count == steps
        assert all(a > b for a, b in zip(sched.sigmas, sched.sigmas[1:]))
        assert sched.sigmas[-1] == 0.0

    def test_schedule_type_rejects_non_decreasing(self):
        with pytest.raises(ValueError):
            NoiseSchedule(sigmas=(1.0, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError):
            NoiseSchedule(sigmas=(1.0, 0.5, 0.1))
        with pytest.raises(ValueError):
            NoiseSchedule(sigmas=(0.0,))
        with pytest.raises(ValueError, match="finite"):
            NoiseSchedule(sigmas=(1.0, float("nan"), 0.0))
        with pytest.raises(ValueError, match="first sigma"):
            NoiseSchedule(sigmas=(1.5, 0.5, 0.0))


class TestNoiseDraws:
    def test_same_key_same_draw(self):
        a = draw_step_noise((2, 3, 3), run_seed=9, step_index=4)
        b = draw_step_noise((2, 3, 3), run_seed=9, step_index=4)
        assert np.array_equal(a, b)

    def test_draws_are_order_independent(self):
        late_first = draw_step_noise((4,), 1, 7)
        _ = draw_step_noise((4,), 1, 0)
        again = draw_step_noise((4,), 1, 7)
        assert np.array_equal(late_first, again)

    def test_distinct_keys_distinct_draws(self):
        base = draw_step_noise((8,), 1, 0)
        assert not np.array_equal(base, draw_step_noise((8,), 1, 1))
        assert not np.array_equal(base, draw_step_noise((8,), 2, 0))
        assert not np.array_equal(base, draw_step_noise((8,), 1, 0, salt=1))

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            draw_step_noise((2,), -1, 0)


class TestInterpolateSource:
    def test_zero_noise_endpoint_is_exact(self):
        x = np.random.default_rng(0).standard_normal((2, 4, 4))
        draw = draw_step_noise(x.shape, 0, 0)
        assert np.array_equal(interpolate_source(x, 0.0, draw), x)

    def test_pure_noise_endpoint_is_exact(self):
        x = np.random.default_rng(0).standard_normal((2, 4, 4))
        draw = draw_step_noise(x.shape, 0, 0)
        assert np.array_equal(interpolate_source(x, 1.0, draw), draw)

    def test_midpoint_hand_value(self):
        x = np.full((1, 2, 2), 0.4)
        draw = np.full((1, 2, 2), 0.2)
        out = interpolate_source(x, 0.5, draw)
        assert out == pytest.approx(np.full((1, 2, 2), 0.3), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            interpolate_source(np.zeros((1, 2, 2)), 0.5, np.zeros((1, 3, 3)))

    def test_sigma_out_of_range(self):
        x = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            interpolate_source(x, 1.5, np.zeros_like(x))


class TestReconstructTargetState:
    def test_initial_step_identity_is_bitexact(self):
        rng = np.random.default_rng(1)
        x_src = rng.standard_normal((3, 5, 5))
        x_src_t = rng.standard_normal((3, 5, 5))
        assert np.array_equal(
            reconstruct_target_state(x_src, x_src_t, x_src), x_src_t
        )

    def test_zero_sigma_limit_identity(self):
        rng = np.random.default_rng(2)
        x_fe = dyadic(rng, (2, 4, 4))
        x_src = dyadic(rng, (2, 4, 4))
        assert np.array_equal(reconstruct_target_state(x_fe, x_src, x_src), x_fe)

    def test_hand_value(self):
        one = np.full((1, 2, 2), 1.0)
        out = reconstruct_target_state(one, np.full((1, 2, 2), 0.7), np.full((1, 2, 2), 0.4))
        assert out == pytest.approx(np.full((1, 2, 2), 1.3), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            reconstruct_target_state(
                np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), np.zeros((1, 4, 4))
            )


class TestEulerStep:
    def test_zero_velocity_no_noise_is_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 3))
        draw = draw_step_noise(x.shape, 0, 0)
        out = euler_step(x, np.zeros_like(x), 0.4, 0.5, draw, NoiseMode.NONE)
        assert np.array_equal(out, x)

    def test_reused_epsilon_hand_value(self):
        x = np.full((1, 2, 2), 1.0)
        v = np.full((1, 2, 2), 3.0)
        draw = np.zeros((1, 2, 2))
        out = euler_step(x, v, 0.48, 0.50, draw, NoiseMode.REUSED_EPSILON)
        assert out == pytest.approx(np.full((1, 2, 2), 0.94), abs=1e-12)

    def test_reused_epsilon_pure_noise_term(self):
        x = np.zeros((1, 2, 2))
        draw = np.ones((1, 2, 2))
        out = euler_step(x, np.zeros_like(x), 0.0, 0.5, draw, NoiseMode.REUSED_EPSILON)
        assert out == pytest.approx(np.full((1, 2, 2), 0.5), abs=1e-12)

    def test_fresh_mode_requires_fresh_draw(self):
        x = np.zeros((1, 2, 2))
        draw = np.zeros_like(x)
        with pytest.raises(ValueError):
            euler_step(x, x, 0.0, 0.5, draw, NoiseMode.FRESH_GAUSSIAN)

    def test_fresh_mode_uses_fresh_draw(self):
        x = np.zeros((1, 2, 2))
        draw = np.ones_like(x)
        fresh = np.full_like(x, 2.0)
        out = euler_step(x, np.zeros_like(x), 0.0, 0.5, draw, NoiseMode.FRESH_GAUSSIAN, fresh=fresh)
        assert out == pytest.approx(np.full((1, 2, 2), 1.0), abs=1e-12)

    def test_shape_mismatch(self):
        x, other = np.zeros((1, 2, 2)), np.zeros((1, 3, 3))
        with pytest.raises(ShapeMismatchError, match="velocity"):
            euler_step(x, other, 0.0, 0.5, x, NoiseMode.NONE)
        with pytest.raises(ShapeMismatchError, match="reused draw"):
            euler_step(x, x, 0.0, 0.5, other, NoiseMode.REUSED_EPSILON)
        with pytest.raises(ShapeMismatchError, match="fresh draw"):
            euler_step(x, x, 0.0, 0.5, x, NoiseMode.FRESH_GAUSSIAN, fresh=other)

    def test_non_monotone_sigmas_rejected(self):
        x = np.zeros((1, 2, 2))
        draw = np.zeros_like(x)
        with pytest.raises(ValueError):
            euler_step(x, x, 0.5, 0.5, draw, NoiseMode.NONE)
        with pytest.raises(ValueError):
            euler_step(x, x, 0.6, 0.5, draw, NoiseMode.NONE)


class TestTelescoping:
    def test_dyadic_grid_collapses_exactly(self):
        # quarter-step grid and dyadic velocity: every increment is exact
        sched = make_linear_schedule(4, 0.0)
        x = dyadic(np.random.default_rng(3), (2, 4, 4))
        v = np.full_like(x, 3.0)
        cur = x.copy()
        for i in range(sched.step_count):
            draw = draw_step_noise(x.shape, 0, i)
            cur = euler_step(cur, v, sched.sigmas[i + 1], sched.sigmas[i], draw, NoiseMode.NONE)
        expected = x + (sched.sigmas[-1] - sched.sigmas[0]) * v
        assert np.array_equal(cur, expected)

    @settings(max_examples=25, deadline=None)
    @given(steps=st.integers(2, 60), scale=st.floats(-4.0, 4.0))
    def test_general_grid_collapses_to_closed_form(self, steps, scale):
        sched = make_linear_schedule(steps, 0.0)
        x = np.full((1, 2, 2), 0.25)
        v = np.full_like(x, scale)
        cur = x.copy()
        for i in range(steps):
            draw = draw_step_noise(x.shape, 0, i)
            cur = euler_step(cur, v, sched.sigmas[i + 1], sched.sigmas[i], draw, NoiseMode.NONE)
        expected = x + (sched.sigmas[-1] - sched.sigmas[0]) * v
        assert cur == pytest.approx(expected, abs=1e-12)
