"""Discrete noise grid, per-step noise draws, and the latent stepping algebra.

Conventions: latents are dense float64 arrays of shape (C, H, W).  The noise
grid runs from its highest level down to exactly 0.0, so ``sigmas[0]`` belongs
to the first (noisiest) step and ``sigmas[-1] == 0.0`` to the finished latent.
Noise draws come from a counter-based generator keyed by ``(run_seed,
step_index)``: any draw can be regenerated independently of the others, and a
fixed run seed reproduces the whole sequence bit for bit.  A draw is a plain
array of the latent's shape.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

# the noise grid is materialized, so its length is bounded
MAX_STEPS = 10_000


class NoiseMode(enum.Enum):
    """How the stepping rule injects noise after the velocity update."""

    NONE = "none"
    FRESH_GAUSSIAN = "fresh"
    REUSED_EPSILON = "reused"


@dataclass(frozen=True)
class NoiseSchedule:
    """Strictly decreasing noise levels, one per step and a final 0.0."""

    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sigmas) < 2:
            raise ValueError(f"need at least 2 sigma values, got {len(self.sigmas)}")
        if not all(math.isfinite(s) for s in self.sigmas):
            raise ValueError("sigma values must be finite")
        if any(b >= a for a, b in zip(self.sigmas, self.sigmas[1:])):
            raise ValueError("sigma values must be strictly decreasing")
        if self.sigmas[-1] != 0.0:
            raise ValueError(f"last sigma must be 0.0, got {self.sigmas[-1]}")
        if not 0.0 < self.sigmas[0] <= 1.0:
            raise ValueError(f"first sigma must be in (0, 1], got {self.sigmas[0]}")

    @property
    def step_count(self) -> int:
        return len(self.sigmas) - 1


def make_linear_schedule(step_count: int, skip_fraction: float = 0.0) -> NoiseSchedule:
    """Evenly spaced noise levels from ``1 - skip_fraction`` down to 0."""
    if not isinstance(step_count, int) or not 1 <= step_count <= MAX_STEPS:
        raise ValueError(
            f"step_count must be an integer in [1, {MAX_STEPS}], got {step_count!r}"
        )
    if not math.isfinite(skip_fraction) or not 0.0 <= skip_fraction < 1.0:
        raise ValueError(f"skip_fraction must be in [0, 1), got {skip_fraction!r}")
    sigmas = np.linspace(1.0 - skip_fraction, 0.0, step_count + 1)
    return NoiseSchedule(sigmas=tuple(float(s) for s in sigmas))


def step_rng(run_seed: int, step_index: int, salt: int = 0) -> np.random.Generator:
    """Counter-based generator for one step; draws are order-independent."""
    if run_seed < 0 or step_index < 0:
        raise ValueError("run_seed and step_index must be non-negative")
    seq = np.random.SeedSequence(entropy=(run_seed, step_index, salt))
    return np.random.Generator(np.random.Philox(seq))


def draw_step_noise(
    shape: tuple[int, ...], run_seed: int, step_index: int, salt: int = 0
) -> np.ndarray:
    """Sample the standard-normal draw for one step of a run."""
    return step_rng(run_seed, step_index, salt).standard_normal(shape)


def interpolate_source(x_src: np.ndarray, sigma_t: float, draw: np.ndarray) -> np.ndarray:
    """Blend the source latent toward noise: ``(1 - sigma) * x + sigma * draw``."""
    if x_src.shape != draw.shape:
        raise ShapeMismatchError(f"source {x_src.shape} vs noise {draw.shape}")
    if not 0.0 <= sigma_t <= 1.0:
        raise ValueError(f"sigma_t must be in [0, 1], got {sigma_t}")
    return (1.0 - sigma_t) * x_src + sigma_t * draw


def reconstruct_target_state(
    x_fe: np.ndarray, x_src_t: np.ndarray, x_src: np.ndarray
) -> np.ndarray:
    """Shift the noisy source by the accumulated edit: ``x_fe + x_src_t - x_src``.

    Grouped as ``x_src_t + (x_fe - x_src)`` so that at the first step, where
    the edit latent still equals the source, the result is ``x_src_t`` exactly.
    """
    if not (x_fe.shape == x_src_t.shape == x_src.shape):
        raise ShapeMismatchError(
            f"shapes differ: {x_fe.shape}, {x_src_t.shape}, {x_src.shape}"
        )
    return x_src_t + (x_fe - x_src)


def euler_step(
    x_fe: np.ndarray,
    v_delta: np.ndarray,
    sigma_prev: float,
    sigma_t: float,
    draw: np.ndarray,
    noise_mode: NoiseMode,
    fresh: np.ndarray | None = None,
) -> np.ndarray:
    """One velocity-difference update from level ``sigma_t`` down to ``sigma_prev``.

    The base move is ``x + (sigma_prev - sigma_t) * v_delta``.  Depending on
    ``noise_mode`` the step then re-adds ``sigma_t`` times either the step's
    reused interpolation draw, a fresh Gaussian draw (``fresh``), or nothing.
    """
    if x_fe.shape != v_delta.shape:
        raise ShapeMismatchError(f"latent {x_fe.shape} vs velocity {v_delta.shape}")
    if not sigma_prev < sigma_t:
        raise ValueError(
            f"sigmas must decrease across a step: sigma_prev={sigma_prev} "
            f">= sigma_t={sigma_t}"
        )
    out = x_fe + (sigma_prev - sigma_t) * v_delta
    if noise_mode is NoiseMode.REUSED_EPSILON:
        if draw.shape != x_fe.shape:
            raise ShapeMismatchError("reused draw shape does not match latent")
        out = out + sigma_t * draw
    elif noise_mode is NoiseMode.FRESH_GAUSSIAN:
        if fresh is None:
            raise ValueError("fresh draw required for NoiseMode.FRESH_GAUSSIAN")
        if fresh.shape != x_fe.shape:
            raise ShapeMismatchError("fresh draw shape does not match latent")
        out = out + sigma_t * fresh
    return out
