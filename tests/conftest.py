from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fiaedit.model import ModelConfig, VelocityModel
from fiaedit.prompts import embed_prompt


def branches(out) -> int:
    """Branches of a forward: the passes that ran in its per-state results."""
    return sum((v_cond is not None) + (v_uncond is not None) for v_cond, v_uncond, _ in out)


def dyadic(rng: np.random.Generator, shape, scale: int = 1024, span: int = 2048):
    """Random dyadic rationals k/scale; sums and differences stay exact."""
    return rng.integers(-span, span + 1, size=shape).astype(np.float64) / scale


def traced_peak(model: VelocityModel, states) -> int:
    """Traced peak bytes of one warm ``_forward`` of ``states``."""
    model._forward(states, 0.5)  # caches the position features
    tracemalloc.start()
    try:
        model._forward(states, 0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def tiny_model() -> VelocityModel:
    """4 dual + 2 cross-only blocks on 4-channel latents; shared read-only."""
    return VelocityModel(
        ModelConfig(
            n_blocks_dual=4,
            n_blocks_cross_only=2,
            d_model=8,
            n_heads=2,
            seed=3,
            channels=4,
        )
    )


@pytest.fixture(scope="session")
def prompt_pair():
    return (
        embed_prompt("a cat sits on the mat", 8, seed=1),
        embed_prompt("a dog stands in the grass", 8, seed=1),
    )
