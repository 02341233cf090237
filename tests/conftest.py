from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from fiaedit.model import ModelConfig, VelocityModel, _append_ones, _attend_site, _scaled
from fiaedit.prompts import embed_prompt


def branches(out) -> int:
    """Branches of a forward: the passes that ran in its per-state results."""
    return sum((v_cond is not None) + (v_uncond is not None) for v_cond, v_uncond, _ in out)


def report_entries(text: str) -> dict[str, str]:
    """An ablation report's ``key=value`` lines, by key."""
    return dict(line.split("=", 1) for line in text.splitlines())


def delta_pairs(text: str) -> tuple[tuple[str, ...], ...]:
    """A report cell's delta, from its ``name=value`` words."""
    return tuple(tuple(word.split("=", 1)) for word in text.split())


def dyadic(rng: np.random.Generator, shape, scale: int = 1024, span: int = 2048):
    """Random dyadic rationals k/scale; sums and differences stay exact."""
    return rng.integers(-span, span + 1, size=shape).astype(np.float64) / scale


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d_head)) v by the attention core and its divide.

    Q is scaled, and K^T and ``[V | 1]`` are built, as a forward builds them.
    """
    ops = _scaled(q), np.ascontiguousarray(k.swapaxes(-1, -2)), _append_ones(v)
    out = np.empty((1, *q.shape[:-1], v.shape[-1]))
    _attend_site([ops], None, np.empty((1, *q.shape[:-1], v.shape[-1] + 1)), out)
    return out[0]


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
