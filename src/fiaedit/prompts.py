"""Deterministic stand-in text encoder.

Real conditioning comes from a frozen pretrained encoder; at desk scale all
the editing mechanics need is a reproducible, distinct vector per token, so
rows are expanded from a keyed hash and unit-normalized.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PromptEmbedding:
    tokens: tuple[int, ...]
    matrix: np.ndarray  # (tokens, d_model)
    text: str = field(default="", compare=False)

    @property
    def d_model(self) -> int:
        return self.matrix.shape[1]


def _token_id(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


def _row_rng(token: str, seed: int) -> np.random.Generator:
    digest = hashlib.blake2b(
        f"{seed}\x00{token}".encode("utf-8"), digest_size=16
    ).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=words)))


def prompt_words(text: str) -> list[str]:
    """The words ``embed_prompt`` makes one token row each."""
    return text.strip().lower().split()


def embed_prompt(text: str, d_model: int, seed: int = 0) -> PromptEmbedding:
    """Hash-derived, unit-norm embedding rows for whitespace-split words."""
    if d_model < 4:
        raise ValueError(f"d_model must be >= 4, got {d_model}")
    words = prompt_words(text)
    if not words:
        raise ValueError("prompt is empty after trimming")
    rows = np.empty((len(words), d_model))
    for i, word in enumerate(words):
        row = _row_rng(word, seed).standard_normal(d_model)
        rows[i] = row / np.linalg.norm(row)
    rows.setflags(write=False)
    return PromptEmbedding(tokens=tuple(_token_id(w) for w in words), matrix=rows, text=text)


def embeddings_equal(a: PromptEmbedding, b: PromptEmbedding) -> bool:
    """True iff token lists and matrices are bit-identical."""
    return a.tokens == b.tokens and np.array_equal(a.matrix, b.matrix)
