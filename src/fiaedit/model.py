"""Deterministic toy transformer velocity field with an attention hook bus.

The network mirrors the block layout of the full-size editing backbone at a
fraction of the width: an early run of blocks carries self-attention plus
cross-attention, the remaining tail carries cross-attention only, and every
block ends in a small gated MLP.  Latent pixels are the token grid; channels
project to the model width.  All weights come from one seeded generator in a
fixed order, so a config is a complete description of the network.

One forward call runs a batch of branches (latents with their own prompt
and hooks, or unconditional).  Token-wise work is shared by the batch, and
only the attention core runs branch by branch, so a branch's output does
not depend on its batch.  An unconditional branch attends to the single
null token, which reduces its cross-attention to a constant row.

Hooks observe and override attention inputs: a ``HookPlan`` names the
``(block, kind)`` sites whose effective Q/K/V (and text embedding) should be
captured, and the sites whose inputs are replaced before attention runs.
``ModelConfig`` says which sites exist, and ``VelocityModel.velocity``
returns the captured packets keyed by site.  Captured packets always record
what the attention actually consumed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ShapeMismatchError, TopologyError
from .prompts import PromptEmbedding

_LN_EPS = 1e-6
_SOFTMAX_GUARD = 60.0


class AttnKind(enum.Enum):
    SELF = "self"
    CROSS = "cross"


Site = tuple[int, AttnKind]


@dataclass(frozen=True)
class ModelConfig:
    n_blocks_dual: int = 4
    n_blocks_cross_only: int = 2
    d_model: int = 8
    n_heads: int = 2
    seed: int = 0
    channels: int = 12

    def __post_init__(self) -> None:
        if self.n_blocks_dual < 1 or self.n_blocks_cross_only < 0:
            raise ValueError("need at least one dual block and no negative counts")
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even and >= 2, got {self.d_model}")
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.channels < 1:
            raise ValueError("channels must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def n_blocks(self) -> int:
        return self.n_blocks_dual + self.n_blocks_cross_only

    def has_self(self, block_index: int) -> bool:
        return 0 <= block_index < self.n_blocks_dual

    def contains(self, site: Site) -> bool:
        """Whether the site exists: dual blocks first, cross-only after."""
        block, kind = site
        if not 0 <= block < self.n_blocks:
            return False
        return kind is AttnKind.CROSS or self.has_self(block)

    def self_sites(self) -> tuple[Site, ...]:
        return tuple((b, AttnKind.SELF) for b in range(self.n_blocks_dual))

    def cross_only_range(self) -> tuple[int, int]:
        """Inclusive block range of the cross-attention-only tail."""
        if self.n_blocks_cross_only == 0:
            raise TopologyError("model has no cross-only blocks")
        return self.n_blocks_dual, self.n_blocks - 1


@dataclass(frozen=True)
class AttentionPacket:
    """Immutable snapshot of one attention site's effective inputs.

    A packet carries no site: it is the value under its site's key in a
    ``{site: packet}`` table.
    """

    q: np.ndarray  # (heads, queries, d_head)
    k: np.ndarray  # (heads, keys, d_head)
    v: np.ndarray  # (heads, keys, d_head)
    text_embedding: PromptEmbedding | None = None


@dataclass(frozen=True)
class GuidanceConfig:
    """Per-branch guidance strengths; 0 disables guidance for a branch."""

    mu_src: float = 3.5
    mu_tar: float = 13.5

    def __post_init__(self) -> None:
        for name, mu in (("mu_src", self.mu_src), ("mu_tar", self.mu_tar)):
            if not (mu == 0.0 or mu >= 1.0):
                raise ValueError(f"{name} must be 0 or >= 1, got {mu}")


@dataclass(frozen=True)
class ReplaceQK:
    """Override a site's query and key tensors (value stays the site's own)."""

    q: np.ndarray
    k: np.ndarray


@dataclass(frozen=True)
class ReplaceQKVE:
    """Substitute a full captured packet: Q, K, V, and the text embedding."""

    packet: AttentionPacket


@dataclass(frozen=True)
class HookPlan:
    capture: frozenset[Site] = frozenset()
    overrides: Mapping[Site, ReplaceQK | ReplaceQKVE] = field(default_factory=dict)


EMPTY_PLAN = HookPlan()


def guide(v_cond: np.ndarray | None, v_uncond: np.ndarray | None, mu: float) -> np.ndarray:
    """Classifier-free guidance: ``v_uncond + mu * (v_cond - v_uncond)``.

    ``mu`` of exactly 1 or 0 returns the conditional or unconditional pass
    untouched, and the other pass may then be None.
    """
    if mu == 1.0:
        return v_cond
    if mu == 0.0:
        return v_uncond
    return v_uncond + mu * (v_cond - v_uncond)


@functools.lru_cache(maxsize=None)
def _time_frequencies(d_model: int) -> np.ndarray:
    freqs = np.geomspace(1.0, 10.0, d_model // 2)
    freqs.setflags(write=False)
    return freqs


def time_embedding(sigma_t: float, d_model: int) -> np.ndarray:
    """Sinusoidal features of the noise level at geometrically spaced frequencies.

    Layout is (sin f0*s, cos f0*s, sin f1*s, cos f1*s, ...) with d_model/2
    frequencies spaced geometrically from 1 to 10.
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    freqs = _time_frequencies(d_model)
    out = np.empty(d_model)
    out[0::2] = np.sin(freqs * sigma_t)
    out[1::2] = np.cos(freqs * sigma_t)
    return out


def _axis_position_features(coords: np.ndarray, width: int) -> np.ndarray:
    """Sin/cos pairs of normalized coordinates, truncated to ``width`` dims."""
    n_freq = (width + 1) // 2
    freqs = np.geomspace(1.0, 32.0, n_freq) * (2.0 * np.pi)
    angles = coords[:, None] * freqs[None, :]
    block = np.empty((coords.shape[0], 2 * n_freq))
    block[:, 0::2] = np.sin(angles)
    block[:, 1::2] = np.cos(angles)
    return block[:, :width]


def position_features(h: int, w: int, d_model: int) -> np.ndarray:
    """Fixed 2D sinusoidal token positions, shape (h*w, d_model)."""
    ys, xs = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    d_y = d_model - d_model // 2
    out = np.empty((h * w, d_model))
    out[:, :d_y] = _axis_position_features(ys.ravel(), d_y)
    out[:, d_y:] = _axis_position_features(xs.ravel(), d_model // 2)
    return out


def _snapshot(arr: np.ndarray) -> np.ndarray:
    frozen = arr.copy()
    frozen.setflags(write=False)
    return frozen


def _layer_norm(h: np.ndarray) -> np.ndarray:
    # add.reduce / d is what mean computes, without mean's Python wrapper
    d = h.shape[-1]
    centered = h - np.add.reduce(h, axis=-1, keepdims=True) / d
    scale = np.sqrt(np.add.reduce(np.square(centered), axis=-1, keepdims=True) / d + _LN_EPS)
    return centered / scale


def _gelu_like(g: np.ndarray) -> np.ndarray:
    # sigmoid-gated smooth activation, x * sigma(1.702 x)
    return g / (1.0 + np.exp(-1.702 * g))


@functools.lru_cache(maxsize=None)
def _ones_column(n: int) -> np.ndarray:
    ones = np.ones((n, 1))
    ones.setflags(write=False)
    return ones


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax, in place.  Shifts rows only when magnitudes require it.

    A score beyond +_SOFTMAX_GUARD could overflow exp, and a row whose
    scores all lie far below -_SOFTMAX_GUARD would underflow to 0/0; when
    any score leaves the guard band every row is shifted by its maximum.
    The band test uses the global extremes because a reduction along short
    rows costs several times a whole-array one; row sums are a product with
    a ones vector for the same reason.
    """
    if scores.max() > _SOFTMAX_GUARD or scores.min() < -_SOFTMAX_GUARD:
        scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    sums = scores @ _ones_column(scores.shape[-1])
    np.reciprocal(sums, out=sums)
    scores *= sums
    return scores


def _weight_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    d = cfg.d_model
    layout: list[tuple[str, tuple[int, ...]]] = [
        ("w_in", (cfg.channels, d)),
        ("null_token", (1, d)),
    ]
    for b in range(cfg.n_blocks_dual + cfg.n_blocks_cross_only):
        if b < cfg.n_blocks_dual:
            layout += [(f"b{b}.self.{n}", (d, d)) for n in ("wq", "wk", "wv", "wo")]
        layout += [(f"b{b}.cross.{n}", (d, d)) for n in ("wq", "wk", "wv", "wo")]
        layout += [(f"b{b}.mlp.w1", (d, 4 * d)), (f"b{b}.mlp.w2", (4 * d, d))]
    layout.append(("w_out", (d, cfg.channels)))
    return layout


# bound on peak_bytes: a model and grid beyond it are refused before any
# allocation, as schedule.MAX_STEPS bounds the noise grid
MAX_PEAK_BYTES = 2 << 30


def peak_bytes(cfg: ModelConfig, grid: tuple[int, int], branches: int) -> int:
    """Estimated peak float64 bytes of a forward of ``branches`` latents on ``grid``.

    Counts the weights, the widest activations (the MLP's four model widths
    per token and branch) and the one head-stacked self-attention score
    buffer.  Python integers, so absurd sizes give exact large counts.
    """
    n_tok = grid[0] * grid[1]
    weights = sum(math.prod(shape) for _, shape in _weight_layout(cfg))
    return 8 * (weights + branches * n_tok * 4 * cfg.d_model + cfg.n_heads * n_tok**2)


def _head_view(z: np.ndarray, heads: int) -> np.ndarray:
    """(..., tokens, d) -> (..., heads, tokens, d_head), a view of ``z``."""
    return z.reshape(*z.shape[:-1], heads, z.shape[-1] // heads).swapaxes(-3, -2)


def _attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scores: np.ndarray | None, out: np.ndarray
) -> None:
    """One branch's attention core, heads stacked: softmax(q k^T / sqrt(d_head)) v.

    ``scores`` is the (heads, queries, keys) scratch buffer, or None to
    allocate one; the result is written to ``out``.
    """
    # fold the 1/sqrt(d_head) scale into q: one small pass instead of a
    # full pass over the score matrix
    scores = np.matmul(q * (1.0 / np.sqrt(q.shape[-1])), k.swapaxes(-1, -2), out=scores)
    np.matmul(_softmax_rows(scores), v, out=out)


def _hook_site(
    hooks: HookPlan,
    site: Site,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    text: PromptEmbedding | None,
    captured: dict[Site, AttentionPacket],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One branch's Q, K, V at ``site`` after its override, captured if asked.

    ``ReplaceQK`` applies at self sites and ``ReplaceQKVE`` at cross sites;
    ``text`` is the prompt a cross site reads, None at a self site.
    """
    action = hooks.overrides.get(site)
    if isinstance(action, ReplaceQK) and site[1] is AttnKind.SELF:
        if action.q.shape != q.shape or action.k.shape != k.shape:
            raise ShapeMismatchError(
                f"override at {site} has shape {action.q.shape}, expected {q.shape}"
            )
        q, k = action.q, action.k
    elif isinstance(action, ReplaceQKVE) and site[1] is AttnKind.CROSS:
        pkt = action.packet
        if pkt.q.shape != q.shape:
            raise ShapeMismatchError(
                f"override at {site} has shape {pkt.q.shape}, expected {q.shape}"
            )
        q, k, v, text = pkt.q, pkt.k, pkt.v, pkt.text_embedding
    elif action is not None:
        raise TopologyError(f"{type(action).__name__} does not apply at {site}")
    if site in hooks.capture:
        captured[site] = AttentionPacket(_snapshot(q), _snapshot(k), _snapshot(v), text)
    return q, k, v


class VelocityModel:
    """Seeded toy velocity network; weights are immutable after init."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.weights = {
            name: rng.standard_normal(shape) / np.sqrt(shape[0])
            for name, shape in _weight_layout(cfg)
        }
        for arr in self.weights.values():
            arr.setflags(write=False)
        W = self.weights
        # softmax over the single null key is 1, so an unconditional branch's
        # cross-attention adds the same projected value row at every token
        self._null_cross = [
            W["null_token"] @ W[f"b{b}.cross.wv"] @ W[f"b{b}.cross.wo"]
            for b in range(cfg.n_blocks)
        ]
        self._position_cache: dict[tuple[int, int], np.ndarray] = {}
        self._sites = frozenset(
            (b, kind) for b in range(cfg.n_blocks) for kind in AttnKind if cfg.contains((b, kind))
        )

    # -- forward machinery ---------------------------------------------------

    def _forward(
        self,
        x: np.ndarray,
        prompts: Sequence[PromptEmbedding],
        sigma_t: float,
        hooks: Sequence[HookPlan],
    ) -> tuple[np.ndarray, list[dict[Site, AttentionPacket]]]:
        """Velocities of a batch of branches ``x``, (B, C, H, W), at one noise level.

        The first ``len(prompts)`` branches are conditional: branch ``i``
        attends to ``prompts[i]`` under ``hooks[i]``, and the i-th returned
        table holds the packets it captured.  The other branches are
        unconditional.  Token-wise work runs once for the whole batch; only
        the attention core loops over branches, so a branch's output does
        not depend on the batch it runs in.  A hook at a site the model
        lacks raises ``TopologyError``.
        """
        cfg = self.cfg
        W = self.weights
        if x.ndim != 4 or x.shape[1] != cfg.channels:
            raise ShapeMismatchError(
                f"latents must be (branches, {cfg.channels}, H, W), got {x.shape}"
            )
        for p in prompts:
            if p.d_model != cfg.d_model:
                raise ShapeMismatchError(
                    f"prompt width {p.d_model} != model width {cfg.d_model}"
                )
        for plan in hooks:
            if not (plan.capture <= self._sites and plan.overrides.keys() <= self._sites):
                site = min((plan.capture | plan.overrides.keys()) - self._sites, key=str)
                raise TopologyError(f"hook site {site} not in the model")
        n_b, c, h_grid, w_grid = x.shape
        n_cond = len(prompts)
        n_tok = h_grid * w_grid
        heads = cfg.n_heads
        pos = self._position_cache.get((h_grid, w_grid))
        if pos is None:
            pos = position_features(h_grid, w_grid, cfg.d_model)
            pos.setflags(write=False)
            self._position_cache[(h_grid, w_grid)] = pos
        h = x.reshape(n_b, c, n_tok).swapaxes(1, 2) @ W["w_in"]
        h += pos
        h += time_embedding(sigma_t, cfg.d_model)

        distinct = {id(p): p for p in prompts}
        captured: list[dict[Site, AttentionPacket]] = [{} for _ in prompts]
        scores = np.empty((heads, n_tok, n_tok))
        attn = np.empty((n_b, n_tok, cfg.d_model))  # attention outputs, heads merged
        attn_heads = _head_view(attn, heads)
        for b in range(cfg.n_blocks):
            if cfg.has_self(b):
                site = (b, AttnKind.SELF)
                hn = _layer_norm(h)
                q, k, v = (
                    _head_view(hn @ W[f"b{b}.self.{name}"], heads)
                    for name in ("wq", "wk", "wv")
                )
                for i in range(n_b):
                    qkv = q[i], k[i], v[i]
                    if i < n_cond:
                        qkv = _hook_site(hooks[i], site, *qkv, None, captured[i])
                    _attend(*qkv, scores, attn_heads[i])
                h += attn @ W[f"b{b}.self.wo"]

            site = (b, AttnKind.CROSS)
            if n_cond:
                q = _head_view(_layer_norm(h[:n_cond]) @ W[f"b{b}.cross.wq"], heads)
                # K and V depend only on the prompt: project each distinct one once
                wk, wv = W[f"b{b}.cross.wk"], W[f"b{b}.cross.wv"]
                kv = {
                    key: (_head_view(p.matrix @ wk, heads), _head_view(p.matrix @ wv, heads))
                    for key, p in distinct.items()
                }
                for i, p in enumerate(prompts):
                    qkv = _hook_site(hooks[i], site, q[i], *kv[id(p)], p, captured[i])
                    _attend(*qkv, None, attn_heads[i])
                h[:n_cond] += attn[:n_cond] @ W[f"b{b}.cross.wo"]
            if n_cond < n_b:
                h[n_cond:] += self._null_cross[b]

            hn = _layer_norm(h)
            h += _gelu_like(hn @ W[f"b{b}.mlp.w1"]) @ W[f"b{b}.mlp.w2"]

        out = _layer_norm(h) @ W["w_out"]
        return out.swapaxes(1, 2).reshape(n_b, c, h_grid, w_grid), captured

    def velocity(
        self,
        x: np.ndarray,
        p: PromptEmbedding,
        sigma_t: float,
        mu: float,
        hooks: HookPlan = EMPTY_PLAN,
    ) -> tuple[np.ndarray, dict[Site, AttentionPacket]]:
        """Guided velocity at state ``x`` and the packets captured by site.

        Hooks act on, and are checked with, the conditional pass.  The
        conditional and unconditional passes run as one batch and are
        blended by :func:`guide`; with ``mu`` of exactly 1 or 0 only the
        pass that enters the result runs (the conditional one also runs
        whenever the hooks capture).
        """
        if not np.isfinite(mu):
            raise ValueError("guidance scale must be finite")
        cond = mu != 0.0 or bool(hooks.capture)
        uncond = mu != 1.0
        out, captured = self._forward(
            np.stack([x] * (cond + uncond)), [p] * cond, sigma_t, [hooks] * cond
        )
        v_cond = out[0] if cond else None
        v_uncond = out[-1] if uncond else None
        return guide(v_cond, v_uncond, mu), captured[0] if cond else {}
