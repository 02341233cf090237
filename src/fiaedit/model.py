"""Deterministic toy transformer velocity field with an attention hook bus.

The network mirrors the block layout of the full-size editing backbone at a
fraction of the width: an early run of blocks carries self-attention plus
cross-attention, the remaining tail carries cross-attention only, and every
block ends in a small gated MLP.  Latent pixels are the token grid; channels
project to the model width.  All weights come from one seeded generator in a
fixed order, so a config is a complete description of the network.

Hooks observe and override attention inputs: a ``HookPlan`` names the
``(block, kind)`` sites whose effective Q/K/V (and text embedding) should be
captured, and the sites whose inputs are replaced before attention runs.
``ModelConfig`` says which sites exist, and ``VelocityModel.velocity``
returns the captured packets keyed by site.  Captured packets always record
what the attention actually consumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

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
    """Immutable snapshot of one attention site's effective inputs."""

    block_index: int
    kind: AttnKind
    q: np.ndarray  # (heads, queries, d_head)
    k: np.ndarray  # (heads, keys, d_head)
    v: np.ndarray  # (heads, keys, d_head)
    text_embedding: PromptEmbedding | None = None

    @property
    def site(self) -> Site:
        return (self.block_index, self.kind)


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


def time_embedding(sigma_t: float, d_model: int) -> np.ndarray:
    """Sinusoidal features of the noise level at geometrically spaced frequencies.

    Layout is (sin f0*s, cos f0*s, sin f1*s, cos f1*s, ...) with d_model/2
    frequencies spaced geometrically from 1 to 10.
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    n_freq = d_model // 2
    freqs = np.geomspace(1.0, 10.0, n_freq) if n_freq > 1 else np.array([1.0])
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
    centered = h - h.mean(axis=-1, keepdims=True)
    scale = np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + _LN_EPS)
    return centered / scale


def _gelu_like(g: np.ndarray) -> np.ndarray:
    # sigmoid-gated smooth activation, x * sigma(1.702 x)
    return g / (1.0 + np.exp(-1.702 * g))


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row softmax, in place.  Shifts rows only when magnitudes require it.

    A score beyond +_SOFTMAX_GUARD could overflow exp, and a row whose
    scores all lie far below -_SOFTMAX_GUARD would underflow to 0/0; when
    any score leaves the guard band every row is shifted by its maximum.
    The band test uses the global extremes because a reduction along short
    rows costs several times a whole-array one.
    """
    if scores.max() > _SOFTMAX_GUARD or scores.min() < -_SOFTMAX_GUARD:
        scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    sums = scores.sum(axis=-1, keepdims=True)
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
        self._position_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- forward machinery ---------------------------------------------------

    def _split_heads(self, z: np.ndarray) -> np.ndarray:
        n, d = z.shape
        heads = self.cfg.n_heads
        return np.ascontiguousarray(
            z.reshape(n, heads, d // heads).transpose(1, 0, 2)
        )

    def _merge_heads(self, z: np.ndarray) -> np.ndarray:
        heads, n, dh = z.shape
        return z.transpose(1, 0, 2).reshape(n, heads * dh)

    def _attend(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        w_o: np.ndarray,
        scratch: dict[tuple[int, ...], np.ndarray],
    ) -> np.ndarray:
        d_head = q.shape[-1]
        shape = (q.shape[0], q.shape[1], k.shape[1])
        buf = scratch.get(shape)
        if buf is None:
            buf = scratch[shape] = np.empty(shape)
        # fold the 1/sqrt(d_head) scale into q: one small pass instead of a
        # full pass over the score matrix
        np.matmul(q * (1.0 / np.sqrt(d_head)), k.transpose(0, 2, 1), out=buf)
        attn = _softmax_rows(buf)
        return self._merge_heads(attn @ v) @ w_o

    def _forward(
        self,
        x: np.ndarray,
        text: np.ndarray,
        text_ref: PromptEmbedding | None,
        sigma_t: float,
        hooks: HookPlan,
        captured: dict[Site, AttentionPacket],
        scratch: dict[tuple[int, ...], np.ndarray],
    ) -> np.ndarray:
        cfg = self.cfg
        W = self.weights
        c, h_grid, w_grid = x.shape
        n_tok = h_grid * w_grid
        pos = self._position_cache.get((h_grid, w_grid))
        if pos is None:
            pos = position_features(h_grid, w_grid, cfg.d_model)
            pos.setflags(write=False)
            self._position_cache[(h_grid, w_grid)] = pos
        tokens = x.reshape(c, n_tok).T
        h = tokens @ W["w_in"]
        h = h + pos
        h = h + time_embedding(sigma_t, cfg.d_model)[None, :]

        for b in range(cfg.n_blocks):
            if cfg.has_self(b):
                hn = _layer_norm(h)
                q = self._split_heads(hn @ W[f"b{b}.self.wq"])
                k = self._split_heads(hn @ W[f"b{b}.self.wk"])
                v = self._split_heads(hn @ W[f"b{b}.self.wv"])
                site = (b, AttnKind.SELF)
                action = hooks.overrides.get(site)
                if isinstance(action, ReplaceQK):
                    if action.q.shape != q.shape or action.k.shape != k.shape:
                        raise ShapeMismatchError(
                            f"override at {site} has shape "
                            f"{action.q.shape}, expected {q.shape}"
                        )
                    q, k = action.q, action.k
                if site in hooks.capture:
                    captured[site] = AttentionPacket(
                        b, AttnKind.SELF, _snapshot(q), _snapshot(k), _snapshot(v)
                    )
                h = h + self._attend(q, k, v, W[f"b{b}.self.wo"], scratch)

            hn = _layer_norm(h)
            q = self._split_heads(hn @ W[f"b{b}.cross.wq"])
            k = self._split_heads(text @ W[f"b{b}.cross.wk"])
            v = self._split_heads(text @ W[f"b{b}.cross.wv"])
            site_text = text_ref
            site = (b, AttnKind.CROSS)
            action = hooks.overrides.get(site)
            if isinstance(action, ReplaceQKVE):
                pkt = action.packet
                if pkt.q.shape != q.shape:
                    raise ShapeMismatchError(
                        f"override at {site} has shape {pkt.q.shape}, "
                        f"expected {q.shape}"
                    )
                q, k, v = pkt.q, pkt.k, pkt.v
                site_text = pkt.text_embedding
            if site in hooks.capture:
                captured[site] = AttentionPacket(
                    b, AttnKind.CROSS, _snapshot(q), _snapshot(k), _snapshot(v), site_text
                )
            h = h + self._attend(q, k, v, W[f"b{b}.cross.wo"], scratch)

            hn = _layer_norm(h)
            g = _gelu_like(hn @ W[f"b{b}.mlp.w1"])
            h = h + g @ W[f"b{b}.mlp.w2"]

        out = _layer_norm(h) @ W["w_out"]
        return out.T.reshape(c, h_grid, w_grid)

    def _validate_hooks(self, hooks: HookPlan) -> None:
        cfg = self.cfg
        for site in hooks.capture:
            if not cfg.contains(site):
                raise TopologyError(f"capture site {site} not in the model")
        for site, action in hooks.overrides.items():
            if not cfg.contains(site):
                raise TopologyError(f"override site {site} not in the model")
            if isinstance(action, ReplaceQKVE) and site[1] is not AttnKind.CROSS:
                raise TopologyError(
                    f"full packet substitution only applies to cross sites, got {site}"
                )
            if isinstance(action, ReplaceQK) and site[1] is not AttnKind.SELF:
                raise TopologyError(f"Q/K replacement only applies to self sites, got {site}")

    def velocity(
        self,
        x: np.ndarray,
        p: PromptEmbedding,
        sigma_t: float,
        mu: float,
        hooks: HookPlan = EMPTY_PLAN,
    ) -> tuple[np.ndarray, dict[Site, AttentionPacket]]:
        """Guided velocity at state ``x`` and the packets captured by site.

        Hooks act on the conditional pass.  The conditional and
        unconditional passes are blended by :func:`guide`; with ``mu`` of
        exactly 1 or 0 only the pass that enters the result runs (the
        conditional one also runs whenever the hooks capture).
        """
        if x.ndim != 3 or x.shape[0] != self.cfg.channels:
            raise ShapeMismatchError(
                f"latent must be ({self.cfg.channels}, H, W), got {x.shape}"
            )
        if p.d_model != self.cfg.d_model:
            raise ShapeMismatchError(
                f"prompt width {p.d_model} != model width {self.cfg.d_model}"
            )
        if not np.isfinite(mu):
            raise ValueError("guidance scale must be finite")
        self._validate_hooks(hooks)

        scratch: dict[tuple[int, ...], np.ndarray] = {}
        captured: dict[Site, AttentionPacket] = {}
        v_cond = v_uncond = None
        if mu != 0.0 or hooks.capture:
            v_cond = self._forward(x, p.matrix, p, sigma_t, hooks, captured, scratch)
        if mu != 1.0:
            v_uncond = self._forward(
                x, self.weights["null_token"], None, sigma_t, EMPTY_PLAN, {}, scratch
            )
        return guide(v_cond, v_uncond, mu), captured
