"""Deterministic toy transformer velocity field with an attention hook bus.

The network mirrors the block layout of the full-size editing backbone at a
fraction of the width: an early run of blocks carries self-attention plus
cross-attention, the remaining tail carries cross-attention only, and every
block ends in a small gated MLP.  Latent pixels are the token grid; channels
project to the model width.  All weights come from one seeded generator in a
fixed order, so a config is a complete description of the network, and
models of equal configs share one read-only weight set, built once and kept
for the last four configs used (see ``VelocityModel``).

One forward call runs a batch of states, each a latent with its prompt,
guidance scale and hooks.  A state runs a conditional pass, which attends
to its prompt under its hooks, and an unconditional pass, which attends to
the single null token and so reduces its cross-attention to a constant row;
its guidance scale says which of the two run.  Each pass is a branch of the
batch.  Token-wise work is shared by the batch, and only the attention core
runs branch by branch (over query tiles, on two threads at a large self
site, see below), so a state's output does not depend on its batch.

A state's two passes are identical up to block 0's cross-attention, so that
prefix runs once per state: the input projection, the position and time
embeddings, block 0's layer norm and Q/K/V, and block 0's self-attention
core, which a conditional pass that overrides ``(0, SELF)`` runs on its
own.  From block 0's output projection on, every branch has its own row.

The residual stream is feature-major, (branches, d_model, tokens): every
token-wise step runs along a contiguous axis of n tokens, and token-wise
products are ``W^T @ h``.  The attention core is keys-major and makes
three passes over each query tile's (heads, keys, rows) scores: the score
product ``K Qs^T``, exp, and the product of ``[V | 1]^T``, V^T with a row
of ones appended, with them, whose last row holds the row sums.  The scores
are never scanned or rescaled: exp runs on them unshifted, and only a product
whose row sums or entries come out of range is redone with each query's
scores shifted by their maximum.  Everything else at a site runs once for
the batch: Q^T is scaled by 1/sqrt(d_head) once, every core writes its
``[numerator | row sum]`` into one (branches, heads, d_head + 1, n) buffer,
the range check reads the whole buffer, and one divide writes the site's
output, heads merged, as the (branches, d_model, n) input of the output
projection, as FlashAttention defers its normalisation.

A self core runs over query tiles, as FlashAttention tiles its rows: a tile
is a column block of Qs^T of 2^16 / (heads * keys) queries, at least 16 and
at most all of them, whose scores go into one (heads, keys, rows) scratch
buffer, so a site's scratch grows with its tokens, not their square.  A
query's whole key row is in its tile, so there is no online softmax, and
each tile writes its own columns of the ``[numerator | row sum]`` buffer.
A self site whose (heads, n, n) scores hold at least 2^18 entries, four
tiles' worth (from 363 tokens with 2 heads, 512 with one), runs its (core,
tile) pairs on two threads, as FlashAttention-2 shares out attention work:
in core-major order, the calling thread runs the first half, rounded up,
and one worker thread the rest, each with its own tile cut from one (2,
heads, n, rows) block.  Below that size a thread's share does not clearly
pay for the handoff and the extra CPU, so a smaller site runs on the
calling thread alone and makes no worker.  The worker is made on the first split, and a forked
child makes its own.  Copied cores, the range check, shifted reruns and
the divide run on the calling thread once both halves are done.  A tile's
bytes do not depend on the thread that runs it.

Every buffer of a call that grows with tokens times branches is cut from
one float64 block, which ``_scratch_layout`` lays out: the score tiles, the
``[numerator | row sum]`` buffer, the attention output and the MLP's two
hidden buffers.  A self site's Q/K/V product takes the front of the hidden
buffers, since it is dead once the site's output projection has run, before
the MLP writes them.  The products and the activation write into their
buffers with ``out=``.  The block is one allocation for glibc's sake: once
it frees a mapped block, glibc trims its heap top whenever more than twice
that block's size is free there.  The first call's block sets that bound
above what a later call of its shape frees, so the heap keeps the memory and
no call faults it in again; several smaller buffers set it below, and each
call gave its memory back and faulted it in anew.  The block is made per
call and not held, so an idle model holds none.

Token-wise work is a few wide BLAS calls.  A dual block gets the whole
batch's Q^T, K^T and V^T as views of one product with ``[wq | wk | wv]^T``
(K enters the score product as a transposed view), and each distinct
prompt in a call gets every block's cross K and ``[V | 1]^T`` from one
product with ``[wk_0 | wv_0 | wk_1 | ...]``.  These side-by-side weights,
and every block's other token-wise ``W^T``, are built with the weights.
A call's branches share K and ``[V | 1]^T`` for prompt matrices of equal
values: it groups them by the shape and bytes of each C-ordered float64
matrix and builds each group's operands from that array once.  A call
keeps nothing for the next.
Layer norm takes its mean and variance over the feature axis as products
with a row of 1/d, one BLAS call per slice.

Hooks observe and override attention inputs: a ``HookPlan`` names the
``(block, kind)`` sites whose effective Q/K/V (and text embedding) should be
captured, and the sites whose inputs are replaced before attention runs.
``ModelConfig`` says which sites exist, and ``VelocityModel.velocity``
returns the captured packets keyed by site.  Captured packets always record
what the attention actually consumed.

A plan with a fork rule splits its state's conditional pass in two inside
the call.  The probe runs as the plan says and captures; the constrained
pass runs on the same row and copies the probe's attention cores until the
rule, asked at each captured site with the packets every state has just
captured there, first returns an override; from that site on its cores
are its own.  So an override built from another pass's features at the
same site needs no second call, and a rule that never overrides costs
only its token-wise row.  A rule that overrides a cross site with the
very packet a conditional pass captured there in the call copies that
pass's core: a packet records what its pass consumed, so the bytes are
those the injected core would compute.  A static packet in ``overrides``
runs its own core.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
import os
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ShapeMismatchError, TopologyError
from .prompts import PromptEmbedding

_LN_EPS = 1e-6
# a row sum below this redoes the core's softmax shifted: its terms have
# drifted towards the subnormal range, or underflowed to 0/0
_ROW_SUM_FLOOR = math.exp(-60.0)
# entries of a self site's score tile (512 KiB): a core runs over query
# tiles of about this many scores
_TILE_ENTRIES = 1 << 16
# a site whose (heads, n, n) scores hold at least this many entries (four
# tiles' worth) runs its tiles on two threads: from 363 tokens with 2 heads
# and 512 with one.  Whole edits on 2 vCPUs, one BLAS thread, split against
# serial wall time: 2 heads -10..-19% at 384 tokens, -16..-26% at 512,
# about -20% at 1,024 and -23% at 4,096, 1 head -6..-16% at 512.  At 256
# tokens with 2 heads it cost 9-23% more CPU per op, and won 14 of 30
# rounds on a busy host and gained about 17% on an idle one; with 1 head
# it lost 6%
_SPLIT_ENTRIES = 4 * _TILE_ENTRIES


class AttnKind(enum.Enum):
    SELF = "self"
    CROSS = "cross"

    # members are singletons: an identity hash runs in C, where Enum's own
    # hashes the member name in Python for every site looked up
    __hash__ = object.__hash__


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


# an override: fused Q/K at a self site, or at a cross site a whole packet
# (Q, K, V and the text embedding) substituted for the site's own
Override = ReplaceQK | AttentionPacket

# a fork rule: its override at a site, from every state's packets captured
# so far in the call, or None for no override there
ForkRule = Callable[[Site, Sequence[Mapping[Site, AttentionPacket]]], Override | None]


@dataclass(frozen=True)
class HookPlan:
    """Hooks of a state's conditional pass: the sites it captures, and overrides.

    With a ``fork`` rule, a guided state whose plan captures also runs a
    constrained pass: this pass, its probe, plus the override the rule
    returns at each ``capture`` site (see the module docstring).  The
    state's conditional velocity is the constrained pass's, and its
    packets are the probe's.
    """

    capture: frozenset[Site] = frozenset()
    overrides: Mapping[Site, Override] = field(default_factory=dict)
    fork: ForkRule | None = None


EMPTY_PLAN = HookPlan()

# a model state: (latent, prompt, guidance scale, hooks of its conditional pass)
State = tuple[np.ndarray, PromptEmbedding, float, HookPlan]


def guide(v_cond: np.ndarray | None, v_uncond: np.ndarray | None, mu: float) -> np.ndarray:
    """Classifier-free guidance: ``v_uncond + mu * (v_cond - v_uncond)``.

    ``mu`` of exactly 1 or 0 returns the conditional or unconditional pass
    untouched, and the other pass may then be None.  A blend that overflows
    gives non-finite entries and no numpy warning: callers check the result.
    """
    if mu == 1.0:
        return v_cond
    if mu == 0.0:
        return v_uncond
    with np.errstate(all="ignore"):
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


@functools.lru_cache(maxsize=None)
def _positions(h: int, w: int, d_model: int) -> np.ndarray:
    """Feature-major position features, (d_model, h*w), read-only."""
    pos = np.ascontiguousarray(position_features(h, w, d_model).T)
    pos.setflags(write=False)
    return pos


def _snapshot(arr: np.ndarray) -> np.ndarray:
    frozen = arr.copy()
    frozen.setflags(write=False)
    return frozen


@functools.lru_cache(maxsize=None)
def _mean_row(d: int) -> np.ndarray:
    row = np.full((1, d), 1.0 / d)
    row.setflags(write=False)
    return row


def _layer_norm(h: np.ndarray) -> np.ndarray:
    """Layer norm over the feature axis of a (..., d, tokens) stream."""
    # the means are products with a row of 1/d: one BLAS call per slice
    mean = _mean_row(h.shape[-2])
    centered = h - mean @ h
    centered /= np.sqrt(mean @ np.square(centered) + _LN_EPS)
    return centered


def _gelu_like(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    # sigmoid-gated smooth activation, x * sigma(1.702 x), into ``out``
    np.multiply(g, -1.702, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(g, out, out=out)


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
# bytes of Python objects (array headers, packets, tables) per captured
# packet; a forward counts eight more
_OBJECT_BYTES = 1 << 10


def peak_bytes(
    cfg: ModelConfig, grid: tuple[int, int], branches: int, prompt_tokens: int, prompts: int
) -> int:
    """Upper bound on the bytes of a forward of ``branches`` on ``grid``.

    ``prompt_tokens`` is the longest prompt's token count and ``prompts``
    the number of distinct prompts.  Counts the weights and their
    side-by-side copies; the scratch block, as :func:`_scratch_layout`
    gives the shapes ``_forward`` allocates it from (score tiles, the
    ``[numerator | row sum]`` buffer, the attention output and the MLP's
    hidden buffers, which hold a self site's Q/K/V product too), and one
    cross core's scores; per token and branch the other arrays alive at
    the widest point (the residual stream, a layer-norm output, scaled Q^T
    and ``[V | 1]^T``, the range check's flags, an overriding Q^T scaled),
    the channel copies and the packets captured at every site (Q, K and V;
    at a cross site K and V are prompt-sized); each distinct prompt's K and
    ``[V | 1]^T`` at every block, the product they are cut from, its
    matrix's bytes that key them and its C-ordered float64 copy, and per
    branch an overriding packet's; and the Python objects.  Python
    integers, so absurd sizes give exact large counts.
    """
    d, heads, n_blocks = cfg.d_model, cfg.n_heads, cfg.n_blocks
    n_tok = grid[0] * grid[1]
    weights = sum(math.prod(shape) for _, shape in _weight_layout(cfg))
    weights += d * d * (3 * cfg.n_blocks_dual + 2 * n_blocks)  # side-by-side copies
    packets = 3 * d * cfg.n_blocks_dual + d * n_blocks
    tokenwise = 6 * d + 2 * heads + 2 * cfg.channels + packets
    scratch = sum(math.prod(shape) for shape in _scratch_layout(heads, d, n_tok, branches))
    attention = scratch + heads * n_tok * prompt_tokens
    operands = prompts * (n_blocks * (2 * d + heads) + 2 * d) + 2 * d * n_blocks
    prompt_sized = prompt_tokens * (operands + branches * ((n_blocks + 1) * 2 * d + heads))
    objects = _OBJECT_BYTES * (8 + branches * (cfg.n_blocks_dual + n_blocks))
    return 8 * (weights + branches * n_tok * tokenwise + attention + prompt_sized) + objects


def _scratch_layout(
    heads: int, d_model: int, n_tok: int, branches: int
) -> tuple[tuple[int, ...], ...]:
    """The shapes ``_forward`` cuts, in order, from its one scratch block.

    A self site's score tile(s), as :func:`_score_shape` gives them; the
    cores' ``[numerator | row sum]``, (branches, heads, d_head + 1, tokens);
    the attention output, heads merged, (branches, d_model, tokens); and the
    MLP's two hidden buffers, (2, branches, 4 d_model, tokens), the front of
    which holds a self site's Q/K/V product until its output projection.
    """
    return (
        _score_shape(heads, n_tok),
        (branches, heads, d_model // heads + 1, n_tok),
        (branches, d_model, n_tok),
        (2, branches, 4 * d_model, n_tok),
    )


def _front(buffer: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-ordered view of ``shape`` over the first entries of a contiguous ``buffer``."""
    return buffer.reshape(-1)[: math.prod(shape)].reshape(shape)


def _score_shape(heads: int, n_tok: int) -> tuple[int, ...]:
    """A self site's scratch: one (heads, keys, rows) query tile, or two cut from one block.

    A tile holds the queries whose scores fit in ``_TILE_ENTRIES``, at
    least 16 and at most all of them; a site whose (heads, n, n) scores
    hold ``_SPLIT_ENTRIES`` gets two tiles, one per thread.  A smaller
    site runs on the calling thread alone, and never makes the worker.
    """
    rows = min(n_tok, max(16, _TILE_ENTRIES // (heads * n_tok)))
    shape = (heads, n_tok, rows)
    return (2, *shape) if heads * n_tok * n_tok >= _SPLIT_ENTRIES else shape


@functools.cache
def _worker():
    """The thread that runs the second half of a split site's tiles, made on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fiaedit-attend")


# a forked child has no worker thread, and the copied executor would start
# none: it makes its own on its first split (only POSIX forks)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _head_view(z: np.ndarray, heads: int) -> np.ndarray:
    """(..., d, tokens) -> (..., heads, d_head, tokens), a view of ``z``."""
    return z.reshape(*z.shape[:-2], heads, z.shape[-2] // heads, z.shape[-1])


def _append_ones(vt: np.ndarray) -> np.ndarray:
    """(..., d_head, tokens) -> (..., d_head + 1, tokens): ``[V | 1]^T``."""
    out = np.empty((*vt.shape[:-2], vt.shape[-2] + 1, vt.shape[-1]))
    out[..., :-1, :] = vt
    out[..., -1, :] = 1.0
    return out


def _self_operands(
    hn: np.ndarray, w_qkv: np.ndarray, heads: int, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q^T, K and ``[V | 1]^T`` per head from one product into ``out``; Q^T and K view it."""
    d = hn.shape[-2]
    qkv = np.matmul(w_qkv, hn, out=out)
    q, k, v = (_head_view(qkv[..., i * d : (i + 1) * d, :], heads) for i in range(3))
    return q, k.swapaxes(-1, -2), _append_ones(v)


def _cross_operands(
    matrix: np.ndarray, w_kv: np.ndarray, heads: int
) -> tuple[np.ndarray, np.ndarray]:
    """A prompt's K and ``[V | 1]^T`` at every block from one product.

    ``w_kv`` is ``[wk_0 | wv_0 | wk_1 | wv_1 | ...]``; the results are
    (blocks, heads, tokens, d_head) and (blocks, heads, d_head + 1, tokens).
    """
    kv = (matrix @ w_kv).reshape(matrix.shape[0], -1, 2, heads, w_kv.shape[0] // heads)
    k = np.ascontiguousarray(kv[:, :, 0].transpose(1, 2, 0, 3))
    return k, _append_ones(kv[:, :, 1].transpose(1, 2, 3, 0))


def _scaled(qt: np.ndarray) -> np.ndarray:
    """Q^T times 1/sqrt(d_head): a pass over Q instead of over the scores."""
    return qt * (1.0 / np.sqrt(qt.shape[-2]))


def _attend(
    qs: np.ndarray,
    k: np.ndarray,
    v1: np.ndarray,
    scores: np.ndarray | None,
    out: np.ndarray,
    shift: bool = False,
) -> None:
    """One branch's keys-major attention core, heads stacked: ``[V | 1]^T exp(k qs)``.

    ``qs`` is Q^T scaled by :func:`_scaled`, (heads, d_head, queries),
    ``k`` is K, (heads, keys, d_head), and ``v1`` is ``[V | 1]^T``, (heads,
    d_head + 1, keys).  ``out``, (heads, d_head + 1, queries), receives the
    softmax numerator with each query's row sum in its last row.

    ``scores`` is the (heads, keys, rows) tile buffer, or None to allocate
    one tile of every query.  The core runs over tiles of ``rows`` queries,
    each a column block of ``qs`` and of ``out``; a last tile of fewer
    queries uses the front of the buffer.  Each tile makes three passes
    over its scores: the score product, exp, and the product with ``[V |
    1]^T``; with ``shift``, each query's scores are shifted by their
    maximum before exp.  A query's scores are whole within its tile, so
    tiles need no running maximum or sum.
    """
    queries = qs.shape[-1]
    rows = queries if scores is None else scores.shape[-1]
    for lo in range(0, queries, rows):
        q, o, tile = qs, out, scores
        if rows != queries:
            q, o = qs[..., lo : lo + rows], out[..., lo : lo + rows]
            if q.shape[-1] < rows:  # a short last tile: the front of the buffer
                tile = _front(scores, (*scores.shape[:-1], q.shape[-1]))
        tile = np.matmul(k, q, out=tile)
        if shift:
            tile -= tile.max(axis=-2, keepdims=True)
        np.exp(tile, out=tile)
        np.matmul(v1, tile, out=o)


def _attend_site(
    ops: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray] | int],
    scores: np.ndarray | None,
    weighted: np.ndarray,
    out: np.ndarray,
) -> None:
    """(softmax(q k^T / sqrt(d_head)) v)^T for every branch at one site, into ``out``.

    ``ops[i]`` is branch i's operands for :func:`_attend`, or the index of
    an earlier branch with the same operands, whose result it copies.
    Each core writes its ``[numerator | row sum]`` columns into its slice
    of ``weighted``, (branches, heads, d_head + 1, queries), and one divide
    by the row sums writes ``out``, (branches, heads, d_head, queries), a
    per-head view of the (branches, d_model, queries) stream.

    ``scores`` is the (heads, keys, rows) tile buffer, on which every core
    runs on the calling thread, or None to allocate each core's.  A (2,
    heads, keys, rows) block, one tile per thread, which
    :func:`_score_shape` gives from ``_SPLIT_ENTRIES`` scores on, splits
    the cores' (core, tile) pairs in core-major order: the calling
    thread runs the first half, rounded up, and the worker the rest, under
    the caller's error state; the copies, the check below and the divide
    run once both halves are done.  A core whose tiles the cut divides
    runs its first tiles here and the rest on the worker.  Each tile
    writes only its own columns, and the tiles are the same on either
    thread, so the bytes do not depend on the thread.

    exp runs on the unshifted scores, and the products are checked after
    the fact: a branch's is kept unless one of its row sums is below
    ``_ROW_SUM_FLOOR`` (every score of its query below about -60) or an
    entry is not finite (exp overflowed, at a score above about 709).
    Only such a branch's cores run again, shifted and tiled the same way,
    on the calling thread.  So scores up to about 709 are not shifted, and
    scores in band keep their bits.
    """

    def run(parts: Iterable[tuple[int, int, int]], shift: bool, buffer: np.ndarray | None) -> None:
        for i, lo, hi in parts:
            qs, k, v1 = ops[i]
            into = weighted[i]
            if hi - lo < n:
                qs, into = qs[..., lo:hi], into[..., lo:hi]
            _attend(qs, k, v1, buffer, into, shift)

    def copy(branches: Iterable[int]) -> None:
        for i in branches:
            if isinstance(ops[i], int):
                weighted[i] = weighted[ops[i]]

    n = weighted.shape[-1]
    cores = [i for i, op in enumerate(ops) if not isinstance(op, int)]
    mine, theirs = [(i, 0, n) for i in cores], []
    if scores is not None and scores.ndim == 4:
        # the (core, tile) pairs in core-major order, cut after the first half
        scores, spare = scores
        tiles = -(-n // scores.shape[-1])
        c, t = divmod((len(cores) * tiles + 1) // 2, tiles)
        cut = t * scores.shape[-1]
        mine = [(i, 0, n) for i in cores[:c]] + [(i, 0, cut) for i in cores[c : c + 1] if cut]
        theirs = [(i, cut, n) for i in cores[c : c + 1]] + [(i, 0, n) for i in cores[c + 1 :]]
    with np.errstate(over="ignore", invalid="ignore"):
        job = None
        if theirs:
            job = _worker().submit(contextvars.copy_context().run, run, theirs, False, spare)
        try:
            run(mine, False, scores)
        finally:
            if job is not None:
                job.result()
    copy(range(len(ops)))
    sums = weighted[..., -1, :]
    if not (sums.min() >= _ROW_SUM_FLOOR and np.isfinite(weighted).all()):
        kept = (sums.min(axis=(1, 2)) >= _ROW_SUM_FLOOR) & np.isfinite(weighted).all(axis=(1, 2, 3))
        redo = np.flatnonzero(~kept)
        run([(i, 0, n) for i in redo if not isinstance(ops[i], int)], True, scores)
        copy(redo)
    np.divide(weighted[..., :-1, :], weighted[..., -1:, :], out=out)


def _hook_site(
    action: Override | None,
    site: Site,
    qt: np.ndarray,
    k: np.ndarray,
    v1: np.ndarray,
    text: PromptEmbedding | None,
    captured: dict[Site, AttentionPacket] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One branch's overridden attention operands at ``site``, captured if asked.

    ``qt``, ``k`` and ``v1`` are the branch's own plain Q^T, K and ``[V |
    1]^T``, and ``text`` the prompt a cross site reads, None at a self site.
    Returns None when ``action`` is None, and otherwise the overridden
    operands as :func:`_attend` takes them, with the overriding Q^T, a
    transposed view of the packet's Q, scaled here for its own branch only.
    ``ReplaceQK`` applies at self sites and an ``AttentionPacket`` at cross sites.
    With a ``captured`` table, the packet of what the attention consumes
    goes into it: plain Q, K and V, each (heads, tokens, d_head).
    """
    q = qt.swapaxes(-1, -2)
    if isinstance(action, ReplaceQK) and site[1] is AttnKind.SELF:
        # self-attention keys are the query tokens: K has Q's shape
        if action.q.shape != q.shape or action.k.shape != q.shape:
            raise ShapeMismatchError(
                f"override at {site} has shape {action.q.shape}, expected {q.shape}"
            )
        q, k = action.q, action.k
    elif isinstance(action, AttentionPacket) and site[1] is AttnKind.CROSS:
        if action.q.shape != q.shape:
            raise ShapeMismatchError(
                f"override at {site} has shape {action.q.shape}, expected {q.shape}"
            )
        q, k, text = action.q, action.k, action.text_embedding
        v1 = _append_ones(action.v.swapaxes(-1, -2))
    elif action is not None:
        raise TopologyError(f"{type(action).__name__} does not apply at {site}")
    if captured is not None:
        captured[site] = AttentionPacket(
            _snapshot(q), _snapshot(k), _snapshot(v1[..., :-1, :].swapaxes(-1, -2)), text
        )
    return None if action is None else (_scaled(q.swapaxes(-1, -2)), k, v1)


# bounded: an edit, a grid or a benchmark worker builds its models from one
# config, but hypothesis properties and the steering seeds walk many, and an
# unbounded cache would keep every one of their weight sets alive
@functools.lru_cache(maxsize=4)
def _weight_set(
    cfg: ModelConfig,
) -> tuple[Mapping[str, np.ndarray], np.ndarray, tuple[tuple, ...], frozenset[Site]]:
    """A config's read-only weights, as every model of that config shares them.

    Returns the seeded weights by name, the cross operands' side-by-side
    weights, one record per block and the model's sites.  Every array is
    read-only, the weights are a read-only mapping and the records tuples.
    """
    rng = np.random.default_rng(cfg.seed)
    W = {
        name: rng.standard_normal(shape) / np.sqrt(shape[0])
        for name, shape in _weight_layout(cfg)
    }
    # the cross operands' weights side by side, so that K and V are one product
    cross_kv = np.hstack(
        [W[f"b{b}.cross.{n}"] for b in range(cfg.n_blocks) for n in ("wk", "wv")]
    )
    # one record per block for the feature-major stream, weights
    # transposed: self [wq | wk | wv] and wo (None in a cross-only block),
    # cross wq and wo, the null row, MLP w1 and w2.  Softmax over the
    # single null key is 1, so an unconditional branch's cross-attention
    # adds the same projected value column, the null row, at every token.
    blocks = []
    for b in range(cfg.n_blocks):
        w_qkv = self_wo = None
        if cfg.has_self(b):
            w_qkv = np.hstack([W[f"b{b}.self.{n}"] for n in ("wq", "wk", "wv")]).T
            self_wo = W[f"b{b}.self.wo"].T
        null_row = (W["null_token"] @ W[f"b{b}.cross.wv"] @ W[f"b{b}.cross.wo"]).T
        cross_wq, cross_wo, mlp_w1, mlp_w2 = (
            W[f"b{b}.{n}"].T for n in ("cross.wq", "cross.wo", "mlp.w1", "mlp.w2")
        )
        blocks.append((w_qkv, self_wo, cross_wq, cross_wo, null_row, mlp_w1, mlp_w2))
    for arr in (*W.values(), cross_kv, *(a for rec in blocks for a in rec if a is not None)):
        arr.setflags(write=False)
    sites = frozenset(
        (b, kind) for b in range(cfg.n_blocks) for kind in AttnKind if cfg.contains((b, kind))
    )
    return types.MappingProxyType(W), cross_kv, tuple(blocks), sites


class VelocityModel:
    """Seeded toy velocity network; weights are immutable after init.

    Models of equal configs share one read-only weight set: the seeded
    weights, a read-only mapping, and one record per block of transposed
    token-wise weights, side-by-side operand weights and null row, a tuple.
    ``_weight_set`` builds it once per config and keeps the sets of the
    last four configs used, beyond the models that hold them.  A call keeps
    nothing, so its bytes are those of a fresh model.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.weights, self._cross_kv, self._blocks, self._sites = _weight_set(cfg)

    def __reduce__(self):
        # the config describes the network: a copy or unpickled model shares its set
        return VelocityModel, (self.cfg,)

    # -- forward machinery ---------------------------------------------------

    def _forward(
        self, states: Sequence[State], sigma_t: float
    ) -> list[tuple[np.ndarray | None, np.ndarray | None, dict[Site, AttentionPacket]]]:
        """Each state's ``(v_cond, v_uncond, packets)`` at one noise level.

        A state is ``(latent, prompt, mu, plan)`` with a (C, H, W) latent.
        Its conditional pass attends to ``prompt`` under the plan and runs
        unless ``mu`` is 0 and the plan captures nothing, and its
        unconditional pass runs unless ``mu`` is 1.  If ``mu`` is not 0 and
        the plan has a fork rule and captures, a constrained pass runs too
        (see ``HookPlan``) and gives ``v_cond``.  A pass that did not run
        gives None, and ``packets`` are the conditional pass's captures by
        site.  The batch holds the conditional passes first, then the
        constrained ones; only the attention core loops over its branches,
        and the batch-wide steps act element by element, so a state's result
        does not depend on its batch.  Every buffer that grows with tokens
        times branches is cut from one block allocated here, as
        :func:`_scratch_layout` lays it out (see the module docstring).  A
        hook at a site the model lacks raises ``TopologyError``, and
        whatever a fork rule raises propagates.
        """
        cfg = self.cfg
        W = self.weights
        xs = [np.asarray(x) for x, _, _, _ in states]
        if not xs or xs[0].shape[:1] != (cfg.channels,) or any(
            x.ndim != 3 or x.shape != xs[0].shape for x in xs
        ):
            raise ShapeMismatchError(
                f"latents must be ({cfg.channels}, H, W) each, got {[x.shape for x in xs]}"
            )
        # the pass rule; branch i runs on state rows[i]: conditional passes,
        # constrained passes, then unconditional passes
        cond, forks, uncond = [], [], []
        for s, (_, p, mu, plan) in enumerate(states):
            if p.d_model != cfg.d_model:
                raise ShapeMismatchError(
                    f"prompt width {p.d_model} != model width {cfg.d_model}"
                )
            if mu != 0.0 or plan.capture:
                cond.append(s)
            if mu != 0.0 and plan.fork is not None and plan.capture:
                forks.append(s)
            if mu != 1.0:
                uncond.append(s)
            for sites in (plan.capture, plan.overrides.keys()):
                if not sites <= self._sites:
                    site = min(sites - self._sites, key=str)
                    raise TopologyError(f"hook site {site} not in the model")
        rows = cond + forks + uncond
        plans = [states[s][3] for s in cond + forks]
        probe = [cond.index(s) for s in forks]
        forked = [False] * len(forks)
        n_b, n_cond, n_att = len(rows), len(cond), len(cond) + len(forks)
        prompts = [states[s][1] for s in rows[:n_att]]
        c, h_grid, w_grid = xs[0].shape
        n_tok = h_grid * w_grid
        heads = cfg.n_heads
        # the residual stream, (rows, d_model, tokens)
        h = W["w_in"].T @ np.stack(xs).reshape(len(xs), c, n_tok)
        h += _positions(h_grid, w_grid, cfg.d_model)
        h += time_embedding(sigma_t, cfg.d_model)[:, None]

        # K and [V | 1]^T depend only on the prompt matrix's values: the
        # branches share them by value, built once per value
        built: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        operands = []
        for p in prompts:
            matrix = np.ascontiguousarray(p.matrix, dtype=np.float64)
            key = (matrix.shape, matrix.tobytes())
            if key not in built:
                built[key] = _cross_operands(matrix, self._cross_kv, heads)
            operands.append(built[key])
        packets: list[dict[Site, AttentionPacket]] = [{} for _ in states]

        def hooked(i, site, q, k, v1, text):
            """Attending branch i's operands after its hooks, or the branch whose core it copies.

            None means its own operands, unchanged.
            """
            plan = plans[i]
            action, capture = plan.overrides.get(site), site in plan.capture
            if i < n_cond:
                if action is None and not capture:
                    return None
                table = packets[cond[i]] if capture else None
                return _hook_site(action, site, q, k, v1, text, table)
            f = i - n_cond
            ruled = plan.fork(site, packets) if capture else None
            if ruled is None and not forked[f]:
                return probe[f]
            forked[f] = True
            if isinstance(ruled, AttentionPacket) and site[1] is AttnKind.CROSS:
                # a packet captured here in this call holds what its branch
                # consumed, so that branch's core is the injected one
                for j, s in enumerate(cond):
                    if packets[s].get(site) is ruled:
                        return j
            action = action if ruled is None else ruled
            return None if action is None else _hook_site(action, site, q, k, v1, text, None)

        # one block for every buffer that grows with tokens x branches, so
        # that glibc keeps its memory between calls (see the module docstring)
        layout = _scratch_layout(heads, cfg.d_model, n_tok, n_b)
        scratch = np.empty(sum(math.prod(shape) for shape in layout))
        parts, lo = [], 0
        for shape in layout:
            parts.append(_front(scratch[lo:], shape))
            lo += math.prod(shape)
        scores, weighted, attn, hidden = parts
        attn_heads = _head_view(attn, heads)
        for b, block in enumerate(self._blocks):
            w_qkv, self_wo, cross_wq, cross_wo, null_row, mlp_w1, mlp_w2 = block
            if w_qkv is not None:
                site = (b, AttnKind.SELF)
                qkv = _front(hidden, (len(h), 3 * cfg.d_model, n_tok))
                q, k, v1 = _self_operands(_layer_norm(h), w_qkv, heads, qkv)
                qs = _scaled(q)
                done: dict[int, int] = {}  # row -> the branch whose core reads it unchanged
                ops: list[tuple[np.ndarray, np.ndarray, np.ndarray] | int] = []
                for i, r in enumerate(rows):
                    op = hooked(i, site, q[r], k[r], v1[r], None) if i < n_att else None
                    if op is None:
                        first = done.setdefault(r, i)
                        op = (qs[r], k[r], v1[r]) if first == i else first
                    ops.append(op)
                _attend_site(ops, scores, weighted, attn_heads)
                if b == 0:  # one row per branch from here
                    h = h[rows]
                rows = range(n_b)
                h += self_wo @ attn

            site = (b, AttnKind.CROSS)
            if n_att:
                q = _head_view(cross_wq @ _layer_norm(h[:n_att]), heads)
                qs = _scaled(q)
                ops = []
                for i, (p, (k, v1)) in enumerate(zip(prompts, operands)):
                    op = hooked(i, site, q[i], k[b], v1[b], p)
                    ops.append((qs[i], k[b], v1[b]) if op is None else op)
                _attend_site(ops, None, weighted[:n_att], attn_heads[:n_att])
                h[:n_att] += cross_wo @ attn[:n_att]
            if n_att < n_b:
                h[n_att:] += null_row

            g = np.matmul(mlp_w1, _layer_norm(h), out=hidden[0])
            h += mlp_w2 @ _gelu_like(g, hidden[1])

        out = (W["w_out"].T @ _layer_norm(h)).reshape(n_b, c, h_grid, w_grid)
        v_cond, v_uncond = dict(zip(cond + forks, out)), dict(zip(uncond, out[n_att:]))
        return [(v_cond.get(s), v_uncond.get(s), packets[s]) for s in range(len(states))]

    def velocity(
        self,
        x: np.ndarray,
        p: PromptEmbedding,
        sigma_t: float,
        mu: float,
        hooks: HookPlan = EMPTY_PLAN,
    ) -> tuple[np.ndarray, dict[Site, AttentionPacket]]:
        """Guided velocity at state ``x`` and the packets captured by site.

        Hooks act on the conditional pass, as ``HookPlan`` says.  Both
        passes run as one model call and are blended by :func:`guide`; with
        ``mu`` of exactly 1 or 0 only the pass that enters the result runs
        (the conditional one also runs whenever the hooks capture).
        """
        if not np.isfinite(mu):
            raise ValueError("guidance scale must be finite")
        ((v_cond, v_uncond, captured),) = self._forward([(x, p, mu, hooks)], sigma_t)
        return guide(v_cond, v_uncond, mu), captured
