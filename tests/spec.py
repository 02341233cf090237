"""Reference implementations written apart from ``src/``, for tests to compare against.

Each one states a computation the plain way, from the model's weights and
public building blocks, with none of the fast path's batching, sharing or
copying.
"""

from __future__ import annotations

import math

import numpy as np

from fiaedit.fia import FriMode
from fiaedit.model import (
    AttentionPacket,
    AttnKind,
    HookPlan,
    ReplaceQK,
    guide,
    position_features,
    time_embedding,
)
from fiaedit.spectral import fri_fuse, make_gaussian_lowpass


def reference_forward(model, x, prompt, sigma, plan):
    """One state's passes, token-major, by einsum and a max-shifted softmax.

    Written apart from the model's own forward: the residual stream is
    (tokens, d_model), every product is an einsum, and attention is an
    explicit softmax over the keys.  The plan's hooks act on the
    conditional pass.  Returns ``(v_cond, v_uncond, packets)`` with each
    packet's Q, K and V, (heads, tokens, d_head).
    """
    cfg, W = model.cfg, model.weights
    d, heads = cfg.d_model, cfg.n_heads
    c, rows, cols = x.shape

    def layer_norm(z):
        centered = z - z.mean(axis=-1, keepdims=True)
        return centered / np.sqrt(np.square(centered).mean(axis=-1, keepdims=True) + 1e-6)

    def project(z, name):  # (tokens, d) -> (heads, tokens, d_head)
        out = np.einsum("td,de->te", z, W[name])
        return out.reshape(len(z), heads, d // heads).transpose(1, 0, 2)

    def attention(q, k, v, wo):
        scores = np.einsum("hqe,hke->hqk", q, k) / np.sqrt(d // heads)
        weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights /= weights.sum(axis=-1, keepdims=True)
        merged = np.einsum("hqk,hke->qhe", weights, v).reshape(-1, d)
        return np.einsum("td,de->te", merged, W[wo])

    def run(conditional, packets):
        h = np.einsum("ct,cd->td", x.reshape(c, -1), W["w_in"])
        h = h + position_features(rows, cols, d) + time_embedding(sigma, d)
        text = prompt.matrix if conditional else W["null_token"]
        for b in range(cfg.n_blocks):
            for kind in AttnKind:
                site, kv = (b, kind), (text if kind is AttnKind.CROSS else None)
                if not cfg.contains(site):
                    continue
                hn = layer_norm(h)
                name = f"b{b}.{kind.value}"
                q = project(hn, f"{name}.wq")
                k, v = (project(hn if kv is None else kv, f"{name}.{w}") for w in ("wk", "wv"))
                action = plan.overrides.get(site) if conditional else None
                if isinstance(action, ReplaceQK):
                    q, k = action.q, action.k
                elif isinstance(action, AttentionPacket):
                    q, k, v = action.q, action.k, action.v
                if conditional and site in plan.capture:
                    packets[site] = (q, k, v)
                h = h + attention(q, k, v, f"{name}.wo")
            g = np.einsum("td,de->te", layer_norm(h), W[f"b{b}.mlp.w1"])
            h = h + np.einsum("td,de->te", g / (1.0 + np.exp(-1.702 * g)), W[f"b{b}.mlp.w2"])
        out = np.einsum("td,dc->ct", layer_norm(h), W["w_out"])
        return out.reshape(c, rows, cols)

    packets = {}
    return run(True, packets), run(False, {}), packets


def constrained_sites(cfg, model_cfg, step, total):
    """The sites one step constrains, read off a ``FiaConfig`` as the paper states them.

    Every self site under frequency interaction, and the cross sites of the
    injection block range (by default the cross-only tail) while the
    injection window, by default the first ceil(0.54 * total) steps, is open.
    """
    sites = set()
    if cfg.fri_enabled:
        sites.update((b, AttnKind.SELF) for b in range(model_cfg.n_blocks_dual))
    cutoff = math.ceil(0.54 * total) if cfg.fij_step_cutoff is None else cfg.fij_step_cutoff
    if cfg.fij_enabled and step < cutoff:
        lo, hi = cfg.fij_block_range or (model_cfg.n_blocks_dual, model_cfg.n_blocks - 1)
        sites.update((b, AttnKind.CROSS) for b in range(lo, hi + 1))
    return sites


def fused_qk(cfg, src, tar, grid):
    """A self site's fused Q/K, or None where fusion is the identity map.

    It is the identity when the source and target Q/K are bit-identical and
    the blend is ``ADD``'s mean or ``FREQ`` weights that sum to 1.  ``FREQ``
    fuses each of Q and K on its own, as (heads * d_head, h, w) channel grids.
    """
    identical = np.array_equal(src.q, tar.q) and np.array_equal(src.k, tar.k)
    weights = cfg.fusion
    if identical and (cfg.fri_mode is FriMode.ADD or weights.lambda1 + weights.lambda2 == 1.0):
        return None
    if cfg.fri_mode is FriMode.ADD:
        return ReplaceQK(q=0.5 * (src.q + tar.q), k=0.5 * (src.k + tar.k))
    heads, n_tok, d_head = src.q.shape
    filt = make_gaussian_lowpass(*grid, cfg.filter_sigma)

    def fuse(s, t):
        s, t = (a.transpose(0, 2, 1).reshape(heads * d_head, *grid) for a in (s, t))
        return fri_fuse(s, t, filt, weights).reshape(heads, d_head, n_tok).transpose(0, 2, 1)

    return ReplaceQK(q=fuse(src.q, tar.q), k=fuse(src.k, tar.k))


def reference_step(model, x_src, x_tars, p_src, p_tars, sigma, step, total, guidance, cfgs):
    """One step's source velocity and each target's constrained velocity, the plain way.

    Every pass is a ``VelocityModel.velocity`` call of its own.  The source
    captures the sites of every target, and each target's unconstrained
    probe its own (none when ``mu_tar`` is 0).  A target's overrides are
    built site by site from the source and probe packets: an injection
    site takes the source packet, and a fusion site the fused Q/K of
    :func:`fused_qk`.  The target's conditional pass then reruns with them
    as static hooks, its unconditional pass runs plain, and ``guide``
    blends the two.
    """
    mu = guidance.mu_tar
    sites = [constrained_sites(cfg, model.cfg, step, total) if mu != 0.0 else set() for cfg in cfgs]
    capture = HookPlan(capture=frozenset().union(*sites))
    v_src, src = model.velocity(x_src, p_src, sigma, guidance.mu_src, hooks=capture)
    v_tars = []
    for x, p, cfg, own in zip(x_tars, p_tars, cfgs, sites, strict=True):
        _, probe = model.velocity(x, p, sigma, 1.0, hooks=HookPlan(capture=frozenset(own)))
        overrides = {}
        for site in own:
            if site[1] is AttnKind.CROSS:
                overrides[site] = src[site]
            elif (qk := fused_qk(cfg, src[site], probe[site], x.shape[-2:])) is not None:
                overrides[site] = qk
        v_cond, _ = model.velocity(x, p, sigma, 1.0, hooks=HookPlan(overrides=overrides))
        v_uncond, _ = model.velocity(x, p, sigma, 0.0)
        v_tars.append(guide(v_cond, v_uncond, mu))
    return v_src, v_tars
