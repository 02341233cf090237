"""Reference implementations written apart from ``src/``, for tests to compare against.

Each one states a computation the plain way, from the model's weights and
public building blocks, with none of the fast path's batching, sharing or
copying.
"""

from __future__ import annotations

import numpy as np

from fiaedit.model import AttnKind, ReplaceQK, ReplaceQKVE, position_features, time_embedding


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
                elif isinstance(action, ReplaceQKVE):
                    q, k, v = action.packet.q, action.packet.k, action.packet.v
                if conditional and site in plan.capture:
                    packets[site] = (q, k, v)
                h = h + attention(q, k, v, f"{name}.wo")
            g = np.einsum("td,de->te", layer_norm(h), W[f"b{b}.mlp.w1"])
            h = h + np.einsum("td,de->te", g / (1.0 + np.exp(-1.702 * g)), W[f"b{b}.mlp.w2"])
        out = np.einsum("td,dc->ct", layer_norm(h), W["w_out"])
        return out.reshape(c, rows, cols)

    packets = {}
    return run(True, packets), run(False, {}), packets
