"""Independent re-implementation of the transformer forward pass.

Written for clarity, one example at a time with explicit per-head loops; it
shares no code with the batched implementation and exists purely to
cross-check it. Eval mode only (no dropout).
"""

import numpy as np

LN_EPS = 1e-5
GELU_C0 = 0.7978845608028654
GELU_C1 = 0.044715


def _layer_norm(x, gamma, beta):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = row.var()
        out[i] = gamma * (row - mu) / np.sqrt(var + LN_EPS) + beta
    return out


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_C0 * (x + GELU_C1 * x**3)))


def reference_probs(snapshot, token_ids, segment_ids):
    """Class probabilities for ONE example (lists of ids), eval mode."""
    cfg = snapshot.config
    p = snapshot.layout.views(snapshot.params)
    L = len(token_ids)
    d, H = cfg.d_model, cfg.n_heads
    dh = d // H

    x = np.zeros((L, d))
    for i, (tok, seg) in enumerate(zip(token_ids, segment_ids)):
        x[i] = p["tok_emb"][tok] + p["pos_emb"][i] + p["seg_emb"][seg]
    h = _layer_norm(x, p["emb_ln.g"], p["emb_ln.b"])

    for l in range(cfg.n_layers):
        pre = f"layer{l}"
        q = h @ p[f"{pre}.wq"] + p[f"{pre}.bq"]
        k = h @ p[f"{pre}.wk"] + p[f"{pre}.bk"]
        v = h @ p[f"{pre}.wv"] + p[f"{pre}.bv"]
        ctx = np.zeros((L, d))
        for head in range(H):
            sl = slice(head * dh, (head + 1) * dh)
            qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
            for i in range(L):
                scores = np.array([qh[i] @ kh[j] for j in range(L)]) / np.sqrt(dh)
                attn = _softmax(scores)
                ctx[i, sl] = sum(attn[j] * vh[j] for j in range(L))
        attn_out = ctx @ p[f"{pre}.wo"] + p[f"{pre}.bo"]
        h1 = _layer_norm(h + attn_out, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        ffn = _gelu(h1 @ p[f"{pre}.w1"] + p[f"{pre}.b1"]) @ p[f"{pre}.w2"] + p[f"{pre}.b2"]
        h = _layer_norm(h1 + ffn, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])

    logits = h[0] @ p["cls.w"] + p["cls.b"]
    return _softmax(logits)
