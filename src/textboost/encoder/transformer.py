"""Tiny bidirectional transformer encoder with hand-written backprop.

Architecture: token + position + segment embeddings -> LayerNorm ->
N blocks of (multi-head self-attention, residual, LayerNorm, GELU FFN,
residual, LayerNorm). Classification reads the CLS position through a
linear head; masked-token prediction reads masked positions through a
separate linear head. All math is float64 so central finite differences
resolve gradients to ~1e-10.

Classification (training, scoring, the CLS rows of weight sharing) needs
only position 0 of the last layer, so its last block runs the query, the
attention rows, the output projection, LN1, the FFN and LN2 for that row
alone; keys and values still cover every position, and the backward takes
the same loop with one query row. That block's dropout still draws full
(B, L, d) masks and keeps their first row, so the rng stream, and the CLS
row's masks, match the all-positions pass. The masked-token losses run every
position through every layer.

Both losses add their gradient into ``out`` when given, a zeroed vector that
``fit_loop`` reuses across steps, and into a fresh vector otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..textdata import SCORE_CHUNK, Packed
from . import nnops
from .config import EncoderConfig
from .nnops import DivergenceError
from .params import ModelSnapshot, init_param_vector, transformer_layout

_NEG_BIAS = -1e30  # additive mask for padded key positions


def _scatter_rows(ids: np.ndarray, grad: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) sums of the (..., d) rows of ``grad`` by their ``ids``: one
    bincount over ``id * d + j``. Each bin adds in order of appearance, as
    ``np.add.at`` does, so the sums are bit-equal to it."""
    d = grad.shape[-1]
    flat = (ids[..., None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=grad.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def head_probs(cls_h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Softmax rows of the linear classification head over CLS rows."""
    logits = cls_h @ w + b
    if not np.isfinite(logits).all():
        raise DivergenceError("classification head")
    return nnops.softmax_rows(logits)


class TransformerModel:
    """Mutable working model around a flat float64 parameter vector."""

    kind = "transformer"

    def __init__(self, config: EncoderConfig, params: Optional[np.ndarray] = None, *, seed=None):
        self.config = config
        self.layout = transformer_layout(config)
        if params is None:
            rng = np.random.default_rng(seed)
            params = init_param_vector(self.layout, rng)
        else:
            params = np.array(params, dtype=np.float64, copy=True)
        self.params = params
        self.p = self.layout.views(self.params)

    @classmethod
    def from_snapshot(cls, snap: ModelSnapshot) -> "TransformerModel":
        if snap.kind != "transformer":
            raise ValueError(f"snapshot kind {snap.kind!r} is not a transformer")
        return cls(snap.config, params=snap.params)

    def snapshot(self, role: str) -> ModelSnapshot:
        return ModelSnapshot(config=self.config, params=self.params, role=role)

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _trunk_forward(self, ids: np.ndarray, segs: np.ndarray, lengths: np.ndarray,
                       train: bool, rng, keep_cache: bool = False,
                       cls_only: bool = False) -> tuple[np.ndarray, Optional[dict]]:
        """Last hidden states (B, L, d), and the cache ``_trunk_backward``
        needs when ``keep_cache``; else None, so that a forward-only pass
        does not hold every layer's activations until it returns.

        With ``cls_only`` the last layer computes the CLS query alone and
        returns (B, 1, d): its keys and values still cover all L positions,
        and its dropout draws full (B, L, d) masks, so the rng stream and the
        CLS row's masks are those of the full pass.
        """
        cfg, p = self.config, self.p
        B, L = ids.shape
        if L > cfg.max_seq_len:
            raise ValueError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
        valid = np.arange(L)[None, :] < lengths[:, None]
        bias = np.where(valid, 0.0, _NEG_BIAS)[:, None, None, :]  # (B,1,1,L)

        x_sum = p["tok_emb"][ids] + p["pos_emb"][:L][None, :, :] + p["seg_emb"][segs]
        x_ln, emb_ln_cache = nnops.ln_forward(x_sum, p["emb_ln.g"], p["emb_ln.b"])
        h, emb_mask = nnops.dropout_forward(x_ln, cfg.dropout_rate, train, rng)
        if not np.isfinite(h).all():
            raise DivergenceError("embedding block")

        H, d = cfg.n_heads, cfg.d_model
        dh = d // H
        scale = 1.0 / np.sqrt(dh)
        full = (B, L, d)
        layer_caches = []
        for l in range(cfg.n_layers):
            pre = f"layer{l}"
            h_in = h
            Lq = 1 if cls_only and l == cfg.n_layers - 1 else L  # query rows
            h_q = h_in[:, :Lq]
            q = h_q @ p[f"{pre}.wq"] + p[f"{pre}.bq"]
            k = h_in @ p[f"{pre}.wk"] + p[f"{pre}.bk"]
            v = h_in @ p[f"{pre}.wv"] + p[f"{pre}.bv"]
            qh = q.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)
            kh = k.reshape(B, L, H, dh).transpose(0, 2, 1, 3)
            vh = v.reshape(B, L, H, dh).transpose(0, 2, 1, 3)
            scores = qh @ kh.transpose(0, 1, 3, 2) * scale + bias
            probs = nnops.softmax_rows(scores)
            ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, Lq, d)
            attn = ctx @ p[f"{pre}.wo"] + p[f"{pre}.bo"]
            attn_d, attn_mask = nnops.dropout_forward(attn, cfg.dropout_rate, train, rng, full)
            h1, ln1_cache = nnops.ln_forward(h_q + attn_d, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])

            act_in = h1 @ p[f"{pre}.w1"] + p[f"{pre}.b1"]
            act, act_t = nnops.gelu(act_in)
            ffn = act @ p[f"{pre}.w2"] + p[f"{pre}.b2"]
            ffn_d, ffn_mask = nnops.dropout_forward(ffn, cfg.dropout_rate, train, rng, full)
            h, ln2_cache = nnops.ln_forward(h1 + ffn_d, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
            if not np.isfinite(h).all():
                raise DivergenceError(f"encoder layer {l}")
            if keep_cache:
                layer_caches.append({
                    "h_in": h_in, "qh": qh, "kh": kh, "vh": vh, "probs": probs,
                    "ctx": ctx, "attn_mask": attn_mask, "ln1": ln1_cache, "h1": h1,
                    "act_in": act_in, "act": act, "act_t": act_t, "ffn_mask": ffn_mask,
                    "ln2": ln2_cache,
                })
        if not keep_cache:
            return h, None
        cache = {
            "ids": ids, "segs": segs, "L": L, "B": B,
            "emb_ln": emb_ln_cache, "emb_mask": emb_mask, "layers": layer_caches,
        }
        return h, cache

    def _trunk_backward(self, d_h: np.ndarray, cache: dict, g: dict[str, np.ndarray]) -> None:
        """Adds the gradients of the trunk to ``g``, given ``d_h`` of the
        shape ``_trunk_forward`` returned: (B, 1, d) after a ``cls_only`` pass."""
        cfg, p = self.config, self.p
        B, L = cache["B"], cache["L"]
        H, d = cfg.n_heads, cfg.d_model
        dh = d // H
        scale = 1.0 / np.sqrt(dh)
        for l in reversed(range(cfg.n_layers)):
            pre = f"layer{l}"
            c = cache["layers"][l]
            Lq = d_h.shape[1]  # the layer's query rows
            d_res2, dln2g, dln2b = nnops.ln_backward(d_h, c["ln2"], p[f"{pre}.ln2.g"])
            g[f"{pre}.ln2.g"] += dln2g
            g[f"{pre}.ln2.b"] += dln2b
            d_h1 = d_res2.copy()
            d_ffn = nnops.dropout_backward(d_res2, c["ffn_mask"])

            act2d = c["act"].reshape(-1, cfg.d_ffn)
            d_ffn2d = d_ffn.reshape(-1, d)
            g[f"{pre}.w2"] += act2d.T @ d_ffn2d
            g[f"{pre}.b2"] += d_ffn2d.sum(axis=0)
            d_act = d_ffn @ p[f"{pre}.w2"].T
            d_actin = d_act * nnops.gelu_grad(c["act_in"], c["act_t"])
            h1_2d = c["h1"].reshape(-1, d)
            d_actin2d = d_actin.reshape(-1, cfg.d_ffn)
            g[f"{pre}.w1"] += h1_2d.T @ d_actin2d
            g[f"{pre}.b1"] += d_actin2d.sum(axis=0)
            d_h1 += d_actin @ p[f"{pre}.w1"].T

            d_res1, dln1g, dln1b = nnops.ln_backward(d_h1, c["ln1"], p[f"{pre}.ln1.g"])
            g[f"{pre}.ln1.g"] += dln1g
            g[f"{pre}.ln1.b"] += dln1b
            d_hin = np.zeros((B, L, d))
            d_hin[:, :Lq] = d_res1
            d_attn = nnops.dropout_backward(d_res1, c["attn_mask"])

            ctx2d = c["ctx"].reshape(-1, d)
            d_attn2d = d_attn.reshape(-1, d)
            g[f"{pre}.wo"] += ctx2d.T @ d_attn2d
            g[f"{pre}.bo"] += d_attn2d.sum(axis=0)
            d_ctx = (d_attn @ p[f"{pre}.wo"].T).reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)

            probs = c["probs"]
            d_probs = d_ctx @ c["vh"].transpose(0, 1, 3, 2)
            d_vh = probs.transpose(0, 1, 3, 2) @ d_ctx
            d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
            d_qh = d_scores @ c["kh"] * scale
            d_kh = d_scores.transpose(0, 1, 3, 2) @ c["qh"] * scale

            for nm, dm in (("wq", d_qh), ("wk", d_kh), ("wv", d_vh)):
                rows = dm.shape[2]  # Lq for the query, L for keys and values
                d_flat = dm.transpose(0, 2, 1, 3).reshape(-1, d)
                g[f"{pre}.{nm}"] += c["h_in"][:, :rows].reshape(-1, d).T @ d_flat
                g[f"{pre}.b{nm[1]}"] += d_flat.sum(axis=0)
                d_hin[:, :rows] += (d_flat @ p[f"{pre}.{nm}"].T).reshape(B, rows, d)
            d_h = d_hin

        d_xln = nnops.dropout_backward(d_h, cache["emb_mask"])
        d_xsum, dg, db = nnops.ln_backward(d_xln, cache["emb_ln"], p["emb_ln.g"])
        g["emb_ln.g"] += dg
        g["emb_ln.b"] += db
        g["tok_emb"] += _scatter_rows(cache["ids"], d_xsum, cfg.vocab_size)
        g["pos_emb"][:L] += d_xsum.sum(axis=0)
        g["seg_emb"] += _scatter_rows(cache["segs"], d_xsum, 2)

    def forward_probs(self, batch: Packed, train_mode: bool = False, rng=None) -> np.ndarray:
        """Per-example softmax over the K classes; rows sum to 1."""
        h, _ = self._trunk_forward(batch.ids, batch.segs, batch.lengths, train_mode, rng,
                                   cls_only=True)
        return head_probs(h[:, 0, :], self.p["cls.w"], self.p["cls.b"])

    def cls_rows(self, batch: Packed) -> np.ndarray:
        """Eval-mode (B, d_model) CLS rows of the last layer."""
        h, _ = self._trunk_forward(batch.ids, batch.segs, batch.lengths, False, None,
                                   cls_only=True)
        return h[:, 0, :]

    def predict_proba(self, batch: Packed, chunk: int = SCORE_CHUNK) -> np.ndarray:
        """Eval-mode probabilities, chunked over large inputs."""
        out = np.empty((batch.n, self.config.K), dtype=np.float64)
        for idx, part in batch.chunks(chunk):
            out[idx] = self.forward_probs(part)
        return out

    def predict_proba_heads(
        self, batch: Packed, heads: list[tuple[np.ndarray, np.ndarray]],
        chunk: int = SCORE_CHUNK,
    ) -> np.ndarray:
        """(n, M, K) eval-mode probabilities of M (w, b) classification heads
        over this trunk: one trunk pass per chunk serves every head, and each
        head's rows equal ``predict_proba`` of the model carrying that head."""
        out = np.empty((batch.n, len(heads), self.config.K), dtype=np.float64)
        for idx, part in batch.chunks(chunk):
            cls_h = self.cls_rows(part)
            for m, (w, b) in enumerate(heads):
                out[idx, m] = head_probs(cls_h, w, b)
        return out

    # ------------------------------------------------------------------
    # losses and gradients
    # ------------------------------------------------------------------
    def _grad_vector(self, out: Optional[np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        flat = np.zeros_like(self.params) if out is None else out
        return flat, self.layout.views(flat)

    def clf_ranges(self) -> tuple[slice, ...]:
        """The parameter ranges ``clf_loss_and_grad`` reaches: all but the
        masked-token head."""
        mlm, cls = self.layout.slice_of("mlm.w"), self.layout.slice_of("cls.w")
        return slice(0, mlm.start), slice(cls.start, self.params.size)

    def mlm_ranges(self) -> tuple[slice, ...]:
        """The parameter ranges ``mlm_loss_and_grad`` reaches: all but the
        classification head."""
        return (slice(0, self.layout.slice_of("cls.w").start),)

    def clf_loss_and_grad(
        self,
        batch: Packed,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        train_mode: bool = False,
        rng=None,
        out: Optional[np.ndarray] = None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Weighted cross-entropy against hard labels or soft distributions.

        ``targets`` is either an int vector of label ids or a (B, K) matrix
        of target distributions. Returns (scalar loss, per-example losses,
        flat gradient); the scalar is the batch mean of w_i * CE_i. The
        gradient is added into ``out`` (zeroed by the caller) when given.
        """
        B = batch.n
        weights = np.ones(B) if weights is None else np.asarray(weights, dtype=np.float64)
        targets = np.asarray(targets)
        if targets.ndim == 1:
            t = np.zeros((B, self.config.K), dtype=np.float64)
            t[np.arange(B), targets.astype(np.int64)] = 1.0
        else:
            t = targets.astype(np.float64)

        h, cache = self._trunk_forward(batch.ids, batch.segs, batch.lengths, train_mode, rng,
                                       keep_cache=True, cls_only=True)
        cls_h = h[:, 0, :]
        logits = cls_h @ self.p["cls.w"] + self.p["cls.b"]
        probs = nnops.softmax_rows(logits)
        per_example = weights * -(t * np.log(np.maximum(probs, nnops.PROB_FLOOR))).sum(axis=1)
        loss = float(per_example.mean())

        d_logits = (probs - t) * (weights / B)[:, None]
        g, gv = self._grad_vector(out)
        gv["cls.w"] += cls_h.T @ d_logits
        gv["cls.b"] += d_logits.sum(axis=0)
        d_h = (d_logits @ self.p["cls.w"].T)[:, None, :]
        self._trunk_backward(d_h, cache, gv)
        return loss, per_example, g

    def mlm_loss_and_grad(
        self,
        ids: np.ndarray,
        lengths: np.ndarray,
        mask_rows: np.ndarray,
        mask_cols: np.ndarray,
        target_ids: np.ndarray,
        train_mode: bool = False,
        rng=None,
        out: Optional[np.ndarray] = None,
    ) -> tuple[float, np.ndarray]:
        """Cross-entropy at masked positions; mean over all masked slots. The
        (row, col) pairs are distinct. The gradient is added into ``out``
        (zeroed by the caller) when given."""
        segs = np.zeros_like(ids)
        h, cache = self._trunk_forward(ids, segs, lengths, train_mode, rng, keep_cache=True)
        hm = h[mask_rows, mask_cols]  # (N, d)
        logits = hm @ self.p["mlm.w"] + self.p["mlm.b"]
        probs = nnops.softmax_rows(logits)
        n_mask = hm.shape[0]
        picked = np.maximum(probs[np.arange(n_mask), target_ids], nnops.PROB_FLOOR)
        loss = float(-np.log(picked).mean())

        d_logits = probs.copy()
        d_logits[np.arange(n_mask), target_ids] -= 1.0
        d_logits /= n_mask
        g, gv = self._grad_vector(out)
        gv["mlm.w"] += hm.T @ d_logits
        gv["mlm.b"] += d_logits.sum(axis=0)
        d_h = np.zeros_like(h)
        d_h[mask_rows, mask_cols] = d_logits @ self.p["mlm.w"].T
        self._trunk_backward(d_h, cache, gv)
        return loss, g
