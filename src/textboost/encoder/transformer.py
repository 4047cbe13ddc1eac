"""Tiny bidirectional transformer encoder with hand-written backprop.

Architecture: token + position + segment embeddings -> LayerNorm ->
N blocks of (multi-head self-attention, residual, LayerNorm, GELU FFN,
residual, LayerNorm). Classification reads the CLS position through a
linear head; masked-token prediction reads masked positions through a
separate linear head. All math is float64 so central finite differences
resolve gradients to ~1e-10.

Each loss runs the last block for the positions it reads alone: the CLS
row for classification (training, scoring, the CLS rows of weight sharing),
each sequence's masked columns for the masked-token loss. ``_trunk_forward``
takes them as a (B, Q) array of query positions. The last block's keys and
values still cover every position; its query, attention rows, output
projection, LN1, FFN and LN2 run on the Q gathered rows, and the backward
writes those rows into a zeroed input gradient. Its dropout still draws full
(B, L, d) masks and gathers the same rows, so the rng stream, and the masks
of those rows, match the all-positions pass.

Both losses add their gradient into ``out`` when given, a zeroed vector that
``fit_loop`` reuses across steps, and into a fresh vector otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..textdata import Packed, segment_ids
from . import nnops
from .nnops import DivergenceError
from .params import FlatModel

_NEG_BIAS = -1e30  # additive mask for padded key positions


def _cls_query(B: int) -> np.ndarray:
    """The last layer's query positions of classification: the CLS row."""
    return np.zeros((B, 1), dtype=np.intp)


def _masked_query(rows: np.ndarray, cols: np.ndarray, B: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, Q) query positions holding each sequence's masked columns, padded
    with position 0, and the slot of each (row, col) pair in its row."""
    counts = np.bincount(rows, minlength=B)
    order = np.argsort(rows, kind="stable")
    slots = np.empty_like(rows)
    slots[order] = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    query = np.zeros((B, counts.max()), dtype=np.intp)
    query[rows, slots] = cols
    return query, slots


def _discard(**arrays) -> None:
    """The cache of a forward-only pass: it keeps nothing."""


def _scatter_rows(ids: np.ndarray, grad: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, d) sums of the (..., d) rows of ``grad`` by their ``ids``: one
    bincount over ``id * d + j``. Each bin adds in order of appearance, as
    ``np.add.at`` does, so the sums are bit-equal to it."""
    d = grad.shape[-1]
    flat = (ids[..., None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=grad.ravel(), minlength=n_rows * d).reshape(n_rows, d)


class TransformerModel(FlatModel):
    """The tiny transformer encoder under the classification head, with its
    masked-token head."""

    kind = "transformer"

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------
    def _trunk_forward(self, ids: np.ndarray, lengths: np.ndarray, train: bool, rng,
                       keep_cache: bool = False,
                       query: Optional[np.ndarray] = None) -> tuple[np.ndarray, Optional[dict]]:
        """Last hidden states (B, L, d), and the cache ``_trunk_backward``
        needs when ``keep_cache``; else None. Each activation is dropped once
        its last reader has run unless ``keep`` puts it in the cache, so a
        forward-only pass holds only its live arrays, and its GELU writes into
        its input. The segment ids follow from the SEP positions
        (``segment_ids``).

        ``query``, a (B, Q) array of positions, makes the last layer compute
        those rows alone and return (B, Q, d): its keys and values still
        cover all L positions, and its dropout draws full (B, L, d) masks and
        gathers the same rows, so the rng stream and those rows' masks are
        the full pass's. A row's positions must be distinct, except for
        repeats of position 0 whose outputs the loss does not read.
        """
        cfg, p = self.config, self.p
        B, L = ids.shape
        if L > cfg.max_seq_len:
            raise ValueError(f"sequence length {L} exceeds max_seq_len {cfg.max_seq_len}")
        valid = np.arange(L)[None, :] < lengths[:, None]
        bias = np.where(valid, 0.0, _NEG_BIAS)[:, None, None, :]  # (B,1,1,L)
        segs = segment_ids(ids, lengths)
        cache = {"ids": ids, "segs": segs, "L": L, "B": B, "layers": []}
        keep = cache.update if keep_cache else _discard

        x = p["tok_emb"][ids]
        x += p["pos_emb"][:L]
        x += p["seg_emb"][segs]
        x, emb_ln = nnops.ln_forward(x, p["emb_ln.g"], p["emb_ln.b"])
        h, emb_mask = nnops.dropout_forward(x, cfg.dropout_rate, train, rng)
        keep(emb_ln=emb_ln, emb_mask=emb_mask)
        del x, emb_ln, emb_mask
        if not np.isfinite(h).all():
            raise DivergenceError("embedding block")

        H, d = cfg.n_heads, cfg.d_model
        dh = d // H
        scale = 1.0 / np.sqrt(dh)
        full = (B, L, d)
        for l in range(cfg.n_layers):
            pre = f"layer{l}"
            if keep_cache:
                cache["layers"].append({})
                keep = cache["layers"][-1].update
            h_in = h
            del h
            rows = None  # the query rows: every position but in the last layer
            if query is not None and l == cfg.n_layers - 1:
                rows = (np.arange(B)[:, None], query)
            h_q = h_in if rows is None else h_in[rows]
            Lq = h_q.shape[1]
            q = h_q @ p[f"{pre}.wq"]
            q += p[f"{pre}.bq"]
            k = h_in @ p[f"{pre}.wk"]
            k += p[f"{pre}.bk"]
            v = h_in @ p[f"{pre}.wv"]
            v += p[f"{pre}.bv"]
            qh = q.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)
            kh = k.reshape(B, L, H, dh).transpose(0, 2, 1, 3)
            vh = v.reshape(B, L, H, dh).transpose(0, 2, 1, 3)
            scores = qh @ kh.transpose(0, 1, 3, 2)
            keep(h_in=h_in, rows=rows, qh=qh, kh=kh)
            del q, k, qh, kh
            scores *= scale
            scores += bias
            probs = nnops.softmax_rows(scores, out=scores)
            ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, Lq, d)
            keep(vh=vh, probs=probs, ctx=ctx)
            del scores, probs, v, vh
            attn = ctx @ p[f"{pre}.wo"]
            attn += p[f"{pre}.bo"]
            attn, attn_mask = nnops.dropout_forward(attn, cfg.dropout_rate, train, rng, full,
                                                    rows)
            attn += h_q
            keep(h_q=h_q, attn_mask=attn_mask)
            del ctx, h_in, h_q, attn_mask
            h1, ln1 = nnops.ln_forward(attn, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
            keep(ln1=ln1, h1=h1)
            del attn, ln1

            act_in = h1 @ p[f"{pre}.w1"]
            act_in += p[f"{pre}.b1"]
            act, act_t = nnops.gelu(act_in, out=None if keep_cache else act_in)
            keep(act_in=act_in, act=act, act_t=act_t)
            del act_in, act_t
            ffn = act @ p[f"{pre}.w2"]
            del act
            ffn += p[f"{pre}.b2"]
            ffn, ffn_mask = nnops.dropout_forward(ffn, cfg.dropout_rate, train, rng, full, rows)
            ffn += h1
            keep(ffn_mask=ffn_mask)
            del h1, ffn_mask
            h, ln2 = nnops.ln_forward(ffn, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
            keep(ln2=ln2)
            del ffn, ln2
            if not np.isfinite(h).all():
                raise DivergenceError(f"encoder layer {l}")
        return h, cache if keep_cache else None

    def _trunk_backward(self, d_h: np.ndarray, cache: dict, g: dict[str, np.ndarray]) -> None:
        """Adds the gradients of the trunk to ``g``, given ``d_h`` of the
        shape ``_trunk_forward`` returned: (B, Q, d) after a ``query`` pass.
        It spends ``cache``: each layer's activations are popped as the loop
        reaches it and each array is dropped after its last read, so the live
        set shrinks as the backward runs."""
        cfg, p = self.config, self.p
        B, L = cache["B"], cache["L"]
        H, d = cfg.n_heads, cfg.d_model
        dh = d // H
        scale = 1.0 / np.sqrt(dh)
        for l in reversed(range(cfg.n_layers)):
            pre = f"layer{l}"
            c = cache["layers"].pop()
            Lq = d_h.shape[1]  # the layer's query rows
            d_res2, dln2g, dln2b = nnops.ln_backward(d_h, c.pop("ln2"), p[f"{pre}.ln2.g"])
            g[f"{pre}.ln2.g"] += dln2g
            g[f"{pre}.ln2.b"] += dln2b
            # d_ffn is d_res2 itself without dropout; it is last read
            # before d_h1 = d_res2 takes the FFN's input gradient
            d_ffn = nnops.dropout_backward(d_res2, c.pop("ffn_mask"))

            act2d = c.pop("act").reshape(-1, cfg.d_ffn)
            d_ffn2d = d_ffn.reshape(-1, d)
            g[f"{pre}.w2"] += act2d.T @ d_ffn2d
            g[f"{pre}.b2"] += np.add.reduce(d_ffn2d, axis=0)
            d_actin = d_ffn @ p[f"{pre}.w2"].T
            del act2d, d_ffn2d, d_ffn
            d_actin *= nnops.gelu_grad(c.pop("act_in"), c.pop("act_t"))
            h1_2d = c.pop("h1").reshape(-1, d)
            d_actin2d = d_actin.reshape(-1, cfg.d_ffn)
            g[f"{pre}.w1"] += h1_2d.T @ d_actin2d
            g[f"{pre}.b1"] += np.add.reduce(d_actin2d, axis=0)
            d_h1 = d_res2
            d_h1 += d_actin @ p[f"{pre}.w1"].T
            del h1_2d, d_actin2d, d_actin, d_res2

            d_res1, dln1g, dln1b = nnops.ln_backward(d_h1, c.pop("ln1"), p[f"{pre}.ln1.g"])
            del d_h1
            g[f"{pre}.ln1.g"] += dln1g
            g[f"{pre}.ln1.b"] += dln1b
            d_attn = nnops.dropout_backward(d_res1, c.pop("attn_mask"))

            ctx2d = c.pop("ctx").reshape(-1, d)
            d_attn2d = d_attn.reshape(-1, d)
            g[f"{pre}.wo"] += ctx2d.T @ d_attn2d
            g[f"{pre}.bo"] += np.add.reduce(d_attn2d, axis=0)
            d_ctx = (d_attn @ p[f"{pre}.wo"].T).reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)
            del ctx2d, d_attn2d, d_attn

            probs = c.pop("probs")
            d_probs = d_ctx @ c.pop("vh").transpose(0, 1, 3, 2)
            d_vh = probs.transpose(0, 1, 3, 2) @ d_ctx
            del d_ctx
            d_scores = d_probs  # probs * (d_probs - sum(d_probs * probs))
            d_scores -= np.add.reduce(d_probs * probs, axis=-1, keepdims=True)
            d_scores *= probs
            del d_probs, probs
            d_qh = d_scores @ c.pop("kh")
            d_qh *= scale
            d_kh = d_scores.transpose(0, 1, 3, 2) @ c.pop("qh")
            d_kh *= scale
            del d_scores

            h_in = c.pop("h_in")
            d_q = self._projection_backward(g, pre, "q", d_qh, c.pop("h_q"))
            del d_qh
            d_k = self._projection_backward(g, pre, "k", d_kh, h_in)
            del d_kh
            d_v = self._projection_backward(g, pre, "v", d_vh, h_in)
            del d_vh, h_in
            # d_res1 is d_attn itself without dropout; its last read is above
            d_res1 += d_q
            rows = c.pop("rows")
            if rows is None:
                d_h = d_res1
            else:
                d_h = np.zeros((B, L, d))
                d_h[rows] = d_res1
            d_h += d_k
            d_h += d_v
            del d_q, d_res1, d_k, d_v

        d_xln = nnops.dropout_backward(d_h, cache["emb_mask"])
        d_xsum, dg, db = nnops.ln_backward(d_xln, cache["emb_ln"], p["emb_ln.g"])
        g["emb_ln.g"] += dg
        g["emb_ln.b"] += db
        g["tok_emb"] += _scatter_rows(cache["ids"], d_xsum, cfg.vocab_size)
        g["pos_emb"][:L] += np.add.reduce(d_xsum, axis=0)
        g["seg_emb"] += _scatter_rows(cache["segs"], d_xsum, 2)

    def _projection_backward(self, g: dict[str, np.ndarray], pre: str, nm: str,
                             d_out: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Adds the gradients of the projection ``x @ w{nm} + b{nm}`` of layer
        ``pre`` to ``g``, given ``d_out`` in (B, H, rows, dh) head layout;
        returns the gradient of ``x``."""
        d_flat = d_out.transpose(0, 2, 1, 3).reshape(-1, x.shape[-1])
        g[f"{pre}.w{nm}"] += x.reshape(-1, x.shape[-1]).T @ d_flat
        g[f"{pre}.b{nm}"] += np.add.reduce(d_flat, axis=0)
        return (d_flat @ self.p[f"{pre}.w{nm}"].T).reshape(x.shape)

    def features(self, batch: Packed) -> np.ndarray:
        """Eval-mode (B, d_model) CLS rows of the last layer."""
        h, _ = self._trunk_forward(batch.ids, batch.lengths, False, None,
                                   query=_cls_query(batch.n))
        return h[:, 0, :]

    def forward_probs(self, batch: Packed) -> np.ndarray:
        """Eval-mode per-example softmax over the K classes; rows sum to 1."""
        return self.head_probs(self.features(batch))

    # ------------------------------------------------------------------
    # losses and gradients
    # ------------------------------------------------------------------
    def clf_ranges(self) -> tuple[slice, ...]:
        """The parameter ranges ``clf_loss_and_grad`` reaches: all but the
        masked-token head."""
        return slice(0, self.layout.slice_of("mlm.w").start), self.layout.head

    def mlm_ranges(self) -> tuple[slice, ...]:
        """The parameter ranges ``mlm_loss_and_grad`` reaches: all but the
        classification head."""
        return (slice(0, self.layout.head.start),)

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
        h, cache = self._trunk_forward(batch.ids, batch.lengths, train_mode, rng,
                                       keep_cache=True, query=_cls_query(batch.n))
        loss, per_example, g, gv, d_logits = self._head_loss(h[:, 0, :], targets, weights, out)
        self._trunk_backward((d_logits @ self.p["cls.w"].T)[:, None, :], cache, gv)
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
        (row, col) pairs are distinct, and position 0 (CLS) is never masked.
        The last layer runs for the masked positions alone. The gradient is
        added into ``out`` (zeroed by the caller) when given."""
        if (mask_cols < 1).any():
            raise ValueError("position 0 (CLS) cannot be masked")
        query, slots = _masked_query(mask_rows, mask_cols, ids.shape[0])
        h, cache = self._trunk_forward(ids, lengths, train_mode, rng, keep_cache=True,
                                       query=query)
        hm = h[mask_rows, slots]  # (N, d)
        logits = hm @ self.p["mlm.w"]
        logits += self.p["mlm.b"]
        loss, d_logits = nnops.cross_entropy(logits, target_ids)
        g, gv = self._grad_vector(out)
        gv["mlm.w"] += hm.T @ d_logits
        gv["mlm.b"] += np.add.reduce(d_logits, axis=0)
        d_h = np.zeros_like(h)
        d_h[mask_rows, slots] = d_logits @ self.p["mlm.w"].T
        self._trunk_backward(d_h, cache, gv)
        return loss, g
