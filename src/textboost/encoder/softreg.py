"""Softmax regression over bag-of-token counts (the low-capacity learner)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..textdata import PAD_ID, Packed
from . import nnops
from .nnops import DivergenceError
from .params import FlatModel


def token_counts(batch: Packed, vocab_size: int) -> np.ndarray:
    """(B, V) matrix of non-PAD token counts (CLS/SEP included; they act
    as a duplicated bias and are harmless). A row's PAD cells are exactly
    those at or past its length (``LabeledDataset`` checks it), so the ids
    alone give the counts."""
    B = batch.ids.shape[0]
    counts = np.zeros((B, vocab_size), dtype=np.float64)
    np.add.at(counts, (np.arange(B)[:, None], batch.ids), 1.0)
    counts[:, PAD_ID] = 0.0
    return counts


class SoftmaxRegressionModel(FlatModel):
    """One linear layer and a softmax over the token counts of a row."""

    kind = "softreg"

    def clf_ranges(self) -> tuple[slice, ...]:
        """The parameter ranges ``clf_loss_and_grad`` reaches: all of them."""
        return (slice(0, self.params.size),)

    def forward_probs(self, batch: Packed) -> np.ndarray:
        logits = token_counts(batch, self.config.vocab_size) @ self.p["cls.w"] + self.p["cls.b"]
        if not np.isfinite(logits).all():
            raise DivergenceError("softreg logits")
        return nnops.softmax_rows(logits)

    def clf_loss_and_grad(
        self,
        batch: Packed,
        targets: np.ndarray,
        weights: Optional[np.ndarray] = None,
        train_mode: bool = False,
        rng=None,
        out: Optional[np.ndarray] = None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Weighted cross-entropy, as ``TransformerModel.clf_loss_and_grad``;
        the gradient is added into ``out`` (zeroed by the caller) when given."""
        del train_mode, rng
        B = batch.n
        t, weights = self._targets_and_weights(B, targets, weights)
        counts = token_counts(batch, self.config.vocab_size)
        probs = nnops.softmax_rows(counts @ self.p["cls.w"] + self.p["cls.b"])
        per_example = weights * -(t * np.log(np.maximum(probs, nnops.PROB_FLOOR))).sum(axis=1)
        loss = float(per_example.mean())

        d_logits = (probs - t) * (weights / B)[:, None]
        g, gv = self._grad_vector(out)
        gv["cls.w"] += counts.T @ d_logits
        gv["cls.b"] += d_logits.sum(axis=0)
        return loss, per_example, g
