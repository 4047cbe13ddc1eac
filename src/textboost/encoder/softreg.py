"""Softmax regression over bag-of-token counts (the low-capacity learner)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..textdata import PAD_ID, Packed
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
    """The head over the token counts of a row."""

    kind = "softreg"

    def features(self, batch: Packed) -> np.ndarray:
        return token_counts(batch, self.config.vocab_size)

    def forward_probs(self, batch: Packed) -> np.ndarray:
        return self.head_probs(self.features(batch))

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
        loss, per_example, g, _, _ = self._head_loss(self.features(batch), targets, weights, out)
        return loss, per_example, g
