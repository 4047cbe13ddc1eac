"""Stage-2 fusion network: an MLP over the concatenated, alpha-scaled
softmax outputs of the frozen base classifiers.

The feature for one example is ``concat_m(alpha_m * p_m)`` of length M*K,
so block m sums to alpha_m. Base parameters are never touched here; this is
verified byte-for-byte around every training run.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import artifacts, boosting
from .artifacts import FUSION_MAGIC, ArtifactError
from .encoder import fit_loop, percent_correct
from .encoder.nnops import cross_entropy, softmax_rows
from .encoder.params import ParamLayout, init_param_vector
from .textdata import SCORE_CHUNK


HIDDEN_MULTIPLE = 4  # hidden width = HIDDEN_MULTIPLE * M * K
BATCH_SIZE = 32


@dataclass(frozen=True)
class FusionConfig:
    depth: int = 1  # number of hidden layers, 0..3
    lr: float = 1e-3
    max_epochs: int = 20
    patience: int = 3

    def __post_init__(self) -> None:
        if not 0 <= self.depth <= 3:
            raise ValueError("depth must be in 0..3")
        if self.max_epochs < 1 or self.patience < 0:
            raise ValueError("invalid FusionConfig")


def _layout(dims: tuple[int, ...]) -> ParamLayout:
    """A weight matrix and a bias for every layer, in order."""
    entries = []
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        entries += [(f"l{i}.w", (a, b)), (f"l{i}.b", (b,))]
    return ParamLayout(entries=tuple(entries))


class FusionHead:
    """ReLU MLP mapping an (M*K)-dim fusion feature to K logits."""

    def __init__(self, dims: tuple[int, ...], params: Optional[np.ndarray] = None,
                 *, ensemble_hash: str = "", seed=None):
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        self.dims = tuple(int(d) for d in dims)
        self.ensemble_hash = ensemble_hash
        self.layout = _layout(self.dims)
        if params is None:  # Xavier-uniform weights, zero biases
            params = init_param_vector(self.layout, np.random.default_rng(seed))
        else:
            params = np.array(params, dtype=np.float64, copy=True)
            if params.shape != (self.layout.total,):
                raise ValueError("parameter vector does not match dims")
        self.params = params
        self._layers = self._unpack(params)  # views: params is only updated in place
        self._out_layers: Optional[tuple[np.ndarray, list]] = None

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def n_params(self) -> int:
        return self.params.size

    def _unpack(self, flat: np.ndarray):
        """(weight, bias) views of ``flat`` for every layer."""
        views = list(self.layout.views(flat).values())
        return list(zip(views[::2], views[1::2]))

    def logits(self, features: np.ndarray, acts: Optional[list] = None) -> np.ndarray:
        """The K logits of each feature row, each layer computed in the new
        array of its matmul. ``acts``, when given, collects each layer's input."""
        a = np.asarray(features, dtype=np.float64)
        for i, (w, b) in enumerate(self._layers):
            if acts is not None:
                acts.append(a)
            a = a @ w
            a += b
            if i < len(self._layers) - 1:  # a hidden layer
                np.maximum(a, 0.0, out=a)
        return a

    def probs(self, features: np.ndarray) -> np.ndarray:
        logits = self.logits(features)
        return softmax_rows(logits, out=logits)

    def loss_and_grad(self, features: np.ndarray, labels: np.ndarray,
                      out: Optional[np.ndarray] = None):
        """Unweighted mean CE and the flat gradient, added into ``out`` (zeroed
        by the caller) when given."""
        acts: list[np.ndarray] = []
        loss, d = cross_entropy(self.logits(features, acts), labels)
        grad, gviews = self._grad_vector(out)
        for i in reversed(range(len(gviews))):
            gw, gb = gviews[i]
            gw += acts[i].T @ d
            gb += d.sum(axis=0)
            if i > 0:  # the ReLU output is > 0 exactly where its input was
                d = (d @ self._layers[i][0].T) * (acts[i] > 0.0)
        return loss, grad

    def _grad_vector(self, out: Optional[np.ndarray]) -> tuple[np.ndarray, list]:
        """``out`` (or a fresh zero vector) and its layers' views. The views of
        the last ``out`` are kept, since ``fit_loop`` passes the same one at
        every step."""
        if out is None:
            flat = np.zeros_like(self.params)
            return flat, self._unpack(flat)
        if self._out_layers is None or self._out_layers[0] is not out:
            self._out_layers = (out, self._unpack(out))
        return self._out_layers

    # -- persistence ------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = {"dims": list(self.dims), "ensemble_hash": self.ensemble_hash}
        params = self.params.astype("<f8", copy=False)
        return b"".join(artifacts.pack(FUSION_MAGIC, header, params))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FusionHead":
        with artifacts.reading(blob, FUSION_MAGIC, "fusion head") as (header, payload):
            dims = tuple(header["dims"])
            params = artifacts.f8(payload, _layout(dims).total, "fusion head")
            if not re.fullmatch(r"[0-9a-f]{64}", header["ensemble_hash"]):
                raise ArtifactError("fusion head is not bound to an ensemble (no sha256)")
            return cls(dims, params=params, ensemble_hash=header["ensemble_hash"])

    def save(self, path: str | Path) -> None:
        artifacts.write(path, self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "FusionHead":
        return cls.from_bytes(Path(path).read_bytes())


def build_feature(ensemble: boosting.BoostEnsemble, dataset=None, *,
                  probs: Optional[np.ndarray] = None) -> np.ndarray:
    """(n, M*K) matrix of alpha-scaled, round-ordered softmax blocks, from
    ``probs`` (the (n, M, K) tensor of ``predict_proba_per_round``) or from
    ``dataset`` scored now."""
    if probs is None:
        probs = ensemble.predict_proba_per_round(dataset)
    scaled = ensemble.alphas[None, :, None] * probs
    return scaled.reshape(probs.shape[0], -1)


def head_dims(ensemble: boosting.BoostEnsemble, cfg: FusionConfig) -> tuple[int, ...]:
    mk = ensemble.m_effective * ensemble.K
    return (mk, *([HIDDEN_MULTIPLE * mk] * cfg.depth), ensemble.K)


def train_fusion(
    ensemble: boosting.BoostEnsemble,
    train_ds,
    dev_ds,
    cfg: FusionConfig,
    seed: int,
    *,
    train_probs: Optional[np.ndarray] = None,
    dev_probs: Optional[np.ndarray] = None,
) -> tuple[FusionHead, list[dict]]:
    """Train the fusion MLP on frozen base outputs.

    Unweighted cross-entropy over the training split, Adam, early stopping
    on dev accuracy with the configured patience; the best-dev parameters
    are returned. ``train_probs`` / ``dev_probs`` are the splits' (n, M, K)
    tensors when the caller has them; a split without one is scored here.
    Checks that the ensemble's content hash, which the head is bound to and
    which covers every base parameter and alpha, is the one of its bytes
    after training, hashed anew (the bases are never part of this
    optimization).
    """
    ensemble_hash = ensemble.content_hash()
    if train_probs is None:
        train_probs = ensemble.predict_proba_per_round(train_ds)
    if dev_probs is None and dev_ds is not None:
        dev_probs = ensemble.predict_proba_per_round(dev_ds)

    rng = np.random.default_rng([seed, 21])
    head = FusionHead(head_dims(ensemble, cfg), ensemble_hash=ensemble_hash, seed=rng)
    labels = train_ds.labels
    n = labels.shape[0]
    epoch, epoch_loss = 0, 0.0

    def loss_and_grad(idx, step, grad):
        nonlocal epoch_loss
        feats = build_feature(ensemble, probs=train_probs[idx])
        loss, grad = head.loss_and_grad(feats, labels[idx], out=grad)
        epoch_loss += loss * idx.size
        return loss, grad

    def after_pass(step):
        nonlocal epoch, epoch_loss
        entry = {"epoch": epoch, "loss": epoch_loss / n}
        epoch, epoch_loss = epoch + 1, 0.0
        if dev_ds is not None:
            preds = _fused_probs(ensemble, head, dev_probs).argmax(axis=1)
            entry["dev_acc"] = percent_correct(preds, dev_ds.labels)
        return entry

    log = fit_loop(head.params, n, BATCH_SIZE, rng, loss_and_grad, lr=cfg.lr,
                   epochs=cfg.max_epochs, after_pass=after_pass, patience=cfg.patience)
    # the per-epoch records and a divergence; the step records stay here
    log = log.other_records()

    if hashlib.sha256(boosting.ensemble_to_bytes(ensemble)).hexdigest() != ensemble_hash:
        raise RuntimeError("fusion training mutated the frozen ensemble")
    return head, log


def check_bound(ensemble: boosting.BoostEnsemble, head: FusionHead) -> None:
    """Raise ArtifactError unless ``head`` reads the features of ``ensemble``
    and is bound to its content hash."""
    expected = ensemble.m_effective * ensemble.K
    if head.input_dim != expected:
        raise ArtifactError(
            f"fusion head expects {head.input_dim}-dim features, ensemble yields {expected}"
        )
    if head.ensemble_hash != ensemble.content_hash():
        raise ArtifactError("fusion head was trained for a different ensemble")


def fusion_predict(ensemble: boosting.BoostEnsemble, head: FusionHead, dataset=None, *,
                   probs: Optional[np.ndarray] = None):
    """(label ids, probability rows) from the fusion head, over ``probs`` (the
    (n, M, K) tensor of ``predict_proba_per_round``) or ``dataset`` scored
    now. A head bound to another ensemble, or to none, raises ArtifactError
    (``check_bound``)."""
    check_bound(ensemble, head)
    if probs is None:
        probs = ensemble.predict_proba_per_round(dataset)
    fused = _fused_probs(ensemble, head, probs)
    return fused.argmax(axis=1), fused


def _fused_probs(ensemble: boosting.BoostEnsemble, head: FusionHead,
                 probs: np.ndarray) -> np.ndarray:
    """The head's probability rows over an (n, M, K) tensor, ``SCORE_CHUNK``
    rows at a time, so that neither the (n, M*K) features nor a hidden layer
    is ever held for the whole set."""
    out = np.empty((probs.shape[0], ensemble.K), dtype=np.float64)
    for start in range(0, probs.shape[0], SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        out[rows] = head.probs(build_feature(ensemble, probs=probs[rows]))
    return out
