"""Flat parameter vectors, layout tables, snapshots, checkpoint IO, and the
skeleton both base learners share (``FlatModel``): one linear softmax head
over each learner's feature map.

A checkpoint is an ``artifacts`` container with magic ``BGV1``: a JSON
header (kind, role, config, config hash, layout table, parameter count),
then the parameter block as little-endian float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .. import artifacts
from ..artifacts import CHECKPOINT_MAGIC
from ..textdata import Packed
from . import nnops
from .config import EncoderConfig, SoftregConfig, config_from_dict
from .nnops import DivergenceError

ROLES = ("random", "pretrained", "finetuned")


@dataclass(frozen=True)
class ParamLayout:
    """Ordered (name, shape) table mapping a flat vector to named views."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def _spans(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        """name -> (start, stop, shape) in the flat vector, computed once per layout."""
        out: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in self.entries:
            size = int(np.prod(shape))
            out[name] = (offset, offset + size, shape)
            offset += size
        return out

    @cached_property
    def total(self) -> int:
        return sum(stop - start for start, stop, _ in self._spans.values())

    @cached_property
    def head(self) -> slice:
        """The classification head, ``cls.w | cls.b``, which ends every base layout."""
        return slice(self._spans["cls.w"][0], self.total)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        if flat.shape != (self.total,):
            raise ValueError(f"parameter vector has {flat.shape}, layout wants ({self.total},)")
        return {name: flat[start:stop].reshape(shape)
                for name, (start, stop, shape) in self._spans.items()}

    def slice_of(self, name: str) -> slice:
        start, stop, _ = self._spans[name]
        return slice(start, stop)

    def table(self) -> list[list]:
        return [[name, list(shape)] for name, shape in self.entries]


def transformer_layout(cfg: EncoderConfig) -> ParamLayout:
    d, f, V = cfg.d_model, cfg.d_ffn, cfg.vocab_size
    entries: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (V, d)),
        ("pos_emb", (cfg.max_seq_len, d)),
        ("seg_emb", (2, d)),
        ("emb_ln.g", (d,)),
        ("emb_ln.b", (d,)),
    ]
    layer = (("wq", (d, d)), ("bq", (d,)), ("wk", (d, d)), ("bk", (d,)), ("wv", (d, d)),
             ("bv", (d,)), ("wo", (d, d)), ("bo", (d,)), ("ln1.g", (d,)), ("ln1.b", (d,)),
             ("w1", (d, f)), ("b1", (f,)), ("w2", (f, d)), ("b2", (d,)), ("ln2.g", (d,)),
             ("ln2.b", (d,)))
    for l in range(cfg.n_layers):
        entries += [(f"layer{l}.{name}", shape) for name, shape in layer]
    entries += [
        ("mlm.w", (d, V)),
        ("mlm.b", (V,)),
        ("cls.w", (d, cfg.K)),
        ("cls.b", (cfg.K,)),
    ]
    return ParamLayout(entries=tuple(entries))


def softreg_layout(cfg: SoftregConfig) -> ParamLayout:
    return ParamLayout(entries=(("cls.w", (cfg.vocab_size, cfg.K)), ("cls.b", (cfg.K,))))


def layout_for(cfg) -> ParamLayout:
    if isinstance(cfg, EncoderConfig):
        return transformer_layout(cfg)
    if isinstance(cfg, SoftregConfig):
        return softreg_layout(cfg)
    raise TypeError(f"no layout for {type(cfg).__name__}")


def xavier_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_param_vector(layout: ParamLayout, rng: np.random.Generator) -> np.ndarray:
    """Xavier-uniform matrices, zero biases, unit LayerNorm gains."""
    flat = np.zeros(layout.total, dtype=np.float64)
    views = layout.views(flat)
    for name, shape in layout.entries:
        if len(shape) == 2:
            lim = xavier_limit(shape[0], shape[1])
            views[name][:] = rng.uniform(-lim, lim, size=shape)
        elif name.endswith(".g"):
            views[name][:] = 1.0
    return flat


@dataclass(frozen=True)
class ModelSnapshot:
    """Immutable frozen model state: flat float64 params + config + role tag."""

    config: EncoderConfig | SoftregConfig
    params: np.ndarray
    role: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")
        layout = layout_for(self.config)
        if self.params.shape != (layout.total,):
            raise ValueError("parameter count does not match layout")
        if not np.isfinite(self.params).all():
            raise ValueError("snapshot contains non-finite parameters")
        frozen = np.array(self.params, dtype=np.float64, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "params", frozen)

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def config_hash(self) -> str:
        return artifacts.digest(self.config.to_dict())

    @property
    def layout(self) -> ParamLayout:
        return layout_for(self.config)

    def to_bytes(self) -> bytes:
        return b"".join(self.pieces())

    def pieces(self) -> list:
        """The unjoined pieces of ``to_bytes``; the parameters are read in place."""
        header = {
            "kind": self.kind,
            "role": self.role,
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "layout": self.layout.table(),
            "param_count": int(self.params.size),
        }
        return artifacts.pack(CHECKPOINT_MAGIC, header, self.params.astype("<f8", copy=False))

    @classmethod
    def from_bytes(cls, blob: bytes | memoryview) -> "ModelSnapshot":
        with artifacts.reading(blob, CHECKPOINT_MAGIC, "checkpoint") as (header, payload):
            cfg = config_from_dict(header["config"])
            params = artifacts.f8(payload, header["param_count"], "checkpoint")
            snap = cls(config=cfg, params=params, role=header["role"])
            if [snap.config_hash, snap.kind, snap.layout.table()] != [
                    header["config_hash"], header["kind"], header["layout"]]:
                raise artifacts.ArtifactError("checkpoint header does not match its config")
        return snap

    def save(self, path: str | Path) -> None:
        artifacts.write(path, self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "ModelSnapshot":
        return cls.from_bytes(Path(path).read_bytes())


class FlatModel:
    """A mutable working model around a flat float64 parameter vector: a
    feature map under the head ``cls.w | cls.b``. A subclass names its
    ``kind`` and defines ``features``, ``forward_probs`` and
    ``clf_loss_and_grad``, which call ``head_probs`` and ``_head_loss`` on
    its features, and ``clf_ranges`` when its features have parameters."""

    kind: str

    def __init__(self, config, params: Optional[np.ndarray] = None, *, seed=None):
        self.config = config
        self.layout = layout_for(config)
        if params is None:
            params = init_param_vector(self.layout, np.random.default_rng(seed))
        else:
            params = np.array(params, dtype=np.float64, copy=True)
        self.params = params
        self.p = self.layout.views(self.params)
        self._out_views: Optional[tuple[np.ndarray, dict[str, np.ndarray]]] = None

    @classmethod
    def from_snapshot(cls, snap: ModelSnapshot) -> "FlatModel":
        if snap.kind != cls.kind:
            raise ValueError(f"snapshot kind {snap.kind!r} is not {cls.kind}")
        return cls(snap.config, params=snap.params)

    def snapshot(self, role: str) -> ModelSnapshot:
        return ModelSnapshot(config=self.config, params=self.params, role=role)

    def clf_ranges(self) -> tuple[slice, ...]:
        """The parameter ranges ``clf_loss_and_grad`` reaches: the head."""
        return (self.layout.head,)

    def predict_proba(self, batch: Packed) -> np.ndarray:
        """Eval-mode probabilities, chunked so that one chunk's activations
        are alive at a time."""
        out = np.empty((batch.n, self.config.K), dtype=np.float64)
        for idx, part in batch.chunks():
            out[idx] = self.forward_probs(part)
        return out

    def predict_proba_heads(self, batch: Packed, heads: list[tuple[np.ndarray, np.ndarray]]
                            ) -> np.ndarray:
        """(n, M, K) eval-mode probabilities of M (w, b) heads over this
        model's features: one feature pass per chunk serves every head, and
        each head's rows equal ``predict_proba`` of the model carrying it."""
        out = np.empty((batch.n, len(heads), self.config.K), dtype=np.float64)
        for idx, part in batch.chunks():
            feats = self.features(part)
            for m, (w, b) in enumerate(heads):
                out[idx, m] = self.head_probs(feats, w, b)
        return out

    def head_probs(self, feats: np.ndarray, w: Optional[np.ndarray] = None,
                   b: Optional[np.ndarray] = None) -> np.ndarray:
        """Softmax rows of the head over (B, F) features: this model's head,
        or the (w, b) given. Non-finite logits raise DivergenceError."""
        logits = feats @ (self.p["cls.w"] if w is None else w)
        logits += self.p["cls.b"] if b is None else b
        if not np.isfinite(logits).all():
            raise DivergenceError("classification head")
        return nnops.softmax_rows(logits, out=logits)

    def _head_loss(self, feats: np.ndarray, targets: np.ndarray,
                   weights: Optional[np.ndarray], out: Optional[np.ndarray]):
        """Weighted cross-entropy of the head over (B, F) features against
        label ids or (B, K) distributions: (the batch mean of w_i * CE_i,
        the per-example losses, the gradient vector, its views, d_logits).
        The head's gradient is added into ``out`` (zeroed by the caller) when
        given. Logits are not checked; a non-finite loss reaches ``fit_loop``."""
        B, K = feats.shape[0], self.config.K
        weights = np.ones(B) if weights is None else np.asarray(weights, dtype=np.float64)
        targets = np.asarray(targets)
        if targets.ndim == 1:
            t = np.zeros((B, K), dtype=np.float64)
            t[np.arange(B), targets.astype(np.int64)] = 1.0
        else:
            t = targets.astype(np.float64)
        logits = feats @ self.p["cls.w"]
        logits += self.p["cls.b"]
        probs = nnops.softmax_rows(logits, out=logits)
        log_p = nnops.floored_log(probs)
        log_p *= t
        per_example = -np.add.reduce(log_p, axis=1)
        per_example *= weights
        loss = float(np.add.reduce(per_example)) / B  # per_example.mean()

        d_logits = probs
        d_logits -= t
        d_logits *= (weights / B)[:, None]
        g, gv = self._grad_vector(out)
        gv["cls.w"] += feats.T @ d_logits
        gv["cls.b"] += np.add.reduce(d_logits, axis=0)
        return loss, per_example, g, gv, d_logits

    def _grad_vector(self, out: Optional[np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """``out`` (or a fresh zero vector) and its named views. The views of
        the last ``out`` are kept, since ``fit_loop`` passes the same one at
        every step."""
        if out is None:
            flat = np.zeros_like(self.params)
            return flat, self.layout.views(flat)
        if self._out_views is None or self._out_views[0] is not out:
            self._out_views = (out, self.layout.views(out))
        return self._out_views
