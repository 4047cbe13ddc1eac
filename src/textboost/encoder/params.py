"""Flat parameter vectors, layout tables, snapshots, and checkpoint IO.

Checkpoint container: magic ``BGV1``, a length-prefixed JSON header
(kind, role, config, config hash, layout table, parameter count), then the
parameter block as little-endian float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import EncoderConfig, SoftregConfig, config_from_dict, config_hash

CHECKPOINT_MAGIC = b"BGV1"

ROLES = ("random", "pretrained", "finetuned")


def join_container(magic: bytes, header: dict, *payload: bytes) -> bytes:
    """A ``magic | u32 header length | header | payload`` file, its header as
    canonical JSON (sorted keys, no spaces); ``split_container`` reads it.
    The payload comes in parts, joined with one copy."""
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join([magic, struct.pack("<I", len(hbytes)), hbytes, *payload])


def split_container(blob: bytes, magic: bytes, what: str) -> tuple[dict, bytes]:
    """The JSON header and the payload of a ``join_container`` file
    (checkpoints, ensembles, fusion heads, teacher targets).

    Raises ValueError on a wrong magic and on a blob that ends inside its
    8-byte prefix or its header."""
    if blob[:4] != magic:
        raise ValueError(f"bad {what} magic (expected {magic.decode()})")
    if len(blob) < 8:
        raise ValueError(f"{what} truncated inside its prefix")
    (hlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise ValueError(f"{what} truncated inside its header")
    return json.loads(blob[8 : 8 + hlen].decode()), blob[8 + hlen :]


def f8_payload(payload: bytes, count: int, what: str) -> np.ndarray:
    """``count`` little-endian float64 values; ValueError unless the payload
    holds exactly that many."""
    if len(payload) != 8 * count:
        raise ValueError(f"{what} has {len(payload)} payload bytes, "
                         f"its header promises {8 * count}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


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
    for l in range(cfg.n_layers):
        p = f"layer{l}"
        entries += [
            (f"{p}.wq", (d, d)),
            (f"{p}.bq", (d,)),
            (f"{p}.wk", (d, d)),
            (f"{p}.bk", (d,)),
            (f"{p}.wv", (d, d)),
            (f"{p}.bv", (d,)),
            (f"{p}.wo", (d, d)),
            (f"{p}.bo", (d,)),
            (f"{p}.ln1.g", (d,)),
            (f"{p}.ln1.b", (d,)),
            (f"{p}.w1", (d, f)),
            (f"{p}.b1", (f,)),
            (f"{p}.w2", (f, d)),
            (f"{p}.b2", (d,)),
            (f"{p}.ln2.g", (d,)),
            (f"{p}.ln2.b", (d,)),
        ]
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

# Classification-head parameter names (everything else is the trunk).
HEAD_NAMES = ("cls.w", "cls.b")


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
        return config_hash(self.config)

    @property
    def layout(self) -> ParamLayout:
        return layout_for(self.config)

    def view(self, name: str) -> np.ndarray:
        return self.layout.views(np.asarray(self.params))[name]

    def to_bytes(self) -> bytes:
        header = {
            "kind": self.kind,
            "role": self.role,
            "config": self.config.to_dict(),
            "config_hash": self.config_hash,
            "layout": self.layout.table(),
            "param_count": int(self.params.size),
        }
        return join_container(CHECKPOINT_MAGIC, header, self.params.astype("<f8").tobytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ModelSnapshot":
        header, payload = split_container(blob, CHECKPOINT_MAGIC, "checkpoint")
        cfg = config_from_dict(header["config"])
        params = f8_payload(payload, header["param_count"], "checkpoint")
        snap = cls(config=cfg, params=params, role=header["role"])
        if snap.config_hash != header["config_hash"]:
            raise ValueError("config hash mismatch in checkpoint")
        return snap

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "ModelSnapshot":
        return cls.from_bytes(Path(path).read_bytes())
