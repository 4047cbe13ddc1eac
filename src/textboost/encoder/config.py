"""Model and training configuration dataclasses."""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class EncoderConfig:
    """Tiny transformer encoder configuration; the run config's ``encoder``
    section gives every size (``cli._SCHEMA`` holds their defaults)."""

    vocab_size: int
    K: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ffn: int
    max_seq_len: int
    dropout_rate: float

    kind = "transformer"

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        for name in ("vocab_size", "K", "d_model", "n_layers", "n_heads", "d_ffn", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind}


@dataclass(frozen=True)
class SoftregConfig:
    """Softmax regression over bag-of-token counts; the low-capacity learner."""

    vocab_size: int
    K: int

    kind = "softreg"

    def __post_init__(self) -> None:
        if self.vocab_size < 1 or self.K < 2:
            raise ValueError("vocab_size must be >= 1 and K >= 2")

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind}


def config_from_dict(d: dict):
    d = dict(d)
    kind = d.pop("kind")
    if kind == "transformer":
        return EncoderConfig(**d)
    if kind == "softreg":
        return SoftregConfig(**d)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer-loop hyperparameters (batch 32 and 3 epochs by default)."""

    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 3

    def __post_init__(self) -> None:
        if self.lr <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("invalid TrainConfig")
