"""Model and training configs, whose fields hold their rules and defaults
(``setting``), read by ``cli._SCHEMA`` (``settings``). A rule is (what a value
must be, its test); values are never coerced, and a bool is not an int."""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields


def int_rule(lo: int, hi: float = math.inf):
    return (f"an integer in {lo}..{hi}" if hi < math.inf else f"an integer >= {lo}",
            lambda v: type(v) is int and lo <= v <= hi)


def number_rule(what: str, ok):
    return f"a finite number {what}", lambda v: (
        type(v) is int or (type(v) is float and math.isfinite(v))) and ok(v)


POSITIVE = number_rule("> 0", lambda x: x > 0)


def setting(rule, default=MISSING, *, settable: bool = True):
    """A field checked by ``rule``; with a ``default``, a run config key if ``settable``."""
    return field(default=default,
                 metadata={"rule": rule, "settable": settable and default is not MISSING})


def settings(cls) -> dict:
    """``{name: (default, rule)}`` of ``cls``'s run config keys."""
    return {f.name: (f.default, f.metadata["rule"]) for f in fields(cls) if f.metadata["settable"]}


def problems(rules: dict, data: dict, path: str = "") -> list[str]:
    """What each value of ``data`` must be, by its (nested) rule, and is not."""
    out = []
    for key, rule in rules.items():
        if isinstance(rule, dict):
            out += problems(rule, data[key], f"{path}{key}.")
        elif not rule[1](data[key]):
            out.append(f"{path}{key} must be {rule[0]}, not {data[key]!r}")
    return out


class Checked:
    """A dataclass whose fields' rules run when it is made: a ValueError names
    every field that breaks its rule."""

    def __post_init__(self) -> None:
        found = problems({f.name: f.metadata["rule"] for f in fields(self)}, vars(self))
        if found:
            raise ValueError("; ".join(found))


class _ModelConfig(Checked):
    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind}


@dataclass(frozen=True)
class EncoderConfig(_ModelConfig):
    """Tiny transformer encoder configuration; the run config's ``encoder``
    section sets every size."""

    vocab_size: int = setting(int_rule(1))
    K: int = setting(int_rule(2))
    d_model: int = setting(int_rule(1), 32)
    n_layers: int = setting(int_rule(1), 2)
    n_heads: int = setting(int_rule(1), 2)
    d_ffn: int = setting(int_rule(1), 64)
    max_seq_len: int = setting(int_rule(3), 24)  # CLS, SEP and one token to mask
    dropout_rate: float = setting(number_rule("in [0, 1)", lambda x: 0 <= x < 1), 0.1)

    kind = "transformer"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.d_model % self.n_heads:
            raise ValueError("n_heads must divide d_model")


@dataclass(frozen=True)
class SoftregConfig(_ModelConfig):
    """Softmax regression over bag-of-token counts; the low-capacity learner."""

    vocab_size: int = setting(int_rule(1))
    K: int = setting(int_rule(2))

    kind = "softreg"


def config_from_dict(d: dict):
    d = dict(d)
    kind = d.pop("kind")
    for cls in (EncoderConfig, SoftregConfig):
        if cls.kind == kind:
            return cls(**d)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class TrainConfig(Checked):
    """Optimizer-loop hyperparameters; the run config's ``train`` section."""

    lr: float = setting(POSITIVE, 1e-3)
    batch_size: int = setting(int_rule(1), 32)
    epochs: int = setting(int_rule(0), 3)
