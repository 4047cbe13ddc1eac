"""The four base-classifier weight initialization strategies.

Random draws fresh Xavier weights; Pretrained copies the MLM checkpoint
trunk and redraws the classification head; Finetuning copies a model
already fine-tuned on the task; Incremental copies the previous round's
fine-tuned model and falls back to Pretrained on the first round, where no
previous classifier exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .config import config_hash
from .params import ModelSnapshot, layout_for, xavier_limit


class InitStrategy(str, Enum):
    RANDOM = "random"
    PRETRAINED = "pretrained"
    FINETUNING = "finetuning"
    INCREMENTAL = "incremental"


class MissingContextError(ValueError):
    """The strategy needs a checkpoint that was not supplied."""


@dataclass
class InitContext:
    """Artifacts available when initializing round ``round_index``."""

    config: object
    seed: object
    pretrained: Optional[ModelSnapshot] = None
    task_finetuned: Optional[ModelSnapshot] = None
    previous_round: Optional[ModelSnapshot] = None
    round_index: int = 1


def _check_config(snap: ModelSnapshot, ctx: InitContext, what: str) -> None:
    if config_hash(snap.config) != config_hash(ctx.config):
        raise ValueError(f"{what} checkpoint config does not match the requested config")


def _fresh_head(params: np.ndarray, config, seed) -> np.ndarray:
    """Redraw the classification head in a copied parameter vector."""
    rng = np.random.default_rng(seed)
    out = np.array(params, dtype=np.float64, copy=True)
    views = layout_for(config).views(out)
    w = views["cls.w"]
    lim = xavier_limit(w.shape[0], w.shape[1])
    w[:] = rng.uniform(-lim, lim, size=w.shape)
    views["cls.b"][:] = 0.0
    return out


def init_weights(strategy: InitStrategy, ctx: InitContext) -> ModelSnapshot:
    strategy = InitStrategy(strategy)
    if strategy is InitStrategy.RANDOM:
        from .training import new_model

        return new_model(ctx.config, seed=ctx.seed).snapshot("random")

    if strategy is InitStrategy.PRETRAINED:
        if ctx.pretrained is None:
            raise MissingContextError("pretrained strategy requires an MLM checkpoint")
        _check_config(ctx.pretrained, ctx, "pretrained")
        params = _fresh_head(ctx.pretrained.params, ctx.config, ctx.seed)
        return ModelSnapshot(config=ctx.config, params=params, role="pretrained")

    if strategy is InitStrategy.FINETUNING:
        if ctx.task_finetuned is None:
            raise MissingContextError("finetuning strategy requires a task-finetuned checkpoint")
        _check_config(ctx.task_finetuned, ctx, "task-finetuned")
        return ModelSnapshot(
            config=ctx.config, params=ctx.task_finetuned.params, role="finetuned"
        )

    if strategy is InitStrategy.INCREMENTAL:
        if ctx.round_index <= 1 or ctx.previous_round is None:
            return init_weights(InitStrategy.PRETRAINED, ctx)
        _check_config(ctx.previous_round, ctx, "previous-round")
        return ModelSnapshot(
            config=ctx.config, params=ctx.previous_round.params, role="finetuned"
        )

    raise ValueError(f"unknown strategy {strategy}")

