"""Base classifiers: tiny transformer and softmax regression, weighted-CE
training, toy MLM pretraining, initialization strategies, snapshots."""

from .config import EncoderConfig, SoftregConfig, TrainConfig, config_from_dict, config_hash
from .init_strategies import InitContext, InitStrategy, MissingContextError, init_weights
from .nnops import DivergenceError
from .optim import Adam
from .params import ModelSnapshot, ParamLayout, layout_for, xavier_limit
from .softreg import SoftmaxRegressionModel, token_counts
from .training import (
    evaluate_accuracy,
    fit_loop,
    model_from_snapshot,
    new_model,
    pretrain_mlm,
    train,
)
from .transformer import TransformerModel

__all__ = [
    "Adam",
    "DivergenceError",
    "EncoderConfig",
    "InitContext",
    "InitStrategy",
    "MissingContextError",
    "ModelSnapshot",
    "ParamLayout",
    "SoftmaxRegressionModel",
    "SoftregConfig",
    "TrainConfig",
    "TransformerModel",
    "config_from_dict",
    "config_hash",
    "evaluate_accuracy",
    "fit_loop",
    "init_weights",
    "layout_for",
    "model_from_snapshot",
    "new_model",
    "pretrain_mlm",
    "token_counts",
    "train",
    "xavier_limit",
]
