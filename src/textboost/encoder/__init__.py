"""Base classifiers: tiny transformer and softmax regression, weighted-CE
training, toy MLM pretraining, fine-tune starts, snapshots."""

from .config import EncoderConfig, SoftregConfig, TrainConfig, config_from_dict, config_hash
from .nnops import DivergenceError
from .optim import Adam
from .params import ModelSnapshot, ParamLayout, layout_for, xavier_limit
from .softreg import SoftmaxRegressionModel, token_counts
from .training import (
    evaluate_accuracy,
    fit_loop,
    fresh_start,
    model_from_snapshot,
    new_model,
    percent_correct,
    pretrain_mlm,
    train,
)
from .transformer import TransformerModel

__all__ = [
    "Adam",
    "DivergenceError",
    "EncoderConfig",
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
    "fresh_start",
    "layout_for",
    "model_from_snapshot",
    "new_model",
    "percent_correct",
    "pretrain_mlm",
    "token_counts",
    "train",
    "xavier_limit",
]
