"""Knowledge distillation of a boosted ensemble into a single student.

The student trains on a per-example mix of the gold label and the frozen
teacher's distribution: ``lam * CE(gold) + (1 - lam) * CE(teacher)`` with
``lam = step / total_steps`` rising linearly from 0 to 1, so early steps
lean on the teacher and late steps on the gold labels. Teacher targets are
precomputed once and may be cached on disk keyed by (ensemble hash,
dataset hash).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import encoder as enc
from .boosting import BoostEnsemble, vote_predict
from .encoder.nnops import PROB_FLOOR
from .encoder.params import f8_payload, join_container, split_container
from .fusion import FusionHead, fusion_predict
from .textdata import LabeledDataset

TARGET_CACHE_MAGIC = b"BGT1"


@dataclass(frozen=True)
class DistillConfig:
    total_steps: int
    student_config: object
    init_strategy: str = "pretrained"
    lr: float = 1e-3
    batch_size: int = 32

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def teacher_targets(
    ensemble: BoostEnsemble,
    head: Optional[FusionHead],
    dataset: LabeledDataset,
    cache_dir: Optional[str | Path] = None,
) -> np.ndarray:
    """(n, K) teacher distributions.

    With a fusion head the teacher is the fusion output; otherwise the soft
    weighted-vote scores normalized by the alpha total. When ``cache_dir``
    is given, targets are persisted keyed by the ensemble and dataset
    hashes and replayed byte-identically.
    """
    ehash = ensemble.content_hash()
    if head is not None:
        ehash = ehash + "+" + _fusion_tag(head)
    dhash = dataset.content_hash
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / f"teacher_targets_{ehash[:12]}_{dhash[:12]}.bgt"
        if cache_path.exists():
            return _read_target_cache(cache_path, ehash, dhash, dataset.n, ensemble.K)
    if head is not None:
        _, targets = fusion_predict(ensemble, head, dataset)
    else:
        _, scores = vote_predict(ensemble, dataset, mode="soft")
        targets = scores / ensemble.alphas.sum()
    if cache_path is not None:
        _write_target_cache(cache_path, ehash, dhash, targets)
    return targets


def _fusion_tag(head: FusionHead) -> str:
    import hashlib

    return hashlib.sha256(head.to_bytes()).hexdigest()[:12]


def _write_target_cache(path: Path, ehash: str, dhash: str, targets: np.ndarray) -> None:
    header = {
        "ensemble_hash": ehash,
        "dataset_hash": dhash,
        "n": int(targets.shape[0]),
        "K": int(targets.shape[1]),
    }
    path.write_bytes(join_container(TARGET_CACHE_MAGIC, header, targets.astype("<f8").tobytes()))


def _read_target_cache(path: Path, ehash: str, dhash: str, n: int, K: int) -> np.ndarray:
    header, payload = split_container(path.read_bytes(), TARGET_CACHE_MAGIC,
                                      "teacher-target cache")
    if header["ensemble_hash"] != ehash or header["dataset_hash"] != dhash:
        raise ValueError("teacher-target cache key mismatch")
    if header["n"] != n or header["K"] != K:
        raise ValueError("teacher-target cache shape mismatch")
    return f8_payload(payload, n * K, "teacher-target cache").reshape(n, K)


def annealed_lambda(step: int, total_steps: int) -> float:
    """Linear schedule: 0 at step 0, 1 at step == total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return step / total_steps


def distill_loss(
    student_probs: np.ndarray,
    gold: np.ndarray,
    teacher: np.ndarray,
    lam: float,
) -> float:
    """Mean of lam * CE(gold) + (1 - lam) * CE(teacher distribution)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    p = np.asarray(student_probs, dtype=np.float64)
    logp = np.log(np.maximum(p, PROB_FLOOR))
    gold = np.atleast_1d(np.asarray(gold, dtype=np.int64))
    t = np.atleast_2d(np.asarray(teacher, dtype=np.float64))
    logp = np.atleast_2d(logp)
    gold_ce = -logp[np.arange(gold.size), gold]
    teacher_ce = -(t * logp).sum(axis=1)
    return float((lam * gold_ce + (1.0 - lam) * teacher_ce).mean())


def distill_train(
    targets: np.ndarray,
    dataset: LabeledDataset,
    cfg: DistillConfig,
    seed: int,
    *,
    pretrained: Optional[enc.ModelSnapshot] = None,
    dev: Optional[LabeledDataset] = None,
) -> tuple[enc.ModelSnapshot, list[dict]]:
    """Train a single student on annealed teacher targets.

    Per-step targets are ``lam * onehot(gold) + (1 - lam) * teacher`` (the
    two cross-entropies are linear in the target distribution, so the mix
    is exact). The best-dev snapshot is returned when a dev set is given,
    also after a divergence.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (dataset.n, dataset.K):
        raise ValueError("teacher targets must cover the training set")

    strategy = enc.InitStrategy(cfg.init_strategy)
    ctx = enc.InitContext(config=cfg.student_config, seed=[seed, 31], pretrained=pretrained)
    start = enc.init_weights(strategy, ctx)
    model = enc.model_from_snapshot(start)

    rng = np.random.default_rng([seed, 32])
    packed = dataset.packed
    onehot = np.zeros((dataset.n, dataset.K), dtype=np.float64)
    onehot[np.arange(dataset.n), dataset.labels] = 1.0

    def loss_and_grad(idx, step, grad):
        lam = annealed_lambda(step, cfg.total_steps)
        mixed = lam * onehot[idx] + (1.0 - lam) * targets[idx]
        loss, _, grad = model.clf_loss_and_grad(packed.take(idx), mixed, train_mode=True,
                                                rng=rng, out=grad)
        return loss, grad, {"lambda": lam}

    def after_pass(step):
        return {"step": step, "dev_acc": enc.evaluate_accuracy(model, dev)}

    log = enc.fit_loop(model.params, dataset.n, cfg.batch_size, rng, loss_and_grad,
                       lr=cfg.lr, warmup=0.1, steps=cfg.total_steps,
                       after_pass=after_pass if dev is not None else None,
                       ranges=model.clf_ranges())
    return model.snapshot("finetuned"), log
