"""Knowledge distillation of a boosted ensemble into a single student.

The student trains on a per-example mix of the gold label and the frozen
teacher's distribution: ``lam * CE(gold) + (1 - lam) * CE(teacher)`` with
``lam = step / total_steps`` rising linearly from 0 to 1, so early steps
lean on the teacher and late steps on the gold labels. The teacher
targets are computed once, before the first step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import encoder as enc
from .boosting import BoostEnsemble, vote_predict
from .encoder.training import WARMUP_FRACTION
from .fusion import FusionHead, fusion_predict
from .textdata import LabeledDataset


# the student's optimizer: Adam at this peak rate over batches of this size
LR = 1e-3
BATCH_SIZE = 32


def teacher_targets(
    ensemble: BoostEnsemble,
    head: Optional[FusionHead],
    dataset: LabeledDataset,
) -> np.ndarray:
    """(n, K) teacher distributions.

    With a fusion head the teacher is the fusion output (its binding checked
    as by ``fusion_predict``); otherwise the soft weighted-vote scores
    normalized by the alpha total.
    """
    if head is not None:
        return fusion_predict(ensemble, head, dataset)[1]
    _, scores = vote_predict(ensemble, dataset, mode="soft")
    return scores / ensemble.alphas.sum()


def annealed_lambda(step: int, total_steps: int) -> float:
    """Linear schedule: 0 at step 0, 1 at step == total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return step / total_steps


def distill_train(
    targets: np.ndarray,
    dataset: LabeledDataset,
    student_config,
    total_steps: int,
    seed: int,
    *,
    pretrained: Optional[enc.ModelSnapshot] = None,
    dev: Optional[LabeledDataset] = None,
) -> tuple[enc.ModelSnapshot, enc.StepLog]:
    """Train a single student on annealed teacher targets.

    Per-step targets are ``lam * onehot(gold) + (1 - lam) * teacher`` (the
    two cross-entropies are linear in the target distribution, so the mix
    is exact). The student starts from the ``pretrained`` trunk with a fresh
    head when there is one, else from a random init. The best-dev snapshot
    is returned when a dev set is given, also after a divergence.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (dataset.n, dataset.K):
        raise ValueError("teacher targets must cover the training set")
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    model = enc.model_from_snapshot(enc.fresh_start(student_config, [seed, 31], pretrained))

    rng = np.random.default_rng([seed, 32])
    packed = dataset.packed
    onehot = np.zeros((dataset.n, dataset.K), dtype=np.float64)
    onehot[np.arange(dataset.n), dataset.labels] = 1.0

    def loss_and_grad(idx, step, grad):
        lam = annealed_lambda(step, total_steps)
        mixed = lam * onehot[idx] + (1.0 - lam) * targets[idx]
        loss, _, grad = model.clf_loss_and_grad(packed.take(idx), mixed, train_mode=True,
                                                rng=rng, out=grad)
        return loss, grad, {"lambda": lam}

    def after_pass(step):
        return {"step": step, "dev_acc": enc.evaluate_accuracy(model, dev)}

    log = enc.fit_loop(model.params, dataset.n, BATCH_SIZE, rng, loss_and_grad,
                       lr=LR, warmup=WARMUP_FRACTION, steps=total_steps,
                       after_pass=after_pass if dev is not None else None,
                       ranges=model.clf_ranges())
    return model.snapshot("finetuned"), log
