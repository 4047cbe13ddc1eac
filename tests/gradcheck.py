"""Central finite-difference gradient checking helpers (float64, h=1e-4),
and the weighted cross-entropy and distillation references that the tests
check the models' losses against."""

import warnings

import numpy as np

from textboost.encoder import nnops

H = 1e-4
REL_TOL = 1e-4
ZERO_TOL = 1e-9  # both analytic and numeric below this: treat as matching


def relative_error(a: float, b: float) -> float:
    if abs(a) < ZERO_TOL and abs(b) < ZERO_TOL:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def check_group(params, loss_fn, grad, sl, rng, max_checks=None):
    """FD-check a layout slice of the parameter vector against ``grad``.

    Checks every index when the slice is small (or max_checks is None),
    otherwise a random sample. Returns the worst relative error seen.
    """
    idxs = np.arange(sl.start, sl.stop)
    if max_checks is not None and idxs.size > max_checks:
        idxs = rng.choice(idxs, size=max_checks, replace=False)
    worst = 0.0
    for j in idxs:
        orig = params[j]
        params[j] = orig + H
        up = loss_fn()
        params[j] = orig - H
        down = loss_fn()
        params[j] = orig
        fd = (up - down) / (2.0 * H)
        worst = max(worst, relative_error(fd, grad[j]))
    return worst


def weighted_ce_loss(probs, labels, weights) -> tuple[float, np.ndarray]:
    """Per-example loss w_i * (-log p[y_i]) and its batch mean.

    Weights are used exactly as given (no renormalization). Probabilities
    below 1e-12 are clamped with a warning, which signals a confidently
    wrong model rather than a numerical bug here.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (weights > 0).all():
        raise ValueError("weights must be strictly positive")
    picked = probs[np.arange(labels.size), labels]
    if (picked < nnops.PROB_FLOOR).any():
        warnings.warn("clamping near-zero predicted probability before log", RuntimeWarning)
        picked = np.maximum(picked, nnops.PROB_FLOOR)
    per_example = weights * -np.log(picked)
    return float(per_example.mean()), per_example


def distill_loss(student_probs, gold, teacher, lam: float) -> float:
    """Mean of lam * CE(gold) + (1 - lam) * CE(teacher distribution)."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    p = np.asarray(student_probs, dtype=np.float64)
    logp = np.log(np.maximum(p, nnops.PROB_FLOOR))
    gold = np.atleast_1d(np.asarray(gold, dtype=np.int64))
    t = np.atleast_2d(np.asarray(teacher, dtype=np.float64))
    logp = np.atleast_2d(logp)
    gold_ce = -logp[np.arange(gold.size), gold]
    teacher_ce = -(t * logp).sum(axis=1)
    return float((lam * gold_ce + (1.0 - lam) * teacher_ce).mean())


def gradients(model, batch, weights=None) -> np.ndarray:
    """Analytic gradient of the weighted CE loss on ``batch.labels``, dropout disabled."""
    if weights is not None and not (np.asarray(weights) > 0).all():
        raise ValueError("weights must be strictly positive")
    _, _, g = model.clf_loss_and_grad(batch, batch.labels, weights, train_mode=False)
    return g
