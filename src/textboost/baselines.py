"""Comparators and correctness oracles.

* A bagging ensemble: members fine-tuned independently on unweighted data
  with different learning rates, returned as a ``BoostEnsemble`` of kind
  "bag" whose rounds all carry alpha 1, so its vote averages the members'
  posteriors.
* A self-contained SAMME reference over exhaustive-search decision stumps,
  written independently of the main boosting loop so the two can be diffed
  round by round on the full (err, alpha, weights) trajectory; that diff,
  on three fixed datasets, is ``oracle_trajectories``.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import encoder as enc
from .boosting import ALPHA_TOL, BoostEnsemble, BoostRound, NeuralRoundModel, boost_train
from .textdata import LabeledDataset


# ----------------------------------------------------------------------
# deterministic decision stumps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Stump:
    """Depth-1 rule: predict ``label_le`` where x[feature] <= threshold,
    else ``label_gt``."""

    feature: int
    threshold: float
    label_le: int
    label_gt: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        le = features[:, self.feature] <= self.threshold
        return np.where(le, self.label_le, self.label_gt)


@dataclass
class ArrayDataset:
    """Feature-matrix dataset exposing the same surface boosting needs."""

    features: np.ndarray
    labels: np.ndarray
    K: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features must be (n, d) aligned with labels")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")


def _candidate_thresholds(column: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values."""
    vals = np.unique(column)
    if vals.size < 2:
        return np.empty(0, dtype=np.float64)
    return (vals[:-1] + vals[1:]) / 2.0


def _branch_label_and_err(labels: np.ndarray, w: np.ndarray, K: int) -> tuple[int, float]:
    """Weighted majority class of a branch and the weight it misclassifies.

    The branch total is the sum of the K per-class sums (not a direct sum
    over w) so that ties between candidates resolve identically here and in
    the reference oracle, which reduces the same way.
    """
    class_w = np.array([np.sum(w[labels == c]) for c in range(K)])
    best = int(np.argmax(class_w))  # argmax ties break to the lowest class
    return best, float(np.sum(class_w) - class_w[best])


def fit_stump(features: np.ndarray, labels: np.ndarray, w: np.ndarray, K: int) -> tuple[Stump, float]:
    """Exhaustive search over (feature, midpoint threshold) pairs.

    Candidates are scanned feature-major, thresholds ascending; a strictly
    smaller weighted error replaces the incumbent, so ties keep the first
    candidate. Branch class-weight sums use np.sum over boolean masks —
    keep it that way, the reference oracle must reproduce them bit-for-bit.
    """
    n, d = features.shape
    best: Optional[Stump] = None
    best_err = np.inf
    for j in range(d):
        col = features[:, j]
        for t in _candidate_thresholds(col):
            le = col <= t
            lab_le, err_le = _branch_label_and_err(labels[le], w[le], K)
            lab_gt, err_gt = _branch_label_and_err(labels[~le], w[~le], K)
            err = err_le + err_gt
            if err < best_err:
                best_err = err
                best = Stump(feature=j, threshold=float(t), label_le=lab_le, label_gt=lab_gt)
    if best is None:
        raise ValueError("no candidate stumps: all feature columns are constant")
    return best, best_err


@dataclass
class StumpRoundModel:
    stump: Stump
    K: int

    def predict_proba(self, dataset: ArrayDataset) -> np.ndarray:
        preds = self.stump.predict(dataset.features)
        out = np.zeros((preds.size, self.K), dtype=np.float64)
        out[np.arange(preds.size), preds] = 1.0
        return out


class StumpBoostLearner:
    """Plugs exhaustive stumps into the main boosting loop as its base
    classifier; deterministic, so trajectories are exactly reproducible."""

    kind = "stump"
    sharing_mode = "privacy"

    def fit_round(self, m: int, dataset: ArrayDataset, weights: np.ndarray, seed) -> StumpRoundModel:
        del m, seed  # stumps are deterministic in (features, labels, weights)
        stump, _ = fit_stump(dataset.features, dataset.labels, weights, dataset.K)
        return StumpRoundModel(stump=stump, K=dataset.K)


# ----------------------------------------------------------------------
# independent SAMME reference
# ----------------------------------------------------------------------

@dataclass
class OracleRound:
    m: int
    stump: Stump
    err: float
    alpha: float
    weights_after: np.ndarray
    predictions: np.ndarray


def samme_oracle(features: np.ndarray, labels: np.ndarray, M: int, K: int) -> list[OracleRound]:
    """Reference multi-class boosting trajectory over decision stumps.

    Re-implements the whole loop from scratch: uniform 1/n weights, the
    weighted-error ratio, alpha = ln((1-err)/err) + ln(K-1) with the same
    1e-6 err clamp as the engine, and the unnormalized exp(alpha) weight
    inflation on mistakes. Stops early if a round's alpha is not above the
    engine's ``ALPHA_TOL``.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if M < 1:
        raise ValueError("M must be >= 1")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    n, d = features.shape

    # pre-enumerate the candidate grid once; it is weight-independent
    candidates: list[tuple[int, float, np.ndarray]] = []
    for j in range(d):
        for t in _candidate_thresholds(features[:, j]):
            candidates.append((j, float(t), features[:, j] <= t))
    if not candidates:
        raise ValueError("degenerate feature matrix: constant columns only")

    w = np.full(n, 1.0 / n, dtype=np.float64)
    rounds: list[OracleRound] = []
    eps = 1e-6
    for m in range(1, M + 1):
        best_stump = None
        best_err_w = np.inf
        best_preds = None
        for j, t, le in candidates:
            w_le = np.array([np.sum(w[le & (labels == c)]) for c in range(K)])
            w_gt = np.array([np.sum(w[~le & (labels == c)]) for c in range(K)])
            lab_le = int(np.argmax(w_le))
            lab_gt = int(np.argmax(w_gt))
            err_w = (np.sum(w_le) - w_le[lab_le]) + (np.sum(w_gt) - w_gt[lab_gt])
            if err_w < best_err_w:
                best_err_w = err_w
                best_stump = Stump(feature=j, threshold=t, label_le=lab_le, label_gt=lab_gt)
                best_preds = np.where(le, lab_le, lab_gt)
        wrong = best_preds != labels
        err = float(np.sum(w[wrong]) / np.sum(w))
        if err <= 0.0 or err >= 1.0:
            warnings.warn(f"oracle err={err} clamped", RuntimeWarning)
        err_c = min(max(err, eps), 1.0 - eps)
        alpha = float(np.log((1.0 - err_c) / err_c) + np.log(K - 1))
        if alpha <= ALPHA_TOL:
            break
        w = w * np.exp(alpha * wrong)
        rounds.append(OracleRound(
            m=m, stump=best_stump, err=err, alpha=alpha,
            weights_after=w.copy(), predictions=best_preds.copy(),
        ))
    return rounds


ORACLE_SETS = ((60, 2, 2), (150, 3, 3), (200, 4, 3))  # (n, d, K) of each compared dataset
ORACLE_TOL = 1e-12  # the largest deviation the comparison accepts


def oracle_dataset(n: int, d: int, K: int, seed: int = 20240601) -> ArrayDataset:
    """``n`` points in ``d`` dimensions from a fresh stream of ``seed``, in K
    classes cut at feature 0's quantiles, with 15% of labels moved."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    cuts = np.quantile(x[:, 0], np.linspace(0, 1, K + 1)[1:-1])
    y = np.digitize(x[:, 0], cuts)
    flip = rng.random(n) < 0.15
    y[flip] = (y[flip] + 1 + rng.integers(0, K - 1, size=flip.sum())) % K
    return ArrayDataset(features=x, labels=y, K=K)


# the engine's ensemble, each side's {m, err, alpha, weights} rows, their largest gap
OracleTrajectory = namedtuple("OracleTrajectory", "dataset ensemble engine oracle deviation")


def oracle_trajectories(rounds: int) -> list[OracleTrajectory]:
    """``boost_train`` of stumps against ``samme_oracle`` on each ``ORACLE_SETS`` set."""
    out = []
    for n, d, K in ORACLE_SETS:
        data = oracle_dataset(n, d, K)
        ensemble, log = boost_train(data, StumpBoostLearner(), rounds, 0, record_weights=True)
        engine = [{"m": e["m"], "err": e["err"], "alpha": e["alpha"], "weights": e["weights_after"]}
                  for e in log if "weights_after" in e]
        oracle = [{"m": r.m, "err": r.err, "alpha": r.alpha, "weights": r.weights_after}
                  for r in samme_oracle(data.features, data.labels, rounds, K)]
        gaps = [max(abs(e["err"] - o["err"]), abs(e["alpha"] - o["alpha"]),
                    np.abs(e["weights"] - o["weights"]).max()) for e, o in zip(engine, oracle)]
        deviation = float(max(gaps, default=0.0) if len(engine) == len(oracle) else np.inf)
        out.append(OracleTrajectory(data, ensemble, engine, oracle, deviation))
    return out


# ----------------------------------------------------------------------
# bagging
# ----------------------------------------------------------------------

def bag_train(
    dataset: LabeledDataset,
    learning_rates: Sequence[float],
    seed: int,
    *,
    config,
    train_cfg: enc.TrainConfig,
    pretrained: Optional[enc.ModelSnapshot] = None,
) -> tuple[BoostEnsemble, list[dict]]:
    """Fine-tune one member per learning rate on uniform (all-ones) weights.

    The survivors are the rounds 1..M of a "bag" ensemble, with alpha 1.0
    and no error. Members that diverge are dropped with a warning; fewer
    than two survivors is an error. All members share the base seed, so
    identical learning rates produce identical members by construction.
    """
    if len(learning_rates) < 2:
        raise ValueError("bagging needs at least 2 learning rates")
    rounds: list[BoostRound] = []
    log: list[dict] = []
    start = enc.fresh_start(config, [seed, 11], pretrained)
    for lr in learning_rates:
        model = enc.model_from_snapshot(start)
        snap, tlog = enc.train(model, dataset, replace(train_cfg, lr=lr), [seed, 12])
        if any(rec.get("event") == "diverged" for rec in tlog.other_records()):
            warnings.warn(f"bagging member at lr={lr} diverged; dropped", RuntimeWarning)
            log.append({"lr": lr, "status": "diverged"})
            continue
        rounds.append(BoostRound(index=len(rounds) + 1, model=NeuralRoundModel(snap),
                                 alpha=1.0, err=None))
        log.append({"lr": lr, "status": "ok", "final_loss": tlog[-1]["loss"] if tlog else None})
    if len(rounds) < 2:
        raise RuntimeError("fewer than 2 bagging members survived training")
    return BoostEnsemble(K=dataset.K, learner_kind=config.kind, sharing_mode="privacy",
                         rounds=rounds, ensemble_kind="bag"), log
