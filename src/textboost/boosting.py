"""Stage-1 multi-class boosting over base classifiers.

Each round starts a base model per the configured strategy, fine-tunes
it with the current instance weights multiplied into the per-example loss
(never renormalized), records its training-set predictions in eval mode,
computes the weighted error and the multi-class alpha
``ln((1-err)/err) + ln(K-1)``, and inflates the weights of misclassified
examples by ``exp(alpha)``. Rounds whose alpha is not above ``ALPHA_TOL``
are discarded and boosting stops early.

Two parameter regimes are supported: weight privacy (every round owns a
full model) and weight sharing (one trunk evolves across rounds; each round
owns only a linear head, and inference binds every head to the final trunk).

A bag (``ensemble_kind="bag"``) is the same container: its rounds are
independent members with alpha 1 and no error, so its vote is M times
their unweighted posterior average.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import artifacts
from . import encoder as enc
from .artifacts import ENSEMBLE_MAGIC

ERR_EPS = 1e-6  # alpha is singular at err in {0, 1}
# alpha at or below this is chance level up to rounding: at err = (K-1)/K
# the formula can come out a few ulps above 0 (2.2e-16 for K=3)
ALPHA_TOL = 1e-12

SHARING_MODES = ("privacy", "sharing")
ENSEMBLE_KINDS = ("boost", "bag")
VOTE_MODES = ("soft", "discrete")  # BoostEnsemble.vote_scores
# where a round's fine-tune starts (NeuralBoostLearner)
INIT_STRATEGIES = ("random", "pretrained", "finetuning", "incremental")


class BoostingError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# weight-vector arithmetic (Algorithm steps 1, 2.3, 2.4, 2.5)
# ----------------------------------------------------------------------

def init_weights_uniform(n: int) -> np.ndarray:
    """Instance weights w_i = 1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.full(n, 1.0 / n, dtype=np.float64)


def weighted_error(predictions: np.ndarray, labels: np.ndarray, w: np.ndarray) -> float:
    """sum(w_i over mistakes) / sum(w_i)."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    w = np.asarray(w, dtype=np.float64)
    if not (predictions.shape == labels.shape == w.shape):
        raise ValueError("predictions, labels, and weights must have equal length")
    return float(np.sum(w[predictions != labels]) / np.sum(w))


def compute_alpha(err: float, K: int) -> float:
    """alpha = ln((1-err)/err) + ln(K-1), with err clamped to [eps, 1-eps]."""
    alpha = _clamped_alpha(err, K)
    if err <= 0.0 or err >= 1.0:
        warnings.warn(f"err={err} clamped into [{ERR_EPS}, {1 - ERR_EPS}]", RuntimeWarning)
    return alpha


def _clamped_alpha(err: float, K: int) -> float:
    """``compute_alpha`` without the clamp warning; a loaded ensemble's
    alphas are checked against it."""
    if K < 2:
        raise ValueError("K must be >= 2")
    err = min(max(err, ERR_EPS), 1.0 - ERR_EPS)
    return float(np.log((1.0 - err) / err) + np.log(K - 1))


def update_weights(
    w: np.ndarray, predictions: np.ndarray, labels: np.ndarray, alpha: float
) -> np.ndarray:
    """Multiply e^alpha into the weights of misclassified examples only."""
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    w = np.asarray(w, dtype=np.float64)
    new_w = w.copy()
    wrong = np.asarray(predictions) != np.asarray(labels)
    new_w[wrong] *= np.exp(alpha)
    if not np.isfinite(new_w).all():
        raise BoostingError(
            "weight update overflowed; use fewer rounds or revisit the err clamp"
        )
    return new_w


# ----------------------------------------------------------------------
# ensemble containers
# ----------------------------------------------------------------------

@dataclass
class BoostRound:
    """One accepted boosting round."""

    index: int
    model: object  # anything with predict_proba(dataset) -> (n, K) rows
    alpha: float
    err: Optional[float]  # None for a bag member, which weighs no error


@dataclass
class BoostEnsemble:
    K: int
    learner_kind: str
    sharing_mode: str
    rounds: list[BoostRound]
    ensemble_kind: str = "boost"
    # (n, M, K) per-round probabilities of the training and dev sets that
    # boost_train ran on, so that its callers score no round model again;
    # None on a loaded ensemble (and dev_probs without a dev set)
    train_probs: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    dev_probs: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.rounds:
            raise ValueError("ensemble must contain at least one round")
        if self.sharing_mode not in SHARING_MODES:
            raise ValueError(f"sharing_mode must be one of {SHARING_MODES}")
        if self.ensemble_kind not in ENSEMBLE_KINDS:
            raise ValueError(f"ensemble_kind must be one of {ENSEMBLE_KINDS}")
        if self.ensemble_kind == "bag" and any(r.alpha != 1.0 for r in self.rounds):
            raise ValueError("every member of a bag has alpha 1.0")

    @property
    def m_effective(self) -> int:
        return len(self.rounds)

    @property
    def shared_trunk(self) -> Optional[enc.ModelSnapshot]:
        """Under weight sharing, the trunk that every head is bound to (the
        first round's); None under privacy."""
        return self.rounds[0].model.trunk if self.sharing_mode == "sharing" else None

    @property
    def snapshots(self) -> list[enc.ModelSnapshot]:
        """The snapshots that its rounds score with: under weight sharing the
        one trunk, else each round's own."""
        if self.sharing_mode == "sharing":
            return [self.shared_trunk]
        return [r.model.snapshot for r in self.rounds]

    @property
    def n_params(self) -> int:
        """Its parameter count: its snapshots', and under sharing every head's."""
        heads = self.sharing_mode == "sharing"
        return sum(s.params.size for s in self.snapshots) + sum(
            r.model.head.size for r in self.rounds if heads)

    @property
    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.rounds], dtype=np.float64)

    def predict_proba_per_round(self, dataset) -> np.ndarray:
        """(n, M, K) eval-mode softmax rows for every round.

        This is where round models are scored; callers score a dataset once
        and hand the tensor to vote, fusion and distillation. Under weight
        sharing every head sits on the same trunk, which then runs once per
        chunk for all M heads.
        """
        if self.sharing_mode == "sharing":
            if any(r.model.trunk is not self.shared_trunk for r in self.rounds):
                raise ValueError("every head must be bound to the ensemble's shared trunk")
            trunk = enc.model_from_snapshot(self.shared_trunk)
            heads = [r.model.head_params() for r in self.rounds]
            return trunk.predict_proba_heads(dataset.packed, heads)
        out = None
        for m, r in enumerate(self.rounds):
            rows = r.model.predict_proba(dataset)
            if out is None:
                out = np.empty((rows.shape[0], self.m_effective, self.K), dtype=np.float64)
            out[:, m] = rows
        return out

    def vote_scores(self, probs: np.ndarray, mode: str = "soft") -> np.ndarray:
        """Alpha-weighted scores of an (n, M, K) tensor: soft sums alpha * p,
        discrete sums alpha * one_hot(argmax p)."""
        if mode == "soft":
            contrib = probs
        elif mode == "discrete":
            contrib = np.zeros_like(probs)
            n, m, _ = probs.shape
            hard = probs.argmax(axis=2)
            contrib[np.arange(n)[:, None], np.arange(m)[None, :], hard] = 1.0
        else:
            raise ValueError(f"vote mode must be one of {VOTE_MODES}, not {mode!r}")
        return (self.alphas[None, :, None] * contrib).sum(axis=1)

    def content_hash(self) -> str:
        """The sha256 of its ``.bge`` bytes, kept: of those ``ensemble_from_bytes``
        parsed or ``save`` wrote, else computed now; a ``replace`` copy has none."""
        if self._hash is None:
            self._hash = hashlib.sha256(ensemble_to_bytes(self)).hexdigest()
        return self._hash

    def save(self, path: str | Path) -> None:
        blob = ensemble_to_bytes(self)
        artifacts.write(path, blob)
        self._hash = hashlib.sha256(blob).hexdigest()

    @classmethod
    def load(cls, path: str | Path) -> "BoostEnsemble":
        return ensemble_from_bytes(Path(path).read_bytes())


def vote_predict(ensemble: BoostEnsemble, dataset=None, mode: str = "soft", *,
                 probs: Optional[np.ndarray] = None):
    """(label ids, score vectors) over ``probs``, the (n, M, K) tensor of
    ``predict_proba_per_round``, or over ``dataset`` scored now; argmax ties
    break to the lowest index."""
    if probs is None:
        probs = ensemble.predict_proba_per_round(dataset)
    scores = ensemble.vote_scores(probs, mode=mode)
    return scores.argmax(axis=1), scores


# ----------------------------------------------------------------------
# the boosting loop
# ----------------------------------------------------------------------

def boost_train(
    dataset,
    learner,
    rounds: int,
    seed: int,
    *,
    dev: Optional[object] = None,
    record_weights: bool = False,
) -> tuple[BoostEnsemble, list[dict]]:
    """Run the boosting loop for up to ``rounds`` rounds.

    ``learner`` has the attributes ``kind`` and ``sharing_mode`` (one of
    ``SHARING_MODES``) and the method ``fit_round(m, dataset, weights,
    seed)``, which returns a round model with eval-mode ``predict_proba``;
    an optional ``finalize(rounds)`` hook re-binds the kept rounds (weight
    sharing moves every head to the final trunk).

    Returns the ensemble, carrying the (n, M, K) probabilities of
    ``dataset`` and ``dev`` in ``train_probs`` and ``dev_probs``, and one log
    record per round: {m, err, alpha, train_acc, dev_acc, weight_sum}
    (+ ``weights_after`` when ``record_weights``). Raises BoostingError if no
    round beats chance.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    labels = dataset.labels
    n = labels.shape[0]
    K = dataset.K
    w = init_weights_uniform(n)
    kept: list[BoostRound] = []
    # every round's rows go straight into the slot of the next kept round
    train_probs = np.empty((n, rounds, K))
    dev_probs = None if dev is None else np.empty((dev.labels.shape[0], rounds, K))
    log: list[dict] = []
    for m in range(1, rounds + 1):
        model = learner.fit_round(m, dataset, w, seed)
        probs = train_probs[:, len(kept)]
        probs[...] = model.predict_proba(dataset)
        preds = probs.argmax(axis=1)
        err = weighted_error(preds, labels, w)
        alpha = compute_alpha(err, K)
        if alpha <= ALPHA_TOL:
            log.append({
                "m": m, "err": err, "alpha": alpha, "train_acc": None,
                "dev_acc": None, "weight_sum": float(w.sum()), "event": "discarded",
            })
            break
        w_next = update_weights(w, preds, labels, alpha)
        _check_weight_update(w, w_next, preds, labels, alpha)
        dev_acc = None
        if dev is not None:
            dev_probs[:, len(kept)] = model.predict_proba(dev)
            dev_acc = enc.percent_correct(dev_probs[:, len(kept)].argmax(axis=1), dev.labels)
        kept.append(BoostRound(index=m, model=model, alpha=alpha, err=err))
        entry = {
            "m": m,
            "err": err,
            "alpha": alpha,
            "train_acc": enc.percent_correct(preds, labels),
            "dev_acc": dev_acc,
            "weight_sum": float(w_next.sum()),
        }
        if record_weights:
            entry["weights_after"] = w_next.copy()
        log.append(entry)
        w = w_next
    if not kept:
        raise BoostingError("no base learner beat chance")
    finalize = getattr(learner, "finalize", None)
    if finalize is not None:
        kept = finalize(kept)
    ensemble = BoostEnsemble(
        K=K,
        learner_kind=learner.kind,
        sharing_mode=learner.sharing_mode,
        rounds=kept,
    )
    if ensemble.sharing_mode == "sharing":
        # finalize re-bound every head to the last trunk, so the rows scored
        # in the loop are stale for all rounds but the last
        del train_probs, dev_probs
        ensemble.train_probs = ensemble.predict_proba_per_round(dataset)
        if dev is not None:
            ensemble.dev_probs = ensemble.predict_proba_per_round(dev)
    else:
        ensemble.train_probs = train_probs[:, :len(kept)]
        if dev is not None:
            ensemble.dev_probs = dev_probs[:, :len(kept)]
    return ensemble, log


def _check_weight_update(w, w_next, preds, labels, alpha) -> None:
    """Invariants of step 2.5, verified every round of every run."""
    wrong = preds != labels
    expected = np.sum(w[~wrong]) + np.exp(alpha) * np.sum(w[wrong])
    total = w_next.sum()
    if not np.isclose(total, expected, rtol=1e-12, atol=0.0):
        raise AssertionError("weight-update law violated")
    if alpha > 0.0 and wrong.any() and not wrong.all():
        before = np.sum(w[wrong]) / np.sum(w)
        after = np.sum(w_next[wrong]) / total
        if not after > before:
            raise AssertionError("misclassified weight mass did not increase")


# ----------------------------------------------------------------------
# neural learners
# ----------------------------------------------------------------------

def _round_seed(seed: int, m: int, tag: int) -> list[int]:
    return [int(seed), int(m), int(tag)]


@dataclass
class NeuralRoundModel:
    """Privacy-mode round model: a full frozen snapshot."""

    snapshot: enc.ModelSnapshot

    def predict_proba(self, dataset) -> np.ndarray:
        model = enc.model_from_snapshot(self.snapshot)
        return model.predict_proba(dataset.packed)


@dataclass
class SharedHeadRoundModel:
    """Sharing-mode round model: a private head bound to some trunk."""

    head: np.ndarray  # concatenated cls.w | cls.b
    trunk: enc.ModelSnapshot

    def bound_snapshot(self) -> enc.ModelSnapshot:
        params = np.array(self.trunk.params, copy=True)
        params[self.trunk.layout.head] = self.head
        return enc.ModelSnapshot(config=self.trunk.config, params=params, role=self.trunk.role)

    def predict_proba(self, dataset) -> np.ndarray:
        model = enc.model_from_snapshot(self.bound_snapshot())
        return model.predict_proba(dataset.packed)

    def head_params(self) -> tuple[np.ndarray, np.ndarray]:
        """(cls.w, cls.b) views of the head vector."""
        K = self.trunk.config.K
        return self.head[:-K].reshape(-1, K), self.head[-K:]


class NeuralBoostLearner:
    """Fits one transformer or softreg base classifier per round.

    Round m starts per ``init_strategy`` from a fresh draw (random), a fresh
    head on the ``pretrained`` trunk (pretrained, incremental), one unweighted
    fine-tune made before round 1 (finetuning), or from round 2 on round
    m-1's model (incremental, and every strategy under sharing). In privacy
    mode every round owns its full parameter set; in sharing mode every
    round trains the carried trunk plus a freshly drawn private head.
    """

    def __init__(
        self,
        config,
        train_cfg: enc.TrainConfig,
        init_strategy: str,
        *,
        sharing_mode: str = "privacy",
        pretrained: Optional[enc.ModelSnapshot] = None,
    ):
        self.config = config
        self.train_cfg = train_cfg
        self.init_strategy = init_strategy
        self.sharing_mode = sharing_mode
        self.pretrained = pretrained
        self.kind = config.kind
        if init_strategy not in INIT_STRATEGIES:
            raise ValueError(f"init_strategy must be one of {INIT_STRATEGIES}")
        if sharing_mode not in SHARING_MODES:
            raise ValueError(f"sharing_mode must be one of {SHARING_MODES}")
        if sharing_mode == "sharing" and self.kind != "transformer":
            raise ValueError("weight sharing requires the transformer learner")
        if init_strategy in ("pretrained", "incremental"):
            if self.kind != "transformer":
                raise ValueError(f"{init_strategy} initialization requires the transformer learner")
            if pretrained is None:
                raise ValueError(f"{init_strategy} initialization requires a pretrained trunk")
        self._previous: Optional[enc.ModelSnapshot] = None
        self._finetuned: Optional[enc.ModelSnapshot] = None
        # round-1 model as it stood at train time; the single-model baseline
        self.round1_snapshot: Optional[enc.ModelSnapshot] = None
        # step logs ({step, loss, lr} records from the optimizer) by round;
        # round 0 is the finetuning strategy's unweighted source fine-tune
        self.train_logs: dict[int, list[dict]] = {}

    def _start(self, m: int, dataset, seed) -> enc.ModelSnapshot:
        """Round m's start per the strategy, before sharing redraws the head."""
        if m > 1 and (self.sharing_mode == "sharing" or self.init_strategy == "incremental"):
            return self._previous
        if self.init_strategy == "finetuning":
            if self._finetuned is None:  # one unweighted fine-tune, before round 1
                start = enc.fresh_start(self.config, _round_seed(seed, 0, 2), self.pretrained)
                self._finetuned, self.train_logs[0] = enc.train(
                    enc.model_from_snapshot(start), dataset, self.train_cfg,
                    _round_seed(seed, 0, 3))
            return self._finetuned
        trunk = None if self.init_strategy == "random" else self.pretrained
        return enc.fresh_start(self.config, _round_seed(seed, m, 1), trunk)

    def fit_round(self, m: int, dataset, weights: np.ndarray, seed):
        sharing = self.sharing_mode == "sharing"
        start = self._start(m, dataset, seed)
        if sharing:
            start = enc.fresh_start(self.config, _round_seed(seed, m, 5), start)
        model = enc.model_from_snapshot(start)
        snap, tlog = enc.train(
            model, dataset, self.train_cfg, _round_seed(seed, m, 4), weights=weights
        )
        self._previous = snap
        self.train_logs[m] = tlog
        if m == 1:
            self.round1_snapshot = snap
        if sharing:  # a copy, so that the head does not keep the whole vector alive
            return SharedHeadRoundModel(head=snap.params[snap.layout.head].copy(), trunk=snap)
        return NeuralRoundModel(snapshot=snap)

    def finalize(self, rounds: list[BoostRound]) -> list[BoostRound]:
        if self.sharing_mode == "privacy":
            return rounds
        trunk = rounds[-1].model.trunk
        for r in rounds:
            r.model = SharedHeadRoundModel(head=r.model.head, trunk=trunk)
        return rounds


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def ensemble_to_bytes(ensemble: BoostEnsemble) -> bytes:
    header: dict = {
        "K": ensemble.K,
        "learner_kind": ensemble.learner_kind,
        "sharing_mode": ensemble.sharing_mode,
        "ensemble_kind": ensemble.ensemble_kind,
        "m_effective": ensemble.m_effective,
        "rounds": [
            {"index": r.index, "alpha": r.alpha, "err": r.err} for r in ensemble.rounds
        ],
    }
    parts = [s.pieces() for s in ensemble.snapshots]
    if ensemble.sharing_mode == "sharing":
        parts += [[r.model.head.astype("<f8", copy=False)] for r in ensemble.rounds]
    return b"".join(artifacts.pack(ENSEMBLE_MAGIC, header, *artifacts.framed(parts)))


def ensemble_from_bytes(blob: bytes) -> BoostEnsemble:
    """The ensemble of a ``.bge`` blob: one checkpoint part per round, or
    under weight sharing the trunk and then one head part per round."""
    with artifacts.reading(blob, ENSEMBLE_MAGIC, "ensemble") as (header, payload):
        blobs = artifacts.unframe(payload, "ensemble")
        if header["sharing_mode"] == "sharing":
            trunk = enc.ModelSnapshot.from_bytes(blobs[0])
            size = trunk.params[trunk.layout.head].size
            models = [SharedHeadRoundModel(
                head=np.array(artifacts.f8(hb, size, "ensemble head"), dtype=np.float64),
                trunk=trunk) for hb in blobs[1:]]
        else:
            models = [NeuralRoundModel(enc.ModelSnapshot.from_bytes(sb)) for sb in blobs]
        meta = header["rounds"]
        ensemble = BoostEnsemble(
            K=header["K"],
            learner_kind=header["learner_kind"],
            sharing_mode=header["sharing_mode"],
            rounds=[BoostRound(index=rm["index"], model=model, alpha=rm["alpha"], err=rm["err"])
                    for rm, model in zip(meta, models)],
            ensemble_kind=header["ensemble_kind"],
        )
        if not len(models) == len(meta) == header["m_effective"] or any(
                (s.config.kind, s.config.K) != (ensemble.learner_kind, ensemble.K)
                for s in ensemble.snapshots):
            raise artifacts.ArtifactError("ensemble header does not match its parts")
        # the rounds are 1..M; a boost round's alpha is the one of its err, a
        # bag member has none
        bag = ensemble.ensemble_kind == "bag"
        if [r.index for r in ensemble.rounds] != list(range(1, len(meta) + 1)) or any(
                r.err is not None if bag else r.alpha != _clamped_alpha(r.err, ensemble.K)
                for r in ensemble.rounds):
            raise artifacts.ArtifactError("ensemble rounds do not match their index, alpha or err")
        ensemble._hash = hashlib.sha256(blob).hexdigest()
        return ensemble
