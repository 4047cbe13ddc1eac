"""Training loops: weighted cross-entropy fine-tuning and toy MLM pretraining."""

from __future__ import annotations

import ctypes
import os
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .. import artifacts
from ..textdata import MASK_ID, LabeledDataset, pack_corpus
from .config import EncoderConfig, TrainConfig
from .nnops import DivergenceError
from .optim import Adam
from .params import ModelSnapshot, ParamLayout, init_param_vector
from .softreg import SoftmaxRegressionModel
from .steplog import StepLog
from .transformer import TransformerModel

MLM_MASK_FRACTION = 0.15
# fine-tuning, pretraining and distillation ramp the learning rate linearly
# over this fraction of their steps; without it the early bias-corrected Adam
# updates act like full-size sign steps and can scramble a warm-started model
WARMUP_FRACTION = 0.1

# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Let glibc serve blocks below 8 MiB from the heap and keep up to 16 MiB
    of freed heap for reuse; other C libraries are left alone.

    Every training step and every scoring chunk allocates and frees its whole
    working set, about 9 MB for a batch-32 masked-token step at the default
    shapes. glibc starts with both thresholds at 128 KiB and raises them only
    when a large mapped block is freed, so it gave that memory back to the OS
    after each step and faulted it in again on the next, which made that step
    6.6 ms instead of 4.1 ms. These are the values glibc's own rule sets after
    freeing one 8 MiB block. ``fit_loop`` calls this, so library callers get
    it too, and so does ``cli.main``, for scoring.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def _one_blas_thread() -> None:
    """Run the OpenBLAS that numpy's wheel bundles on one thread, as in an
    ``OPENBLAS_NUM_THREADS=1`` process; any other BLAS is left alone.

    More threads split a long inner dimension (``(32, 2000) @ (2000, 32)``)
    and reorder its sums, which would tie the bytes of a trained model to the
    core count. ``fit_loop`` calls this, and so does ``cli.main``, for scoring.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads(1)


# the model class of each config and snapshot kind
_MODEL_CLASSES = {cls.kind: cls for cls in (TransformerModel, SoftmaxRegressionModel)}


def new_model(config, *, seed=None):
    return _MODEL_CLASSES[config.kind](config, seed=seed)


def model_from_snapshot(snap: ModelSnapshot):
    return _MODEL_CLASSES[snap.kind].from_snapshot(snap)


def fresh_start(config, seed, trunk: Optional[ModelSnapshot] = None) -> ModelSnapshot:
    """Where a fine-tune starts: ``trunk``'s parameters with the head
    redrawn from ``seed`` (Xavier ``cls.w``, zero ``cls.b``), or without a
    trunk a random init from ``seed``."""
    if trunk is None:
        return new_model(config, seed=seed).snapshot("random")
    if trunk.config_hash != artifacts.digest(config.to_dict()):
        raise ValueError("trunk config does not match the requested config")
    params = np.array(trunk.params, copy=True)
    head = ParamLayout(trunk.layout.entries[-2:])  # cls.w, cls.b
    params[trunk.layout.head] = init_param_vector(head, np.random.default_rng(seed))
    return ModelSnapshot(config=config, params=params, role=trunk.role)


def fit_loop(
    params: np.ndarray,
    n: int,
    batch_size: int,
    rng: np.random.Generator,
    loss_and_grad: Callable,
    *,
    lr: float,
    warmup: float = 0.0,
    epochs: Optional[int] = None,
    steps: Optional[int] = None,
    after_pass: Optional[Callable[[int], dict]] = None,
    patience: Optional[int] = None,
    ranges: Optional[Sequence[slice]] = None,
) -> StepLog:
    """The one optimizer loop: Adam over shuffled mini-batches of ``range(n)``.

    Each pass walks a fresh permutation of ``range(n)`` in ``batch_size``
    slices until ``epochs`` passes or ``steps`` updates are done (give
    exactly one cap).
    Update ``step`` (0-based) runs at ``lr * min(1, (step + 1) / w)``, where
    ``w`` is ``warmup`` times the number of updates, at least 1.
    ``loss_and_grad(idx, step, grad)`` adds the gradient of the rows ``idx``
    into ``grad`` and returns ``(loss, grad)``, optionally followed by a dict
    of extra fields for the step's record; ``params`` is updated in place.
    ``grad`` is one vector per fit, zeroed before every step.

    ``ranges`` are the slices of ``params`` the loss can reach, as the model
    reports them (all of ``params`` by default). Only they are zeroed,
    checked and updated; every other entry has an exactly-zero gradient,
    whose Adam update is exactly zero.

    Returns the log, a ``StepLog``: one ``{"step", "loss", "lr"}`` record per
    update, where ``step`` counts the updates done, plus the loss's extra
    fields, all held in float64 columns rather than a dict per update. A
    ``DivergenceError`` or a non-finite loss or gradient ends the run with
    one ``{"step", "loss": None, "lr", "event": "diverged"}`` record and
    ``params`` at the last finite update.

    Under glibc, the heap keeps the freed working set of a step for the next
    (``_keep_freed_heap``), and BLAS runs on one thread (``_one_blas_thread``).

    ``after_pass(step)``, when given, runs after every pass that did not
    diverge (a pass cut short by the step cap included) and returns a record
    for the log; its ``dev_acc``, when present, scores the pass. The
    parameters of the first best-scoring pass are restored at the end, also
    after a divergence, and the run stops once more than ``patience`` passes
    in a row have not beaten the best.
    """
    if (epochs is None) == (steps is None):
        raise ValueError("give exactly one of epochs and steps")
    _keep_freed_heap()
    _one_blas_thread()
    total = steps if steps is not None else epochs * -(-n // batch_size)
    warmup_steps = max(1, int(round(warmup * total)))
    ranges = (slice(0, params.size),) if ranges is None else tuple(ranges)
    opt = Adam(params.size, lr=lr, ranges=ranges)
    grad_buf = np.zeros_like(params)
    log = StepLog()
    best, best_score, since_best = None, -np.inf, 0
    step, diverged = 0, False
    while step < total and not diverged:
        order = rng.permutation(n)
        for start in range(0, n, batch_size)[: total - step]:
            opt.lr = lr * min(1.0, (step + 1) / warmup_steps)
            for sl in ranges:
                grad_buf[sl] = 0.0
            try:
                loss, grad, *extra = loss_and_grad(order[start : start + batch_size], step,
                                                   grad_buf)
            except DivergenceError:  # counts as a non-finite loss
                loss, grad, extra = np.nan, None, []
            fields = extra[0] if extra else {}
            if not (np.isfinite(loss) and all(np.isfinite(grad[sl]).all() for sl in ranges)):
                diverged = True
                log.add_record({"step": step, "loss": None, "lr": opt.lr, **fields,
                                "event": "diverged"})
                break
            opt.step(params, grad)
            step += 1
            log.add_update(loss, opt.lr, fields)
        if diverged or after_pass is None:
            continue
        record = after_pass(step)
        log.add_record(record)
        score = record.get("dev_acc")
        if score is not None and score > best_score:
            best, best_score, since_best = params.copy(), score, 0
        elif score is not None:
            since_best += 1
            if patience is not None and since_best > patience:
                break
    if best is not None:
        params[:] = best
    return log


def train(
    model,
    dataset: LabeledDataset,
    cfg: TrainConfig,
    seed,
    *,
    weights: Optional[np.ndarray] = None,
) -> tuple[ModelSnapshot, StepLog]:
    """Mini-batch Adam on the weighted CE loss; deterministic given seed.

    Mutates ``model`` in place and returns its final snapshot (role
    "finetuned") plus the ``fit_loop`` log. Weights default to ones.
    """
    if dataset.n == 0:
        raise ValueError("dataset must be non-empty")
    packed = dataset.packed
    weights = np.ones(dataset.n) if weights is None else np.asarray(weights, dtype=np.float64)
    if weights.shape != (dataset.n,):
        raise ValueError("weights must have one entry per example")
    if not (weights > 0).all():
        raise ValueError("weights must be strictly positive")
    rng = np.random.default_rng(seed)

    def loss_and_grad(idx, step, grad):
        batch = packed.take(idx)
        loss, _, grad = model.clf_loss_and_grad(
            batch, batch.labels, weights[idx], train_mode=True, rng=rng, out=grad
        )
        return loss, grad

    log = fit_loop(model.params, dataset.n, cfg.batch_size, rng, loss_and_grad,
                   lr=cfg.lr, warmup=WARMUP_FRACTION, epochs=cfg.epochs,
                   ranges=model.clf_ranges())
    return model.snapshot("finetuned"), log


def percent_correct(preds: np.ndarray, labels: np.ndarray) -> float:
    """The percentage of ``preds`` that equal ``labels``."""
    return float((preds == labels).mean() * 100.0)


def evaluate_accuracy(model, dataset: LabeledDataset) -> float:
    """Percent accuracy in eval mode."""
    return percent_correct(model.predict_proba(dataset.packed).argmax(axis=1), dataset.labels)


def pretrain_mlm(
    corpus: Sequence[Sequence[int]],
    config: EncoderConfig,
    steps: int,
    seed,
    *,
    lr: float = 1e-3,
    batch_size: int = 32,
) -> tuple[ModelSnapshot, StepLog]:
    """Masked-token pretraining on raw token-id sequences.

    ``textdata.pack_corpus`` lays the sequences out as the classifier's
    single-sentence rows, ``[CLS]``, the first ``max_seq_len - 2`` tokens,
    ``[SEP]``, and skips those shorter than 2 tokens; 15% of the content
    positions per sequence (at least one) are replaced by MASK and the model
    is trained to recover the original ids. The classification head is left
    at its random initialization. ``steps == 0`` returns the random init
    as-is.
    """
    rng = np.random.default_rng(seed)
    model = TransformerModel(config, seed=rng)
    tokens, lengths = pack_corpus(corpus, config.max_seq_len)
    if steps == 0:
        return model.snapshot("pretrained"), StepLog()
    if lengths.size == 0:
        raise ValueError("corpus has no sequences of length >= 2")
    if (tokens >= config.vocab_size).any() or (tokens < 0).any():
        raise ValueError("corpus token id outside the vocabulary")

    def loss_and_grad(idx, step, grad):
        ids, lens, rows, cols, targets = _mask_batch(tokens, lengths, idx, rng)
        return model.mlm_loss_and_grad(ids, lens, rows, cols, targets, train_mode=True,
                                       rng=rng, out=grad)

    log = fit_loop(model.params, lengths.size, batch_size, rng, loss_and_grad,
                   lr=lr, warmup=WARMUP_FRACTION, steps=steps, ranges=model.mlm_ranges())
    return model.snapshot("pretrained"), log


def _mask_batch(tokens: np.ndarray, lengths: np.ndarray, idx: np.ndarray, rng):
    """The rows ``idx`` of a ``pack_corpus`` matrix, cut to their longest,
    with 15% of each one's content positions (at least one) replaced by MASK;
    CLS and SEP are never masked. Returns (ids, lengths, rows, cols,
    targets), the masked (row, col) pairs grouped by row. Each row draws its
    positions with one ``rng.choice``, in row order."""
    lens = lengths[idx]
    ids = tokens[idx, : lens.max()]
    content = lens - 2
    n_mask = np.maximum(1, np.rint(MLM_MASK_FRACTION * content)).astype(np.int64)
    cols = np.concatenate([rng.choice(c, size=k, replace=False)
                           for c, k in zip(content.tolist(), n_mask.tolist())]) + 1
    rows = np.repeat(np.arange(lens.size), n_mask)
    targets = ids[rows, cols]
    ids[rows, cols] = MASK_ID
    return ids, lens, rows, cols, targets
