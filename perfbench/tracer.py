"""In-memory span recorder that wraps textboost's public functions from outside.

``Tracer.install()`` replaces each target (a module function, a method or a
classmethod) with a wrapper that records one span ``(name, start, end,
parent, counters)`` per call. A function that other ``textboost`` modules
imported into their own namespace is replaced there as well, so a call
through ``from .nnops import softmax_rows`` is traced like one through
``nnops.softmax_rows``. ``Tracer.uninstall()`` puts every original back.
Nothing under ``src/`` is edited.

``summarize()`` turns a span list into per-name aggregates: calls,
inclusive seconds (a span nested in a span of the same name is not counted
twice), self seconds (duration minus the part of it that child spans cover)
and summed counters.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

Counters = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module:attr`` or ``module:Class.method``."""

    span: str
    where: str
    counters: Optional[Counters] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    counters: Optional[dict] = None


def _n(x) -> int:
    return int(getattr(x, "n", 0))


def _packed_rows(args, kwargs, result) -> dict:
    return {"rows": int(args[1].ids.shape[0])}


def _elems(args, kwargs, result) -> dict:
    return {"elems": int(args[0].size)}


def _train_log(args, kwargs, result) -> dict:
    log = result[1]
    return {
        "steps": sum(1 for r in log if r.get("loss") is not None),
        "diverged": sum(1 for r in log if r.get("event") == "diverged"),
    }


def _pretrain_log(args, kwargs, result) -> dict:
    return {"steps": sum(1 for r in result[1] if r.get("loss") is not None)}


def _mlm_tokens(args, kwargs, result) -> dict:
    return {"tokens": int(args[2].sum())}


def _adam_params(args, kwargs, result) -> dict:
    return {"params": int(args[1].size)}


def _snapshot_bytes(args, kwargs, result) -> dict:
    return {"bytes_copied": int(args[0].params.nbytes)}


def _to_bytes_len(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


def _from_bytes_len(args, kwargs, result) -> dict:
    return {"bytes": len(args[1])}


def _boost_rounds(args, kwargs, result) -> dict:
    ensemble, log = result
    discarded = sum(1 for r in log if r.get("event") == "discarded")
    return {"kept": ensemble.m_effective, "discarded": discarded}


def _fusion_epochs(args, kwargs, result) -> dict:
    return {"epochs": len(result[1])}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[1] if len(args) > 1 else args[0]).stat().st_size}


def _raw_rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _feature_rows(args, kwargs, result) -> dict:
    return {"rows": int(result.shape[0])}


# Span names follow ``<module>.<function>``; every name below is a public
# callable of textboost (plus the private per-run writers of the CLI, so
# that the CLI's own time is split into work and file output).
TARGETS: tuple[Target, ...] = (
    Target("cli.main", "textboost.cli:main"),
    Target("cli.prepare_task", "textboost.cli:prepare_task"),
    Target("cli.ensure_pretrained", "textboost.cli:ensure_pretrained"),
    Target("cli.write_artifacts", "textboost.cli:_save_task_artifacts"),
    Target("cli.write_artifacts", "textboost.cli:_write_jsonl"),
    Target("cli.write_artifacts", "textboost.cli:write_metrics"),
    Target("textdata.load_tsv", "textboost.textdata:load_tsv"),
    Target("textdata.from_raw", "textboost.textdata:LabeledDataset.from_raw", _raw_rows),
    Target("textdata.take", "textboost.textdata:Packed.take"),
    Target("training.pretrain_mlm", "textboost.encoder.training:pretrain_mlm", _pretrain_log),
    Target("training.train", "textboost.encoder.training:train", _train_log),
    Target("training.evaluate_accuracy", "textboost.encoder.training:evaluate_accuracy"),
    Target("transformer.clf_loss_and_grad",
           "textboost.encoder.transformer:TransformerModel.clf_loss_and_grad"),
    Target("transformer.mlm_loss_and_grad",
           "textboost.encoder.transformer:TransformerModel.mlm_loss_and_grad", _mlm_tokens),
    Target("transformer.forward_probs",
           "textboost.encoder.transformer:TransformerModel.forward_probs", _packed_rows),
    Target("softreg.clf_loss_and_grad",
           "textboost.encoder.softreg:SoftmaxRegressionModel.clf_loss_and_grad"),
    Target("softreg.forward_probs",
           "textboost.encoder.softreg:SoftmaxRegressionModel.forward_probs", _packed_rows),
    Target("softreg.token_counts", "textboost.encoder.softreg:token_counts"),
    Target("nnops.gelu", "textboost.encoder.nnops:gelu", _elems),
    Target("nnops.gelu_grad", "textboost.encoder.nnops:gelu_grad", _elems),
    Target("nnops.ln_forward", "textboost.encoder.nnops:ln_forward"),
    Target("nnops.ln_backward", "textboost.encoder.nnops:ln_backward"),
    Target("nnops.softmax_rows", "textboost.encoder.nnops:softmax_rows"),
    Target("nnops.dropout_forward", "textboost.encoder.nnops:dropout_forward"),
    Target("optim.adam_step", "textboost.encoder.optim:Adam.step", _adam_params),
    Target("params.views", "textboost.encoder.params:ParamLayout.views"),
    Target("params.snapshot", "textboost.encoder.params:ModelSnapshot.__post_init__",
           _snapshot_bytes),
    Target("params.to_bytes", "textboost.encoder.params:ModelSnapshot.to_bytes", _to_bytes_len),
    Target("params.from_bytes", "textboost.encoder.params:ModelSnapshot.from_bytes",
           _from_bytes_len),
    Target("params.save", "textboost.encoder.params:ModelSnapshot.save", _file_bytes),
    Target("boosting.boost_train", "textboost.boosting:boost_train", _boost_rounds),
    Target("boosting.fit_round", "textboost.boosting:NeuralBoostLearner.fit_round"),
    Target("boosting.round_predict", "textboost.boosting:NeuralRoundModel.predict_proba"),
    Target("boosting.round_predict", "textboost.boosting:SharedHeadRoundModel.predict_proba"),
    Target("boosting.bound_snapshot", "textboost.boosting:SharedHeadRoundModel.bound_snapshot"),
    Target("boosting.vote_predict", "textboost.boosting:vote_predict"),
    Target("boosting.ensemble_io", "textboost.boosting:BoostEnsemble.save", _file_bytes),
    Target("boosting.ensemble_io", "textboost.boosting:BoostEnsemble.load", _file_bytes),
    Target("fusion.build_feature", "textboost.fusion:build_feature", _feature_rows),
    Target("fusion.train_fusion", "textboost.fusion:train_fusion", _fusion_epochs),
    Target("fusion.loss_and_grad", "textboost.fusion:FusionHead.loss_and_grad"),
    Target("fusion.fusion_predict", "textboost.fusion:fusion_predict"),
    Target("fusion.head_io", "textboost.fusion:FusionHead.save", _file_bytes),
    Target("fusion.head_io", "textboost.fusion:FusionHead.load", _file_bytes),
)

ROUND_PREDICT = "boosting.round_predict"


def _resolve(where: str):
    """(owner, attribute name, raw attribute) for ``module:attr[.attr]``."""
    mod_name, _, path = where.partition(":")
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


@dataclass
class Tracer:
    """Records spans for calls into the targets while installed."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    # (round model, dataset) pairs already scored, with the objects held so
    # that their ids stay unique for the whole run
    _scored: dict[tuple[int, int], tuple[object, object]] = field(default_factory=dict)

    # -- recording -------------------------------------------------------
    def _wrap(self, target: Target, fn):
        name, counters = target.span, target.counters
        is_round_predict = name == ROUND_PREDICT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            if is_round_predict:
                span.counters = self._round_counters(args[0], args[1])
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _round_counters(self, model, dataset) -> dict:
        rows = _n(dataset)
        key = (id(model), id(dataset))
        fresh = key not in self._scored
        if fresh:
            self._scored[key] = (model, dataset)
        return {"rows": rows, "distinct_rows": rows if fresh else 0}

    # -- installation ----------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in TARGETS:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, target: Target) -> None:
        owner, attr, raw = _resolve(target.where)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(target, raw.__func__))
            else:
                new = self._wrap(target, raw)
            self._patch(owner, attr, raw, new)
            return
        new = self._wrap(target, raw)
        # the defining module and every textboost module that imported the
        # same function object under some name
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "textboost" or mod_name.startswith("textboost.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._patch(mod, key, raw, new)

    def _patch(self, owner, attr: str, original, new) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def installed_wrappers() -> list[str]:
    """Names of targets whose current binding is a tracer wrapper."""
    found = []
    for target in TARGETS:
        _, _, raw = _resolve(target.where)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if hasattr(fn, "__perfbench_original__"):
            found.append(target.where)
    return found


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's
    intervals, clipped to the span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for j in sorted(children[i], key=lambda k: spans[k].start):
            a = max(spans[j].start, s.start)
            b = min(spans[j].end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (inclusive, outermost of a name only),
    self_s, and every counter summed."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["self_s"] += selfs[i]
        if not _has_ancestor_named(spans, i, s.name):
            a["s"] += s.end - s.start
        for key, val in (s.counters or {}).items():
            a[key] = a.get(key, 0) + val
    return agg


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def to_rows(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.counters] for s in spans]


def from_rows(rows: list[list]) -> list[Span]:
    return [Span(r[0], r[1], r[2], r[3], r[4]) for r in rows]
