"""Command-line entry point and experiment orchestration.

Commands: gen-data, train-boost, train-bag, fusion, distill, eval,
compare, oracle-check. Runs are driven by a JSON config file
(one canonical serialization, human-editable); --out, --seed and --vote
override individual keys. Exit codes: 0 success, 1 runtime failure,
2 configuration/validation failure or a malformed or mismatched artifact.

Every run writes its resolved config, artifacts, and one MetricsRecord
line appended to ``<out_root>/metrics.jsonl``. The default output root is
``$TEXTBOOST_OUT`` or ``runs``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import artifacts, baselines, boosting, distill as distill_mod, fusion as fusion_mod
from . import encoder as enc, synthetic
from .encoder.training import _MODEL_CLASSES, _keep_freed_heap, _one_blas_thread
from .textdata import LabeledDataset, Vocabulary, build_vocab, load_tsv, subsample

OUT_ROOT_ENV = "TEXTBOOST_OUT"

COMPARE_AXES = {
    "fraction": (0.05, 0.2, 1.0),  # training-set fractions; --fractions overrides them
    "init_strategy": boosting.INIT_STRATEGIES,
    "sharing_mode": boosting.SHARING_MODES,
    "ensemble_kind": boosting.ENSEMBLE_KINDS,
}


class ConfigError(ValueError):
    """Invalid configuration or inputs; maps to exit code 2."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

# A rule is (what a value must be, the test it must pass). Values are never
# coerced, so a valid config keeps its bytes and its hash; `type(v) is int`
# turns a bool away.

def _int(lo: int, hi: float = math.inf):
    return (f"an integer in {lo}..{hi}" if hi < math.inf else f"an integer >= {lo}",
            lambda v: type(v) is int and lo <= v <= hi)


def _number(what: str, ok):
    return f"a finite number {what}", lambda v: (
        type(v) is int or (type(v) is float and math.isfinite(v))) and ok(v)


def _one_of(choices: Sequence[str]):
    return f"one of {list(choices)}", lambda v: isinstance(v, str) and v in choices


def _or_null(rule):
    return f"null or {rule[0]}", lambda v: v is None or rule[1](v)


_FILE = ("the path of a file", lambda v: isinstance(v, str) and Path(v).is_file())
_POSITIVE = _number("> 0", lambda x: x > 0)
_RATES = ("a list of at least 2 finite numbers > 0",
          lambda v: isinstance(v, list) and len(v) >= 2 and all(_POSITIVE[1](r) for r in v))

# Every settable key of the run config: (default, rule).
_SCHEMA: dict = {
    "seed": (None, _int(0)),
    "train_path": (None, _FILE),
    "dev_path": (None, _FILE),
    "corpus_path": (None, _or_null(_FILE)),
    "learner": ("transformer", _one_of(tuple(_MODEL_CLASSES))),
    "encoder": {
        "d_model": (32, _int(1)),
        "n_layers": (2, _int(1)),
        "n_heads": (2, _int(1)),
        "d_ffn": (64, _int(1)),
        "max_seq_len": (24, _int(3)),  # CLS, SEP and one token to mask
        "dropout_rate": (0.1, _number("in [0, 1)", lambda x: 0 <= x < 1)),
    },
    "boost": {
        "rounds": (6, _int(1)),
        "init_strategy": ("incremental", _one_of(boosting.INIT_STRATEGIES)),
        "sharing_mode": ("privacy", _one_of(boosting.SHARING_MODES)),
        "vote": ("soft", _one_of(boosting.VOTE_MODES)),
    },
    "train": {"lr": (1e-3, _POSITIVE), "batch_size": (32, _int(1)), "epochs": (3, _int(0))},
    "pretrain": {"steps": (2500, _int(0))},
    "fusion": {"depth": (1, _int(0, 3)), "max_epochs": (20, _int(1)), "patience": (3, _int(0))},
    "distill": {"total_steps": (600, _int(1))},
    "bag": {"learning_rates": ([5e-4, 1e-3, 2e-3], _RATES)},
    "out_dir": (None, _or_null(("a string", lambda v: isinstance(v, str)))),
}


def _pick(schema: dict, i: int) -> dict:
    return {key: _pick(entry, i) if isinstance(entry, dict) else entry[i]
            for key, entry in schema.items()}


_DEFAULTS, _RULES = _pick(_SCHEMA, 0), _pick(_SCHEMA, 1)


def _problems(rules: dict, data: dict, path: str = "") -> list[str]:
    """What each value of ``data`` must be and is not."""
    out = []
    for key, rule in rules.items():
        if isinstance(rule, dict):
            out += _problems(rule, data[key], f"{path}{key}.")
        elif not rule[1](data[key]):
            out.append(f"{path}{key} must be {rule[0]}, not {data[key]!r}")
    return out


def _flags(args, rules: dict) -> dict:
    """The values of the flags that ``rules`` names, each checked against its
    rule before the command writes anything."""
    values = {flag: getattr(args, flag) for flag in rules}
    problems = [f"--{flag.replace('_', '-')} must be {what}, not {values[flag]!r}"
                for flag, (what, ok) in rules.items() if not ok(values[flag])]
    if problems:
        raise ConfigError("; ".join(problems))
    return values


def _merge(defaults: dict, overrides: dict, path: str = "") -> dict:
    out = {}
    for key, dval in defaults.items():
        if key in overrides:
            oval = overrides[key]
            if isinstance(dval, dict):
                if not isinstance(oval, dict):
                    raise ConfigError(f"config key {path + key!r} must be an object")
                out[key] = _merge(dval, oval, path + key + ".")
            else:
                out[key] = oval
        else:
            out[key] = dval
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return out


@dataclass
class RunConfig:
    """Resolved experiment configuration (all defaults applied)."""

    data: dict

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise ConfigError(f"config {p} is not a readable UTF-8 JSON file: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"config {p} is not a JSON object")
        return cls(data=_merge(_DEFAULTS, raw))

    def validate(self) -> None:
        """Every value against its rule in ``_SCHEMA``, then the rules that
        span keys; a config that breaks one raises ConfigError."""
        problems = _problems(_RULES, self.data)
        if not problems:
            encoder, boost = self.data["encoder"], self.data["boost"]
            if encoder["d_model"] % encoder["n_heads"]:
                problems.append("encoder.n_heads must divide encoder.d_model")
            if self.data["learner"] == "softreg" and boost["sharing_mode"] == "sharing":
                problems.append("weight sharing requires the transformer learner")
            if boost["init_strategy"] in ("pretrained", "incremental") and not _pretrains(self):
                problems.append(
                    f"init_strategy {boost['init_strategy']!r} needs an MLM checkpoint: "
                    "the transformer learner with pretrain.steps > 0"
                )
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def hash(self) -> str:
        # out_dir says where artifacts go, not what gets computed
        return artifacts.digest({k: v for k, v in self.data.items() if k != "out_dir"})

    def with_overrides(self, **kv) -> "RunConfig":
        data = json.loads(json.dumps(self.data))
        for key, val in kv.items():
            if val is None:
                continue
            section = data
            parts = key.split(".")
            for part in parts[:-1]:
                section = section[part]
            section[parts[-1]] = val
        return RunConfig(data=data)


# ----------------------------------------------------------------------
# task preparation
# ----------------------------------------------------------------------

@dataclass
class TaskBundle:
    train: LabeledDataset
    dev: LabeledDataset
    vocab: Vocabulary
    corpus_ids: list[list[int]]  # empty unless the config pretrains


@contextmanager
def _input_data():
    """A task file that cannot be read or encoded (a malformed or empty TSV,
    a corpus with no non-blank line, a training set of one label) raises
    ConfigError in the block."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise ConfigError(str(e)) from e


def prepare_task(cfg: RunConfig) -> TaskBundle:
    """Load TSVs, build the vocabulary, and encode both splits.

    The vocabulary (and the MLM corpus) come from the unlabeled corpus file
    when one is given, else from the training texts, and stay fixed across
    the cells of a ``fraction`` axis, mirroring a fixed pretrained
    tokenizer. The corpus is encoded only for a config that pretrains.
    """
    with _input_data():
        raw_train = load_tsv(cfg.data["train_path"])
        raw_dev = load_tsv(cfg.data["dev_path"])
        train_labels = {ex.label for ex in raw_train}
        dev_only = {ex.label for ex in raw_dev} - train_labels
        if dev_only:
            raise ConfigError(f"dev labels missing from training data: {sorted(dev_only)}")

        if cfg.data["corpus_path"] is not None:
            text = Path(cfg.data["corpus_path"]).read_text(encoding="utf-8")
            corpus_lines = [line for line in text.splitlines() if line.strip()]
        else:
            corpus_lines = [ex.text_a for ex in raw_train] + [
                ex.text_b for ex in raw_train if ex.text_b is not None
            ]
        vocab = build_vocab(corpus_lines)

        label_names = tuple(sorted(train_labels))
        max_len = cfg.data["encoder"]["max_seq_len"]
        train_ds = LabeledDataset.from_raw(raw_train, vocab, max_len, label_names=label_names)
        dev_ds = LabeledDataset.from_raw(raw_dev, vocab, max_len, label_names=label_names)
    corpus_ids = [vocab.ids(line) for line in corpus_lines] if _pretrains(cfg) else []
    return TaskBundle(train=train_ds, dev=dev_ds, vocab=vocab, corpus_ids=corpus_ids)


def encoder_config(cfg: RunConfig, vocab_size: int, K: int):
    if cfg.data["learner"] == "softreg":
        return enc.SoftregConfig(vocab_size=vocab_size, K=K)
    return enc.EncoderConfig(vocab_size=vocab_size, K=K, **cfg.data["encoder"])


def _pretrains(cfg: RunConfig) -> bool:
    """Whether the config trains an MLM trunk (a transformer with pretrain steps)."""
    return cfg.data["learner"] == "transformer" and cfg.data["pretrain"]["steps"] > 0


# ----------------------------------------------------------------------
# keyed stages
# ----------------------------------------------------------------------

def _stage(name: str, reads: tuple[str, ...], *parts: str):
    """Make the decorated ``fit(cfg, **inputs)`` a stage: a trained result
    named ``name`` that reads the config values ``reads`` (dotted keys) and
    is the ``{file: model or log}`` of the files ``parts``."""
    def mark(fit):
        fit.stage = (name, reads, parts)
        return fit
    return mark


@functools.cache
def _source_digest() -> str:
    """sha256 over the relative path and the bytes of every textboost module."""
    root, h = Path(__file__).parent, hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _key_of(value):
    """What a stage key holds of an input: a model config's fields, the sha256
    of a model's bytes (of a run dir's ensemble and head), the hash of a
    dataset's arrays, else the (JSON) value itself."""
    if isinstance(value, (enc.EncoderConfig, enc.SoftregConfig)):
        return value.to_dict()
    if isinstance(value, LabeledDataset):
        h = hashlib.sha256(json.dumps(value.label_names).encode())
        for a in (value.packed.ids, value.packed.lengths, value.labels):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a))  # the bytes of tobytes(), read in place
        return h.hexdigest()
    if isinstance(value, boosting.BoostEnsemble):
        return value.content_hash()
    if isinstance(value, (enc.ModelSnapshot, fusion_mod.FusionHead)):
        return hashlib.sha256(value.to_bytes()).hexdigest()
    if isinstance(value, TrainedDir):
        return [value.ensemble.content_hash(), _key_of(value.head)]
    return value


def _save(path: Path, part) -> None:
    if path.suffix == ".jsonl":
        return _write_jsonl(path, part)
    part.save(path)


def _load(path: Path):
    """The part ``_save`` wrote to ``path``; a malformed one raises ArtifactError."""
    if path.suffix == ".jsonl":
        with artifacts.decoding(f"log {path}"):
            return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return {".bgv": enc.ModelSnapshot, ".bge": boosting.BoostEnsemble,
            ".bgf": fusion_mod.FusionHead}[path.suffix].load(path)


@dataclass
class Store:
    """The stage outputs under an out root: a ``store/<source12>/<name>_<key16>``
    dir of each stage's files, named as in a run dir."""

    root: Path
    memo: dict = field(default_factory=dict)  # entry dir -> {file: model or log}

    def get(self, fit, cfg: RunConfig, **inputs) -> dict:
        """The files of ``fit``'s stage, keyed by the sha256 of the values it
        reads and its inputs' keys: from the memo, else from its entry, else
        fitted now and written there. An entry that lacks a file or fails to
        load is fitted again and replaced."""
        name, reads, parts = fit.stage
        values = [functools.reduce(lambda d, k: d[k], key.split("."), cfg.data) for key in reads]
        key = artifacts.digest([name, values, {k: _key_of(v) for k, v in inputs.items()}])
        entry = self.root / "store" / _source_digest()[:12] / f"{name}_{key[:16]}"
        if entry not in self.memo:
            try:
                self.memo[entry] = {part: _load(entry / part) for part in parts}
            except (OSError, artifacts.ArtifactError):  # no entry, or a cut or corrupted one
                self.memo[entry] = fit(cfg, **inputs)
                entry.mkdir(parents=True, exist_ok=True)
                for part in parts:
                    _save(entry / part, self.memo[entry][part])
        return self.memo[entry]

    def file_of(self, part) -> Path:
        """The entry file that holds ``part``, a model or log that ``get`` gave."""
        return next(entry / name for entry, parts in self.memo.items()
                    for name, p in parts.items() if p is part)


@_stage("pretrained", ("seed", "pretrain"), "pretrained.bgv")
def ensure_pretrained(cfg: RunConfig, model, corpus: list) -> dict:
    """The MLM trunk of the ``model`` config, trained on the encoded corpus."""
    snap, _ = enc.pretrain_mlm(corpus, model, cfg.data["pretrain"]["steps"], [cfg.seed, 41])
    return {"pretrained.bgv": snap}


@_stage("boost", ("seed", "train", "boost.rounds", "boost.init_strategy", "boost.sharing_mode"),
        "ensemble.bge", "single.bgv", "round_log.jsonl", "train_log.jsonl")
def _fit_boost(cfg: RunConfig, model, trunk, train: LabeledDataset, dev: LabeledDataset) -> dict:
    """The boosted ensemble, its round-1 model as trained, the round log and
    every round's optimizer steps under its ``round``."""
    boost = cfg.data["boost"]
    learner = boosting.NeuralBoostLearner(
        model, enc.TrainConfig(**cfg.data["train"]), boost["init_strategy"],
        sharing_mode=boost["sharing_mode"], pretrained=trunk)
    ensemble, round_log = boosting.boost_train(train, learner, boost["rounds"], cfg.seed, dev=dev)
    for m, rows in learner.train_logs.items():
        for rec in rows:  # in place: a copy of every step record would double the log
            rec["round"] = m
    return {"ensemble.bge": ensemble, "single.bgv": learner.round1_snapshot,
            "round_log.jsonl": round_log,
            "train_log.jsonl": [rec for rows in learner.train_logs.values() for rec in rows]}


@_stage("fusion", ("seed", "fusion"), "fusion.bgf")
def _fit_head(cfg: RunConfig, ensemble: boosting.BoostEnsemble, train: LabeledDataset,
              dev: LabeledDataset) -> dict:
    """The fusion head, on the rows that ``boost_train`` scored when it has them."""
    head, _ = fusion_mod.train_fusion(
        ensemble, train, dev, fusion_mod.FusionConfig(**cfg.data["fusion"]), cfg.seed,
        train_probs=ensemble.train_probs, dev_probs=ensemble.dev_probs)
    return {"fusion.bgf": head}


@_stage("bag", ("seed", "train", "bag"), "ensemble.bge", "bag_log.jsonl")
def _fit_bag(cfg: RunConfig, model, trunk, train: LabeledDataset) -> dict:
    """The bagging ensemble and its members' log."""
    bag, log = baselines.bag_train(
        train, cfg.data["bag"]["learning_rates"], cfg.seed, config=model,
        train_cfg=enc.TrainConfig(**cfg.data["train"]), pretrained=trunk)
    return {"ensemble.bge": bag, "bag_log.jsonl": log}


@_stage("student", ("seed", "distill"), "model.bgv", "distill_log.jsonl")
def _fit_student(cfg: RunConfig, model, teacher: "TrainedDir", trunk, train: LabeledDataset,
                 dev: LabeledDataset) -> dict:
    """The student distilled from the teacher dir's ensemble and head, and its log."""
    student, log = distill_mod.distill_train(
        distill_mod.teacher_targets(teacher.ensemble, teacher.head, train), train, model,
        cfg.data["distill"]["total_steps"], cfg.seed, pretrained=trunk, dev=dev)
    return {"model.bgv": student, "distill_log.jsonl": log}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

ACCURACY_KEYS = ("single", "boost_vote", "boost_fusion", "bag", "distilled")


def _predictions(ensemble: boosting.BoostEnsemble, head: Optional[fusion_mod.FusionHead],
                 probs: np.ndarray, vote: str) -> dict[str, np.ndarray]:
    """The label ids of the ``vote`` over ``probs``, the (n, M, K) tensor of
    ``predict_proba_per_round``, then those of ``head`` when given (its
    binding checked, as by ``fusion_predict``), under the accuracy keys
    ``bag``/``bag_fusion`` or ``boost_vote``/``boost_fusion``."""
    bag = ensemble.ensemble_kind == "bag"
    preds = {"bag" if bag else "boost_vote":
             boosting.vote_predict(ensemble, mode=vote, probs=probs)[0]}
    if head is not None:
        preds["bag_fusion" if bag else "boost_fusion"] = fusion_mod.fusion_predict(
            ensemble, head, probs=probs)[0]
    return preds


@dataclass
class MetricsRecord:
    run_id: str
    command: str
    config_hash: str
    round_log: list = field(default_factory=list)
    accuracies: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def write_metrics(record: MetricsRecord, out_root: Path, run_dir: Path) -> None:
    with (out_root / "metrics.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
    artifacts.write(run_dir / "metrics.json", record.to_json() + "\n")


def _write_json(path: Path, obj) -> None:
    artifacts.write(path, json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n")


def _write_jsonl(path: Path, records: Sequence[dict]) -> None:
    artifacts.write(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def _out_root(explicit: Optional[str]) -> Path:
    return Path(explicit or os.environ.get(OUT_ROOT_ENV, "runs"))


def _save_task_artifacts(run_dir: Path, cfg: RunConfig, bundle: TaskBundle) -> None:
    _write_json(run_dir / "config.json", cfg.data)
    bundle.vocab.save(run_dir / "vocab.tsv")
    task = {
        "label_names": list(bundle.train.label_names),
        "max_seq_len": cfg.data["encoder"]["max_seq_len"],
        "learner": cfg.data["learner"],
        "K": bundle.train.K,
    }
    _write_json(run_dir / "task.json", task)


# CLI flag -> the config key it overrides, for the commands that have it
_FLAG_KEYS = {"seed": "seed", "out": "out_dir", "vote": "boost.vote", "depth": "fusion.depth"}


@dataclass(frozen=True)
class TrainedDir:
    """The model of a run dir and the task it was trained on, read and
    checked against each other by ``read``: an ensemble (with the fusion head
    bound to it, when the dir holds one) or else a distilled student."""

    path: Path
    vocab: Vocabulary
    task: dict  # task.json: label_names, max_seq_len, learner, K
    ensemble: Optional[boosting.BoostEnsemble]
    head: Optional[fusion_mod.FusionHead]
    snapshot: Optional[enc.ModelSnapshot]

    @classmethod
    def read(cls, path: str | Path, *, need_ensemble: bool = False) -> "TrainedDir":
        """Every file of the dir that a command reads, before it does any work;
        a missing, malformed or mismatched one raises ConfigError or
        ArtifactError."""
        path = Path(path)
        task_path, vocab_path = path / "task.json", path / "vocab.tsv"
        for p in (task_path, vocab_path):
            if not p.exists():
                raise ConfigError(f"model artifact missing: {p}")
        vocab = Vocabulary.load(vocab_path)
        with artifacts.decoding(f"task {task_path}"):
            task = json.loads(task_path.read_text(encoding="utf-8"))
            if not isinstance(task["max_seq_len"], int):
                raise artifacts.ArtifactError(f"{task_path}: max_seq_len is not an integer")
            if len(set(task["label_names"])) != task["K"]:
                raise artifacts.ArtifactError(f"{task_path}: K={task['K']} classes are not "
                                              f"the {len(set(task['label_names']))} label names")
        ensemble = head = snapshot = None
        if (path / "ensemble.bge").exists():
            ensemble = boosting.BoostEnsemble.load(path / "ensemble.bge")
            configs = [s.config for s in ensemble.snapshots]
            if (path / "fusion.bgf").exists():
                head = fusion_mod.FusionHead.load(path / "fusion.bgf")
                fusion_mod.check_bound(ensemble, head)
        elif (path / "model.bgv").exists() and not need_ensemble:
            snapshot = enc.ModelSnapshot.load(path / "model.bgv")
            configs = [snapshot.config]
        else:
            raise ConfigError(f"no {'ensemble' if need_ensemble else 'model'} artifacts "
                              f"found in {path}")
        for c in configs:
            # softreg reads a sequence of any length
            max_len = getattr(c, "max_seq_len", task["max_seq_len"])
            if (c.kind, c.vocab_size, c.K, max_len) != (
                    task.get("learner"), vocab.size, task["K"], task["max_seq_len"]):
                raise artifacts.ArtifactError(
                    f"vocab.tsv and task.json ({task.get('learner')}, {vocab.size} ids, "
                    f"K={task['K']}, max_seq_len {task['max_seq_len']}) do not match the model "
                    f"({c.kind}, vocab_size {c.vocab_size}, K={c.K}, max_seq_len {max_len})")
        return cls(path, vocab, task, ensemble, head, snapshot)


@dataclass
class Run:
    """The skeleton that every config-driven command shares.

    ``Run.open`` loads the command's config with its flag overrides,
    validates it, prepares the task, gives the command its pretrained trunk
    from the store (``fusion`` never uses one) and names its
    ``<command>-<hash12>`` dir. A command that reads a saved ensemble
    (``fusion``, ``distill``) passes its ``TrainedDir`` as ``trained_on``,
    whose task the prepared one must equal and whose ensemble's content hash
    is the ``source``; ``compare`` passes the hash of its grid. The dir is
    then ``<command>-<hash12>-<source hash12>``, so two ensembles, or two
    grids, of one config get two dirs. Only ``finish`` makes the dir, whole,
    so an error before it leaves none.
    """

    command: str
    cfg: RunConfig
    bundle: TaskBundle
    dir: Path
    t0: float
    store: Store
    model: object  # the base learner's config: EncoderConfig or SoftregConfig
    trunk: Optional[enc.ModelSnapshot]  # the pretrained trunk

    @classmethod
    def open(cls, args, config_path: str | Path, source: str = "",
             trained_on: Optional[TrainedDir] = None) -> "Run":
        t0 = time.perf_counter()
        cfg = RunConfig.load(config_path).with_overrides(
            **{key: getattr(args, flag, None) for flag, key in _FLAG_KEYS.items()})
        cfg.validate()
        bundle = prepare_task(cfg)
        if trained_on is not None:
            task = trained_on.task
            if (trained_on.vocab, task["label_names"], task["max_seq_len"]) != (
                    bundle.vocab, list(bundle.train.label_names),
                    cfg.data["encoder"]["max_seq_len"]):
                raise ConfigError(f"the config's task (vocabulary, label names, max_seq_len) "
                                  f"is not the one the model in {trained_on.path} was "
                                  f"trained on")
            source = trained_on.ensemble.content_hash()
        out_root = _out_root(cfg.data["out_dir"])
        store, trunk = Store(out_root), None
        model = encoder_config(cfg, bundle.vocab.size, bundle.train.K)
        if args.command != "fusion" and _pretrains(cfg):
            trunk = store.get(ensure_pretrained, cfg, model=model,
                              corpus=bundle.corpus_ids)["pretrained.bgv"]
        run_dir = out_root / (f"{args.command}-{cfg.hash()[:12]}"
                              + (f"-{source[:12]}" if source else ""))
        return cls(args.command, cfg, bundle, run_dir, t0, store, model, trunk)

    def finish(self, accuracies: dict, *, parts: Optional[dict] = None,
               round_log: Sequence[dict] = (), extras: Optional[dict] = None,
               timing: Optional[dict] = None) -> MetricsRecord:
        """Write the run dir whole: the task artifacts, ``parts`` (``{file: a part
        from the store, or a Path}``) as links, then the record; accuracies it
        does not fill read None."""
        self.dir.mkdir(parents=True, exist_ok=True)
        _save_task_artifacts(self.dir, self.cfg, self.bundle)
        for name, part in (parts or {}).items():
            artifacts.write(self.dir / name,
                            part if isinstance(part, Path) else self.store.file_of(part))
        record = MetricsRecord(
            run_id=self.dir.name,
            command=self.command,
            config_hash=self.cfg.hash(),
            round_log=list(round_log),
            accuracies={**dict.fromkeys(ACCURACY_KEYS), **accuracies},
            extras=extras or {},
            timing=timing or {},
            wall_time_s=time.perf_counter() - self.t0,
        )
        write_metrics(record, self.dir.parent, self.dir)
        return record

    def dev_probs(self, ensemble: boosting.BoostEnsemble) -> np.ndarray:
        """The (n, M, K) dev rows of ``ensemble``: scored once and kept in its
        ``dev_probs`` when it has none (one read from a file, or a bag)."""
        if ensemble.dev_probs is None:
            ensemble.dev_probs = ensemble.predict_proba_per_round(self.bundle.dev)
        return ensemble.dev_probs

    def head(self, cfg: RunConfig, ensemble: boosting.BoostEnsemble,
             train: LabeledDataset) -> fusion_mod.FusionHead:
        """``cfg``'s fusion head of ``ensemble`` on ``train``, from the store."""
        self.dev_probs(ensemble)
        return self.store.get(_fit_head, cfg, ensemble=ensemble, train=train,
                              dev=self.bundle.dev)["fusion.bgf"]

    def boost(self, cfg: RunConfig, train: LabeledDataset) -> tuple[dict, dict]:
        """``cfg``'s boosted ensemble on ``train`` and its fusion head, from the
        store: (their files, their dev accuracies single / vote / fusion)."""
        dev = self.bundle.dev
        parts = self.store.get(_fit_boost, cfg, model=self.model, trunk=self.trunk, train=train,
                               dev=dev)
        ensemble = parts["ensemble.bge"]
        head = self.head(cfg, ensemble, train)
        preds = _predictions(ensemble, head, ensemble.dev_probs, cfg.data["boost"]["vote"])
        return {**parts, "fusion.bgf": head}, {
            # the round-1 model as trained, scored on dev inside boost_train
            # (under weight sharing its head has since moved onto the final trunk)
            "single": parts["round_log.jsonl"][0]["dev_acc"],
            **{key: enc.percent_correct(p, dev.labels) for key, p in preds.items()},
        }

    def bag(self, cfg: RunConfig, train: LabeledDataset) -> tuple[dict, float]:
        """``cfg``'s bag on ``train``, from the store: (its files, its dev accuracy)."""
        bag = self.store.get(_fit_bag, cfg, model=self.model, trunk=self.trunk, train=train)
        preds, _ = boosting.vote_predict(bag["ensemble.bge"],
                                         probs=self.dev_probs(bag["ensemble.bge"]))
        return bag, enc.percent_correct(preds, self.bundle.dev.labels)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    fraction = _number("in [0, 1]", lambda x: 0 <= x <= 1)
    cfg = synthetic.SynthConfig(**_flags(args, {
        "train_size": _int(1), "dev_size": _int(1), "corpus_size": _int(1),
        "noise": fraction, "hard_fraction": fraction, "seed": _int(0)}))
    paths = synthetic.write_task(args.out, cfg)
    _write_json(Path(args.out, "meta.json"), {**paths, "config": asdict(cfg)})
    for name, p in paths.items():
        print(f"wrote {name}: {p}")
    return 0


def cmd_train_boost(args) -> int:
    run = Run.open(args, args.config)
    cfg, bundle = run.cfg, run.bundle
    parts, accuracies = run.boost(cfg, bundle.train)
    if run.trunk is not None:
        parts["pretrained.bgv"] = run.trunk
    extras = {
        "m_effective": parts["ensemble.bge"].m_effective,
        "vote": cfg.data["boost"]["vote"],
        "train_size": bundle.train.n,
        "dev_size": bundle.dev.n,
    }
    if cfg.data["boost"]["init_strategy"] == "finetuning":  # its source fine-tune is round 0
        extras["source_fine_tune_steps"] = sum(r["round"] == 0 for r in parts["train_log.jsonl"])

    record = run.finish(accuracies, parts=parts, round_log=parts["round_log.jsonl"],
                        extras=extras)
    acc = record.accuracies
    print(
        f"[{run.dir.name}] single={acc['single']:.2f} vote={acc['boost_vote']:.2f} "
        f"fusion={acc['boost_fusion']:.2f} (M={record.extras['m_effective']})"
    )
    return 0


def cmd_train_bag(args) -> int:
    run = Run.open(args, args.config)
    parts, acc = run.bag(run.cfg, run.bundle.train)
    bag = parts["ensemble.bge"]
    run.finish({"bag": acc}, parts={"ensemble.bge": bag}, round_log=parts["bag_log.jsonl"],
               extras={"members": bag.m_effective})
    print(f"[{run.dir.name}] bag={acc:.2f} ({bag.m_effective} members)")
    return 0


def cmd_fusion(args) -> int:
    """The fusion head of the ensemble in ``--run-dir``, which is left as it
    is, from the store. The head, a link to the ensemble, the resolved config
    and the record go to a ``fusion-<hash12>-<ensemble hash12>`` run dir,
    which ``eval`` and ``distill`` read like the run dir of ``train-boost``."""
    trained = TrainedDir.read(args.run_dir, need_ensemble=True)
    ensemble = trained.ensemble
    run = Run.open(args, trained.path / "config.json", trained_on=trained)
    cfg, bundle = run.cfg, run.bundle
    head = run.head(cfg, ensemble, bundle.train)
    # the record holds only the head's accuracy, the last of the predictions
    key, preds = _predictions(ensemble, head, ensemble.dev_probs, "soft").popitem()
    acc = enc.percent_correct(preds, bundle.dev.labels)
    run.finish({key: acc}, parts={"ensemble.bge": trained.path / "ensemble.bge",
                                  "fusion.bgf": head},
               extras={"depth": cfg.data["fusion"]["depth"]})
    print(f"[{run.dir.name}] fusion={acc:.2f}")
    return 0


def cmd_distill(args) -> int:
    # the teacher's files are read before the run dir is made, so a malformed one leaves none
    teacher = TrainedDir.read(args.teacher_dir, need_ensemble=True)
    ensemble, head = teacher.ensemble, teacher.head
    record_path = teacher.path / "metrics.json"
    with artifacts.decoding(f"teacher record {record_path}"):
        teacher_single = json.loads(record_path.read_text(encoding="utf-8")).get(
            "accuracies", {}).get("single") if record_path.exists() else None
    run = Run.open(args, args.config or teacher.path / "config.json", trained_on=teacher)
    cfg, bundle = run.cfg, run.bundle
    parts = run.store.get(_fit_student, cfg, model=run.model, teacher=teacher, trunk=run.trunk,
                          train=bundle.train, dev=bundle.dev)
    student = parts["model.bgv"]

    t_teach = time.perf_counter()
    # the teacher is the fusion head when there is one, else the soft vote
    *_, teacher_preds = _predictions(
        ensemble, head, ensemble.predict_proba_per_round(bundle.dev), "soft").values()
    teacher_time = time.perf_counter() - t_teach
    t_stud = time.perf_counter()
    student_model = enc.model_from_snapshot(student)
    student_preds = student_model.predict_proba(bundle.dev.packed).argmax(axis=1)
    student_time = time.perf_counter() - t_stud

    teacher_params = ensemble.n_params + (head.n_params if head else 0)
    record = run.finish(
        {
            "single": teacher_single,
            "teacher": enc.percent_correct(teacher_preds, bundle.dev.labels),
            "distilled": enc.percent_correct(student_preds, bundle.dev.labels),
        },
        parts=parts,
        extras={
            "student_params": int(student.params.size),
            "teacher_params": int(teacher_params),
            "param_ratio": float(student.params.size / teacher_params),
            "m_effective": ensemble.m_effective,
            "teacher_kind": "fusion" if head is not None else "vote",
        },
        timing={
            "teacher_inference_s": teacher_time,
            "student_inference_s": student_time,
            "inference_ratio": student_time / teacher_time if teacher_time > 0 else None,
        },
    )
    acc = record.accuracies
    print(
        f"[{run.dir.name}] teacher={acc['teacher']:.2f} student={acc['distilled']:.2f} "
        f"param_ratio={record.extras['param_ratio']:.4f}"
    )
    return 0


def cmd_eval(args) -> int:
    trained = TrainedDir.read(args.model_dir)
    task, ensemble = trained.task, trained.ensemble
    with _input_data():
        raws = load_tsv(args.data)
        unknown = {ex.label for ex in raws} - set(task["label_names"])
        if unknown:
            raise ConfigError(f"dataset labels unknown to this model: {sorted(unknown)}")
        dataset = LabeledDataset.from_raw(raws, trained.vocab, task["max_seq_len"],
                                          label_names=task["label_names"])

    if ensemble is not None:
        predictions = _predictions(ensemble, trained.head,
                                   ensemble.predict_proba_per_round(dataset), args.vote)
    else:
        model = enc.model_from_snapshot(trained.snapshot)
        predictions = {"model": model.predict_proba(dataset.packed).argmax(axis=1)}
    reports = {key: _classification_report(preds, dataset) for key, preds in predictions.items()}

    for name, rep in reports.items():
        print(f"== {name} ==\naccuracy: {rep['accuracy']:.2f}")
        for label, recall, support in zip(task["label_names"], rep["per_class_recall"],
                                          rep["support"]):
            print(f"  recall[{label}]: {recall:.2f}  (support {support})")
        print("confusion matrix (rows = gold):")
        for row in rep["confusion"]:
            print("  " + " ".join(f"{v:6d}" for v in row))
    suffix = "" if args.vote == "soft" else f"_{args.vote}"  # soft keeps the old name
    out_path = trained.path / f"eval_{Path(args.data).stem}{suffix}.json"
    _write_json(out_path, reports)
    print(f"wrote {out_path}")
    return 0


def _classification_report(preds: np.ndarray, dataset: LabeledDataset) -> dict:
    K = dataset.K
    gold = dataset.labels
    confusion = np.zeros((K, K), dtype=np.int64)
    np.add.at(confusion, (gold, preds), 1)
    support = confusion.sum(axis=1)
    recall = np.where(support > 0, np.diag(confusion) / np.maximum(support, 1) * 100.0, 0.0)
    return {
        "accuracy": enc.percent_correct(preds, gold),
        "per_class_recall": [float(r) for r in recall],
        "support": [int(s) for s in support],
        "confusion": confusion.tolist(),
    }


def _parse_fractions(text: str) -> list[float]:
    """The distinct training-set fractions of ``--fractions``, each in (0, 1]."""
    try:
        fractions = [float(f) for f in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"--fractions {text!r} is not a comma-separated list of numbers") from e
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"fraction {f} outside (0, 1]")
    if len(set(fractions)) < len(fractions):
        raise ConfigError(f"--fractions {text!r} repeats a fraction")
    return fractions


def cmd_compare(args) -> int:
    """One row per cell of the product of ``--axes``; each cell trains on
    ``subsample(train, fraction, seed)``, and a failed cell does not stop
    the grid."""
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    if not axes:
        raise ConfigError("axes must be non-empty")
    for axis in axes:
        if axis not in COMPARE_AXES:
            raise ConfigError(f"unknown axis {axis!r} (choose from {sorted(COMPARE_AXES)})")
    if len(set(axes)) < len(axes):
        raise ConfigError(f"--axes {args.axes!r} repeats an axis")
    values = dict(COMPARE_AXES)
    if args.fractions is not None:
        if "fraction" not in axes:
            raise ConfigError("--fractions needs the fraction axis in --axes")
        values["fraction"] = _parse_fractions(args.fractions)
    grid = json.dumps([[axis, list(values[axis])] for axis in axes])
    run = Run.open(args, args.config, source=hashlib.sha256(grid.encode()).hexdigest())
    cfg, bundle = run.cfg, run.bundle

    grids: list[dict] = [{}]
    for axis in axes:
        grids = [dict(g, **{axis: v}) for g in grids for v in values[axis]]

    rows = []
    for cell in grids:
        label = ",".join(f"{k}={v}" for k, v in cell.items())
        try:
            cell_cfg = cfg.with_overrides(**{f"boost.{axis}": v for axis, v in cell.items()
                                             if axis in ("init_strategy", "sharing_mode")})
            cell_cfg.validate()
            train = subsample(bundle.train, cell.get("fraction", 1.0), cfg.seed)
            if cell.get("ensemble_kind") == "bag":
                row = {"single": None, "boost_vote": None, "boost_fusion": None, "delta": None,
                       "bag": run.bag(cell_cfg, train)[1]}
            else:
                acc = run.boost(cell_cfg, train)[1]
                row = {**acc, "delta": acc["boost_fusion"] - acc["single"], "bag": None}
        except Exception as e:  # per-run failures reported, grid continues
            print(f"[compare] {label}: FAILED ({e})", file=sys.stderr)
            rows.append({"cell": cell, "status": "failed", "error": str(e)})
            continue
        row.update({"train_size": train.n, "cell": cell, "status": "ok"})
        rows.append(row)
        shown = {k: v for k, v in row.items() if k in ("single", "boost_fusion", "bag", "delta")}
        print(f"[compare] {label}: n={row['train_size']} " + " ".join(
            f"{k}={v:.2f}" for k, v in shown.items() if v is not None
        ))

    run.finish({}, round_log=rows, extras={"axes": axes, "cells": len(grids)})
    _write_json(run.dir / "compare.json", rows)
    return 0


def cmd_oracle_check(args) -> int:
    _flags(args, {"rounds": _int(1)})
    out_dir = Path(args.out) if args.out else _out_root(None) / "oracle-check"
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for i, (features, labels, K) in enumerate(_oracle_datasets()):
        dataset = baselines.ArrayDataset(features=features, labels=labels, K=K)
        ensemble, log = boosting.boost_train(
            dataset, baselines.StumpBoostLearner(), args.rounds, seed=0, record_weights=True
        )
        oracle = baselines.samme_oracle(features, labels, args.rounds, K)
        engine_rows = [
            {"m": e["m"], "err": e["err"], "alpha": e["alpha"],
             "weights": list(e["weights_after"])}
            for e in log if "weights_after" in e
        ]
        oracle_rows = [
            {"m": r.m, "err": r.err, "alpha": r.alpha, "weights": list(r.weights_after)}
            for r in oracle
        ]
        _write_jsonl(out_dir / f"trajectory_{i}_engine.jsonl", engine_rows)
        _write_jsonl(out_dir / f"trajectory_{i}_oracle.jsonl", oracle_rows)
        dev = _trajectory_deviation(engine_rows, oracle_rows)
        worst = max(worst, dev)
        print(f"dataset {i}: rounds={len(engine_rows)} max deviation={dev:.3e}")
    print(f"worst deviation: {worst:.3e} (tolerance 1e-12)")
    return 0 if worst <= 1e-12 else 1


def _trajectory_deviation(engine_rows: list[dict], oracle_rows: list[dict]) -> float:
    if len(engine_rows) != len(oracle_rows):
        return float("inf")
    return max((max(abs(e["err"] - o["err"]), abs(e["alpha"] - o["alpha"]),
                    float(np.max(np.abs(np.subtract(e["weights"], o["weights"])))))
                for e, o in zip(engine_rows, oracle_rows)), default=0.0)


def _oracle_datasets():
    """Three fixed stump-friendly datasets (n <= 200)."""
    rng = np.random.default_rng(20240601)
    out = []
    for n, d, K in ((60, 2, 2), (150, 3, 3), (200, 4, 3)):
        x = rng.normal(size=(n, d))
        cuts = np.quantile(x[:, 0], np.linspace(0, 1, K + 1)[1:-1])
        y = np.digitize(x[:, 0], cuts)
        flip = rng.random(n) < 0.15
        y[flip] = (y[flip] + 1 + rng.integers(0, K - 1, size=flip.sum())) % K
        out.append((x, y.astype(np.int64), K))
    return out


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textboost", description="Boosted ensembles of small neural text classifiers."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write the bundled synthetic 3-class task")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-size", type=int, default=2000)
    p.add_argument("--dev-size", type=int, default=600)
    p.add_argument("--corpus-size", type=int, default=6000)
    p.add_argument("--noise", type=float, default=0.03)
    p.add_argument("--hard-fraction", type=float, default=0.25)
    p.set_defaults(fn=cmd_gen_data)

    for name, fn, help_, extra in (
        ("train-boost", cmd_train_boost, "run train-boost from a config file",
         {"--vote": {"choices": boosting.VOTE_MODES, "default": None}}),
        ("train-bag", cmd_train_bag, "run train-bag from a config file", {}),
        ("distill", cmd_distill, "distill a trained ensemble into one student",
         {"--teacher-dir": {"required": True}}),
        ("compare", cmd_compare, "grid over fraction/init/sharing/ensemble-kind axes",
         {"--axes": {"required": True}, "--fractions": {}}),
    ):
        p = sub.add_parser(name, help=help_)
        # distill reads the teacher's own config unless given one
        p.add_argument("--config", required=name != "distill", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)

    p = sub.add_parser("fusion", help="(re)train the fusion head of an existing run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(fn=cmd_fusion)

    p = sub.add_parser("eval", help="evaluate saved artifacts on a TSV dataset")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vote", choices=boosting.VOTE_MODES, default="soft")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("oracle-check", help="diff the boosting engine against the SAMME oracle")
    p.add_argument("--out", default=None)
    p.add_argument("--rounds", type=int, default=5)
    p.set_defaults(fn=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_heap()
    _one_blas_thread()
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, artifacts.ArtifactError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
