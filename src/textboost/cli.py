"""Command-line entry point and experiment orchestration.

Commands: gen-data, train-boost, train-bag, fusion, distill, eval,
fractions, compare, oracle-check. Runs are driven by a JSON config file
(one canonical serialization, human-editable); --out, --seed and --vote
override individual keys. Exit codes: 0 success, 1 runtime failure,
2 configuration/validation failure or a malformed or mismatched artifact.

Every run writes its resolved config, artifacts, and one MetricsRecord
line appended to ``<out_root>/metrics.jsonl``. The default output root is
``$TEXTBOOST_OUT`` or ``runs``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import artifacts, baselines, boosting, distill as distill_mod, fusion as fusion_mod
from . import encoder as enc, synthetic
from .encoder.training import _keep_freed_heap
from .textdata import LabeledDataset, Vocabulary, build_vocab, load_tsv, subsample, tokenize

OUT_ROOT_ENV = "TEXTBOOST_OUT"

VOTE_MODES = ("soft", "discrete")
INIT_STRATEGIES = ("random", "pretrained", "finetuning", "incremental")
COMPARE_AXES = {
    "init_strategy": INIT_STRATEGIES,
    "sharing_mode": ("privacy", "sharing"),
    "ensemble_kind": ("boost", "bag"),
}


class ConfigError(ValueError):
    """Invalid configuration or inputs; maps to exit code 2."""


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

_DEFAULTS: dict = {
    "seed": None,
    "train_path": None,
    "dev_path": None,
    "corpus_path": None,
    "learner": "transformer",
    "vocab_min_count": 1,
    "encoder": {
        "d_model": 32,
        "n_layers": 2,
        "n_heads": 2,
        "d_ffn": 64,
        "max_seq_len": 24,
        "dropout_rate": 0.1,
    },
    "boost": {"rounds": 6, "init_strategy": "incremental", "sharing_mode": "privacy", "vote": "soft"},
    "train": {"lr": 1e-3, "batch_size": 32, "epochs": 3},
    "pretrain": {"steps": 2500, "lr": 1e-3, "batch_size": 32},
    "fusion": {
        "depth": 1,
        "hidden_multiple": 4,
        "lr": 1e-3,
        "batch_size": 32,
        "max_epochs": 20,
        "patience": 3,
    },
    "distill": {"total_steps": 600, "init_strategy": "pretrained", "lr": 1e-3, "batch_size": 32},
    "bag": {"learning_rates": [5e-4, 1e-3, 2e-3]},
    "out_dir": None,
}


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
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {p} is not valid JSON: {e}") from e
        return cls(data=_merge(_DEFAULTS, raw))

    def validate(self, *, need_data: bool = True) -> None:
        problems: list[str] = []
        if self.data["seed"] is None:
            problems.append("seed must be set explicitly (no entropy defaults)")
        if need_data:
            for key in ("train_path", "dev_path"):
                val = self.data[key]
                if val is None:
                    problems.append(f"{key} is required")
                elif not Path(val).exists():
                    problems.append(f"{key} does not exist: {val}")
            cp = self.data["corpus_path"]
            if cp is not None and not Path(cp).exists():
                problems.append(f"corpus_path does not exist: {cp}")
        boost = self.data["boost"]
        if self.data["learner"] not in ("transformer", "softreg"):
            problems.append(f"unknown learner {self.data['learner']!r}")
        if boost["init_strategy"] not in INIT_STRATEGIES:
            problems.append(f"unknown init_strategy {boost['init_strategy']!r}")
        if boost["sharing_mode"] not in ("privacy", "sharing"):
            problems.append(f"unknown sharing_mode {boost['sharing_mode']!r}")
        if boost["vote"] not in VOTE_MODES:
            problems.append(f"unknown vote mode {boost['vote']!r}")
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
        return int(self.data["seed"])

    def hash(self) -> str:
        # out_dir says where artifacts go, not what gets computed
        data = {k: v for k, v in self.data.items() if k != "out_dir"}
        blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

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

    def train_cfg(self) -> enc.TrainConfig:
        t = self.data["train"]
        return enc.TrainConfig(lr=t["lr"], batch_size=t["batch_size"], epochs=t["epochs"])

    def fusion_cfg(self) -> fusion_mod.FusionConfig:
        f = self.data["fusion"]
        return fusion_mod.FusionConfig(
            depth=f["depth"], hidden_multiple=f["hidden_multiple"], lr=f["lr"],
            batch_size=f["batch_size"], max_epochs=f["max_epochs"], patience=f["patience"],
        )


# ----------------------------------------------------------------------
# task preparation
# ----------------------------------------------------------------------

@dataclass
class TaskBundle:
    train: LabeledDataset
    dev: LabeledDataset
    vocab: Vocabulary
    label_names: tuple[str, ...]
    corpus_ids: list[list[int]]  # empty unless the config pretrains
    pretrained: Optional[enc.ModelSnapshot] = None

    @property
    def K(self) -> int:
        return self.train.K


def prepare_task(cfg: RunConfig) -> TaskBundle:
    """Load TSVs, build the vocabulary, and encode both splits.

    The vocabulary (and the MLM corpus) come from the unlabeled corpus file
    when one is given, else from the training texts, and stay fixed across
    data-fraction sweeps, mirroring a fixed pretrained tokenizer. The corpus
    is encoded only for a config that pretrains.
    """
    raw_train = load_tsv(cfg.data["train_path"])
    raw_dev = load_tsv(cfg.data["dev_path"])
    train_labels = {ex.label for ex in raw_train}
    dev_only = {ex.label for ex in raw_dev} - train_labels
    if dev_only:
        raise ConfigError(f"dev labels missing from training data: {sorted(dev_only)}")

    if cfg.data["corpus_path"] is not None:
        corpus_lines = [
            line for line in Path(cfg.data["corpus_path"]).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    else:
        corpus_lines = [ex.text_a for ex in raw_train] + [
            ex.text_b for ex in raw_train if ex.text_b is not None
        ]
    from .textdata import RawExample

    vocab_source = [RawExample(label="_", text_a=line) for line in corpus_lines]
    vocab = build_vocab(vocab_source, min_count=cfg.data["vocab_min_count"])

    label_names = tuple(sorted(train_labels))
    max_len = cfg.data["encoder"]["max_seq_len"]
    train_ds = LabeledDataset.from_raw(raw_train, vocab, max_len, label_names=label_names)
    dev_ds = LabeledDataset.from_raw(raw_dev, vocab, max_len, label_names=label_names)
    corpus_ids = [
        [vocab.lookup(t) for t in tokenize(line)][:max_len] for line in corpus_lines
    ] if _pretrains(cfg) else []
    return TaskBundle(
        train=train_ds, dev=dev_ds, vocab=vocab, label_names=label_names, corpus_ids=corpus_ids
    )


def encoder_config(cfg: RunConfig, bundle: TaskBundle):
    e = cfg.data["encoder"]
    if cfg.data["learner"] == "softreg":
        return enc.SoftregConfig(vocab_size=bundle.vocab.size, K=bundle.K)
    return enc.EncoderConfig(
        vocab_size=bundle.vocab.size,
        K=bundle.K,
        d_model=e["d_model"],
        n_layers=e["n_layers"],
        n_heads=e["n_heads"],
        d_ffn=e["d_ffn"],
        max_seq_len=e["max_seq_len"],
        dropout_rate=e["dropout_rate"],
    )


def _pretrains(cfg: RunConfig) -> bool:
    """Whether the config trains an MLM trunk (a transformer with pretrain steps)."""
    return cfg.data["learner"] == "transformer" and cfg.data["pretrain"]["steps"] > 0


def ensure_pretrained(cfg: RunConfig, bundle: TaskBundle, cache_dir: Optional[Path] = None):
    """Pretrain the MLM trunk once per bundle if the config needs it.

    The checkpoint is deterministic in (corpus, model config, pretrain
    hyperparameters, seed), so it may be cached on disk and shared across
    commands keyed by that tuple. A cache entry that fails to load is
    retrained and replaced.
    """
    if bundle.pretrained is not None or not _pretrains(cfg):
        return
    steps = cfg.data["pretrain"]["steps"]
    model_cfg = encoder_config(cfg, bundle)
    cache_path = None
    if cache_dir is not None:
        key = hashlib.sha256(json.dumps([
            [list(s) for s in bundle.corpus_ids],
            model_cfg.to_dict(), cfg.data["pretrain"], cfg.seed,
        ], sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:16]
        cache_path = Path(cache_dir) / f"pretrained_{key}.bgv"
        if cache_path.exists():
            try:
                bundle.pretrained = enc.ModelSnapshot.load(cache_path)
                return
            except artifacts.ArtifactError:  # a truncated or corrupted entry: retrain it
                pass
    snap, _ = enc.pretrain_mlm(
        bundle.corpus_ids, model_cfg, steps, [cfg.seed, 41],
        lr=cfg.data["pretrain"]["lr"], batch_size=cfg.data["pretrain"]["batch_size"],
    )
    bundle.pretrained = snap
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        snap.save(cache_path)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

ACCURACY_KEYS = ("single", "boost_vote", "boost_fusion", "bag", "distilled")


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


def _accuracy(preds: np.ndarray, dataset: LabeledDataset) -> float:
    return float((preds == dataset.labels).mean() * 100.0)


def write_metrics(record: MetricsRecord, out_root: Path, run_dir: Path) -> None:
    out_root.mkdir(parents=True, exist_ok=True)
    with (out_root / "metrics.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
    artifacts.write(run_dir / "metrics.json", record.to_json() + "\n")


def _write_json(path: Path, obj) -> None:
    artifacts.write(path, json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n")


def _write_jsonl(path: Path, records: Sequence[dict]) -> None:
    artifacts.write(path, "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))


def _out_root(explicit: Optional[str]) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(OUT_ROOT_ENV, "runs"))


def _save_task_artifacts(run_dir: Path, cfg: RunConfig, bundle: TaskBundle) -> None:
    _write_json(run_dir / "config.json", cfg.data)
    bundle.vocab.save(run_dir / "vocab.tsv")
    task = {
        "label_names": list(bundle.label_names),
        "max_seq_len": cfg.data["encoder"]["max_seq_len"],
        "learner": cfg.data["learner"],
        "K": bundle.K,
    }
    _write_json(run_dir / "task.json", task)


# CLI flag -> the config key it overrides, for the commands that have it
_FLAG_KEYS = {"seed": "seed", "out": "out_dir", "vote": "boost.vote", "depth": "fusion.depth"}


@dataclass
class Run:
    """The setup and the record that every config-driven command shares.

    ``Run.open`` loads the command's config with its flag overrides,
    validates it, prepares the task, gives the command its pretrained trunk
    (``fusion`` retrains a head on saved rounds and never uses one), and
    writes the task artifacts into a fresh ``<command>-<hash12>`` dir, so a
    config error leaves no run dir behind. ``finish`` writes the record.
    """

    command: str
    cfg: RunConfig
    bundle: TaskBundle
    out_root: Path
    dir: Path
    t0: float

    @classmethod
    def open(cls, args, config_path: str | Path) -> "Run":
        t0 = time.perf_counter()
        cfg = RunConfig.load(config_path).with_overrides(
            **{key: getattr(args, flag, None) for flag, key in _FLAG_KEYS.items()}
        )
        cfg.validate()
        if args.command == "distill":
            _check_distill_init(cfg)
        bundle = prepare_task(cfg)
        out_root = _out_root(cfg.data["out_dir"])
        if args.command != "fusion":
            ensure_pretrained(cfg, bundle, out_root)
        run_dir = out_root / f"{args.command}-{cfg.hash()[:12]}"
        run_dir.mkdir(parents=True, exist_ok=True)
        _save_task_artifacts(run_dir, cfg, bundle)
        return cls(args.command, cfg, bundle, out_root, run_dir, t0)

    def finish(self, accuracies: dict, *, round_log: Sequence[dict] = (),
               extras: Optional[dict] = None, timing: Optional[dict] = None) -> MetricsRecord:
        """Write the run's record; accuracies it does not fill read None."""
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
        write_metrics(record, self.out_root, self.dir)
        return record


def _check_distill_init(cfg: RunConfig) -> None:
    init = cfg.data["distill"]["init_strategy"]
    if init not in ("random", "pretrained"):
        raise ConfigError(f"distill.init_strategy must be 'random' or 'pretrained', not {init!r}")
    if init == "pretrained" and not _pretrains(cfg):
        raise ConfigError("distill.init_strategy 'pretrained' needs an MLM checkpoint: "
                          "the transformer learner with pretrain.steps > 0")


# ----------------------------------------------------------------------
# core pipelines (shared by commands)
# ----------------------------------------------------------------------

def run_boost_pipeline(
    cfg: RunConfig,
    bundle: TaskBundle,
    *,
    train_ds: Optional[LabeledDataset] = None,
) -> dict:
    """Boost + fusion on the bundle (or an override training set).

    Returns models, logs, and dev accuracies for single / vote / fusion.
    """
    train_ds = train_ds if train_ds is not None else bundle.train
    ensure_pretrained(cfg, bundle)
    model_cfg = encoder_config(cfg, bundle)
    learner = boosting.NeuralBoostLearner(
        model_cfg,
        cfg.train_cfg(),
        cfg.data["boost"]["init_strategy"],
        sharing_mode=cfg.data["boost"]["sharing_mode"],
        pretrained=bundle.pretrained,
    )
    ensemble, round_log = boosting.boost_train(
        train_ds, learner, cfg.data["boost"]["rounds"], cfg.seed, dev=bundle.dev
    )
    # boost_train scored every round on both splits; nothing is scored again
    head, _ = fusion_mod.train_fusion(
        ensemble, train_ds, bundle.dev, cfg.fusion_cfg(), cfg.seed,
        train_probs=ensemble.train_probs, dev_probs=ensemble.dev_probs,
    )

    vote_mode = cfg.data["boost"]["vote"]
    vote_preds, _ = boosting.vote_predict(ensemble, mode=vote_mode, probs=ensemble.dev_probs)
    fusion_preds, _ = fusion_mod.fusion_predict(ensemble, head, probs=ensemble.dev_probs)
    return {
        "ensemble": ensemble,
        "head": head,
        "round_log": round_log,
        "train_logs": learner.train_logs,
        "single_snapshot": learner.round1_snapshot,
        "accuracies": {
            # the round-1 model as trained, scored on dev inside boost_train
            # (under weight sharing its head has since moved onto the final trunk)
            "single": round_log[0]["dev_acc"],
            "boost_vote": _accuracy(vote_preds, bundle.dev),
            "boost_fusion": _accuracy(fusion_preds, bundle.dev),
        },
    }


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = synthetic.SynthConfig(
        train_size=args.train_size,
        dev_size=args.dev_size,
        corpus_size=args.corpus_size,
        noise=args.noise,
        hard_fraction=args.hard_fraction,
        seed=args.seed,
    )
    paths = synthetic.write_task(args.out, cfg)
    meta = dict(paths)
    meta["config"] = asdict(cfg)
    _write_json(Path(args.out, "meta.json"), meta)
    for name, p in paths.items():
        print(f"wrote {name}: {p}")
    return 0


def cmd_train_boost(args) -> int:
    run = Run.open(args, args.config)
    cfg, bundle = run.cfg, run.bundle
    result = run_boost_pipeline(cfg, bundle)
    result["ensemble"].save(run.dir / "ensemble.bge")
    result["head"].save(run.dir / "fusion.bgf")
    result["single_snapshot"].save(run.dir / "single.bgv")
    if bundle.pretrained is not None:
        bundle.pretrained.save(run.dir / "pretrained.bgv")
    _write_jsonl(run.dir / "round_log.jsonl", result["round_log"])
    _write_jsonl(run.dir / "train_log.jsonl", [
        {"round": m + 1, **rec} for m, rows in enumerate(result["train_logs"]) for rec in rows
    ])

    record = run.finish(
        result["accuracies"],
        round_log=result["round_log"],
        extras={
            "m_effective": result["ensemble"].m_effective,
            "vote": cfg.data["boost"]["vote"],
            "train_size": bundle.train.n,
            "dev_size": bundle.dev.n,
        },
    )
    acc = record.accuracies
    print(
        f"[{run.dir.name}] single={acc['single']:.2f} vote={acc['boost_vote']:.2f} "
        f"fusion={acc['boost_fusion']:.2f} (M={record.extras['m_effective']})"
    )
    return 0


def cmd_train_bag(args) -> int:
    run = Run.open(args, args.config)
    bag, bag_log, acc = _run_bag(run.cfg, run.bundle)
    for i, member in enumerate(bag.members):
        member.save(run.dir / f"bag_member_{i}.bgv")
    run.finish({"bag": acc}, round_log=bag_log, extras={"members": len(bag.members)})
    print(f"[{run.dir.name}] bag={acc:.2f} ({len(bag.members)} members)")
    return 0


def _run_bag(cfg: RunConfig, bundle: TaskBundle):
    """The bagging baseline, its training log and its dev accuracy."""
    bag, log = baselines.bag_train(
        bundle.train, cfg.data["bag"]["learning_rates"], cfg.seed,
        config=encoder_config(cfg, bundle), train_cfg=cfg.train_cfg(),
        pretrained=bundle.pretrained,
    )
    preds, _ = baselines.bag_predict(bag, bundle.dev)
    return bag, log, _accuracy(preds, bundle.dev)


def cmd_fusion(args) -> int:
    """Retrain the fusion head of the ensemble in ``--run-dir``, which is left
    as it is. The new head, a copy of the ensemble, the resolved config and
    the record go to a ``fusion-<hash12>`` run dir, which ``eval`` and
    ``distill`` read like the run dir of ``train-boost``."""
    ens_path = Path(args.run_dir) / "ensemble.bge"
    if not ens_path.exists():
        raise ConfigError(f"no ensemble found at {ens_path}")
    run = Run.open(args, ens_path.parent / "config.json")
    cfg, bundle = run.cfg, run.bundle
    ens_bytes = ens_path.read_bytes()
    ensemble = boosting.ensemble_from_bytes(ens_bytes)
    dev_probs = ensemble.predict_proba_per_round(bundle.dev)
    head, _ = fusion_mod.train_fusion(
        ensemble, bundle.train, bundle.dev, cfg.fusion_cfg(), cfg.seed,
        train_probs=ensemble.predict_proba_per_round(bundle.train), dev_probs=dev_probs,
    )
    head.save(run.dir / "fusion.bgf")
    artifacts.write(run.dir / "ensemble.bge", ens_bytes)
    preds, _ = fusion_mod.fusion_predict(ensemble, head, probs=dev_probs)
    acc = _accuracy(preds, bundle.dev)
    run.finish({"boost_fusion": acc}, extras={"depth": cfg.data["fusion"]["depth"]})
    print(f"[{run.dir.name}] fusion={acc:.2f}")
    return 0


def cmd_distill(args) -> int:
    teacher_dir = Path(args.teacher_dir)
    for required in ("ensemble.bge", "config.json"):
        if not (teacher_dir / required).exists():
            raise ConfigError(f"teacher artifact missing: {teacher_dir / required}")
    run = Run.open(args, args.config or teacher_dir / "config.json")
    cfg, bundle = run.cfg, run.bundle

    ensemble = boosting.BoostEnsemble.load(teacher_dir / "ensemble.bge")
    head = None
    if (teacher_dir / "fusion.bgf").exists():
        head = fusion_mod.FusionHead.load(teacher_dir / "fusion.bgf")
    targets = distill_mod.teacher_targets(ensemble, head, bundle.train)

    dcfg = distill_mod.DistillConfig(
        total_steps=cfg.data["distill"]["total_steps"],
        student_config=encoder_config(cfg, bundle),
        init_strategy=cfg.data["distill"]["init_strategy"],
        lr=cfg.data["distill"]["lr"],
        batch_size=cfg.data["distill"]["batch_size"],
    )
    student, dlog = distill_mod.distill_train(
        targets, bundle.train, dcfg, cfg.seed, pretrained=bundle.pretrained, dev=bundle.dev
    )
    student.save(run.dir / "model.bgv")
    _write_jsonl(run.dir / "distill_log.jsonl", dlog)

    t_teach = time.perf_counter()
    if head is not None:
        teacher_preds, _ = fusion_mod.fusion_predict(ensemble, head, bundle.dev)
    else:
        teacher_preds, _ = boosting.vote_predict(ensemble, bundle.dev)
    teacher_time = time.perf_counter() - t_teach
    t_stud = time.perf_counter()
    student_model = enc.model_from_snapshot(student)
    student_preds = student_model.predict_proba(bundle.dev.packed).argmax(axis=1)
    student_time = time.perf_counter() - t_stud

    teacher_params = sum(
        _round_param_count(r, ensemble) for r in ensemble.rounds
    ) + (ensemble.shared_trunk.params.size if ensemble.shared_trunk is not None else 0)
    if head is not None:
        teacher_params += head.n_params

    record = run.finish(
        {
            "single": _teacher_single_accuracy(teacher_dir),
            "teacher": _accuracy(teacher_preds, bundle.dev),
            "distilled": _accuracy(student_preds, bundle.dev),
        },
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


def _round_param_count(r: boosting.BoostRound, ensemble: boosting.BoostEnsemble) -> int:
    if ensemble.sharing_mode == "sharing":
        return int(r.model.head.size)
    return int(r.model.snapshot.params.size)


def _teacher_single_accuracy(teacher_dir: Path) -> Optional[float]:
    metrics_path = teacher_dir / "metrics.json"
    if metrics_path.exists():
        rec = json.loads(metrics_path.read_text(encoding="utf-8"))
        return rec.get("accuracies", {}).get("single")
    return None


def cmd_eval(args) -> int:
    model_dir = Path(args.model_dir)
    task_path = model_dir / "task.json"
    vocab_path = model_dir / "vocab.tsv"
    for p in (task_path, vocab_path):
        if not p.exists():
            raise ConfigError(f"model artifact missing: {p}")
    task = json.loads(task_path.read_text(encoding="utf-8"))
    vocab = Vocabulary.load(vocab_path)
    raws = load_tsv(args.data)
    unknown = {ex.label for ex in raws} - set(task["label_names"])
    if unknown:
        raise ConfigError(f"dataset labels unknown to this model: {sorted(unknown)}")
    dataset = LabeledDataset.from_raw(
        raws, vocab, task["max_seq_len"], label_names=task["label_names"]
    )

    reports: dict[str, dict] = {}
    snapshots = [p for p in (model_dir / "model.bgv", model_dir / "single.bgv") if p.exists()]
    if (model_dir / "ensemble.bge").exists():
        ensemble = boosting.BoostEnsemble.load(model_dir / "ensemble.bge")
        probs = ensemble.predict_proba_per_round(dataset)
        preds, _ = boosting.vote_predict(ensemble, mode=args.vote, probs=probs)
        reports["boost_vote"] = _classification_report(preds, dataset)
        if (model_dir / "fusion.bgf").exists():
            head = fusion_mod.FusionHead.load(model_dir / "fusion.bgf")
            fpreds, _ = fusion_mod.fusion_predict(ensemble, head, probs=probs)
            reports["boost_fusion"] = _classification_report(fpreds, dataset)
    elif snapshots:
        model = enc.model_from_snapshot(enc.ModelSnapshot.load(snapshots[0]))
        preds = model.predict_proba(dataset.packed).argmax(axis=1)
        reports["model"] = _classification_report(preds, dataset)
    else:
        raise ConfigError(f"no model artifacts found in {model_dir}")

    for name, rep in reports.items():
        print(f"== {name} ==")
        print(f"accuracy: {rep['accuracy']:.2f}")
        for label, recall, support in zip(
            task["label_names"], rep["per_class_recall"], rep["support"]
        ):
            print(f"  recall[{label}]: {recall:.2f}  (support {support})")
        print("confusion matrix (rows = gold):")
        for row in rep["confusion"]:
            print("  " + " ".join(f"{v:6d}" for v in row))
    out_path = model_dir / f"eval_{Path(args.data).stem}.json"
    _write_json(out_path, reports)
    print(f"wrote {out_path}")
    return 0


def _classification_report(preds: np.ndarray, dataset: LabeledDataset) -> dict:
    K = dataset.K
    gold = dataset.labels
    confusion = np.zeros((K, K), dtype=np.int64)
    np.add.at(confusion, (gold, preds), 1)
    support = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recall = np.where(support > 0, np.diag(confusion) / np.maximum(support, 1) * 100.0, 0.0)
    return {
        "accuracy": float((preds == gold).mean() * 100.0),
        "per_class_recall": [float(r) for r in recall],
        "support": [int(s) for s in support],
        "confusion": confusion.tolist(),
    }


def cmd_fractions(args) -> int:
    fractions = [float(f) for f in args.fractions.split(",")]
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"fraction {f} outside (0, 1]")
    run = Run.open(args, args.config)
    cfg, bundle = run.cfg, run.bundle

    rows = []
    for frac in fractions:
        sub = subsample(bundle.train, frac, cfg.seed)
        result = run_boost_pipeline(cfg, bundle, train_ds=sub)
        acc = result["accuracies"]
        rows.append({"fraction": frac, "train_size": sub.n, **acc,
                     "delta": acc["boost_fusion"] - acc["single"]})
        print(
            f"fraction={frac:g} n={sub.n} single={acc['single']:.2f} "
            f"fusion={acc['boost_fusion']:.2f} delta={rows[-1]['delta']:+.2f}"
        )

    run.finish(acc, round_log=rows, extras={"fractions": fractions})
    _write_json(run.dir / "fractions.json", rows)
    return 0


def cmd_compare(args) -> int:
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    if not axes:
        raise ConfigError("axes must be non-empty")
    for axis in axes:
        if axis not in COMPARE_AXES:
            raise ConfigError(f"unknown axis {axis!r} (choose from {sorted(COMPARE_AXES)})")
    run = Run.open(args, args.config)
    cfg, bundle = run.cfg, run.bundle

    grids: list[dict] = [{}]
    for axis in axes:
        grids = [dict(g, **{axis: v}) for g in grids for v in COMPARE_AXES[axis]]

    rows = []
    for cell in grids:
        label = ",".join(f"{k}={v}" for k, v in cell.items())
        try:
            row = _run_compare_cell(cfg, bundle, cell)
        except Exception as e:  # per-run failures reported, grid continues
            print(f"[compare] {label}: FAILED ({e})", file=sys.stderr)
            rows.append({"cell": cell, "status": "failed", "error": str(e)})
            continue
        row.update({"cell": cell, "status": "ok"})
        rows.append(row)
        shown = {k: v for k, v in row.items() if k in ("single", "boost_fusion", "bag")}
        print(f"[compare] {label}: " + " ".join(
            f"{k}={v:.2f}" for k, v in shown.items() if v is not None
        ))

    run.finish({}, round_log=rows, extras={"axes": axes, "cells": len(grids)})
    _write_json(run.dir / "compare.json", rows)
    return 0


def _run_compare_cell(cfg: RunConfig, bundle: TaskBundle, cell: dict) -> dict:
    sub_cfg = cfg.with_overrides(
        **{f"boost.{axis}": v for axis, v in cell.items() if axis != "ensemble_kind"}
    )
    sub_cfg.validate(need_data=False)
    if cell.get("ensemble_kind") == "bag":
        return {"single": None, "boost_vote": None, "boost_fusion": None,
                "bag": _run_bag(sub_cfg, bundle)[2]}
    return {**run_boost_pipeline(sub_cfg, bundle)["accuracies"], "bag": None}


def cmd_oracle_check(args) -> int:
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
    worst = 0.0
    for e, o in zip(engine_rows, oracle_rows):
        worst = max(worst, abs(e["err"] - o["err"]), abs(e["alpha"] - o["alpha"]))
        worst = max(worst, float(np.max(np.abs(np.array(e["weights"]) - np.array(o["weights"])))))
    return worst


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
         {"--vote": {"choices": VOTE_MODES, "default": None}}),
        ("train-bag", cmd_train_bag, "run train-bag from a config file", {}),
        ("distill", cmd_distill, "distill a trained ensemble into one student",
         {"--teacher-dir": {"required": True}}),
        ("fractions", cmd_fractions, "data-fraction sweep: single vs boosted",
         {"--fractions": {"default": "0.05,0.2,1.0"}}),
        ("compare", cmd_compare, "grid over init/sharing/ensemble-kind axes",
         {"--axes": {"required": True}}),
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
    p.add_argument("--vote", choices=VOTE_MODES, default="soft")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("oracle-check", help="diff the boosting engine against the SAMME oracle")
    p.add_argument("--out", default=None)
    p.add_argument("--rounds", type=int, default=5)
    p.set_defaults(fn=cmd_oracle_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_heap()
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
