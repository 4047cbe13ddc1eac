"""The benchmark's tracer (``perfbench/tracer.py``) wraps textboost from
outside, and its counters read the arguments and results of the functions
it wraps: ``from_raw``'s rows take ``len()``, and the logs of ``train`` and
``pretrain_mlm`` iterate as dicts. A change of their form breaks
``perfbench/run.py --trace 1``, so these tests run textboost under the
tracer, imported as it is.
"""

import json
import sys
from pathlib import Path

import numpy as np

from textboost import cli
from textboost import encoder as enc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer as tracing  # noqa: E402


def test_a_traced_softreg_train_boost_keeps_the_tracer_counters(tmp_path):
    task = tmp_path / "task"
    assert cli.main(["gen-data", "--out", str(task), "--seed", "3", "--train-size", "90",
                     "--dev-size", "30", "--corpus-size", "10"]) == 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "seed": 7, "learner": "softreg", "out_dir": str(tmp_path / "out"),
        "train_path": str(task / "train.tsv"), "dev_path": str(task / "dev.tsv"),
        "boost": {"rounds": 2, "init_strategy": "random"}, "train": {"epochs": 2}}))
    with tracing.Tracer() as tracer:
        code = cli.main(["train-boost", "--config", str(config)])
    assert code == 0 and tracing.installed_wrappers() == []
    agg = tracing.summarize(tracer.spans)
    assert agg["textdata.load_tsv"]["calls"] == 2
    assert (agg["textdata.from_raw"]["calls"], agg["textdata.from_raw"]["rows"]) == (2, 120)
    (run_dir,) = (tmp_path / "out").glob("train-boost-*")
    steps = (run_dir / "train_log.jsonl").read_text().splitlines()
    assert (agg["training.train"]["steps"], agg["training.train"]["diverged"]) == (len(steps), 0)


def test_a_traced_pretraining_counts_its_steps(tiny_config):
    corpus = [list(np.random.default_rng(i).integers(5, 20, size=8)) for i in range(20)]
    with tracing.Tracer() as tracer:
        enc.pretrain_mlm(corpus, tiny_config, steps=3, seed=4, batch_size=8)
    assert tracing.summarize(tracer.spans)["training.pretrain_mlm"]["steps"] == 3
