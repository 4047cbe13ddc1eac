"""Tests of the benchmark's own code (not of textboost).

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from tracer import Span  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 6.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("c", 4.0, 5.5, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.5, 1.0, 1.5])
    agg = tracing.summarize(spans)
    assert agg["a"] == pytest.approx({"calls": 1, "s": 10.0, "self_s": 5.0})
    assert agg["c"] == pytest.approx({"calls": 2, "s": 2.5, "self_s": 2.5})


def test_self_time_of_back_to_back_and_overlapping_children():
    spans = [
        Span("p", 0.0, 3.0, -1),
        Span("x", 0.0, 1.0, 0),
        Span("y", 1.0, 2.0, 0),  # starts where x ends
        Span("z", 1.5, 4.0, 0),  # overlaps y and runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(0.0)
    spans[3] = Span("z", 2.5, 2.75, 0)
    assert tracing.self_times(spans)[0] == pytest.approx(0.75)


def test_inclusive_time_counts_a_recursive_name_once():
    spans = [Span("f", 0.0, 4.0, -1), Span("f", 1.0, 3.0, 0)]
    agg = tracing.summarize(spans)
    assert agg["f"]["s"] == pytest.approx(4.0)
    assert agg["f"]["self_s"] == pytest.approx(4.0)
    assert agg["f"]["calls"] == 2


def test_self_times_add_up_to_the_root():
    spans = [Span("r", 0.0, 9.0, -1), Span("a", 1.0, 4.0, 0), Span("b", 2.0, 3.0, 1),
             Span("c", 5.0, 8.0, 0)]
    assert sum(tracing.self_times(spans)) == pytest.approx(9.0)


# ----------------------------------------------------------------------
# the tracer on real textboost code
# ----------------------------------------------------------------------

def _tiny_softreg_task(n_train: int, n_dev: int):
    from textboost import encoder as enc
    from textboost import synthetic
    from textboost.textdata import LabeledDataset, build_vocab

    train_raw = synthetic.generate_examples(n_train, [5, 1])
    dev_raw = synthetic.generate_examples(n_dev, [5, 2])
    vocab = build_vocab(train_raw)
    names = synthetic.LABELS
    train = LabeledDataset.from_raw(train_raw, vocab, 24, label_names=names)
    dev = LabeledDataset.from_raw(dev_raw, vocab, 24, label_names=names)
    config = enc.SoftregConfig(vocab_size=vocab.size, K=len(names))
    return train, dev, config


def test_useful_ratio_on_a_tiny_softreg_ensemble_equals_a_hand_count():
    from textboost import boosting
    from textboost import encoder as enc

    n_train, n_dev = 40, 15
    train, dev, config = _tiny_softreg_task(n_train, n_dev)
    learner = boosting.NeuralBoostLearner(
        config, enc.TrainConfig(lr=0.05, batch_size=8, epochs=1), "random")
    with tracing.Tracer() as tracer:
        ensemble, log = boosting.boost_train(train, learner, 3, seed=1, dev=dev)
        boosting.vote_predict(ensemble, dev)
        boosting.vote_predict(ensemble, dev)
    fitted, kept = len(log), ensemble.m_effective
    assert kept >= 1
    # boost_train scores every fitted round on train once, every kept round on
    # dev once; both vote_predict calls score the kept rounds on dev again
    distinct = fitted * n_train + kept * n_dev
    scored = distinct + 2 * kept * n_dev
    values = layers.per_layer(tracing.to_rows(tracer.spans), traced_wall_s=1.0,
                              untraced_run_s=1.0)
    assert values["boosting.round_predict.rows"]["value"] == scored
    assert values["boosting.round_predict.calls"]["value"] == fitted + 3 * kept
    assert values["boosting.round_predict.useful_ratio"]["value"] == pytest.approx(
        distinct / scored)
    assert values["boosting.rounds_kept"]["value"] == kept
    assert values["softreg.token_counts.calls"]["value"] > 0
    assert values["transformer.forward_probs.calls"]["value"] == 0


def test_tracer_leaves_no_wrapper_installed():
    import textboost.fusion
    from textboost import boosting
    from textboost.encoder import nnops, params

    originals = (nnops.softmax_rows, textboost.fusion.softmax_rows,
                 params.ParamLayout.__dict__["views"], params.ModelSnapshot.__dict__["from_bytes"])
    tracer = tracing.Tracer().install()
    try:
        assert tracer.installed
        # a name imported into another module is wrapped there too
        assert textboost.fusion.softmax_rows is not originals[1]
        assert textboost.fusion.softmax_rows is nnops.softmax_rows
        assert set(tracing.installed_wrappers()) == {t.where for t in tracing.TARGETS}
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert (nnops.softmax_rows, textboost.fusion.softmax_rows,
            params.ParamLayout.__dict__["views"],
            params.ModelSnapshot.__dict__["from_bytes"]) == originals
    assert boosting.vote_predict.__module__ == "textboost.boosting"


def test_tracer_uninstalls_when_the_traced_code_raises():
    from textboost.encoder import nnops

    with pytest.raises(ValueError):
        with tracing.Tracer() as tracer:
            nnops.gelu(__import__("numpy").ones(3))
            raise ValueError("boom")
    assert tracing.installed_wrappers() == []
    assert [s.name for s in tracer.spans] == ["nnops.gelu"]
    assert tracer.spans[0].counters == {"elems": 3}


# ----------------------------------------------------------------------
# metric names and BENCHMARK.json
# ----------------------------------------------------------------------

def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_metric_name_is_well_formed():
    names = list(layers.METRIC_UNITS) + list(run.END_TO_END_UNITS)
    assert names, "no metrics defined"
    for name in names:
        assert layers.NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert per_layer == layers.METRIC_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.wl.WORKLOADS)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
