"""Per-layer metrics of one traced run, computed from its spans.

Each layer is a textboost module; each metric is a sum over the calls into
that module's public functions that the tracer recorded. ``.s`` is
inclusive time, ``.self_s`` time minus child spans, ``.calls`` the number
of calls, and the other suffixes are counters summed over those calls. A
layer the workload never enters reports 0.
"""

from __future__ import annotations

import re

import tracer as tracing

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# float64 in, float64 out: the least an elementwise kernel moves per element
BYTES_PER_ELEMENTWISE_ELEM = 16

# span -> the aggregate keys reported for it; each metric is "<span>.<key>"
SPAN_KEYS: tuple[tuple[str, str], ...] = (
    ("cli.main", "s self_s"),
    ("cli.prepare_task", "s"),
    ("cli.ensure_pretrained", "s"),
    ("cli.write_artifacts", "s"),
    ("textdata.load_tsv", "s"),
    ("textdata.from_raw", "s rows"),
    ("textdata.take", "s calls"),
    ("training.pretrain_mlm", "s steps"),
    ("training.train", "s calls steps diverged"),
    ("training.evaluate_accuracy", "s"),
    ("transformer.clf_loss_and_grad", "s calls self_s"),
    ("transformer.mlm_loss_and_grad", "s calls self_s"),
    ("transformer.forward_probs", "s calls rows self_s"),
    ("softreg.clf_loss_and_grad", "s calls"),
    ("softreg.forward_probs", "s rows"),
    ("softreg.token_counts", "s calls"),
    ("nnops.gelu", "s calls elems"),
    ("nnops.gelu_grad", "s calls elems"),
    ("nnops.ln_forward", "s"),
    ("nnops.ln_backward", "s"),
    ("nnops.softmax_rows", "s calls"),
    ("nnops.dropout_forward", "s"),
    ("optim.adam_step", "s calls params"),
    ("params.views", "s calls"),
    ("params.snapshot", "calls bytes_copied"),
    ("params.to_bytes", "s bytes"),
    ("params.from_bytes", "s bytes"),
    ("params.save", "s"),
    ("boosting.boost_train", "s kept discarded"),
    ("boosting.fit_round", "s calls"),
    ("boosting.round_predict", "s calls rows"),
    ("boosting.vote_predict", "s"),
    ("boosting.bound_snapshot", "calls"),
    ("boosting.ensemble_io", "s bytes"),
    ("fusion.build_feature", "s calls rows"),
    ("fusion.train_fusion", "s epochs"),
    ("fusion.loss_and_grad", "s calls"),
    ("fusion.fusion_predict", "s"),
    ("fusion.head_io", "s"),
)
# the few metrics not named "<span>.<key>"
RENAMED = {
    "cli.main.self_s": "cli.self_s",
    "boosting.boost_train.kept": "boosting.rounds_kept",
    "boosting.boost_train.discarded": "boosting.rounds_discarded",
}
KEY_UNITS = {"s": "s", "self_s": "s", "bytes": "B", "bytes_copied": "B"}  # other keys: count

# metric -> (span, aggregate key, unit)
SPAN_METRICS: dict[str, tuple[str, str, str]] = {
    RENAMED.get(f"{span}.{key}", f"{span}.{key}"): (span, key, KEY_UNITS.get(key, "count"))
    for span, keys in SPAN_KEYS
    for key in keys.split()
}

# metrics computed from the aggregates rather than read off one of them
DERIVED_METRICS: tuple[tuple[str, str], ...] = (
    ("training.pretrain_tokens_per_s", "1/s"),
    ("nnops.gelu.bytes", "B"),
    ("nnops.gelu_grad.bytes", "B"),
    ("boosting.round_predict.useful_ratio", "ratio"),
    ("trace.run_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

METRIC_UNITS: dict[str, str] = {
    **{m: unit for m, (_, _, unit) in SPAN_METRICS.items()},
    **dict(DERIVED_METRICS),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(span_rows: list[list], *, traced_wall_s: float, untraced_run_s: float) -> dict:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    agg = tracing.summarize(tracing.from_rows(span_rows))

    def get(span: str, key: str) -> float:
        return agg.get(span, {}).get(key, 0)

    values: dict[str, float] = {m: get(span, key) for m, (span, key, _) in SPAN_METRICS.items()}
    values.update({
        "training.pretrain_tokens_per_s": _ratio(get("transformer.mlm_loss_and_grad", "tokens"),
                                                 get("training.pretrain_mlm", "s")),
        "nnops.gelu.bytes": get("nnops.gelu", "elems") * BYTES_PER_ELEMENTWISE_ELEM,
        "nnops.gelu_grad.bytes": get("nnops.gelu_grad", "elems") * BYTES_PER_ELEMENTWISE_ELEM,
        "boosting.round_predict.useful_ratio": _ratio(
            get(tracing.ROUND_PREDICT, "distinct_rows"), get(tracing.ROUND_PREDICT, "rows")),
        "trace.run_s": traced_wall_s,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_run_s),
    })
    return {m: {"value": values[m], "unit": unit} for m, unit in METRIC_UNITS.items()}
