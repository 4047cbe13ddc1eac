import dataclasses
import json
import re
import sys
from collections import Counter

import numpy as np
import pytest

from textboost import cli
from textboost import encoder as enc
from textboost.textdata import PAD_ID, LabeledDataset, Packed


@pytest.fixture
def tiny_config():
    return enc.EncoderConfig(
        vocab_size=20, K=3, d_model=8, n_layers=2, n_heads=2, d_ffn=16,
        max_seq_len=12, dropout_rate=0.1,
    )


def random_batch(rng, vocab_size=20, B=4, L=7, K=3) -> Packed:
    """B random sentence-pair rows of 3 to L ids: a SEP mid-row ends the
    first segment, so the second covers the rest of the row."""
    lengths = rng.integers(3, L + 1, size=B)
    ids = np.zeros((B, L), dtype=np.int64)
    for i, ln in enumerate(lengths):
        ids[i, :ln] = rng.integers(5, vocab_size, size=ln)
        ids[i, 0] = 2  # CLS
        ids[i, max(1, ln // 2 - 1)] = 3  # SEP ending segment 0
        ids[i, ln - 1] = 3  # SEP
    return Packed(
        ids=ids,
        lengths=lengths.astype(np.int64),
        labels=rng.integers(0, K, size=B).astype(np.int64),
    )


def dataset_of_rows(rows, labels, K, label_names=None) -> LabeledDataset:
    """The dataset of CLS-first id rows, PAD-padded into arrays;
    its classes are named c0..c{K-1} unless ``label_names`` are given."""
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    ids = np.full((len(rows), lengths.max()), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, :len(row)] = row
    packed = Packed(ids=ids, lengths=lengths, labels=np.array(labels, dtype=np.int64))
    return LabeledDataset(packed=packed, K=K,
                          label_names=label_names or tuple(f"c{k}" for k in range(K)))


def make_token_dataset(rng, n, K=3, vocab_size=20, max_len=10) -> LabeledDataset:
    """Random-token dataset where the label is encoded by a keyword."""
    rows, labels = [], []
    for _ in range(n):
        label = int(rng.integers(K))
        ln = int(rng.integers(3, max_len - 2))
        toks = list(rng.integers(8, vocab_size, size=ln))
        toks[int(rng.integers(ln))] = 5 + label  # ids 5..7 are class keywords
        rows.append([2] + toks + [3])
        labels.append(label)
    return dataset_of_rows(rows, labels, K)


def view(snapshot, name: str) -> np.ndarray:
    """The named parameter of a snapshot, shaped by its layout."""
    return snapshot.layout.views(snapshot.params)[name]


def record_fine_tunes(monkeypatch) -> tuple[list, list]:
    """Record every ``enc.train`` call from now on: the parameters it starts
    from and the snapshot it returns, in call order. A second call replaces
    the first's recorder."""
    from textboost.encoder.training import train as real_train

    starts, ends = [], []

    def recording_train(model, *args, **kwargs):
        starts.append(model.params.copy())
        snap, log = real_train(model, *args, **kwargs)
        ends.append(snap)
        return snap, log

    monkeypatch.setattr(enc, "train", recording_train)
    return starts, ends


def count_fits(monkeypatch) -> Counter:
    """Count every ``fit_loop`` call from now on under the function that asked
    for it: ``pretrain_mlm``, ``train_fusion``, ``distill_train``, or for a
    fine-tune (``train``) its caller, ``fit_round``, ``_start`` (the
    finetuning strategy's source fine-tune) or ``bag_train``."""
    from textboost import fusion
    from textboost.encoder import training

    real, fits = training.fit_loop, Counter()

    def counting(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "train":
            caller = caller.f_back
        fits[caller.f_code.co_name] += 1
        return real(*args, **kwargs)

    for module in (training, enc, fusion):
        monkeypatch.setattr(module, "fit_loop", counting)
    return fits


def jsonl_lines(out_root) -> int:
    """Lines of ``<out_root>/metrics.jsonl`` (0 before the first run)."""
    path = out_root / "metrics.jsonl"
    return len(path.read_text().splitlines()) if path.exists() else 0


def assert_run_contract(out_root, command: str, lines_before: int) -> dict:
    """Check what every config-driven command leaves: one ``<command>-<hash12>``
    dir (``<command>-<hash12>-<source hash12>`` for the commands that read a
    saved ensemble, and for ``compare``, whose source is its grid) with the
    task artifacts and a record carrying exactly the MetricsRecord fields and
    all five accuracy keys, appended to ``metrics.jsonl`` as one line.
    Returns the record."""
    (run_dir,) = out_root.glob(f"{command}-*")
    hashes = re.fullmatch(rf"{command}-([0-9a-f]{{12}})(-[0-9a-f]{{12}})?", run_dir.name)
    assert hashes and (hashes[2] is not None) == (command in ("fusion", "distill", "compare"))
    for name in ("config.json", "vocab.tsv", "task.json", "metrics.json"):
        assert (run_dir / name).is_file(), name
    rec = json.loads((run_dir / "metrics.json").read_text())
    assert set(rec) == {f.name for f in dataclasses.fields(cli.MetricsRecord)}
    assert set(cli.ACCURACY_KEYS) <= set(rec["accuracies"])
    assert rec["run_id"] == run_dir.name and rec["command"] == command
    assert rec["config_hash"].startswith(hashes[1])
    lines = (out_root / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == lines_before + 1
    assert json.loads(lines[-1]) == rec
    return rec
