"""Dataset ingestion: TSV loading, whitespace tokenization, vocabulary
construction, sequence encoding, and deterministic stratified sub-sampling.

File formats:
  * task TSV: UTF-8, ``label \\t text_a [\\t text_b]``, no header row;
  * vocabulary: UTF-8 lines ``token \\t id`` including the reserved entries.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import artifacts

# Reserved ids are fixed; corpus tokens start at 5.
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

# Rows per scoring chunk of either learner. At 64 rows one activation of a
# transformer chunk (64 x 24 x 32 float64, 393 KB at the default shapes) or a
# softreg chunk's (rows, V) count matrix stays cache-sized, and a scoring
# pass's working set does not grow with the dataset.
SCORE_CHUNK = 64


class MalformedLineError(ValueError):
    """A TSV line whose column layout or content violates the schema."""


@dataclass(frozen=True)
class RawExample:
    """One unencoded task instance; ``text_b`` is set for sentence pairs."""

    label: str
    text_a: str
    text_b: Optional[str] = None


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens; the only tokenizer used anywhere."""
    return text.lower().split()


def load_tsv(path: str | Path, schema: str = "auto") -> list[RawExample]:
    """Read a task TSV into RawExamples, order preserved.

    ``schema`` is "single" (2 columns), "pair" (3 columns) or "auto"
    (either, per line). Blank lines are skipped; any other deviation
    raises MalformedLineError naming the offending line.
    """
    if schema not in ("auto", "single", "pair"):
        raise ValueError(f"unknown schema {schema!r}")
    path = Path(path)
    examples: list[RawExample] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) == 2 and schema in ("auto", "single"):
                label, text_a = fields
                text_b = None
            elif len(fields) == 3 and schema in ("auto", "pair"):
                label, text_a, text_b = fields
            else:
                raise MalformedLineError(
                    f"{path}:{lineno}: expected "
                    f"{'2 or 3' if schema == 'auto' else ('2' if schema == 'single' else '3')} "
                    f"tab-separated fields, got {len(fields)}"
                )
            label = label.strip()
            if not label:
                raise MalformedLineError(f"{path}:{lineno}: empty label")
            if not text_a.strip():
                raise MalformedLineError(f"{path}:{lineno}: empty text_a")
            examples.append(RawExample(label=label, text_a=text_a, text_b=text_b))
    if not examples:
        raise ValueError(f"{path}: no examples found")
    return examples


@dataclass(frozen=True)
class Vocabulary:
    """Token to id mapping with five fixed reserved ids (PAD..MASK).

    Corpus ids are dense in ``[5, size)``. Lookups are over lowercased
    tokens; anything absent maps to UNK.
    """

    token_to_id: Mapping[str, int]

    def __post_init__(self) -> None:
        ids = sorted(self.token_to_id.values())
        if ids != list(range(5, 5 + len(ids))):
            raise ValueError("corpus token ids must be dense starting at 5")

    @property
    def size(self) -> int:
        return 5 + len(self.token_to_id)

    @cached_property
    def id_to_token(self) -> tuple[str, ...]:
        out = list(RESERVED_TOKENS) + [""] * len(self.token_to_id)
        for tok, i in self.token_to_id.items():
            out[i] = tok
        return tuple(out)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token.lower(), UNK_ID)

    def decode(self, ids: Sequence[int]) -> list[str]:
        table = self.id_to_token
        return [table[i] for i in ids]

    def save(self, path: str | Path) -> None:
        artifacts.write(path, "".join(f"{tok}\t{i}\n" for i, tok in enumerate(self.id_to_token)))

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        mapping: dict[str, int] = {}
        with Path(path).open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                tok, sid = line.split("\t")
                i = int(sid)
                if i < 5:
                    if RESERVED_TOKENS[i] != tok:
                        raise ValueError(f"reserved id {i} bound to {tok!r}")
                    continue
                mapping[tok] = i
        return cls(token_to_id=mapping)


def build_vocab(examples: Sequence[RawExample], min_count: int = 1) -> Vocabulary:
    """Frequency-ordered vocabulary (lexicographic tie-break) over all texts.

    Tokens with frequency below ``min_count`` are dropped; they will map to
    UNK at encode time. An empty effective vocabulary is legal.
    """
    if not examples:
        raise ValueError("examples must be non-empty")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for ex in examples:
        counts.update(tokenize(ex.text_a))
        if ex.text_b is not None:
            counts.update(tokenize(ex.text_b))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(token_to_id={tok: 5 + i for i, tok in enumerate(kept)})


@dataclass(frozen=True)
class EncodedExample:
    """Id-encoded instance: CLS-first token ids, segment ids, label."""

    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    label_id: int

    def __post_init__(self) -> None:
        if len(self.token_ids) != len(self.segment_ids):
            raise ValueError("token_ids and segment_ids must have equal length")
        if not self.token_ids or self.token_ids[0] != CLS_ID:
            raise ValueError("token_ids must start with CLS")


def encode(
    example: RawExample,
    vocab: Vocabulary,
    label_to_id: Mapping[str, int],
    max_seq_len: int,
) -> EncodedExample:
    """Encode one example as ``[CLS] a [SEP]`` or ``[CLS] a [SEP] b [SEP]``.

    Over-length inputs are truncated from the end of text_b first, then
    text_a; the CLS and every SEP are always retained, so a pair keeps two
    SEPs even when text_b is truncated away entirely. Segment ids are 0
    through the first SEP and 1 afterwards.
    """
    if example.label not in label_to_id:
        raise ValueError(f"unknown label {example.label!r}")
    a = tokenize(example.text_a)
    b = tokenize(example.text_b) if example.text_b is not None else None
    n_special = 2 if b is None else 3
    if max_seq_len < n_special:
        raise ValueError(f"max_seq_len={max_seq_len} cannot hold the special tokens")
    overflow = len(a) + (len(b) if b is not None else 0) - (max_seq_len - n_special)
    if overflow > 0 and b is not None:
        drop = min(len(b), overflow)
        b = b[: len(b) - drop]
        overflow -= drop
    if overflow > 0:
        a = a[: len(a) - overflow]
    ids = [CLS_ID] + [vocab.lookup(t) for t in a] + [SEP_ID]
    segs = [0] * len(ids)
    if b is not None:
        ids += [vocab.lookup(t) for t in b] + [SEP_ID]
        segs += [1] * (len(ids) - len(segs))
    return EncodedExample(
        token_ids=tuple(ids),
        segment_ids=tuple(segs),
        label_id=label_to_id[example.label],
    )


@dataclass(frozen=True)
class Packed:
    """Dense batch view of encoded examples (PAD-padded, row-aligned)."""

    ids: np.ndarray  # (n, L) int64
    segs: np.ndarray  # (n, L) int64
    lengths: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int64

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def max_len(self) -> int:
        return self.ids.shape[1]

    def take(self, index: np.ndarray) -> "Packed":
        """Row subset, re-trimmed to the subset's longest sequence."""
        lengths = self.lengths[index]
        lmax = int(lengths.max())
        return Packed(
            ids=self.ids[index, :lmax],
            segs=self.segs[index, :lmax],
            lengths=lengths,
            labels=self.labels[index],
        )

    def chunks(self, size: int = SCORE_CHUNK):
        """(row index, sub-batch) pairs of at most ``size`` rows, in order; a
        batch that fits is yielded whole. Each sub-batch is trimmed to its
        own longest row."""
        if self.n <= size:
            yield slice(None), self
            return
        for start in range(0, self.n, size):
            idx = np.arange(start, min(start + size, self.n))
            yield idx, self.take(idx)


def pack(examples: Sequence[EncodedExample]) -> Packed:
    if not examples:
        raise ValueError("cannot pack zero examples")
    n = len(examples)
    lmax = max(len(ex.token_ids) for ex in examples)
    ids = np.full((n, lmax), PAD_ID, dtype=np.int64)
    segs = np.zeros((n, lmax), dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    for i, ex in enumerate(examples):
        m = len(ex.token_ids)
        ids[i, :m] = ex.token_ids
        segs[i, :m] = ex.segment_ids
        lengths[i] = m
        labels[i] = ex.label_id
    return Packed(ids=ids, segs=segs, lengths=lengths, labels=labels)


@dataclass
class LabeledDataset:
    """Encoded K-class dataset. Treat as immutable after construction."""

    examples: tuple[EncodedExample, ...]
    K: int
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.examples = tuple(self.examples)
        self.label_names = tuple(self.label_names)
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if len(self.label_names) != self.K:
            raise ValueError("label_names must have K entries")
        for ex in self.examples:
            if not 0 <= ex.label_id < self.K:
                raise ValueError(f"label_id {ex.label_id} out of range for K={self.K}")

    @property
    def n(self) -> int:
        return len(self.examples)

    @cached_property
    def labels(self) -> np.ndarray:
        return np.array([ex.label_id for ex in self.examples], dtype=np.int64)

    @cached_property
    def packed(self) -> Packed:
        return pack(self.examples)

    @cached_property
    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n}|{self.K}|{','.join(self.label_names)}".encode())
        p = self.packed
        h.update(p.ids.tobytes())
        h.update(p.segs.tobytes())
        h.update(p.labels.tobytes())
        return h.hexdigest()

    @classmethod
    def from_raw(
        cls,
        raws: Sequence[RawExample],
        vocab: Vocabulary,
        max_seq_len: int,
        label_names: Optional[Sequence[str]] = None,
    ) -> "LabeledDataset":
        """Encode raw examples; label ids follow sorted label names unless given."""
        if label_names is None:
            label_names = sorted({ex.label for ex in raws})
        label_to_id = {name: i for i, name in enumerate(label_names)}
        encoded = tuple(encode(ex, vocab, label_to_id, max_seq_len) for ex in raws)
        return cls(examples=encoded, K=len(label_names), label_names=tuple(label_names))


def subsample(dataset: LabeledDataset, fraction: float, seed: int) -> LabeledDataset:
    """Stratified-by-class uniform subsample, deterministic given ``seed``.

    Per-class counts are ``round(fraction * count)``; a class that would
    come out empty raises, naming the class. ``fraction == 1.0`` returns an
    identical copy. Original relative example order is preserved.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return LabeledDataset(
            examples=dataset.examples, K=dataset.K, label_names=dataset.label_names
        )
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    chosen: list[np.ndarray] = []
    for k in range(dataset.K):
        class_idx = np.flatnonzero(labels == k)
        count = int(np.floor(fraction * class_idx.size + 0.5))
        if count < 1:
            raise ValueError(
                f"fraction {fraction} leaves class {dataset.label_names[k]!r} empty "
                f"({class_idx.size} examples available)"
            )
        chosen.append(rng.choice(class_idx, size=count, replace=False))
    keep = np.sort(np.concatenate(chosen))
    return LabeledDataset(
        examples=tuple(dataset.examples[i] for i in keep),
        K=dataset.K,
        label_names=dataset.label_names,
    )
