"""Dataset ingestion: TSV loading, whitespace tokenization, vocabulary
construction, sequence encoding, and deterministic stratified sub-sampling.

File formats:
  * task TSV: UTF-8, ``label \\t text_a [\\t text_b]``, no header row;
  * vocabulary: UTF-8 lines ``token \\t id`` including the reserved entries.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import artifacts

# Reserved ids are fixed; corpus tokens start at 5.
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

# Rows per scoring chunk of either learner. At 64 rows one activation of a
# transformer chunk (64 x 24 x 32 float64, 393 KB at the default shapes) or a
# softreg chunk's (rows, V) count matrix stays cache-sized, and a scoring
# pass's working set does not grow with the dataset: a transformer chunk's
# forward holds only its live activations, about 2.2 MB at the peak.
SCORE_CHUNK = 64


class MalformedLineError(ValueError):
    """A TSV line whose column layout or content violates the schema."""


@dataclass(frozen=True, slots=True)
class RawExample:
    """One unencoded task instance; ``text_b`` is set for sentence pairs."""

    label: str
    text_a: str
    text_b: Optional[str] = None


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens; the only tokenizer used anywhere."""
    return text.lower().split()


def _read_rows(path: Path) -> Iterator[tuple[str, str, Optional[str]]]:
    """The ``(label, text_a, text_b)`` rows of a task TSV, in order, read one
    line at a time.

    A line is ``label, text`` or a sentence pair ``label, text_a, text_b``,
    tab-separated. Blank lines are skipped; any other deviation (a field
    count other than 2 or 3, a blank label, text_a or text_b) raises
    MalformedLineError naming the offending line.
    """
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise MalformedLineError(
                    f"{path}:{lineno}: expected 2 or 3 tab-separated fields, got {len(fields)}"
                )
            label, text_a = fields[:2]
            text_b = fields[2] if len(fields) == 3 else None
            label = label.strip()
            if not label:
                raise MalformedLineError(f"{path}:{lineno}: empty label")
            if not text_a.strip():
                raise MalformedLineError(f"{path}:{lineno}: empty text_a")
            if text_b is not None and not text_b.strip():
                raise MalformedLineError(f"{path}:{lineno}: empty text_b")
            yield label, text_a, text_b


@dataclass(frozen=True)
class TsvFile:
    """A task TSV that ``load_tsv`` has read once: its row count and label set.

    Iterating it reads the file again, a row at a time, so a split's rows
    never exist together; ``len`` is the row count.
    """

    path: Path
    n: int
    labels: frozenset[str]

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[RawExample]:
        return itertools.starmap(RawExample, _read_rows(self.path))


def load_tsv(path: str | Path, counts: Optional[Counter] = None) -> TsvFile:
    """The first pass over a task TSV: every line checked (see
    ``_read_rows``), the rows counted and their labels collected, and, when
    ``counts`` is given, the tokens of each text_a and text_b added to it.
    A file without an example raises ValueError."""
    path = Path(path)
    n, labels = 0, set()
    for label, text_a, text_b in _read_rows(path):
        n += 1
        labels.add(label)
        if counts is not None:
            counts.update(tokenize(text_a))
            if text_b is not None:
                counts.update(tokenize(text_b))
    if not n:
        raise ValueError(f"{path}: no examples found")
    return TsvFile(path=path, n=n, labels=frozenset(labels))


def corpus_lines(path: str | Path) -> Iterator[str]:
    """The non-blank lines of an unlabeled corpus file (split as by
    ``str.splitlines``), read one at a time."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for chunk in fh:
            yield from (line for line in chunk.splitlines() if line.strip())


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

    def ids(self, text: str) -> list[int]:
        """The ``lookup`` of each token of ``tokenize(text)``. Those tokens are
        lowercase already, and ``str.lower`` is idempotent, so they are not
        lowered again."""
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokenize(text)]

    def save(self, path: str | Path) -> None:
        artifacts.write(path, (f"{tok}\t{i}\n" for i, tok in enumerate(self.id_to_token)))

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "Vocabulary":
        """The counted tokens, most frequent first (lexicographic tie-break)."""
        kept = sorted(counts, key=lambda tok: (-counts[tok], tok))
        return cls(token_to_id={tok: 5 + i for i, tok in enumerate(kept)})

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """The vocabulary of a ``save``d file; a line that is not ``token \t
        id``, a reserved id bound to another token, or corpus ids that are
        not dense raise ArtifactError."""
        mapping: dict[str, int] = {}
        with artifacts.decoding(f"vocabulary {path}"), Path(path).open(encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                tok, sid = line.split("\t")
                i = int(sid)
                if i < 5:
                    if i < 0 or RESERVED_TOKENS[i] != tok:
                        raise ValueError(f"reserved id {i} bound to {tok!r}")
                    continue
                mapping[tok] = i
            return cls(token_to_id=mapping)


def build_vocab(texts: Iterable[str | RawExample]) -> Vocabulary:
    """Frequency-ordered vocabulary (lexicographic tie-break) over every
    token of the texts, read once.

    A RawExample counts as its text_a and text_b. A token absent here maps
    to UNK at encode time. An empty effective vocabulary is legal.
    """
    counts: Counter[str] = Counter()
    seen = False
    for text in texts:
        seen = True
        if isinstance(text, RawExample):
            text = f"{text.text_a} {text.text_b or ''}"
        counts.update(tokenize(text))
    if not seen:
        raise ValueError("texts must be non-empty")
    return Vocabulary.from_counts(counts)


def encode(example: RawExample, vocab: Vocabulary, label_to_id: Mapping[str, int],
           max_seq_len: int) -> tuple[list[int], int]:
    """(token ids, label id) of an example, laid out by ``layout``."""
    if example.label not in label_to_id:
        raise ValueError(f"unknown label {example.label!r}")
    a = vocab.ids(example.text_a)
    b = None if example.text_b is None else vocab.ids(example.text_b)
    return layout(a, b, max_seq_len), label_to_id[example.label]


def layout(a: Sequence[int], b: Optional[Sequence[int]], max_seq_len: int) -> list[int]:
    """``[CLS] a [SEP]``, or ``[CLS] a [SEP] b [SEP]`` when ``b`` is given.

    Over-length inputs are truncated from the end of b first, then a; the
    CLS and every SEP are always retained, so a pair keeps two SEPs even
    when b is truncated away entirely. The segment ids follow from this
    layout (``segment_ids``).
    """
    n_special = 2 if b is None else 3
    if max_seq_len < n_special:
        raise ValueError(f"max_seq_len={max_seq_len} cannot hold the special tokens")
    a = a[: max_seq_len - n_special]
    if b is None:
        return [CLS_ID, *a, SEP_ID]
    return [CLS_ID, *a, SEP_ID, *b[: max_seq_len - n_special - len(a)], SEP_ID]


def segment_ids(ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The (B, L) segment ids of ``layout`` rows: 1 after a row's first SEP
    and before its length, else 0."""
    sep = ids == SEP_ID
    after_sep = np.cumsum(sep, axis=1) > sep
    return (after_sep & (np.arange(ids.shape[1]) < lengths[:, None])).astype(np.intp)


def pack(rows: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The id rows PAD-padded into an (n, longest) int64 matrix, and their
    (n,) lengths. ``rows`` is read once, so a generator of rows is never
    held whole: its ids are read into one flat buffer, the newest block on
    the heap, which grows in place into the matrix. A separate matrix would
    leave the buffer's pages as a freed hole, which a heap that keeps freed
    pages (``training._keep_freed_heap``) holds for the rest of the run."""
    row_lengths: list[int] = []

    def cells():
        for row in rows:
            row_lengths.append(len(row))
            yield from row

    ids = np.fromiter(cells(), np.int64)
    n_tokens = ids.size
    ids.resize(len(row_lengths) * max(row_lengths, default=0), refcheck=False)
    lengths = np.array(row_lengths, dtype=np.int64)
    # row-major boolean fill: each row's tokens land in its first cells
    filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
    ids = ids.reshape(filled.shape)
    ids[filled] = ids.ravel()[:n_tokens].copy()
    ids[~filled] = PAD_ID
    return ids, lengths


def pack_corpus(corpus: Sequence[Sequence[int]], max_seq_len: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """``pack`` of the ``layout`` rows, ``[CLS]`` then the first ``max_seq_len
    - 2`` tokens then ``[SEP]``, of the corpus's id sequences of 2 or more
    tokens, in order: the masked-token pretraining matrix."""
    return pack(layout(seq, None, max_seq_len) for seq in corpus if len(seq) >= 2)


@dataclass(frozen=True)
class Packed:
    """Rows of token ids, PAD-padded to a common width, with their lengths
    and labels; ``segment_ids`` derives the segments from the SEPs."""

    ids: np.ndarray  # (n, L) int64
    lengths: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int64

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    def take(self, index: np.ndarray) -> "Packed":
        """Row subset, re-trimmed to the subset's longest row, as writable copies."""
        lengths = self.lengths[index]
        return Packed(ids=self.ids[index, : int(lengths.max())], lengths=lengths,
                      labels=self.labels[index])

    def chunks(self):
        """(row index, sub-batch) pairs of at most ``SCORE_CHUNK`` rows, in
        order; a batch that fits is yielded whole. Each sub-batch is trimmed
        to its own longest row."""
        if self.n <= SCORE_CHUNK:
            yield slice(None), self
            return
        for start in range(0, self.n, SCORE_CHUNK):
            idx = np.arange(start, min(start + SCORE_CHUNK, self.n))
            yield idx, self.take(idx)


@dataclass
class LabeledDataset:
    """Encoded K-class dataset: its padded id arrays, made read-only, since
    a stage that reads the dataset is keyed by their bytes."""

    packed: Packed
    K: int
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        self.label_names = tuple(self.label_names)
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if len(self.label_names) != self.K:
            raise ValueError("label_names must have K entries")
        p = self.packed
        n = p.ids.shape[0] if p.ids.ndim == 2 else -1
        if p.lengths.shape != (n,) or p.labels.shape != (n,):
            raise ValueError("ids must have an (n, L) shape, lengths and labels (n,)")
        if n == 0:
            raise ValueError("a dataset needs at least one example")
        if p.lengths.min() < 1 or p.lengths.max() > p.ids.shape[1]:
            raise ValueError(f"lengths must lie in [1, {p.ids.shape[1]}]")
        if ((p.ids == PAD_ID) != (np.arange(p.ids.shape[1]) >= p.lengths[:, None])).any():
            raise ValueError("a row's PAD cells must be exactly those at or past its length")
        if (p.ids[:, 0] != CLS_ID).any():
            raise ValueError("every row must start with CLS")
        bad = p.labels[(p.labels < 0) | (p.labels >= self.K)]
        if bad.size:
            raise ValueError(f"label_id {bad[0]} out of range for K={self.K}")
        for a in (p.ids, p.lengths, p.labels):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self.packed.n

    @property
    def labels(self) -> np.ndarray:
        return self.packed.labels

    @classmethod
    def from_raw(
        cls,
        raws: Iterable[RawExample],
        vocab: Vocabulary,
        max_seq_len: int,
        label_names: Optional[Sequence[str]] = None,
    ) -> "LabeledDataset":
        """Encode raw examples (see ``encode``) straight into padded arrays;
        label ids follow sorted label names unless given. ``raws`` is read
        once when the label names are given (twice otherwise), so a
        ``TsvFile`` is encoded as its file is read."""
        if label_names is None:
            label_names = sorted({ex.label for ex in raws})
        label_to_id = {name: i for i, name in enumerate(label_names)}
        labels: list[int] = []

        def rows():
            for ex in raws:
                row, label = encode(ex, vocab, label_to_id, max_seq_len)
                labels.append(label)
                yield row

        ids, lengths = pack(rows())
        labels = np.array(labels, dtype=np.int64)
        return cls(packed=Packed(ids=ids, lengths=lengths, labels=labels),
                   K=len(label_names), label_names=tuple(label_names))


def subsample(dataset: LabeledDataset, fraction: float, seed: int) -> LabeledDataset:
    """Stratified-by-class uniform subsample, deterministic given ``seed``.

    Per-class counts are ``round(fraction * count)``; a class that would
    come out empty raises, naming the class. ``fraction == 1.0`` returns the
    dataset itself. Original relative example order is preserved.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return dataset
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
    return LabeledDataset(packed=dataset.packed.take(keep), K=dataset.K,
                          label_names=dataset.label_names)
