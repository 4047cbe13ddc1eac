"""Bundled synthetic 3-class text task so experiments need no external data.

Every sentence draws its filler words from one of six topics (plus a shared
pool); topics are deliberately orthogonal to the class label, so masked-token
pretraining can organize the large filler vocabulary without leaking labels.
The class signal lives only in keywords: easy sentences carry one or two
frequent ("strong") keywords of their class, often alongside one of the
class's infrequent ("rare") keywords; hard sentences carry a single rare
keyword of the true class plus a strong keyword of another class as a decoy,
so a model that stops at the frequent evidence misreads them. A label-noise
knob flips a fraction of training labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import artifacts
from .textdata import RawExample

LABELS = ("alpha", "beta", "gamma")

# the filler inventory is deliberately large: learning these embeddings from
# the labeled split alone is slow, while the unlabeled corpus covers them
# densely, which is what makes warm starts matter at toy scale
_N_TOPICS = 6
_TOPIC = tuple(tuple(f"t{c}{i:03d}" for i in range(75)) for c in range(_N_TOPICS))
_SHARED = tuple(f"s{i:03d}" for i in range(100))
_STRONG = tuple(tuple(f"k{c}{j}" for j in range(5)) for c in range(3))
_RARE = tuple(tuple(f"r{c}{j}" for j in range(6)) for c in range(3))

_RARE_IN_EASY_PROB = 0.35
_TOPIC_WORD_PROB = 0.6


@dataclass(frozen=True)
class SynthConfig:
    """The task's sizes, noise and seed; ``gen-data``'s flags hold their defaults."""

    train_size: int
    dev_size: int
    corpus_size: int
    noise: float
    hard_fraction: float
    seed: int


def _fillers(rng: np.random.Generator, n: int) -> list[str]:
    topic = _TOPIC[int(rng.integers(_N_TOPICS))]
    words = []
    for _ in range(n):
        pool = topic if rng.random() < _TOPIC_WORD_PROB else _SHARED
        words.append(pool[int(rng.integers(len(pool)))])
    return words


def _sentence(rng: np.random.Generator, cls: int, hard: bool) -> str:
    words = _fillers(rng, int(rng.integers(5, 11)))
    if hard:
        words.append(_RARE[cls][int(rng.integers(len(_RARE[cls])))])
        others = [c for c in range(3) if c != cls]
        oc = others[int(rng.integers(len(others)))]
        words.append(_STRONG[oc][int(rng.integers(len(_STRONG[oc])))])
    else:
        for _ in range(int(rng.integers(1, 3))):
            words.append(_STRONG[cls][int(rng.integers(len(_STRONG[cls])))])
        if rng.random() < _RARE_IN_EASY_PROB:
            words.append(_RARE[cls][int(rng.integers(len(_RARE[cls])))])
    rng.shuffle(words)
    return " ".join(words)


def _draw(n: int, seed, *, noise: float, hard_fraction: float) -> Iterator[RawExample]:
    """The ``n`` labeled sentences of ``seed``, one at a time; with ``noise``
    0 no label is flipped and no draw is spent on flips."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        cls = int(rng.integers(3))
        hard = bool(rng.random() < hard_fraction)
        text = _sentence(rng, cls, hard)
        label = cls
        if noise > 0 and rng.random() < noise:
            label = (cls + 1 + int(rng.integers(2))) % 3
        yield RawExample(label=LABELS[label], text_a=text)


def generate_examples(
    n: int, seed, *, noise: float = 0.0, hard_fraction: float = 0.25
) -> list[RawExample]:
    """Labeled sentences; with ``noise`` 0 their texts also serve as the
    unlabeled corpus."""
    return list(_draw(n, seed, noise=noise, hard_fraction=hard_fraction))


def write_task(out_dir: str | Path, cfg: SynthConfig) -> dict:
    """Write train.tsv (noisy), dev.tsv (clean), and corpus.txt, each line
    as it is drawn; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "train": out / "train.tsv",
        "dev": out / "dev.tsv",
        "corpus": out / "corpus.txt",
    }
    for name, size, stream, noise in (("train", cfg.train_size, 1, cfg.noise),
                                      ("dev", cfg.dev_size, 2, 0.0)):
        rows = _draw(size, [cfg.seed, stream], noise=noise, hard_fraction=cfg.hard_fraction)
        artifacts.write(paths[name], (f"{ex.label}\t{ex.text_a}\n" for ex in rows))
    corpus = _draw(cfg.corpus_size, [cfg.seed, 3], noise=0.0, hard_fraction=cfg.hard_fraction)
    artifacts.write(paths["corpus"], (f"{ex.text_a}\n" for ex in corpus))
    return {k: str(v) for k, v in paths.items()}
