import numpy as np
import pytest

from textboost import encoder as enc
from textboost.textdata import EncodedExample, LabeledDataset, Packed


@pytest.fixture
def tiny_config():
    return enc.EncoderConfig(
        vocab_size=20, K=3, d_model=8, n_layers=2, n_heads=2, d_ffn=16,
        max_seq_len=12, dropout_rate=0.1,
    )


def random_batch(rng, vocab_size=20, B=4, L=7, K=3) -> Packed:
    lengths = rng.integers(3, L + 1, size=B)
    ids = np.zeros((B, L), dtype=np.int64)
    segs = np.zeros((B, L), dtype=np.int64)
    for i, ln in enumerate(lengths):
        ids[i, :ln] = rng.integers(5, vocab_size, size=ln)
        ids[i, 0] = 2  # CLS
        ids[i, ln - 1] = 3  # SEP
        segs[i, ln // 2 : ln] = 1
    return Packed(
        ids=ids,
        segs=segs,
        lengths=lengths.astype(np.int64),
        labels=rng.integers(0, K, size=B).astype(np.int64),
    )


def make_token_dataset(rng, n, K=3, vocab_size=20, max_len=10) -> LabeledDataset:
    """Random-token dataset where the label is encoded by a keyword."""
    examples = []
    for _ in range(n):
        label = int(rng.integers(K))
        ln = int(rng.integers(3, max_len - 2))
        toks = list(rng.integers(8, vocab_size, size=ln))
        toks[int(rng.integers(ln))] = 5 + label  # ids 5..7 are class keywords
        ids = tuple([2] + toks + [3])
        examples.append(EncodedExample(
            token_ids=ids, segment_ids=tuple([0] * len(ids)), label_id=label,
        ))
    return LabeledDataset(examples=tuple(examples), K=K,
                          label_names=tuple(f"c{k}" for k in range(K)))
