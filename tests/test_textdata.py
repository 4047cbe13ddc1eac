import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textboost.textdata import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    LabeledDataset,
    MalformedLineError,
    Packed,
    RawExample,
    Vocabulary,
    build_vocab,
    encode,
    load_tsv,
    pack_corpus,
    segment_ids,
    subsample,
    tokenize,
)

from conftest import dataset_of_rows


def same_rows(a: LabeledDataset, b: LabeledDataset) -> bool:
    return all(np.array_equal(getattr(a.packed, f), getattr(b.packed, f))
               for f in ("ids", "lengths", "labels"))


def segments_of(ids: list[int]) -> list[int]:
    """``segment_ids`` of one unpadded row."""
    return segment_ids(np.array([ids]), np.array([len(ids)]))[0].tolist()


def test_reserved_ids_are_fixed():
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)


class TestLoadTsv:
    def test_two_column(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("pos\tgreat movie\nneg\tawful\n", encoding="utf-8")
        got = load_tsv(p)
        assert got[0] == RawExample(label="pos", text_a="great movie", text_b=None)
        assert len(got) == 2

    def test_three_column_pair(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("ent\ta cat sits\tan animal sits\n", encoding="utf-8")
        got = load_tsv(p)
        assert got[0].text_b == "an animal sits"

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("pos\tok\npos\n", encoding="utf-8")
        with pytest.raises(MalformedLineError, match=r":2:"):
            load_tsv(p)

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no examples"):
            load_tsv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("pos\ta\n\nneg\tb\n", encoding="utf-8")
        assert len(load_tsv(p)) == 2


class TestBuildVocab:
    def test_hand_counted_frequencies(self):
        vocab = build_vocab(["a b", "a"])
        assert vocab.token_to_id == {"a": 5, "b": 6}
        assert vocab.size == 7
        # an example counts both texts of its pair
        vocab = build_vocab([RawExample("x", "a b"), RawExample("x", "a", "b b")])
        assert vocab.token_to_id == {"b": 5, "a": 6}

    def test_empty_text_leaves_reserved_only(self):
        vocab = build_vocab(["   "])
        assert vocab.size == 5
        assert vocab.lookup("anything") == UNK_ID

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocab(["b b a a c"])
        # a and b tie at 2, a wins lexicographically; c trails
        assert vocab.token_to_id == {"a": 5, "b": 6, "c": 7}

    def test_lowercasing(self):
        vocab = build_vocab(["Apple APPLE apple"])
        assert vocab.token_to_id == {"apple": 5}
        assert vocab.lookup("aPPle") == 5

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(["a b c b"])
        vocab.save(tmp_path / "v.tsv")
        back = Vocabulary.load(tmp_path / "v.tsv")
        assert back.token_to_id == vocab.token_to_id


class TestEncode:
    LMAP = {"pos": 0, "neg": 1}

    def test_single_sentence_layout(self):
        vocab = build_vocab(["a b"])
        ids, label = encode(RawExample("pos", "a b"), vocab, self.LMAP, max_seq_len=8)
        assert ids == [CLS_ID, vocab.lookup("a"), vocab.lookup("b"), SEP_ID]
        assert segments_of(ids) == [0, 0, 0, 0]
        assert label == 0

    def test_empty_text_degenerate(self):
        vocab = build_vocab(["a"])
        ids, _ = encode(RawExample("pos", ""), vocab, self.LMAP, max_seq_len=8)
        assert ids == [CLS_ID, SEP_ID]

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab(["a"])
        ids, _ = encode(RawExample("pos", "zzz"), vocab, self.LMAP, max_seq_len=8)
        assert ids[1] == UNK_ID

    def test_pair_truncation_drops_text_b_first(self):
        # 10 content tokens, max 6: all five b-tokens go, then two a-tokens,
        # leaving [CLS] a1 a2 a3 [SEP] [SEP]
        vocab = build_vocab(["a1 a2 a3 a4 a5 b1 b2 b3 b4 b5"])
        ids, _ = encode(
            RawExample("pos", "a1 a2 a3 a4 a5", "b1 b2 b3 b4 b5"), vocab, self.LMAP, max_seq_len=6
        )
        assert len(ids) == 6
        assert ids == [
            CLS_ID, vocab.lookup("a1"), vocab.lookup("a2"), vocab.lookup("a3"), SEP_ID, SEP_ID,
        ]
        assert segments_of(ids) == [0, 0, 0, 0, 0, 1]

    def test_sep_count_invariant(self):
        vocab = build_vocab(["a b c d e f"])
        single, _ = encode(RawExample("pos", "a b c d e f"), vocab, self.LMAP, max_seq_len=5)
        assert single.count(SEP_ID) == 1
        pair, _ = encode(RawExample("pos", "a b c", "d e f"), vocab, self.LMAP, max_seq_len=5)
        assert pair.count(SEP_ID) == 2

    def test_mixed_case_and_non_ascii_tokens_get_the_ids_of_lookup(self):
        """``encode`` and ``Vocabulary.ids`` read ``tokenize``'s lowercase
        tokens from the vocabulary without lowering them again; every id is
        the one ``lookup`` gives the raw token, final sigma and dotted I
        included."""
        vocab = build_vocab(["ΣΑΣ İstanbul Straße ǅemal"])
        text = "σας ΣΑΣ İSTANBUL İstanbul istanbul STRASSE Straße ǅEMAL ǆemal unseen"
        want = [vocab.lookup(t) for t in text.split()]
        assert len(set(want) - {UNK_ID}) == 4
        assert vocab.ids(text) == want
        ids, _ = encode(RawExample("pos", text, text), vocab, self.LMAP, max_seq_len=32)
        assert ids == [CLS_ID, *want, SEP_ID, *want, SEP_ID]

    def test_from_raw_holds_no_per_row_list_of_ids(self):
        """Encoding 12,000 rows peaks at about two id matrices (the matrix,
        grown from the flat run of ids, and a copy of those ids on their way
        to their padded cells), not at a Python list of every row's ids
        besides them (3.4 matrices)."""
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(1000)]
        raws = [RawExample(f"c{i % 3}", " ".join(rng.choice(words, size=rng.integers(5, 30))))
                for i in range(12000)]
        vocab = build_vocab([raw.text_a for raw in raws])
        tracemalloc.start()
        try:
            ids = LabeledDataset.from_raw(raws, vocab, 24).packed.ids
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ids.shape == (12000, 24)
        assert peak < 2.5 * ids.nbytes, f"{peak / ids.nbytes:.2f} id matrices"

    def test_unknown_label_raises(self):
        vocab = build_vocab(["a"])
        with pytest.raises(ValueError, match="unknown label"):
            encode(RawExample("???", "a"), vocab, self.LMAP, max_seq_len=8)

    @given(
        st.text(alphabet="abc ", min_size=1, max_size=30),
        st.one_of(st.none(), st.text(alphabet="abc ", min_size=0, max_size=30)),
        st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_sep_count_property_under_truncation(self, text_a, text_b, max_len):
        vocab = build_vocab(["a b c"])
        ids, _ = encode(RawExample("pos", text_a, text_b), vocab, self.LMAP, max_len)
        want = 1 + (1 if text_b is not None else 0)
        assert ids.count(SEP_ID) == want
        assert len(ids) <= max_len

    @given(
        st.text(alphabet="abc ", min_size=1, max_size=30),
        st.one_of(st.none(), st.text(alphabet="abc ", min_size=0, max_size=30)),
        st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_segment_ids_property_under_truncation(self, text_a, text_b, max_len):
        """A packed row's segment ids, derived from its SEPs, are 0 through
        the first SEP, 1 up to its length and 0 on PAD; a filler row as long
        as ``max_len`` gives the row PAD cells whenever it is shorter."""
        vocab = build_vocab(["a b c"])
        raws = [RawExample("pos", text_a, text_b), RawExample("neg", "a " * max_len)]
        p = LabeledDataset.from_raw(raws, vocab, max_len, label_names=("pos", "neg")).packed
        row, n = p.ids[0].tolist(), int(p.lengths[0])
        first_sep = row.index(SEP_ID)
        want = [0] * (first_sep + 1) + [1] * (n - first_sep - 1) + [0] * (len(row) - n)
        assert segment_ids(p.ids, p.lengths)[0].tolist() == want
        assert (1 in want) == (text_b is not None)

    @given(st.lists(st.text(alphabet="abcd ", min_size=1, max_size=20), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_through_vocab(self, texts):
        raws = [RawExample("pos", t) for t in texts if tokenize(t)]
        if not raws:
            return
        vocab = build_vocab([raw.text_a for raw in raws])
        for raw in raws:
            ids, _ = encode(raw, vocab, self.LMAP, max_seq_len=64)
            toks = [vocab.id_to_token[i] for i in ids]
            assert toks[0] == "[CLS]" and toks[-1] == "[SEP]"
            assert toks[1:-1] == tokenize(raw.text_a)

    @given(
        st.lists(st.tuples(st.text(alphabet="abc ", min_size=1, max_size=20),
                           st.one_of(st.none(), st.text(alphabet="abc ", max_size=20)),
                           st.sampled_from(["pos", "neg"])), min_size=1, max_size=6),
        st.integers(min_value=3, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_from_raw_rows_are_the_encoded_rows(self, rows, max_len):
        raws = [RawExample(label, a, b) for a, b, label in rows]
        vocab = build_vocab(["a b"])
        p = LabeledDataset.from_raw(raws, vocab, max_len, label_names=("pos", "neg")).packed
        assert p.ids.shape == (len(raws), p.lengths.max())
        for i, raw in enumerate(raws):
            ids, label = encode(raw, vocab, self.LMAP, max_len)
            m = len(ids)
            assert (p.lengths[i], p.labels[i]) == (m, label)
            assert p.ids[i, :m].tolist() == ids
            assert (p.ids[i, m:] == PAD_ID).all()


def test_corpus_matrix_skips_short_lines_caps_long_ones_and_keeps_order():
    """The pretraining matrix of a 1-token line (skipped), a line longer than
    ``max_seq_len - 2`` (its first 4 tokens kept) and a 2-token line."""
    tokens, lengths = pack_corpus([[7], [8, 9, 10, 11, 12, 13, 14], [5, 6]], max_seq_len=6)
    assert tokens.tolist() == [[CLS_ID, 8, 9, 10, 11, SEP_ID],
                               [CLS_ID, 5, 6, SEP_ID, PAD_ID, PAD_ID]]
    assert lengths.tolist() == [6, 4]
    assert tokens.dtype == lengths.dtype == np.int64
    assert not segment_ids(tokens, lengths).any()


class TestDatasetArrays:
    GOOD = {"ids": [[CLS_ID, 5, SEP_ID]], "lengths": [3], "labels": [1]}

    @staticmethod
    def dataset(**arrays):
        packed = Packed(**{k: np.array(v, dtype=np.int64) for k, v in arrays.items()})
        return LabeledDataset(packed=packed, K=2, label_names=("c0", "c1"))

    @pytest.mark.parametrize("field, value", [
        ("labels", [1, 1]),
        ("ids", [[5, 5, SEP_ID]]),
        ("lengths", [4]),
        ("labels", [2]),
        ("lengths", [2]),
        ("ids", [[CLS_ID, PAD_ID, SEP_ID]]),
    ], ids=["length-mismatch", "cls-first", "length-beyond-width", "label-out-of-range",
            "token-past-length", "pad-inside-length"])
    def test_malformed_arrays_rejected(self, field, value):
        assert self.dataset(**self.GOOD).n == 1
        with pytest.raises(ValueError):
            self.dataset(**dict(self.GOOD, **{field: value}))


def _dataset(n_per_class, K=2):
    rows = [[CLS_ID, 5 + k, 5 + K + i, SEP_ID] for k in range(K) for i in range(n_per_class[k])]
    labels = [k for k in range(K) for _ in range(n_per_class[k])]
    return dataset_of_rows(rows, labels, K)


class TestSubsample:
    def test_identity_at_full_fraction(self):
        ds = _dataset([10, 10])
        out = subsample(ds, 1.0, seed=0)
        assert same_rows(out, ds)

    def test_stratified_counts(self):
        ds = _dataset([50, 50])
        out = subsample(ds, 0.1, seed=3)
        assert out.n == 10
        assert int((out.labels == 0).sum()) == 5
        assert int((out.labels == 1).sum()) == 5

    def test_error_names_empty_class(self):
        ds = _dataset([10, 10, 10], K=3)
        with pytest.raises(ValueError, match="c0"):
            subsample(ds, 0.01, seed=0)

    def test_deterministic_given_seed(self):
        ds = _dataset([40, 40])
        a = subsample(ds, 0.25, seed=11)
        b = subsample(ds, 0.25, seed=11)
        assert same_rows(a, b)

    def test_different_seeds_differ(self):
        ds = _dataset([40, 40])
        a = subsample(ds, 0.25, seed=11)
        b = subsample(ds, 0.25, seed=12)
        assert not same_rows(a, b)

    def test_fraction_bounds(self):
        ds = _dataset([10, 10])
        with pytest.raises(ValueError):
            subsample(ds, 0.0, seed=0)
        with pytest.raises(ValueError):
            subsample(ds, 1.5, seed=0)


class TestPacked:
    def test_pad_and_lengths(self):
        ds = _dataset([2, 1])
        p = ds.packed
        assert p.ids.shape == (3, 4)
        assert (p.lengths == 4).all()
        assert p.labels.tolist() == [0, 0, 1]

    def test_dataset_arrays_are_read_only_and_take_copies_are_writable(self):
        ds = _dataset([2, 1])
        for a in (ds.packed.ids, ds.packed.lengths, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        sub = ds.packed.take(np.array([0, 2]))
        sub.ids[0, 1] = MASK_ID  # as _mask_batch writes into its batch
        assert ds.packed.ids[0, 1] != MASK_ID

    def test_take_trims_to_subset_max(self):
        p = dataset_of_rows([[CLS_ID, 5, 6, 7, SEP_ID], [CLS_ID, SEP_ID]], [0, 1], K=2).packed
        sub = p.take(np.array([1]))
        assert sub.ids.shape == (1, 2)
