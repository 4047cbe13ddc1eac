import dataclasses
import tracemalloc

import numpy as np
import pytest

from textboost import encoder as enc
from textboost.artifacts import ArtifactError
from textboost.encoder import nnops
from textboost.textdata import SCORE_CHUNK, SEP_ID, Packed

from conftest import random_batch
from reference_forward import GELU_C0, GELU_C1, reference_probs
from reference_forward import _gelu as reference_gelu


@pytest.fixture
def model(tiny_config):
    return enc.TransformerModel(tiny_config, seed=42)


class TestForward:
    def test_rows_are_distributions(self, model):
        batch = random_batch(np.random.default_rng(0))
        probs = model.forward_probs(batch)
        assert probs.shape == (4, 3)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_head_gives_uniform(self, model):
        model.p["cls.w"][:] = 0.0
        model.p["cls.b"][:] = 0.0
        probs = model.forward_probs(random_batch(np.random.default_rng(1)))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_eval_mode_deterministic_for_duplicates(self, model):
        batch = random_batch(np.random.default_rng(2), B=1)
        dup = Packed(
            ids=np.vstack([batch.ids, batch.ids]),
            lengths=np.concatenate([batch.lengths, batch.lengths]),
            labels=np.concatenate([batch.labels, batch.labels]),
        )
        probs = model.forward_probs(dup)
        assert np.array_equal(probs[0], probs[1])

    def test_matches_independent_reference(self, model):
        """Batched implementation vs the loop-based reference, per example;
        the reference is given segment 0 through the first SEP and 1 after."""
        rng = np.random.default_rng(3)
        batch = random_batch(rng, B=6, L=9)
        probs = model.forward_probs(batch)
        for i in range(batch.n):
            row = batch.ids[i, : batch.lengths[i]].tolist()
            first_sep = row.index(SEP_ID)
            segs = [0] * (first_sep + 1) + [1] * (len(row) - first_sep - 1)
            assert 1 in segs
            want = reference_probs(model.snapshot("random"), row, segs)
            assert np.max(np.abs(probs[i] - want)) < 1e-10

    def test_gelu_matches_reference(self):
        """``x*x*x`` in the kernel against the reference's ``x**3``: one
        rounding apart at most."""
        x = np.concatenate([np.linspace(-12.0, 12.0, 4801), [0.0, 1e-9, -1e-9, 40.0, -40.0]])
        y, t = nnops.gelu(x)
        assert np.all(np.abs(y - reference_gelu(x)) <= 1e-15 * np.maximum(1.0, np.abs(x)))
        assert np.all(np.abs(t - np.tanh(GELU_C0 * (x + GELU_C1 * x**3))) <= 1e-15)

    def test_layer_norm_variance_equals_numpy_var(self):
        """Centring once and averaging squares rounds exactly as ``x.var``:
        LayerNorm is bit-equal to its textbook form."""
        rng = np.random.default_rng(11)
        for shape, scale in (((4, 7, 8), 1.0), ((32, 24, 32), 3.0), ((3, 5, 16), 1e3)):
            x = rng.normal(0.5, scale, size=shape)
            gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
            y, (xhat, inv_sigma) = nnops.ln_forward(x, gamma, beta)
            var = x.var(axis=-1, keepdims=True)
            want_inv = 1.0 / np.sqrt(var + nnops.LN_EPS)
            want_xhat = (x - x.mean(axis=-1, keepdims=True)) * want_inv
            assert inv_sigma.tobytes() == want_inv.tobytes()
            assert xhat.tobytes() == want_xhat.tobytes()
            assert y.tobytes() == (gamma * want_xhat + beta).tobytes()

    def test_padding_does_not_change_output(self, model):
        rng = np.random.default_rng(4)
        batch = random_batch(rng, B=3, L=6)
        wider = Packed(
            ids=np.pad(batch.ids, ((0, 0), (0, 4))),
            lengths=batch.lengths,
            labels=batch.labels,
        )
        assert np.allclose(model.forward_probs(batch), model.forward_probs(wider), atol=1e-12)

    def test_dropout_train_mode_is_stochastic_but_seeded(self, model):
        batch = random_batch(np.random.default_rng(5))

        def per_example_losses(seed):
            return model.clf_loss_and_grad(batch, batch.labels, train_mode=True,
                                           rng=np.random.default_rng(seed))[1]

        a, b, c = per_example_losses(9), per_example_losses(9), per_example_losses(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_forward_only_pass_keeps_no_cache(self, model):
        """Scoring keeps no layer activations, and computes the same bytes
        (and draws the same dropout) as the pass a backward follows."""
        b = random_batch(np.random.default_rng(12))
        for train in (False, True):
            h, cache = model._trunk_forward(b.ids, b.lengths, train, np.random.default_rng(4))
            h_kept, kept = model._trunk_forward(b.ids, b.lengths, train,
                                                np.random.default_rng(4), keep_cache=True)
            assert cache is None and len(kept["layers"]) == model.config.n_layers
            assert h.tobytes() == h_kept.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("kind", ["cls", "masked"])
    def test_query_pass_matches_full_pass_and_draws_the_same_stream(self, tiny_config,
                                                                    n_layers, kind):
        """The last block runs for the query positions alone: the CLS row of
        classification, or each sequence's masked columns (a different number
        per sequence, padded with position 0) of the masked-token loss."""
        cfg = dataclasses.replace(tiny_config, n_layers=n_layers, dropout_rate=0.3)
        model = enc.TransformerModel(cfg, seed=42)
        b = random_batch(np.random.default_rng(13), B=5, L=9)
        if kind == "cls":
            query = np.zeros((5, 1), dtype=np.intp)
        else:
            query = np.array([[3, 1, 2], [2, 0, 0], [1, 4, 0], [2, 0, 0], [1, 2, 0]])
            assert (query.max(axis=1) < b.lengths).all()
        for train in (False, True):
            rng_full, rng_q = np.random.default_rng(4), np.random.default_rng(4)
            full, _ = model._trunk_forward(b.ids, b.lengths, train, rng_full)
            part, _ = model._trunk_forward(b.ids, b.lengths, train, rng_q, query=query)
            assert full.shape == (5, 9, cfg.d_model)
            assert part.shape == (5, query.shape[1], cfg.d_model)
            np.testing.assert_allclose(part, full[np.arange(5)[:, None], query],
                                       rtol=0.0, atol=1e-12)
            assert rng_q.random() == rng_full.random()

    def test_over_length_batch_rejected(self, model):
        batch = random_batch(np.random.default_rng(6), L=13)
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward_probs(batch)

    def test_divergence_reports_layer(self, model):
        model.params[:] = 1e200
        with pytest.raises(enc.DivergenceError):
            model.forward_probs(random_batch(np.random.default_rng(7)))



class TestInPlaceKernels:
    """The kernels call the reductions directly and reuse their temporaries
    in place; their bytes equal the textbook out-of-place expressions below,
    one new array per operation, and they leave their inputs as they were."""

    @staticmethod
    def ln_forward(x, gamma, beta):
        inv_sigma = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + nnops.LN_EPS)
        xhat = (x - x.mean(axis=-1, keepdims=True)) * inv_sigma
        return gamma * xhat + beta, xhat, inv_sigma

    @staticmethod
    def ln_backward(dy, xhat, inv_sigma, gamma):
        axes = tuple(range(dy.ndim - 1))
        dxhat = dy * gamma
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_sigma
        return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)

    @staticmethod
    def softmax_rows(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    @staticmethod
    def gelu(x):
        t = np.tanh(GELU_C0 * (x + GELU_C1 * (x * x * x)))
        return 0.5 * x * (1.0 + t), t

    @staticmethod
    def gelu_grad(x, t):
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C0 * (
            1.0 + 3.0 * GELU_C1 * (x * x))

    @staticmethod
    def dropout_forward(x, rate, rng):
        mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
        return x * mask, mask

    SHAPES = ((4, 7, 8), (32, 24, 32), (8, 1, 32), (2, 2, 5, 9), (3, 64), (17,))

    @staticmethod
    def inputs(seed):
        rng = np.random.default_rng(seed)
        for shape in TestInPlaceKernels.SHAPES:
            for scale in (1e-3, 1.0, 7.0, 1e3):
                yield rng, rng.normal(0.3, scale, size=shape)

    @staticmethod
    def same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_layer_norm_forward_and_backward(self):
        for rng, x in self.inputs(21):
            x0 = x.copy()
            gamma, beta = rng.normal(size=x.shape[-1]), rng.normal(size=x.shape[-1])
            y, (xhat, inv_sigma) = nnops.ln_forward(x, gamma, beta)
            want = self.ln_forward(x0, gamma, beta)
            self.same((y, xhat, inv_sigma), want)
            dy = rng.normal(size=x.shape)
            dy0 = dy.copy()
            self.same(nnops.ln_backward(dy, (xhat, inv_sigma), gamma),
                      self.ln_backward(dy0, want[1], want[2], gamma))
            assert x.tobytes() == x0.tobytes() and dy.tobytes() == dy0.tobytes()

    def test_softmax_rows(self):
        for _, z in self.inputs(22):
            z0 = z.copy()
            self.same((nnops.softmax_rows(z),), (self.softmax_rows(z0),))
            assert z.tobytes() == z0.tobytes()

    def test_gelu_and_its_gradient(self):
        tails = np.array([0.0, -0.0, 1e-9, -1e-9, 12.0, -12.0, 40.0, -40.0])
        for _, x in [*self.inputs(23), (None, tails)]:
            x0 = x.copy()
            y, t = nnops.gelu(x)
            want_y, want_t = self.gelu(x0)
            self.same((y, t), (want_y, want_t))
            self.same((nnops.gelu_grad(x, t),), (self.gelu_grad(x0, want_t),))
            assert x.tobytes() == x0.tobytes()

    def test_out_forms_write_into_out_and_return_it(self):
        """``softmax_rows(z, out=)`` and ``gelu(x, out=)``, into a buffer of
        their own or into their input, as the forward-only trunk calls them."""
        for _, x in self.inputs(25):
            want_p, (want_y, _) = self.softmax_rows(x), self.gelu(x)
            for into_input in (False, True):
                z = x.copy()
                out = z if into_input else np.empty_like(z)
                assert nnops.softmax_rows(z, out=out) is out
                self.same((out,), (want_p,))
                assert into_input or z.tobytes() == x.tobytes()
                z = x.copy()
                out = z if into_input else np.empty_like(z)
                y, t = nnops.gelu(z, out=out)
                assert y is out and t is None
                self.same((out,), (want_y,))
                assert into_input or z.tobytes() == x.tobytes()

    def test_dropout_mask_and_stream(self):
        for seed, (_, x) in enumerate(self.inputs(24)):
            for rate in (0.1, 0.5):
                x0 = x.copy()
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                self.same(nnops.dropout_forward(x, rate, True, got_rng),
                          self.dropout_forward(x0, rate, want_rng))
                assert got_rng.random() == want_rng.random()
                assert x.tobytes() == x0.tobytes()


class TestSnapshot:
    def test_roundtrip_bit_identical_forward(self, model, tmp_path):
        batch = random_batch(np.random.default_rng(8))
        before = model.forward_probs(batch)
        snap = model.snapshot("finetuned")
        snap.save(tmp_path / "m.bgv")
        loaded = enc.ModelSnapshot.load(tmp_path / "m.bgv")
        after = enc.model_from_snapshot(loaded).forward_probs(batch)
        assert np.array_equal(before, after)

    def test_magic_bytes(self, model, tmp_path):
        model.snapshot("random").save(tmp_path / "m.bgv")
        assert (tmp_path / "m.bgv").read_bytes()[:4] == b"BGV1"

    def test_snapshot_immutable(self, model):
        snap = model.snapshot("random")
        with pytest.raises(ValueError):
            snap.params[0] = 1.0

    def test_bad_role_rejected(self, model):
        with pytest.raises(ValueError):
            enc.ModelSnapshot(config=model.config, params=model.params, role="whatever")

    def test_nonfinite_params_rejected(self, model):
        params = model.params.copy()
        params[3] = np.nan
        with pytest.raises(ValueError):
            enc.ModelSnapshot(config=model.config, params=params, role="random")

    def test_corrupt_magic_rejected(self, model, tmp_path):
        p = tmp_path / "m.bgv"
        p.write_bytes(b"XXXX" + model.snapshot("random").to_bytes()[4:])
        with pytest.raises(ArtifactError, match="magic"):
            enc.ModelSnapshot.load(p)

    def test_padded_or_truncated_checkpoint_rejected(self, model):
        blob = model.snapshot("random").to_bytes()
        for bad in (blob + bytes(8), blob[:-8], blob[:6]):
            with pytest.raises(ArtifactError):
                enc.ModelSnapshot.from_bytes(bad)


class TestSoftreg:
    def test_counts_and_uniform_zero_head(self):
        cfg = enc.SoftregConfig(vocab_size=20, K=3)
        model = enc.SoftmaxRegressionModel(cfg, seed=0)
        model.params[:] = 0.0
        probs = model.forward_probs(random_batch(np.random.default_rng(0)))
        assert np.allclose(probs, 1 / 3, atol=1e-12)

    def test_token_counts_ignore_padding(self):
        cfg = enc.SoftregConfig(vocab_size=20, K=3)
        batch = random_batch(np.random.default_rng(1), B=2, L=6)
        counts = enc.token_counts(batch, cfg.vocab_size)
        assert counts[0].sum() == batch.lengths[0]
        assert counts[:, 0].sum() == 0  # PAD column empty

    def test_token_counts_equal_a_per_row_bincount(self):
        rng = np.random.default_rng(3)
        for B, L in ((1, 3), (7, 9), (32, 24), (64, 24)):
            batch = random_batch(rng, vocab_size=20, B=B, L=L)
            expected = np.stack([np.bincount(row[:n], minlength=20)
                                 for row, n in zip(batch.ids, batch.lengths)])
            np.testing.assert_array_equal(enc.token_counts(batch, 20), expected)


def bundled_sized_model(kind):
    """A learner at the default encoder shapes and the bundled task's vocabulary."""
    if kind == "softreg":
        return enc.SoftmaxRegressionModel(enc.SoftregConfig(vocab_size=588, K=3), seed=0)
    return enc.TransformerModel(enc.EncoderConfig(
        vocab_size=588, K=3, d_model=32, n_layers=2, n_heads=2, d_ffn=64,
        max_seq_len=24, dropout_rate=0.1), seed=0)


class TestScoringChunks:
    @pytest.mark.parametrize("kind", ["transformer", "softreg"])
    def test_default_chunks_equal_one_pass(self, kind):
        model = bundled_sized_model(kind)
        batch = random_batch(np.random.default_rng(7), vocab_size=588, B=2 * SCORE_CHUNK + 22,
                             L=24)
        assert len(list(batch.chunks())) == 3  # two full chunks and a partial one
        chunked, whole = model.predict_proba(batch), model.forward_probs(batch)
        # chunks are trimmed to their own longest row: last-ulp tolerance
        np.testing.assert_allclose(chunked, whole, rtol=0.0, atol=1e-12)
        assert np.array_equal(chunked.argmax(axis=1), whole.argmax(axis=1))

    @pytest.mark.parametrize("kind", ["transformer", "softreg"])
    def test_heads_over_one_feature_pass_equal_the_models_that_carry_them(self, kind):
        """``predict_proba_heads`` scores M heads from one feature pass per
        chunk; each head's rows are, bit for bit, ``predict_proba`` of the
        model that carries that head, at the same chunks."""
        model = bundled_sized_model(kind)
        rng = np.random.default_rng(9)
        batch = random_batch(rng, vocab_size=588, B=2 * SCORE_CHUNK + 22, L=24)
        assert len(list(batch.chunks())) == 3
        carriers = []
        for _ in range(3):
            params = model.params.copy()
            params[model.layout.head] = rng.normal(size=model.layout.head.stop
                                                   - model.layout.head.start)
            carriers.append(type(model)(model.config, params=params))
        got = model.predict_proba_heads(batch, [(c.p["cls.w"], c.p["cls.b"]) for c in carriers])
        assert got.shape == (batch.n, 3, 3)
        for m, carrier in enumerate(carriers):
            assert got[:, m].tobytes() == carrier.predict_proba(batch).tobytes()

    # Scoring 2,000 rows at 64-row chunks peaks at about 2.3 MB of transformer
    # activations and 0.4 MB of softreg counts; 256-row transformer chunks
    # take about 9 MB, and softreg's rows as one (rows, V) chunk 10 MB.
    @pytest.mark.parametrize("kind, bound_mb", [("transformer", 16.0), ("softreg", 2.0)])
    def test_scratch_memory_of_2000_rows_is_bounded(self, kind, bound_mb):
        model = bundled_sized_model(kind)
        batch = random_batch(np.random.default_rng(8), vocab_size=588, B=2000, L=24)
        model.predict_proba(batch)
        tracemalloc.start()
        try:
            model.predict_proba(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, f"{peak / 1e6:.1f} MB"

    def test_a_forward_only_pass_holds_only_live_activations(self):
        """A 64-row chunk's forward frees each activation after its last
        reader, and softmax and GELU write into arrays the pass owns: scoring
        640 rows at the default shapes peaks near one chunk's working set,
        about 2.2 MB."""
        model = bundled_sized_model("transformer")
        batch = random_batch(np.random.default_rng(8), vocab_size=588, B=10 * SCORE_CHUNK,
                             L=24)
        model.predict_proba(batch)
        tracemalloc.start()
        try:
            model.predict_proba(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, f"{peak / 1e6:.2f} MB"

    def test_a_masked_token_step_spends_each_layers_cache_in_its_backward(self):
        """The backward pops each layer's cache as it reaches the layer and
        drops each array after its last read: a batch-32 masked-token step at
        the default shapes peaks at about 5.4 MB, against 9.0 MB while every
        layer's cache lived until the backward returned."""
        from textboost.encoder.training import _mask_batch
        from textboost.textdata import pack_corpus

        model = bundled_sized_model("transformer")
        rng = np.random.default_rng(11)
        corpus = [rng.integers(5, 588, size=rng.integers(8, 30)).tolist() for _ in range(64)]
        tokens, lengths = pack_corpus(corpus, model.config.max_seq_len)
        grad = np.zeros_like(model.params)

        def step():
            masked = _mask_batch(tokens, lengths, np.arange(32), np.random.default_rng(1))
            model.mlm_loss_and_grad(*masked, train_mode=True, rng=np.random.default_rng(2),
                                    out=grad)

        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6, f"{peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("kind", ["transformer", "softreg"])
    def test_scoring_leaves_the_parameters_and_the_batch_unchanged(self, kind):
        model = bundled_sized_model(kind)
        batch = random_batch(np.random.default_rng(10), vocab_size=588, B=SCORE_CHUNK + 9,
                             L=24)
        heads = [(model.p["cls.w"] + 1.0, model.p["cls.b"] - 1.0)]
        before = [a.tobytes() for a in (model.params, batch.ids, batch.lengths, batch.labels,
                                        *heads[0])]
        model.predict_proba(batch)
        model.predict_proba_heads(batch, heads)
        assert [a.tobytes() for a in (model.params, batch.ids, batch.lengths, batch.labels,
                                      *heads[0])] == before
