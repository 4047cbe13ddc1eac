import json
import tracemalloc

import numpy as np
import pytest

from textboost import boosting
from textboost import encoder as enc
from textboost.encoder import training
from textboost.encoder.training import MLM_MASK_FRACTION, _mask_batch
from textboost.textdata import CLS_ID, MASK_ID, SEP_ID, pack_corpus

from conftest import make_token_dataset, record_fine_tunes, view


def mlm_masked_accuracy(snapshot, corpus, seed) -> float:
    """Top-1 accuracy at masked positions under a fresh masking draw."""
    model = enc.TransformerModel.from_snapshot(snapshot)
    tokens, lengths = pack_corpus(corpus, model.config.max_seq_len)
    ids, lengths, rows, cols, targets = _mask_batch(tokens, lengths, np.arange(lengths.size),
                                                    np.random.default_rng(seed))
    h, _ = model._trunk_forward(ids, lengths, train=False, rng=None)
    logits = h[rows, cols] @ model.p["mlm.w"] + model.p["mlm.b"]
    return float((logits.argmax(axis=1) == targets).mean())


@pytest.fixture
def dataset():
    return make_token_dataset(np.random.default_rng(0), n=96)


class TestAdam:
    @staticmethod
    def reference_steps(params, grads, lrs, beta1=0.9, beta2=0.999, eps=1e-12):
        """The textbook out-of-place update, one new array per operation."""
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        params = params.copy()
        for t, (grad, lr) in enumerate(zip(grads, lrs), start=1):
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            params -= lr * m_hat / (np.sqrt(v_hat) + eps)
        return params, m, v

    def test_in_place_step_bit_equal_to_reference(self):
        rng = np.random.default_rng(3)
        n, steps = 257, 8
        start = rng.normal(size=n)
        # gradients from tiny (boosting weights of 1/n) to large
        grads = [rng.normal(size=n) * 10.0 ** rng.integers(-9, 3) for _ in range(steps)]
        lrs = [3e-3 * min(1.0, (i + 1) / 3) for i in range(steps)]
        params = start.copy()
        opt = enc.Adam(n, lr=lrs[0])
        for grad, lr in zip(grads, lrs):
            opt.lr = lr
            opt.step(params, grad)
        want, m, v = self.reference_steps(start, grads, lrs)
        assert params.tobytes() == want.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()

    def test_moments_updated_in_place(self):
        opt = enc.Adam(5, lr=1e-3)
        m, v, params = opt.m, opt.v, np.ones(5)
        grad = np.arange(5.0)
        opt.step(params, grad)
        opt.step(params, grad)
        assert opt.m is m and opt.v is v
        assert np.array_equal(grad, np.arange(5.0))


class TestFitLoop:
    @staticmethod
    def pull_to(params, target):
        """Loss and gradient of |params - target|^2, whatever the rows."""
        def loss_and_grad(idx, step, grad):
            d = params - target
            grad += 2.0 * d
            return float(d @ d), grad
        return loss_and_grad

    def run(self, params, loss_and_grad, **kw):
        kw.setdefault("lr", 0.1)
        return enc.fit_loop(params, 10, 4, np.random.default_rng(0), loss_and_grad, **kw)

    def test_step_cap_mid_pass_still_scores_that_pass(self):
        params = np.zeros(3)
        passes = []

        def after_pass(step):
            passes.append(step)
            return {"step": step, "dev_acc": float(step)}

        log = self.run(params, self.pull_to(params, np.ones(3)), steps=5, after_pass=after_pass)
        # 10 rows in batches of 4 make 3 updates a pass; the cap cuts pass 2
        assert passes == [3, 5]
        assert [r["step"] for r in log] == [1, 2, 3, 3, 4, 5, 5]
        assert [r for r in log if "dev_acc" in r] == [{"step": 3, "dev_acc": 3.0},
                                                      {"step": 5, "dev_acc": 5.0}]

    def test_patience_stops_after_passes_without_a_new_best(self):
        params = np.zeros(3)
        scores = iter([1.0, 2.0, 2.0, 1.5, 9.0, 9.0])
        log = self.run(params, self.pull_to(params, np.ones(3)), epochs=6, patience=1,
                       after_pass=lambda step: {"dev_acc": next(scores)})
        # the tie and the drop after 2.0 are two passes without a new best
        assert [r["dev_acc"] for r in log if "dev_acc" in r] == [1.0, 2.0, 2.0, 1.5]
        assert sum(1 for r in log if "loss" in r) == 4 * 3

    def test_best_scoring_pass_restored(self):
        params = np.zeros(3)
        after = []

        def after_pass(step):
            after.append(params.copy())
            return {"dev_acc": [1.0, 3.0, 2.0][len(after) - 1]}

        self.run(params, self.pull_to(params, np.ones(3)), epochs=3, after_pass=after_pass)
        assert not np.array_equal(after[1], after[2])
        assert np.array_equal(params, after[1])

    def test_non_finite_gradient_stops_with_last_finite_params(self):
        params = np.zeros(3)
        inner = self.pull_to(params, np.ones(3))
        kept = []

        def loss_and_grad(idx, step, grad):
            loss, grad = inner(idx, step, grad)
            kept.append(params.copy())
            if step == 4:
                grad[1] = np.nan
            return loss, grad

        log = self.run(params, loss_and_grad, epochs=3)
        assert log[-1] == {"step": 4, "loss": None, "lr": 0.1, "event": "diverged"}
        assert len(log) == 5
        assert np.array_equal(params, kept[-1])

    def test_divergence_falls_back_to_the_best_pass(self):
        params = np.zeros(3)
        inner = self.pull_to(params, np.ones(3))
        after = []

        def loss_and_grad(idx, step, grad):
            if step == 4:
                raise enc.DivergenceError("test")
            return inner(idx, step, grad)

        def after_pass(step):
            after.append(params.copy())
            return {"dev_acc": 1.0}

        log = self.run(params, loss_and_grad, epochs=3, after_pass=after_pass)
        assert log[-1]["event"] == "diverged" and len(after) == 1
        assert np.array_equal(params, after[0])

    def test_warmup_ramps_the_rate(self):
        params = np.zeros(3)
        log = self.run(params, self.pull_to(params, np.ones(3)), lr=1.0, warmup=0.5, steps=6)
        assert [r["lr"] for r in log] == [1 / 3, 2 / 3, 1.0, 1.0, 1.0, 1.0]

    def test_exactly_one_cap(self):
        params = np.zeros(3)
        with pytest.raises(ValueError, match="exactly one"):
            self.run(params, self.pull_to(params, np.ones(3)), epochs=1, steps=1)
        with pytest.raises(ValueError, match="exactly one"):
            self.run(params, self.pull_to(params, np.ones(3)))


class TestStepLog:
    """``fit_loop``'s log holds its updates in columns and yields the records
    a list of dicts would hold."""

    @staticmethod
    def fit_with_every_kind_of_record():
        """A fit with distillation's ``lambda``, an ``after_pass`` record after
        each pass and a divergence at step 7: (its log, the records a list
        of dicts would hold, made as the fit runs)."""
        params, want = np.zeros(3), []
        lr, warmup_steps = 0.1, 3  # warmup 1/3 of 9 updates

        def loss_and_grad(idx, step, grad):
            grad += 2.0 * (params - 1.0)
            loss = np.inf if step == 7 else float(step) / 3 + 0.25
            fields = {"lambda": step / 9}
            rate = lr * min(1.0, (step + 1) / warmup_steps)
            if step == 7:
                want.append({"step": 7, "loss": None, "lr": rate, **fields, "event": "diverged"})
            else:
                want.append({"step": step + 1, "loss": loss, "lr": rate, **fields})
            return loss, grad, fields

        def after_pass(step):
            want.append({"step": step, "dev_acc": float(step)})
            return dict(want[-1])

        log = enc.fit_loop(params, 10, 4, np.random.default_rng(0), loss_and_grad, lr=lr,
                           warmup=1 / 3, epochs=3, after_pass=after_pass)
        return log, want

    def test_yields_indexes_and_equals_the_records_of_the_fit(self):
        log, want = self.fit_with_every_kind_of_record()
        # 3 updates a pass: passes 1 and 2 scored, pass 3 diverges at its second update
        assert [i for i, r in enumerate(want) if "dev_acc" in r] == [3, 7]
        assert len(want) == 10 and want[-1]["event"] == "diverged"
        assert list(log) == want and log == want and want == log and log != want[:-1]
        assert len(log) == len(want) and bool(log) and not enc.StepLog()
        assert [log[i] for i in range(len(log))] == want
        assert [log[i] for i in range(-len(log), 0)] == want and log[2:5] == want[2:5]
        with pytest.raises(IndexError):
            log[len(want)]
        assert log.other_records() == [r for r in want if "lr" not in r or "event" in r]
        assert "".join(json.dumps(r, sort_keys=True) for r in log) == \
            "".join(json.dumps(r, sort_keys=True) for r in want)

    def test_tags_join_and_read_back(self):
        log, want = self.fit_with_every_kind_of_record()
        rounds = enc.StepLog.join([log.tagged(round=0), enc.StepLog().tagged(round=1),
                                   log.tagged(round=2)])
        records = [{**r, "round": m} for m in (0, 2) for r in want]
        assert rounds == records and len(rounds) == 2 * len(want)
        assert rounds[len(want)] == records[len(want)]
        assert enc.StepLog.read(records, ("round",)) == records
        with pytest.raises(ValueError, match="update 1 at position 8"):  # untagged, one fit
            enc.StepLog.read(records)
        assert enc.StepLog.read(want) == want == log.tagged()

    @pytest.mark.parametrize("bad", [
        pytest.param({"step": 3, "loss": 0.5, "lr": 0.1, "lambda": 0.0}, id="a-skipped-step"),
        pytest.param({"step": 2, "loss": 0.5, "lr": 0.1, "beta": 0.0}, id="other-fields"),
        pytest.param({"step": 2, "loss": "x", "lr": 0.1, "lambda": 0.0}, id="a-loss-of-text"),
    ])
    def test_read_rejects_updates_no_fit_makes(self, bad):
        with pytest.raises(ValueError):
            enc.StepLog.read([{"step": 1, "loss": 0.5, "lr": 0.1, "lambda": 0.0}, bad])

    def test_a_long_fit_keeps_three_float_columns(self):
        """6,750 updates, the boost-softreg run's count: a dict per update
        would keep 1.6 MB."""
        params = np.zeros(3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = enc.fit_loop(params, 10, 4, np.random.default_rng(0),
                               lambda idx, step, grad: (0.5, grad, {"lambda": 0.25}),
                               lr=1e-3, steps=6750)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log) == 6750 and log[-1] == {"step": 6750, "loss": 0.5, "lr": 1e-3,
                                                "lambda": 0.25}
        assert kept < 0.25 * 2**20


class TestGradientBuffer:
    """fit_loop reuses one zeroed gradient vector and updates only the ranges
    the loss reaches; parameters stay bit-equal to a loop that allocates a
    fresh gradient every step and updates every entry."""

    @staticmethod
    def reference_fit(params, n, batch_size, rng, fresh_grad, lr, warmup, total):
        opt = enc.Adam(params.size, lr=lr)
        warmup_steps = max(1, int(round(warmup * total)))
        step = 0
        while step < total:
            order = rng.permutation(n)
            for start in range(0, n, batch_size)[: total - step]:
                opt.lr = lr * min(1.0, (step + 1) / warmup_steps)
                opt.step(params, fresh_grad(order[start : start + batch_size]))
                step += 1

    @staticmethod
    def spy_on_adam(monkeypatch):
        seen = []
        real = enc.Adam.step

        def step(self, params, grad):
            seen.append(grad)
            return real(self, params, grad)

        monkeypatch.setattr(enc.Adam, "step", step)
        return seen

    def test_train(self, tiny_config, dataset, monkeypatch):
        seen = self.spy_on_adam(monkeypatch)
        weights = np.random.default_rng(3).uniform(0.5, 2.0, size=dataset.n) / dataset.n
        cfg = enc.TrainConfig(lr=3e-3, batch_size=16, epochs=2)
        snap, _ = enc.train(enc.TransformerModel(tiny_config, seed=1), dataset, cfg, seed=5,
                            weights=weights)
        assert len(seen) == 12 and all(g is seen[0] for g in seen)
        monkeypatch.undo()

        ref, rng, packed = enc.TransformerModel(tiny_config, seed=1), np.random.default_rng(5), \
            dataset.packed

        def fresh_grad(idx):
            batch = packed.take(idx)
            return ref.clf_loss_and_grad(batch, batch.labels, weights[idx], train_mode=True,
                                         rng=rng)[2]

        self.reference_fit(ref.params, dataset.n, 16, rng, fresh_grad, 3e-3, 0.1, 12)
        assert snap.params.tobytes() == ref.params.tobytes()

    def test_pretrain_mlm(self, tiny_config, monkeypatch):
        corpus = [list(np.random.default_rng(i).integers(5, 20, size=8)) for i in range(40)]
        seen = self.spy_on_adam(monkeypatch)
        snap, _ = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                   tiny_config, steps=7, seed=4, lr=3e-3, batch_size=8)
        assert len(seen) == 7 and all(g is seen[0] for g in seen)
        monkeypatch.undo()

        rng = np.random.default_rng(4)
        ref = enc.TransformerModel(tiny_config, seed=rng)
        tokens, lengths = pack_corpus(corpus, tiny_config.max_seq_len)

        def fresh_grad(idx):
            ids, lens, rows, cols, targets = _mask_batch(tokens, lengths, idx, rng)
            return ref.mlm_loss_and_grad(ids, lens, rows, cols, targets, train_mode=True,
                                         rng=rng)[1]

        self.reference_fit(ref.params, lengths.size, 8, rng, fresh_grad, 3e-3, 0.1, 7)
        assert snap.params.tobytes() == ref.params.tobytes()


def test_fit_loop_keeps_freed_heap(monkeypatch):
    """Every fit, also one a library caller starts, keeps the heap setting."""
    calls = []
    monkeypatch.setattr(training, "_keep_freed_heap", lambda: calls.append(1))
    params = np.zeros(3)
    enc.fit_loop(params, 4, 2, np.random.default_rng(0),
                 lambda idx, step, grad: (0.0, grad), lr=1e-3, steps=1)
    enc.fit_loop(params, 4, 2, np.random.default_rng(0),
                 lambda idx, step, grad: (0.0, grad), lr=1e-3, epochs=1)
    assert calls == [1, 1]


class TestMaskBatch:
    @staticmethod
    def reference_sequences(corpus, max_seq_len):
        cap = max_seq_len - 2
        return [np.concatenate(([CLS_ID], np.asarray(s, dtype=np.int64)[:cap], [SEP_ID]))
                for s in corpus if len(s) >= 2]

    @staticmethod
    def reference_mask_batch(seqs, rng):
        """The loop over every masked position that ``_mask_batch`` replaces."""
        lmax = max(s.size for s in seqs)
        ids = np.zeros((len(seqs), lmax), dtype=np.int64)
        lengths = np.zeros(len(seqs), dtype=np.int64)
        rows, cols, targets = [], [], []
        for i, s in enumerate(seqs):
            ids[i, : s.size] = s
            lengths[i] = s.size
            content = s.size - 2
            n_mask = max(1, int(round(MLM_MASK_FRACTION * content)))
            pos = rng.choice(content, size=n_mask, replace=False) + 1
            for p in pos:
                rows.append(i)
                cols.append(int(p))
                targets.append(int(s[p]))
                ids[i, p] = MASK_ID
        return ids, lengths, np.array(rows), np.array(cols), np.array(targets)

    def test_equals_the_position_loop_and_draws_the_same_stream(self):
        rng = np.random.default_rng(0)
        # 0 to 30 tokens (under 2 skipped, over 22 cut): 1 to 3 masks a row,
        # the floor of one mask below 4 content tokens included
        corpus = [list(rng.integers(5, 50, size=n)) for n in rng.integers(0, 31, size=200)]
        tokens, lengths = pack_corpus(corpus, 24)
        seqs = self.reference_sequences(corpus, 24)
        assert [t[:n].tolist() for t, n in zip(tokens, lengths)] == [s.tolist() for s in seqs]
        assert not tokens[np.arange(tokens.shape[1]) >= lengths[:, None]].any()
        order = np.random.default_rng(1).permutation(lengths.size)
        got_rng, want_rng = np.random.default_rng(2), np.random.default_rng(2)
        for start in range(0, order.size, 32):
            idx = order[start : start + 32]
            got = _mask_batch(tokens, lengths, idx, got_rng)
            want = self.reference_mask_batch([seqs[i] for i in idx], want_rng)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        assert got_rng.random() == want_rng.random()

    def test_corpus_rows_are_left_unmasked(self):
        tokens, lengths = pack_corpus([[5, 6, 7, 8], [9, 10]], 12)
        before = tokens.copy()
        ids = _mask_batch(tokens, lengths, np.array([1, 0, 1]), np.random.default_rng(0))[0]
        assert (ids == MASK_ID).any() and tokens.tobytes() == before.tobytes()


class TestTrain:
    def test_deterministic_bit_identical(self, tiny_config, dataset):
        def run():
            model = enc.TransformerModel(tiny_config, seed=1)
            snap, _ = enc.train(model, dataset, enc.TrainConfig(epochs=2), seed=5)
            return snap
        a, b = run(), run()
        assert np.array_equal(a.params, b.params)

    def test_zero_epochs_leaves_params_unchanged(self, tiny_config, dataset):
        model = enc.TransformerModel(tiny_config, seed=1)
        before = model.params.copy()
        snap, log = enc.train(model, dataset, enc.TrainConfig(epochs=0), seed=5)
        assert np.array_equal(snap.params, before)
        assert snap.role == "finetuned"
        assert log == []

    def test_log_has_one_record_per_step(self, tiny_config, dataset):
        model = enc.TransformerModel(tiny_config, seed=1)
        cfg = enc.TrainConfig(epochs=2, batch_size=32)
        _, log = enc.train(model, dataset, cfg, seed=5)
        assert len(log) == 2 * 3  # 96/32 = 3 batches per epoch
        assert all({"step", "loss", "lr"} <= set(rec) for rec in log)

    def test_divergence_aborts_with_last_finite(self, tiny_config, dataset):
        # layer norms absorb almost any blowup, so it takes an lr near the
        # float64 ceiling to push attention scores past inf
        model = enc.TransformerModel(tiny_config, seed=1)
        snap, log = enc.train(model, dataset, enc.TrainConfig(lr=1e154, epochs=3), seed=5)
        assert any(rec.get("event") == "diverged" for rec in log)
        assert np.isfinite(snap.params).all()

    def test_loss_decreases_on_separable_data(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(3), n=160)
        model = enc.TransformerModel(tiny_config, seed=2)
        _, log = enc.train(model, dataset, enc.TrainConfig(lr=3e-3, epochs=12), seed=9)
        losses = np.array([rec["loss"] for rec in log])
        smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
        # smoothed curve drops substantially and ends near its minimum
        assert smoothed[-1] < 0.5 * smoothed[0]
        assert smoothed[-1] < smoothed.min() * 3

    def test_upweighted_class_recall_improves(self, tiny_config):
        # 1 short epoch underfits, so class-0 recall has headroom to gain
        rng = np.random.default_rng(4)
        dataset = make_token_dataset(rng, n=240)

        def recall0(weights):
            model = enc.TransformerModel(tiny_config, seed=6)
            snap, _ = enc.train(
                model, dataset, enc.TrainConfig(epochs=1), seed=11, weights=weights
            )
            m = enc.model_from_snapshot(snap)
            preds = m.predict_proba(dataset.packed).argmax(axis=1)
            mask = dataset.labels == 0
            return (preds[mask] == 0).mean()

        base = np.ones(dataset.n)
        boosted = np.where(dataset.labels == 0, 10.0, 1.0)
        assert recall0(boosted) >= recall0(base)


class TestPretrainMLM:
    def _bigram_corpus(self, rng, n=400):
        # deterministic bigram pairs: 6->7, 8->9, 10->11
        starts = (6, 8, 10)
        out = []
        for _ in range(n):
            seq = []
            for _ in range(4):
                a = starts[int(rng.integers(3))]
                seq += [a, a + 1]
            out.append(seq)
        return out

    def test_zero_steps_equals_random_init(self, tiny_config):
        corpus = [[5, 6, 7], [8, 9]]
        snap, log = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                     tiny_config, steps=0, seed=3)
        rng = np.random.default_rng(3)
        want = enc.TransformerModel(tiny_config, seed=rng).params
        assert np.array_equal(snap.params, want)
        assert snap.role == "pretrained"
        assert log == []

    def test_same_seed_bit_identical(self, tiny_config):
        corpus = self._bigram_corpus(np.random.default_rng(0))
        a, _ = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                tiny_config, steps=10, seed=3)
        b, _ = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                tiny_config, steps=10, seed=3)
        assert np.array_equal(a.params, b.params)

    def test_short_sequences_skipped(self, tiny_config):
        corpus = [[5], [6, 7, 8, 9, 10, 11]]
        snap, log = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                     tiny_config, steps=3, seed=1)
        assert len(log) == 3

    def test_divergence_logged_with_finite_params(self, tiny_config, monkeypatch):
        real = enc.TransformerModel.mlm_loss_and_grad
        calls = []

        def diverge_on_third(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise enc.DivergenceError("test")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(enc.TransformerModel, "mlm_loss_and_grad", diverge_on_third)
        corpus = self._bigram_corpus(np.random.default_rng(0), n=40)
        snap, log = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                     tiny_config, steps=5, seed=1, batch_size=8)
        assert len(log) == 3
        assert log[-1]["event"] == "diverged" and log[-1]["step"] == 2
        assert log[-1]["loss"] is None
        assert np.isfinite(snap.params).all()

    def test_all_short_raises(self, tiny_config):
        with pytest.raises(ValueError, match="length >= 2"):
            enc.pretrain_mlm(*pack_corpus([[5], [9]], tiny_config.max_seq_len),
                             tiny_config, steps=3, seed=1)

    def test_out_of_vocab_corpus_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="vocabulary"):
            enc.pretrain_mlm(*pack_corpus([[5, 99]], tiny_config.max_seq_len),
                             tiny_config, steps=1, seed=1)

    def test_bigram_structure_beats_chance(self, tiny_config):
        corpus = self._bigram_corpus(np.random.default_rng(1))
        snap, _ = enc.pretrain_mlm(*pack_corpus(corpus, tiny_config.max_seq_len),
                                   tiny_config, steps=250, seed=4)
        acc = mlm_masked_accuracy(snap, corpus[:150], seed=9)
        chance = 1.0 / tiny_config.vocab_size
        assert acc > 5 * chance


class TestInitStrategies:
    """``fresh_start``, and where ``NeuralBoostLearner`` starts each round's
    fine-tune under each strategy (privacy mode)."""

    FAST = enc.TrainConfig(lr=3e-3, epochs=8)

    @staticmethod
    def trunk(config):
        return enc.pretrain_mlm(*pack_corpus([[5, 6, 7, 8]] * 4, config.max_seq_len),
                                config, steps=2, seed=1)[0]

    def boost_starts(self, monkeypatch, config, strategy, trunk=None):
        starts, ends = record_fine_tunes(monkeypatch)
        learner = boosting.NeuralBoostLearner(config, self.FAST, strategy, pretrained=trunk)
        boosting.boost_train(make_token_dataset(np.random.default_rng(1), n=96), learner, 3,
                             seed=2)
        assert len(starts) == len(ends) >= 2
        return starts, ends

    def test_random_xavier_bound_and_reproducible(self, tiny_config):
        a = enc.fresh_start(tiny_config, 12)
        assert np.array_equal(a.params, enc.fresh_start(tiny_config, 12).params)
        assert np.array_equal(a.params, enc.new_model(tiny_config, seed=12).params)
        assert a.role == "random"
        for name, shape in a.layout.entries:
            values = view(a, name)
            if len(shape) == 2:
                lim = enc.xavier_limit(shape[0], shape[1])
                assert np.abs(values).max() <= lim
                assert np.abs(values).max() > 0.5 * lim  # actually spread out
            elif name.endswith(".b") and not name.endswith("ln.b"):
                assert np.array_equal(values, np.zeros_like(values))

    def test_random_and_pretrained_draw_every_round_afresh(self, tiny_config, monkeypatch):
        mlm = self.trunk(tiny_config)
        for strategy, trunk in (("random", None), ("pretrained", mlm)):
            # a random learner ignores the trunk it is given
            starts, _ = self.boost_starts(monkeypatch, tiny_config, strategy, mlm)
            for m, start in enumerate(starts, 1):
                assert np.array_equal(start, enc.fresh_start(tiny_config, [2, m, 1], trunk).params)

    def test_pretrained_copies_trunk_fresh_head(self, tiny_config):
        mlm = self.trunk(tiny_config)
        out = enc.fresh_start(tiny_config, [2, 1, 5], mlm)
        for name, _ in out.layout.entries:
            if name not in ("cls.w", "cls.b"):
                assert np.array_equal(view(out, name), view(mlm, name)), name
        w = view(mlm, "cls.w")
        lim = enc.xavier_limit(w.shape[0], w.shape[1])
        drawn = np.random.default_rng([2, 1, 5]).uniform(-lim, lim, size=w.shape)
        assert np.array_equal(view(out, "cls.w"), drawn)
        assert not np.array_equal(view(out, "cls.w"), w)
        assert np.array_equal(view(out, "cls.b"), np.zeros(tiny_config.K))
        assert out.role == "pretrained"

    def test_pretrained_requires_checkpoint(self, tiny_config):
        for strategy in ("pretrained", "incremental"):
            with pytest.raises(ValueError, match="pretrained trunk"):
                boosting.NeuralBoostLearner(tiny_config, self.FAST, strategy)

    def test_unknown_strategy_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="init_strategy"):
            boosting.NeuralBoostLearner(tiny_config, self.FAST, "bogus")

    def test_incremental_falls_back_to_pretrained_at_round_one(self, tiny_config, monkeypatch):
        mlm = self.trunk(tiny_config)
        starts, _ = self.boost_starts(monkeypatch, tiny_config, "incremental", mlm)
        assert np.array_equal(starts[0], enc.fresh_start(tiny_config, [2, 1, 1], mlm).params)

    def test_incremental_copies_previous_round(self, tiny_config, monkeypatch):
        mlm = self.trunk(tiny_config)
        starts, ends = self.boost_starts(monkeypatch, tiny_config, "incremental", mlm)
        for m in range(2, len(starts) + 1):
            assert np.array_equal(starts[m - 1], ends[m - 2].params), m

    def test_finetuning_copies_source(self, tiny_config, monkeypatch):
        mlm = self.trunk(tiny_config)
        for trunk in (None, mlm):
            starts, ends = self.boost_starts(monkeypatch, tiny_config, "finetuning", trunk)
            # the first fine-tune is the unweighted source, made before round 1
            assert np.array_equal(starts[0], enc.fresh_start(tiny_config, [2, 0, 2], trunk).params)
            for start in starts[1:]:
                assert np.array_equal(start, ends[0].params)

    def test_config_mismatch_rejected(self, tiny_config):
        other = enc.EncoderConfig(
            vocab_size=20, K=3, d_model=16, n_layers=2, n_heads=2, d_ffn=16, max_seq_len=12,
            dropout_rate=0.1)
        mlm = self.trunk(other)
        with pytest.raises(ValueError, match="config"):
            enc.fresh_start(tiny_config, 2, mlm)
