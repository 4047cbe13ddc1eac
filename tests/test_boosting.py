import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from textboost import baselines, boosting
from textboost import encoder as enc
from textboost.artifacts import ArtifactError
from textboost.textdata import pack_corpus

from conftest import dataset_of_rows, make_token_dataset, record_fine_tunes


class TestInitWeightsUniform:
    def test_quarter_weights(self):
        assert boosting.init_weights_uniform(4).tolist() == [0.25] * 4

    def test_single(self):
        assert boosting.init_weights_uniform(1).tolist() == [1.0]

    @given(st.integers(min_value=1, max_value=2000))
    def test_sums_to_one(self, n):
        assert np.isclose(boosting.init_weights_uniform(n).sum(), 1.0, rtol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            boosting.init_weights_uniform(0)


class TestWeightedError:
    def test_all_correct(self):
        p = np.array([0, 1, 2])
        assert boosting.weighted_error(p, p, np.ones(3) / 3) == 0.0

    def test_uniform_half_wrong(self):
        preds = np.array([0, 0, 1, 1])
        labels = np.array([0, 0, 0, 0])
        assert boosting.weighted_error(preds, labels, np.full(4, 0.25)) == 0.5

    def test_weighted_ratio(self):
        preds = np.array([0, 1])
        labels = np.array([0, 0])
        assert np.isclose(boosting.weighted_error(preds, labels, np.array([0.1, 0.9])), 0.9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            boosting.weighted_error(np.array([0]), np.array([0, 1]), np.array([1.0, 1.0]))


class TestComputeAlpha:
    def test_chance_level_is_zero(self):
        for K in (2, 3, 5, 10, 31):
            assert abs(boosting.compute_alpha((K - 1) / K, K)) < 1e-12

    def test_hand_values(self):
        assert np.isclose(boosting.compute_alpha(0.25, 2), math.log(3), rtol=1e-12)
        assert np.isclose(
            boosting.compute_alpha(0.1, 3), math.log(9) + math.log(2), rtol=1e-12
        )

    def test_clamps_and_warns_at_zero(self):
        with pytest.warns(RuntimeWarning, match="clamped"):
            a = boosting.compute_alpha(0.0, 2)
        assert np.isclose(a, math.log((1 - 1e-6) / 1e-6), rtol=1e-9)

    @given(st.integers(min_value=2, max_value=31))
    @settings(max_examples=30)
    def test_chance_identity_property(self, K):
        assert abs(boosting.compute_alpha((K - 1) / K, K)) < 1e-12

    @given(
        st.integers(min_value=2, max_value=10),
        st.floats(min_value=1e-5, max_value=1 - 2e-5),
        st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=60)
    def test_strictly_decreasing_in_err(self, K, err, delta):
        hi = min(err + delta, 1 - 1e-5)
        if hi <= err:
            return
        assert boosting.compute_alpha(err, K) > boosting.compute_alpha(hi, K)


class TestUpdateWeights:
    def test_all_correct_unchanged(self):
        w = np.array([0.2, 0.3, 0.5])
        p = np.array([0, 1, 2])
        out = boosting.update_weights(w, p, p, alpha=1.3)
        assert np.array_equal(out, w)

    def test_hand_example(self):
        w = np.full(4, 0.25)
        preds = np.array([0, 0, 1, 0])
        labels = np.array([0, 0, 0, 0])
        out = boosting.update_weights(w, preds, labels, alpha=math.log(2))
        assert np.allclose(out, [0.25, 0.25, 0.5, 0.25], rtol=1e-12)

    def test_zero_alpha_noop(self):
        w = np.array([0.5, 0.5])
        out = boosting.update_weights(w, np.array([1, 0]), np.array([0, 0]), alpha=0.0)
        assert np.array_equal(out, w)

    def test_overflow_raises(self):
        w = np.full(2, 1e300)
        with pytest.raises(boosting.BoostingError, match="overflow"):
            boosting.update_weights(w, np.array([1, 0]), np.array([0, 0]), alpha=50.0)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=10), min_size=2, max_size=40),
        st.floats(min_value=1e-3, max_value=5.0),
        st.integers(min_value=0),
    )
    @settings(max_examples=60)
    def test_update_laws(self, ws, alpha, seed):
        w = np.array(ws)
        rng = np.random.default_rng(seed)
        labels = np.zeros(w.size, dtype=np.int64)
        preds = rng.integers(0, 2, size=w.size)
        preds[0] = 1  # at least one wrong and one right: a real split
        preds[-1] = 0
        out = boosting.update_weights(w, preds, labels, alpha)
        wrong = preds != labels
        # total-mass law
        want = np.sum(w[~wrong]) + np.exp(alpha) * np.sum(w[wrong])
        assert np.isclose(out.sum(), want, rtol=1e-12)
        # misclassified mass fraction strictly increases for alpha > 0
        before = np.sum(w[wrong]) / np.sum(w)
        after = np.sum(out[wrong]) / np.sum(out)
        assert after > before


class TestBoostTrainWithStumps:
    def test_trajectory_matches_oracle(self):
        checks = baselines.oracle_trajectories(5)
        assert [c.dataset.features.shape for c in checks] == [
            (n, d) for n, d, _ in baselines.ORACLE_SETS]
        for check in checks:
            assert len(check.engine) == len(check.oracle) == 5
            assert check.deviation <= baselines.ORACLE_TOL

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_trajectory_matches_oracle_bit_for_bit_on_random_data(self, data):
        labels = data.draw(st.sampled_from(["random", "separable", "tied"]))
        if labels == "tied":
            # one binary feature whose values hold (pr, ps) and (qs, qr) rows
            # of classes 0 and 1: after round 1 both leaves tie, so round 2
            # sits at chance and is discarded (round 1 already when r = s)
            p, q, r, s = (data.draw(st.integers(1, 3)) for _ in range(4))
            counts = [p * r, p * s, q * s, q * r]
            K = 2
            x = np.repeat([[0.0], [0.0], [1.0], [1.0]], counts, axis=0)
            y = np.repeat([0, 1, 0, 1], counts)
        else:
            # few levels tie feature values and candidate stumps, two make
            # binary features; labels set by a threshold drive err to 0, the clamp
            K = data.draw(st.integers(2, 5))
            n, d = data.draw(st.integers(4, 39)), data.draw(st.integers(1, 3))
            levels = data.draw(st.sampled_from([2, 3, 5, 40]))
            x = data.draw(hnp.arrays(np.float64, (n, d), elements=st.integers(0, levels - 1)))
            assume((x.min(axis=0) < x.max(axis=0)).any())
            if labels == "separable":
                y = (x[:, 0] > data.draw(st.integers(0, levels - 1))).astype(np.int64)
            else:
                y = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, K - 1)))
        rounds = data.draw(st.integers(1, 6))
        ds = baselines.ArrayDataset(features=x, labels=y, K=K)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # both sides warn at the clamp
            oracle = baselines.samme_oracle(x, y, rounds, K)
            if not oracle:
                with pytest.raises(boosting.BoostingError):
                    boosting.boost_train(ds, baselines.StumpBoostLearner(), rounds, seed=0)
                return
            ens, log = boosting.boost_train(ds, baselines.StumpBoostLearner(), rounds, seed=0,
                                            record_weights=True)
        # the loop keeps the oracle's rounds and stops where it does
        discarded = log[-1].get("event") == "discarded"
        assert ens.m_effective == len(oracle) == len(log) - discarded
        assert discarded or len(oracle) == rounds
        for e, o in zip(log, oracle):
            assert (e["m"], e["err"], e["alpha"]) == (o.m, o.err, o.alpha)
            assert np.array_equal(e["weights_after"], o.weights_after)

    def test_single_round_is_the_base_classifier(self):
        ds = baselines.oracle_dataset(80, 2, 2)
        ens, _ = boosting.boost_train(ds, baselines.StumpBoostLearner(), 1, seed=0)
        assert ens.m_effective == 1
        preds, _ = boosting.vote_predict(ens, ds)
        base = ens.rounds[0].model.predict_proba(ds).argmax(axis=1)
        assert np.array_equal(preds, base)

    def test_ensemble_training_error_drops(self):
        ds = baselines.oracle_dataset(150, 3, 3)
        y = ds.labels
        ens, log = boosting.boost_train(ds, baselines.StumpBoostLearner(), 5, seed=0)
        preds, _ = boosting.vote_predict(ens, ds)
        ensemble_err = (preds != y).mean()
        round1_err = (ens.rounds[0].model.predict_proba(ds).argmax(axis=1) != y).mean()
        assert ensemble_err < round1_err

    def test_no_learner_beats_chance_raises(self):
        # both branches of the only split tie -> every stump errs exactly 0.5
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 1, 0, 1], dtype=np.int64)
        ds = baselines.ArrayDataset(features=x, labels=y, K=2)
        with pytest.raises(boosting.BoostingError, match="chance"):
            boosting.boost_train(ds, baselines.StumpBoostLearner(), 3, seed=0)


    def test_round_at_chance_up_to_rounding_is_discarded(self):
        # round 1 errs on 9 of 15 rows; its update leaves exactly (K-1)/K of
        # the weight on them, so round 2's alpha is positive only by rounding
        class Fixed:
            kind = "fixed"
            sharing_mode = "privacy"

            def fit_round(self, m, dataset, weights, seed):
                return self

            def predict_proba(self, dataset):
                probs = np.zeros((15, 3))
                probs[:9, 1] = 1.0
                probs[9:, 0] = 1.0
                return probs

        ds = baselines.ArrayDataset(features=np.zeros((15, 1)),
                                    labels=np.zeros(15, dtype=np.int64), K=3)
        ens, log = boosting.boost_train(ds, Fixed(), 3, seed=0)
        assert ens.m_effective == 1
        assert len(log) == 2 and log[-1]["event"] == "discarded"
        assert 0.0 < log[-1]["alpha"] <= boosting.ALPHA_TOL


class TestVotePredict:
    def _two_round_ensemble(self, p1, p2, a1, a2, K=2):
        class Fixed:
            def __init__(self, probs):
                self.probs = np.asarray(probs, dtype=np.float64)

            def predict_proba(self, dataset):
                return self.probs

        rounds = [
            boosting.BoostRound(index=1, model=Fixed(p1), alpha=a1, err=0.2),
            boosting.BoostRound(index=2, model=Fixed(p2), alpha=a2, err=0.3),
        ]
        return boosting.BoostEnsemble(K=K, learner_kind="stump", sharing_mode="privacy",
                                      rounds=rounds)

    def test_hand_example(self):
        ens = self._two_round_ensemble([[0.6, 0.4]], [[0.3, 0.7]], 1.0, 1.0)
        preds, scores = boosting.vote_predict(ens, dataset=None)
        assert np.allclose(scores, [[0.9, 1.1]], rtol=1e-12)
        assert preds.tolist() == [1]

    def test_alpha_scaling_invariance(self):
        ens1 = self._two_round_ensemble([[0.6, 0.4]], [[0.3, 0.7]], 0.5, 1.5)
        ens2 = self._two_round_ensemble([[0.6, 0.4]], [[0.3, 0.7]], 1.0, 3.0)
        p1, _ = boosting.vote_predict(ens1, None)
        p2, _ = boosting.vote_predict(ens2, None)
        assert np.array_equal(p1, p2)

    def test_discrete_vote(self):
        ens = self._two_round_ensemble([[0.6, 0.4]], [[0.3, 0.7]], 1.0, 2.0)
        preds, scores = boosting.vote_predict(ens, None, mode="discrete")
        assert np.allclose(scores, [[1.0, 2.0]])
        assert preds.tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        ens = self._two_round_ensemble([[0.5, 0.5]], [[0.5, 0.5]], 1.0, 1.0)
        preds, _ = boosting.vote_predict(ens, None)
        assert preds.tolist() == [0]


# quick-converging settings for the tiny unit-test models
FAST = enc.TrainConfig(lr=3e-3, epochs=8)


class TestNeuralBoosting:
    @pytest.fixture
    def setup(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(0), n=160)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random")
        return dataset, learner

    def test_m1_vote_equals_single_argmax(self, setup):
        dataset, learner = setup
        ens, _ = boosting.boost_train(dataset, learner, 1, seed=3)
        preds, _ = boosting.vote_predict(ens, dataset)
        model = enc.model_from_snapshot(learner.round1_snapshot)
        single = model.predict_proba(dataset.packed).argmax(axis=1)
        assert np.array_equal(preds, single)

    def test_deterministic(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(0), n=96)

        def run():
            learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random")
            ens, log = boosting.boost_train(dataset, learner, 2, seed=3)
            return boosting.ensemble_to_bytes(ens)

        assert run() == run()

    def test_softreg_boosting_reduces_training_error(self):
        # a dataset softmax regression cannot fit alone: class depends on a
        # token pair pattern that conflicts across regions of the space
        rng = np.random.default_rng(5)
        rows, labels = [], []
        for i in range(240):
            k = int(rng.integers(3))
            count = k + 1  # class encoded in the COUNT of token 9
            toks = [9] * count + list(rng.integers(10, 16, size=4))
            rng.shuffle(toks)
            rows.append([2] + toks + [3])
            labels.append(k)
        dataset = dataset_of_rows(rows, labels, K=3, label_names=("a", "b", "c"))
        cfg = enc.SoftregConfig(vocab_size=16, K=3)
        with pytest.raises(ValueError, match="transformer"):
            boosting.NeuralBoostLearner(cfg, FAST, "incremental")

        learner = boosting.NeuralBoostLearner(cfg, FAST, "random")
        ens, log = boosting.boost_train(dataset, learner, 5, seed=1)
        round1 = 100.0 - log[0]["train_acc"]
        preds, _ = boosting.vote_predict(ens, dataset)
        final = (preds != dataset.labels).mean() * 100
        assert final < round1

    def test_sharing_mode_round_payloads_are_heads(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(1), n=96)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random", sharing_mode="sharing")
        ens, _ = boosting.boost_train(dataset, learner, 3, seed=2)
        assert ens.sharing_mode == "sharing"
        assert ens.shared_trunk is not None
        head_size = tiny_config.d_model * tiny_config.K + tiny_config.K
        for r in ens.rounds:
            assert r.model.head.size == head_size
            assert r.model.trunk is ens.shared_trunk

    def test_sharing_rounds_start_from_the_last_round_with_a_fresh_head(self, tiny_config,
                                                                        monkeypatch):
        # round 1 starts from the strategy's pick, round m >= 2 from round
        # m-1, whatever the strategy; each start then gets a head of its own
        dataset = make_token_dataset(np.random.default_rng(1), n=96)
        mlm, _ = enc.pretrain_mlm(*pack_corpus([[5, 6, 7, 8]] * 4, tiny_config.max_seq_len),
                                  tiny_config, steps=2, seed=1)
        for strategy in boosting.INIT_STRATEGIES:
            starts, ends = record_fine_tunes(monkeypatch)
            learner = boosting.NeuralBoostLearner(tiny_config, FAST, strategy,
                                                  sharing_mode="sharing", pretrained=mlm)
            boosting.boost_train(dataset, learner, 3, seed=2)
            if strategy == "finetuning":  # the source, then round 1 from it
                pick = ends[0]
                starts, ends = starts[1:], ends[1:]
            else:
                trunk = None if strategy == "random" else mlm
                pick = enc.fresh_start(tiny_config, [2, 1, 1], trunk)
            assert len(starts) == 3, strategy
            for m in (1, 2, 3):
                if m > 1:
                    pick = ends[m - 2]
                assert np.array_equal(starts[m - 1],
                                      enc.fresh_start(tiny_config, [2, m, 5], pick).params)

    def test_finetuning_logs_its_source_fine_tune_as_round_0(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(1), n=96)
        mlm, _ = enc.pretrain_mlm(*pack_corpus([[5, 6, 7, 8]] * 4, tiny_config.max_seq_len),
                                  tiny_config, steps=2, seed=1)
        logs = {}
        for strategy in boosting.INIT_STRATEGIES:
            learner = boosting.NeuralBoostLearner(tiny_config, FAST, strategy, pretrained=mlm)
            boosting.boost_train(dataset, learner, 2, seed=2)
            logs[strategy] = learner.train_logs
            assert list(logs[strategy]) == ([0, 1, 2] if strategy == "finetuning" else [1, 2])
        # round 0 is the unweighted fine-tune that round 1 starts from
        source = enc.model_from_snapshot(enc.fresh_start(tiny_config, [2, 0, 2], mlm))
        _, expected = enc.train(source, dataset, FAST, [2, 0, 3])
        assert logs["finetuning"][0] == expected
        assert len(expected) == len(logs["finetuning"][1]) > 0

    def test_sharing_requires_transformer(self):
        cfg = enc.SoftregConfig(vocab_size=16, K=3)
        with pytest.raises(ValueError, match="sharing"):
            boosting.NeuralBoostLearner(cfg, enc.TrainConfig(), "random", sharing_mode="sharing")


class TestScoredOnce:
    """Rounds are scored once per dataset; the tensor matches the per-round path."""

    @staticmethod
    def per_round(ens, dataset):
        return np.stack([r.model.predict_proba(dataset) for r in ens.rounds], axis=1)

    @staticmethod
    def sharing_ensemble(config, M=3):
        rng = np.random.default_rng(11)
        trunk = enc.new_model(config, seed=[11, 0]).snapshot("random")
        rounds = [
            boosting.BoostRound(
                index=m + 1, alpha=1.0 + 0.5 * m, err=0.2,
                model=boosting.SharedHeadRoundModel(
                    head=rng.normal(size=config.d_model * config.K + config.K), trunk=trunk),
            )
            for m in range(M)
        ]
        return boosting.BoostEnsemble(K=config.K, learner_kind="transformer",
                                      sharing_mode="sharing", rounds=rounds)

    def test_sharing_trunk_pass_equals_per_round_models_across_chunks(self, tiny_config):
        # 300 rows: four full 64-row scoring chunks and a partial one
        dataset = make_token_dataset(np.random.default_rng(4), n=300)
        ens = self.sharing_ensemble(tiny_config)
        assert np.array_equal(ens.predict_proba_per_round(dataset), self.per_round(ens, dataset))

    def test_vote_and_fusion_equal_the_per_round_path(self, tiny_config):
        from textboost import fusion

        dataset = make_token_dataset(np.random.default_rng(5), n=300)
        ens = self.sharing_ensemble(tiny_config)
        old = self.per_round(ens, dataset)
        for mode in ("soft", "discrete"):
            preds, scores = boosting.vote_predict(ens, dataset, mode=mode)
            old_preds, old_scores = boosting.vote_predict(ens, mode=mode, probs=old)
            assert np.array_equal(preds, old_preds) and np.array_equal(scores, old_scores)
        head = fusion.FusionHead(fusion.head_dims(ens, fusion.FusionConfig()),
                                 ensemble_hash=ens.content_hash(), seed=0)
        preds, probs = fusion.fusion_predict(ens, head, dataset)
        assert np.array_equal(probs, head.probs(fusion.build_feature(ens, probs=old)))
        assert np.array_equal(preds, probs.argmax(axis=1))

    def test_heads_on_another_trunk_rejected(self, tiny_config):
        ens = self.sharing_ensemble(tiny_config)
        other = enc.new_model(tiny_config, seed=[12, 0]).snapshot("random")
        ens.rounds[0].model = boosting.SharedHeadRoundModel(head=ens.rounds[0].model.head,
                                                            trunk=other)
        with pytest.raises(ValueError, match="shared trunk"):
            ens.predict_proba_per_round(make_token_dataset(np.random.default_rng(6), n=8))

    @pytest.mark.parametrize("sharing_mode", ["privacy", "sharing"])
    def test_boost_train_hands_back_the_final_ensembles_rows(self, tiny_config, sharing_mode):
        rng = np.random.default_rng(7)
        train, dev = make_token_dataset(rng, n=96), make_token_dataset(rng, n=40)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random",
                                              sharing_mode=sharing_mode)
        ens, log = boosting.boost_train(train, learner, 3, seed=2, dev=dev)
        assert np.array_equal(ens.train_probs, self.per_round(ens, train))
        assert np.array_equal(ens.dev_probs, self.per_round(ens, dev))
        # round 1's dev accuracy is that of the round-1 model as trained
        single = enc.evaluate_accuracy(enc.model_from_snapshot(learner.round1_snapshot), dev)
        assert log[0]["dev_acc"] == single


class TestEnsembleSerialization:
    def test_padded_or_truncated_ensemble_rejected(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(2), n=48)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random")
        ens, _ = boosting.boost_train(dataset, learner, 2, seed=4)
        blob = boosting.ensemble_to_bytes(ens)
        for bad in (blob + b"junk", blob[:-8], blob[:10]):
            with pytest.raises(ArtifactError):
                boosting.ensemble_from_bytes(bad)

    def test_neural_roundtrip_predictions_identical(self, tiny_config, tmp_path):
        dataset = make_token_dataset(np.random.default_rng(2), n=96)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random")
        ens, _ = boosting.boost_train(dataset, learner, 2, seed=4)
        path = tmp_path / "e.bge"
        ens.save(path)
        assert path.read_bytes()[:4] == b"BGE1"
        back = boosting.BoostEnsemble.load(path)
        assert back.m_effective == ens.m_effective
        assert np.array_equal(back.alphas, ens.alphas)
        a, _ = boosting.vote_predict(ens, dataset)
        b, _ = boosting.vote_predict(back, dataset)
        assert np.array_equal(a, b)

    def test_sharing_roundtrip(self, tiny_config, tmp_path):
        dataset = make_token_dataset(np.random.default_rng(3), n=96)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random", sharing_mode="sharing")
        ens, _ = boosting.boost_train(dataset, learner, 2, seed=4)
        path = tmp_path / "e.bge"
        ens.save(path)
        back = boosting.BoostEnsemble.load(path)
        a, _ = boosting.vote_predict(ens, dataset)
        b, _ = boosting.vote_predict(back, dataset)
        assert np.array_equal(a, b)

    def test_a_replaced_copy_takes_its_own_key(self, tiny_config):
        """The key is kept, so a copy with other rounds must not carry it over."""
        dataset = make_token_dataset(np.random.default_rng(3), n=96)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random")
        ens, _ = boosting.boost_train(dataset, learner, 2, seed=4)
        key = ens.content_hash()
        copy = dataclasses.replace(ens, rounds=ens.rounds[:1])
        assert copy.content_hash() != key
        assert copy.content_hash() == hashlib.sha256(
            boosting.ensemble_to_bytes(copy)).hexdigest()
        assert ens.content_hash() == key

    @pytest.mark.parametrize("sharing_mode", ["privacy", "sharing"])
    def test_a_read_ensemble_keeps_no_view_of_the_bytes(self, tiny_config, sharing_mode):
        """The reader takes views of the blob; every parameter array of the
        ensemble it returns is its own copy, and the blob may be overwritten."""
        dataset = make_token_dataset(np.random.default_rng(3), n=96)
        learner = boosting.NeuralBoostLearner(tiny_config, FAST, "random",
                                              sharing_mode=sharing_mode)
        ens, _ = boosting.boost_train(dataset, learner, 2, seed=4)
        blob = bytearray(boosting.ensemble_to_bytes(ens))
        back = boosting.ensemble_from_bytes(blob)
        arrays = [s.params for s in back.snapshots]
        if sharing_mode == "sharing":
            arrays += [r.model.head for r in back.rounds]
        assert arrays and all(a.flags.owndata for a in arrays)
        want = boosting.ensemble_to_bytes(back)
        blob[:] = bytes(len(blob))
        assert boosting.ensemble_to_bytes(back) == want == boosting.ensemble_to_bytes(ens)
