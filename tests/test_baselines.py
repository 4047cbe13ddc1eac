import dataclasses
import itertools

import numpy as np
import pytest

from textboost import baselines, boosting
from textboost import encoder as enc

from conftest import make_token_dataset


class TestStumpSearch:
    def test_separable_data_perfect_stump(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        stump, err = baselines.fit_stump(x, y, np.full(4, 0.25), K=2)
        assert err == 0.0
        assert np.array_equal(stump.predict(x), y)

    def test_constant_features_rejected(self):
        x = np.ones((10, 3))
        y = np.arange(10) % 2
        with pytest.raises(ValueError, match="constant"):
            baselines.fit_stump(x, y, np.ones(10), K=2)

    def test_xor_like_best_err_quarter(self):
        # three of four corners separable; (0,1) is not
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 1])
        w = np.full(4, 0.25)
        stump, err = baselines.fit_stump(x, y, w, K=2)
        assert np.isclose(err, 0.25, rtol=1e-12)
        # brute-force every split of every feature to confirm the optimum
        best = np.inf
        for j in range(2):
            for t in (0.5,):
                for le, gt in itertools.product(range(2), repeat=2):
                    preds = np.where(x[:, j] <= t, le, gt)
                    best = min(best, w[preds != y].sum())
        assert np.isclose(err, best, rtol=1e-12)


class TestSammeOracle:
    def test_separable_round_one_clamps(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        rounds = baselines.samme_oracle(x, y, 1, 2)
        assert rounds[0].err == 0.0
        want_alpha = np.log((1 - 1e-6) / 1e-6)  # + ln(K-1) = 0 for K=2
        assert np.isclose(rounds[0].alpha, want_alpha, rtol=1e-9)

    def test_xor_like_alpha_ln3(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 1])
        rounds = baselines.samme_oracle(x, y, 1, 2)
        assert np.isclose(rounds[0].err, 0.25, rtol=1e-12)
        assert np.isclose(rounds[0].alpha, np.log(3.0), rtol=1e-12)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            baselines.samme_oracle(np.ones((6, 2)), np.arange(6) % 2, 3, 2)

    def test_weights_never_renormalized(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        y = (x[:, 0] > 0).astype(np.int64)
        y[:5] = 1 - y[:5]
        rounds = baselines.samme_oracle(x, y, 3, 2)
        # total mass grows monotonically because mistakes are inflated
        totals = [r.weights_after.sum() for r in rounds]
        assert totals[0] >= 1.0
        assert all(a <= b for a, b in zip(totals, totals[1:]))


FAST = enc.TrainConfig(lr=3e-3, epochs=6)


def member_posteriors(bag, dataset) -> list:
    """Each member's (n, K) posteriors, scored on its own."""
    return [enc.model_from_snapshot(r.model.snapshot).predict_proba(dataset.packed)
            for r in bag.rounds]


class TestBagging:
    @pytest.fixture
    def dataset(self):
        return make_token_dataset(np.random.default_rng(7), n=120)

    @pytest.fixture
    def bag3(self, tiny_config, dataset):
        bag, _ = baselines.bag_train(
            dataset, [8e-4, 1.6e-3, 3e-3], 5, config=tiny_config, train_cfg=FAST
        )
        return bag

    def test_bag_is_an_ensemble_of_unit_alpha_rounds(self, bag3):
        assert bag3.ensemble_kind == "bag" and bag3.sharing_mode == "privacy"
        assert [(r.index, r.alpha, r.err) for r in bag3.rounds] == [
            (1, 1.0, None), (2, 1.0, None), (3, 1.0, None)]

    def test_identical_rates_identical_members(self, tiny_config, dataset):
        bag, _ = baselines.bag_train(
            dataset, [1e-3, 1e-3], 5, config=tiny_config, train_cfg=FAST
        )
        first, second = (r.model.snapshot.params for r in bag.rounds)
        assert np.array_equal(first, second)

    def test_needs_two_rates(self, tiny_config, dataset):
        with pytest.raises(ValueError):
            baselines.bag_train(dataset, [1e-3], 5, config=tiny_config, train_cfg=FAST)

    def test_member_mean_is_the_unit_alpha_vote(self, bag3, dataset):
        # the reference: Breiman's unweighted average of member posteriors
        mean = np.mean(member_posteriors(bag3, dataset), axis=0)
        probs = bag3.predict_proba_per_round(dataset)
        assert np.array_equal(bag3.vote_scores(probs) / bag3.m_effective, mean)
        rng = np.random.default_rng(3)
        for M in range(2, 18):
            posteriors = rng.dirichlet(np.ones(3), size=(M, 40))
            bag = dataclasses.replace(bag3, rounds=[bag3.rounds[0]] * M)
            scores = bag.vote_scores(posteriors.transpose(1, 0, 2))
            assert np.array_equal(scores / M, np.mean(list(posteriors), axis=0))

    def test_vote_average_and_order_invariance(self, bag3, dataset):
        preds, scores = boosting.vote_predict(bag3, dataset)
        assert np.allclose(scores.sum(axis=1), bag3.m_effective, atol=1e-6)
        swapped = dataclasses.replace(bag3, rounds=list(reversed(bag3.rounds)))
        preds2, scores2 = boosting.vote_predict(swapped, dataset)
        assert np.array_equal(preds, preds2)
        assert np.allclose(scores, scores2, atol=1e-12)

    def test_single_member_predicts_like_member(self, bag3, dataset):
        solo = dataclasses.replace(bag3, rounds=bag3.rounds[:1])
        _, scores = boosting.vote_predict(solo, dataset)
        assert np.array_equal(scores, member_posteriors(bag3, dataset)[0])

    def test_diverged_members_dropped_and_too_few_is_an_error(self, tiny_config, dataset):
        with pytest.warns(RuntimeWarning, match="dropped"):
            with pytest.raises(RuntimeError, match="fewer than 2"):
                baselines.bag_train(
                    dataset, [1e154, 1e-3], 5, config=tiny_config, train_cfg=FAST
                )
        bag, log = baselines.bag_train(
            dataset, [1e154, 1e-3, 2e-3], 5, config=tiny_config, train_cfg=FAST
        )
        assert [r.index for r in bag.rounds] == [1, 2]
        assert [rec["status"] for rec in log] == ["diverged", "ok", "ok"]

    def test_members_not_above_min_rule(self, bag3, dataset):
        # sanity trend: the averaged ensemble is at least as good as the
        # worst member on the data it was trained on, with 1-point slack
        member_accs = [(p.argmax(axis=1) == dataset.labels).mean() * 100
                       for p in member_posteriors(bag3, dataset)]
        preds, _ = boosting.vote_predict(bag3, dataset)
        bag_acc = (preds == dataset.labels).mean() * 100
        assert bag_acc >= min(member_accs) - 1.0
