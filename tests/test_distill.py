import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textboost import distill
from textboost import encoder as enc

from conftest import make_token_dataset
from test_fusion import fixed_ensemble


class TestAnnealedLambda:
    def test_boundaries(self):
        assert distill.annealed_lambda(0, 100) == 0.0
        assert distill.annealed_lambda(100, 100) == 1.0
        assert distill.annealed_lambda(50, 100) == 0.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            distill.annealed_lambda(-1, 10)
        with pytest.raises(ValueError):
            distill.annealed_lambda(11, 10)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=40)
    def test_monotone(self, total):
        vals = [distill.annealed_lambda(s, total) for s in range(0, total + 1, max(1, total // 7))]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestDistillLoss:
    def test_lambda_one_is_gold_ce(self):
        p = np.array([[0.25, 0.75]])
        got = distill.distill_loss(p, np.array([0]), np.array([[0.9, 0.1]]), 1.0)
        assert np.isclose(got, -np.log(0.25), rtol=1e-12)

    def test_lambda_zero_is_teacher_ce(self):
        p = np.array([[0.25, 0.75]])
        t = np.array([[0.9, 0.1]])
        got = distill.distill_loss(p, np.array([0]), t, 0.0)
        want = -(0.9 * np.log(0.25) + 0.1 * np.log(0.75))
        assert np.isclose(got, want, rtol=1e-12)

    def test_hand_mixture(self):
        p = np.array([[0.5, 0.5]])
        t = np.array([[0.8, 0.2]])
        got = distill.distill_loss(p, np.array([0]), t, 0.5)
        assert np.isclose(got, np.log(2.0), rtol=1e-12)

    def test_linear_in_lambda(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(4), size=6)
        t = rng.dirichlet(np.ones(4), size=6)
        gold = rng.integers(0, 4, size=6)
        at = {lam: distill.distill_loss(p, gold, t, lam) for lam in (0, 0.25, 0.5, 0.75, 1)}
        for lam in (0.25, 0.5, 0.75):
            want = (1 - lam) * at[0] + lam * at[1]
            assert np.isclose(at[lam], want, rtol=1e-12)

    def test_one_hot_teacher_lambda_independent(self):
        p = np.array([[0.3, 0.7]])
        t = np.array([[1.0, 0.0]])
        vals = [distill.distill_loss(p, np.array([0]), t, lam) for lam in (0, 0.5, 1)]
        assert np.allclose(vals, vals[0], rtol=1e-12)

    def test_lambda_range_checked(self):
        with pytest.raises(ValueError):
            distill.distill_loss(np.array([[0.5, 0.5]]), np.array([0]),
                                 np.array([[1.0, 0.0]]), 1.5)


class TestTeacherTargets:
    def test_m1_no_head_equals_model_softmax(self):
        probs = np.array([[0.6, 0.4], [0.1, 0.9]])
        ens = fixed_ensemble([probs], [2.5])
        ds = make_token_dataset(np.random.default_rng(0), n=2, K=2)
        targets = distill.teacher_targets(ens, None, ds)
        assert np.allclose(targets, probs, rtol=1e-12)

    def test_targets_are_distributions(self):
        rng = np.random.default_rng(1)
        ens = fixed_ensemble([rng.dirichlet(np.ones(3), size=5),
                              rng.dirichlet(np.ones(3), size=5)], [0.5, 1.5], K=3)
        ds = make_token_dataset(rng, n=5, K=3)
        targets = distill.teacher_targets(ens, None, ds)
        assert np.allclose(targets.sum(axis=1), 1.0, atol=1e-6)


class TestDistillTrain:
    def test_student_architecture_and_determinism(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(3), n=96)
        targets = np.full((96, 3), 1 / 3)
        cfg = distill.DistillConfig(total_steps=6, student_config=tiny_config,
                                    init_strategy="random")
        a, _ = distill.distill_train(targets, dataset, cfg, seed=4)
        b, _ = distill.distill_train(targets, dataset, cfg, seed=4)
        base = enc.TransformerModel(tiny_config, seed=0)
        assert a.params.size == base.params.size
        assert np.array_equal(a.params, b.params)

    def test_targets_must_cover_training_set(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(4), n=10)
        cfg = distill.DistillConfig(total_steps=2, student_config=tiny_config,
                                    init_strategy="random")
        with pytest.raises(ValueError, match="cover"):
            distill.distill_train(np.full((5, 3), 1 / 3), dataset, cfg, seed=0)

    def test_lambda_schedule_reaches_gold(self, tiny_config):
        dataset = make_token_dataset(np.random.default_rng(5), n=64)
        targets = np.full((64, 3), 1 / 3)
        cfg = distill.DistillConfig(total_steps=10, student_config=tiny_config,
                                    init_strategy="random")
        _, log = distill.distill_train(targets, dataset, cfg, seed=1)
        lams = [rec["lambda"] for rec in log if "lambda" in rec]
        assert lams[0] == 0.0
        assert lams == sorted(lams)
        assert lams[-1] == (cfg.total_steps - 1) / cfg.total_steps
