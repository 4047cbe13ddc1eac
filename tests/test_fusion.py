import dataclasses

import numpy as np
import pytest

from textboost import boosting, fusion
from textboost import encoder as enc
from textboost.artifacts import ArtifactError
from textboost.encoder.nnops import softmax_rows
from textboost.textdata import LabeledDataset

from conftest import make_token_dataset
from gradcheck import REL_TOL, check_group, weighted_ce_loss


def fixed_ensemble(per_round_probs, alphas, K=2):
    class Fixed:
        def __init__(self, probs):
            self.probs = np.asarray(probs, dtype=np.float64)

        def predict_proba(self, dataset):
            return self.probs

    rounds = [
        boosting.BoostRound(index=i + 1, model=Fixed(p), alpha=a, err=0.2)
        for i, (p, a) in enumerate(zip(per_round_probs, alphas))
    ]
    return boosting.BoostEnsemble(K=K, learner_kind="stump", sharing_mode="privacy",
                                  rounds=rounds)


class TestBuildFeature:
    def test_hand_example(self):
        ens = fixed_ensemble([[[0.6, 0.4]], [[0.3, 0.7]]], [1.0, 2.0])
        feats = fusion.build_feature(ens, dataset=None)
        assert np.allclose(feats, [[0.6, 0.4, 0.6, 1.4]], rtol=1e-12)

    def test_unit_alphas_concatenate_softmax(self):
        ens = fixed_ensemble([[[0.6, 0.4]], [[0.3, 0.7]]], [1.0, 1.0])
        feats = fusion.build_feature(ens, None)
        assert np.allclose(feats, [[0.6, 0.4, 0.3, 0.7]])

    def test_block_sums_equal_alphas(self):
        rng = np.random.default_rng(0)
        probs1 = rng.dirichlet(np.ones(3), size=5)
        probs2 = rng.dirichlet(np.ones(3), size=5)
        ens = fixed_ensemble([probs1, probs2], [0.7, 1.9], K=3)
        feats = fusion.build_feature(ens, None)
        blocks = feats.reshape(5, 2, 3).sum(axis=2)
        assert np.allclose(blocks[:, 0], 0.7, atol=1e-6)
        assert np.allclose(blocks[:, 1], 1.9, atol=1e-6)


class TestFusionHead:
    def test_zero_params_uniform_and_class_zero(self):
        head = fusion.FusionHead((6, 24, 3), seed=0)
        head.params[:] = 0.0
        probs = head.probs(np.random.default_rng(1).normal(size=(4, 6)))
        assert np.allclose(probs, 1 / 3, atol=1e-12)
        assert head.probs(np.zeros((2, 6))).argmax(axis=1).tolist() == [0, 0]

    def test_depth_zero_is_linear(self):
        head = fusion.FusionHead((4, 2), seed=1)
        x = np.random.default_rng(2).normal(size=(3, 4))
        w, b = head._unpack(head.params)[0]
        assert np.allclose(head.logits(x), x @ w + b)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        head = fusion.FusionHead((5, 20, 3), seed=4)
        feats = rng.normal(size=(8, 5))
        labels = rng.integers(0, 3, size=8)
        _, grad = head.loss_and_grad(feats, labels)

        def loss_fn():
            l, _ = head.loss_and_grad(feats, labels)
            return l

        worst = check_group(head.params, loss_fn, grad,
                            slice(0, head.n_params), rng, max_checks=60)
        assert worst < REL_TOL

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_loss_is_the_cross_entropy_of_the_logits(self, depth):
        rng = np.random.default_rng(40 + depth)
        head = fusion.FusionHead((6, *[12] * depth, 3), seed=depth)
        feats, labels = rng.normal(size=(10, 6)), rng.integers(0, 3, size=10)
        want, _ = weighted_ce_loss(softmax_rows(head.logits(feats)), labels, np.ones(10))
        assert head.loss_and_grad(feats, labels)[0] == want

    def test_save_load_roundtrip(self, tmp_path):
        head = fusion.FusionHead((6, 24, 3), seed=5, ensemble_hash="0123456789abcdef" * 4)
        head.save(tmp_path / "f.bgf")
        assert (tmp_path / "f.bgf").read_bytes()[:4] == b"BGF1"
        back = fusion.FusionHead.load(tmp_path / "f.bgf")
        assert back.dims == head.dims
        assert back.ensemble_hash == "0123456789abcdef" * 4
        assert np.array_equal(back.params, head.params)

    @pytest.mark.parametrize("ensemble_hash", ["", "AB" * 32, "ab" * 31 + "a", "ab" * 32 + "\n"],
                             ids=["empty", "upper-case", "63-digits", "newline"])
    def test_head_without_a_sha256_binding_does_not_load(self, ensemble_hash):
        blob = fusion.FusionHead((6, 24, 3), seed=5, ensemble_hash=ensemble_hash).to_bytes()
        with pytest.raises(ArtifactError, match="not bound"):
            fusion.FusionHead.from_bytes(blob)


@pytest.fixture(scope="module")
def softreg_setup():
    """Six boosted softmax regressions on a keyword task, with its dev set."""
    rng = np.random.default_rng(20240601)
    train, dev = make_token_dataset(rng, n=160), make_token_dataset(rng, n=80)
    learner = boosting.NeuralBoostLearner(
        enc.SoftregConfig(vocab_size=20, K=3), enc.TrainConfig(lr=0.05, batch_size=16, epochs=1),
        "random")
    ens, _ = boosting.boost_train(train, learner, 6, seed=0)
    return train, dev, ens


class TestTrainFusion:
    def test_bases_frozen_and_deterministic(self, softreg_setup):
        train, dev, ens = softreg_setup
        digest = ens.content_hash()
        cfg = fusion.FusionConfig(max_epochs=5)
        head1, _ = fusion.train_fusion(ens, train, dev, cfg, seed=1)
        assert ens.content_hash() == digest == head1.ensemble_hash
        head2, _ = fusion.train_fusion(ens, train, dev, cfg, seed=1)
        assert np.array_equal(head1.params, head2.params)

    def test_a_base_changed_during_training_raises(self, softreg_setup, monkeypatch):
        train, _, shared = softreg_setup
        # new rounds, so that swapping one leaves the module's ensemble as it is
        ens = dataclasses.replace(shared, rounds=[dataclasses.replace(r) for r in shared.rounds])
        snap = ens.rounds[1].model.snapshot
        real = fusion.FusionHead.loss_and_grad

        def mutating(head, features, labels, out=None):
            ens.rounds[1].model = boosting.NeuralRoundModel(
                dataclasses.replace(snap, params=snap.params + 0.5))
            return real(head, features, labels, out=out)

        monkeypatch.setattr(fusion.FusionHead, "loss_and_grad", mutating)
        with pytest.raises(RuntimeError, match="mutated the frozen ensemble"):
            fusion.train_fusion(ens, train, None, fusion.FusionConfig(max_epochs=1), seed=0)

    def test_linear_head_at_least_matches_vote(self, softreg_setup):
        train, dev, ens = softreg_setup
        cfg = fusion.FusionConfig(depth=0, lr=5e-3, max_epochs=200, patience=200)
        head, _ = fusion.train_fusion(ens, train, dev, cfg, seed=2)
        vote_preds, _ = boosting.vote_predict(ens, dev)
        vote_acc = (vote_preds == dev.labels).mean() * 100
        fusion_preds, _ = fusion.fusion_predict(ens, head, dev)
        fusion_acc = (fusion_preds == dev.labels).mean() * 100
        assert fusion_acc >= vote_acc - 0.5

    def test_dimension_mismatch_rejected(self, softreg_setup):
        _, dev, ens = softreg_setup
        wrong = fusion.FusionHead((4, 3), seed=0)
        with pytest.raises(ValueError, match="features"):
            fusion.fusion_predict(ens, wrong, dev)

    def test_unbound_head_rejected(self, softreg_setup):
        _, dev, ens = softreg_setup
        head = fusion.FusionHead(fusion.head_dims(ens, fusion.FusionConfig()), seed=0)
        assert head.ensemble_hash == ""
        with pytest.raises(ArtifactError, match="different ensemble"):
            fusion.fusion_predict(ens, head, dev)

    def test_head_of_another_ensemble_rejected(self, softreg_setup):
        train, dev, ens = softreg_setup
        # same rounds and M*K, other alphas: another ensemble, another hash
        other = boosting.BoostEnsemble(
            K=ens.K, learner_kind=ens.learner_kind, sharing_mode=ens.sharing_mode,
            rounds=[dataclasses.replace(r, alpha=2.0 * r.alpha) for r in ens.rounds],
        )
        cfg = fusion.FusionConfig(max_epochs=2)
        head, _ = fusion.train_fusion(ens, train, dev, cfg, seed=4)
        other_head, _ = fusion.train_fusion(other, train, dev, cfg, seed=4)
        fusion.fusion_predict(ens, head, dev)
        fusion.fusion_predict(other, other_head, dev)
        with pytest.raises(ArtifactError, match="different ensemble"):
            fusion.fusion_predict(ens, other_head, dev)
        with pytest.raises(ArtifactError, match="different ensemble"):
            fusion.fusion_predict(other, head, dev)

    def test_prediction_deterministic_and_order_independent(self, softreg_setup):
        train, dev, ens = softreg_setup
        head, _ = fusion.train_fusion(ens, train, dev, fusion.FusionConfig(max_epochs=3), seed=3)
        preds, probs = fusion.fusion_predict(ens, head, dev)
        # reversing example order permutes outputs identically
        rev = LabeledDataset(packed=dev.packed.take(np.arange(dev.n)[::-1]), K=3,
                             label_names=dev.label_names)
        preds_rev, probs_rev = fusion.fusion_predict(ens, head, rev)
        assert np.array_equal(preds_rev[::-1], preds)
        assert np.allclose(probs_rev[::-1], probs, atol=1e-12)

    def test_head_dims_scale_with_ensemble(self, softreg_setup):
        _, _, ens = softreg_setup
        dims = fusion.head_dims(ens, fusion.FusionConfig(depth=2))
        mk = ens.m_effective * ens.K
        assert dims == (mk, 4 * mk, 4 * mk, ens.K)

    def test_single_member_fusion_close_to_vote(self, tiny_config):
        # with one base model the fusion head has nothing to combine and
        # should land within a point of the weighted vote
        rng = np.random.default_rng(12)
        train = make_token_dataset(rng, n=200)
        dev = make_token_dataset(rng, n=90)
        learner = boosting.NeuralBoostLearner(
            tiny_config, enc.TrainConfig(lr=3e-3, epochs=16), "random"
        )
        ens, _ = boosting.boost_train(train, learner, 1, seed=5)
        head, _ = fusion.train_fusion(
            ens, train, dev,
            fusion.FusionConfig(lr=5e-3, max_epochs=80, patience=15), seed=5,
        )
        vote_preds, _ = boosting.vote_predict(ens, dev)
        fusion_preds, _ = fusion.fusion_predict(ens, head, dev)
        vote_acc = (vote_preds == dev.labels).mean() * 100
        fusion_acc = (fusion_preds == dev.labels).mean() * 100
        assert fusion_acc >= vote_acc - 1.0
