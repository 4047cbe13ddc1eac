import dataclasses
import warnings

import numpy as np
import pytest

from textboost import encoder as enc
from textboost.encoder import nnops
from textboost.encoder.transformer import _scatter_rows

from conftest import random_batch
from gradcheck import REL_TOL, check_group, gradients, weighted_ce_loss


@pytest.fixture
def model(tiny_config):
    return enc.TransformerModel(tiny_config, seed=7)


@pytest.fixture
def batch():
    return random_batch(np.random.default_rng(17), B=4, L=8)


def test_classification_gradients_every_group(model, batch):
    """Weighted-CE path (weights != 1), all parameter groups, FD h=1e-4."""
    rng = np.random.default_rng(5)
    weights = rng.uniform(0.5, 3.0, size=batch.n)
    _, _, grad = model.clf_loss_and_grad(batch, batch.labels, weights)

    def loss_fn():
        l, _, _ = model.clf_loss_and_grad(batch, batch.labels, weights)
        return l

    for name, _ in model.layout.entries:
        worst = check_group(model.params, loss_fn, grad, model.layout.slice_of(name),
                            rng, max_checks=12)
        assert worst < REL_TOL, f"group {name}: rel err {worst}"
    # each row's mid SEP puts the rest of it in segment 1, whose embedding
    # row is then reached: every entry of it has a gradient, checked by FD
    seg = model.layout.slice_of("seg_emb")
    row1 = slice(seg.start + model.config.d_model, seg.stop)
    assert (grad[row1] != 0).all()
    assert check_group(model.params, loss_fn, grad, row1, rng) < REL_TOL


@pytest.mark.parametrize("n_layers", [1, 2])
def test_train_mode_classification_gradients_every_group(tiny_config, batch, n_layers):
    """Dropout on: each loss evaluation re-seeds the rng, so every pass
    draws the same masks and the shortened last block's backward is checked
    under them."""
    cfg = dataclasses.replace(tiny_config, n_layers=n_layers, dropout_rate=0.3)
    model = enc.TransformerModel(cfg, seed=7)
    rng = np.random.default_rng(21)
    weights = rng.uniform(0.5, 3.0, size=batch.n)

    def loss_and_grad():
        return model.clf_loss_and_grad(batch, batch.labels, weights, train_mode=True,
                                       rng=np.random.default_rng(22))

    _, _, grad = loss_and_grad()
    for name, _ in model.layout.entries:
        worst = check_group(model.params, lambda: loss_and_grad()[0], grad,
                            model.layout.slice_of(name), rng, max_checks=12)
        assert worst < REL_TOL, f"group {name}: rel err {worst}"


def masked_batch(rng):
    """Three sequences with 2, 1 and 3 masked positions, the pairs not
    sorted by row."""
    B, L = 3, 7
    lengths = np.array([7, 5, 6])
    ids = np.zeros((B, L), dtype=np.int64)
    for i, ln in enumerate(lengths):
        ids[i, :ln] = rng.integers(5, 20, size=ln)
    rows = np.array([0, 2, 0, 1, 2, 2])
    cols = np.array([1, 5, 4, 2, 3, 1])
    targets = ids[rows, cols].copy()
    ids[rows, cols] = 4  # MASK
    return ids, lengths, rows, cols, targets


def test_mlm_gradients_every_group(model):
    rng = np.random.default_rng(6)
    ids, lengths, rows, cols, targets = masked_batch(rng)

    _, grad = model.mlm_loss_and_grad(ids, lengths, rows, cols, targets)

    def loss_fn():
        l, _ = model.mlm_loss_and_grad(ids, lengths, rows, cols, targets)
        return l

    for name, _ in model.layout.entries:
        if name.startswith("cls."):
            continue  # no path from the classification head to the MLM loss
        worst = check_group(model.params, loss_fn, grad, model.layout.slice_of(name),
                            rng, max_checks=10)
        assert worst < REL_TOL, f"group {name}: rel err {worst}"


@pytest.mark.parametrize("n_layers", [1, 2])
def test_train_mode_mlm_gradients_every_group(tiny_config, n_layers):
    """Dropout on, the last block run for the masked rows alone: every group
    the masked-token loss reaches, under the same re-seeded masks."""
    cfg = dataclasses.replace(tiny_config, n_layers=n_layers, dropout_rate=0.3)
    model = enc.TransformerModel(cfg, seed=7)
    rng = np.random.default_rng(23)
    ids, lengths, rows, cols, targets = masked_batch(rng)

    def loss_and_grad():
        return model.mlm_loss_and_grad(ids, lengths, rows, cols, targets, train_mode=True,
                                       rng=np.random.default_rng(24))

    _, grad = loss_and_grad()
    reached = model.mlm_ranges()
    for name, _ in model.layout.entries:
        sl = model.layout.slice_of(name)
        if not any(r.start <= sl.start and sl.stop <= r.stop for r in reached):
            assert not grad[sl].any(), name
            continue
        worst = check_group(model.params, lambda: loss_and_grad()[0], grad, sl, rng,
                            max_checks=12)
        assert worst < REL_TOL, f"group {name}: rel err {worst}"


def test_masking_position_0_rejected(model):
    ids, lengths, rows, cols, targets = masked_batch(np.random.default_rng(6))
    cols[0] = 0
    with pytest.raises(ValueError, match="position 0"):
        model.mlm_loss_and_grad(ids, lengths, rows, cols, targets)


def test_gelu_grad_matches_central_differences():
    """``gelu_grad(x, t)`` with the forward's tanh, over [-12, 12]: the
    curved middle, 0, and both tails where tanh rounds to +-1."""
    x = np.concatenate([np.linspace(-12.0, 12.0, 2401), [0.0, -1e-7, 1e-7, -5.5, 5.5]])
    h = 1e-5
    fd = (nnops.gelu(x + h)[0] - nnops.gelu(x - h)[0]) / (2.0 * h)
    _, t = nnops.gelu(x)
    grad = nnops.gelu_grad(x, t)
    np.testing.assert_allclose(grad, fd, rtol=0.0, atol=1e-8)
    assert grad[x == 0.0][0] == 0.5
    assert np.all(grad[x <= -10.0] == 0.0) and np.all(grad[x >= 10.0] == 1.0)


def test_soft_target_gradients(model, batch):
    """Distillation-style soft-target path."""
    rng = np.random.default_rng(8)
    t = rng.uniform(0.1, 1.0, size=(batch.n, 3))
    t /= t.sum(axis=1, keepdims=True)
    _, _, grad = model.clf_loss_and_grad(batch, t, np.ones(batch.n))

    def loss_fn():
        l, _, _ = model.clf_loss_and_grad(batch, t, np.ones(batch.n))
        return l

    for name in ("tok_emb", "layer0.wq", "layer1.w2", "cls.w"):
        worst = check_group(model.params, loss_fn, grad, model.layout.slice_of(name),
                            rng, max_checks=10)
        assert worst < REL_TOL, f"group {name}: rel err {worst}"


def test_gradient_linear_in_weights(model, batch):
    """Halving every weight halves the gradient exactly."""
    ones = np.ones(batch.n)
    _, _, g_full = model.clf_loss_and_grad(batch, batch.labels, ones)
    _, _, g_half = model.clf_loss_and_grad(batch, batch.labels, 0.5 * ones)
    assert np.array_equal(g_half, 0.5 * g_full)


def test_absent_token_embedding_gets_zero_gradient(model, batch):
    present = set(batch.ids.ravel().tolist())
    absent = next(t for t in range(5, 20) if t not in present)
    g = gradients(model, batch)
    row = model.layout.views(g)["tok_emb"][absent]
    assert np.array_equal(row, np.zeros_like(row))


def test_gradients_rejects_nonpositive_weights(model, batch):
    with pytest.raises(ValueError):
        gradients(model, batch, weights=np.zeros(batch.n))


def test_softreg_gradients():
    cfg = enc.SoftregConfig(vocab_size=20, K=3)
    model = enc.SoftmaxRegressionModel(cfg, seed=3)
    batch = random_batch(np.random.default_rng(9))
    rng = np.random.default_rng(10)
    weights = rng.uniform(0.5, 2.0, size=batch.n)
    _, _, grad = model.clf_loss_and_grad(batch, batch.labels, weights)

    def loss_fn():
        l, _, _ = model.clf_loss_and_grad(batch, batch.labels, weights)
        return l

    for name, _ in model.layout.entries:
        worst = check_group(model.params, loss_fn, grad, model.layout.slice_of(name),
                            rng, max_checks=20)
        assert worst < REL_TOL, f"group {name}: rel err {worst}"


@pytest.mark.parametrize("kind", ["transformer", "softreg"])
@pytest.mark.parametrize("soft", [False, True], ids=["label-ids", "soft-targets"])
def test_clf_loss_is_bit_equal_to_the_out_of_place_head(tiny_config, kind, soft):
    """Both learners' weighted CE over their features, in place, equals the
    head written out of place; the transformer's trunk gradient is its
    backward of ``d_logits @ cls.w.T``."""
    rng = np.random.default_rng(21)
    model = (enc.TransformerModel(tiny_config, seed=4) if kind == "transformer"
             else enc.SoftmaxRegressionModel(enc.SoftregConfig(vocab_size=20, K=3), seed=4))
    batch = random_batch(rng, B=6, L=8)
    targets = rng.dirichlet(np.ones(3), size=batch.n) if soft else batch.labels
    weights = rng.uniform(0.5, 3.0, size=batch.n)
    loss, per_example, grad = model.clf_loss_and_grad(batch, targets, weights)

    feats, w, b = model.features(batch), model.p["cls.w"], model.p["cls.b"]
    t = targets if soft else np.eye(3)[targets]
    probs = nnops.softmax_rows(feats @ w + b)
    want_per = weights * -(t * np.log(np.maximum(probs, nnops.PROB_FLOOR))).sum(axis=1)
    d_logits = (probs - t) * (weights / batch.n)[:, None]
    want = np.zeros_like(model.params)
    views = model.layout.views(want)
    views["cls.w"] += feats.T @ d_logits
    views["cls.b"] += d_logits.sum(axis=0)
    if kind == "transformer":
        _, cache = model._trunk_forward(batch.ids, batch.lengths, False, None,
                                        keep_cache=True, query=np.zeros((batch.n, 1), np.intp))
        model._trunk_backward((d_logits @ w.T)[:, None, :], cache, views)
    assert loss == float(want_per.mean())
    assert per_example.tobytes() == want_per.tobytes()
    assert grad.tobytes() == want.tobytes()


class TestWeightedCELoss:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[1.0, 0.0]])
        loss, per = weighted_ce_loss(probs, np.array([0]), np.array([5.0]))
        assert loss == 0.0 and per[0] == 0.0

    def test_hand_arithmetic(self):
        probs = np.array([[0.5, 0.5]])
        loss, per = weighted_ce_loss(probs, np.array([0]), np.array([2.0]))
        assert np.isclose(per[0], 2.0 * np.log(2.0), rtol=1e-12)
        assert np.isclose(loss, 1.3862943611198906, rtol=1e-12)

    def test_doubling_weights_doubles_loss(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=5)
        labels = rng.integers(0, 3, size=5)
        w = rng.uniform(0.1, 2.0, size=5)
        l1, _ = weighted_ce_loss(probs, labels, w)
        l2, _ = weighted_ce_loss(probs, labels, 2.0 * w)
        assert np.isclose(l2, 2.0 * l1, rtol=1e-15)

    def test_no_renormalization(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        labels = np.array([0, 1])
        loss, _ = weighted_ce_loss(probs, labels, np.array([10.0, 10.0]))
        assert np.isclose(loss, 10.0 * np.log(2.0))

    def test_clamp_flags_tiny_probability(self):
        probs = np.array([[1e-300, 1.0]])
        with pytest.warns(RuntimeWarning, match="clamp"):
            loss, _ = weighted_ce_loss(probs, np.array([0]), np.array([1.0]))
        assert np.isclose(loss, -np.log(1e-12))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            weighted_ce_loss(np.array([[0.5, 0.5]]), np.array([0]), np.array([0.0]))


def cross_entropy_cases():
    rng = np.random.default_rng(31)
    yield rng.normal(0.0, 3.0, size=(9, 5)), rng.integers(0, 5, size=9)
    yield rng.normal(size=(4, 1)), np.zeros(4, dtype=np.int64)  # rows of length 1
    # row 0's label has probability e^-40, below PROB_FLOOR
    yield np.array([[0.0, 40.0, 1.0], [2.0, 0.5, -1.0]]), np.array([0, 1])


@pytest.mark.parametrize("logits, labels", cross_entropy_cases(),
                         ids=["random", "one-column", "floored"])
def test_cross_entropy_and_floored_log_equal_the_references(logits, labels):
    """``nnops.cross_entropy`` is ``weighted_ce_loss`` of the softmax at unit
    weights, with the gradient ``(softmax - onehot) / N`` in the logits'
    array; ``floored_log`` is ``distill_loss``'s ``log(max(p, PROB_FLOOR))``."""
    probs = nnops.softmax_rows(logits)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference flags the floor
        want_loss, _ = weighted_ce_loss(probs, labels, np.ones(labels.size))
    want_d = (probs - np.eye(logits.shape[1])[labels]) / labels.size
    z = logits.copy()
    loss, d = nnops.cross_entropy(z, labels)
    assert d is z
    assert loss == want_loss and d.tobytes() == want_d.tobytes()
    p0 = probs.copy()
    got = nnops.floored_log(probs)
    assert got.tobytes() == np.log(np.maximum(p0, nnops.PROB_FLOOR)).tobytes()
    assert probs.tobytes() == p0.tobytes()

@pytest.mark.parametrize("n_rows", [2, 7])
def test_scatter_rows_bit_equal_to_add_at_with_repeated_ids(n_rows):
    """The embedding-gradient bincount adds each bin in the order add.at does;
    magnitudes spread over 16 decades make that order visible in the bits."""
    rng = np.random.default_rng(3)
    ids = rng.integers(0, n_rows, size=(8, 24))
    grad = rng.normal(size=(8, 24, 32)) * 10.0 ** rng.integers(-8, 8, size=(8, 24, 1))
    want = np.zeros((n_rows, 32))
    np.add.at(want, ids, grad)
    assert _scatter_rows(ids, grad, n_rows).tobytes() == want.tobytes()


def test_loss_returns_a_fresh_gradient_or_adds_into_out(model, batch):
    _, _, a = model.clf_loss_and_grad(batch, batch.labels)
    _, _, b = model.clf_loss_and_grad(batch, batch.labels)
    assert a is not b and a.tobytes() == b.tobytes()
    out = np.zeros_like(model.params)
    _, _, c = model.clf_loss_and_grad(batch, batch.labels, out=out)
    assert c is out and out.tobytes() == a.tobytes()
