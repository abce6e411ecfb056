import math
import warnings

import numpy as np
import pytest

from oracles import fd_gradient, max_rel_error, model_gradcheck_worst
from ttbounce.classify import TrainConfig, assemble_task, cnn_loss_and_grad, cnn_train, mel_inputs, new_cnn, predict_cnn
from ttbounce.classify.cnn import (
    batchnorm_train,
    _conv_backward,
    _conv_forward,
    batchnorm_train_backward,
    maxpool2,
    maxpool2_backward,
    spatial_trace,
)
from ttbounce.errors import DataError, NumericError, ParameterError
from ttbounce.synth import two_band_records


def test_default_architecture_spatial_trace():
    trace = spatial_trace((64, 7), 6, (2, 4))
    assert trace[0] == (64, 7)
    assert trace[2] == (32, 3)  # after the pool that follows block 2
    assert trace[4] == (16, 1)  # after the pool that follows block 4
    assert trace[6] == (16, 1)


def test_construction_rejects_collapsing_pools():
    with pytest.raises(ParameterError):
        new_cnn(("a", "b"), "surface", channels=(2, 2, 2), pools=(1, 2, 3), input_shape=(4, 2))


def test_forward_is_probability_vector(rng):
    model = new_cnn(tuple("abcdefghijklm"), "surface", seed=1)
    probs = predict_cnn(model, rng.standard_normal((5, 64, 7)))
    assert probs.shape == (5, 13)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_zero_dense_layer_gives_uniform(rng):
    model = new_cnn(("x", "y", "z"), "spin", seed=0, channels=(4, 4), pools=(1,), input_shape=(16, 7))
    model.dense_w[:] = 0.0
    model.dense_b[:] = 0.0
    probs = predict_cnn(model, rng.standard_normal((3, 16, 7)))
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_infer_is_pure(rng):
    model = new_cnn(("x", "y"), "spin", seed=4, channels=(3, 3), pools=(2,), input_shape=(8, 6))
    x = rng.standard_normal((4, 8, 6))
    assert np.array_equal(predict_cnn(model, x), predict_cnn(model, x))


def test_train_mode_rejects_batch_of_one(rng):
    model = new_cnn(("x", "y"), "spin", seed=4, channels=(3,), pools=(), input_shape=(8, 6))
    with pytest.raises(ParameterError, match="batch"):
        cnn_loss_and_grad(model, rng.standard_normal((1, 8, 6)), np.array([0]))


def test_wrong_input_shape_rejected(rng):
    model = new_cnn(("x", "y"), "spin", seed=4)
    with pytest.raises(ParameterError, match="shape"):
        predict_cnn(model, rng.standard_normal((2, 32, 7)))


def test_batchnorm_contract(rng):
    x = rng.standard_normal((8, 5, 10, 3)) * 3.0 + 1.0
    out, _ = batchnorm_train(x, np.ones(5), np.zeros(5))
    means = out.mean(axis=(0, 2, 3))
    variances = out.var(axis=(0, 2, 3))
    assert np.max(np.abs(means)) < 1e-6
    assert np.max(np.abs(variances - 1.0)) < 1e-5


def test_uniform_prediction_loss_is_log_n_classes(rng):
    model = new_cnn(("a", "b", "c"), "spin", seed=0, channels=(2, 2), pools=(1,), input_shape=(8, 6))
    model.dense_w[:] = 0.0
    model.dense_b[:] = 0.0
    loss, _, _ = cnn_loss_and_grad(model, rng.standard_normal((4, 8, 6)), np.array([0, 1, 2, 0]))
    assert loss == pytest.approx(math.log(3.0), abs=1e-12)


def test_perfect_prediction_loss_near_zero(rng):
    model = new_cnn(("a", "b"), "spin", seed=0, channels=(2,), pools=(), input_shape=(8, 6))
    model.dense_b[:] = np.array([50.0, -50.0])  # saturate class 0
    model.dense_w[:] = 0.0
    loss, _, _ = cnn_loss_and_grad(model, rng.standard_normal((2, 8, 6)), np.array([0, 0]))
    assert loss < 1e-6


def test_argmax_invariant_to_dense_bias_shift(rng):
    model = new_cnn(("a", "b", "c"), "spin", seed=5, channels=(3, 3), pools=(2,), input_shape=(8, 6))
    x = rng.standard_normal((6, 8, 6))
    before = predict_cnn(model, x).argmax(axis=1)
    model.dense_b += 3.25
    after = predict_cnn(model, x).argmax(axis=1)
    assert np.array_equal(before, after)


def test_nan_activation_reports_block(rng):
    model = new_cnn(("a", "b"), "spin", seed=0, channels=(2, 2), pools=(), input_shape=(8, 6))
    model.blocks[1].w[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="block 2"):
        cnn_loss_and_grad(model, rng.standard_normal((2, 8, 6)), np.array([0, 1]))


def test_overflowing_activations_raise_without_warnings(rng):
    model = new_cnn(("a", "b"), "spin", seed=0, channels=(2, 2), pools=(), input_shape=(8, 6))
    model.blocks[0].w[:] = 1e300
    with pytest.raises(NumericError, match="block 1"), warnings.catch_warnings():
        warnings.simplefilter("error")
        cnn_loss_and_grad(model, rng.standard_normal((2, 8, 6)) * 1e300, np.array([0, 1]))


# --- layer-wise finite-difference checks -------------------------------------------


def _proj(rng, shape):
    return rng.standard_normal(shape)


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4) * 0.1
    r = _proj(rng, (2, 4, 6, 5))
    loss = lambda: float(np.sum(r * _conv_forward(x, w, b)[0]))
    dx, dw, db = _conv_backward(_conv_forward(x, w, b)[1], x.shape, w, r)
    assert max_rel_error(dx, fd_gradient(loss, x)) < 1e-4
    assert max_rel_error(dw, fd_gradient(loss, w)) < 1e-4
    assert max_rel_error(db, fd_gradient(loss, b)) < 1e-4


def test_batchnorm_gradients_match_fd():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 2, 4, 5)) * 2.0 + 0.5
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2) * 0.2
    r = _proj(rng, (3, 2, 4, 5))

    def loss():
        out, _ = batchnorm_train(x, gamma, beta)
        return float(np.sum(r * out))

    _, cache = batchnorm_train(x, gamma, beta)
    dx, dgamma, dbeta = batchnorm_train_backward(r, cache)
    assert max_rel_error(dx, fd_gradient(loss, x)) < 1e-4
    assert max_rel_error(dgamma, fd_gradient(loss, gamma)) < 1e-4
    assert max_rel_error(dbeta, fd_gradient(loss, beta)) < 1e-4


def test_maxpool_gradient_matches_fd():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 6, 4))
    r = _proj(rng, (2, 3, 3, 2))

    def loss():
        out, _ = maxpool2(x)
        return float(np.sum(r * out))

    out, cache = maxpool2(x)
    dx = maxpool2_backward(r, cache)
    assert max_rel_error(dx, fd_gradient(loss, x)) < 1e-4


def test_dense_and_gap_gradients_match_fd():
    rng = np.random.default_rng(13)
    model = new_cnn(("a", "b", "c"), "spin", seed=13, channels=(2,), pools=(), input_shape=(6, 4))
    x = rng.standard_normal((2, 6, 4))
    y = np.array([0, 2])
    _, grads, _ = cnn_loss_and_grad(model, x, y)
    fd_w = fd_gradient(lambda: cnn_loss_and_grad(model, x, y)[0], model.dense_w)
    fd_b = fd_gradient(lambda: cnn_loss_and_grad(model, x, y)[0], model.dense_b)
    assert max_rel_error(grads["dense_w"], fd_w) < 1e-4
    assert max_rel_error(grads["dense_b"], fd_b) < 1e-4


def test_reduced_model_all_parameters_match_fd():
    model = new_cnn(("a", "b", "c"), "surface", seed=3, channels=(2, 2), pools=(2,), input_shape=(8, 5))
    x = np.random.default_rng(42).standard_normal((2, 8, 5))
    assert model_gradcheck_worst(model, x, np.array([0, 2])) < 1e-4


# --- training ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_two_band():
    records = two_band_records(30, seed=21)
    ds = assemble_task(records, "surface")
    return mel_inputs(ds.cells), ds.labels, ds.strata, ds.classes


def test_train_determinism(small_two_band):
    mels, labels, strata, classes = small_two_band
    cfg = TrainConfig(epochs=3, batch_size=16, seed=9, task="surface")
    m1, log1 = cnn_train(mels, labels, strata, classes, cfg)
    m2, log2 = cnn_train(mels, labels, strata, classes, cfg)
    for b1, b2 in zip(m1.blocks, m2.blocks):
        assert np.array_equal(b1.w, b2.w)
        assert np.array_equal(b1.running_mean, b2.running_mean)
    assert np.array_equal(m1.dense_w, m2.dense_w)
    assert log1 == log2


def test_train_learns_separable_quickly(small_two_band):
    mels, labels, strata, classes = small_two_band
    cfg = TrainConfig(epochs=8, batch_size=16, seed=0, task="surface")
    model, log = cnn_train(mels, labels, strata, classes, cfg)
    assert max(r["val_acc"] for r in log) >= 0.9
    assert model.dense_w.dtype == np.float32


def test_train_loss_non_increasing_at_small_lr(small_two_band):
    mels, labels, strata, classes = small_two_band
    cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=1e-4, seed=2, task="surface")
    _, log = cnn_train(mels, labels, strata, classes, cfg)
    losses = [r["train_loss"] for r in log][:5]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_train_rejects_empty():
    cfg = TrainConfig(task="surface")
    with pytest.raises(DataError):
        cnn_train(np.zeros((0, 64, 7)), np.zeros(0, int), np.zeros((0, 2), int), ("a",), cfg)


def test_orchestrated_cnn_spin_training():
    from ttbounce.classify import train_task_model

    records = two_band_records(20, seed=31, surfaces=(0, 3), spins=(0, 2))
    cfg = TrainConfig(epochs=4, batch_size=16, seed=1, task="spin")
    model, log = train_task_model(records, "cnn", cfg)
    assert model.task == "spin"
    assert model.classes == ("back", "flat", "top")
    assert model.n_classes == 3
    assert len(log) <= 4


def test_singleton_stratum_stays_in_training():
    from ttbounce.classify.data import stratified_split

    labels = np.array([0, 0, 0, 1])
    strata = np.array([[0, -1], [0, -1], [0, -1], [5, -1]])
    train_idx, val_idx = stratified_split(strata, labels, 2, seed=0)
    assert set(train_idx) | set(val_idx) == {0, 1, 2, 3}
    assert 3 in train_idx


def test_stratification_error_when_class_leaves_training_split():
    # When strata do not refine the labels, a rare class can land entirely in
    # validation; that must be reported, not silently tolerated.
    from ttbounce.classify.data import stratified_split

    labels = np.array([1, 1, 1, 1, 0])
    strata = np.zeros((5, 2), dtype=int)  # one stratum for all
    failed = False
    for seed in range(40):
        try:
            stratified_split(strata, labels, 2, seed=seed)
        except DataError as exc:
            assert "training split" in str(exc)
            failed = True
            break
    assert failed, "some seed must send the rare class to validation"
