import numpy as np
import pytest

from ttbounce.classify import predict, svm_train
from ttbounce.classify.svm import hinge_objective, predict_svm
from ttbounce.errors import DataError


def _blobs(rng, n=60, margin=2.0):
    a = rng.standard_normal((n, 2)) * 0.3 + np.array([margin, 0.0])
    b = rng.standard_normal((n, 2)) * 0.3 + np.array([-margin, 0.0])
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    order = rng.permutation(len(y))
    return x[order], y[order]


def test_separable_blobs_reach_full_training_accuracy(rng):
    x, y = _blobs(rng)
    model, _ = svm_train(x, y, ("a", "b"), seed=0)
    pred, _ = predict(model, x)
    assert np.mean(pred == y) == 1.0


def test_label_flip_flips_decisions(rng):
    x, y = _blobs(rng)
    m1, _ = svm_train(x, y, ("a", "b"), seed=3)
    m2, _ = svm_train(x, 1 - y, ("a", "b"), seed=3)
    p1, _ = predict(m1, x)
    p2, _ = predict(m2, x)
    assert np.mean(p1 == (1 - p2)) == 1.0


def test_objective_beats_zero_weights(rng):
    x, y = _blobs(rng, margin=1.0)
    lam = 1e-4
    model, _ = svm_train(x, y, ("a", "b"), lam=lam, seed=1)
    for k in range(2):
        y_bin = np.where(y == k, 1.0, -1.0)
        trained = hinge_objective(
            model.weights[k].astype(np.float64), float(model.bias[k]), x, y_bin, lam
        )
        at_zero = hinge_objective(np.zeros(2), 0.0, x, y_bin, lam)
        assert trained <= at_zero
        assert at_zero == pytest.approx(1.0)


def test_single_class_rejected(rng):
    x = rng.standard_normal((10, 3))
    with pytest.raises(DataError):
        svm_train(x, np.zeros(10, dtype=int), ("only",), seed=0)


def test_empty_validation_set_rejected(rng, recwarn):
    x, y = _blobs(rng, n=5)
    with pytest.raises(DataError, match="empty validation set"):
        svm_train(x, y, ("a", "b"), seed=0, val=(x[:0], y[:0]))
    assert not recwarn.list


def test_training_is_deterministic(rng):
    x, y = _blobs(rng)
    m1, log1 = svm_train(x, y, ("a", "b"), seed=11)
    m2, log2 = svm_train(x, y, ("a", "b"), seed=11)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias, m2.bias)
    assert log1 == log2


def test_multiclass_one_vs_rest(rng):
    centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
    x = np.vstack([rng.standard_normal((40, 2)) * 0.4 + c for c in centers])
    y = np.repeat(np.arange(3), 40)
    model, _ = svm_train(x, y, ("a", "b", "c"), seed=0)
    pred, scores = predict(model, x)
    assert scores.shape == (120, 3)
    assert np.mean(pred == y) == 1.0


def test_scores_are_linear_in_features(rng):
    x, y = _blobs(rng)
    model, _ = svm_train(x, y, ("a", "b"), seed=0)
    s1 = predict_svm(model, x)
    s2 = predict_svm(model, 2 * x)
    bias = model.bias.astype(np.float64)
    assert np.allclose(s2 - bias, 2 * (s1 - bias), atol=1e-9)
