import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import gmm_scores_reference
from ttbounce.classify import TrainConfig, gmm_train, predict, train_task_model
from ttbounce.classify.gmm import VAR_FLOOR, fit_mixture, predict_gmm
from ttbounce.errors import DataError
from ttbounce.synth import gmm_blob_dataset, two_band_records


def test_single_component_recovers_mean_and_population_variance(rng):
    x = rng.standard_normal((500, 4)) * np.array([1.0, 2.0, 0.5, 3.0]) + 1.5
    w, means, variances, trace = fit_mixture(x, 1, np.random.default_rng(0))
    assert w == pytest.approx([1.0])
    # Oracle: closed-form K=1 maximum likelihood estimates.
    assert np.allclose(means[0], x.mean(axis=0), atol=1e-12)
    assert np.allclose(variances[0], np.maximum(x.var(axis=0), VAR_FLOOR), atol=1e-12)


@settings(max_examples=20)
@given(st.integers(0, 10_000))
def test_em_log_likelihood_non_decreasing(seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((120, 4)) + gen.integers(-2, 3, size=(120, 4))
    _, _, _, trace = fit_mixture(x, 3, np.random.default_rng(seed + 1))
    diffs = np.diff(trace)
    assert np.all(diffs >= -1e-9)


def test_two_component_mixture_recovery():
    truth_means = np.array([[-4.0, 0.0, 1.0], [4.0, 2.0, -1.0]])
    truth_vars = np.array([[0.5, 1.0, 0.25], [1.0, 0.5, 0.75]])
    rng = np.random.default_rng(5)
    parts = []
    for m, v in zip(truth_means, truth_vars):
        parts.append(rng.standard_normal((2500, 3)) * np.sqrt(v) + m)
    x = np.vstack(parts)[rng.permutation(5000)]
    _, means, variances, _ = fit_mixture(x, 2, np.random.default_rng(1))
    best = min(
        np.abs(means[list(perm)] - truth_means).max()
        for perm in itertools.permutations(range(2))
    )
    assert best < 0.1


def test_class_smaller_than_k_rejected(rng):
    x = rng.standard_normal((10, 3))
    y = np.array([0] * 7 + [1] * 3)
    with pytest.raises(DataError, match="tiny"):
        gmm_train(x, y, ("big", "tiny"), n_components=5, seed=0)


def test_empty_training_set_rejected(rng):
    x = rng.standard_normal((10, 3))
    with pytest.raises(DataError, match="empty training set"):
        gmm_train(x[:0], np.zeros(0, dtype=int), ("a", "b"), n_components=1, seed=0)


def test_single_class_always_predicted(rng):
    x = rng.standard_normal((30, 4))
    model, _ = gmm_train(x, np.zeros(30, dtype=int), ("only",), n_components=2, seed=0)
    pred, _ = predict(model, rng.standard_normal((10, 4)))
    assert np.all(pred == 0)


def test_extreme_scale_scores_stay_finite(rng):
    x, y = gmm_blob_dataset(50, seed=2)
    model, _ = gmm_train(x, y, ("a", "b"), n_components=2, seed=0)
    scores = predict_gmm(model, x * 1e3)
    assert np.all(np.isfinite(scores))


def test_mixture_weights_sum_to_one_and_variances_floored(rng):
    x, y = gmm_blob_dataset(60, seed=3)
    model, _ = gmm_train(x, y, ("a", "b"), n_components=4, seed=0)
    assert np.allclose(model.weights.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(model.variances >= VAR_FLOOR * (1 - 1e-6))
    assert model.priors.sum() == pytest.approx(1.0, abs=1e-6)


def test_classification_on_separable_mixture_fixture():
    x, y = gmm_blob_dataset(150, seed=7)
    model, info = gmm_train(x, y, ("a", "b"), n_components=2, seed=0)
    pred, _ = predict(model, x)
    assert np.mean(pred == y) >= 0.95
    for trace in info["log_likelihood"].values():
        assert np.all(np.diff(trace) >= -1e-9)


def test_training_is_deterministic():
    x, y = gmm_blob_dataset(80, seed=9)
    m1, _ = gmm_train(x, y, ("a", "b"), n_components=3, seed=4)
    m2, _ = gmm_train(x, y, ("a", "b"), n_components=3, seed=4)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.variances, m2.variances)
    assert np.array_equal(m1.weights, m2.weights)


@pytest.fixture(scope="module")
def thirteen_class_model():
    # Twelve observed classes and one unobserved (prior 0), like the surface task.
    x, y = gmm_blob_dataset(30, seed=11, n_classes=12)
    model, _ = gmm_train(x, y, tuple(f"c{i}" for i in range(13)), n_components=3, seed=0)
    return model


def test_batch_scores_equal_single_row_scores_bitwise(thirteen_class_model, rng):
    x = rng.standard_normal((40, 20)) * 4.0
    batch = predict_gmm(thirteen_class_model, x)
    rows = np.vstack([predict_gmm(thirteen_class_model, row) for row in x])
    assert batch.tobytes() == rows.tobytes()


def test_scores_match_per_class_scipy_oracle(thirteen_class_model, rng):
    m = thirteen_class_model
    x = rng.standard_normal((25, 20)) * 4.0
    expected = gmm_scores_reference(m.priors, m.weights, m.means, m.variances, x)
    assert np.allclose(predict_gmm(m, x), expected, rtol=1e-9, atol=1e-9)


def test_training_with_an_empty_validation_split_raises(recwarn):
    records = two_band_records(2, seed=4)  # 2 table, 2 floor: no stratum holds one out
    with pytest.raises(DataError, match="validation split is empty"):
        train_task_model(records, "gmm", TrainConfig(), gmm_components=2)
    assert not recwarn.list
