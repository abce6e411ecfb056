import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttbounce import AudioClip, DetectorConfig, FilterSpec
from ttbounce.classify import TrainConfig, assemble_task, cnn_train, mel_inputs
from ttbounce.errors import DataError, ParameterError
from ttbounce.evaluate import (
    ClassificationScore,
    DetectionScore,
    confusion_matrix,
    end_to_end,
    grid_search_detector,
    match_events,
    run_detection_benchmark,
    score_classifier,
)
from ttbounce.synth import (
    band_noise_window,
    fixture_set,
    pink_noise,
    splice_window,
    two_band_records,
)


# --- event matching ---------------------------------------------------------------


def test_identical_lists_match_perfectly():
    events = [0.1, 0.5, 0.9]
    score = match_events(events, events)
    assert score.precision == 1.0 and score.recall == 1.0
    assert score.onset_errors_ms == (0.0, 0.0, 0.0)


def test_empty_predictions_precision_vacuous():
    score = match_events([], [0.1, 0.2])
    assert score.precision == 1.0
    assert score.precision_vacuous
    assert score.recall == 0.0
    assert score.matched == 0 and score.missed == 2


def test_hand_enumerated_greedy_matching():
    # truth {100 ms}, predictions {100.2 ms, 140 ms}
    score = match_events([0.1002, 0.140], [0.100], tolerance_ms=5.0)
    assert score.matched == 1
    assert score.spurious == 1
    assert score.precision == pytest.approx(0.5)
    assert score.recall == pytest.approx(1.0)
    assert score.onset_errors_ms[0] == pytest.approx(0.2, abs=1e-9)


def test_unsorted_inputs_rejected():
    with pytest.raises(ParameterError):
        match_events([0.5, 0.1], [0.2])
    with pytest.raises(ParameterError):
        match_events([0.1], [0.5, 0.2])


@settings(max_examples=40)
@given(st.lists(st.floats(0, 10), max_size=12), st.lists(st.floats(0, 10), max_size=12))
def test_matching_self_is_perfect(pred, truth):
    events = sorted(set(round(p, 4) for p in pred))
    score = match_events(events, events)
    assert score.matched == len(events)
    assert score.missed == 0 and score.spurious == 0


@settings(max_examples=40)
@given(
    st.lists(st.floats(0, 5), max_size=10),
    st.lists(st.floats(0, 5), max_size=10),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_tolerance_monotonicity(pred, truth, tol, factor):
    pred, truth = sorted(pred), sorted(truth)
    a = match_events(pred, truth, tolerance_ms=tol).matched
    b = match_events(pred, truth, tolerance_ms=tol * factor).matched
    assert b >= a


# --- classification metrics --------------------------------------------------------


def test_perfect_classifier_metrics():
    cm = np.diag([5, 3, 7])
    score = ClassificationScore(confusion=cm, class_names=("a", "b", "c"))
    assert np.all(score.per_class_f1 == 1.0)
    assert score.macro_f1 == 1.0
    assert score.accuracy == 1.0


def test_constant_classifier_closed_form():
    # Balanced 3-class set, everything predicted as class 0.
    cm = np.array([[10, 0, 0], [10, 0, 0], [10, 0, 0]])
    score = ClassificationScore(confusion=cm, class_names=("a", "b", "c"))
    assert score.accuracy == pytest.approx(1 / 3)
    # class 0: P=1/3, R=1 -> F1=1/2; others 0 -> macro 1/6
    assert score.macro_f1 == pytest.approx(1 / 6)
    assert score.micro_f1 == pytest.approx(1 / 3)


def test_confusion_row_sums_are_class_counts(rng):
    y_true = rng.integers(0, 4, 200)
    y_pred = rng.integers(0, 4, 200)
    cm = confusion_matrix(y_true, y_pred, 4)
    assert np.array_equal(cm.sum(axis=1), np.bincount(y_true, minlength=4))


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_micro_f1_equals_accuracy_and_macro_bounded(seed):
    gen = np.random.default_rng(seed)
    n_classes = int(gen.integers(2, 6))
    y_true = gen.integers(0, n_classes, 100)
    y_pred = gen.integers(0, n_classes, 100)
    score = ClassificationScore(
        confusion=confusion_matrix(y_true, y_pred, n_classes),
        class_names=tuple(str(i) for i in range(n_classes)),
    )
    acc = float(np.mean(y_true == y_pred))
    assert score.micro_f1 == pytest.approx(acc)
    assert score.micro_precision == pytest.approx(score.micro_recall)
    f1s = score.per_class_f1[score.support > 0]
    assert f1s.min() - 1e-12 <= score.macro_f1 <= f1s.max() + 1e-12


def test_empty_test_set_rejected(rng):
    from ttbounce.classify import new_cnn
    from ttbounce.classify.cnn import finalize_float32

    model = finalize_float32(new_cnn(("a", "b"), "spin", channels=(2,), pools=(), input_shape=(8, 6)))
    with pytest.raises(DataError):
        score_classifier(model, np.zeros((0, 8, 6)), np.zeros(0, int))


# --- detector benchmark ----------------------------------------------------------------


def test_zero_fixtures_empty_score():
    score = run_detection_benchmark([], DetectorConfig(), FilterSpec())
    assert score.matched == score.missed == score.spurious == 0
    assert math.isnan(score.mean_abs_onset_error_ms)


def test_benchmark_on_clean_fixtures():
    score = run_detection_benchmark(fixture_set(10, seed=33), DetectorConfig(), FilterSpec())
    assert score.recall == 1.0
    assert score.precision == 1.0


def test_grid_search_singleton_returns_that_config():
    fixtures = fixture_set(3, seed=1)
    best, rows = grid_search_detector(fixtures, [0.995], [8.0])
    assert best.gamma == 0.995 and best.threshold_multiplier == 8.0
    assert len(rows) == 1


def test_grid_search_row_count_and_dominated_config():
    fixtures = fixture_set(4, seed=2)
    best1, rows1 = grid_search_detector(fixtures, [0.99, 0.995], [6.0, 8.0])
    assert len(rows1) == 4
    # A multiplier far above any event's energy ratio detects nothing and
    # must never win.
    best2, rows2 = grid_search_detector(fixtures, [0.99, 0.995], [6.0, 8.0, 1e9])
    assert len(rows2) == 6
    assert (best2.gamma, best2.threshold_multiplier) == (best1.gamma, best1.threshold_multiplier)
    dead = [r for r in rows2 if r.threshold_multiplier == 1e9]
    assert dead[0].recall == 0.0


def test_grid_search_empty_grid_rejected():
    with pytest.raises(ParameterError):
        grid_search_detector([], [], [8.0])


# --- end to end -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_surface_model():
    records = two_band_records(40, seed=13, surfaces=(10, 11))  # table vs floor
    ds = assemble_task(records, "surface")
    cfg = TrainConfig(epochs=6, batch_size=16, seed=1, task="surface")
    model, _ = cnn_train(mel_inputs(ds.cells), ds.labels, ds.strata, ds.classes, cfg)
    return model


def test_silent_recording_empty_annotations(tiny_surface_model):
    clip = AudioClip(samples=np.zeros(44100), sample_rate=44100)
    events = end_to_end(clip, DetectorConfig(), FilterSpec(), tiny_surface_model)
    assert events == []


def test_spliced_window_gets_its_source_class(tiny_surface_model, rng):
    base = AudioClip(samples=pink_noise(44100, rng, 1e-5), sample_rate=44100)
    hits = 0
    for i in range(6):
        gen = np.random.default_rng(500 + i)
        window = band_noise_window(gen, (14000.0, 16000.0))  # the "floor" class band
        clip = splice_window(base, window, 20000)
        events = end_to_end(clip, DetectorConfig(), FilterSpec(), tiny_surface_model)
        assert len(events) == 1
        hits += events[0].surface == "floor"
        assert events[0].spin is None  # no racket surface, no spin model
    assert hits >= 5


def test_annotations_strictly_increasing(tiny_surface_model, rng):
    base = AudioClip(samples=pink_noise(44100, rng, 1e-5), sample_rate=44100)
    clip = base
    for at in (8000, 20000, 33000):
        gen = np.random.default_rng(at)
        clip = splice_window(clip, band_noise_window(gen, (14000.0, 16000.0)), at)
    events = end_to_end(clip, DetectorConfig(), FilterSpec(), tiny_surface_model)
    onsets = [e.onset_s for e in events]
    assert len(onsets) == 3
    assert all(b > a for a, b in zip(onsets, onsets[1:]))


def test_spin_predicted_only_for_racket_surfaces(rng):
    records = two_band_records(40, seed=17, surfaces=(0, 10), spins=(1, -1))  # racket_01 vs table
    ds = assemble_task(records, "surface")
    cfg = TrainConfig(epochs=6, batch_size=16, seed=2, task="surface")
    surface_model, _ = cnn_train(mel_inputs(ds.cells), ds.labels, ds.strata, ds.classes, cfg)

    spin_records = two_band_records(
        40, seed=19, surfaces=(0, 0), spins=(0, 2), bands=((1500.0, 2500.0), (14000.0, 16000.0))
    )
    spin_ds = assemble_task(spin_records, "spin")
    spin_cfg = TrainConfig(epochs=6, batch_size=16, seed=3, task="spin")
    spin_model, _ = cnn_train(
        mel_inputs(spin_ds.cells), spin_ds.labels, spin_ds.strata, spin_ds.classes, spin_cfg
    )

    base = AudioClip(samples=pink_noise(44100, rng, 1e-5), sample_rate=44100)
    racket_clip = splice_window(base, band_noise_window(np.random.default_rng(0), (1500.0, 2500.0)), 20000)
    events = end_to_end(racket_clip, DetectorConfig(), FilterSpec(), surface_model, spin_model)
    assert len(events) == 1
    if events[0].surface == "racket_01":
        assert events[0].spin in ("back", "flat", "top")
    else:
        assert events[0].spin is None


def test_match_events_scores_end_to_end_annotations(tiny_surface_model):
    fx = fixture_set(1, seed=3, n_clicks=4)[0]
    annotated = end_to_end(fx.clip, DetectorConfig(), FilterSpec(), tiny_surface_model)
    score = match_events(annotated, fx.onsets_s)
    assert (score.matched, score.missed, score.spurious) == (4, 0, 0)
    assert match_events(annotated, annotated).onset_errors_ms == (0.0,) * 4
