"""Row-exact ``predict`` for every family, and the batched ``end_to_end``
against the per-event loop it replaced, bit for bit."""

import numpy as np
import pytest

from oracles import end_to_end_reference
from ttbounce import AudioClip, DetectorConfig, FilterSpec
from ttbounce import evaluate
from ttbounce.classify import METHODS, TrainConfig, features_for_model, predict, train_task_model
from ttbounce.errors import DataError
from ttbounce.evaluate import end_to_end
from ttbounce.features import N_FRAMES, N_MELS, WINDOW_LEN, log_mel
from ttbounce.synth import band_noise_window, click_fixture, pink_noise, splice_window, two_band_records

RACKET_BAND = (1500.0, 2500.0)  # racket_01 in the surface models below
TABLE_BAND = (14000.0, 16000.0)


@pytest.fixture(scope="module")
def models():
    """(surface, spin) models per family, trained on separable two-band windows."""
    surface = two_band_records(30, seed=31, surfaces=(0, 10), bands=(RACKET_BAND, TABLE_BAND))
    spin = two_band_records(30, seed=32, surfaces=(0, 0), spins=(0, 2),
                            bands=(RACKET_BAND, (6000.0, 8000.0)))
    out = {}
    for fam in METHODS:
        out[fam] = tuple(
            train_task_model(records, fam, TrainConfig(epochs=3, batch_size=16, seed=1, task=task),
                             svm_epochs=5)[0]
            for records, task in ((surface, "surface"), (spin, "spin"))
        )
    return out


def _clip(bands: tuple) -> AudioClip:
    """Two seconds of quiet pink noise with one band-noise bounce every 0.3 s."""
    rate = 44100
    clip = AudioClip(samples=pink_noise(2 * rate, np.random.default_rng(7), 1e-5), sample_rate=rate)
    for k, band in enumerate(bands):
        window = band_noise_window(np.random.default_rng(100 + k), band)
        clip = splice_window(clip, window, int((0.2 + 0.3 * k) * rate))
    return clip


CLIPS = {
    "silent": AudioClip(samples=np.zeros(44100), sample_rate=44100),
    "mixed": _clip((RACKET_BAND, TABLE_BAND, RACKET_BAND, RACKET_BAND, TABLE_BAND)),
    "no_racket": _clip((TABLE_BAND,) * 4),
}


@pytest.mark.parametrize("n", (0, 1, 7, 8, 9, 33))
@pytest.mark.parametrize("family", METHODS)
def test_batch_row_has_the_bits_of_a_lone_window(models, family, n):
    model = models[family][0]
    windows = np.random.default_rng(n).standard_normal((33, WINDOW_LEN))
    x = features_for_model(model, log_mel(windows))[:n]
    ids, scores = predict(model, x)
    assert scores.shape == (n, model.n_classes)
    for i in range(n):
        one_ids, one = predict(model, x[i])
        assert scores[i].tobytes() == one[0].tobytes()
        assert ids[i] == one_ids[0]


@pytest.mark.parametrize("family", METHODS)
def test_empty_batch_of_raw_cells(models, family):
    model = models[family][0]
    ids, scores = predict(model, features_for_model(model, np.zeros((0, N_MELS, N_FRAMES))))
    assert ids.shape == (0,) and scores.shape == (0, model.n_classes)


@pytest.mark.parametrize("clip", sorted(CLIPS))
@pytest.mark.parametrize("family", METHODS)
def test_end_to_end_equals_per_event_loop(models, family, clip):
    args = (CLIPS[clip], DetectorConfig(), FilterSpec(), *models[family])
    got, want = end_to_end(*args), end_to_end_reference(*args)
    assert len(got) == len(want) == {"silent": 0, "mixed": 5, "no_racket": 4}[clip]
    for g, w in zip(got, want):
        assert (g.onset_sample, g.onset_s, g.surface, g.spin) == (w.onset_sample, w.onset_s, w.surface, w.spin)
        assert g.surface_scores.tobytes() == w.surface_scores.tobytes()
        assert g.spin_scores is None if w.spin_scores is None else g.spin_scores.tobytes() == w.spin_scores.tobytes()
    surfaces = [e.surface for e in got]
    if clip == "mixed":  # both branches of the spin selection are taken
        assert surfaces == ["racket_01", "table", "racket_01", "racket_01", "table"]
    if clip == "no_racket":
        assert surfaces == ["table"] * 4


@pytest.mark.parametrize("family", METHODS)
def test_one_predict_per_model_per_clip(models, family, monkeypatch):
    calls = []
    real = evaluate.predict

    def counting(model, features):
        calls.append((model.task, len(features)))
        return real(model, features)

    monkeypatch.setattr(evaluate, "predict", counting)
    for clip, spin_rows in (("mixed", 3), ("no_racket", 0)):
        calls.clear()
        events = end_to_end(CLIPS[clip], DetectorConfig(), FilterSpec(), *models[family])
        assert calls == [("surface", len(events))] + ([("spin", spin_rows)] if spin_rows else [])
        assert sum(e.spin is not None for e in events) == spin_rows


def test_other_rate_clip_with_a_bounce_is_refused(models):
    clip = click_fixture(seed=8, n_clicks=1, sample_rate=48000).clip
    with pytest.raises(DataError, match="48000"):  # exit code 3 from the CLI
        end_to_end(clip, DetectorConfig(), FilterSpec(), *models["cnn"])
