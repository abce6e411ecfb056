"""Desk-scale rehearsal of the full-dataset workflow.

Builds a synthetic 13-class corpus (one noise band per surface class,
spin labels on racket classes), then runs the same assemble / split /
train / score path the dataset-reproduction criterion uses, for every
method and both tasks.
"""

import numpy as np
import pytest

from ttbounce.classify import (
    TrainConfig,
    assemble_task,
    features_for_model,
    stratified_split,
    train_task_model,
)
from ttbounce.evaluate import score_classifier
from ttbounce.features import FeatureRecord, log_mel
from ttbounce.synth import band_noise_window


def _corpus(per_class=24, seed=0, spin_markers=False):
    """13 surface classes at distinct center bands. With ``spin_markers``
    racket rows add a tone in one of three fixed high bands so the spin
    task is separable; without them the surface task stays unimodal."""
    rng = np.random.default_rng(seed)
    spin_bands = ((17000.0, 17400.0), (18500.0, 18900.0), (20000.0, 20400.0))
    records = []
    for surface in range(13):
        lo = 1000.0 + 1200.0 * surface
        for i in range(per_class):
            window = band_noise_window(rng, (lo, lo + 400.0), pre_onset=44)
            spin = -1
            if surface <= 9:
                spin = i % 3
                if spin_markers:
                    marker = band_noise_window(rng, spin_bands[spin], pre_onset=44)
                    window = window + 0.7 * marker
            records.append(
                FeatureRecord(
                    surface=surface, spin=spin, cells=log_mel(window).astype(np.float32)
                )
            )
    return records


@pytest.fixture(scope="module")
def surface_corpus():
    return _corpus()


@pytest.fixture(scope="module")
def spin_corpus():
    return _corpus(spin_markers=True)


def _held_out_score(corpus, model, task, seed=0):
    ds = assemble_task(corpus, task)
    _, val_idx = stratified_split(ds.strata, ds.labels, seed)
    return (
        score_classifier(model, features_for_model(model, ds.cells[val_idx]), ds.labels[val_idx]),
        val_idx,
    )


@pytest.mark.parametrize("method", ["svm", "gmm"])
def test_baseline_methods_surface(surface_corpus, method):
    cfg = TrainConfig(task="surface", seed=0)
    model, _ = train_task_model(surface_corpus, method, cfg, gmm_components=4)
    score, val_idx = _held_out_score(surface_corpus, model, "surface")
    assert score.confusion.sum() == len(val_idx)
    assert score.accuracy >= 0.8, f"{method}/surface: {score.accuracy}"
    assert len(model.classes) == 13


@pytest.mark.parametrize("method", ["svm", "gmm"])
def test_baseline_methods_spin(spin_corpus, method):
    cfg = TrainConfig(task="spin", seed=0)
    model, _ = train_task_model(spin_corpus, method, cfg, gmm_components=4)
    score, _ = _held_out_score(spin_corpus, model, "spin")
    assert score.accuracy >= 0.8, f"{method}/spin: {score.accuracy}"
    assert model.classes == ("back", "flat", "top")


def test_cnn_thirteen_way_surface(surface_corpus):
    cfg = TrainConfig(task="surface", seed=0, epochs=8)
    model, _ = train_task_model(surface_corpus, "cnn", cfg)
    score, val_idx = _held_out_score(surface_corpus, model, "surface")
    ds = assemble_task(surface_corpus, "surface")
    assert score.accuracy >= 0.8, score.accuracy
    assert np.array_equal(
        score.confusion.sum(axis=1), np.bincount(ds.labels[val_idx], minlength=13)
    )
