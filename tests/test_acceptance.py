"""Acceptance gate: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -v -s``)."""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import freqz_sos

from oracles import fd_gradient, max_rel_error, model_gradcheck_worst
from ttbounce import (
    AudioClip,
    DetectorConfig,
    FilterSpec,
    design_butterworth_highpass,
    detect_bounces,
    filter_zero_phase,
    write_feature_file,
    write_wav,
)
from ttbounce.classify import (
    TrainConfig,
    assemble_task,
    cnn_train,
    features_for_model,
    flat_inputs,
    gmm_train,
    load_model,
    mel_inputs,
    predict,
    save_model,
    stratified_split,
    svm_train,
    train_task_model,
)
from ttbounce.classify.cnn import (
    batchnorm_train,
    _conv_backward,
    _conv_forward,
    batchnorm_train_backward,
    maxpool2,
    maxpool2_backward,
    new_cnn,
)
from ttbounce.classify.gmm import fit_mixture
from ttbounce.cli import main
from ttbounce.errors import FormatError
from ttbounce.evaluate import run_detection_benchmark, score_classifier
from ttbounce.synth import (
    damped_tone,
    fixture_set,
    gmm_blob_dataset,
    pink_noise,
    speech_band_noise,
    two_band_records,
)

FS = 44100


@pytest.fixture(scope="module")
def clean_fixtures():
    return fixture_set(50, seed=7)


def test_c01_detector_clean(clean_fixtures):
    t0 = time.perf_counter()
    score = run_detection_benchmark(clean_fixtures, DetectorConfig(), FilterSpec())
    elapsed = time.perf_counter() - t0
    assert score.precision >= 0.98
    assert score.recall >= 0.98
    assert score.mean_abs_onset_error_ms <= 0.5
    assert elapsed <= 10.0
    print(
        f"\n[C1] PASS detector/clean: precision={score.precision:.3f} "
        f"recall={score.recall:.3f} mean|err|={score.mean_abs_onset_error_ms:.3f} ms "
        f"median={score.median_abs_onset_error_ms:.3f} ms ({elapsed:.1f}s)"
    )


def test_c02_detector_noisy(clean_fixtures):
    noise = speech_band_noise(2 * FS, FS, np.random.default_rng(123), rms=0.1)
    t0 = time.perf_counter()
    score = run_detection_benchmark(
        clean_fixtures, DetectorConfig(), FilterSpec(), noise=(noise, 10.0)
    )
    elapsed = time.perf_counter() - t0
    assert score.precision >= 0.95
    assert score.recall >= 0.90
    assert score.mean_abs_onset_error_ms <= 1.0
    assert elapsed <= 10.0
    print(
        f"\n[C2] PASS detector/noisy@10dB: precision={score.precision:.3f} "
        f"recall={score.recall:.3f} mean|err|={score.mean_abs_onset_error_ms:.3f} ms ({elapsed:.1f}s)"
    )


def test_c03_realtime_margin():
    rng = np.random.default_rng(5)
    x = pink_noise(60 * FS, rng, 5e-4)
    onsets = list(range(FS // 2, 60 * FS - FS, FS))
    for onset in onsets:
        burst = damped_tone(FS, amp=0.5)
        x[onset : onset + burst.size] += burst
    clip = AudioClip(samples=np.clip(x, -1, 1), sample_rate=FS)
    t0 = time.perf_counter()
    events = detect_bounces(clip, DetectorConfig(), FilterSpec())
    elapsed = time.perf_counter() - t0
    assert len(events) == len(onsets)
    assert elapsed <= 6.0
    print(f"\n[C3] PASS realtime: 60 s audio in {elapsed:.2f}s ({60/elapsed:.0f}x real time)")


def test_c04_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = {}

    x = rng.standard_normal((2, 3, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4) * 0.1
    r = rng.standard_normal((2, 4, 6, 5))
    loss = lambda: float(np.sum(r * _conv_forward(x, w, b)[0]))
    dx, dw, db = _conv_backward(_conv_forward(x, w, b)[1], x.shape, w, r)
    worst["conv"] = max(
        max_rel_error(dx, fd_gradient(loss, x)),
        max_rel_error(dw, fd_gradient(loss, w)),
        max_rel_error(db, fd_gradient(loss, b)),
    )

    xb = rng.standard_normal((3, 2, 4, 5)) * 2.0 + 0.5
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2) * 0.2
    rb = rng.standard_normal((3, 2, 4, 5))

    def bn_loss():
        out, _ = batchnorm_train(xb, gamma, beta)
        return float(np.sum(rb * out))

    _, cache = batchnorm_train(xb, gamma, beta)
    dxb, dgamma, dbeta = batchnorm_train_backward(rb, cache)
    worst["batchnorm"] = max(
        max_rel_error(dxb, fd_gradient(bn_loss, xb)),
        max_rel_error(dgamma, fd_gradient(bn_loss, gamma)),
        max_rel_error(dbeta, fd_gradient(bn_loss, beta)),
    )

    xp = rng.standard_normal((2, 3, 6, 4))
    rp = rng.standard_normal((2, 3, 3, 2))

    def pool_loss():
        out, _ = maxpool2(xp)
        return float(np.sum(rp * out))

    _, pcache = maxpool2(xp)
    worst["maxpool"] = max_rel_error(maxpool2_backward(rp, pcache), fd_gradient(pool_loss, xp))

    dense = new_cnn(("a", "b", "c"), "spin", seed=13, channels=(2,), pools=(), input_shape=(6, 4))
    from ttbounce.classify import cnn_loss_and_grad

    xd = rng.standard_normal((2, 6, 4))
    yd = np.array([0, 2])
    _, grads, _ = cnn_loss_and_grad(dense, xd, yd)
    worst["dense"] = max(
        max_rel_error(grads["dense_w"], fd_gradient(lambda: cnn_loss_and_grad(dense, xd, yd)[0], dense.dense_w)),
        max_rel_error(grads["dense_b"], fd_gradient(lambda: cnn_loss_and_grad(dense, xd, yd)[0], dense.dense_b)),
    )

    reduced = new_cnn(("a", "b", "c"), "surface", seed=3, channels=(2, 2), pools=(2,), input_shape=(8, 5))
    worst["reduced-2block"] = model_gradcheck_worst(
        reduced, np.random.default_rng(42).standard_normal((2, 8, 5)), np.array([0, 2])
    )

    composed = new_cnn(
        ("a", "b", "c"), "surface", seed=2, channels=(2, 2, 3, 3, 4, 4), pools=(2, 4), input_shape=(16, 7)
    )
    worst["composed-6block"] = model_gradcheck_worst(
        composed, np.random.default_rng(102).standard_normal((2, 16, 7)), np.array([1, 2])
    )

    elapsed = time.perf_counter() - t0
    assert all(v < 1e-4 for v in worst.values()), worst
    assert elapsed <= 60.0
    summary = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    print(f"\n[C4] PASS gradients: {summary} ({elapsed:.1f}s)")


def test_c05_em_monotonicity():
    t0 = time.perf_counter()
    for seed in range(20):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((150, 5)) + gen.integers(-3, 4, size=(150, 5))
        _, _, _, trace = fit_mixture(x, 4, np.random.default_rng(seed + 1000))
        assert np.all(np.diff(trace) >= -1e-9), f"seed {seed} decreased"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    print(f"\n[C5] PASS EM monotonicity: 20 datasets, slack 1e-9 ({elapsed:.1f}s)")


def test_c06_separable_fixture_learning():
    t0 = time.perf_counter()
    records = two_band_records(200, seed=5)
    ds = assemble_task(records, "surface")
    cfg = TrainConfig(epochs=20, batch_size=32, learning_rate=1e-3, seed=0, task="surface")
    cnn_model, cnn_log = cnn_train(mel_inputs(ds.cells), ds.labels, ds.strata, ds.classes, cfg)
    cnn_acc = max(r["val_acc"] for r in cnn_log)
    assert cnn_acc >= 0.98

    train_idx, val_idx = stratified_split(ds.strata, ds.labels, 0)
    flat = flat_inputs(ds.cells)
    svm_model, _ = svm_train(flat[train_idx], ds.labels[train_idx], ds.classes, seed=0)
    svm_pred, _ = predict(svm_model, flat[val_idx])
    svm_acc = float(np.mean(svm_pred == ds.labels[val_idx]))
    assert svm_acc >= 0.98

    gx, gy = gmm_blob_dataset(200, seed=11)
    gmm_model, _ = gmm_train(gx, gy, ("a", "b"), n_components=2, seed=0)
    gmm_pred, _ = predict(gmm_model, gx)
    gmm_acc = float(np.mean(gmm_pred == gy))
    assert gmm_acc >= 0.95

    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    print(
        f"\n[C6] PASS separable fixtures: cnn={cnn_acc:.3f} svm={svm_acc:.3f} "
        f"gmm={gmm_acc:.3f} ({elapsed:.1f}s)"
    )


@pytest.mark.skipif(
    "TTSOUNDS_FEATURES" not in os.environ,
    reason="public dataset features not available (set TTSOUNDS_FEATURES to a "
    "TTFE1 file made from the full dataset manifest)",
)
def test_c07_dataset_reproduction():
    from ttbounce import read_feature_file

    t0 = time.perf_counter()
    records = read_feature_file(os.environ["TTSOUNDS_FEATURES"])
    results = {}
    for task in ("surface", "spin"):
        ds = assemble_task(records, task)
        cfg = TrainConfig(task=task, seed=0)
        _, val_idx = stratified_split(ds.strata, ds.labels, cfg.seed)
        for method in ("cnn", "svm", "gmm"):
            model, _ = train_task_model(records, method, cfg)
            feats = features_for_model(model, ds.cells[val_idx])
            score = score_classifier(model, feats, ds.labels[val_idx])
            results[(task, method)] = score.macro_f1
    for task in ("surface", "spin"):
        cnn_f1 = results[(task, "cnn")]
        assert cnn_f1 >= 0.85, results
        assert results[(task, "svm")] >= cnn_f1 - 0.10, results
        assert results[(task, "gmm")] <= 0.5, results
    elapsed = time.perf_counter() - t0
    assert elapsed <= 1800.0
    print(f"\n[C7] PASS dataset reproduction: {results} ({elapsed:.0f}s)")


def test_c08_filter_spec(rng):
    sos = design_butterworth_highpass(FilterSpec())
    mag_db = lambda f: 20.0 * np.log10(np.abs(freqz_sos(sos, worN=[f], fs=FS)[1]))[0]
    at_cut = mag_db(10000.0)
    assert at_cut == pytest.approx(-3.0103, abs=0.05)
    low = max(mag_db(f) for f in (100.0, 500.0, 1000.0, 2000.0, 2500.0))
    assert low <= -60.0
    high = min(mag_db(f) for f in (18000.0, 19000.0, 20000.0, 21000.0, 22000.0))
    assert high >= -0.5
    half = rng.standard_normal(400) * np.hanning(800)[:400]
    half[:200] = 0.0
    x = np.concatenate([half, half[::-1]])
    y = filter_zero_phase(sos, AudioClip(samples=x, sample_rate=FS)).samples
    asym = float(np.max(np.abs(y - y[::-1])))
    assert asym < 1e-9
    print(
        f"\n[C8] PASS filter: {at_cut:.3f} dB @10k, <=-60 dB low ({low:.1f}), "
        f">=-0.5 dB high ({high:.2f}), symmetry {asym:.1e}"
    )


def test_c09_serialization_roundtrips(tmp_path):
    from test_model_io import _random_models

    t0 = time.perf_counter()
    models = _random_models(100, seed=77)
    for i, (model, feats) in enumerate(models):
        path = tmp_path / f"m{i}.ttsb"
        save_model(model, path)
        loaded = load_model(path)
        _, before = predict(model, feats)
        _, after = predict(loaded, feats)
        assert np.array_equal(before, after), f"model {i} drifted"
    # Corruption must always be rejected with a format error.
    reference = tmp_path / "m0.ttsb"
    raw = reference.read_bytes()
    corruptions = [raw[:3], b"XXXXX" + raw[5:], raw[:-7], raw[:20] + b"\xff" * 4 + raw[24:]]
    rejected = 0
    for j, blob in enumerate(corruptions):
        bad = tmp_path / f"bad{j}.ttsb"
        bad.write_bytes(blob)
        try:
            load_model(bad)
        except FormatError:
            rejected += 1
    assert rejected == len(corruptions)
    elapsed = time.perf_counter() - t0
    print(f"\n[C9] PASS serialization: 100 round-trips bit-identical, "
          f"{rejected}/{len(corruptions)} corruptions rejected ({elapsed:.1f}s)")


def test_c10_determinism(tmp_path, capsys):
    from ttbounce.synth import click_fixture

    t0 = time.perf_counter()
    fx = click_fixture(seed=4, n_clicks=2)
    wav = tmp_path / "fx.wav"
    write_wav(wav, fx.clip)
    feats = tmp_path / "feats.ttfe"
    write_feature_file(feats, two_band_records(20, seed=6))

    artifacts = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert main(["detect", str(wav), "--seed", "3", "--out", str(d / "events.csv")]) == 0
        assert (
            main([
                "train", str(feats), "--task", "surface", "--method", "cnn",
                "--epochs", "3", "--seed", "3", "--out", str(d / "cnn.ttsb"),
            ])
            == 0
        )
        assert (
            main([
                "train", str(feats), "--task", "surface", "--method", "svm",
                "--seed", "3", "--out", str(d / "svm.ttsb"),
            ])
            == 0
        )
        assert main(["eval", str(d / "cnn.ttsb"), str(feats), "--out", str(d / "report.txt")]) == 0
    capsys.readouterr()
    names = ["events.csv", "cnn.ttsb", "cnn.ttsb.log.csv", "svm.ttsb", "report.txt",
             "report.txt.confusion.csv"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    elapsed = time.perf_counter() - t0
    print(f"\n[C10] PASS determinism: {len(names)} artifacts byte-identical ({elapsed:.1f}s)")
