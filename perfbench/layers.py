"""Which calls get spans in a traced run, and the per-layer metrics they give.

Spans wrap the public functions of ``audio_io``, ``detect``, ``features``,
``classify``, ``classify.model_io`` and ``evaluate`` where ``cli`` and
``evaluate`` look them up, so a plain ``cli.main`` call is decomposed
into its layers. The batch scan has no public entry point of its own: it
is ``detect_bounces`` minus a separate ``filter_zero_phase`` call on the
same clip, which ``rally_run`` makes in its traced units.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import ttbounce.cli
import ttbounce.detect
import ttbounce.evaluate

from tracing import Tracer, duration_ns

FAMILY = {"CnnModel": "cnn", "SvmModel": "svm", "GmmModel": "gmm"}
FAMILIES = ("cnn", "svm", "gmm")


def _family(model) -> str:
    return FAMILY[type(model).__name__]


def install(tracer: Tracer) -> None:
    cli, det, ev = ttbounce.cli, ttbounce.detect, ttbounce.evaluate
    wraps = [
        (cli, "load_wav", "audio_io.load_wav",
         lambda a, k, r: {"bytes": Path(a[0]).stat().st_size, "audio_s": r.duration_s}),
        (cli, "load_model", "model_io.load_model", lambda a, k, r: {"family": _family(r)}),
        (cli, "save_model", "model_io.save_model",
         lambda a, k, r: {"family": _family(a[0]), "bytes": Path(a[1]).stat().st_size}),
        (cli, "train_task_model", "classify.train_task_model",
         lambda a, k, r: {"family": a[1], "epochs": len(r[1])}),
        (cli, "read_feature_file", "features.read_feature_file", None),
        (cli, "write_feature_file", "features.write_feature_file", None),
        (cli, "log_mel", "features.log_mel", None),
        (cli, "features_for_model", "classify.features_for_model", None),
        (cli, "end_to_end", "evaluate.end_to_end", None),
        (cli, "score_classifier", "evaluate.score_classifier", None),
        # cli calls det.extract_window; nothing inside detect calls it.
        (det, "extract_window", "detect.extract_window", None),
        (ev, "detect_bounces", "detect.detect_bounces",
         lambda a, k, r: {"audio_s": a[0].duration_s}),
        (ev, "extract_window", "detect.extract_window", None),
        (ev, "log_mel", "features.log_mel", None),
        (ev, "features_for_model", "classify.features_for_model",
         lambda a, k, r: {"family": _family(a[0])}),
        (ev, "predict", "classify.predict",
         lambda a, k, r: {"family": _family(a[0]), "task": a[0].task, "n": len(r[0])}),
    ]
    for module, attr, name, describe in wraps:
        tracer.wrap(module, attr, name, describe)


def _med(values, scale: float) -> float:
    return float(np.median(values)) * scale if len(values) else float("nan")


def metrics(tracer: Tracer, rally, live, corpus) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run and the workloads' counts."""
    select = tracer.select

    def command(s: list) -> str:
        return tracer.root(s)[5].get("command", "")

    m: dict[str, tuple[float, str]] = {}
    loads = [s for s in select("audio_io.load_wav") if command(s) == "run"]
    m["audio_io.load_wav.ms_per_audio_s"] = (
        1e-6 * sum(map(duration_ns, loads)) / sum(s[5]["audio_s"] for s in loads), "ms/s")
    m["audio_io.bytes_decoded"] = (float(rally.counts.get("bytes", 0) + corpus.counts.get("bytes", 0)), "bytes")
    audio = sum(a for _, _, a in rally.scans)
    m["detect.filter_zero_phase.ms_per_audio_s"] = (1e-6 * sum(f for _, f, _ in rally.scans) / audio, "ms/s")
    m["detect.scan.ms_per_audio_s"] = (1e-6 * sum(d - f for d, f, _ in rally.scans) / audio, "ms/s")

    frames = [duration_ns(s) for s in select("detect.process_frame")]
    m["detect.process_frame.us_p50"] = (float(np.percentile(frames, 50)) / 1e3, "us")
    m["detect.process_frame.us_p99"] = (float(np.percentile(frames, 99)) / 1e3, "us")
    m["detect.extract_window.us"] = (_med([duration_ns(s) for s in select("detect.extract_window")], 1e-3), "us")
    for key in ("frames", "events", "events_matched"):
        m[f"detect.{key}"] = (float(rally.counts.get(key, 0) + live.counts.get(key, 0)), "count")
    m["detect.onset_bias_abs_ms"] = (abs(rally.onset_bias_ms), "ms")

    m["features.log_mel.us"] = (_med([duration_ns(s) for s in select("features.log_mel")], 1e-3), "us")
    m["features.write_feature_file.ms"] = (
        _med([duration_ns(s) for s in select("features.write_feature_file")], 1e-6), "ms")
    m["features.read_feature_file.ms"] = (
        _med([duration_ns(s) for s in select("features.read_feature_file")], 1e-6), "ms")

    for fam in FAMILIES:
        per_event = select("classify.features_for_model", parent="evaluate.end_to_end", family=fam)
        m[f"classify.features_for_model.us.{fam}"] = (_med([duration_ns(s) for s in per_event], 1e-3), "us")
        one = select("classify.predict", parent="evaluate.end_to_end", family=fam)
        m[f"classify.predict_one.us.{fam}"] = (_med([duration_ns(s) for s in one], 1e-3), "us")
        batch = select("classify.predict", parent="evaluate.score_classifier", family=fam)
        m[f"classify.predict_batch.us_per_window.{fam}"] = (
            _med([duration_ns(s) / s[5]["n"] for s in batch], 1e-3), "us")
        m[f"classify.train_task_model.s.{fam}"] = (_med(
            [duration_ns(s) for s in select("classify.train_task_model", family=fam)], 1e-9), "s")
    for fam in ("cnn", "svm"):
        trains = select("classify.train_task_model", family=fam)
        m[f"classify.epochs_run.{fam}"] = (float(trains[0][5]["epochs"]) if trains else float("nan"), "count")
    for task in ("surface", "spin"):
        m[f"classify.predict_calls.{task}"] = (float(rally.counts.get(f"predict_calls.{task}", 0)), "count")

    for fam in FAMILIES:
        m[f"model_io.load_model.ms.{fam}"] = (_med(
            [duration_ns(s) for s in select("model_io.load_model", family=fam)], 1e-6), "ms")
        saves = select("model_io.save_model", family=fam)
        m[f"model_io.save_model.ms.{fam}"] = (_med([duration_ns(s) for s in saves], 1e-6), "ms")
        m[f"model_io.ttsb_bytes.{fam}"] = (float(saves[0][5]["bytes"]) if saves else float("nan"), "bytes")

    m["evaluate.end_to_end.glue_ms"] = (
        _med([tracer.self_ns(s) for s in select("evaluate.end_to_end")], 1e-6), "ms")
    m["cli.overhead_ms"] = (_med([tracer.self_ns(s) for s in select("cli.main")], 1e-6), "ms")
    for w in (rally, live, corpus):
        m[f"trace.overhead_pct.{w.name}"] = (w.overhead_pct(), "%")
    return m
