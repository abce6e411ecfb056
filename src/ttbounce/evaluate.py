"""Scoring for the detector and the classifiers, plus the full pipeline.

Detection is scored by greedy one-to-one onset matching within a time
tolerance; classification by confusion-matrix metrics with macro and
micro aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import AudioClip, SurfaceClass, mix_noise
from .classify import Model, features_for_model, predict
from .detect import DetectorConfig, FilterSpec, detect_bounces, extract_window
from .errors import DataError, ParameterError
from .features import log_mel
from .synth import DetectionFixture


@dataclass(frozen=True)
class DetectionScore:
    matched: int
    missed: int
    spurious: int
    onset_errors_ms: tuple[float, ...]

    def __post_init__(self) -> None:
        assert self.matched == len(self.onset_errors_ms)

    @property
    def precision(self) -> float:
        denom = self.matched + self.spurious
        return self.matched / denom if denom else 1.0

    @property
    def recall(self) -> float:
        denom = self.matched + self.missed
        return self.matched / denom if denom else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def mean_abs_onset_error_ms(self) -> float:
        if not self.onset_errors_ms:
            return math.nan
        return float(np.mean(np.abs(self.onset_errors_ms)))

    @property
    def median_abs_onset_error_ms(self) -> float:
        if not self.onset_errors_ms:
            return math.nan
        return float(np.median(np.abs(self.onset_errors_ms)))

    def merged(self, other: "DetectionScore") -> "DetectionScore":
        return DetectionScore(
            matched=self.matched + other.matched,
            missed=self.missed + other.missed,
            spurious=self.spurious + other.spurious,
            onset_errors_ms=self.onset_errors_ms + other.onset_errors_ms,
        )


def _onsets_s(events) -> list[float]:
    return [float(getattr(e, "onset_s", e)) for e in events]


def match_events(predicted, truth, tolerance_ms: float = 5.0) -> DetectionScore:
    """Greedy one-to-one matching of predicted onsets to ground truth.

    Both lists must be sorted by onset. Each truth onset, in time order,
    takes the nearest unmatched prediction within the tolerance; the
    signed error is predicted minus truth in milliseconds.
    """
    pred = _onsets_s(predicted)
    true = _onsets_s(truth)
    for name, seq in (("predicted", pred), ("truth", true)):
        if any(b < a for a, b in zip(seq, seq[1:])):
            raise ParameterError(f"{name} onsets must be sorted ascending")
    tol_s = tolerance_ms / 1000.0
    used = [False] * len(pred)
    errors: list[float] = []
    for t in true:
        best = -1
        best_dist = tol_s
        for j, p in enumerate(pred):
            if used[j]:
                continue
            dist = abs(p - t)
            if dist <= best_dist:
                if best == -1 or dist < best_dist:
                    best, best_dist = j, dist
        if best >= 0:
            used[best] = True
            errors.append((pred[best] - t) * 1000.0)
    matched = len(errors)
    return DetectionScore(
        matched=matched,
        missed=len(true) - matched,
        spurious=len(pred) - matched,
        onset_errors_ms=tuple(errors),
    )


@dataclass(frozen=True)
class ClassificationScore:
    confusion: np.ndarray  # rows = truth, columns = prediction
    class_names: tuple[str, ...]

    @property
    def support(self) -> np.ndarray:
        return self.confusion.sum(axis=1)

    @property
    def per_class_precision(self) -> np.ndarray:
        pred_totals = self.confusion.sum(axis=0)
        diag = np.diag(self.confusion)
        return np.where(pred_totals > 0, diag / np.maximum(pred_totals, 1), 0.0)

    @property
    def per_class_recall(self) -> np.ndarray:
        diag = np.diag(self.confusion)
        return np.where(self.support > 0, diag / np.maximum(self.support, 1), 0.0)

    @property
    def per_class_f1(self) -> np.ndarray:
        p, r = self.per_class_precision, self.per_class_recall
        return np.where(p + r > 0, 2 * p * r / np.maximum(p + r, 1e-300), 0.0)

    @property
    def accuracy(self) -> float:
        total = self.confusion.sum()
        return float(np.trace(self.confusion) / total) if total else 0.0

    @property
    def _supported(self) -> np.ndarray:
        # Macro averages cover only classes present in the test set; a class
        # with no ground-truth samples says nothing about the model.
        return self.support > 0

    @property
    def macro_precision(self) -> float:
        return float(self.per_class_precision[self._supported].mean())

    @property
    def macro_recall(self) -> float:
        return float(self.per_class_recall[self._supported].mean())

    @property
    def macro_f1(self) -> float:
        return float(self.per_class_f1[self._supported].mean())

    @property
    def micro_precision(self) -> float:
        # Equals accuracy (and micro recall) for single-label classification.
        return self.accuracy

    @property
    def micro_recall(self) -> float:
        return self.accuracy

    @property
    def micro_f1(self) -> float:
        return self.accuracy


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, n_classes: int
) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(y_true), np.asarray(y_pred)), 1)
    return cm


def score_classifier(
    model: Model, features: np.ndarray, labels: np.ndarray
) -> ClassificationScore:
    """Confusion matrix and aggregate metrics on a held-out set."""
    labels = np.asarray(labels)
    if len(labels) == 0:
        raise DataError("empty test set")
    pred, _ = predict(model, features)
    return ClassificationScore(
        confusion=confusion_matrix(labels, pred, len(model.classes)),
        class_names=tuple(model.classes),
    )


def format_report(score: ClassificationScore) -> str:
    lines = [f"{'class':<12} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}"]
    p, r, f1 = score.per_class_precision, score.per_class_recall, score.per_class_f1
    for i, name in enumerate(score.class_names):
        lines.append(
            f"{name:<12} {p[i]:>9.4f} {r[i]:>9.4f} {f1[i]:>9.4f} {score.support[i]:>8d}"
        )
    lines.append("")
    lines.append(
        f"{'macro':<12} {score.macro_precision:>9.4f} {score.macro_recall:>9.4f} "
        f"{score.macro_f1:>9.4f} {int(score.support.sum()):>8d}"
    )
    lines.append(
        f"{'micro':<12} {score.micro_precision:>9.4f} {score.micro_recall:>9.4f} "
        f"{score.micro_f1:>9.4f} {int(score.support.sum()):>8d}"
    )
    lines.append(f"accuracy: {score.accuracy:.4f}")
    return "\n".join(lines)


def metrics_csv(score: ClassificationScore) -> str:
    rows = ["class,precision,recall,f1,support"]
    p, r, f1 = score.per_class_precision, score.per_class_recall, score.per_class_f1
    for i, name in enumerate(score.class_names):
        rows.append(f"{name},{p[i]:.9g},{r[i]:.9g},{f1[i]:.9g},{int(score.support[i])}")
    total = int(score.support.sum())
    rows.append(
        f"macro,{score.macro_precision:.9g},{score.macro_recall:.9g},{score.macro_f1:.9g},{total}"
    )
    rows.append(
        f"micro,{score.micro_precision:.9g},{score.micro_recall:.9g},{score.micro_f1:.9g},{total}"
    )
    return "\n".join(rows) + "\n"


def confusion_csv(score: ClassificationScore) -> str:
    header = "true\\pred," + ",".join(score.class_names)
    rows = [header]
    for i, name in enumerate(score.class_names):
        rows.append(name + "," + ",".join(str(int(v)) for v in score.confusion[i]))
    return "\n".join(rows) + "\n"


# --- Detector benchmarks --------------------------------------------------------


def run_detection_benchmark(
    fixtures: list[DetectionFixture],
    config: DetectorConfig,
    filter_spec: FilterSpec,
    noise: tuple[AudioClip, float] | None = None,
    tolerance_ms: float = 5.0,
) -> DetectionScore:
    """Detect across fixtures, optionally under noise, and aggregate scores."""
    total = DetectionScore(0, 0, 0, ())
    for fixture in sorted(fixtures, key=lambda f: f.name):
        clip = fixture.clip
        if noise is not None:
            noise_clip, snr_db = noise
            clip = mix_noise(clip, noise_clip, snr_db).clip
        events = detect_bounces(clip, config, filter_spec)
        total = total.merged(match_events(events, fixture.onsets_s, tolerance_ms))
    return total


@dataclass(frozen=True)
class GridPoint:
    gamma: float
    threshold_multiplier: float
    precision: float
    recall: float
    f1: float
    mean_abs_onset_error_ms: float


def grid_search_detector(
    fixtures: list[DetectionFixture],
    gamma_grid: list[float],
    multiplier_grid: list[float],
    base_config: DetectorConfig = DetectorConfig(),
    filter_spec: FilterSpec = FilterSpec(),
    noise: tuple[AudioClip, float] | None = None,
) -> tuple[DetectorConfig, list[GridPoint]]:
    """Exhaustive sweep; best point maximizes detection F1, ties broken by
    lower mean absolute onset error."""
    if not fixtures or not gamma_grid or not multiplier_grid:
        raise ParameterError("fixtures, gamma grid and multiplier grid must be nonempty")
    rows: list[GridPoint] = []
    best: tuple[float, float, DetectorConfig] | None = None
    for gamma in gamma_grid:
        for mult in multiplier_grid:
            cfg = replace(base_config, gamma=gamma, threshold_multiplier=mult)
            score = run_detection_benchmark(fixtures, cfg, filter_spec, noise=noise)
            err = score.mean_abs_onset_error_ms
            rows.append(
                GridPoint(gamma, mult, score.precision, score.recall, score.f1, err)
            )
            key = (-score.f1, err if not math.isnan(err) else math.inf)
            if best is None or key < best[:2]:
                best = (*key, cfg)
    assert best is not None
    return best[2], rows


# --- End-to-end pipeline --------------------------------------------------------


@dataclass(frozen=True)
class AnnotatedEvent:
    onset_sample: int
    onset_s: float
    surface: str
    spin: str | None
    surface_scores: np.ndarray
    spin_scores: np.ndarray | None


_RACKET_NAMES = frozenset(s.name for s in SurfaceClass if s.is_racket)


def end_to_end(
    clip: AudioClip,
    config: DetectorConfig,
    filter_spec: FilterSpec,
    surface_model: Model,
    spin_model: Model | None = None,
) -> list[AnnotatedEvent]:
    """Detect bounces, then classify them with one ``predict`` per model: surface
    for every window, spin for those whose predicted surface is a racket."""
    events = detect_bounces(clip, config, filter_spec)
    if not events:
        return []
    cells = log_mel(np.stack([extract_window(clip, ev) for ev in events]))
    surface_ids, surface_scores = predict(surface_model, features_for_model(surface_model, cells))
    surfaces = [surface_model.classes[i] for i in surface_ids]
    spins: list[tuple] = [(None, None)] * len(events)  # (spin, spin scores)
    racket = [i for i, s in enumerate(surfaces) if s in _RACKET_NAMES and spin_model is not None]
    if racket:
        spin_ids, spin_scores = predict(spin_model, features_for_model(spin_model, cells[racket]))
        for i, k, row in zip(racket, spin_ids, spin_scores):
            spins[i] = (spin_model.classes[k], row)
    return [
        AnnotatedEvent(ev.onset_sample, ev.onset_s, surfaces[i], spins[i][0], surface_scores[i], spins[i][1])
        for i, ev in enumerate(events)
    ]
