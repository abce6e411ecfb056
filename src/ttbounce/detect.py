"""Bounce onset detection.

Stage one of the pipeline: high-pass the signal (ball impacts carry energy
around 11 kHz, speech does not), track 1 ms frame energies against an
exponentially decaying average, and emit an event whenever a frame jumps a
configurable multiple above that noise floor. The filter is causal, so it
cannot ring ahead of an impact, and onsets are not early.

``StreamingDetector`` holds all of a stream's detector state. Batch
detection is one ``feed`` of a clip's whole frames; live audio is fed in
blocks of whole frames (``feed``) or one frame at a time
(``process_frame``), and any split of a stream gives the events of one
``feed``, bit for bit.

``extract_window`` then cuts each onset's classifier window. The module
imports nothing from the classifiers; the CLI maps its config keys and
flags onto ``DetectorConfig`` and ``FilterSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np
from scipy.signal import butter, lfilter, sosfilt, sosfiltfilt

from .audio_io import DATASET_SAMPLE_RATE, AudioClip
from .errors import DataError, NumericError, ParameterError, ProtocolError
from .features import PRE_ONSET, WINDOW_LEN


@dataclass(frozen=True)
class FilterSpec:
    """High-pass Butterworth design parameters; the design rate is the audio's."""

    order: int = 5
    cutoff_hz: float = 10000.0

    def validate(self, sample_rate: int) -> None:
        if self.order < 1:
            raise ParameterError(f"filter order must be >= 1, got {self.order}")
        if not 0.0 < self.cutoff_hz < sample_rate / 2:
            raise ParameterError(
                f"cutoff {self.cutoff_hz} Hz must lie in (0, {sample_rate / 2}) Hz"
            )


def design_butterworth_highpass(
    spec: FilterSpec, sample_rate: int = DATASET_SAMPLE_RATE
) -> np.ndarray:
    """The digital Butterworth high-pass at ``sample_rate``, as second-order
    sections (scipy ``sos``).

    The bilinear transform is pre-warped, so the -3.01 dB point lands
    exactly on ``cutoff_hz``.
    """
    spec.validate(sample_rate)
    return butter(spec.order, spec.cutoff_hz, "highpass", fs=sample_rate, output="sos")


def filter_zero_phase(sos: np.ndarray, clip: AudioClip) -> AudioClip:
    """Forward-backward filtering: zero net phase, squared magnitude response.

    Edges are padded with an odd reflection of length 3 * (2 * order)
    before filtering and trimmed afterwards; each pass starts from the
    steady-state initial conditions of its first sample so edge
    transients cancel.

    No pipeline path calls this; perfbench still times it as a layer.
    Detection filters causally, because the backward pass rings ahead of
    each transient and made onsets early.
    """
    order = 2 * len(sos) - int(np.count_nonzero(sos[:, 5] == 0.0))  # a2 = 0: one pole
    padlen = 3 * (2 * order)
    x = clip.samples
    if x.size <= padlen:
        raise ParameterError(
            f"clip too short for zero-phase filtering: {x.size} samples <= pad {padlen}"
        )
    y = sosfiltfilt(sos, x, padtype="odd", padlen=padlen)
    return AudioClip(samples=y, sample_rate=clip.sample_rate)


# --- Frame energy and the decaying average -----------------------------------


def frame_length(sample_rate: int, frame_ms: float) -> int:
    return int(sample_rate * frame_ms / 1000.0)


def frame_energies(x: np.ndarray, length: int) -> np.ndarray:
    """Mean squared amplitude over consecutive ``length``-sample frames; a trailing
    partial frame is dropped."""
    n_frames = x.size // length
    return np.mean(np.square(x[: n_frames * length]).reshape(n_frames, length), axis=1)


@dataclass(frozen=True)
class DetectorConfig:
    frame_ms: float = 1.0
    gamma: float = 0.995
    threshold_multiplier: float = 8.0
    refractory_ms: float = 30.0
    ema_floor: float = 1e-8

    def validate(self, sample_rate: int) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.threshold_multiplier <= 1.0:
            raise ParameterError("threshold_multiplier must exceed 1")
        if self.refractory_ms < 0.0:
            raise ParameterError("refractory_ms must be >= 0")
        if self.ema_floor <= 0.0:
            raise ParameterError("ema_floor must be > 0")
        if frame_length(sample_rate, self.frame_ms) < 8:
            raise ParameterError(
                f"frame of {self.frame_ms} ms holds fewer than 8 samples at {sample_rate} Hz"
            )


@dataclass(frozen=True)
class BounceEvent:
    onset_sample: int
    onset_s: float
    peak_energy: float
    ema_at_onset: float


# Frames per lfilter call in the scan; past a trigger the rest of a chunk is
# recomputed, so this trades calls per clip against wasted frames.
_SCAN_CHUNK = 512


class StreamingDetector:
    """One stream's detector, with its filter and frame length set at ``sample_rate``.

    The filter state carries over between calls, so any split of the stream
    into ``feed`` and ``process_frame`` calls sees one causal pass. The
    average starts at the first frame's energy; frames above threshold never
    update it, so peaks do not inflate the noise floor. One instance per stream.
    """

    def __init__(
        self,
        config: DetectorConfig,
        filter_spec: FilterSpec,
        sample_rate: int = DATASET_SAMPLE_RATE,
    ):
        self._sos = design_butterworth_highpass(filter_spec, sample_rate)
        self._zi = np.zeros((self._sos.shape[0], 2))
        config.validate(sample_rate)
        self.config = config
        self.sample_rate = sample_rate
        self.frame_length = frame_length(sample_rate, config.frame_ms)
        self.refractory_frames = math.ceil(config.refractory_ms / config.frame_ms)
        self.next_frame = 0
        self.avg: float | None = None
        self.block_until = -1  # last suppressed frame index

    def feed(self, samples: np.ndarray) -> list[BounceEvent]:
        """The events in the stream's next whole frames, given as a 1-D array;
        onsets count from the start of the stream."""
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 1 or x.size % self.frame_length:
            raise ProtocolError(
                f"feed takes whole {self.frame_length}-sample frames in 1-D, got shape {x.shape}"
            )
        if x.size == 0:
            return []
        y, zi = sosfilt(self._sos, x, zi=self._zi)
        energies = frame_energies(y, self.frame_length)
        if not np.isfinite(energies).all():
            raise NumericError(f"non-finite energy in frames from {self.next_frame}")
        self._zi = zi
        return self.scan(energies, y)

    def process_frame(self, frame_index: int, samples: np.ndarray) -> list[BounceEvent]:
        """The events of one frame, returned by the call that saw it."""
        if frame_index != self.next_frame:
            raise ProtocolError(f"frame {frame_index} out of order, expected {self.next_frame}")
        x = np.asarray(samples, dtype=np.float64)
        if x.shape != (self.frame_length,):
            raise ProtocolError(
                f"frame {frame_index} has shape {x.shape}, expected {self.frame_length} samples"
            )
        y, zi = sosfilt(self._sos, x, zi=self._zi)
        energy = float(np.mean(np.square(y)))
        if not math.isfinite(energy):
            raise NumericError(f"non-finite energy in frame {frame_index}")
        self._zi = zi
        ev = self.step(energy, y)
        return [ev] if ev is not None else []

    def step(self, energy: float, frame: np.ndarray) -> BounceEvent | None:
        """Frame ``next_frame``, filtered to ``frame``, against the threshold."""
        k = self.next_frame
        self.next_frame += 1
        cfg = self.config
        if self.avg is None:
            self.avg = energy
        floor_avg = max(self.avg, cfg.ema_floor)
        if energy > cfg.threshold_multiplier * floor_avg:
            return self._trigger(k, energy, frame, floor_avg)
        gamma = cfg.gamma  # validated in __init__
        self.avg = gamma * self.avg + (1.0 - gamma) * energy
        return None

    def scan(self, energies: np.ndarray, filtered: np.ndarray) -> list[BounceEvent]:
        """``step`` over every frame of ``energies`` at once: the same events, bit for bit.

        Between triggers the average is the IIR filter ``step`` applies, so
        ``lfilter`` runs it over a chunk of frames (its recursion evaluates
        the same products and sum); the first frame above the threshold of
        its preceding average is a trigger. After a trigger, the frames that
        stay above the unchanged threshold inside the refractory window are
        suppressed without an update, so they are skipped in one step.
        ``filtered`` holds the frames' samples; the first is frame ``next_frame``.
        """
        cfg = self.config
        gamma, mult, ema_floor = cfg.gamma, cfg.threshold_multiplier, cfg.ema_floor
        b, a = [1.0 - gamma], [1.0, -gamma]
        length, n, base = self.frame_length, energies.size, self.next_frame
        events = []
        k = 0
        if n and self.avg is None:
            self.avg = float(energies[0])
        while k < n:
            chunk = energies[k : k + _SCAN_CHUNK]
            after = lfilter(b, a, chunk, zi=[gamma * self.avg])[0]
            before = np.concatenate(([self.avg], after[:-1]))
            with np.errstate(over="ignore"):  # an infinite threshold, as in step
                threshold = mult * np.maximum(before, ema_floor)
            above = np.flatnonzero(chunk > threshold)
            if above.size == 0:
                self.avg = float(after[-1])
                k += chunk.size
                continue
            j = int(above[0])
            k += j
            self.avg = float(before[j])
            floor_avg = max(self.avg, ema_floor)
            ev = self._trigger(
                base + k, float(energies[k]), filtered[k * length : (k + 1) * length], floor_avg
            )
            if ev is not None:
                events.append(ev)
            held = energies[k + 1 : min(self.block_until - base + 1, n)] > mult * floor_avg
            k += 1 + (held.size if held.all() else int(np.argmin(held)))
        self.next_frame = base + n
        return events

    def _trigger(
        self, k: int, energy: float, frame: np.ndarray, floor_avg: float
    ) -> BounceEvent | None:
        """An above-threshold frame: an event unless inside the refractory window."""
        if k <= self.block_until:
            return None  # no event, and no update of the average
        self.block_until = k + self.refractory_frames
        onset = k * self.frame_length + self._refine(frame, floor_avg)
        return BounceEvent(
            onset_sample=onset,
            onset_s=onset / self.sample_rate,
            peak_energy=energy,
            ema_at_onset=floor_avg,
        )

    def _refine(self, frame: np.ndarray, floor_avg: float) -> int:
        # First sample whose squared amplitude clears the threshold; one
        # exists because the frame's mean cleared it and max >= mean.
        thr = self.config.threshold_multiplier * floor_avg
        hits = np.flatnonzero(np.square(frame) > thr)
        return int(hits[0]) if hits.size else 0


def detect_bounces(
    clip: AudioClip, config: DetectorConfig, filter_spec: FilterSpec
) -> list[BounceEvent]:
    """Detect bounce onsets in a recording (batch mode).

    One ``feed`` of the clip's whole frames to a fresh detector at the
    clip's rate; a trailing partial frame is dropped. Onsets index into the
    unfiltered signal and are refined to the first threshold-crossing
    sample inside the triggering frame.
    """
    det = StreamingDetector(config, filter_spec, clip.sample_rate)
    return det.feed(clip.samples[: len(clip) // det.frame_length * det.frame_length])


def extract_window(clip: AudioClip, event: BounceEvent | int) -> np.ndarray:
    """Cut the classifier input window from the unfiltered signal.

    The window starts ``PRE_ONSET`` samples before the onset sample;
    regions outside the clip are zero-padded, so the result always has
    ``WINDOW_LEN`` samples. The front end is built for the dataset rate,
    so a clip at any other rate is refused here, before it is classified.
    """
    if clip.sample_rate != DATASET_SAMPLE_RATE:
        raise DataError(
            f"sample rate {clip.sample_rate} Hz; the classifier front end "
            f"requires {DATASET_SAMPLE_RATE} Hz"
        )
    onset = event.onset_sample if isinstance(event, BounceEvent) else int(event)
    start = onset - PRE_ONSET
    out = np.zeros(WINDOW_LEN)
    lo = max(start, 0)
    hi = min(start + WINDOW_LEN, len(clip))
    if hi > lo:
        out[lo - start : hi - start] = clip.samples[lo:hi]
    return out


# --- Events CSV ---------------------------------------------------------------

EVENT_CSV_HEADER = "onset_sample,onset_s,peak_energy"


def write_events_csv(events: Iterable[BounceEvent], out: IO[str]) -> None:
    out.write(EVENT_CSV_HEADER + "\n")
    for ev in events:
        out.write(f"{ev.onset_sample},{ev.onset_s:.9f},{ev.peak_energy:.9e}\n")
