"""Bounce onset detection.

Stage one of the pipeline: high-pass the signal (ball impacts carry energy
around 11 kHz, speech does not), track 1 ms frame energies against an
exponentially decaying average, and emit an event whenever a frame jumps a
configurable multiple above that noise floor. Batch mode filters zero-phase
for the best temporal accuracy; streaming mode filters causally.

Streaming mode steps the average one frame at a time. Batch mode has all
frame energies up front, so it runs the average as the first-order IIR
filter it is (``lfilter``) over a chunk of frames, jumps to the first frame
above threshold, handles that trigger and the refractory run after it, and
resumes; its Python work scales with above-threshold runs, not frames, and
its events are bit-identical to stepping every frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np
from scipy.signal import lfilter, sosfilt, sosfiltfilt

from .audio_io import DATASET_SAMPLE_RATE, AudioClip, read_utf8
from .classify.data import TrainConfig
from .errors import DataError, ParameterError, ProtocolError
from .features import PRE_ONSET, WINDOW_LEN


@dataclass(frozen=True)
class FilterSpec:
    """High-pass Butterworth design parameters."""

    order: int = 5
    cutoff_hz: float = 10000.0
    sample_rate: int = 44100

    def validate(self) -> None:
        if self.order < 1:
            raise ParameterError(f"filter order must be >= 1, got {self.order}")
        if not 0.0 < self.cutoff_hz < self.sample_rate / 2:
            raise ParameterError(
                f"cutoff {self.cutoff_hz} Hz must lie in (0, {self.sample_rate / 2}) Hz"
            )


@dataclass(frozen=True)
class BiquadSection:
    """One second-order section; first-order sections set b2 = a2 = 0."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def __post_init__(self) -> None:
        # Stability triangle: both poles strictly inside the unit circle.
        if not (abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2):
            raise ParameterError(
                f"unstable section: a1={self.a1}, a2={self.a2} outside the stability triangle"
            )


@dataclass(frozen=True)
class BiquadCascade:
    sections: tuple[BiquadSection, ...]
    gain: float
    sample_rate: int

    @property
    def order(self) -> int:
        return sum(1 if (s.a2 == 0.0 and s.b2 == 0.0) else 2 for s in self.sections)

    def sos(self) -> np.ndarray:
        """Coefficient array in (b0, b1, b2, 1, a1, a2) rows, gain folded into row 0."""
        rows = np.array(
            [[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in self.sections], dtype=np.float64
        )
        rows[0, :3] *= self.gain
        return rows

    def response(self, freqs_hz: np.ndarray | float) -> np.ndarray:
        """Complex frequency response H(e^{j 2 pi f / fs}) at the given frequencies."""
        f = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
        z1 = np.exp(-2j * np.pi * f / self.sample_rate)
        h = np.full(f.shape, self.gain, dtype=np.complex128)
        for s in self.sections:
            h *= (s.b0 + s.b1 * z1 + s.b2 * z1 * z1) / (1.0 + s.a1 * z1 + s.a2 * z1 * z1)
        return h


def design_butterworth_highpass(spec: FilterSpec) -> BiquadCascade:
    """Design a digital Butterworth high-pass as a cascade of biquads.

    Analog prototype poles are high-pass transformed at the pre-warped
    cutoff and mapped by the bilinear transform, so the -3.01 dB point
    lands exactly on ``cutoff_hz``. Odd orders yield one first-order
    section. Gain is normalized to unity at Nyquist.
    """
    spec.validate()
    n = spec.order
    fs = float(spec.sample_rate)
    # Pre-warped analog cutoff for the bilinear transform with c = 2 fs.
    wc = 2.0 * fs * math.tan(math.pi * spec.cutoff_hz / fs)

    # Normalized lowpass prototype poles on the left unit semicircle.
    k = np.arange(n)
    proto = np.exp(1j * math.pi * (2.0 * k + n + 1.0) / (2.0 * n))
    analog_poles = wc / proto  # lowpass -> highpass: s -> wc / s
    digital_poles = (2.0 * fs + analog_poles) / (2.0 * fs - analog_poles)

    # n analog zeros at s = 0 all map to z = +1.
    sections: list[BiquadSection] = []
    complex_poles = [p for p in digital_poles if p.imag > 1e-12]
    real_poles = [p.real for p in digital_poles if abs(p.imag) <= 1e-12]
    for p in complex_poles:
        sections.append(BiquadSection(1.0, -2.0, 1.0, -2.0 * p.real, abs(p) ** 2))
    for r in real_poles:
        sections.append(BiquadSection(1.0, -1.0, 0.0, -r, 0.0))

    # Unity gain at Nyquist (z = -1).
    h_nyq = 1.0 + 0.0j
    for s in sections:
        h_nyq *= (s.b0 - s.b1 + s.b2) / (1.0 - s.a1 + s.a2)
    gain = 1.0 / h_nyq.real
    return BiquadCascade(sections=tuple(sections), gain=gain, sample_rate=spec.sample_rate)


def filter_forward(cascade: BiquadCascade, clip: AudioClip) -> AudioClip:
    """Single causal pass through the cascade (direct-form II transposed)."""
    y = sosfilt(cascade.sos(), clip.samples)
    return AudioClip(samples=y, sample_rate=clip.sample_rate)


def filter_zero_phase(cascade: BiquadCascade, clip: AudioClip) -> AudioClip:
    """Forward-backward filtering: zero net phase, squared magnitude response.

    Edges are padded with an odd reflection of length 3 * (2 * order)
    before filtering and trimmed afterwards; each pass starts from the
    steady-state initial conditions of its first sample so edge
    transients cancel.
    """
    padlen = 3 * (2 * cascade.order)
    x = clip.samples
    if x.size <= padlen:
        raise ParameterError(
            f"clip too short for zero-phase filtering: {x.size} samples <= pad {padlen}"
        )
    y = sosfiltfilt(cascade.sos(), x, padtype="odd", padlen=padlen)
    return AudioClip(samples=y, sample_rate=clip.sample_rate)


# --- Frame energy and the decaying average -----------------------------------


def frame_length(sample_rate: int, frame_ms: float) -> int:
    return int(sample_rate * frame_ms / 1000.0)


def frame_energy(clip: AudioClip, frame_ms: float) -> np.ndarray:
    """Mean squared amplitude over consecutive non-overlapping frames.

    A trailing partial frame is dropped.
    """
    length = frame_length(clip.sample_rate, frame_ms)
    if length < 1:
        raise ParameterError(f"frame of {frame_ms} ms is shorter than one sample")
    return _frame_energy_array(clip.samples, length)


def _frame_energy_array(x: np.ndarray, length: int) -> np.ndarray:
    n_frames = x.size // length
    if n_frames == 0:
        return np.zeros(0)
    trimmed = x[: n_frames * length]
    return np.mean(np.square(trimmed).reshape(n_frames, length), axis=1)


def ema_update(avg: float, e: float, gamma: float) -> float:
    """One step of the decaying noise-floor average: gamma*avg + (1-gamma)*e."""
    if not 0.0 < gamma < 1.0:
        raise ParameterError(f"gamma must lie in (0, 1), got {gamma}")
    return gamma * avg + (1.0 - gamma) * e


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


# Frames per lfilter call in the batch scan; past a trigger the rest of a
# chunk is recomputed, so this trades calls per clip against wasted frames.
_SCAN_CHUNK = 512


class _EnergyScanner:
    """Shared threshold logic for the batch and streaming detectors.

    The average is seeded with the first frame's energy and is never
    updated by frames above threshold, so detected peaks do not inflate
    the noise-floor estimate.
    """

    def __init__(self, config: DetectorConfig, sample_rate: int):
        config.validate(sample_rate)
        self.config = config
        self.sample_rate = sample_rate
        self.length = frame_length(sample_rate, config.frame_ms)
        self.refractory_frames = math.ceil(config.refractory_ms / config.frame_ms)
        self.avg: float | None = None
        self.block_until = -1  # last suppressed frame index

    def step(self, k: int, energy: float, frame: np.ndarray) -> BounceEvent | None:
        cfg = self.config
        if self.avg is None:
            self.avg = energy
        floor_avg = max(self.avg, cfg.ema_floor)
        if energy > cfg.threshold_multiplier * floor_avg:
            return self._trigger(k, energy, frame, floor_avg)
        gamma = cfg.gamma  # validated in __init__; same expression as ema_update
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
        ``filtered`` holds the samples the energies were taken from.
        """
        cfg = self.config
        gamma, mult, ema_floor = cfg.gamma, cfg.threshold_multiplier, cfg.ema_floor
        b, a = [1.0 - gamma], [1.0, -gamma]
        length, n = self.length, energies.size
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
                k, float(energies[k]), filtered[k * length : (k + 1) * length], floor_avg
            )
            if ev is not None:
                events.append(ev)
            held = energies[k + 1 : min(self.block_until + 1, n)] > mult * floor_avg
            k += 1 + (held.size if held.all() else int(np.argmin(held)))
        return events

    def _trigger(
        self, k: int, energy: float, frame: np.ndarray, floor_avg: float
    ) -> BounceEvent | None:
        """An above-threshold frame: an event unless inside the refractory window."""
        if k <= self.block_until:
            return None  # no event, and no update of the average
        self.block_until = k + self.refractory_frames
        onset = k * self.length + self._refine(frame, floor_avg)
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
    """Detect bounce onsets in a recording (batch mode, zero-phase filtering).

    Onsets index into the unfiltered signal and are refined to the first
    threshold-crossing sample inside the triggering frame.
    """
    if clip.sample_rate != filter_spec.sample_rate:
        raise ParameterError(
            f"clip rate {clip.sample_rate} != filter design rate {filter_spec.sample_rate}"
        )
    cascade = design_butterworth_highpass(filter_spec)
    filtered = filter_zero_phase(cascade, clip).samples
    scanner = _EnergyScanner(config, clip.sample_rate)
    return scanner.scan(_frame_energy_array(filtered, scanner.length), filtered)


class StreamingDetector:
    """Stateful one-stream detector over fixed-length frames.

    Filtering is causal (zero-phase needs future samples), so onsets carry
    the filter's small group delay. An event for a frame is returned by the
    same ``process_frame`` call that saw the frame. Instances are
    single-stream: never share one across concurrent streams.
    """

    def __init__(self, config: DetectorConfig, filter_spec: FilterSpec):
        filter_spec.validate()
        self.cascade = design_butterworth_highpass(filter_spec)
        self._sos = self.cascade.sos()
        self._zi = np.zeros((self._sos.shape[0], 2))
        self.scanner = _EnergyScanner(config, filter_spec.sample_rate)
        self.next_frame = 0

    @property
    def frame_length(self) -> int:
        return self.scanner.length

    def process_frame(self, frame_index: int, samples: np.ndarray) -> list[BounceEvent]:
        if frame_index != self.next_frame:
            raise ProtocolError(
                f"frame {frame_index} out of order, expected {self.next_frame}"
            )
        x = np.asarray(samples, dtype=np.float64)
        if x.shape != (self.scanner.length,):
            raise ProtocolError(
                f"frame {frame_index} has {x.size} samples, expected {self.scanner.length}"
            )
        self.next_frame += 1
        y, self._zi = sosfilt(self._sos, x, zi=self._zi)
        energy = float(np.mean(np.square(y)))
        ev = self.scanner.step(frame_index, energy, y)
        return [ev] if ev is not None else []


def stream_frames(clip: AudioClip, frame_ms: float) -> Iterator[tuple[int, np.ndarray]]:
    """Replay a clip as indexed fixed-length frames (trailing partial dropped)."""
    length = frame_length(clip.sample_rate, frame_ms)
    for k in range(len(clip) // length):
        yield k, clip.samples[k * length : (k + 1) * length]


def detect_streaming(
    frames: Iterable[tuple[int, np.ndarray]],
    config: DetectorConfig,
    filter_spec: FilterSpec,
) -> Iterator[BounceEvent]:
    """Run the streaming detector over an iterable of (frame_index, samples)."""
    det = StreamingDetector(config, filter_spec)
    for index, samples in frames:
        yield from det.process_frame(index, samples)


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


# --- External interfaces ------------------------------------------------------

@dataclass(frozen=True)
class ConfigKey:
    """A --config key, the dataclass field it sets (giving its type and default), its flag."""

    name: str
    owner: type
    flag: str | None = None

    @property
    def field(self) -> str:
        return self.name.rpartition(".")[2]

    @property
    def default(self) -> int | float:
        return getattr(self.owner, self.field)

    @property
    def type(self) -> type:
        return type(self.default)

    def number(self, raw: str) -> int | float:
        """Parse a file or flag value; ValueError unless finite, and integral for an int key."""
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # reported below like any other non-finite value
        if not math.isfinite(value) or (self.type is int and not value.is_integer()):
            raise ValueError(f"{self.name} takes a finite {self.type.__name__}, got {raw!r}")
        return self.type(value)


# Every key a --config file may set. The train.* keys configure the
# classifier trainer; they share the file so one config drives a whole run.
CONFIG_TABLE = {
    k.name: k
    for k in (
        ConfigKey("frame_ms", DetectorConfig),
        ConfigKey("gamma", DetectorConfig, "--gamma"),
        ConfigKey("threshold_multiplier", DetectorConfig, "--threshold-multiplier"),
        ConfigKey("refractory_ms", DetectorConfig, "--refractory-ms"),
        ConfigKey("ema_floor", DetectorConfig),
        ConfigKey("filter.order", FilterSpec),
        ConfigKey("filter.cutoff_hz", FilterSpec, "--cutoff-hz"),
        ConfigKey("train.epochs", TrainConfig, "--epochs"),
        ConfigKey("train.batch_size", TrainConfig, "--batch-size"),
        ConfigKey("train.learning_rate", TrainConfig, "--learning-rate"),
        ConfigKey("train.patience", TrainConfig),
    )
}
CONFIG_KEYS = tuple(n for n, k in CONFIG_TABLE.items() if k.owner is not TrainConfig)


def parse_config_file(path: str | Path) -> dict[str, int | float]:
    """Read a flat key=value config file.

    Only the keys of ``CONFIG_TABLE`` are accepted; '#' starts a comment.
    Values must be finite numbers, and integral for integer keys.
    """
    values: dict[str, int | float] = {}
    for lineno, line in enumerate(read_utf8(path, ParameterError).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_TABLE:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_TABLE[key].number(raw)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
    return values


def config_from(owner: type, values: dict[str, int | float], **fixed):
    """Build ``owner`` from the table keys it owns; absent keys keep their default."""
    own = {
        k.field: k.type(values[name])
        for name, k in CONFIG_TABLE.items()
        if k.owner is owner and name in values
    }
    return owner(**own, **fixed)


def build_configs(
    values: dict[str, int | float], sample_rate: int
) -> tuple[DetectorConfig, FilterSpec]:
    """Construct validated configs from parsed key=value pairs."""
    config = config_from(DetectorConfig, values)
    spec = config_from(FilterSpec, values, sample_rate=sample_rate)
    config.validate(sample_rate)
    spec.validate()
    return config, spec


EVENT_CSV_HEADER = "onset_sample,onset_s,peak_energy"


def write_events_csv(events: Iterable[BounceEvent], out: IO[str]) -> None:
    out.write(EVENT_CSV_HEADER + "\n")
    for ev in events:
        out.write(f"{ev.onset_sample},{ev.onset_s:.9f},{ev.peak_energy:.9e}\n")
