"""Deterministic synthetic audio and feature fixtures.

Everything here is seeded so benchmarks and tests are reproducible:
damped high-frequency clicks standing in for ball impacts, pink-noise
beds, speech-band interference, and band-limited noise windows for
separable classification fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import DATASET_SAMPLE_RATE, AudioClip
from .features import PRE_ONSET, WINDOW_LEN, FeatureRecord, log_mel


@dataclass(frozen=True)
class DetectionFixture:
    """A clip with its ground-truth bounce onsets in seconds."""

    name: str
    clip: AudioClip
    onsets_s: tuple[float, ...]


def pink_noise(n: int, rng: np.random.Generator, rms: float) -> np.ndarray:
    """1/f-shaped Gaussian noise scaled to a target RMS."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n)
    spectrum[1:] /= np.sqrt(freqs[1:])
    spectrum[0] = 0.0
    x = np.fft.irfft(spectrum, n)
    return x * (rms / np.sqrt(np.mean(x**2)))


def band_noise(
    n: int,
    sample_rate: int,
    band: tuple[float, float],
    rng: np.random.Generator,
    rms: float = 0.1,
) -> np.ndarray:
    """Gaussian noise confined to a frequency band by spectral masking."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectrum[(freqs < band[0]) | (freqs > band[1])] = 0.0
    x = np.fft.irfft(spectrum, n)
    return x * (rms / np.sqrt(np.mean(x**2)))


def speech_band_noise(
    n: int, sample_rate: int, rng: np.random.Generator, rms: float = 0.1
) -> AudioClip:
    """Speech-like interference: 300-3400 Hz noise with slow syllabic modulation."""
    x = band_noise(n, sample_rate, (300.0, 3400.0), rng, rms=1.0)
    t = np.arange(n) / sample_rate
    x *= 1.0 + 0.5 * np.sin(2.0 * np.pi * 4.0 * t + rng.uniform(0, 2 * np.pi))
    x *= rms / np.sqrt(np.mean(x**2))
    return AudioClip(samples=x, sample_rate=sample_rate)


def damped_tone(
    sample_rate: int, freq_hz: float = 11000.0, dur_ms: float = 3.0, amp: float = 0.5
) -> np.ndarray:
    """Exponentially damped sinusoid, the stand-in for a bounce transient."""
    n = int(sample_rate * dur_ms / 1000.0)
    t = np.arange(n) / sample_rate
    tau = dur_ms / 4000.0  # seconds; ~4 decay constants over the burst
    return amp * np.exp(-t / tau) * np.sin(2.0 * np.pi * freq_hz * t)


def click_fixture(
    seed: int,
    sample_rate: int = 44100,
    dur_s: float = 1.0,
    n_clicks: int = 2,
    noise_rms: float = 5e-4,
    freq_hz: float = 11000.0,
) -> DetectionFixture:
    """Silence plus low-level pink noise with damped clicks at known onsets."""
    rng = np.random.default_rng(seed)
    n = int(sample_rate * dur_s)
    x = pink_noise(n, rng, noise_rms)
    min_gap = int(0.12 * sample_rate)
    lo, hi = int(0.05 * sample_rate), n - int(0.2 * sample_rate)
    onsets: list[int] = []
    while len(onsets) < n_clicks:
        cand = int(rng.integers(lo, hi))
        if all(abs(cand - o) >= min_gap for o in onsets):
            onsets.append(cand)
    onsets.sort()
    for onset in onsets:
        burst = damped_tone(sample_rate, freq_hz, amp=float(rng.uniform(0.25, 0.8)))
        x[onset : onset + burst.size] += burst[: n - onset]
    return DetectionFixture(
        name=f"click_{seed:04d}",
        clip=AudioClip(samples=np.clip(x, -1.0, 1.0), sample_rate=sample_rate),
        onsets_s=tuple(o / sample_rate for o in onsets),
    )


def fixture_set(n_fixtures: int = 50, seed: int = 0, **kwargs) -> list[DetectionFixture]:
    return [click_fixture(seed * 1000 + i, **kwargs) for i in range(n_fixtures)]


def band_noise_window(
    rng: np.random.Generator,
    band: tuple[float, float],
    n: int = WINDOW_LEN,
    sample_rate: int = DATASET_SAMPLE_RATE,
    pre_onset: int = 0,
) -> np.ndarray:
    """One classifier window of band-limited noise with random level.

    ``pre_onset`` leading samples are silent, mirroring how onset-aligned
    extraction places the event ~1 ms into the window.
    """
    x = band_noise(n - pre_onset, sample_rate, band, rng, rms=float(rng.uniform(0.02, 0.2)))
    return np.concatenate([np.zeros(pre_onset), x]) if pre_onset else x


def two_band_records(
    n_per_class: int,
    seed: int = 0,
    surfaces: tuple[int, int] = (10, 11),
    bands: tuple[tuple[float, float], ...] = ((1500.0, 2500.0), (14000.0, 16000.0)),
    spins: tuple[int, int] = (-1, -1),
    pre_onset: int = PRE_ONSET,
) -> list[FeatureRecord]:
    """Separable-by-construction two-class feature records.

    Class i windows are noise confined to ``bands[i]``, onset-aligned like
    extracted dataset windows; labels use the given surface (and optional
    spin) ids.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(2):
        for _ in range(n_per_class):
            window = band_noise_window(rng, bands[i], pre_onset=pre_onset)
            records.append(
                FeatureRecord(
                    surface=surfaces[i],
                    spin=spins[i],
                    cells=log_mel(window).astype(np.float32),
                )
            )
    return records


def gmm_blob_dataset(
    n_per_class: int,
    seed: int = 0,
    dim: int = 20,
    n_classes: int = 2,
    separation: float = 6.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class two-component diagonal Gaussian mixtures, well separated."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c in range(n_classes):
        base = np.zeros(dim)
        base[c % dim] = separation * (c + 1)
        for _ in range(n_per_class):
            comp = rng.integers(0, 2)
            center = base + (2.0 * comp - 1.0) * 1.5
            xs.append(center + rng.standard_normal(dim) * 0.5)
            ys.append(c)
    x = np.asarray(xs)
    y = np.asarray(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


def splice_window(
    base: AudioClip, window: np.ndarray, at_sample: int
) -> AudioClip:
    """Add a window into a clip at the given sample offset."""
    x = base.samples.copy()
    hi = min(at_sample + window.size, x.size)
    x[at_sample:hi] += window[: hi - at_sample]
    return AudioClip(samples=np.clip(x, -1.0, 1.0), sample_rate=base.sample_rate)
