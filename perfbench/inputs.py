"""Seeded benchmark inputs, built only from ``ttbounce.synth``.

Every bounce is a few damped tones whose pattern encodes its surface and
spin, so the trained classifiers can be held to exact answers. The noise
bed is pink noise plus speech-band interference mixed in with
``mix_noise``, as in a hall with players talking. Bounce level and pitch
vary only a little: the SVM's subgradient trainer labels every bounce
correctly only when the classes are far apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ttbounce.audio_io import AudioClip, mix_noise, write_wav
from ttbounce.detect import extract_window
from ttbounce.features import FeatureRecord, log_mel
from ttbounce.synth import damped_tone, pink_noise, speech_band_noise

SAMPLE_RATE = 44100

# (surface, spin, carrier Hz, ring ms, companion tones as (Hz, ring ms)).
# The CNN pools globally, so classes differ in shape, not only in position:
# a table bounce is one tone, a floor bounce two close high tones, and a
# racket bounce a high tone plus a mid-band companion whose ring length
# sets the spin. Every carrier lies above the detector's 10 kHz cutoff.
KINDS = (
    ("racket_01", "back", 14000.0, 10.0, ((4500.0, 2.0),)),
    ("table", None, 11000.0, 10.0, ()),
    ("racket_01", "flat", 14000.0, 10.0, ((6500.0, 6.0),)),
    ("floor", None, 18000.0, 10.0, ((20500.0, 10.0),)),
    ("racket_01", "top", 14000.0, 10.0, ((8500.0, 12.0),)),
)
KIND = {(k[0], k[1]): k for k in KINDS}
SURFACE_IDS = {"racket_01": 0, "table": 10, "floor": 11}
SPIN_IDS = {"back": 0, "flat": 1, "top": 2}

# A rally follows the rules of play: the serve is a racket hit, then one
# bounce on each half of the table; every return is a racket hit, then one
# bounce on the far half; the point ends when the ball lands on the floor.
# With four strokes, a round figure for a short point rather than a
# measured one, a point has 10 bounces: 40% racket, 50% table and
# 10% floor. Only racket bounces get a spin prediction, so this share sets
# the classifiers' work per clip. Points follow each other without a pause,
# and the three spins are equally common among racket hits.
STROKES_PER_POINT = 4
POINT = ("racket_01", "table", "table") + ("racket_01", "table") * (STROKES_PER_POINT - 1) + ("floor",)
SPINS = ("back", "flat", "top")
# Training rallies instead hold every kind equally often, as the click
# corpora do: a labelled training set is collected per class, and the
# classifiers need enough floor bounces to learn them.
BALANCED = tuple(k[0] for k in KINDS)

PINK_RMS = 5e-4
SPEECH_SNR_DB = 20.0
GAP_S = (0.2, 0.4)  # mean 0.3 s between bounces: ~3.3 bounces/s
LEAD_S = 0.3
TAIL_S = 0.3
CUT_JITTER = 64


@dataclass(frozen=True)
class Bounce:
    onset_sample: int
    surface: str
    spin: str | None


@dataclass(frozen=True)
class Rally:
    """A clip with its labelled ground-truth bounces in time order."""

    clip: AudioClip
    bounces: tuple[Bounce, ...]

    @property
    def onsets_s(self) -> tuple[float, ...]:
        return tuple(b.onset_sample / self.clip.sample_rate for b in self.bounces)


def _click(rng: np.random.Generator, kind: tuple) -> np.ndarray:
    _, _, carrier_hz, ring_ms, companions = kind
    amp = float(rng.uniform(0.24, 0.26))
    freq = carrier_hz + float(rng.uniform(-50.0, 50.0))
    x = damped_tone(SAMPLE_RATE, freq, dur_ms=ring_ms, amp=amp)
    for hz, ms in companions:
        tone = damped_tone(SAMPLE_RATE, hz, dur_ms=ms, amp=amp)
        x = np.concatenate([x, np.zeros(max(0, tone.size - x.size))])
        x[: tone.size] += tone
    return x


def _mix(rng: np.random.Generator, bed: np.ndarray, placed) -> AudioClip:
    """Add a click per (onset, kind) to the noise bed, then speech-band noise."""
    for onset, kind in placed:
        burst = _click(rng, kind)
        bed[onset : onset + burst.size] += burst[: bed.size - onset]
    clean = AudioClip(samples=np.clip(bed, -1.0, 1.0), sample_rate=SAMPLE_RATE)
    speech = speech_band_noise(bed.size, SAMPLE_RATE, rng, rms=0.1)
    return mix_noise(clean, speech, SPEECH_SNR_DB).clip


def rally(seed, dur_s: float, pattern: tuple[str, ...] = POINT) -> Rally:
    """Back-to-back points, bounces ~0.3 s apart, over pink noise, then
    speech-band noise at 20 dB SNR.

    The bounce count and the sequence of surfaces are fixed by the
    duration (``pattern`` repeated, the last repeat cut short), so every seed
    asks the same work of the classifiers; only the gaps, the spins and the
    noise are random. ``seed`` is anything ``numpy.random.default_rng``
    accepts.
    """
    rng = np.random.default_rng(seed)
    n = int(dur_s * SAMPLE_RATE)
    x = pink_noise(n, rng, PINK_RMS)
    span = dur_s - LEAD_S - TAIL_S
    count = int(span / np.mean(GAP_S)) + 1
    gaps = rng.uniform(*GAP_S, size=count - 1)
    gaps *= span / gaps.sum()
    times = LEAD_S + np.concatenate([[0.0], np.cumsum(gaps)])
    surfaces = [pattern[k % len(pattern)] for k in range(count)]
    spins = iter(rng.permutation(np.resize(SPINS, surfaces.count("racket_01"))))
    kinds = [KIND[s, str(next(spins)) if s == "racket_01" else None] for s in surfaces]
    onsets = [int(t * SAMPLE_RATE) for t in times]
    bounces = tuple(Bounce(onset, kind[0], kind[1]) for onset, kind in zip(onsets, kinds))
    return Rally(_mix(rng, x, zip(onsets, kinds)), bounces)


def records(rallies: list[Rally], seed: int) -> list[FeatureRecord]:
    """Labelled log-mel records cut up to ``CUT_JITTER`` samples before each
    true onset, the spread of detected onsets, so models trained on them
    see windows as ``run`` cuts them."""
    rng = np.random.default_rng(seed)
    out = []
    for r in rallies:
        for b in r.bounces:
            cut = b.onset_sample - int(rng.integers(0, CUT_JITTER + 1))
            cells = log_mel(extract_window(r.clip, cut)).astype(np.float32)
            spin = SPIN_IDS[b.spin] if b.spin else -1
            out.append(FeatureRecord(surface=SURFACE_IDS[b.surface], spin=spin, cells=cells))
    return out


def write_click_corpus(outdir: Path, seed, per_kind: int) -> tuple[Path, int]:
    """One short WAV per bounce plus a ``manifest.csv``; returns (manifest, rows)."""
    outdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n = int(0.1 * SAMPLE_RATE)
    onset = int(0.03 * SAMPLE_RATE)
    rows = ["path,onset_ms,surface,spin"]
    for i in range(per_kind * len(KINDS)):
        kind = KINDS[i % len(KINDS)]
        name = f"click_{i:04d}.wav"
        write_wav(outdir / name, _mix(rng, pink_noise(n, rng, PINK_RMS), [(onset, kind)]))
        rows.append(f"{name},{1000.0 * onset / SAMPLE_RATE:.6f},{kind[0]},{kind[1] or ''}")
    manifest = outdir / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest, len(rows) - 1
