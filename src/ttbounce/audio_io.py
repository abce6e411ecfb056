"""WAV I/O, labeled-dataset manifests, and SNR-controlled noise mixing.

Dataset audio is mono 44.1 kHz with samples in [-1, 1]. The loader
downmixes stereo by channel mean and scales 16-bit PCM by 1/32768; the
writer emits 16-bit PCM little-endian mono.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    EmptyDataError,
    FormatError,
    ParameterError,
    UnsupportedFormatError,
    ValidationError,
)

DATASET_SAMPLE_RATE = 44100
PCM16_SCALE = 32768.0


class SurfaceClass(IntEnum):
    """Impact-surface labels. Integer values are the stable confusion-matrix ids."""

    racket_01 = 0
    racket_02 = 1
    racket_03 = 2
    racket_04 = 3
    racket_05 = 4
    racket_06 = 5
    racket_07 = 6
    racket_08 = 7
    racket_09 = 8
    racket_10 = 9
    table = 10
    floor = 11
    other = 12

    @property
    def is_racket(self) -> bool:
        return self.value <= SurfaceClass.racket_10.value


class SpinClass(IntEnum):
    """Spin labels for racket impacts. Integer values are stable ids."""

    back = 0
    flat = 1
    top = 2


SURFACE_NAMES = tuple(s.name for s in SurfaceClass)
SPIN_NAMES = tuple(s.name for s in SpinClass)


@dataclass(frozen=True)
class AudioClip:
    """Immutable mono sample buffer plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise ParameterError(f"AudioClip samples must be 1-D, got shape {x.shape}")
        if x.size == 0:
            raise ParameterError("AudioClip may not be empty")
        if not (isinstance(self.sample_rate, (int, np.integer)) and self.sample_rate > 0):
            raise ParameterError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    onset_ms: float
    surface: SurfaceClass
    spin: SpinClass | None


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


# --- WAV container -----------------------------------------------------------

_WAVE_PCM = 1
_WAVE_IEEE_FLOAT = 3


def _parse_wav_chunks(raw: bytes, path: Path) -> tuple[dict, bytes]:
    """Walk the RIFF chunk list and return (fmt fields, data bytes)."""
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"{path}: truncated '{cid.decode('latin1')}' chunk")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"{path}: fmt chunk too short")
            tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            fmt = {"tag": tag, "channels": channels, "rate": rate, "bits": bits}
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")
    return fmt, data


def _wav_info(path: Path) -> tuple[int, int]:
    """Sample rate and per-channel frame count, without decoding samples."""
    fmt, data = _parse_wav_chunks(Path(path).read_bytes(), Path(path))
    bytes_per_sample = fmt["bits"] // 8
    denom = max(1, bytes_per_sample * fmt["channels"])
    return fmt["rate"], len(data) // denom


def load_wav(path: str | Path) -> AudioClip:
    """Load a PCM16 or float32 WAV file as a mono clip in [-1, 1].

    Stereo input is downmixed by the arithmetic mean of the two channels.
    A float file holding a NaN or infinite sample is rejected with
    FormatError.
    """
    path = Path(path)
    fmt, data = _parse_wav_chunks(path.read_bytes(), path)
    if fmt["tag"] not in (_WAVE_PCM, _WAVE_IEEE_FLOAT):
        raise UnsupportedFormatError(f"{path}: unsupported format tag {fmt['tag']}")
    if fmt["tag"] == _WAVE_PCM and fmt["bits"] != 16:
        raise UnsupportedFormatError(f"{path}: only 16-bit PCM supported, got {fmt['bits']}-bit")
    if fmt["tag"] == _WAVE_IEEE_FLOAT and fmt["bits"] != 32:
        raise UnsupportedFormatError(f"{path}: only 32-bit float supported, got {fmt['bits']}-bit")
    if fmt["channels"] not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {fmt['channels']} channels not supported")
    if len(data) == 0:
        raise EmptyDataError(f"{path}: empty data chunk")

    if fmt["tag"] == _WAVE_PCM:
        x = np.frombuffer(data[: len(data) // 2 * 2], dtype="<i2").astype(np.float64)
        x /= PCM16_SCALE
    else:
        x = np.frombuffer(data[: len(data) // 4 * 4], dtype="<f4").astype(np.float64)
        finite = np.isfinite(x)
        if not finite.all():
            raise FormatError(f"{path}: non-finite float sample at index {np.argmin(finite)}")
        x = np.clip(x, -1.0, 1.0)  # out-of-range float samples are clipped
    if fmt["channels"] == 2:
        x = x[: x.size // 2 * 2].reshape(-1, 2).mean(axis=1)
    if x.size == 0:
        raise EmptyDataError(f"{path}: no decodable samples")
    return AudioClip(samples=x, sample_rate=fmt["rate"])


def write_wav(path: str | Path, clip: AudioClip) -> None:
    """Write a clip as mono 16-bit PCM. Samples outside [-1, 1] are clamped."""
    q = np.clip(np.round(clip.samples * PCM16_SCALE), -32768, 32767).astype("<i2")
    data = q.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, _WAVE_PCM, 1, clip.sample_rate, clip.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(data))
    Path(path).write_bytes(header + data)


# --- Manifest ----------------------------------------------------------------

_MANIFEST_HEADER = ["path", "onset_ms", "surface", "spin"]


def read_utf8(path: str | Path, error: type[Exception]) -> str:
    """The text of a file; bytes that are not UTF-8 raise ``error`` with their offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte offset {exc.start})") from None


def load_manifest(path: str | Path) -> DatasetManifest:
    """Parse a labeled-recording manifest CSV.

    Rows are ``path,onset_ms,surface,spin``; relative paths resolve against
    the manifest's directory; the spin field is empty for non-racket rows.
    """
    path = Path(path)
    root = path.parent
    entries: list[ManifestEntry] = []
    reader = csv.reader(io.StringIO(read_utf8(path, ValidationError), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty manifest") from None
    if [h.strip() for h in header] != _MANIFEST_HEADER:
        raise ValidationError(
            f"{path}: expected header {','.join(_MANIFEST_HEADER)!r}, got {','.join(header)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 4:
            raise ValidationError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        raw_path, raw_onset, raw_surface, raw_spin = (c.strip() for c in row)
        try:
            onset_ms = float(raw_onset)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad onset_ms {raw_onset!r}") from None
        if onset_ms < 0:
            raise ValidationError(f"{path}:{lineno}: onset_ms must be >= 0")
        try:
            surface = SurfaceClass[raw_surface]
        except KeyError:
            raise ValidationError(f"{path}:{lineno}: unknown surface label {raw_surface!r}") from None
        spin: SpinClass | None = None
        if raw_spin:
            try:
                spin = SpinClass[raw_spin]
            except KeyError:
                raise ValidationError(f"{path}:{lineno}: unknown spin label {raw_spin!r}") from None
            if not surface.is_racket:
                raise ValidationError(
                    f"{path}:{lineno}: spin label on non-racket surface {surface.name!r}"
                )
        file_path = Path(raw_path)
        if not file_path.is_absolute():
            file_path = root / file_path
        entries.append(ManifestEntry(file_path, onset_ms, surface, spin))

    missing = sorted({str(e.path) for e in entries if not e.path.exists()})
    if missing:
        raise ValidationError(f"{path}: missing referenced files: " + ", ".join(missing))
    info = {p: _wav_info(p) for p in dict.fromkeys(e.path for e in entries)}
    for e in entries:
        rate, n = info[e.path]
        if e.onset_ms > 1000.0 * n / rate:
            raise ValidationError(
                f"{path}: onset {e.onset_ms} ms beyond duration of {e.path}"
            )
    return DatasetManifest(entries=tuple(entries))


# --- Noise mixing ------------------------------------------------------------


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(np.asarray(x, dtype=np.float64)))))


@dataclass(frozen=True)
class MixResult:
    """Output of :func:`mix_noise` with the gains actually applied.

    ``noise_gain`` is the factor applied to the noise to hit the requested
    SNR; ``rescale`` is the whole-mix factor (1.0 unless the sum clipped).
    """

    clip: AudioClip
    noise_gain: float
    rescale: float


def mix_noise(signal: AudioClip, noise: AudioClip, snr_db: float) -> MixResult:
    """Overlay noise on a signal at a requested signal-to-noise ratio.

    The noise is tiled or truncated to the signal length, then scaled so
    20*log10(rms(signal)/rms(gain*noise)) equals ``snr_db``. If the sum
    clips, the whole mix is rescaled to unit peak and the factor reported.
    """
    if signal.sample_rate != noise.sample_rate:
        raise ParameterError(
            f"sample-rate mismatch: signal {signal.sample_rate}, noise {noise.sample_rate}"
        )
    n = len(signal)
    reps = math.ceil(n / len(noise))
    tiled = np.tile(noise.samples, reps)[:n]
    noise_rms = rms(tiled)
    if noise_rms == 0.0:
        raise ParameterError("noise clip is silent (zero RMS)")
    gain = rms(signal.samples) / (10.0 ** (snr_db / 20.0) * noise_rms)
    mixed = signal.samples + gain * tiled
    peak = float(np.max(np.abs(mixed)))
    rescale = 1.0 if peak <= 1.0 else 1.0 / peak
    return MixResult(
        clip=AudioClip(samples=mixed * rescale, sample_rate=signal.sample_rate),
        noise_gain=gain,
        rescale=rescale,
    )
