"""Classifier input features: the fixed log-mel front end and MFCC vectors.

The front end has one geometry, built for the dataset rate
(``audio_io.DATASET_SAMPLE_RATE``, 44.1 kHz): a 661-sample window that
starts 44 samples (1 ms) before the onset, cut into 7 frames by a
256-point periodic-Hann STFT at hop 64, and 64 mel bands, giving the 64x7
matrix every TTFE1 file stores and every classifier consumes. The Hann
window and the mel filterbank are built once, at import. The GMM baseline
takes 20 frame-averaged MFCCs computed from the same log-mel matrix before
normalization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import dct

from .audio_io import DATASET_SAMPLE_RATE
from .errors import FormatError, ParameterError

LOG_FLOOR = 1e-10
N_FFT = 256
HOP = 64
N_MELS = 64
WINDOW_LEN = 661
N_FRAMES = (WINDOW_LEN - N_FFT) // HOP + 1  # 7
PRE_ONSET = 44  # samples of the window before the onset: 1 ms at the dataset rate
N_MFCC = 20

_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)  # periodic


def stft(window: np.ndarray) -> np.ndarray:
    """Short-time Fourier transform, bins x frames, no centering.

    Frame t covers samples [t*HOP, t*HOP + N_FFT); each frame is Hann
    windowed and only the non-negative-frequency bins are kept.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1 or x.size < N_FFT:
        raise ParameterError(f"window of {x.size} samples is shorter than n_fft={N_FFT}")
    n_frames = (x.size - N_FFT) // HOP + 1
    frames = np.stack([x[t * HOP : t * HOP + N_FFT] for t in range(n_frames)])
    return np.fft.rfft(frames * _HANN, axis=1).T


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _triangle_cell_average(fl: float, fc: float, fr: float, a: float, b: float) -> float:
    """Exact average of the unit triangle (fl, fc, fr) over the interval [a, b]."""

    def seg(lo: float, hi: float, y_lo: float, y_hi: float, u: float, v: float) -> float:
        # integral of the linear segment over [u, v] clipped to [lo, hi]
        u, v = max(u, lo), min(v, hi)
        if v <= u:
            return 0.0
        slope = (y_hi - y_lo) / (hi - lo)
        gu = y_lo + slope * (u - lo)
        gv = y_lo + slope * (v - lo)
        return 0.5 * (gu + gv) * (v - u)

    total = seg(fl, fc, 0.0, 1.0, a, b) + seg(fc, fr, 1.0, 0.0, a, b)
    return total / (b - a)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filterbank from 0 Hz to Nyquist, (N_MELS, N_FFT//2 + 1).

    Filter peaks are equally spaced on the mel scale with 50% overlap and
    every triangle peaks at 1. Weights are the triangle's average over each
    FFT bin's frequency cell rather than a point sample at the bin center;
    a point sample leaves the narrow low-frequency triangles without any
    bin at this resolution, and every band must stay live.
    """
    nyquist = DATASET_SAMPLE_RATE / 2.0
    edges = np.asarray(mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), N_MELS + 2)))
    n_bins = N_FFT // 2 + 1
    cell = DATASET_SAMPLE_RATE / N_FFT
    centers = np.arange(n_bins) * cell
    fb = np.zeros((N_MELS, n_bins))
    for j in range(N_MELS):
        fl, fc, fr = edges[j], edges[j + 1], edges[j + 2]
        lo = max(0, int((fl - cell / 2) // cell))
        hi = min(n_bins - 1, int((fr + cell / 2) // cell) + 1)
        for k in range(lo, hi + 1):
            a, b = centers[k] - cell / 2, centers[k] + cell / 2
            if b > fl and a < fr:
                fb[j, k] = _triangle_cell_average(fl, fc, fr, a, b)
    return fb


_FILTERBANK = mel_filterbank()


def log_mel(window: np.ndarray) -> np.ndarray:
    """Log-compressed mel power matrix (N_MELS, frames), no normalization."""
    power = np.square(np.abs(stft(window)))
    return np.log(_FILTERBANK @ power + LOG_FLOOR)


def normalize_cells(values: np.ndarray) -> np.ndarray:
    """Z-score over all cells (population std). Constant input maps to zeros."""
    mean = float(np.mean(values))
    std = float(np.std(values))
    if std <= 1e-12 * max(1.0, abs(mean)):
        return np.zeros_like(values)
    return (values - mean) / std


def mfcc_from_cells(cells: np.ndarray) -> np.ndarray:
    """Frame-averaged MFCCs: orthonormal DCT-II along the mel axis of the
    pre-normalization log-mel cells, truncated to ``N_MFCC``."""
    coeffs = dct(np.asarray(cells, dtype=np.float64), type=2, axis=0, norm="ortho")
    return coeffs[:N_MFCC].mean(axis=1)


# --- Feature container (TTFE1) -------------------------------------------------

FEATURE_MAGIC = b"TTFE1"
_CELL_COUNT = N_MELS * N_FRAMES  # 448
_RECORD_PAYLOAD = 2 + 4 * _CELL_COUNT


@dataclass(frozen=True)
class FeatureRecord:
    """One labeled window: class ids plus its pre-normalization log-mel cells.

    ``spin`` is -1 when the window has no spin label. Cells are float32,
    row-major band x frame; consumers z-score them for the CNN/SVM and
    DCT them for MFCCs.
    """

    surface: int
    spin: int
    cells: np.ndarray


def write_feature_file(path: str | Path, records: list[FeatureRecord]) -> None:
    """Write records in the TTFE1 container.

    Layout: magic ``TTFE1``, then per record a little-endian uint32 payload
    length followed by surface id (int8), spin id (int8, -1 = none) and 448
    float32 LE cells.
    """
    chunks = [FEATURE_MAGIC]
    for i, rec in enumerate(records):
        cells = np.asarray(rec.cells, dtype="<f4")
        if cells.shape != (N_MELS, N_FRAMES):
            raise ParameterError(
                f"record {i}: cells must be {N_MELS}x{N_FRAMES}, got {cells.shape}"
            )
        payload = struct.pack("<bb", rec.surface, rec.spin) + cells.tobytes(order="C")
        chunks.append(struct.pack("<I", len(payload)) + payload)
    Path(path).write_bytes(b"".join(chunks))


def read_feature_file(path: str | Path) -> list[FeatureRecord]:
    raw = Path(path).read_bytes()
    if raw[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic, not a TTFE1 feature file")
    records: list[FeatureRecord] = []
    pos = len(FEATURE_MAGIC)
    while pos < len(raw):
        if pos + 4 > len(raw):
            raise FormatError(f"{path}: truncated record length at byte {pos}")
        (size,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if size < _RECORD_PAYLOAD or pos + size > len(raw):
            raise FormatError(f"{path}: truncated or undersized record at byte {pos}")
        surface, spin = struct.unpack_from("<bb", raw, pos)
        cells = np.frombuffer(raw, dtype="<f4", count=_CELL_COUNT, offset=pos + 2)
        records.append(
            FeatureRecord(surface=surface, spin=spin, cells=cells.reshape(N_MELS, N_FRAMES))
        )
        pos += size  # honor the declared length; tolerate trailing extensions
    # One vectorised check: per record, it would cost more than the parsing.
    finite = np.isfinite(np.reshape([r.cells for r in records], (-1, _CELL_COUNT))).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: record {finite.argmin()} has non-finite cells")
    return records
