import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct, idct

from ttbounce import (
    FeatureRecord,
    hz_to_mel,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    read_feature_file,
    stft,
    write_feature_file,
)
from ttbounce.errors import FormatError, ParameterError
from ttbounce.features import mfcc_from_cells, normalize_cells
from ttbounce.synth import band_noise, damped_tone

FS = 44100


# --- STFT -------------------------------------------------------------------------


def test_on_bin_cosine_magnitude():
    k = 16
    n = np.arange(661)
    window = np.cos(2 * np.pi * k * n / 256)
    mags = np.abs(stft(window))
    # Hann coherent gain 0.5: |X[k]| = 256/2 * 0.5 = 64 in every frame.
    assert np.allclose(mags[k], 64.0, atol=1e-6)
    others = np.delete(mags[:, 0], [k - 1, k, k + 1])
    assert np.max(others) < 1e-9


def test_all_zero_window_gives_zero_matrix():
    assert np.all(stft(np.zeros(661)) == 0.0)


def test_stft_shape_661_samples():
    assert stft(np.zeros(661)).shape == (129, 7)


def test_parseval_per_frame(rng):
    window = rng.standard_normal(661)
    result = stft(window)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(256) / 256)
    for t in range(7):
        frame = window[t * 64 : t * 64 + 256] * win
        doubling = np.full(129, 2.0)
        doubling[0] = doubling[-1] = 1.0
        lhs = np.sum(doubling * np.abs(result[:, t]) ** 2)
        rhs = 256 * np.sum(frame**2)  # oracle: direct time-domain summation
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_window_shorter_than_fft_rejected():
    with pytest.raises(ParameterError):
        stft(np.zeros(200))


# --- mel filterbank -----------------------------------------------------------------


def test_mel_of_1khz():
    expected = 2595 * math.log10(1 + 1000 / 700)  # oracle: the defining formula
    assert hz_to_mel(1000.0) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(999.99, abs=0.05)
    assert mel_to_hz(hz_to_mel(1234.5)) == pytest.approx(1234.5, abs=1e-6)


def test_filterbank_rows_all_positive():
    fb = mel_filterbank()
    assert fb.shape == (64, 129)
    assert np.all(fb.sum(axis=1) > 0.0)


def test_filter_centers_monotone_in_hz():
    centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(22050.0), 66))[1:-1]
    assert np.all(np.diff(centers) > 0)
    # peak bins of consecutive filters never move backwards
    fb = mel_filterbank()
    peak_bins = fb.argmax(axis=1)
    assert np.all(np.diff(peak_bins) >= 0)


def test_every_bin_between_first_and_last_center_covered():
    fb = mel_filterbank()
    centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(22050.0), 66))[1:-1]
    bin_freqs = np.arange(129) * FS / 256
    inside = (bin_freqs > centers[0]) & (bin_freqs < centers[-1])
    assert np.all(fb.sum(axis=0)[inside] > 0.0)


# --- mel spectrogram ------------------------------------------------------------------


def _normalized_mel(window):
    # The CNN and SVM input for one window, as mel_inputs builds it.
    return normalize_cells(log_mel(window))


def test_mel_spectrogram_shape_and_normalization(rng):
    m = _normalized_mel(rng.standard_normal(661) * 0.1)
    assert m.shape == (64, 7)
    assert abs(float(np.mean(m))) < 1e-6
    assert abs(float(np.std(m)) - 1.0) < 1e-6


def test_all_zero_window_stays_all_zero():
    assert np.all(_normalized_mel(np.zeros(661)) == 0.0)


def test_normalization_idempotent(rng):
    m = _normalized_mel(rng.standard_normal(661))
    again = normalize_cells(m)
    assert np.max(np.abs(again - m)) < 1e-9


@settings(max_examples=30)
@given(st.sampled_from([0.25, 0.5, 2.0, 4.0]), st.integers(0, 1000))
def test_gain_invariance_of_normalized_mel(gain, seed):
    # Holds whenever the log floor (1e-10) stays negligible against every
    # cell's power, so windows whose scaled cells approach it are excluded.
    from hypothesis import assume

    gen = np.random.default_rng(seed)
    window = gen.standard_normal(661) * float(gen.uniform(0.3, 1.0)) + 0.05
    assume(float(np.exp(log_mel(window)).min()) >= 1e-3)
    base = _normalized_mel(window)
    scaled = _normalized_mel(gain * window)
    assert np.max(np.abs(base - scaled)) < 1e-6


def test_click_has_more_high_band_energy_than_speech(rng):
    fb = mel_filterbank()
    centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(22050.0), 66))[1:-1]
    bands = np.flatnonzero((centers >= 10000.0) & (centers <= 12000.0))
    click = np.zeros(661)
    burst = damped_tone(FS, amp=0.5)
    click[44 : 44 + burst.size] = burst
    speech = band_noise(661, FS, (300.0, 3000.0), rng, rms=0.1)
    power = lambda w: np.exp(log_mel(w))  # pre-log band power
    click_mean = power(click)[bands].mean()
    speech_mean = power(speech)[bands].mean()
    assert click_mean > speech_mean


# --- MFCC -------------------------------------------------------------------------------


def test_constant_cells_put_everything_in_dc():
    c = 3.7
    cells = np.full((64, 7), c)
    coeffs = mfcc_from_cells(cells)
    assert coeffs[0] == pytest.approx(c * math.sqrt(64), rel=1e-12)
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_dct_orthonormal_roundtrip(rng):
    for _ in range(10):
        v = rng.standard_normal(64)
        back = idct(dct(v, type=2, norm="ortho"), type=2, norm="ortho")
        assert np.max(np.abs(back - v)) < 1e-9


def test_mfcc_length(rng):
    assert mfcc_from_cells(log_mel(rng.standard_normal(661))).shape == (20,)


def test_mfcc_matches_dct_of_log_mel(rng):
    window = rng.standard_normal(661) * 0.2
    expected = dct(log_mel(window), type=2, axis=0, norm="ortho")[:20].mean(axis=1)
    assert np.allclose(mfcc_from_cells(log_mel(window)), expected, atol=1e-12)


# --- feature container -------------------------------------------------------------------


def _records(rng, n=5):
    return [
        FeatureRecord(
            surface=int(rng.integers(0, 13)),
            spin=int(rng.integers(-1, 3)),
            cells=rng.standard_normal((64, 7)).astype(np.float32),
        )
        for _ in range(n)
    ]


def test_feature_file_roundtrip(tmp_path, rng):
    records = _records(rng)
    p = tmp_path / "f.ttfe"
    write_feature_file(p, records)
    back = read_feature_file(p)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.surface == b.surface
        assert a.spin == b.spin
        assert np.array_equal(a.cells, b.cells)


def test_feature_file_size_formula(tmp_path, rng):
    records = _records(rng, n=3)
    p = tmp_path / "f.ttfe"
    write_feature_file(p, records)
    assert p.stat().st_size == 5 + 3 * (4 + 2 + 448 * 4)


def test_feature_file_bad_magic(tmp_path, rng):
    p = tmp_path / "f.ttfe"
    write_feature_file(p, _records(rng, 2))
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_feature_file(p)


def test_feature_file_truncated(tmp_path, rng):
    p = tmp_path / "f.ttfe"
    write_feature_file(p, _records(rng, 2))
    p.write_bytes(p.read_bytes()[:-100])
    with pytest.raises(FormatError, match="truncated"):
        read_feature_file(p)


def test_minimal_spec_layout_record_readable(tmp_path, rng):
    # A record built byte-by-byte from the documented layout.
    import struct

    cells = rng.standard_normal((64, 7)).astype("<f4")
    payload = struct.pack("<bb", 10, -1) + cells.tobytes(order="C")
    p = tmp_path / "hand.ttfe"
    p.write_bytes(b"TTFE1" + struct.pack("<I", len(payload)) + payload)
    records = read_feature_file(p)
    assert len(records) == 1
    assert records[0].surface == 10
    assert records[0].spin == -1
    assert np.array_equal(records[0].cells, cells)


def test_wrong_cell_shape_rejected_on_write(tmp_path):
    with pytest.raises(ParameterError):
        write_feature_file(
            tmp_path / "x.ttfe",
            [FeatureRecord(surface=0, spin=-1, cells=np.zeros((32, 7), dtype=np.float32))],
        )
