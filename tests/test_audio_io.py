import os
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import float32_wav_bytes, pcm16_wav_bytes, wav_bytes_custom
from ttbounce import (
    AudioClip,
    SpinClass,
    SurfaceClass,
    load_manifest,
    load_wav,
    mix_noise,
    write_wav,
)
from ttbounce.audio_io import rms
from ttbounce.errors import (
    EmptyDataError,
    FormatError,
    ParameterError,
    UnsupportedFormatError,
    ValidationError,
)


def test_stereo_opposite_channels_downmix_to_silence(tmp_path):
    n = 400
    left = np.full(n, 16384, dtype=np.int16)
    right = np.full(n, -16384, dtype=np.int16)
    p = tmp_path / "s.wav"
    p.write_bytes(pcm16_wav_bytes([left, right]))
    clip = load_wav(p)
    assert clip.sample_rate == 44100
    assert np.all(clip.samples == 0.0)


def test_pcm16_full_scale_sample(tmp_path):
    p = tmp_path / "m.wav"
    p.write_bytes(pcm16_wav_bytes([np.array([32767, 0, -32768], dtype=np.int16)]))
    clip = load_wav(p)
    assert clip.samples[0] == pytest.approx(32767 / 32768, abs=1e-12)
    assert clip.samples[2] == -1.0


def test_pcm16_roundtrip_100_random_files(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(100):
        original = rng.integers(-32768, 32768, size=rng.integers(50, 500), dtype=np.int16)
        src = tmp_path / f"r{i}.wav"
        src.write_bytes(pcm16_wav_bytes([original]))
        clip = load_wav(src)
        dst = tmp_path / f"w{i}.wav"
        write_wav(dst, clip)
        again = load_wav(dst)
        assert np.max(np.abs(again.samples - clip.samples)) <= 1.0 / 32768
        # PCM16 in, PCM16 out: bit exact
        assert np.array_equal(
            np.frombuffer(dst.read_bytes()[44:], dtype="<i2"), original
        )


def test_write_silence_441_samples_data_chunk(tmp_path):
    p = tmp_path / "sil.wav"
    write_wav(p, AudioClip(samples=np.zeros(441), sample_rate=44100))
    raw = p.read_bytes()
    at = raw.index(b"data")
    (size,) = struct.unpack_from("<I", raw, at + 4)
    assert size == 882  # 2 bytes per sample


def test_write_clamps_full_scale(tmp_path):
    p = tmp_path / "c.wav"
    write_wav(p, AudioClip(samples=np.array([1.0, -1.0, 2.0]), sample_rate=44100))
    stored = np.frombuffer(p.read_bytes()[44:], dtype="<i2")
    assert stored[0] == 32767
    assert stored[1] == -32768
    assert stored[2] == 32767


def test_float_clip_roundtrip_error_bound(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(20):
        x = rng.uniform(-1, 1, size=300)
        p = tmp_path / f"f{i}.wav"
        write_wav(p, AudioClip(samples=x, sample_rate=44100))
        back = load_wav(p)
        assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768


def test_malformed_header_rejected(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_wav(p)


def test_truncated_data_chunk_rejected(tmp_path):
    good = pcm16_wav_bytes([np.zeros(100, dtype=np.int16)])
    p = tmp_path / "t.wav"
    p.write_bytes(good[:-50])
    with pytest.raises(FormatError):
        load_wav(p)


def test_unsupported_24_bit_rejected(tmp_path):
    p = tmp_path / "b24.wav"
    p.write_bytes(wav_bytes_custom(1, 24, 1, b"\x00" * 300))
    with pytest.raises(UnsupportedFormatError):
        load_wav(p)


def test_unsupported_compressed_rejected(tmp_path):
    p = tmp_path / "ima.wav"
    p.write_bytes(wav_bytes_custom(0x11, 4, 1, b"\x00" * 300))
    with pytest.raises(UnsupportedFormatError):
        load_wav(p)


def test_empty_data_rejected(tmp_path):
    p = tmp_path / "e.wav"
    p.write_bytes(pcm16_wav_bytes([np.zeros(0, dtype=np.int16)]))
    with pytest.raises(EmptyDataError):
        load_wav(p)


def test_float32_file_loads_and_clips(tmp_path):
    p = tmp_path / "f32.wav"
    p.write_bytes(float32_wav_bytes([np.array([0.5, -0.25, 1.5], dtype=np.float32)]))
    clip = load_wav(p)
    assert clip.samples[0] == pytest.approx(0.5, abs=1e-7)
    assert clip.samples[2] == 1.0  # out-of-range float clipped


def test_downmix_equals_mean_of_channels(tmp_path):
    rng = np.random.default_rng(11)
    for i in range(10):
        a = rng.integers(-30000, 30000, size=200, dtype=np.int16)
        b = rng.integers(-30000, 30000, size=200, dtype=np.int16)
        stereo = tmp_path / f"st{i}.wav"
        mono_a = tmp_path / f"a{i}.wav"
        mono_b = tmp_path / f"b{i}.wav"
        stereo.write_bytes(pcm16_wav_bytes([a, b]))
        mono_a.write_bytes(pcm16_wav_bytes([a]))
        mono_b.write_bytes(pcm16_wav_bytes([b]))
        mixed = load_wav(stereo).samples
        mean = (load_wav(mono_a).samples + load_wav(mono_b).samples) / 2
        assert np.max(np.abs(mixed - mean)) <= 1.0 / 32768


# --- Manifest -----------------------------------------------------------------


def _write_clip(path: Path, n: int = 4410):
    path.write_bytes(pcm16_wav_bytes([np.zeros(n, dtype=np.int16)]))


def test_manifest_parses_labels(tmp_path):
    _write_clip(tmp_path / "a.wav")
    _write_clip(tmp_path / "b.wav")
    m = tmp_path / "m.csv"
    m.write_text(
        "path,onset_ms,surface,spin\n"
        "a.wav,12.5,racket_01,top\n"
        "b.wav,3.0,table,\n"
    )
    manifest = load_manifest(m)
    assert manifest.entries[0].surface is SurfaceClass.racket_01
    assert manifest.entries[0].spin is SpinClass.top
    assert manifest.entries[0].onset_ms == 12.5
    assert manifest.entries[1].surface is SurfaceClass.table
    assert manifest.entries[1].spin is None


def test_manifest_rejects_unknown_racket(tmp_path):
    _write_clip(tmp_path / "c.wav")
    m = tmp_path / "m.csv"
    m.write_text("path,onset_ms,surface,spin\nc.wav,1.0,racket_11,flat\n")
    with pytest.raises(ValidationError, match="racket_11"):
        load_manifest(m)


def test_manifest_rejects_spin_on_table(tmp_path):
    _write_clip(tmp_path / "c.wav")
    m = tmp_path / "m.csv"
    m.write_text("path,onset_ms,surface,spin\nc.wav,1.0,table,top\n")
    with pytest.raises(ValidationError, match="non-racket"):
        load_manifest(m)


def test_manifest_lists_all_missing_files(tmp_path):
    _write_clip(tmp_path / "ok.wav")
    m = tmp_path / "m.csv"
    m.write_text(
        "path,onset_ms,surface,spin\n"
        "ok.wav,1.0,table,\n"
        "gone1.wav,1.0,floor,\n"
        "gone2.wav,1.0,other,\n"
    )
    with pytest.raises(ValidationError) as exc:
        load_manifest(m)
    assert "gone1.wav" in str(exc.value) and "gone2.wav" in str(exc.value)


def test_manifest_rejects_onset_beyond_duration(tmp_path):
    _write_clip(tmp_path / "short.wav", n=441)  # 10 ms
    m = tmp_path / "m.csv"
    m.write_text("path,onset_ms,surface,spin\nshort.wav,50.0,table,\n")
    with pytest.raises(ValidationError, match="beyond duration"):
        load_manifest(m)


def test_manifest_rejects_wrong_header(tmp_path):
    m = tmp_path / "m.csv"
    m.write_text("file,onset,label\nx,1,2\n")
    with pytest.raises(ValidationError, match="header"):
        load_manifest(m)


@pytest.mark.skipif(
    "TTSOUNDS_MANIFEST" not in os.environ,
    reason="public dataset manifest not available (set TTSOUNDS_MANIFEST)",
)
def test_dataset_class_totals_match_published_counts():
    manifest = load_manifest(os.environ["TTSOUNDS_MANIFEST"])
    counts = Counter(e.surface for e in manifest.entries)
    racket_total = sum(counts[s] for s in SurfaceClass if s.is_racket)
    assert racket_total == 3396
    assert counts[SurfaceClass.table] == 777
    assert counts[SurfaceClass.floor] == 290
    assert counts[SurfaceClass.other] == 1239
    spins = Counter(e.spin for e in manifest.entries)
    assert spins[SpinClass.back] == 991
    assert spins[SpinClass.flat] == 1879
    assert spins[SpinClass.top] == 526


# --- Noise mixing ---------------------------------------------------------------


def _tone(n, freq, amp, fs=44100):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / fs)


def test_equal_power_zero_snr_gain_is_one():
    s = AudioClip(samples=_tone(4410, 440, 0.1), sample_rate=44100)
    n = AudioClip(samples=_tone(4410, 700, 0.1), sample_rate=44100)
    result = mix_noise(s, n, 0.0)
    assert result.noise_gain == pytest.approx(1.0, abs=1e-12)


def test_plus_20db_gain_formula():
    s = AudioClip(samples=_tone(4410, 440, 0.3), sample_rate=44100)
    n = AudioClip(samples=_tone(4410, 700, 0.05), sample_rate=44100)
    result = mix_noise(s, n, 20.0)
    assert result.noise_gain == pytest.approx(rms(s.samples) / (10 * rms(n.samples)), rel=1e-12)


@given(st.floats(min_value=-20, max_value=40), st.integers(0, 1000))
def test_measured_snr_matches_request(snr_db, seed):
    rng = np.random.default_rng(seed)
    s = AudioClip(samples=0.05 * rng.standard_normal(2000), sample_rate=44100)
    n = AudioClip(samples=0.05 * rng.standard_normal(1500), sample_rate=44100)
    result = mix_noise(s, n, snr_db)
    signal_part = result.rescale * s.samples
    noise_part = result.clip.samples - signal_part
    measured = 20 * np.log10(rms(signal_part) / rms(noise_part))
    assert measured == pytest.approx(snr_db, abs=0.01)


def test_silent_noise_rejected():
    s = AudioClip(samples=_tone(1000, 440, 0.1), sample_rate=44100)
    silent = AudioClip(samples=np.zeros(500), sample_rate=44100)
    with pytest.raises(ParameterError, match="silent"):
        mix_noise(s, silent, 10.0)


def test_rate_mismatch_rejected():
    s = AudioClip(samples=_tone(1000, 440, 0.1), sample_rate=44100)
    n = AudioClip(samples=_tone(1000, 440, 0.1, fs=48000), sample_rate=48000)
    with pytest.raises(ParameterError, match="mismatch"):
        mix_noise(s, n, 10.0)


def test_huge_snr_output_is_signal():
    s = AudioClip(samples=_tone(1000, 440, 0.1), sample_rate=44100)
    n = AudioClip(samples=_tone(900, 700, 0.1), sample_rate=44100)
    result = mix_noise(s, n, 200.0)
    assert np.max(np.abs(result.clip.samples - s.samples)) < 1e-6


def test_clipping_mix_rescaled_and_reported():
    s = AudioClip(samples=_tone(1000, 440, 0.9), sample_rate=44100)
    n = AudioClip(samples=_tone(1000, 441, 0.9), sample_rate=44100)
    result = mix_noise(s, n, 0.0)
    assert result.rescale < 1.0
    assert np.max(np.abs(result.clip.samples)) <= 1.0 + 1e-12


def test_noise_tiled_to_signal_length():
    s = AudioClip(samples=_tone(5000, 440, 0.1), sample_rate=44100)
    n = AudioClip(samples=_tone(700, 900, 0.1), sample_rate=44100)
    assert len(mix_noise(s, n, 5.0).clip) == 5000


def test_audio_clip_rejects_empty():
    with pytest.raises(ParameterError):
        AudioClip(samples=np.zeros(0), sample_rate=44100)


def test_audio_clip_immutable():
    clip = AudioClip(samples=np.zeros(10), sample_rate=44100)
    with pytest.raises(ValueError):
        clip.samples[0] = 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_float_sample_rejected(tmp_path, bad):
    from ttbounce.cli import main

    x = np.zeros(2 * 44100, dtype=np.float32)
    x[1000] = bad
    p = tmp_path / "bad.wav"
    p.write_bytes(float32_wav_bytes([x]))
    with pytest.raises(FormatError, match="non-finite"):
        load_wav(p)
    assert main(["detect", str(p)]) == 3
