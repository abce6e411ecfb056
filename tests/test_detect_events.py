import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttbounce import (
    AudioClip,
    BounceEvent,
    DetectorConfig,
    FilterSpec,
    StreamingDetector,
    detect_bounces,
    extract_window,
)
from ttbounce.cli import CONFIG_TABLE, config_from, parse_config_file
from ttbounce.detect import frame_energies, frame_length, write_events_csv
from ttbounce.errors import NumericError, ParameterError, ProtocolError
from ttbounce.evaluate import run_detection_benchmark
from ttbounce.synth import click_fixture, damped_tone, fixture_set, pink_noise

FS = 44100


@pytest.fixture(scope="module")
def detection_fixtures():
    return fixture_set(50, seed=7)


def test_detect_imports_nothing_from_classify():
    import subprocess
    import sys
    from pathlib import Path

    import ttbounce

    code = "import sys, ttbounce.detect; print('ttbounce.classify' in sys.modules)"
    src = str(Path(ttbounce.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src}, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout == "False\n"


# --- frame energy ---------------------------------------------------------------


def test_constant_signal_energy_is_amplitude_squared():
    e = frame_energies(np.full(441, 0.25), 44)
    assert np.allclose(e, 0.0625, atol=1e-15)
    assert e.size == 10


def test_frame_length_is_floor_of_samples_per_ms():
    assert frame_length(FS, 1.0) == 44
    assert frame_energies(np.zeros(441), 44).size == 441 // 44


def test_energy_sum_identity(rng):
    x = rng.standard_normal(1000)
    e = frame_energies(x, 44)
    covered = e.size * 44
    # Oracle: direct summation over the covered region.
    assert np.sum(e) * 44 == pytest.approx(np.sum(x[:covered] ** 2), abs=1e-9)


def test_subsample_frame_rejected():
    clip = AudioClip(samples=np.zeros(100), sample_rate=FS)
    with pytest.raises(ParameterError, match="fewer than 8 samples"):
        detect_bounces(clip, DetectorConfig(frame_ms=0.01), FilterSpec())


# --- EMA -------------------------------------------------------------------------
# The average as ``StreamingDetector.step`` updates it, over energies that stay
# below the threshold (100 x a floor of at least 1, against energies <= 10).


def _ema_detector(gamma: float, avg0: float):
    cfg = DetectorConfig(gamma=gamma, threshold_multiplier=100.0, ema_floor=1.0)
    det = StreamingDetector(cfg, FilterSpec(), FS)
    det.avg = avg0
    return det


def _ema_steps(det, e: float, k: int) -> float:
    frame = np.zeros(det.frame_length)
    for _ in range(k):
        assert det.step(e, frame) is None
    return det.avg


def test_ema_single_step():
    assert _ema_steps(_ema_detector(0.9, 0.0), 1.0, 1) == pytest.approx(0.1, abs=1e-15)


def test_ema_converges_to_constant_input():
    assert _ema_steps(_ema_detector(0.9, 5.0), 2.0, 5000) == pytest.approx(2.0, abs=1e-12)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=1, max_value=200),
)
def test_ema_closed_form(gamma, avg0, e, k):
    avg = _ema_steps(_ema_detector(gamma, avg0), e, k)
    # Oracle: closed form of the recursion.
    expected = gamma**k * avg0 + (1 - gamma**k) * e
    assert avg == pytest.approx(expected, abs=1e-12)


def test_ema_rejects_bad_gamma():
    with pytest.raises(ParameterError):
        _ema_detector(1.0, 0.0)


# --- batch detection ---------------------------------------------------------------


def _click_clip(onset: int, n: int = FS, amp: float = 0.5, noise_rms: float = 0.0, seed=0):
    x = np.zeros(n)
    if noise_rms > 0:
        x += pink_noise(n, np.random.default_rng(seed), noise_rms)
    burst = damped_tone(FS, amp=amp)
    x[onset : onset + burst.size] += burst[: n - onset]
    return AudioClip(samples=x, sample_rate=FS)


def test_single_click_onset_within_half_ms():
    clip = _click_clip(22050)
    events = detect_bounces(clip, DetectorConfig(), FilterSpec())
    assert len(events) == 1
    assert abs(events[0].onset_sample - 22050) <= 22  # 0.5 ms


def test_event_invariant_energy_exceeds_threshold():
    clip = _click_clip(22050, noise_rms=1e-3)
    cfg = DetectorConfig()
    for ev in detect_bounces(clip, cfg, FilterSpec()):
        assert ev.peak_energy > cfg.threshold_multiplier * ev.ema_at_onset
        assert 0 <= ev.onset_sample < len(clip)
        assert ev.onset_s == pytest.approx(ev.onset_sample / FS)


def test_steady_sine_never_triggers():
    t = np.arange(FS)
    clip = AudioClip(samples=0.4 * np.sin(2 * np.pi * 11000 * t / FS), sample_rate=FS)
    assert detect_bounces(clip, DetectorConfig(), FilterSpec()) == []


def test_silence_gives_empty_list():
    clip = AudioClip(samples=np.zeros(FS), sample_rate=FS)
    assert detect_bounces(clip, DetectorConfig(), FilterSpec()) == []


def test_refractory_merges_or_splits_close_clicks():
    x = np.zeros(FS)
    for onset in (22050, 22050 + int(0.020 * FS)):  # 20 ms apart
        burst = damped_tone(FS, amp=0.5)
        x[onset : onset + burst.size] += burst
    clip = AudioClip(samples=x, sample_rate=FS)
    long_refr = detect_bounces(clip, DetectorConfig(refractory_ms=30.0), FilterSpec())
    short_refr = detect_bounces(clip, DetectorConfig(refractory_ms=10.0), FilterSpec())
    assert len(long_refr) == 1
    assert len(short_refr) == 2


def test_events_reported_in_ascending_order():
    fx = fixture_set(1, seed=3, n_clicks=4)[0]
    events = detect_bounces(fx.clip, DetectorConfig(refractory_ms=10.0), FilterSpec())
    onsets = [e.onset_sample for e in events]
    assert onsets == sorted(onsets)


@settings(max_examples=10)
@given(st.integers(0, 500), st.sampled_from([0.25, 0.5, 2.0, 4.0]))
def test_detection_scale_invariance(seed, scale):
    # Broadband noise floor keeps the EMA above its silence floor, so the
    # threshold comparison is homogeneous in the input scale.
    gen = np.random.default_rng(seed)
    x = 0.02 * gen.standard_normal(FS)
    burst = damped_tone(FS, amp=0.4)
    onset = int(gen.integers(3000, FS - 3000))
    x[onset : onset + burst.size] += burst[: FS - onset]
    base = detect_bounces(AudioClip(samples=x, sample_rate=FS), DetectorConfig(), FilterSpec())
    scaled = detect_bounces(
        AudioClip(samples=scale * x, sample_rate=FS), DetectorConfig(), FilterSpec()
    )
    assert [e.onset_sample for e in base] == [e.onset_sample for e in scaled]


@settings(max_examples=10)
@given(st.integers(0, 500))
def test_raising_threshold_never_adds_events(seed):
    gen = np.random.default_rng(seed)
    x = 0.01 * gen.standard_normal(FS)
    for onset in gen.integers(3000, FS - 3000, size=3):
        burst = damped_tone(FS, amp=float(gen.uniform(0.05, 0.6)))
        x[onset : onset + burst.size] += burst[: FS - int(onset)]
    clip = AudioClip(samples=x, sample_rate=FS)
    counts = [
        len(detect_bounces(clip, DetectorConfig(threshold_multiplier=m), FilterSpec()))
        for m in (2.0, 4.0, 8.0, 16.0, 64.0)
    ]
    assert counts == sorted(counts, reverse=True)


def test_ema_stays_within_seen_energy_bounds(rng):
    # After warm-up the average is a convex combination of non-triggering
    # frame energies.
    x = 0.05 * rng.standard_normal(FS)
    det = StreamingDetector(DetectorConfig(), FilterSpec(), FS)
    length = det.frame_length
    energies = frame_energies(x, length)
    seen = []
    for k, e in enumerate(energies):
        before = det.avg
        det.step(float(e), x[k * length : (k + 1) * length])
        if det.avg != before or before is None:
            seen.append(float(e))
        if seen:
            assert min(seen) - 1e-15 <= det.avg <= max(seen) + 1e-15


# --- streaming ---------------------------------------------------------------------


def _frames(clip, length):
    """The clip's whole ``length``-sample frames as (index, samples); a partial one is dropped."""
    return [(k, clip.samples[k * length : (k + 1) * length]) for k in range(len(clip) // length)]


def _streamed(clip, cfg, spec):
    """Every event of feeding the clip frame by frame to one detector at its rate."""
    det = StreamingDetector(cfg, spec, clip.sample_rate)
    return [ev for k, frame in _frames(clip, det.frame_length) for ev in det.process_frame(k, frame)]


def _state(det):
    return det.avg, det.block_until, det.next_frame


def test_streaming_click_onset_within_1_5_ms():
    clip = _click_clip(22050, noise_rms=5e-4)
    events = _streamed(clip, DetectorConfig(), FilterSpec())
    assert len(events) == 1
    assert abs(events[0].onset_s - 0.5) <= 1.5e-3


def test_streaming_event_emitted_in_triggering_frame():
    clip = _click_clip(22050)
    det = StreamingDetector(DetectorConfig(), FilterSpec())
    emitted_at = None
    for idx, frame in _frames(clip, det.frame_length):
        events = det.process_frame(idx, frame)
        if events:
            emitted_at = idx
            break
    assert emitted_at is not None
    # Event surfaced in the same call as its frame, and that frame covers the onset.
    assert emitted_at == events[0].onset_sample // det.frame_length


def test_empty_stream_yields_nothing():
    # Shorter than one 1 ms frame, so no frame reaches the detector.
    clip = AudioClip(samples=np.zeros(10), sample_rate=FS)
    assert _streamed(clip, DetectorConfig(), FilterSpec()) == []


def test_out_of_order_frame_rejected():
    det = StreamingDetector(DetectorConfig(), FilterSpec())
    det.process_frame(0, np.zeros(det.frame_length))
    with pytest.raises(ProtocolError, match="out of order"):
        det.process_frame(2, np.zeros(det.frame_length))


def test_wrong_frame_length_rejected():
    det = StreamingDetector(DetectorConfig(), FilterSpec())
    with pytest.raises(ProtocolError, match="samples"):
        det.process_frame(0, np.zeros(det.frame_length + 1))


def test_wrong_frame_shape_is_named():
    det = StreamingDetector(DetectorConfig(), FilterSpec())
    with pytest.raises(ProtocolError, match=r"has shape \(44, 1\), expected 44 samples"):
        det.process_frame(0, np.zeros((44, 1)))
    assert _state(det) == (None, -1, 0)


@pytest.mark.parametrize("shape", [(43,), (45,), (89,), (2, 44), (44, 1)])
def test_feed_takes_only_whole_frames_in_1d(shape):
    det = StreamingDetector(DetectorConfig(), FilterSpec())
    with pytest.raises(ProtocolError, match="whole 44-sample frames"):
        det.feed(np.zeros(shape))
    assert _state(det) == (None, -1, 0)


def test_feed_of_no_frames_yields_nothing():
    det = StreamingDetector(DetectorConfig(), FilterSpec())
    assert det.feed(np.zeros(0)) == []
    assert _state(det) == (None, -1, 0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    refractory_ms=st.sampled_from([0.0, 10.0, 30.0]),
    data=st.data(),
)
def test_any_whole_frame_split_through_feed_and_process_frame_equals_batch(
    seed, refractory_ms, data
):
    """Pieces cut at random frames, inside each click and inside the refractory
    run after it, each fed by ``feed`` or frame by frame by ``process_frame``."""
    fx = click_fixture(seed, FS, n_clicks=3)
    x = fx.clip.samples.copy()
    again = round(fx.onsets_s[0] * FS) + int(0.015 * FS)  # a re-trigger 15 ms after a click
    burst = damped_tone(FS, amp=0.5)
    x[again : again + burst.size] += burst
    clip = AudioClip(samples=x, sample_rate=FS)
    cfg, spec = DetectorConfig(refractory_ms=refractory_ms), FilterSpec()

    batch = StreamingDetector(cfg, spec, FS)
    length = batch.frame_length
    n_frames = len(clip) // length
    expected = batch.feed(clip.samples[: n_frames * length])
    assert _event_bits(expected) == _event_bits(detect_bounces(clip, cfg, spec))
    assert len(expected) >= 3

    cuts = {0, n_frames}
    for onset in [round(t * FS) for t in fx.onsets_s] + [again]:
        k = onset // length
        cuts |= {k, k + 1, k + 2, k + batch.refractory_frames // 2, k + batch.refractory_frames}
    cuts |= set(data.draw(st.lists(st.integers(1, n_frames - 1), max_size=8)))
    edges = sorted(c for c in cuts if 0 <= c <= n_frames)
    by_feed = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))

    det, got = StreamingDetector(cfg, spec, FS), []
    for lo, hi, feed in zip(edges, edges[1:], by_feed):
        piece = clip.samples[lo * length : hi * length]
        if feed:
            got += det.feed(piece)
        else:
            for k in range(lo, hi):
                got += det.process_frame(k, piece[(k - lo) * length : (k - lo + 1) * length])
    assert _event_bits(got) == _event_bits(expected)
    assert _state(det) == _state(batch)


# --- non-finite audio ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_in_batch_raises(bad):
    clip = _click_clip(22050, noise_rms=1e-3)
    assert len(detect_bounces(clip, DetectorConfig(), FilterSpec())) == 1
    x = clip.samples.copy()
    x[100] = bad
    with pytest.raises(NumericError, match="non-finite"):
        detect_bounces(AudioClip(samples=x, sample_rate=FS), DetectorConfig(), FilterSpec())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("how", ["feed", "process_frame"])
def test_refused_non_finite_frame_leaves_the_detector_as_it_was(bad, how):
    clip = _click_clip(22050, noise_rms=1e-3)
    cfg, spec = DetectorConfig(), FilterSpec()
    det = StreamingDetector(cfg, spec)
    length = det.frame_length
    split = 400 * length  # before the click, at frame 501
    got = det.feed(clip.samples[:split])
    state, zi = _state(det), det._zi.copy()
    block = clip.samples[split : split + 10 * length].copy()
    block[5 * length + 3] = bad
    with pytest.raises(NumericError, match="non-finite"):
        if how == "feed":
            det.feed(block)
        else:
            det.process_frame(det.next_frame, block[5 * length : 6 * length])
    assert _state(det) == state
    assert np.array_equal(det._zi, zi)
    got += det.feed(clip.samples[split : len(clip) // length * length])
    assert got == detect_bounces(clip, cfg, spec)
    assert len(got) == 1


# --- window extraction ----------------------------------------------------------------


def test_window_at_clip_start_zero_padded(rng):
    clip = AudioClip(samples=rng.standard_normal(2000), sample_rate=FS)
    w = extract_window(clip, 0)
    assert w.shape == (661,)
    assert np.all(w[:44] == 0.0)
    assert w[44] == clip.samples[0]


def test_window_alignment_mid_clip(rng):
    clip = AudioClip(samples=rng.standard_normal(5000), sample_rate=FS)
    ev = BounceEvent(onset_sample=2500, onset_s=2500 / FS, peak_energy=1.0, ema_at_onset=0.1)
    w = extract_window(clip, ev)
    assert w[44] == clip.samples[2500]
    assert np.array_equal(w, clip.samples[2456 : 2456 + 661])


def test_window_always_661_regardless_of_bounds(rng):
    clip = AudioClip(samples=rng.standard_normal(300), sample_rate=FS)
    for onset in (-100, 0, 200, 299, 5000):
        assert extract_window(clip, onset).shape == (661,)


# --- config file and CSV ---------------------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "det.cfg"
    p.write_text(
        "# detector settings\n"
        "gamma = 0.99\n"
        "threshold_multiplier = 6.0\n"
        "filter.cutoff_hz = 9000\n"
    )
    values = parse_config_file(p)
    config, spec = config_from(DetectorConfig, values), config_from(FilterSpec, values)
    assert config.gamma == 0.99
    assert config.threshold_multiplier == 6.0
    assert spec.cutoff_hz == 9000.0
    assert spec.order == 5  # default preserved


def test_config_file_unknown_key_rejected(tmp_path):
    p = tmp_path / "det.cfg"
    p.write_text("volume=3\n")
    with pytest.raises(ParameterError, match="volume"):
        parse_config_file(p)


def test_config_keys_documented():
    owners = {name: key.owner for name, key in CONFIG_TABLE.items()}
    assert tuple(n for n, o in owners.items() if o in (DetectorConfig, FilterSpec)) == (
        "frame_ms",
        "gamma",
        "threshold_multiplier",
        "refractory_ms",
        "ema_floor",
        "filter.order",
        "filter.cutoff_hz",
    )


def test_events_csv_format():
    import io

    ev = BounceEvent(onset_sample=100, onset_s=100 / FS, peak_energy=0.5, ema_at_onset=0.01)
    buf = io.StringIO()
    write_events_csv([ev], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "onset_sample,onset_s,peak_energy"
    assert lines[1].startswith("100,0.002267574,")


def test_detector_config_validation():
    with pytest.raises(ParameterError):
        DetectorConfig(gamma=1.5).validate(FS)
    with pytest.raises(ParameterError):
        DetectorConfig(threshold_multiplier=0.5).validate(FS)
    with pytest.raises(ParameterError):
        DetectorConfig(frame_ms=0.1).validate(FS)  # fewer than 8 samples
    with pytest.raises(ParameterError):
        DetectorConfig(ema_floor=0.0).validate(FS)


# --- vectorised batch scan --------------------------------------------------------------


def _step_all(det, energies, filtered):
    length, events = det.frame_length, []
    for k in range(energies.size):
        ev = det.step(float(energies[k]), filtered[k * length : (k + 1) * length])
        if ev is not None:
            events.append(ev)
    return events


def _event_bits(events):
    return [
        (e.onset_sample, e.onset_s, e.peak_energy, e.ema_at_onset, type(e.peak_energy))
        for e in events
    ]


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([8000, 22050, 44100]),
    st.sampled_from([1e-6, 0.5, 0.9, 0.995, 1.0 - 1e-9]),
    st.sampled_from([1.0000001, 1.5, 8.0, 100.0]),
    st.sampled_from([0.0, 1.0, 30.0, 500.0]),
    st.sampled_from([1e-300, 1e-8, 1e-2]),
    st.sampled_from(["zeros", "noise", "bursts", "wide"]),
    st.integers(0, 2500),
)
def test_scan_equals_step_loop_exactly(seed, rate, gamma, mult, refractory_ms, ema_floor, kind, n):
    cfg = DetectorConfig(
        gamma=gamma, threshold_multiplier=mult, refractory_ms=refractory_ms, ema_floor=ema_floor
    )
    gen = np.random.default_rng(seed)
    energies = np.zeros(n) if kind == "zeros" else gen.exponential(1e-4, n)
    if kind == "bursts":
        for start in gen.integers(0, max(n, 1), size=8):
            energies[start : start + int(gen.integers(1, 60))] *= 10 ** gen.uniform(0, 6)
    elif kind == "wide":
        energies = 10 ** gen.uniform(-300, 3, n)
        energies[gen.random(n) < 0.3] = 0.0
    spec = FilterSpec(cutoff_hz=rate / 4)  # the default 10 kHz is above Nyquist at 8 kHz
    stepped, scanned = StreamingDetector(cfg, spec, rate), StreamingDetector(cfg, spec, rate)
    length = stepped.frame_length
    filtered = gen.standard_normal(n * length) * np.sqrt(np.repeat(energies, length))
    expected = _step_all(stepped, energies, filtered)
    got = scanned.scan(energies, filtered)
    assert _event_bits(got) == _event_bits(expected)
    assert _state(scanned) == _state(stepped)


def test_scan_near_float_max_is_silent_and_equals_step_loop():
    import warnings

    cfg = DetectorConfig()
    gen = np.random.default_rng(5)
    # Loud stretches push the threshold past the float maximum; the floor
    # then decays through quiet stretches until a near-maximum burst triggers.
    loud, quiet = gen.uniform(1e307, 1.7e308, (3, 200)), np.full((3, 1000), 1e305)
    quiet[:, 900] = 1.7e308
    energies = np.concatenate([loud, quiet], axis=1).ravel()
    stepped, scanned = StreamingDetector(cfg, FilterSpec()), StreamingDetector(cfg, FilterSpec())
    filtered = np.sqrt(np.repeat(energies, stepped.frame_length))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _step_all(stepped, energies, filtered)
        got = scanned.scan(energies, filtered)
    assert expected
    assert _event_bits(got) == _event_bits(expected)
    assert _state(scanned) == _state(stepped)


def test_batch_detection_makes_no_per_frame_step(monkeypatch):
    def no_step(*_):
        raise AssertionError("batch detection stepped a frame")

    monkeypatch.setattr(StreamingDetector, "step", no_step)
    fx = fixture_set(1, seed=4, n_clicks=3)[0]
    assert len(detect_bounces(fx.clip, DetectorConfig(), FilterSpec())) == 3


def test_streaming_equals_batch_events_on_fixtures(detection_fixtures):
    cfg, spec = DetectorConfig(), FilterSpec()
    for fx in detection_fixtures:
        assert detect_bounces(fx.clip, cfg, spec) == _streamed(fx.clip, cfg, spec)


def test_mean_onset_error_within_a_tenth_of_a_ms(detection_fixtures):
    score = run_detection_benchmark(detection_fixtures, DetectorConfig(), FilterSpec())
    assert score.recall == 1.0 and score.precision == 1.0
    assert score.mean_abs_onset_error_ms <= 0.1


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_clicks=st.integers(1, 4),
    noise_rms=st.floats(1e-4, 3e-3),
    freq_hz=st.floats(6000.0, 18000.0),
    rate=st.sampled_from([44100, 48000]),
)
def test_streaming_equals_batch_events_on_random_clips(seed, n_clicks, noise_rms, freq_hz, rate):
    """Clicks above and below the 10 kHz cutoff, at random places and loudness,
    at the dataset rate and at 48 kHz."""
    fx = click_fixture(seed, rate, n_clicks=n_clicks, noise_rms=noise_rms, freq_hz=freq_hz)
    cfg, spec = DetectorConfig(), FilterSpec()
    assert detect_bounces(fx.clip, cfg, spec) == _streamed(fx.clip, cfg, spec)
