import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import freqz_sos, sosfilt

from oracles import butterworth_highpass_mag_db, zero_phase_reference
from ttbounce import (
    AudioClip,
    FilterSpec,
    design_butterworth_highpass,
    filter_zero_phase,
)
from ttbounce.errors import ParameterError

FS = 44100


def _mag_db(sos, f):
    _, h = freqz_sos(sos, worN=np.atleast_1d(np.asarray(f, dtype=np.float64)), fs=FS)
    return 20.0 * np.log10(np.abs(h))


@pytest.fixture(scope="module")
def default_sos():
    return design_butterworth_highpass(FilterSpec())


def test_cutoff_is_minus_3db(default_sos):
    assert _mag_db(default_sos, 10000.0) == pytest.approx(-3.0103, abs=0.05)


def test_dc_fully_rejected(default_sos):
    assert _mag_db(default_sos, 1.0) < -100.0


def test_5khz_matches_prewarped_analytic(default_sos):
    # Oracle: closed-form magnitude at the bilinear pre-warped ratio.
    expected = butterworth_highpass_mag_db(5000.0, 10000.0, FS, 5)
    assert _mag_db(default_sos, 5000.0) == pytest.approx(expected, abs=0.05)
    assert expected == pytest.approx(-36.57, abs=0.05)


def test_response_matches_analytic_across_band(default_sos):
    for f in np.linspace(500.0, 21500.0, 43):
        expected = butterworth_highpass_mag_db(float(f), 10000.0, FS, 5)
        assert _mag_db(default_sos, float(f)) == pytest.approx(expected, abs=0.05)


def test_odd_order_has_one_first_order_section(default_sos):
    # Three sections hold the five poles and five zeros; the lone real pole
    # and the odd zero may sit in different rows, each with a zero z^-2 term.
    assert default_sos.shape == (3, 6)
    assert np.count_nonzero(default_sos[:, 5] == 0.0) == 1
    assert np.count_nonzero(default_sos[:, 2] == 0.0) == 1


@settings(max_examples=60)
@given(
    order=st.integers(min_value=1, max_value=8),
    cutoff=st.floats(min_value=100.0, max_value=21000.0),
)
def test_designed_cascades_always_stable(order, cutoff):
    sos = design_butterworth_highpass(FilterSpec(order=order, cutoff_hz=cutoff))
    for row in sos:
        poles = np.roots(row[3:])
        assert np.all(np.abs(poles) < 1.0)
    assert _mag_db(sos, cutoff) == pytest.approx(-3.0103, abs=0.05)


def test_cutoff_at_or_above_nyquist_rejected():
    with pytest.raises(ParameterError):
        design_butterworth_highpass(FilterSpec(cutoff_hz=22050.0))
    with pytest.raises(ParameterError):
        design_butterworth_highpass(FilterSpec(cutoff_hz=-5.0))
    with pytest.raises(ParameterError):
        design_butterworth_highpass(FilterSpec(order=0))


# The causal pass detection runs: sosfilt over the designed sections.


def test_forward_zero_input_zero_output(default_sos):
    assert np.all(sosfilt(default_sos, np.zeros(1000)) == 0.0)


def test_forward_scaling_linearity(default_sos, rng):
    x = rng.standard_normal(2000) * 0.1
    assert np.array_equal(sosfilt(default_sos, 2 * x), 2 * sosfilt(default_sos, x))


def test_impulse_response_fft_matches_response(default_sos):
    n = 4096
    impulse = np.zeros(n)
    impulse[0] = 1.0
    spectrum = np.fft.rfft(sosfilt(default_sos, impulse))
    freqs = np.fft.rfftfreq(n, d=1.0 / FS)[1:]
    # Oracle: the closed-form magnitude (the DC bin, where it is 0, is skipped).
    analytic = 10.0 ** (
        np.array([butterworth_highpass_mag_db(f, 10000.0, FS, 5) for f in freqs]) / 20.0
    )
    # Truncation of the (decaying) IIR tail keeps this from being exact.
    rms_err = np.sqrt(np.mean((np.abs(spectrum[1:]) - analytic) ** 2))
    assert rms_err < 1e-6


def _symmetric_burst(gen: np.random.Generator, n_half: int, quiet: int = 200) -> np.ndarray:
    """Even-symmetric signal that is silent near both ends (the detector's
    physical regime: transients surrounded by silence)."""
    half = gen.standard_normal(n_half) * np.hanning(2 * n_half)[:n_half]
    half[:quiet] = 0.0
    return np.concatenate([half, half[::-1]])


def test_zero_phase_preserves_symmetry(default_sos, rng):
    x = _symmetric_burst(rng, 400)
    y = filter_zero_phase(default_sos, AudioClip(samples=x, sample_rate=FS)).samples
    assert np.max(np.abs(y - y[::-1])) < 1e-9


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_zero_phase_symmetry_property(seed):
    sos = design_butterworth_highpass(FilterSpec())
    gen = np.random.default_rng(seed)
    x = _symmetric_burst(gen, int(gen.integers(300, 700)))
    y = filter_zero_phase(sos, AudioClip(samples=x, sample_rate=FS)).samples
    assert np.max(np.abs(y - y[::-1])) < 1e-9


def test_zero_phase_click_correlation_peak_at_zero_lag(default_sos):
    # Band-limited click: windowed burst at 12 kHz.
    n = 4000
    x = np.zeros(n)
    t = np.arange(200)
    burst = np.hanning(200) * np.sin(2 * np.pi * 12000 * t / FS)
    x[1900:2100] = burst
    y = filter_zero_phase(default_sos, AudioClip(samples=x, sample_rate=FS)).samples
    corr = np.correlate(y, x, mode="full")
    lag = int(np.argmax(corr)) - (n - 1)
    assert lag == 0


def test_zero_phase_magnitude_is_squared_response(default_sos):
    # 15 kHz probe: steady-state amplitude ratio should equal |H|^2.
    n = FS // 2
    t = np.arange(n)
    x = 0.2 * np.sin(2 * np.pi * 15000.0 * t / FS)
    y = filter_zero_phase(default_sos, AudioClip(samples=x, sample_rate=FS)).samples
    mid = slice(n // 4, 3 * n // 4)
    gain_db = 20 * np.log10(np.sqrt(np.mean(y[mid] ** 2)) / np.sqrt(np.mean(x[mid] ** 2)))
    expected_db = 2 * _mag_db(default_sos, 15000.0)[0]
    assert gain_db == pytest.approx(expected_db, abs=0.1)


@settings(max_examples=40)
@given(
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.sampled_from([8000, 22050, 44100, 48000]),
    st.floats(0.01, 0.95),
)
def test_zero_phase_equals_written_out_pass_bitwise(seed, order, rate, cutoff_frac):
    sos = design_butterworth_highpass(
        FilterSpec(order=order, cutoff_hz=cutoff_frac * rate / 2, sample_rate=rate)
    )
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(int(gen.integers(6 * order + 1, 3000))) * gen.uniform(1e-3, 1.0)
    y = filter_zero_phase(sos, AudioClip(samples=x, sample_rate=rate)).samples
    expected = zero_phase_reference(sos, x, 6 * order)
    assert y.tobytes() == expected.tobytes()


def test_zero_phase_rejects_short_clip(default_sos):
    clip = AudioClip(samples=np.zeros(30), sample_rate=FS)  # needs > 6 * order
    with pytest.raises(ParameterError):
        filter_zero_phase(default_sos, clip)


def test_zero_phase_output_length_matches_input(default_sos, rng):
    x = rng.standard_normal(777)
    out = filter_zero_phase(default_sos, AudioClip(samples=x, sample_rate=FS))
    assert len(out) == 777

