"""Spectrum computation."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.detectors import available, make_detector
from repro.dsp import transforms
from repro.dsp.transforms import (
    amplitude_spectra,
    amplitude_spectrum,
    average_spectra,
    band_slice,
    pick_peaks,
    resample_spectrum,
)
from repro.errors import AnalysisError
from repro.instruments.adc import quantize_batch
from repro.instruments.rasc import AUTO_RANGE_HEADROOM, RASC_ADC
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer

FS = 528e6


def _tone(freq, amp, n=8448, fs=FS):
    t = np.arange(n) / fs
    return amp * np.sin(2 * np.pi * freq * t)


def test_single_tone_amplitude():
    """An on-bin sine of peak A reads A/sqrt(2) RMS in its bin."""
    spec = amplitude_spectrum(_tone(33e6, 2.0), FS)
    assert spec.at(33e6) == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-6)


def test_two_tones_resolve():
    trace = _tone(33e6, 1.0) + _tone(48e6, 0.25)
    spec = amplitude_spectrum(trace, FS)
    assert spec.at(48e6) == pytest.approx(0.25 / np.sqrt(2.0), rel=1e-6)
    assert spec.at(60e6) < 1e-9


def test_dc_bin_not_doubled():
    spec = amplitude_spectrum(np.full(1024, 0.5), FS)
    assert spec.amps[0] == pytest.approx(0.5)


@settings(max_examples=25, deadline=None)
@given(
    freq_bin=st.integers(min_value=4, max_value=400),
    amp=st.floats(min_value=1e-3, max_value=10.0),
)
def test_parseval_single_tone(freq_bin, amp):
    """Total spectral power equals time-domain power (Parseval)."""
    n = 4096
    freq = freq_bin * FS / n
    trace = _tone(freq, amp, n=n)
    spec = amplitude_spectrum(trace, FS)
    spectral_power = float(np.sum(spec.amps**2))
    time_power = float(np.mean(trace**2))
    assert spectral_power == pytest.approx(time_power, rel=1e-6)


def test_average_spectra_reduces_noise_variance():
    rng = np.random.default_rng(3)
    specs = [
        amplitude_spectrum(rng.normal(0, 1, 2048), FS) for _ in range(16)
    ]
    averaged = average_spectra(specs)
    single_var = np.var(specs[0].amps)
    avg_var = np.var(averaged.amps)
    assert avg_var < single_var / 4


def test_average_requires_matching_axes():
    a = amplitude_spectrum(np.zeros(256) + 1.0, FS)
    b = amplitude_spectrum(np.zeros(512) + 1.0, FS)
    with pytest.raises(AnalysisError):
        average_spectra([a, b])


def test_resample_to_display_grid():
    spec = amplitude_spectrum(_tone(48e6, 1.0), FS)
    display = resample_spectrum(spec, 0.0, 120e6, 2000)
    assert len(display) == 2000
    assert display.freqs[0] == 0.0
    assert display.freqs[-1] == pytest.approx(120e6)
    assert display.at(48e6) == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)


def test_resample_rejects_band_beyond_nyquist():
    spec = amplitude_spectrum(np.ones(256), 100e6)
    with pytest.raises(AnalysisError):
        resample_spectrum(spec, 0.0, 80e6)


def test_band_slice():
    spec = amplitude_spectrum(_tone(48e6, 1.0), FS)
    band = band_slice(spec, 40e6, 60e6)
    assert band.freqs[0] >= 40e6
    assert band.freqs[-1] <= 60e6
    assert band.amps.max() == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-6)


def test_pick_peaks_orders_and_separates():
    trace = _tone(30e6, 1.0) + _tone(60e6, 0.5) + _tone(61e6, 0.4)
    spec = amplitude_spectrum(trace, FS)
    peaks = pick_peaks(spec, n_peaks=2, min_separation_hz=5e6)
    freqs = [spec.freqs[i] for i in peaks]
    assert freqs[0] == pytest.approx(30e6, abs=1e5)
    # 61 MHz is inside the 60 MHz exclusion, so the second peak is 60.
    assert freqs[1] == pytest.approx(60e6, abs=1e5)


def test_pick_peaks_exclusion_list():
    trace = _tone(33e6, 1.0) + _tone(48e6, 0.5)
    spec = amplitude_spectrum(trace, FS)
    peaks = pick_peaks(
        spec, n_peaks=1, min_separation_hz=1e6, exclude=[33e6], exclusion_hz=2e6
    )
    assert spec.freqs[peaks[0]] == pytest.approx(48e6, abs=1e5)


def test_spectrum_db_reference():
    n = 4096
    freq = 78 * FS / n  # exactly on a bin
    spec = amplitude_spectrum(_tone(freq, np.sqrt(2.0) * 1e-6, n=n), FS)
    assert spec.db()[spec.bin_of(freq)] == pytest.approx(0.0, abs=0.1)


def _noisy_stack(n, rows=5):
    rng = np.random.default_rng(n)
    return rng.standard_normal((rows, n)) * 1e-3 + _tone(30e6, 1e-2, n=n)


@pytest.mark.parametrize("n", [511, 512, 8447, 8448])
def test_amplitude_spectra_match_slice_scaling(n):
    """One shared column scaling == the DC/Nyquist slice formulation."""
    samples = _noisy_stack(n)
    _, amps = amplitude_spectra(samples, FS)
    expected = np.abs(np.fft.rfft(samples, axis=-1))
    expected /= n
    if n % 2 == 0:
        expected[:, 1:-1] *= 2.0
    else:
        expected[:, 1:] *= 2.0
    expected[:, 1:] /= np.sqrt(2.0)
    assert amps.tobytes() == expected.tobytes()


def _assert_display_columns(analyzer, samples, bins):
    bins = np.asarray(bins)
    grid, full = analyzer.display_matrix(samples, FS)
    sub_grid, sub = analyzer.display_bins(samples, FS, bins)
    assert sub_grid.tobytes() == grid[bins].tobytes()
    assert sub.tobytes() == np.ascontiguousarray(full[:, bins]).tobytes()


@pytest.mark.parametrize("n", [511, 512, 8447, 8448, 32767, 32768])
def test_display_bins_are_display_matrix_columns(n):
    """Scaling only the native columns the display reads is bit-exact."""
    config = SimConfig()
    samples = _noisy_stack(n)
    analyzer = SpectrumAnalyzer()
    for name in available():
        detector = make_detector(name, 1)
        bins = detector.display_bins(analyzer.display_grid(), config)
        _assert_display_columns(analyzer, samples, bins)
    # A band from below DC up to the last native bin puts display
    # points below and above the native axis (column 0 / column -1).
    nyquist = np.fft.rfftfreq(n, d=1.0 / FS)[-1]
    edge = SpectrumAnalyzer(f_lo=-20e6, f_hi=nyquist, n_points=64)
    for bins in ([0, 1, 2], [61, 62, 63], [0, 17, 40, 63], range(64)):
        _assert_display_columns(edge, samples, list(bins))
    # Unsorted or repeated bins are refused, not misread.
    for bins in ([40, 17], [63, 63], [5, 5, 6]):
        with pytest.raises(AnalysisError, match="strictly increasing"):
            edge.display_bins(samples, FS, np.array(bins))


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 256])
@pytest.mark.parametrize("quantize", [False, True])
def test_blocked_display_bins_match_unblocked(rows, quantize, monkeypatch):
    """Blocks of 32 rows, quantized one by one, change no bit.

    The reference quantizes the whole stack and takes its full
    display; the blocked pass must equal it, and the same pass with
    the whole stack as one block, for every detector's bins.
    """
    config = SimConfig()
    samples = _noisy_stack(8448, rows=rows)
    original = samples.copy()
    prepare = None
    prepared = samples
    if quantize:
        prepare = partial(
            quantize_batch, spec=RASC_ADC, headroom=AUTO_RANGE_HEADROOM
        )
        prepared = prepare(samples)
    analyzer = SpectrumAnalyzer()
    _, full = analyzer.display_matrix(prepared, FS)
    for name in available():
        bins = make_detector(name, 1).display_bins(
            analyzer.display_grid(), config
        )
        _, blocked = analyzer.display_bins(samples, FS, bins, prepare)
        with monkeypatch.context() as patch:
            patch.setattr(transforms, "DISPLAY_BLOCK_ROWS", rows + 1)
            _, whole = analyzer.display_bins(samples, FS, bins, prepare)
        expected = np.ascontiguousarray(full[:, bins]).tobytes()
        assert blocked.tobytes() == expected, name
        assert whole.tobytes() == expected, name
    assert samples.tobytes() == original.tobytes()


def test_display_bins_survive_plan_cache_cycling():
    """Cached plans and column geometries never go stale.

    The plan cache is cleared when it fills, and a later plan may live
    at an evicted plan's address; the geometry of a bin set lives on
    its plan, so cycling through more axes than the cache holds and
    back must still give the full display's columns bit for bit.
    """
    config = SimConfig()
    analyzer = SpectrumAnalyzer()
    grid = analyzer.display_grid()
    bin_sets = [
        make_detector(name, 1).display_bins(grid, config) for name in available()
    ]
    samples = _noisy_stack(8448)
    for bins in bin_sets:
        _assert_display_columns(analyzer, samples, bins)
    for n in range(8448 + 1, 8448 + transforms._RESAMPLE_PLAN_LIMIT + 3):
        for bins in bin_sets:
            analyzer.display_bins(_noisy_stack(n, rows=2), FS, bins)
    assert transforms.resample_plan_stats()["size"] <= transforms._RESAMPLE_PLAN_LIMIT
    for bins in bin_sets:
        _assert_display_columns(analyzer, samples, bins)


def _clip_quantize(samples, spec, headroom):
    """The reference auto-ranged quantizer: ``np.clip`` on every row."""
    peak = np.max(np.abs(samples), axis=-1, keepdims=True)
    full_scale = np.where(peak > 0.0, headroom * peak, spec.full_scale)
    lsb = 2.0 * full_scale / (1 << spec.n_bits)
    clipped = np.clip(samples, -full_scale, full_scale - lsb)
    return np.round(clipped / lsb) * lsb


@pytest.mark.parametrize("headroom", [AUTO_RANGE_HEADROOM, 1.0, 0.5])
@pytest.mark.parametrize("edge", ["none", "zero", "nan", "+inf", "-inf", "half nan"])
def test_quantize_batch_matches_clip_reference_on_edge_rows(headroom, edge):
    """All-zero, NaN and +-inf rows quantize exactly like the reference.

    With a headroom of 1 or more nothing clips a finite row; below 1
    every row clips.  The input is never written.
    """
    rows = _noisy_stack(512, rows=4)
    rows[1, 5] = -0.0
    edit = {
        "none": lambda: None,
        "zero": lambda: rows.__setitem__(2, 0.0),
        "nan": lambda: rows.__setitem__((2, 7), np.nan),
        "+inf": lambda: rows.__setitem__((2, 9), np.inf),
        "-inf": lambda: rows.__setitem__((2, 11), -np.inf),
        "half nan": lambda: rows.__setitem__((2, slice(None, None, 2)), np.nan),
    }
    edit[edge]()
    original = rows.copy()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        got = quantize_batch(rows, RASC_ADC, headroom=headroom)
        expected = _clip_quantize(rows, RASC_ADC, headroom)
    assert got.tobytes() == expected.tobytes()
    assert rows.tobytes() == original.tobytes()


def test_display_from_columns_is_the_display_of_those_columns():
    """Given a stack's own rFFT at the native columns, the column path
    reproduces display_spectra_at bit for bit; other columns are refused."""
    from repro.dsp.transforms import RfftColumns, display_from_columns, native_columns

    rng = np.random.default_rng(7)
    samples = rng.standard_normal((2, 3, 1024))
    bins = np.array([3, 180, 181, 700, 1999])
    columns = native_columns(1024, 528e6, bins)
    spectra = RfftColumns(np.fft.rfft(samples, axis=-1)[..., columns], columns, 1024)
    grid, display = display_from_columns(spectra, 528e6, bins)
    want_grid, want = transforms.display_spectra_at(samples.reshape(6, 1024), 528e6, bins)
    assert grid.tobytes() == want_grid.tobytes()
    assert display.tobytes() == want.tobytes()
    shifted = RfftColumns(spectra.values, columns + 1, 1024)
    with pytest.raises(AnalysisError, match="columns"):
        display_from_columns(shifted, 528e6, bins)
