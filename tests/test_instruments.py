"""Instrument models."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.instruments.adc import AdcSpec, quantize
from repro.instruments.signal_gen import chirp
from repro.instruments.spectrum_analyzer import SpectrumAnalyzer
from repro.traces import Trace

FS = 528e6


def _tone_trace(freq, amp=1.0, n=8448, label="t"):
    t = np.arange(n) / FS
    return Trace(samples=amp * np.sin(2 * np.pi * freq * t), fs=FS, label=label)


def test_adc_lsb_and_clipping():
    spec = AdcSpec(n_bits=8, full_scale=1.0)
    assert spec.lsb == pytest.approx(2.0 / 256)
    out = quantize(np.array([0.0, 2.0, -2.0]), spec)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0 - spec.lsb)
    assert out[2] == -1.0


def test_adc_quantization_error_bounded():
    spec = AdcSpec(n_bits=10, full_scale=1.0)
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, 1000)
    error = np.abs(quantize(samples, spec) - samples)
    assert error.max() <= spec.lsb / 2 + 1e-12


def test_adc_validation():
    with pytest.raises(MeasurementError):
        AdcSpec(n_bits=2)
    with pytest.raises(MeasurementError):
        AdcSpec(full_scale=-1.0)


def test_chirp_sweeps_band():
    trace = chirp(1e6, 120e6, duration=16e-6, fs=FS, amplitude=70e-3)
    assert np.abs(trace.samples).max() == pytest.approx(70e-3, rel=0.01)
    spectrum = np.abs(np.fft.rfft(trace.samples))
    freqs = np.fft.rfftfreq(trace.n_samples, 1 / FS)
    band = spectrum[(freqs > 5e6) & (freqs < 110e6)]
    out_of_band = spectrum[freqs > 200e6]
    assert band.mean() > 20 * out_of_band.mean()


def test_chirp_validation():
    with pytest.raises(MeasurementError):
        chirp(10e6, 5e6, 1e-5, FS)
    with pytest.raises(MeasurementError):
        chirp(1e6, 300e6, 1e-5, FS)


def test_spectrum_analyzer_display_settings():
    analyzer = SpectrumAnalyzer()
    spec = analyzer.spectrum(_tone_trace(48e6))
    assert len(spec) == 2000
    assert spec.freqs[-1] == pytest.approx(120e6)


def test_spectrum_analyzer_average():
    analyzer = SpectrumAnalyzer()
    traces = [_tone_trace(48e6) for _ in range(5)]
    avg = analyzer.average_spectrum(traces)
    assert avg.at(48e6) == pytest.approx(1 / np.sqrt(2), rel=0.02)


def test_zero_span_recovers_modulation():
    n = 16896
    t = np.arange(n) / FS
    envelope = 1.0 + 0.5 * np.sin(2 * np.pi * 750e3 * t)
    trace = Trace(
        samples=envelope * np.sin(2 * np.pi * 48e6 * t), fs=FS, label="am"
    )
    analyzer = SpectrumAnalyzer()
    result = analyzer.zero_span(trace, 48e6, rbw=8e6)
    spectrum = np.abs(np.fft.rfft(result.envelope - result.envelope.mean()))
    freqs = np.fft.rfftfreq(result.envelope.size, 1 / result.fs)
    peak = freqs[1 + int(np.argmax(spectrum[1:]))]
    assert peak == pytest.approx(750e3, rel=0.1)


def test_zero_span_as_trace():
    analyzer = SpectrumAnalyzer()
    result = analyzer.zero_span(_tone_trace(48e6, label="x"), 48e6)
    as_trace = result.as_trace()
    assert as_trace.meta["f_center"] == pytest.approx(48e6)
    assert "48MHz" in as_trace.label
