"""Frequency-domain filtering."""

import numpy as np
import pytest

from repro.dsp.filters import (
    analytic_bandpass,
    butter_highpass_response,
    butter_lowpass_response,
)
from repro.errors import AnalysisError

FS = 528e6


def _tone(freq, amp=1.0, n=8192):
    t = np.arange(n) / FS
    return amp * np.sin(2 * np.pi * freq * t)


def test_lowpass_halfpower_at_cutoff():
    lp = butter_lowpass_response(50e6, order=4)
    assert lp(np.array([50e6]))[0] == pytest.approx(1 / np.sqrt(2))
    assert lp(np.array([0.0]))[0] == pytest.approx(1.0)
    assert lp(np.array([200e6]))[0] < 0.01


def test_highpass_halfpower_at_cutoff():
    hp = butter_highpass_response(30e6, order=2)
    assert hp(np.array([30e6]))[0] == pytest.approx(1 / np.sqrt(2))
    assert hp(np.array([0.0]))[0] == 0.0
    assert hp(np.array([300e6]))[0] == pytest.approx(1.0, abs=0.01)


def test_analytic_bandpass_recovers_am_envelope():
    """AM on a 48 MHz carrier: the envelope comes back at baseband."""
    n = 16384
    t = np.arange(n) / FS
    modulation = 1.0 + 0.5 * np.sin(2 * np.pi * 1e6 * t)
    trace = modulation * np.sin(2 * np.pi * 48e6 * t)
    baseband = analytic_bandpass(trace, FS, 48e6, 8e6)
    envelope = np.abs(baseband)
    # Skip edges (FFT wrap-around).
    core = slice(n // 8, -n // 8)
    assert np.corrcoef(envelope[core], modulation[core])[0, 1] > 0.99


def test_analytic_bandpass_rejects_out_of_band_tone():
    trace = _tone(48e6) + _tone(20e6, amp=5.0)
    baseband = analytic_bandpass(trace, FS, 48e6, 8e6)
    envelope = np.abs(baseband)
    assert np.median(envelope) == pytest.approx(1.0, rel=0.1)


def test_analytic_bandpass_validates_band():
    trace = _tone(48e6)
    with pytest.raises(AnalysisError):
        analytic_bandpass(trace, FS, 300e6, 8e6)
    with pytest.raises(AnalysisError):
        analytic_bandpass(trace, FS, 1e6, 8e6)
