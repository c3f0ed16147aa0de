"""RMS / dB metrics and He's SNR."""

import numpy as np
import pytest

from repro.dsp.metrics import rms, snr_rms_db
from repro.errors import AnalysisError


def test_rms_of_sine():
    t = np.linspace(0, 1, 10000, endpoint=False)
    assert rms(np.sin(2 * np.pi * 10 * t)) == pytest.approx(
        1 / np.sqrt(2), rel=1e-3
    )


def test_rms_of_constant():
    assert rms(np.full(100, -3.0)) == pytest.approx(3.0)


def test_rms_empty_rejected():
    with pytest.raises(AnalysisError):
        rms(np.array([]))


def test_snr_definition():
    """SNR = 20 log10(Vrms_signal / Vrms_noise) — paper Equation (1)."""
    signal = np.full(1000, 10.0)
    noise = np.full(1000, 0.1)
    assert snr_rms_db(signal, noise) == pytest.approx(40.0)


def test_snr_zero_noise_rejected():
    with pytest.raises(AnalysisError):
        snr_rms_db(np.ones(10), np.zeros(10))
