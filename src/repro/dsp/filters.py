"""Frequency-domain filtering helpers.

The measurement chain is modeled with analytic magnitude responses
applied in the frequency domain.  This keeps the filters exactly
linear-phase (zero-phase), which is appropriate for a simulation whose
purpose is spectral/envelope analysis, and avoids transient artifacts
from IIR warm-up.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import AnalysisError

#: A transfer function: maps an array of frequencies [Hz] to a complex
#: (or real) gain array of the same shape.
TransferFn = Callable[[np.ndarray], np.ndarray]


def butter_lowpass_response(f_cut: float, order: int) -> TransferFn:
    """Butterworth-magnitude low-pass |H(f)| = 1/sqrt(1+(f/fc)^(2n))."""
    if f_cut <= 0:
        raise AnalysisError(f"cutoff must be positive, got {f_cut}")
    if order < 1:
        raise AnalysisError(f"order must be >= 1, got {order}")

    def transfer(freqs: np.ndarray) -> np.ndarray:
        ratio = np.asarray(freqs, dtype=float) / f_cut
        return 1.0 / np.sqrt(1.0 + ratio ** (2 * order))

    return transfer


def butter_highpass_response(f_cut: float, order: int) -> TransferFn:
    """Butterworth-magnitude high-pass |H(f)| = (f/fc)^n/sqrt(1+(f/fc)^(2n))."""
    if f_cut <= 0:
        raise AnalysisError(f"cutoff must be positive, got {f_cut}")
    if order < 1:
        raise AnalysisError(f"order must be >= 1, got {order}")

    def transfer(freqs: np.ndarray) -> np.ndarray:
        ratio = np.asarray(freqs, dtype=float) / f_cut
        power = ratio ** (2 * order)
        return np.sqrt(power / (1.0 + power))

    return transfer


def analytic_bandpass(
    samples: np.ndarray, fs: float, f_center: float, bandwidth: float
) -> np.ndarray:
    """Complex (analytic) band-pass extraction around ``f_center``.

    Returns the complex baseband signal whose magnitude is the envelope
    of the band — this is exactly what a spectrum analyzer's zero-span
    mode displays at its detector.

    Parameters
    ----------
    samples:
        Real trace.
    fs:
        Sampling rate [Hz].
    f_center:
        Band center [Hz] (the zero-span tuned frequency).
    bandwidth:
        Full passband width [Hz] (the resolution bandwidth, RBW).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise AnalysisError("analytic_bandpass expects a 1-D trace")
    if not 0.0 < f_center < fs / 2:
        raise AnalysisError(
            f"center {f_center/1e6:.2f} MHz outside (0, Nyquist)"
        )
    if bandwidth <= 0 or f_center - bandwidth / 2 <= 0:
        raise AnalysisError("bandwidth must be positive and fit above DC")
    n = samples.size
    spec = np.fft.fft(samples)
    freqs = np.fft.fftfreq(n, d=1.0 / fs)
    # Analytic signal: keep only the positive-frequency band, doubled.
    keep = (freqs >= f_center - bandwidth / 2) & (freqs <= f_center + bandwidth / 2)
    band = np.zeros_like(spec)
    band[keep] = 2.0 * spec[keep]
    analytic = np.fft.ifft(band)
    # Shift to baseband so the phase is meaningful.
    t = np.arange(n) / fs
    return analytic * np.exp(-2j * np.pi * f_center * t)
