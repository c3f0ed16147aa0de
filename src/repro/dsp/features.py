"""Envelope feature extraction for Trojan identification.

Section VI-D of the paper identifies *which* Trojan is active from the
time-domain waveform of a prominent sideband (zero-span mode): each
Trojan amplitude-modulates the clock harmonics differently, so the
recovered envelopes differ in modulation frequency, burstiness and
periodicity.  The features here quantify exactly those differences:

* T1 (AM radio carrier)  — smooth sinusoidal envelope at 750 kHz.
* T2 (key-wire inverters) — plaintext-gated on/off bursts, block-aligned.
* T3 (CDMA leaker)        — pseudo-random binary chip pattern.
* T4 (DoS heater)         — constant elevated level, low variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class EnvelopeFeatures:
    """Scalar features of one zero-span envelope.

    Attributes
    ----------
    mean:
        Mean envelope level [V].
    ripple:
        Coefficient of variation (std / mean); near zero for a constant
        envelope (T4), large for bursty envelopes (T2, T3).
    dominant_freq:
        Frequency [Hz] of the strongest non-DC envelope component.
    dominant_strength:
        Amplitude of that component relative to the envelope mean.
    duty_cycle:
        Fraction of samples above the midpoint between the 10th and
        90th percentile levels; ~0.5 for a sine, workload-dependent for
        gated bursts, ~1.0 for a constant level.
    bimodality:
        Sarle's bimodality coefficient; high (> 5/9) for two-level
        (on/off) envelopes, low for sinusoidal or constant ones.
    autocorr_peak:
        Highest normalized autocorrelation at a non-zero lag; near 1 for
        strongly periodic envelopes, low for pseudo-random chips.
    spectral_flatness:
        Geometric/arithmetic mean ratio of the envelope power spectrum
        (excluding DC); near 1 for noise-like (PN-coded) envelopes.
    """

    mean: float
    ripple: float
    dominant_freq: float
    dominant_strength: float
    duty_cycle: float
    bimodality: float
    autocorr_peak: float
    spectral_flatness: float

    def cluster_vector(self) -> np.ndarray:
        """Workload-robust subset used for unsupervised clustering.

        The dominant envelope *frequency* is excluded: for aperiodic
        envelopes (the T4 droop signature) it jumps between workload-
        dependent components, which would scatter one Trojan's traces
        across clusters.  The remaining shape features are stable per
        Trojan.
        """
        return np.array(
            [
                self.ripple,
                self.dominant_strength,
                self.duty_cycle,
                self.bimodality,
                self.autocorr_peak,
                self.spectral_flatness,
            ]
        )


def envelope_features(envelope: np.ndarray, fs: float) -> EnvelopeFeatures:
    """Extract :class:`EnvelopeFeatures` from a real envelope trace.

    Parameters
    ----------
    envelope:
        Real, non-negative zero-span envelope samples.
    fs:
        Envelope sampling rate [Hz].
    """
    env = np.asarray(envelope, dtype=float)
    if env.ndim != 1 or env.size < 16:
        raise AnalysisError("envelope must be 1-D with at least 16 samples")
    mean = float(env.mean())
    if mean <= 0.0:
        raise AnalysisError("envelope mean must be positive")
    std = float(env.std())
    ripple = std / mean

    ac = env - mean
    spec = np.abs(np.fft.rfft(ac))
    freqs = np.fft.rfftfreq(env.size, d=1.0 / fs)
    if spec.size > 1:
        peak_bin = int(np.argmax(spec[1:])) + 1
        dominant_freq = float(freqs[peak_bin])
        dominant_strength = float(2.0 * spec[peak_bin] / env.size / mean)
    else:
        dominant_freq = 0.0
        dominant_strength = 0.0

    lo, hi = np.percentile(env, [10.0, 90.0])
    midpoint = 0.5 * (lo + hi)
    duty_cycle = float(np.mean(env > midpoint))

    bimodality = _bimodality_coefficient(env)
    autocorr_peak = _autocorrelation_peak(ac)
    spectral_flatness = _spectral_flatness(spec[1:])

    return EnvelopeFeatures(
        mean=mean,
        ripple=ripple,
        dominant_freq=dominant_freq,
        dominant_strength=dominant_strength,
        duty_cycle=duty_cycle,
        bimodality=bimodality,
        autocorr_peak=autocorr_peak,
        spectral_flatness=spectral_flatness,
    )


def _bimodality_coefficient(samples: np.ndarray) -> float:
    """Sarle's bimodality coefficient (uniform ~ 5/9, bimodal > 5/9)."""
    n = samples.size
    std = samples.std()
    if std == 0.0:
        return 0.0
    centered = (samples - samples.mean()) / std
    skew = float(np.mean(centered**3))
    kurt = float(np.mean(centered**4)) - 3.0
    denom = kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
    if denom <= 0.0:
        return 0.0
    return float((skew**2 + 1.0) / denom)


def _autocorrelation_peak(centered: np.ndarray) -> float:
    """Max normalized autocorrelation at lags >= 4 samples."""
    n = centered.size
    power = float(np.dot(centered, centered))
    if power == 0.0:
        return 0.0
    # FFT-based autocorrelation.
    padded = np.fft.rfft(centered, n=2 * n)
    ac = np.fft.irfft(padded * np.conj(padded))[:n]
    ac /= ac[0]
    min_lag = 4
    max_lag = n // 2
    if max_lag <= min_lag:
        return 0.0
    return float(np.max(ac[min_lag:max_lag]))


def _spectral_flatness(spec: np.ndarray) -> float:
    """Geometric over arithmetic mean of a power spectrum (0..1]."""
    power = np.asarray(spec, dtype=float) ** 2
    power = power[power > 0.0]
    if power.size == 0:
        return 0.0
    log_mean = float(np.mean(np.log(power)))
    arith = float(np.mean(power))
    if arith == 0.0:
        return 0.0
    return float(np.exp(log_mean) / arith)
