"""Scalar signal metrics: RMS and He's SNR measure.

Equation (1) of the paper defines SNR as the RMS-voltage ratio of a
signal trace (chip performing AES encryption) to a noise trace (chip
powered up, no encryption):

    SNR = 20 * log10(Vrms_signal / Vrms_noise)
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError


def rms(samples: np.ndarray) -> float:
    """Root-mean-square value of a trace."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise AnalysisError("rms of an empty trace is undefined")
    return float(np.sqrt(np.mean(samples**2)))


def snr_rms_db(signal: np.ndarray, noise: np.ndarray) -> float:
    """He's SNR measure (paper Equation (1)).

    Parameters
    ----------
    signal:
        Trace captured while the chip performs AES encryption.
    noise:
        Trace captured from the powered-up chip without encryption
        activity.
    """
    noise_rms = rms(noise)
    if noise_rms == 0.0:
        raise AnalysisError("noise trace has zero RMS; SNR undefined")
    return float(20.0 * np.log10(rms(signal) / noise_rms))
