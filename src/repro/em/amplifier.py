"""The PCB measurement amplifier (THS4504D front-end).

Section VI-A: "The output of each output channel of the PSA is
amplified by a THS4504D OP-AMP with 50 dB DC gain and 200 MHz UGB".
Together with the PCB's AC coupling, the chain is modeled as a 50 dB
gain block with a 2nd-order 30 MHz high-pass (AC coupling + probe
response) and a 4th-order 105 MHz low-pass (closed-loop rolloff), plus
input-referred voltage noise.

The band shaping matters to the reproduction: it is why the 48 MHz and
84 MHz Trojan sidebands dominate their 18 MHz and 114 MHz images in the
displayed spectra.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, Tuple

from ..dsp.filters import butter_highpass_response, butter_lowpass_response
from ..errors import ConfigError
from ..units import from_db


class MeasurementAmplifier:
    """50 dB band-shaping amplifier with input-referred noise.

    Parameters
    ----------
    gain_db:
        Mid-band voltage gain [dB].
    f_highpass:
        High-pass corner [Hz] (2nd order).
    f_lowpass:
        Low-pass corner [Hz] (4th order).
    input_noise_density:
        Input-referred voltage noise [V/sqrt(Hz)].
    input_impedance:
        Differential input resistance [ohm]; forms a divider with the
        coil's series impedance.
    """

    def __init__(
        self,
        gain_db: float = 50.0,
        f_highpass: float = 30.0e6,
        f_lowpass: float = 105.0e6,
        input_noise_density: float = 5.0e-9,
        input_impedance: float = 10.0e3,
    ):
        if f_highpass >= f_lowpass:
            raise ConfigError("high-pass corner must sit below low-pass corner")
        if input_impedance <= 0:
            raise ConfigError("input impedance must be positive")
        self.gain_db = gain_db
        self.f_highpass = f_highpass
        self.f_lowpass = f_lowpass
        self.input_noise_density = input_noise_density
        self.input_impedance = input_impedance
        self._gain = from_db(gain_db)
        self._hp = butter_highpass_response(f_highpass, order=2)
        self._lp = butter_lowpass_response(f_lowpass, order=4)
        self._curve_cache: Dict[Tuple[float, int], np.ndarray] = {}

    # -- transfer ------------------------------------------------------------

    def transfer(self, freqs: np.ndarray) -> np.ndarray:
        """Magnitude response |H(f)| including gain."""
        return self._gain * self._hp(freqs) * self._lp(freqs)

    def gain_curve(self, fs: float, n_samples: int) -> np.ndarray:
        """|H(f)| on the rFFT grid of an ``n_samples`` trace (cached).

        The batched render path multiplies thousands of trace spectra
        by the same curve; evaluating the Butterworth responses once
        per (fs, length) pair removes that per-trace cost.
        """
        key = (fs, n_samples)
        curve = self._curve_cache.get(key)
        if curve is None:
            freqs = np.fft.rfftfreq(n_samples, d=1.0 / fs)
            curve = self.transfer(freqs)
            curve.setflags(write=False)
            self._curve_cache[key] = curve
        return curve

    def source_divider(self, source_impedance: float) -> float:
        """Input voltage divider for a given source impedance."""
        if source_impedance < 0:
            raise ConfigError("source impedance must be >= 0")
        return self.input_impedance / (self.input_impedance + source_impedance)

    def input_noise_rms(self, fs: float) -> float:
        """Input-referred noise RMS over the Nyquist band."""
        return self.input_noise_density * np.sqrt(fs / 2.0)
