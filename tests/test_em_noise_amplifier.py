"""Noise sources and the measurement amplifier."""

import numpy as np
import pytest

from repro.em.amplifier import MeasurementAmplifier
from repro.em.noise import (
    NoiseModel,
    ambient_rms,
    fill_white_noise_rfft,
    johnson_rms,
    white_noise_scales,
)
from repro.errors import ConfigError
from repro.rng import stream


def test_johnson_noise_formula():
    """sqrt(4kTRB): 1 kohm over 1 MHz at ~17 C is about 4 uV."""
    value = johnson_rms(1e3, 16.85, 1e6)
    assert value == pytest.approx(4.0e-6, rel=0.02)


def test_johnson_scales_with_sqrt_r():
    r1 = johnson_rms(100.0, 25.0, 1e6)
    r4 = johnson_rms(400.0, 25.0, 1e6)
    assert r4 == pytest.approx(2 * r1, rel=1e-9)


def test_noise_model_rms_matches_prediction():
    """A draw at the model's white RMS, laid out as the engine lays it
    out, has the predicted RMS."""
    model = NoiseModel(resistance=1e3, temperature_c=25.0, ambient_area=0.0)
    fs, n = 528e6, 200_000
    spectrum = fill_white_noise_rfft(
        np.empty(n // 2 + 1, dtype=complex),
        stream(1, "test").standard_normal(n),
        *white_noise_scales(n, model.white_rms(fs)),
    )
    samples = np.fft.irfft(spectrum, n=n)
    # No ambient pickup: the prediction is the Johnson noise over Nyquist.
    assert np.sqrt(np.mean(samples**2)) == pytest.approx(
        johnson_rms(1e3, 25.0, fs / 2.0), rel=0.02
    )


def test_ambient_adds_power():
    fs = 528e6
    quiet = NoiseModel(10.0, 25.0, ambient_area=0.0)
    loud = NoiseModel(10.0, 25.0, ambient_area=1e-3)
    assert loud.white_rms(fs) > 10 * quiet.white_rms(fs)
    assert ambient_rms(0.0) == 0.0


def test_noise_validation():
    with pytest.raises(ConfigError):
        johnson_rms(-1.0, 25.0, 1e6)
    with pytest.raises(ConfigError):
        ambient_rms(-1.0)


def test_amplifier_midband_gain():
    amp = MeasurementAmplifier()
    gain = amp.transfer(np.array([60e6]))[0]
    assert 20 * np.log10(gain) == pytest.approx(50.0, abs=1.5)


def test_amplifier_band_shaping():
    """18 MHz and 114 MHz (the image sidebands) are attenuated
    relative to 48 MHz and 84 MHz."""
    amp = MeasurementAmplifier()
    gains = amp.transfer(np.array([18e6, 48e6, 84e6, 114e6]))
    assert gains[1] > 1.5 * gains[0]
    assert gains[2] > 1.5 * gains[3]


def test_amplifier_divider():
    amp = MeasurementAmplifier(input_impedance=10e3)
    assert amp.source_divider(0.0) == 1.0
    assert amp.source_divider(10e3) == pytest.approx(0.5)


def test_amplify_applies_gain_and_noise():
    """The engine's band shaping: the cached gain curve passes a
    mid-band tone at ~50 dB; the input noise is the density over the
    Nyquist band."""
    amp = MeasurementAmplifier()
    fs, n = 528e6, 8192
    t = np.arange(n) / fs
    tone = 1e-3 * np.sin(2 * np.pi * 60e6 * t)
    shaped = np.fft.irfft(np.fft.rfft(tone) * amp.gain_curve(fs, n), n=n)
    assert np.sqrt(np.mean(shaped**2)) == pytest.approx(
        1e-3 / np.sqrt(2) * 316.2, rel=0.05
    )
    assert amp.input_noise_rms(fs) == pytest.approx(5e-9 * np.sqrt(fs / 2))


def test_amplifier_validation():
    with pytest.raises(ConfigError):
        MeasurementAmplifier(f_highpass=200e6, f_lowpass=100e6)
    with pytest.raises(ConfigError):
        MeasurementAmplifier(input_impedance=0.0)
