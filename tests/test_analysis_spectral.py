"""Sideband bookkeeping and prominent-component identification."""

import numpy as np
import pytest

from repro.core.analysis.spectral import (
    clock_harmonics,
    find_prominent_components,
    sideband_amplitude,
    sideband_feature_db,
    sideband_frequencies,
)
from repro.dsp.transforms import Spectrum, amplitude_spectrum
from repro.errors import AnalysisError


def test_sideband_frequencies_match_paper(config):
    lower, upper = sideband_frequencies(config)
    assert lower == pytest.approx(48e6)
    assert upper == pytest.approx(84e6)


def test_clock_harmonics(config):
    assert clock_harmonics(config) == [33e6, 66e6, 99e6]
    assert clock_harmonics(config, f_max=70e6) == [33e6, 66e6]


def _synthetic_spectrum(sideband_amp, config, n=8448):
    t = np.arange(n) / config.fs
    trace = 1.0 * np.sin(2 * np.pi * 33e6 * t)
    trace += sideband_amp * np.sin(2 * np.pi * 48e6 * t)
    trace += sideband_amp * np.sin(2 * np.pi * 84e6 * t)
    return amplitude_spectrum(trace, config.fs)


def test_sideband_feature_tracks_amplitude(config):
    quiet = sideband_feature_db(_synthetic_spectrum(1e-5, config), config)
    loud = sideband_feature_db(_synthetic_spectrum(1e-3, config), config)
    assert loud - quiet == pytest.approx(40.0, abs=1.0)


def test_sideband_amplitude_linear(config):
    spec = _synthetic_spectrum(2e-4, config)
    amp = sideband_amplitude(spec, config)
    assert amp == pytest.approx(2e-4 / np.sqrt(2), rel=0.01)


def test_find_prominent_components_locates_sidebands(config):
    baseline = _synthetic_spectrum(1e-6, config)
    active = _synthetic_spectrum(1e-3, config)
    peaks = find_prominent_components(active, baseline, config, top_n=2)
    freqs = sorted(freq for freq, _delta in peaks)
    assert freqs[0] == pytest.approx(48e6, abs=2e5)
    assert freqs[1] == pytest.approx(84e6, abs=2e5)
    for _freq, delta in peaks:
        assert delta > 20.0


def test_prominent_components_mask_harmonics(config):
    baseline = _synthetic_spectrum(1e-6, config)
    # Active trace adds energy right at the carrier — must be masked.
    n = 8448
    t = np.arange(n) / config.fs
    active = amplitude_spectrum(
        2.0 * np.sin(2 * np.pi * 33e6 * t), config.fs
    )
    peaks = find_prominent_components(active, baseline, config)
    for freq, _delta in peaks:
        assert abs(freq - 33e6) > 2e6


def test_mismatched_axes_rejected(config):
    a = Spectrum(freqs=np.linspace(0, 1e8, 100), amps=np.ones(100))
    b = Spectrum(freqs=np.linspace(0, 2e8, 100), amps=np.ones(100))
    with pytest.raises(AnalysisError):
        find_prominent_components(a, b, config)


def test_real_traces_show_sidebands_only_when_active(
    psa, records, config
):
    """Integration: the feature separates T1-active from baseline."""
    from repro.instruments.spectrum_analyzer import SpectrumAnalyzer

    analyzer = SpectrumAnalyzer()
    base = sideband_feature_db(
        analyzer.spectrum(psa.measure(records["baseline"][0], 10, 0)), config
    )
    active = sideband_feature_db(
        analyzer.spectrum(psa.measure(records["T1"][0], 10, 0)), config
    )
    assert active - base > 20.0
