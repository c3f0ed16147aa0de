"""Envelope feature extraction."""

import numpy as np
import pytest

from repro.dsp.features import envelope_features
from repro.errors import AnalysisError

FS = 32e6
N = 4096


def _t():
    return np.arange(N) / FS


def test_sine_envelope_features():
    env = 1.0 + 0.8 * np.sin(2 * np.pi * 750e3 * _t())
    feats = envelope_features(env, FS)
    assert feats.dominant_freq == pytest.approx(750e3, rel=0.02)
    assert feats.ripple == pytest.approx(0.8 / np.sqrt(2), rel=0.05)
    assert feats.duty_cycle == pytest.approx(0.5, abs=0.05)
    assert feats.autocorr_peak > 0.9
    assert feats.bimodality < 0.75


def test_square_envelope_is_bimodal_and_periodic():
    env = 0.1 + 0.9 * (np.sin(2 * np.pi * 1.5e6 * _t()) > 0)
    feats = envelope_features(env.astype(float), FS)
    assert feats.bimodality > 5.0 / 9.0
    assert feats.autocorr_peak > 0.9
    assert feats.dominant_freq == pytest.approx(1.5e6, rel=0.05)


def test_constant_envelope_low_ripple():
    rng = np.random.default_rng(0)
    env = 1.0 + 0.01 * rng.normal(size=N)
    feats = envelope_features(env, FS)
    assert feats.ripple < 0.05
    assert feats.autocorr_peak < 0.3


def test_pn_envelope_aperiodic():
    """Random chips (as long as the minimum lag) give low autocorrelation.

    Note: autocorr_peak is evaluated from lag 4 upward, so chips longer
    than a few samples contribute *within-chip* correlation by design —
    the feature deliberately mixes smoothness with periodicity, which is
    what separates the Trojan envelope classes.
    """
    rng = np.random.default_rng(1)
    chips = rng.integers(0, 2, N // 4)
    env = 0.1 + 0.9 * np.repeat(chips, 4).astype(float)
    feats = envelope_features(env, FS)
    assert feats.bimodality > 5.0 / 9.0
    assert feats.autocorr_peak < 0.7


def test_feature_vector_shape_and_dict():
    env = 1.0 + 0.5 * np.sin(2 * np.pi * 1e6 * _t())
    feats = envelope_features(env, FS)
    vector = feats.cluster_vector()
    assert vector.shape == (6,)
    assert vector[0] == feats.ripple and np.isfinite(vector).all()


def test_envelope_validation():
    with pytest.raises(AnalysisError):
        envelope_features(np.ones(4), FS)
    with pytest.raises(AnalysisError):
        envelope_features(np.zeros(64), FS)
