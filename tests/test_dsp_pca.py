"""From-scratch PCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.pca import PCA
from repro.errors import AnalysisError


def _anisotropic_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, 2)) * np.array([10.0, 1.0])
    mix = np.array([[0.8, 0.6], [-0.6, 0.8]])
    return latent @ mix + np.array([5.0, -2.0])


def test_first_component_captures_dominant_axis():
    data = _anisotropic_data()
    pca = PCA(n_components=2).fit(data)
    ratios = pca.explained_variance_ratio_
    assert ratios[0] > 0.95
    assert ratios.sum() == pytest.approx(1.0, abs=1e-9)


def test_components_are_orthonormal():
    pca = PCA(n_components=2).fit(_anisotropic_data())
    gram = pca.components_ @ pca.components_.T
    assert np.allclose(gram, np.eye(2), atol=1e-9)


def test_transform_centers_data():
    data = _anisotropic_data()
    projected = PCA(n_components=2).fit_transform(data)
    assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-9)


def test_inverse_transform_roundtrip_full_rank():
    data = _anisotropic_data()
    pca = PCA(n_components=2).fit(data)
    recovered = pca.transform(data) @ pca.components_ + pca.mean_
    assert np.allclose(recovered, data, atol=1e-8)


def test_reduced_rank_reconstruction_error_is_small():
    data = _anisotropic_data()
    pca = PCA(n_components=1).fit(data)
    recovered = pca.transform(data) @ pca.components_ + pca.mean_
    residual = np.linalg.norm(data - recovered) / np.linalg.norm(data)
    assert residual < 0.2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_variance_ordering(k):
    rng = np.random.default_rng(k)
    data = rng.normal(size=(50, k)) * np.arange(1, k + 1)
    pca = PCA(n_components=k).fit(data)
    variances = pca.explained_variance_
    assert all(variances[i] >= variances[i + 1] for i in range(k - 1))


def test_errors():
    with pytest.raises(AnalysisError):
        PCA(n_components=0)
    with pytest.raises(AnalysisError):
        PCA(n_components=5).fit(np.zeros((3, 2)))
    pca = PCA(n_components=1)
    with pytest.raises(AnalysisError):
        pca.transform(np.zeros((3, 2)))
