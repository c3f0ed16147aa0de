"""Principal Component Analysis, implemented from scratch.

Used by the backscattering baseline (Nguyen et al., HOST'20), which
categorizes collected spectra with PCA followed by K-means.  Implemented
with a plain SVD on the centered data matrix — no external ML
dependency.
"""

from __future__ import annotations

import numpy as np

from ..errors import AnalysisError


class PCA:
    """Principal component analysis via singular value decomposition.

    Parameters
    ----------
    n_components:
        Number of components to keep.

    Attributes
    ----------
    components_:
        Array of shape ``(n_components, n_features)``; rows are the
        principal axes, ordered by decreasing explained variance.
    explained_variance_:
        Variance explained by each kept component.
    explained_variance_ratio_:
        Fraction of total variance explained by each kept component.
    mean_:
        Per-feature mean of the training data.
    """

    def __init__(self, n_components: int):
        if n_components < 1:
            raise AnalysisError(f"n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.components_: np.ndarray | None = None
        self.explained_variance_: np.ndarray | None = None
        self.explained_variance_ratio_: np.ndarray | None = None
        self.mean_: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "PCA":
        """Fit the principal axes on ``data`` of shape (n_samples, n_features)."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise AnalysisError("PCA expects a 2-D (samples x features) matrix")
        n_samples, n_features = data.shape
        if n_samples < 2:
            raise AnalysisError("PCA needs at least two samples")
        max_rank = min(n_samples, n_features)
        if self.n_components > max_rank:
            raise AnalysisError(
                f"n_components={self.n_components} exceeds the data rank "
                f"bound {max_rank}"
            )
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        # Economy SVD; rows of vt are the principal axes.
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        variance = singular**2 / (n_samples - 1)
        total = float(variance.sum())
        keep = self.n_components
        self.components_ = vt[:keep]
        self.explained_variance_ = variance[:keep]
        if total > 0.0:
            self.explained_variance_ratio_ = variance[:keep] / total
        else:
            self.explained_variance_ratio_ = np.zeros(keep)
        return self

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Project ``data`` onto the fitted principal axes."""
        if self.components_ is None or self.mean_ is None:
            raise AnalysisError("PCA.transform called before fit")
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.mean_.size:
            raise AnalysisError(
                f"data shape {data.shape} incompatible with fitted "
                f"feature count {self.mean_.size}"
            )
        return (data - self.mean_) @ self.components_.T

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """Fit on ``data`` then project it."""
        return self.fit(data).transform(data)
