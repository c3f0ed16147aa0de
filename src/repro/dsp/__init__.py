"""Signal-processing and statistics substrate.

Everything in this package is generic DSP/statistics used by the rest of
the library: spectra, filters, RMS/SNR metrics, envelope features,
detection statistics, and from-scratch PCA / K-means implementations
(used by the backscattering baseline of Nguyen et al., HOST'20).
"""

from .transforms import (
    Spectrum,
    amplitude_spectra,
    amplitude_spectrum,
    average_spectra,
    resample_spectra,
    resample_spectrum,
)
from .filters import (
    analytic_bandpass,
    butter_highpass_response,
    butter_lowpass_response,
)
from .metrics import rms, snr_rms_db
from .features import EnvelopeFeatures, envelope_features
from .stats import (
    DetectionPower,
    cohens_d,
    detection_power,
    detection_rate,
    required_measurements,
    roc_auc,
)
from .pca import PCA
from .kmeans import KMeans, KMeansResult

__all__ = [
    "Spectrum",
    "amplitude_spectra",
    "amplitude_spectrum",
    "average_spectra",
    "resample_spectra",
    "resample_spectrum",
    "analytic_bandpass",
    "butter_highpass_response",
    "butter_lowpass_response",
    "rms",
    "snr_rms_db",
    "EnvelopeFeatures",
    "envelope_features",
    "DetectionPower",
    "cohens_d",
    "detection_power",
    "detection_rate",
    "required_measurements",
    "roc_auc",
    "PCA",
    "KMeans",
    "KMeansResult",
]
