"""The library-wide measurement trace type."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import MeasurementError


@dataclass(frozen=True)
class Trace:
    """One captured voltage trace.

    Attributes
    ----------
    samples:
        Voltage samples [V].
    fs:
        Sampling rate [Hz].
    label:
        Receiver identity, e.g. ``"psa_sensor_10"``.
    scenario:
        Workload scenario that produced it, e.g. ``"T1"``.
    meta:
        Free-form metadata (trace index, temperature...).
    """

    samples: np.ndarray
    fs: float
    label: str = ""
    scenario: str = ""
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise MeasurementError("a trace needs a 1-D sample array (>= 2)")
        if self.fs <= 0:
            raise MeasurementError(f"invalid sampling rate {self.fs}")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        """Sample count."""
        return int(self.samples.size)

    def rms(self) -> float:
        """RMS voltage [V]."""
        return float(np.sqrt(np.mean(self.samples**2)))
