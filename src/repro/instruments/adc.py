"""Analog-to-digital conversion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import MeasurementError


@dataclass(frozen=True)
class AdcSpec:
    """Converter parameters.

    Attributes
    ----------
    n_bits:
        Resolution.
    full_scale:
        Peak input voltage [V]; the input range is +-full_scale.
    """

    n_bits: int = 10
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 4 <= self.n_bits <= 24:
            raise MeasurementError(f"implausible ADC resolution {self.n_bits}")
        if self.full_scale <= 0:
            raise MeasurementError("full scale must be positive")


def quantize_batch(
    samples: np.ndarray,
    spec: AdcSpec,
    headroom: float = 1.25,
) -> np.ndarray:
    """Quantize (and clip) a ``(..., n_samples)`` trace stack in one pass.

    The converter range is rescaled to each trace's own peak (plus
    ``headroom``) before sampling, mirroring the RASC monitor's
    programmable-gain attenuator; all-zero traces fall back to
    ``spec.full_scale``.  Every element goes through the same
    clip/round arithmetic, so each row is bit-identical to quantizing
    that trace alone.
    """
    samples = np.asarray(samples, dtype=float)
    if headroom <= 0:
        raise MeasurementError("auto-range headroom must be positive")
    # max|x| as max(max(x), -min(x)): the full-size |samples| buffer
    # np.abs would allocate is never materialized.
    peak = np.maximum(
        np.max(samples, axis=-1, keepdims=True),
        -np.min(samples, axis=-1, keepdims=True),
    )
    full_scale = np.where(peak > 0.0, headroom * peak, spec.full_scale)
    lsb = 2.0 * full_scale / (1 << spec.n_bits)
    # One working buffer end to end: clip, scale to codes, round
    # (np.rint == np.round at zero decimals), scale back.
    codes = np.clip(samples, -full_scale, full_scale - lsb)
    np.divide(codes, lsb, out=codes)
    np.rint(codes, out=codes)
    np.multiply(codes, lsb, out=codes)
    return codes
