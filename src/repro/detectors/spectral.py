"""Reference-free spectral-anomaly detection (after arXiv:2601.20163).

Tahghigh & Salmani's spectral-anomaly method needs no golden model, no
matched reference workload and — unlike the rolling-Welford
self-baseline — no self-history either: each captured spectrum is
judged against *its own* broadband noise floor.  The statistic is the
sideband excess
(:func:`~repro.core.analysis.spectral.sideband_excess_db`): the RMS of
the two prominent Trojan sidebands in dB over the median amplitude at
the noise-floor probe frequencies midway between clock harmonics.

Because the statistic carries its reference inside every single
window, the detector is armed from window 0 and sees an always-on
Trojan immediately — the class the self-baseline is structurally
blind to.  The price is an absolute threshold: the excess must clear a
fixed margin (in dB) rather than a learned per-chip distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import SimConfig
from ..core.analysis.spectral import excess_display_bins, sideband_excess_db
from ..errors import AnalysisError
from .base import BankStep, Detector, debounce

#: Default alarm threshold on the sideband excess [dB].  Calibrated on
#: the simulated testbench: the AES block harmonics put real energy at
#: the sideband frequencies even Trojan-quiet (excess 14-23 dB over
#: the inter-harmonic noise floor), the strong narrowband emitters
#: (T1, T2 and every always-on variant) clear 36+ dB, while T3's weak
#: CDMA leakage (< 31 dB) and T4's heater (which raises the *floor*,
#: collapsing its own relative excess below baseline's) stay under —
#: the reference-free statistic's own structural blind spots.
DEFAULT_EXCESS_THRESHOLD_DB = 33.0


@dataclass(frozen=True)
class SpectralConfig:
    """Tuning of the spectral-anomaly detector.

    Attributes
    ----------
    excess_threshold_db:
        Alarm threshold on the per-window sideband excess [dB].
    consecutive:
        Super-threshold windows required to complete an alarm (the
        debounce shared with the ``welford`` detector).
    """

    excess_threshold_db: float = DEFAULT_EXCESS_THRESHOLD_DB
    consecutive: int = 2

    def __post_init__(self):
        if not np.isfinite(self.excess_threshold_db):
            raise AnalysisError("excess_threshold_db must be finite")
        if self.consecutive < 1:
            raise AnalysisError("consecutive must be >= 1")


class SpectralDetector(Detector):
    """Per-window sideband-excess thresholding, reference-free.

    Parameters
    ----------
    n_streams:
        Parallel feature streams (one per monitored sensor).
    config:
        Threshold and debounce tuning.
    """

    name = "spectral"
    feature_kind = "sideband-excess-db"

    def __init__(self, n_streams: int, config: Optional[SpectralConfig] = None):
        super().__init__(n_streams)
        self.config = config or SpectralConfig()
        self._streak = np.zeros(n_streams, dtype=np.int64)

    # -- spectral reduction ----------------------------------------------------

    def display_bins(self, grid: np.ndarray, config: SimConfig) -> np.ndarray:
        return excess_display_bins(grid, config)

    def features(
        self, freqs: np.ndarray, amps: np.ndarray, config: SimConfig
    ) -> np.ndarray:
        return sideband_excess_db(freqs, amps, config)

    # -- temporal decision -----------------------------------------------------

    @property
    def armed(self) -> np.ndarray:
        """Always armed: every window carries its own reference."""
        return np.ones(self.n_streams, dtype=bool)

    def update(self, values: np.ndarray) -> BankStep:
        values = self._check_values(values)
        over = values > self.config.excess_threshold_db
        self._streak, fired = debounce(
            self._streak, over, self.config.consecutive
        )
        return BankStep(z=values.copy(), armed=self.armed, alarm=fired)
