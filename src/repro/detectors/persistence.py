"""Cross-scale persistence detection (after arXiv:2603.16058).

Tahghigh & Salmani's persistence criterion separates *implanted*
spectral structure from transient workload bursts: a fabricated
always-on Trojan emits on every single window, while workload
excursions (and the catalog Trojans' short triggered spans) come and
go.  The detector keeps the trailing sideband-excess history of each
stream and alarms only when the *minimum* excess over every configured
trailing scale clears the threshold — i.e. the emission has persisted
without a single sub-threshold gap at the coarsest scale.

The complementary blind spot is deliberate and pins the comparative
grid's structure: a triggered Trojan active for fewer consecutive
windows than ``max(scales)`` can never satisfy the coarsest-scale
minimum, so this detector *misses* T1..T4's short activation spans
while catching the always-on family the self-baseline absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..core.analysis.spectral import excess_display_bins, sideband_excess_db
from ..errors import AnalysisError
from .base import BankStep, Detector
from .spectral import DEFAULT_EXCESS_THRESHOLD_DB


@dataclass(frozen=True)
class PersistenceConfig:
    """Tuning of the cross-scale persistence detector.

    Attributes
    ----------
    excess_threshold_db:
        Per-window sideband-excess threshold [dB] every scale's
        minimum must clear.
    scales:
        Trailing window lengths (in captures).  The coarsest scale
        sets the persistence requirement — and the warm-up depth.
    """

    excess_threshold_db: float = DEFAULT_EXCESS_THRESHOLD_DB
    scales: Tuple[int, ...] = (1, 4, 8)

    def __post_init__(self):
        if not np.isfinite(self.excess_threshold_db):
            raise AnalysisError("excess_threshold_db must be finite")
        if not self.scales:
            raise AnalysisError("need at least one persistence scale")
        if any(int(s) != s or s < 1 for s in self.scales):
            raise AnalysisError("persistence scales must be positive integers")

    @property
    def depth(self) -> int:
        """History depth: the coarsest trailing scale."""
        return int(max(self.scales))


class PersistenceDetector(Detector):
    """Alarm when the sideband excess persists at every scale.

    Parameters
    ----------
    n_streams:
        Parallel feature streams (one per monitored sensor).
    config:
        Threshold and scale tuning.
    """

    name = "persistence"
    feature_kind = "sideband-excess-db"

    def __init__(
        self, n_streams: int, config: Optional[PersistenceConfig] = None
    ):
        super().__init__(n_streams)
        self.config = config or PersistenceConfig()
        self._history = np.zeros((n_streams, self.config.depth))
        self._count = 0
        self._latched = np.zeros(n_streams, dtype=bool)

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
        """Armed once the coarsest trailing scale is fully populated."""
        return np.full(
            self.n_streams, self._count >= self.config.depth, dtype=bool
        )

    def _push(self, values: np.ndarray) -> None:
        self._history = np.roll(self._history, -1, axis=1)
        self._history[:, -1] = values
        self._count = min(self._count + 1, self.config.depth)

    def _scale_minima(self) -> np.ndarray:
        """Per-stream minima over each trailing scale, ``(n, n_scales)``."""
        return np.stack(
            [
                self._history[:, self.config.depth - scale :].min(axis=1)
                for scale in self.config.scales
            ],
            axis=1,
        )

    def update(self, values: np.ndarray) -> BankStep:
        values = self._check_values(values)
        self._push(values)
        armed = self.armed
        z = np.full(self.n_streams, np.nan)
        alarm = np.zeros(self.n_streams, dtype=bool)
        if self._count >= self.config.depth:
            minima = self._scale_minima()
            # The persistence score is the worst (lowest) scale minimum.
            z = minima.min(axis=1)
            persistent = np.all(
                minima > self.config.excess_threshold_db, axis=1
            )
            # Rising-edge alarm: fire once when persistence is first
            # established; re-arm only after a sub-threshold gap.
            alarm = persistent & ~self._latched
            self._latched = persistent
        return BankStep(z=z, armed=armed, alarm=alarm)
