"""The rolling-Welford self-baseline detector (the paper's method).

The spectral half is the absolute sideband level in dBuV
(:func:`~repro.core.analysis.spectral.sideband_features_db`).  The
temporal half keeps a bounded self-baseline per stream and z-scores
every new window against it: rolling Welford moments give O(1)
mean/variance updates with exact window eviction, and every per-window
decision is a handful of vectorized O(n_streams) operations.

Bit-identity contract: every arithmetic step is an elementwise float64
operation, so a stream produces the same z-scores and alarms whether
it is folded alone or inside any multi-stream detector — the property
``tests/test_sweep.py::test_bank_bit_identical_to_sequential_fold``
checks; ``tests/data/detector_golden.json`` pins the timelines.

This is the paper's detection method, and its structural blind spot is
the reason the registry exists: a self-baseline learns whatever the
chip does *first*, so an always-on Trojan (active from the very first
window) is absorbed into the baseline and never scores anomalous.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SimConfig
from ..core.analysis.detector import DetectorConfig
from ..core.analysis.spectral import sideband_display_bins, sideband_features_db
from ..errors import AnalysisError
from .base import BankStep, Detector, debounce


class RollingMoments:
    """Windowed mean/variance over parallel streams, Welford-style.

    Maintains per-stream count, mean and the centered second moment
    ``M2`` with O(1) updates; a ring buffer provides exact eviction of
    the oldest sample once a stream's population reaches ``window``.

    Parameters
    ----------
    n_streams:
        Parallel stream count.
    window:
        Maximum population per stream (the rolling baseline size).
    """

    def __init__(self, n_streams: int, window: int):
        if window < 2:
            raise AnalysisError("window must hold at least two samples")
        self.n_streams = n_streams
        self.window = window
        self._buffer = np.zeros((n_streams, window))
        self._head = np.zeros(n_streams, dtype=np.int64)
        self.count = np.zeros(n_streams, dtype=np.int64)
        self.mean = np.zeros(n_streams)
        self.m2 = np.zeros(n_streams)

    def push(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Absorb ``values[i]`` into stream ``i`` wherever ``mask[i]``.

        Streams at full window evict their oldest sample first (exact
        Welford downdate), so the moments always describe the most
        recent ``<= window`` absorbed samples.
        """
        index = np.nonzero(mask)[0]
        if index.size == 0:
            return
        # Evict the oldest sample of full streams.
        full = index[self.count[index] == self.window]
        if full.size:
            old = self._buffer[full, self._head[full]]
            n = self.count[full].astype(float)
            evicted_mean = (n * self.mean[full] - old) / (n - 1.0)
            self.m2[full] -= (old - self.mean[full]) * (old - evicted_mean)
            self.mean[full] = evicted_mean
            self._head[full] = (self._head[full] + 1) % self.window
            self.count[full] -= 1
        # Welford update with the incoming sample.
        slot = (self._head[index] + self.count[index]) % self.window
        incoming = values[index]
        self._buffer[index, slot] = incoming
        grown = self.count[index] + 1
        delta = incoming - self.mean[index]
        new_mean = self.mean[index] + delta / grown
        self.m2[index] += delta * (incoming - new_mean)
        self.mean[index] = new_mean
        self.count[index] = grown

    def std(self, ddof: int = 1) -> np.ndarray:
        """Per-stream sample standard deviation (NaN below ddof+1)."""
        denom = self.count.astype(float) - ddof
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = np.where(
                denom > 0, np.maximum(self.m2, 0.0) / denom, np.nan
            )
        return np.sqrt(variance)


class WelfordDetector(Detector):
    """Self-baseline z-score detection over sideband levels.

    Warm-up windows always enter the baseline; once a stream is armed,
    super-threshold windows are scored but never absorbed, so a
    persistent Trojan cannot drag the self-reference toward itself.
    Alarms pay the shared ``consecutive``-window debounce.

    Parameters
    ----------
    n_streams:
        Parallel feature streams (one per monitored sensor).
    config:
        Rolling-Welford tuning (warm-up, z threshold, debounce).
    """

    name = "welford"
    feature_kind = "sideband-db"
    #: :func:`~repro.detectors.registry.make_detector` forwards the
    #: sweep/pipeline ``DetectorConfig`` to this class only.
    uses_bank_config = True

    def __init__(self, n_streams: int, config: Optional[DetectorConfig] = None):
        super().__init__(n_streams)
        self.config = config or DetectorConfig()
        self._moments = RollingMoments(n_streams, self.config.baseline_window)
        self._streak = np.zeros(n_streams, dtype=np.int64)

    # -- spectral reduction ----------------------------------------------------

    def display_bins(self, grid: np.ndarray, config: SimConfig) -> np.ndarray:
        return sideband_display_bins(grid, config)

    def features(
        self, freqs: np.ndarray, amps: np.ndarray, config: SimConfig
    ) -> np.ndarray:
        return sideband_features_db(freqs, amps, config)

    # -- temporal decision -----------------------------------------------------

    @property
    def armed(self) -> np.ndarray:
        """Per-stream warm-up completion mask."""
        return self._moments.count >= self.config.warmup

    def update(self, values: np.ndarray) -> BankStep:
        values = self._check_values(values)
        config = self.config
        armed = self.armed
        z = np.full(self.n_streams, np.nan)
        alarm = np.zeros(self.n_streams, dtype=bool)
        absorb = ~armed  # warm-up always absorbs
        live = np.nonzero(armed)[0]
        if live.size:
            std = np.maximum(self._moments.std()[live], config.min_std_db)
            scored = (values[live] - self._moments.mean[live]) / std
            z[live] = scored
            excess = np.abs(scored) if config.two_sided else scored
            over = excess > config.z_threshold
            self._streak[live], alarm[live] = debounce(
                self._streak[live], over, config.consecutive
            )
            absorb[live] = ~over  # outliers never poison the baseline
        self._moments.push(values, absorb)
        return BankStep(z=z, armed=armed, alarm=alarm)
