"""The common detector protocol behind the plugin registry.

A detector is two halves glued by one class:

* a **spectral reduction** — which display bins it needs
  (:meth:`Detector.display_bins`) and how a stack of display spectra
  becomes one scalar feature per capture (:meth:`Detector.features`).
  The reduction is stateless; its identity (:attr:`Detector.feature_kind`)
  keys the sweep's span-feature cache, so detectors sharing a
  reduction share cached features.
* a **temporal decision** — a stateful fold over the per-window
  features of ``n_streams`` parallel sensor streams:
  :meth:`Detector.update` does one full step (score, absorb,
  debounce), :attr:`Detector.armed` says which streams can alarm and
  :meth:`Detector.process` folds a whole feature matrix.

Every detector returns the same step and timeline types
(:class:`BankStep` / :class:`BankTimeline`), so every consumer —
sweep orchestrator, escalation pipeline, fleet — reads any detector's
output through one shape.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..errors import AnalysisError

__all__ = ["BankStep", "BankTimeline", "Detector", "debounce"]


@dataclass(frozen=True)
class BankStep:
    """Per-stream outcome of one :meth:`Detector.update`.

    Attributes
    ----------
    z:
        Score per stream (NaN while a stream is not armed).
    armed:
        Whether each stream was armed for this window.
    alarm:
        Whether this window completed an alarm on each stream.
    """

    z: np.ndarray
    armed: np.ndarray
    alarm: np.ndarray


@dataclass(frozen=True)
class BankTimeline:
    """Full decision history of a :meth:`Detector.process` run.

    Attributes
    ----------
    z:
        Score matrix, shape ``(n_streams, n_traces)``.
    armed:
        Armed mask, same shape.
    alarms:
        Alarm mask, same shape (every alarm, not just the first).
    """

    z: np.ndarray
    armed: np.ndarray
    alarms: np.ndarray

    def first_alarms(self) -> List[Optional[int]]:
        """First alarming trace index per stream (None = silent)."""
        out: List[Optional[int]] = []
        for row in self.alarms:
            hits = np.nonzero(row)[0]
            out.append(int(hits[0]) if hits.size else None)
        return out

    def first_alarm(self) -> Optional[int]:
        """Earliest alarm across every stream (None = all silent)."""
        firsts = [index for index in self.first_alarms() if index is not None]
        return min(firsts) if firsts else None


def debounce(
    streak: np.ndarray, over: np.ndarray, consecutive: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance per-stream debounce streaks; returns ``(streak, fired)``.

    The streak counts super-threshold windows, is capped at
    ``consecutive`` and resets once an alarm fires, so every alarm
    needs a full run of ``consecutive`` super-threshold windows (no
    latched re-alarms).
    """
    streak = np.where(over, np.minimum(streak + 1, consecutive), 0)
    fired = streak >= consecutive
    streak[fired] = 0
    return streak, fired


class Detector(ABC):
    """One detection method over per-sensor spectra windows.

    Parameters
    ----------
    n_streams:
        Parallel feature streams (one per monitored sensor).
    """

    #: Registry name of the method (``"welford"``, ``"spectral"``, ...).
    name: str = ""

    #: Identity of the spectral reduction.  Part of the sweep's
    #: span-feature cache key: detectors with equal ``feature_kind``
    #: must compute bit-identical :meth:`features`.
    feature_kind: str = ""

    def __init__(self, n_streams: int):
        if n_streams < 1:
            raise AnalysisError("need at least one stream")
        self.n_streams = n_streams

    # -- spectral reduction (stateless) ----------------------------------------

    @abstractmethod
    def display_bins(
        self, grid: np.ndarray, config: SimConfig
    ) -> np.ndarray:
        """Display bins :meth:`features` reads (partial-evaluation set).

        Feeding exactly these columns of the display to
        :meth:`features` must be bit-identical to feeding the full
        display — the runtime monitor only resamples these bins.
        """

    @abstractmethod
    def features(
        self, freqs: np.ndarray, amps: np.ndarray, config: SimConfig
    ) -> np.ndarray:
        """Reduce an ``(n_spectra, n_points)`` display stack to features.

        One scalar per spectrum, in row order.
        """

    # -- temporal decision (stateful) ------------------------------------------

    @property
    @abstractmethod
    def armed(self) -> np.ndarray:
        """Per-stream bool mask: ready to raise alarms."""

    @abstractmethod
    def update(self, values: np.ndarray) -> BankStep:
        """One full step: score, absorb, debounce; returns the step."""

    def process(self, features: np.ndarray) -> BankTimeline:
        """Fold a whole ``(n_streams, n_traces)`` feature matrix.

        Decisions are inherently sequential along the trace axis (each
        conditions the next state), so the fold iterates traces while
        each :meth:`update` vectorizes across streams.  A 1-D input is
        one stream.
        """
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features[None, :]
        if features.ndim != 2 or features.shape[0] != self.n_streams:
            raise AnalysisError(
                "expected a (n_streams, n_traces) feature matrix, got "
                f"shape {features.shape}"
            )
        n_traces = features.shape[1]
        z = np.full((self.n_streams, n_traces), np.nan)
        armed = np.zeros((self.n_streams, n_traces), dtype=bool)
        alarms = np.zeros((self.n_streams, n_traces), dtype=bool)
        for index in range(n_traces):
            step = self.update(features[:, index])
            z[:, index] = step.z
            armed[:, index] = step.armed
            alarms[:, index] = step.alarm
        return BankTimeline(z=z, armed=armed, alarms=alarms)

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        """Validate one window's feature vector (shared by subclasses)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_streams,):
            raise AnalysisError(
                f"expected {self.n_streams} features, got shape "
                f"{values.shape}"
            )
        if np.count_nonzero(np.isfinite(values)) != values.size:
            raise AnalysisError("non-finite feature in detector input")
        return values

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"n_streams={self.n_streams})"
        )
