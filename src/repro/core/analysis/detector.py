"""Tuning of the golden-model-free run-time change detector.

The detector (:class:`~repro.detectors.welford.WelfordDetector`, the
``welford`` plugin) never sees a reference ("golden") chip: it learns
the baseline statistics of its *own* sideband feature during a warm-up
window and then z-scores every new trace against that self-reference.
A Trojan activating mid-stream shifts the sideband feature by tens of
dB, so a couple of consecutive super-threshold traces suffice — the
paper's "fewer than ten traces ... less than 10 ms MTTD".

Traces that score above threshold are *not* absorbed into the baseline,
so a persistent Trojan cannot slowly poison the reference.

Debounce semantics
------------------
An alarm requires ``consecutive`` super-threshold traces in a row.  The
streak is capped at ``consecutive`` and reset to zero the moment an
alarm fires, so *every* alarm — not just the first — pays the full
debounce; a single later outlier can never re-alarm on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import AnalysisError

#: The sensor the run-time monitor watches by default (covers the
#: Trojan cluster on the paper's chip).
DEFAULT_MONITOR_SENSOR = 10


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning of the run-time detector.

    Attributes
    ----------
    warmup:
        Traces used to seed the self-baseline before arming.
    z_threshold:
        Alarm threshold on the z-score, with margin for the smallest
        Trojan (T3, 329 cells).  The false-alarm rate this threshold
        gives with the two-trace debounce is not committed yet: it
        depends on how many windows the baseline holds, and no
        measured curve pins it.
    consecutive:
        Super-threshold traces required for an alarm (debounce).
    baseline_window:
        Maximum baseline population (rolling).
    min_std_db:
        Lower bound on the baseline spread [dB] to keep the z-score
        finite and robust when the baseline is unnaturally quiet.
    two_sided:
        Alarm on |z| rather than z — a golden-model-free change
        detector should flag energy disappearing as well as appearing.
    """

    warmup: int = 8
    z_threshold: float = 4.5
    consecutive: int = 2
    baseline_window: int = 64
    min_std_db: float = 0.05
    two_sided: bool = True

    def __post_init__(self) -> None:
        if self.warmup < 2:
            raise AnalysisError("warmup must be >= 2 traces")
        if self.z_threshold <= 0:
            raise AnalysisError("z_threshold must be positive")
        if self.consecutive < 1:
            raise AnalysisError("consecutive must be >= 1")
        if self.baseline_window < self.warmup:
            raise AnalysisError("baseline_window must cover the warmup")
