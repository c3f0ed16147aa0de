"""RASC-style on-board run-time monitor.

Section II-A: the RASCv2 board replaces the oscilloscope for run-time
side-channel verification — ADCs sample the sensor output, an FPGA
processes the traces, and only processed verdicts leave the board
(which is also why the PSA does not enable remote side-channel attacks:
raw traces never cross a communication channel).

:class:`RascMonitor` is deliberately decoupled from the analysis
package: it takes a feature extractor and a 1-stream detector as
collaborators, adds the ADC front-end and the per-trace latency budget,
and reports a timeline suitable for MTTD evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Protocol, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from ..traces import Trace
from .adc import AdcSpec, quantize, quantize_batch

#: The monitor's converter: +-10 V at 12 bits swallows the 50 dB-
#: amplified sensor output without clipping while keeping quantization
#: ~5 mV, far below the sideband features of interest.  Canonical here;
#: batch consumers (repro.sweep) share the same spec.
RASC_ADC = AdcSpec(n_bits=12, full_scale=10.0)

#: Auto-range headroom above each trace's peak (the programmable-gain
#: attenuator's safety margin).
AUTO_RANGE_HEADROOM = 1.25


class StreamingDetector(Protocol):
    """A 1-stream :class:`~repro.detectors.base.Detector`.

    ``update`` takes a one-element feature vector and returns a step
    whose ``alarm`` mask says whether the window completed an alarm.
    """

    def update(self, values: np.ndarray) -> object: ...


@dataclass(frozen=True)
class RascReport:
    """Timeline of one monitoring session.

    Attributes
    ----------
    alarm_index:
        Trace index of the first alarm (None = silent).
    alarm_time_s:
        Wall-clock time of the alarm relative to session start [s].
    features_db:
        Feature per processed trace.
    trace_period_s:
        Capture + processing period per trace [s].
    window_indices:
        Stream index of every processed window, in order.
    window_times_s:
        Wall-clock verdict time of every processed window [s].
    alarms:
        Every alarming window index (a session monitored past its
        first alarm can fire more than once).
    """

    alarm_index: int | None
    alarm_time_s: float | None
    features_db: List[float]
    trace_period_s: float
    window_indices: Tuple[int, ...] = ()
    window_times_s: Tuple[float, ...] = ()
    alarms: Tuple[int, ...] = ()

    def traces_to_detect(self, trigger_index: int) -> int | None:
        """Windows from a scripted activation to the first alarm.

        The per-window bookkeeping replaces hand-rolled trigger
        arithmetic in callers: given the window the Trojan was enabled
        at, this is the (inclusive) count of monitored windows until
        the alarm — None when the session stayed silent or alarmed
        *before* the activation (a false alarm, not a detection).
        """
        if self.alarm_index is None or self.alarm_index < trigger_index:
            return None
        return self.alarm_index - trigger_index + 1

    def state_at(self, window: int, warmup: int, trigger_index: int) -> str:
        """Human-readable monitor state of one window of the timeline."""
        if window < warmup:
            return "warm-up"
        if self.alarm_index is not None and window in self.alarms:
            return "ALARM"
        if window < trigger_index:
            return "armed, quiet"
        return "TROJAN ACTIVE"


class RascMonitor:
    """ADC + feature + detector, with latency accounting.

    Parameters
    ----------
    feature_fn:
        Maps a quantized trace to the detection feature [dB].
    detector:
        A 1-stream registry detector, e.g.
        ``repro.detectors.make_detector("welford", 1)``.
    adc:
        Sampling front-end.
    processing_latency_s:
        On-board processing time per trace [s].
    auto_range:
        Rescale the converter range to each trace's peak (with the
        :data:`AUTO_RANGE_HEADROOM` margin) before sampling — the
        front-end's programmable-gain attenuator.  Without it, a
        strong Trojan like the T4 power virus clips the converter and
        its signature vanishes.
    """

    def __init__(
        self,
        feature_fn: Callable[[Trace], float],
        detector: StreamingDetector,
        adc: AdcSpec | None = None,
        processing_latency_s: float = 0.9e-3,
        auto_range: bool = True,
    ):
        if processing_latency_s < 0:
            raise MeasurementError("processing latency must be >= 0")
        self.feature_fn = feature_fn
        self.detector = detector
        self.adc = adc or RASC_ADC
        self.processing_latency_s = processing_latency_s
        self.auto_range = auto_range

    def process(self, trace: Trace) -> tuple[float, bool]:
        """Digitize and score one trace; returns (feature, alarm)."""
        if self.auto_range:
            samples = quantize_batch(
                trace.samples[None, :],
                self.adc,
                auto_range=True,
                headroom=AUTO_RANGE_HEADROOM,
            )[0]
        else:
            samples = quantize(trace.samples, self.adc)
        digitized = Trace(
            samples=samples,
            fs=trace.fs,
            label=trace.label,
            scenario=trace.scenario,
            meta=trace.meta,
        )
        feature = self.feature_fn(digitized)
        step = self.detector.update(np.array([feature]))
        return feature, bool(np.any(step.alarm))

    def monitor(
        self, traces: Sequence[Trace], stop_on_alarm: bool = True
    ) -> RascReport:
        """Stream a trace sequence until the first alarm (or the end).

        Timeline bookkeeping (window indices, verdict timestamps,
        alarm accounting) delegates to the run-time subsystem's
        :class:`~repro.runtime.timeline.WindowTimeline` — the same
        fold the streaming :class:`~repro.runtime.EscalationPipeline`
        uses — so the per-trace and batched monitoring paths share one
        notion of session time.  With ``stop_on_alarm`` (the legacy
        behavior) the session ends at the first alarm; without it the
        monitor keeps watching and records every alarm.
        """
        from ..runtime.timeline import WindowTimeline  # instruments sit below

        if not traces:
            raise MeasurementError("no traces to monitor")
        period = traces[0].duration + self.processing_latency_s
        timeline = WindowTimeline(period, n_streams=1)
        for trace in traces:
            feature, alarm = self.process(trace)
            timeline.push([feature], alarm)
            if alarm and stop_on_alarm:
                break
        alarm_index = timeline.first_alarm
        alarm_time = None if alarm_index is None else timeline.time_of(alarm_index)
        return RascReport(
            alarm_index=alarm_index,
            alarm_time_s=alarm_time,
            features_db=timeline.stream_features(0),
            trace_period_s=period,
            window_indices=timeline.window_indices,
            window_times_s=timeline.window_times_s,
            alarms=timeline.alarms,
        )
