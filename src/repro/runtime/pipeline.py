"""The detect→identify→localize escalation pipeline.

The paper's run-time flow as an explicit state machine over a
:class:`~repro.runtime.sources.TraceStream`:

* **MONITOR** — every window of every monitored stream is featurized
  in one vectorized pass (batched display spectra at the bins the
  detector reads, the detector's spectral reduction) and folded
  through the configured :mod:`repro.detectors` method — the
  rolling-Welford self-baseline by default, or a reference-free method
  selected via ``PipelineConfig.detector_name`` / ``repro monitor
  --detector``.  A live source renders only the rFFT columns those
  bins read (:meth:`EscalationPipeline.bind`); time-domain windows
  (replay, serve, sweep) go through the optional RASC ADC front-end
  first.
* **IDENTIFY** — on the first debounced alarm the pipeline switches to
  the time domain: the alarming window's zero-span envelope goes
  through the :class:`~repro.core.analysis.identifier.TrojanIdentifier`
  rule template.  A live source renders that one window in full.
* **LOCALIZE** — if the stream can take new measurements (live
  sources), the batched :class:`~repro.core.analysis.localizer.Localizer`
  runs the score map + quadrant refinement and the machine returns to
  MONITOR for the rest of the stream.

Every stage emits typed :mod:`~repro.runtime.events` onto the bus, so
a session is fully auditable from its JSONL log alone.

Determinism: escalation never touches detector state, and every
per-window feature is an elementwise function of that window's
samples (or of its rendered columns), so the full decision timeline
is bit-identical at any chunk size — the property
``tests/test_runtime_stream.py`` pins against the one-shot offline
render.  Live MONITOR features and the LOCALIZE scores (both read
rendered columns) equal the full render's, featurized without the
ADC, up to floating-point rounding; the IDENTIFY window is
bit-identical to the full render's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..core.analysis.detector import DetectorConfig
from ..core.analysis.identifier import IdentificationResult, TrojanIdentifier
from ..core.analysis.localizer import LocalizationResult, Localizer
from ..core.analysis.mttd import MttdModel, MttdResult, mttd_from_alarm
from ..core.analysis.spectral import sideband_frequencies
from ..detectors import Detector, make_detector
from ..detectors import available as detectors_available
from ..errors import AnalysisError, unknown_name_error
from ..instruments.adc import AdcSpec, quantize_batch
from ..instruments.rasc import AUTO_RANGE_HEADROOM, RASC_ADC
from ..instruments.spectrum_analyzer import SpectrumAnalyzer
from ..report import ReportBase, Severity
from .events import (
    Alarm,
    EventBus,
    MonitorState,
    StateChanged,
    TrojanIdentified,
    TrojanLocalized,
    WindowProcessed,
)
from .sources import LiveSource, StreamChunk, TraceStream


def chunk_features(
    chunk: StreamChunk,
    analyzer: SpectrumAnalyzer,
    config: SimConfig,
    detector: Detector,
    adc: Optional[AdcSpec] = None,
) -> np.ndarray:
    """Featurize one chunk; ``(n_streams, k)`` detection features [dB].

    The package's one MONITOR-stage featurizer: the pipeline and the
    sweep orchestrator (which passes a rendered
    :class:`~repro.engine.TraceBatch`, the same ``samples``/``fs``
    layout) both call it.  Time-domain windows go through the optional
    auto-ranged ADC quantization (the RASC front-end) and one batched
    display-spectrum pass; a chunk of rendered rFFT columns (a live
    MONITOR chunk) has no time domain to quantize, ignores ``adc`` and
    goes straight to the same display tail.  Either way the display
    feeds the detector's spectral reduction.  Every element is a
    function of that window alone, so the result is independent of
    how the stream was chunked.

    Only the display bins the detector's feature actually reads are
    resampled (a few percent of the grid); the values are
    bit-identical to featurizing the full display, see
    :func:`~repro.core.analysis.spectral.sideband_display_bins` /
    :func:`~repro.core.analysis.spectral.excess_display_bins`.
    """
    bins = detector.display_bins(analyzer.display_grid(), config)
    if chunk.spectra is not None:
        n_streams, k, _ = chunk.spectra.values.shape
        grid, display = analyzer.display_from_columns(chunk.spectra, chunk.fs, bins)
    else:
        prepare = None
        if adc is not None:
            prepare = partial(
                quantize_batch, spec=adc, headroom=AUTO_RANGE_HEADROOM
            )
        n_streams, k, n_samples = chunk.samples.shape
        grid, display = analyzer.display_bins(
            chunk.samples.reshape(-1, n_samples), chunk.fs, bins, prepare=prepare
        )
    return detector.features(grid, display, config).reshape(n_streams, k)


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning of one escalation pipeline.

    Attributes
    ----------
    detector:
        Rolling-Welford detector tuning (warm-up, z-threshold,
        debounce) shared by every monitored stream; consumed by the
        ``welford`` method (reference-free methods carry their own
        calibrated defaults).
    detector_name:
        Registered detection method driving the MONITOR stage (see
        :mod:`repro.detectors`).
    quantize:
        Pass time-domain windows (replay, serve uploads, sweep cells)
        through the RASC monitor's auto-ranged ADC before feature
        extraction.  A live source's MONITOR chunks are rendered rFFT
        columns and never pass through the ADC.
    adc:
        The converter used when ``quantize`` is on.
    identify:
        Run the IDENTIFY stage on the first debounced alarm.
    localize:
        Run the LOCALIZE stage after identification (requires a
        localizer and a stream that can re-measure).
    localize_records:
        Activity records per population for the LOCALIZE stage.
    mttd:
        Per-window timing model for latency accounting.
    """

    detector: DetectorConfig = field(
        default_factory=lambda: DetectorConfig(warmup=6)
    )
    detector_name: str = "welford"
    quantize: bool = True
    adc: AdcSpec = RASC_ADC
    identify: bool = True
    localize: bool = True
    localize_records: int = 2
    mttd: MttdModel = field(default_factory=MttdModel)

    def __post_init__(self) -> None:
        if self.localize_records < 1:
            raise AnalysisError("localize_records must be >= 1")
        if self.detector_name not in detectors_available():
            raise unknown_name_error(
                "detector", self.detector_name, detectors_available()
            )


@dataclass(frozen=True)
class MonitorReport(ReportBase):
    """Everything one monitoring session concluded.

    Renders through the shared :class:`~repro.report.ReportBase`
    surface — the serve service's ``/chips/<id>/report`` endpoint is
    exactly :meth:`to_json`, not a third formatter.

    Attributes
    ----------
    chip:
        Identity of the monitored chip.
    sensors:
        Sensor index per monitored stream.
    n_windows:
        Windows processed.
    trace_period_s:
        Capture + processing cadence [s].
    features_db:
        Feature timeline, shape ``(n_streams, n_windows)``.
    window_times_s:
        Verdict timestamp per window [s].
    alarms:
        Every alarming window index.
    first_alarm:
        First alarming window (None = silent).
    trigger_index:
        Scripted/recovered activation window (None = unknown).
    mttd:
        Activation-to-alarm latency (None when the trigger is unknown).
    identification:
        IDENTIFY stage outcome (None if never escalated).
    localization:
        LOCALIZE stage outcome (None if unavailable or not escalated).
    escalations:
        Completed escalation sequences.
    final_state:
        State machine position when the stream ended.
    event_counts:
        Events this session emitted per type (the session's own
        counters even on a fleet-shared bus).
    detector:
        Registered detection method that drove the MONITOR stage.
    """

    chip: str
    sensors: Tuple[int, ...]
    n_windows: int
    trace_period_s: float
    features_db: np.ndarray
    window_times_s: Tuple[float, ...]
    alarms: Tuple[int, ...]
    first_alarm: Optional[int]
    trigger_index: Optional[int]
    mttd: Optional[MttdResult]
    identification: Optional[IdentificationResult]
    localization: Optional[LocalizationResult]
    escalations: int
    final_state: str
    event_counts: dict
    detector: str = "welford"

    report_kind = "monitor"

    @property
    def detected(self) -> bool:
        """An alarm fired at/after the scripted activation."""
        return bool(self.mttd and self.mttd.detected)

    def severities(self):
        """One finding — this chip — with deployment semantics."""
        if self.detected:
            yield Severity.CRITICAL
        elif self.mttd is not None and self.mttd.false_alarm:
            yield Severity.WARNING
        elif self.mttd is None and self.first_alarm is not None:
            # No scripted trigger to grade against: any alarm on an
            # unannotated stream still deserves operator attention.
            yield Severity.CRITICAL
        else:
            yield Severity.OK

    def to_dict(self) -> dict:
        """JSON-ready session summary (the serve report payload).

        The per-window feature matrix stays out — transcripts of
        window-level detail are the event log's job — but every
        verdict, latency and escalation outcome is here.
        """
        mttd = None
        if self.mttd is not None:
            mttd = {
                "detected": self.mttd.detected,
                "false_alarm": self.mttd.false_alarm,
                "traces_to_detect": self.mttd.traces_to_detect,
                "mttd_s": self.mttd.mttd_s,
            }
        identification = None
        if self.identification is not None:
            identification = {
                "label": self.identification.label,
                "f_probe_hz": self.identification.f_probe,
            }
        localization = None
        if self.localization is not None:
            localization = {
                "sensor": self.localization.sensor_index,
                "quadrant": self.localization.quadrant,
                "position_m": [float(p) for p in self.localization.position],
                "margin_db": float(self.localization.margin_db),
            }
        return {
            "chip": self.chip,
            "detector": self.detector,
            "sensors": list(self.sensors),
            "n_windows": self.n_windows,
            "trace_period_s": self.trace_period_s,
            "alarms": list(self.alarms),
            "first_alarm": self.first_alarm,
            "trigger_index": self.trigger_index,
            "detected": self.detected,
            "mttd": mttd,
            "identification": identification,
            "localization": localization,
            "escalations": self.escalations,
            "final_state": self.final_state,
            "event_counts": dict(self.event_counts),
        }

    def format(self) -> str:
        """One-chip plain-text session summary."""
        alarm = "-" if self.first_alarm is None else str(self.first_alarm)
        mttd = "-"
        if self.mttd is not None and self.mttd.mttd_s is not None:
            mttd = f"{1e3 * self.mttd.mttd_s:.2f} ms"
        ident = "-" if self.identification is None else self.identification.label
        lines = [
            f"chip {self.chip}: {self.n_windows} windows, "
            f"detector {self.detector}, final state {self.final_state}",
            f"  alarms: {len(self.alarms)} (first @ {alarm}) | "
            f"MTTD {mttd} | identified {ident} | "
            f"escalations {self.escalations}",
        ]
        if self.localization is not None:
            x, y = self.localization.position
            lines.append(
                f"  localized: sensor {self.localization.sensor_index} "
                f"quadrant {self.localization.quadrant or '-'} at "
                f"({1e6 * x:.0f}, {1e6 * y:.0f}) um "
                f"(margin {self.localization.margin_db:.1f} dB)"
            )
        return "\n".join(lines)

    def state_at(self, window: int, warmup: int) -> str:
        """Human-readable monitor state of one window of the timeline.

        Labels against the report's own trigger index — display
        drivers (the example, ad hoc dashboards) should use this
        instead of re-deriving the warm-up/trigger/alarm precedence.
        """
        if window < warmup:
            return "warm-up"
        if window in self.alarms:
            return "ALARM"
        trigger = self.trigger_index
        if trigger is None or window < trigger:
            return "armed, quiet"
        return "TROJAN ACTIVE"


class EscalationPipeline:
    """One chip's streaming monitor: the run-time state machine.

    Parameters
    ----------
    config:
        Simulation config of the monitored chip (feature bookkeeping
        and timing).
    n_streams:
        Monitored feature streams (must match the stream source).
    pipeline:
        Stage tuning.
    analyzer:
        Spectrum analyzer model shared by every stage.
    identifier:
        Zero-span classifier for the IDENTIFY stage (built from the
        analyzer and the config's first sideband by default).
    localizer:
        Batched localizer for the LOCALIZE stage; None disables it
        (e.g. replay-only deployments without array access).
    bus:
        Event bus; a fresh private bus by default.
    chip:
        Chip identity stamped onto every event.
    """

    def __init__(
        self,
        config: SimConfig,
        n_streams: int = 1,
        pipeline: Optional[PipelineConfig] = None,
        analyzer: Optional[SpectrumAnalyzer] = None,
        identifier: Optional[TrojanIdentifier] = None,
        localizer: Optional[Localizer] = None,
        bus: Optional[EventBus] = None,
        chip: str = "chip0",
    ):
        if n_streams < 1:
            raise AnalysisError("need at least one monitored stream")
        self.config = config
        self.n_streams = n_streams
        self.pipeline = pipeline or PipelineConfig()
        self.analyzer = analyzer or SpectrumAnalyzer()
        self.identifier = identifier or TrojanIdentifier(
            self.analyzer, f_probe=sideband_frequencies(config)[0]
        )
        self.localizer = localizer
        self.bus = bus or EventBus()
        self.chip = chip
        self.state = MonitorState.MONITOR
        self._detector = make_detector(
            self.pipeline.detector_name, n_streams, self.pipeline.detector
        )
        self.trace_period_s = self.pipeline.mttd.trace_period(config)
        # The session timeline: one feature column per folded window
        # and every alarming window index.
        self._features: List[np.ndarray] = []
        self._alarms: List[int] = []
        self._sensors: Tuple[int, ...] = tuple(range(n_streams))
        self._identification: Optional[IdentificationResult] = None
        self._localization: Optional[LocalizationResult] = None
        self._escalations = 0
        self._source: Optional[TraceStream] = None
        self._event_counts: dict = {}

    @property
    def alarms(self) -> Tuple[int, ...]:
        """Every alarming window so far, in order (read-only)."""
        return tuple(self._alarms)

    def time_of(self, window: int) -> float:
        """Session time of one window's verdict [s].

        The timestamp schedulers stamp onto events they emit *about*
        this pipeline (backpressure, shedding) so a mixed transcript
        stays on one clock.
        """
        return (window + 1) * self.trace_period_s

    def _emit(self, event) -> None:
        """Emit onto the bus, counting this pipeline's own events.

        The bus may be shared fleet-wide, so the per-session counters
        in :attr:`MonitorReport.event_counts` are kept here, not on
        the bus.
        """
        name = type(event).__name__
        self._event_counts[name] = self._event_counts.get(name, 0) + 1
        self.bus.emit(event)

    # -- state machine --------------------------------------------------------

    def _transition(self, new_state: MonitorState, window: int) -> None:
        previous = self.state
        self.state = new_state
        self._emit(
            StateChanged(
                chip=self.chip,
                window=window,
                time_s=self.time_of(window),
                previous=previous.value,
                current=new_state.value,
            )
        )

    def _escalate(self, chunk: StreamChunk, offset: int, window: int) -> None:
        """Run IDENTIFY (and LOCALIZE) for the alarming window."""
        time_s = self.time_of(window)
        if self.pipeline.identify:
            self._transition(MonitorState.IDENTIFY, window)
            # Identify from the alarming stream's raw window (the
            # zero-span stage runs on the analyzer, not the ADC path);
            # a live chunk of rFFT columns asks its source for it.
            stream = int(self._alarm_stream)
            if chunk.samples is None:
                trace = self._source.capture(
                    stream, chunk.scenarios[offset], chunk.trace_indices[offset]
                )
            else:
                trace = chunk.trace(stream, offset)
            result = self.identifier.classify(trace)
            self._identification = result
            self._emit(
                TrojanIdentified(
                    chip=self.chip,
                    window=window,
                    time_s=time_s,
                    label=result.label,
                    f_probe_hz=result.f_probe,
                    autocorr_peak=result.features.autocorr_peak,
                    dominant_freq_hz=result.features.dominant_freq,
                )
            )
        records = None
        if (
            self.pipeline.localize
            and self.localizer is not None
            and self._source is not None
        ):
            records = self._source.localization_records(
                self.pipeline.localize_records
            )
        if records is not None:
            self._transition(MonitorState.LOCALIZE, window)
            base_records, active_records = records
            result = self.localizer.localize(
                base_records, active_records, refine=True
            )
            self._localization = result
            self._emit(
                TrojanLocalized(
                    chip=self.chip,
                    window=window,
                    time_s=time_s,
                    sensor=result.sensor_index,
                    quadrant=result.quadrant,
                    position_m=tuple(result.position),
                    margin_db=result.margin_db,
                )
            )
        self._escalations += 1
        self._transition(MonitorState.MONITOR, window)

    # -- window processing ----------------------------------------------------

    def process_chunk(self, chunk: StreamChunk) -> None:
        """Fold one chunk of windows through the state machine.

        Features for the whole chunk are extracted in one vectorized
        pass; decisions are inherently sequential (each conditions the
        next self-baseline), so the fold walks the windows in order,
        escalating in-line when an alarm fires.
        """
        if chunk.n_streams != self.n_streams:
            raise AnalysisError(
                f"chunk has {chunk.n_streams} streams, pipeline monitors "
                f"{self.n_streams}"
            )
        if chunk.start != len(self._features):
            raise AnalysisError(
                f"stream discontinuity: expected window "
                f"{len(self._features)}, chunk says {chunk.start}"
            )
        features = chunk_features(
            chunk,
            self.analyzer,
            self.config,
            self._detector,
            adc=self.pipeline.adc if self.pipeline.quantize else None,
        )
        # Each window's features as Python floats, converted once.
        features_db = features.T.tolist()
        for offset in range(chunk.n_windows):
            window = chunk.start + offset
            step = self._detector.update(features[:, offset])
            fired = bool(np.count_nonzero(step.alarm))
            self._features.append(features[:, offset])
            time_s = self.time_of(window)
            self._emit(
                WindowProcessed(
                    chip=self.chip,
                    window=window,
                    time_s=time_s,
                    scenario=chunk.scenarios[offset],
                    features_db=tuple(features_db[offset]),
                    z=tuple(
                        z if math.isfinite(z) else None for z in step.z.tolist()
                    ),
                    alarm=fired,
                )
            )
            if not fired:
                continue
            self._alarms.append(window)
            # The alarming stream with the strongest evidence leads
            # the escalation (a fleet-of-sensors monitor can trip on
            # several streams in the same window).
            scored = np.where(step.alarm, np.abs(step.z), -np.inf)
            stream = int(np.argmax(scored))
            self._alarm_stream = stream
            # Only the first alarm escalates; later ones are logged and
            # keep the machine in MONITOR (the verdict stands).  It
            # escalates only when some stage can actually run (a
            # MONITOR-only tuning must not burn the session's one
            # escalation on a no-op or log phantom transitions).
            escalating = self._escalations == 0 and (
                self.pipeline.identify
                or (self.pipeline.localize and self.localizer is not None)
            )
            self._emit(
                Alarm(
                    chip=self.chip,
                    window=window,
                    time_s=time_s,
                    sensor=self._sensors[stream],
                    feature_db=float(features[stream, offset]),
                    z=float(step.z[stream]),
                    escalating=escalating,
                )
            )
            if escalating:
                self._escalate(chunk, offset, window)

    def bind(self, source: TraceStream) -> None:
        """Attach a stream source (escalation pulls records from it).

        Called by :meth:`run`; schedulers that drive the pipeline
        chunk-by-chunk (the fleet) bind explicitly before the first
        :meth:`process_chunk`.  A :class:`~repro.runtime.sources.LiveSource`
        is handed the native rFFT columns the detector's display bins
        read, so its chunks carry those columns instead of samples.
        """
        if source.n_streams != self.n_streams:
            raise AnalysisError(
                f"source has {source.n_streams} streams, pipeline monitors "
                f"{self.n_streams}"
            )
        self._source = source
        self._sensors = tuple(
            getattr(source, "sensors", range(self.n_streams))
        )
        if isinstance(source, LiveSource):
            source.columns = self.analyzer.native_columns(
                source.config.n_samples,
                source.config.fs,
                self._detector.display_bins(
                    self.analyzer.display_grid(), self.config
                ),
            )

    def run(self, source: TraceStream) -> MonitorReport:
        """Monitor a stream end to end; returns the session report."""
        self.bind(source)
        for chunk in source.chunks():
            self.process_chunk(chunk)
            del chunk  # before the next chunk renders
        return self.report(trigger_index=source.trigger_index)

    def report(self, trigger_index: Optional[int] = None) -> MonitorReport:
        """Snapshot the session so far as a :class:`MonitorReport`."""
        first_alarm = self._alarms[0] if self._alarms else None
        mttd = None
        if trigger_index is not None:
            mttd = mttd_from_alarm(
                first_alarm, trigger_index, self.config, self.pipeline.mttd
            )
        n_windows = len(self._features)
        if n_windows:
            features = np.stack(self._features, axis=1)
        else:
            features = np.empty((self.n_streams, 0))
        features.flags.writeable = False
        return MonitorReport(
            chip=self.chip,
            sensors=self._sensors,
            n_windows=n_windows,
            trace_period_s=self.trace_period_s,
            features_db=features,
            window_times_s=tuple(self.time_of(w) for w in range(n_windows)),
            alarms=tuple(self._alarms),
            first_alarm=first_alarm,
            trigger_index=trigger_index,
            mttd=mttd,
            identification=self._identification,
            localization=self._localization,
            escalations=self._escalations,
            final_state=self.state.value,
            event_counts=dict(self._event_counts),
            detector=self.pipeline.detector_name,
        )
