"""The detection-sweep orchestrator.

Evaluates every cell of a :class:`~repro.sweep.grid.SweepGrid` at
engine throughput:

1. **Render** — every stream span of the grid missing from the
   span-feature cache goes through
   :meth:`MeasurementCampaign.enqueue_stream` onto one fused plan.
   The engine's coupling-geometry cache is reused as-is, and two
   sweep-wide memos exploit the engine's determinism contract: a
   record cache re-uses chip activity across cells that share workload
   indices, and a span-level feature cache re-uses whole featurized
   spans (a baseline span shared by every Trojan of a grid renders
   exactly once).  With
   an :class:`~repro.store.ArtifactStore` attached, both memos persist
   on disk keyed by content, so repeated sweeps across processes
   warm-start bit-identically.
2. **Featurize** — the run-time MONITOR stage's own featurizer,
   :func:`repro.runtime.pipeline.chunk_features`, over every capture
   of the span: (optional) auto-ranged RASC ADC quantization, then one
   batched display-spectrum + feature pass through the cell's
   detector's spectral reduction (the sideband level in dBuV for
   ``welford``, the reference-free sideband excess for
   ``spectral``/``persistence``).  Feature-cache keys carry
   the reduction's ``feature_kind``, so methods sharing a reduction
   share cached spans; the historical ``welford`` kind keeps its
   pre-registry key shape, so existing on-disk stores stay warm.
3. **Detect** — the cell's registered detector
   (:func:`repro.detectors.make_detector`) folds the whole feature
   matrix, one stream per sensor (``tests/data/detector_golden.json``
   pins the ``welford`` timelines).
4. **Score** — ROC-AUC, detection rate at the cell's operating
   threshold, effect size / required measurements, and MTTD (with
   pre-trigger alarms classified as false alarms).
"""

from __future__ import annotations

from typing import Dict, MutableMapping, Optional, Tuple

import numpy as np

from ..core.analysis.mttd import MttdModel, mttd_from_alarm
from ..detectors import Detector, make_detector
from ..dsp.stats import detection_power, detection_rate, roc_auc
from ..engine import RenderPlan
from ..instruments.adc import AdcSpec
from ..instruments.rasc import AUTO_RANGE_HEADROOM, RASC_ADC
from ..instruments.spectrum_analyzer import SpectrumAnalyzer
from ..runtime.pipeline import chunk_features
from ..store import (
    ArrayCodec,
    ArtifactStore,
    adc_fingerprint,
    analyzer_fingerprint,
    campaign_fingerprint,
)
from ..workloads.campaign import MeasurementCampaign, StreamSegment
from .grid import SweepCell, SweepGrid
from .report import SensorOutcome, SweepCellResult, SweepReport


class DetectionSweep:
    """Grid evaluator bound to one campaign (chip + PSA + engine).

    Parameters
    ----------
    campaign:
        The measurement campaign to render streams through; its PSA's
        engine does all the rendering.
    analyzer:
        Spectrum analyzer model (paper display settings by default).
    mttd_model:
        Per-trace timing used for MTTD accounting.
    adc:
        Converter used by cells with ``quantize=True`` (the RASC
        monitor's converter by default, shared with
        :mod:`repro.instruments.rasc`).
    store:
        Optional :class:`~repro.store.ArtifactStore`.  When given, the
        sweep-wide record and span-feature memos become persistent
        store views keyed by the campaign's full content fingerprint:
        a repeated sweep over the same chip/workload/engine setup
        replays its artifacts from disk, bit-identical to a cold run.
        None keeps the plain in-memory memos (the cold path).
    """

    def __init__(
        self,
        campaign: MeasurementCampaign,
        analyzer: Optional[SpectrumAnalyzer] = None,
        mttd_model: Optional[MttdModel] = None,
        adc: AdcSpec = RASC_ADC,
        store: Optional[ArtifactStore] = None,
    ):
        self.campaign = campaign
        self.config = campaign.chip.config
        self.analyzer = analyzer or SpectrumAnalyzer()
        self.mttd_model = mttd_model or MttdModel()
        self.adc = adc
        self.store = store
        self._record_cache: MutableMapping[Tuple[str, int], object]
        self._feature_cache: MutableMapping[tuple, np.ndarray]
        self._reducers: Dict[str, Detector] = {}
        if store is None:
            self._record_cache = {}
            self._feature_cache = {}
        else:
            self._record_cache = store.records(campaign.chip)
            self._feature_cache = store.mapping(
                "span-features",
                {
                    "campaign": campaign_fingerprint(campaign),
                    "analyzer": analyzer_fingerprint(self.analyzer),
                    "adc": adc_fingerprint(adc),
                    "headroom": AUTO_RANGE_HEADROOM,
                },
                ArrayCodec(readonly=True),
            )

    def run(self, grid: SweepGrid) -> SweepReport:
        """Evaluate every cell of a grid.

        All spans missing from the feature cache render first as one
        fused engine pass across cells (grouped per sensor subset), so
        a whole grid pays one dispatch instead of one per span; each
        span then featurizes exactly as it would standalone.
        """
        self._prefetch(grid.cells)
        cells = tuple(
            self._evaluate(cell, grid.keep_features) for cell in grid.cells
        )
        return SweepReport(
            grid=grid.name,
            trace_period_s=self.mttd_model.trace_period(self.config),
            cells=cells,
        )

    def close(self) -> None:
        """Drop the campaign engine's capture-plan memo."""
        self.campaign.close()

    def _prefetch(self, cells) -> Dict[tuple, np.ndarray]:
        """Every span feature block of ``cells``, keyed by span key.

        Spans missing from the feature cache render in one fused pass
        and are featurized and cached; the rest come from the cache.
        """
        plan = RenderPlan()
        tickets = {}
        pending = {}
        spans: Dict[tuple, np.ndarray] = {}
        for cell in cells:
            for segment in cell.segments:
                key = self._span_key(segment, cell)
                if key in pending or key in spans:
                    continue
                features = self._feature_cache.get(key)
                if features is not None:
                    spans[key] = features
                    continue
                # One render per physical span: cells that differ only
                # in feature kind (or ADC use) share the ticket and
                # featurize its batch separately.
                render_key = (
                    segment.scenario,
                    segment.n_traces,
                    segment.index_offset,
                    cell.sensors,
                )
                if render_key not in tickets:
                    tickets[render_key] = self.campaign.enqueue_stream(
                        plan,
                        [segment],
                        sensors=list(cell.sensors),
                        record_cache=self._record_cache,
                    )
                pending[key] = (render_key, cell.quantize, cell.detector_name)
        if pending:
            plan.execute()
        for key, (render_key, quantize, detector_name) in pending.items():
            spans[key] = self._feature_cache[key] = self._featurize(
                tickets[render_key].result(),
                quantize,
                self._reducer(detector_name),
            )
        return spans

    # -- per-cell evaluation ---------------------------------------------------

    def cell_features(self, cell: SweepCell) -> np.ndarray:
        """Render + featurize one cell; ``(n_sensors, n_traces)`` [dB].

        Span blocks come from :meth:`_prefetch` (the sweep-wide feature
        cache, spans missing from it rendered first); the stream is
        their concatenation in capture order.  Every feature is
        bit-identical to rendering + featurizing the trace alone (the
        engine's determinism contract plus row-wise featurization).
        """
        spans = self._prefetch([cell])
        return np.concatenate(
            [spans[self._span_key(segment, cell)] for segment in cell.segments],
            axis=1,
        )

    def _reducer(self, detector_name: str) -> Detector:
        """A method's spectral reduction, shared sweep-wide.

        The reduction half of the protocol is stateless, so one
        instance per method serves every cell and span.
        """
        reducer = self._reducers.get(detector_name)
        if reducer is None:
            reducer = make_detector(detector_name, 1)
            self._reducers[detector_name] = reducer
        return reducer

    def _span_key(self, segment: StreamSegment, cell: SweepCell) -> tuple:
        """Feature-cache key of one span under one cell's reduction.

        The historical ``welford`` reduction keeps the pre-registry
        5-tuple key, so existing persistent stores stay warm; any
        other ``feature_kind`` appends itself to the key.
        """
        key = (
            segment.scenario,
            segment.n_traces,
            segment.index_offset,
            cell.sensors,
            cell.quantize,
        )
        kind = self._reducer(cell.detector_name).feature_kind
        if kind != "sideband-db":
            key = key + (kind,)
        return key

    def _featurize(
        self, batch, quantize: bool, reducer: Detector
    ) -> np.ndarray:
        """One rendered span to its read-only feature block [dB].

        A :class:`~repro.engine.TraceBatch` has a stream chunk's
        ``(n_sensors, n_traces, n_samples)`` layout, so the span goes
        through the MONITOR stage's featurizer as one chunk.
        """
        features = chunk_features(
            batch,
            self.analyzer,
            self.config,
            reducer,
            adc=self.adc if quantize else None,
        )
        features.flags.writeable = False  # shared across cells
        return features

    def _evaluate(self, cell: SweepCell, keep_features: bool) -> SweepCellResult:
        features = self.cell_features(cell)
        detector = make_detector(
            cell.detector_name, len(cell.sensors), cell.detector
        )
        timeline = detector.process(features)
        first_alarms = timeline.first_alarms()
        alarm_index = timeline.first_alarm()
        mttd = mttd_from_alarm(
            alarm_index, cell.trigger_index, self.config, self.mttd_model
        )
        outcomes = []
        for position, sensor in enumerate(cell.sensors):
            inactive = features[position, : cell.n_baseline]
            active = features[position, cell.n_baseline :]
            power = detection_power(active, inactive)
            outcomes.append(
                SensorOutcome(
                    sensor=sensor,
                    roc_auc=roc_auc(active, inactive),
                    detection_rate=detection_rate(
                        active, inactive, cell.z_threshold
                    ),
                    effect_size=power.effect_size,
                    n_required=power.n_required,
                    first_alarm=first_alarms[position],
                )
            )
        return SweepCellResult(
            label=cell.label,
            trojan=cell.trojan,
            reference=cell.reference,
            sensors=cell.sensors,
            n_baseline=cell.n_baseline,
            n_active=cell.n_active,
            outcomes=tuple(outcomes),
            alarm_index=alarm_index,
            mttd=mttd,
            detector=cell.detector_name,
            features_db=features if keep_features else None,
        )
