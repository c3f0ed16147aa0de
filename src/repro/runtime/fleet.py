"""Multi-chip fleet monitoring: N independent monitors, one scheduler.

A deployment watches many chips at once.  Each fleet member is a
complete monitor — its own :class:`~repro.chip.testchip.TestChip`
(distinct RNG seed, optionally a distinct Trojan implant position),
PSA, :class:`~repro.runtime.sources.LiveSource` and
:class:`~repro.runtime.pipeline.EscalationPipeline` — and the
:class:`FleetScheduler` interleaves them cooperatively:

* every scheduler tick advances each live monitor by one chunk,
  rendered just before that monitor processes it and dropped right
  after — the fleet holds one rendered chunk at a time, whatever its
  size, so peak memory does not grow with the fleet;
* each chip's render is one engine pass, so fleet throughput scales
  with the engine, not the scheduler.

Interleaving is deterministic (round-robin in member order) and —
because monitors share no mutable state — every member's report is
bit-identical to running that monitor alone, which
``tests/test_runtime_fleet.py`` pins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.floorplan import DEFAULT_TROJAN_SENSOR, floorplan_with_trojans_at
from ..chip.testchip import TestChip
from ..config import SimConfig
from ..core.analysis.localizer import Localizer
from ..core.array import ProgrammableSensorArray
from ..errors import AnalysisError, unknown_name_error
from ..instruments.spectrum_analyzer import SpectrumAnalyzer
from ..report import ReportBase
from ..store import ArtifactStore
from ..trojans.catalog import TROJAN_CATALOG
from ..workloads.campaign import MeasurementCampaign
from .events import EventBus
from .pipeline import EscalationPipeline, MonitorReport, PipelineConfig
from .sources import (
    DEFAULT_CHUNK_WINDOWS,
    ActivationSchedule,
    LiveSource,
)

#: The AES key programmed into every fleet chip.
FLEET_KEY = bytes(range(16))


@dataclass(frozen=True)
class ChipSpec:
    """Recipe for one fleet member.

    Attributes
    ----------
    chip_id:
        Member identity (event ``chip`` tag, report row).
    trojan:
        The Trojan implanted on this chip (``"T1"``..``"T4"``).
    seed:
        Config seed of this chip's simulation (distinct seeds give
        every member independent noise and workloads).
    host_sensor:
        Sensor the Trojan cluster is implanted under.
    n_baseline, n_active:
        Span lengths of the scripted monitoring stream.
    active_offset:
        Workload epoch of the Trojan-active span.
    sensors:
        Monitored sensor subset (one detector stream each); None
        monitors the whole array — the paper's always-on deployment.
    chunk:
        Windows per rendered chunk.
    """

    chip_id: str
    trojan: str
    seed: int
    host_sensor: int = DEFAULT_TROJAN_SENSOR
    n_baseline: int = 8
    n_active: int = 6
    active_offset: int = 500
    sensors: Optional[Tuple[int, ...]] = None
    chunk: int = DEFAULT_CHUNK_WINDOWS


@dataclass
class ChipMonitor:
    """One assembled fleet member (chip + source + pipeline)."""

    spec: ChipSpec
    pipeline: EscalationPipeline
    source: LiveSource
    truth_position: Tuple[float, float]
    report: Optional[MonitorReport] = None

    @property
    def chip_id(self) -> str:
        """Member identity."""
        return self.spec.chip_id


def build_chip_monitor(
    spec: ChipSpec,
    config: Optional[SimConfig] = None,
    analyzer: Optional[SpectrumAnalyzer] = None,
    pipeline_config: Optional[PipelineConfig] = None,
    bus: Optional[EventBus] = None,
    store: Optional["ArtifactStore"] = None,
) -> ChipMonitor:
    """Assemble one fleet member from its spec.

    Chips share coupling geometry through the content-keyed cache in
    :mod:`repro.em.coupling`, so members at the same implant position
    pay the flux integrals only once per process.

    Parameters
    ----------
    spec:
        The member recipe.
    config:
        Base simulation config; the member runs on
        ``config.with_(seed=spec.seed)`` (grid settings are
        inherited).
    analyzer:
        Shared spectrum analyzer model.
    pipeline_config:
        Stage tuning, detector tuning included.
    bus:
        Event bus shared by the fleet (each member stamps its own
        ``chip`` id); None gives each member a private bus.
    store:
        Optional :class:`~repro.store.ArtifactStore` backing the
        member's record memo (each member keys its own namespace by
        its chip fingerprint — distinct seeds never collide).
    """
    if spec.trojan not in TROJAN_CATALOG:
        raise unknown_name_error(
            "implanted Trojan", spec.trojan, list(TROJAN_CATALOG)
        )
    base = config or SimConfig()
    member_config = base.with_(seed=spec.seed)
    floorplan = floorplan_with_trojans_at(spec.host_sensor)
    chip = TestChip(FLEET_KEY, member_config, floorplan=floorplan)
    psa = ProgrammableSensorArray(chip)
    campaign = MeasurementCampaign(chip, psa)
    analyzer = analyzer or SpectrumAnalyzer()
    schedule = ActivationSchedule.step(
        spec.trojan,
        n_baseline=spec.n_baseline,
        n_active=spec.n_active,
        active_offset=spec.active_offset,
    )
    sensors = (
        tuple(range(psa.n_sensors)) if spec.sensors is None else spec.sensors
    )
    source = LiveSource(
        campaign, schedule, sensors=sensors, chunk=spec.chunk, store=store
    )
    pipeline = EscalationPipeline(
        member_config,
        n_streams=len(sensors),
        pipeline=pipeline_config,
        analyzer=analyzer,
        localizer=Localizer(psa, analyzer),
        bus=bus,
        chip=spec.chip_id,
    )
    truth = chip.floorplan.placements[spec.trojan][0].center
    return ChipMonitor(
        spec=spec,
        pipeline=pipeline,
        source=source,
        truth_position=(float(truth[0]), float(truth[1])),
    )


@dataclass(frozen=True)
class ChipResult:
    """One fleet member's session outcome.

    Attributes
    ----------
    chip_id, trojan, host_sensor:
        Member identity and ground truth.
    report:
        The member's full monitoring report.
    localization_error_um:
        Distance between the localization estimate and the true
        implant position [um] (None when localization never ran).
    """

    chip_id: str
    trojan: str
    host_sensor: int
    report: MonitorReport
    localization_error_um: Optional[float]

    @property
    def detected(self) -> bool:
        """The member alarmed at/after its scripted activation."""
        return self.report.detected

    @property
    def mttd_s(self) -> Optional[float]:
        """Activation-to-alarm latency [s]."""
        return self.report.mttd.mttd_s if self.report.mttd else None


@dataclass(frozen=True)
class FleetReport(ReportBase):
    """Aggregated outcome of one fleet run.

    Serializes through the shared :class:`~repro.report.ReportBase`;
    the CLI prints :meth:`format`.

    Attributes
    ----------
    chips:
        Per-member results, in member order.
    max_queue_len:
        Rendered chunks held at once (1: each chunk is rendered just
        before it is processed).
    wall_seconds:
        Scheduler wall-clock time for the whole fleet.
    interleave:
        Chip ids in chunk-processing order (the concurrency trace).
    backpressure_events:
        Producers throttled at a queue bound (0: the fleet queues
        nothing; bounded queues and their typed
        :class:`~repro.runtime.events.Backpressure` events live in
        :mod:`repro.serve`).
    """

    chips: Tuple[ChipResult, ...]
    max_queue_len: int
    wall_seconds: float
    interleave: Tuple[str, ...]
    backpressure_events: int = 0

    @property
    def n_chips(self) -> int:
        """Fleet size."""
        return len(self.chips)

    @property
    def total_windows(self) -> int:
        """Windows processed across the fleet."""
        return sum(chip.report.n_windows for chip in self.chips)

    @property
    def windows_per_sec(self) -> float:
        """Fleet-wide monitoring throughput."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.total_windows / self.wall_seconds

    @property
    def all_detected(self) -> bool:
        """Every member alarmed after its activation."""
        return all(chip.detected for chip in self.chips)

    @property
    def mean_mttd_s(self) -> Optional[float]:
        """Mean detection latency over the detecting members [s]."""
        latencies = [c.mttd_s for c in self.chips if c.mttd_s is not None]
        return float(np.mean(latencies)) if latencies else None

    @property
    def mean_traces_to_detect(self) -> Optional[float]:
        """Mean post-activation windows to the alarm."""
        counts = [
            c.report.mttd.traces_to_detect
            for c in self.chips
            if c.report.mttd and c.report.mttd.traces_to_detect is not None
        ]
        return float(np.mean(counts)) if counts else None

    @property
    def mean_localization_error_um(self) -> Optional[float]:
        """Mean localization error over the localized members [um]."""
        errors = [
            c.localization_error_um
            for c in self.chips
            if c.localization_error_um is not None
        ]
        return float(np.mean(errors)) if errors else None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary (per-chip rows + aggregates)."""
        return {
            "n_chips": self.n_chips,
            "max_queue_len": self.max_queue_len,
            "backpressure_events": self.backpressure_events,
            "wall_seconds": round(self.wall_seconds, 3),
            "total_windows": self.total_windows,
            "windows_per_sec": round(self.windows_per_sec, 2),
            "all_detected": self.all_detected,
            "mean_mttd_ms": None
            if self.mean_mttd_s is None
            else round(1e3 * self.mean_mttd_s, 3),
            "mean_traces_to_detect": self.mean_traces_to_detect,
            "mean_localization_error_um": None
            if self.mean_localization_error_um is None
            else round(self.mean_localization_error_um, 1),
            "chips": [
                {
                    "chip": chip.chip_id,
                    "trojan": chip.trojan,
                    "host_sensor": chip.host_sensor,
                    "windows": chip.report.n_windows,
                    "first_alarm": chip.report.first_alarm,
                    "detected": chip.detected,
                    "mttd_ms": None
                    if chip.mttd_s is None
                    else round(1e3 * chip.mttd_s, 3),
                    "identified": None
                    if chip.report.identification is None
                    else chip.report.identification.label,
                    "localization_error_um": None
                    if chip.localization_error_um is None
                    else round(chip.localization_error_um, 1),
                }
                for chip in self.chips
            ],
        }

    def format(self) -> str:
        """Human-readable fleet summary table."""
        header = (
            f"fleet: {self.n_chips} chips | {self.total_windows} windows in "
            f"{self.wall_seconds:.2f} s ({self.windows_per_sec:.1f} win/s)"
        )
        lines = [
            header,
            "chip     | trojan | alarm@ | MTTD [ms] | identified | loc err [um]",
            "---------|--------|--------|-----------|------------|-------------",
        ]
        for chip in self.chips:
            mttd = "-" if chip.mttd_s is None else f"{1e3 * chip.mttd_s:.2f}"
            ident = (
                "-"
                if chip.report.identification is None
                else chip.report.identification.label
            )
            error = (
                "-"
                if chip.localization_error_um is None
                else f"{chip.localization_error_um:.0f}"
            )
            alarm = (
                "-"
                if chip.report.first_alarm is None
                else str(chip.report.first_alarm)
            )
            lines.append(
                f"{chip.chip_id:<8} | {chip.trojan:<6} | {alarm:>6} | "
                f"{mttd:>9} | {ident:>10} | {error:>12}"
            )
        return "\n".join(lines)


class FleetScheduler:
    """Cooperative round-robin scheduler over independent monitors.

    Parameters
    ----------
    monitors:
        Assembled fleet members.
    """

    def __init__(self, monitors: Sequence[ChipMonitor]):
        if not monitors:
            raise AnalysisError("fleet needs at least one monitor")
        ids = [monitor.chip_id for monitor in monitors]
        if len(set(ids)) != len(ids):
            duplicate = next(i for i in ids if ids.count(i) > 1)
            raise AnalysisError(f"duplicate chip id {duplicate!r} in fleet")
        self.monitors = list(monitors)

    def close(self) -> None:
        """Drop every member engine's capture-plan memo."""
        for monitor in self.monitors:
            monitor.source.campaign.close()

    def run(self) -> FleetReport:
        """Drive every member to completion; returns the fleet report.

        Each tick visits the pending members in order and advances each
        by one chunk: render it (one engine pass), process it, drop
        it.  A member whose stream is exhausted gets its report and
        leaves.  No chunk is rendered ahead of its member's turn, so
        early chips never wait behind later chips' renders and the
        fleet holds one rendered chunk at a time.  Each member pulls the same
        :meth:`~repro.runtime.sources.LiveSource.chunks` stream a
        standalone monitor does, so its report is bit-identical to
        running it alone.
        """
        streams = []
        for monitor in self.monitors:
            monitor.pipeline.bind(monitor.source)
            streams.append(monitor.source.chunks())
        interleave: List[str] = []
        start = time.perf_counter()
        pending = list(range(len(self.monitors)))
        while pending:
            for index in list(pending):
                monitor = self.monitors[index]
                chunk = next(streams[index], None)
                if chunk is None:
                    monitor.report = monitor.pipeline.report(
                        trigger_index=monitor.source.trigger_index
                    )
                    pending.remove(index)
                    continue
                monitor.pipeline.process_chunk(chunk)
                del chunk  # before the next member renders
                interleave.append(monitor.chip_id)
        wall = time.perf_counter() - start
        results = []
        for monitor in self.monitors:
            report = monitor.report
            error = None
            if report.localization is not None:
                error = 1e6 * float(
                    np.hypot(
                        report.localization.position[0]
                        - monitor.truth_position[0],
                        report.localization.position[1]
                        - monitor.truth_position[1],
                    )
                )
            results.append(
                ChipResult(
                    chip_id=monitor.chip_id,
                    trojan=monitor.spec.trojan,
                    host_sensor=monitor.spec.host_sensor,
                    report=report,
                    localization_error_um=error,
                )
            )
        return FleetReport(
            chips=tuple(results),
            max_queue_len=1,
            wall_seconds=wall,
            interleave=tuple(interleave),
        )
