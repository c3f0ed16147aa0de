"""Measurement campaigns: (chip, PSA, scenario) -> trace sets."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from ..chip.power import ActivityRecord
from ..chip.testchip import TestChip
from ..core.array import ProgrammableSensorArray
from ..engine import TraceBatch
from ..errors import WorkloadError
from ..traces import Trace
from .scenarios import Scenario, scenario_by_name


@dataclass(frozen=True)
class StreamSegment:
    """One contiguous span of a monitoring stream.

    Attributes
    ----------
    scenario:
        Scenario name of every capture in the span.
    n_traces:
        Captures in the span.
    index_offset:
        First trace index (workload and RNG streams follow it).
    """

    scenario: str
    n_traces: int
    index_offset: int = 0

    def __post_init__(self) -> None:
        if self.n_traces < 1:
            raise WorkloadError("segment needs at least one trace")

    @property
    def indices(self) -> List[int]:
        """Trace indices of the span."""
        return [self.index_offset + i for i in range(self.n_traces)]


@dataclass
class TraceSet:
    """Traces collected for one scenario.

    Attributes
    ----------
    scenario:
        Scenario name.
    traces:
        ``traces[sensor_index][trace_index]`` — one list per sensor.
    records:
        The activity records behind each trace index.
    """

    scenario: str
    traces: Dict[int, List[Trace]] = field(default_factory=dict)
    records: List[ActivityRecord] = field(default_factory=list)

    @property
    def n_traces(self) -> int:
        """Traces captured per sensor."""
        return len(self.records)

    def sensor(self, index: int) -> List[Trace]:
        """All traces of one sensor."""
        if index not in self.traces:
            raise WorkloadError(f"trace set holds no sensor {index}")
        return self.traces[index]


class MeasurementCampaign:
    """Runs scenario workloads and collects PSA traces.

    Each trace uses a fresh plaintext stream (seeded deterministically
    from the config seed, the scenario name and the trace index), so
    trace-to-trace variation reflects real data-dependent activity, not
    just noise redraws.

    Parameters
    ----------
    chip:
        The device under test.
    psa:
        Its sensor array.
    """

    def __init__(self, chip: TestChip, psa: ProgrammableSensorArray):
        if psa.chip is not chip:
            raise WorkloadError("PSA is not attached to this chip")
        self.chip = chip
        self.psa = psa

    # -- record generation -----------------------------------------------------

    def record(self, scenario: Scenario, trace_index: int) -> ActivityRecord:
        """Simulate the activity record behind one trace."""
        config = self.chip.config
        # zlib.crc32 (not hash()) keeps seeds stable across processes —
        # Python string hashing is salted per interpreter run.
        name_hash = zlib.crc32(scenario.name.encode("utf-8"))
        seed = (
            (config.seed * 0x9E3779B1 + name_hash) ^ (trace_index * 7919)
        ) & 0x7FFF_FFFF
        seed = seed or 1
        plaintexts = scenario.plaintexts(config.n_blocks, seed)
        return self.chip.run_trace(
            plaintexts,
            active=scenario.active,
            idle=scenario.idle,
            scenario=scenario.name,
        )

    def records(self, scenario_name: str, n_traces: int) -> List[ActivityRecord]:
        """Activity records for ``n_traces`` captures of a scenario."""
        if n_traces < 1:
            raise WorkloadError("need at least one trace")
        scenario = scenario_by_name(scenario_name)
        return [self.record(scenario, index) for index in range(n_traces)]

    # -- trace collection ----------------------------------------------------------

    def collect_batch(
        self,
        scenario_name: str,
        n_traces: int,
        sensors: Optional[Sequence[int]] = None,
        index_offset: int = 0,
    ) -> TraceBatch:
        """Capture ``n_traces`` as one batched engine render.

        This is the throughput path: every capture of every selected
        sensor is rendered in a single vectorized pass.  The records
        behind the batch are regenerated deterministically from the
        scenario and the trace indices.

        Parameters
        ----------
        scenario_name:
            A key of :data:`repro.workloads.scenarios.SCENARIOS`.
        n_traces:
            Captures per sensor.
        sensors:
            Sensor indices (default: every sensor of the attached PSA).
        index_offset:
            First trace index (workload and RNG streams follow it).
        """
        segment = StreamSegment(scenario_name, n_traces, index_offset)
        return self._collect([segment], sensors, None)[1]

    def collect_stream(
        self,
        segments: Sequence[StreamSegment],
        sensors: Optional[Sequence[int]] = None,
        record_cache: Optional[
            MutableMapping[Tuple[str, int], ActivityRecord]
        ] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> TraceBatch:
        """Capture a multi-segment stream as one batched engine render.

        The sweep orchestrator's entry point: a monitoring stream is a
        reference span followed by a Trojan-active span (arbitrarily
        many spans are allowed), and the whole stream renders in a
        single vectorized engine pass so cell evaluation runs at
        engine throughput.

        Parameters
        ----------
        segments:
            Stream spans in capture order.
        sensors:
            Sensor indices (default: every sensor of the attached PSA).
        record_cache:
            Optional ``(scenario, trace_index) -> ActivityRecord``
            memo.  Records are deterministic in that key, so a cache
            shared across calls (e.g. across sweep cells re-using the
            same baseline span) skips re-simulating chip activity.
        columns:
            rFFT columns to render in place of the samples (see
            :meth:`~repro.engine.MeasurementEngine.render`).
        """
        if not segments:
            raise WorkloadError("need at least one stream segment")
        return self._collect(segments, sensors, record_cache, columns)[1]

    def enqueue_stream(
        self,
        plan,
        segments: Sequence[StreamSegment],
        sensors: Optional[Sequence[int]] = None,
        record_cache: Optional[
            MutableMapping[Tuple[str, int], ActivityRecord]
        ] = None,
        tag: Optional[str] = None,
    ):
        """Enqueue a stream capture on a fused dispatch plan.

        The plan-joining twin of :meth:`collect_stream`: records are
        built (and memoized) at enqueue time, the render joins ``plan``
        (a :class:`~repro.engine.RenderPlan`), and the returned ticket
        resolves to the identical :class:`TraceBatch` after
        ``plan.execute()``.  Streams of many cells/chips enqueued on
        one plan render as a single fused engine pass.
        """
        if not segments:
            raise WorkloadError("need at least one stream segment")
        records: List[ActivityRecord] = []
        indices: List[int] = []
        for segment in segments:
            scenario = scenario_by_name(segment.scenario)
            for index in segment.indices:
                if record_cache is None:
                    record = self.record(scenario, index)
                else:
                    key = (scenario.name, index)
                    record = record_cache.get(key)
                    if record is None:
                        record = self.record(scenario, index)
                        record_cache[key] = record
                records.append(record)
                indices.append(index)
        return self.psa.enqueue(
            plan, records, trace_indices=indices, sensors=sensors, tag=tag
        )

    def close(self) -> None:
        """Drop the PSA engine's capture-plan memo."""
        self.psa.close()

    def _collect(
        self,
        segments: Sequence[StreamSegment],
        sensors: Optional[Sequence[int]],
        record_cache: Optional[
            MutableMapping[Tuple[str, int], ActivityRecord]
        ],
        columns: Optional[Sequence[int]] = None,
    ):
        records: List[ActivityRecord] = []
        indices: List[int] = []
        for segment in segments:
            scenario = scenario_by_name(segment.scenario)
            for index in segment.indices:
                if record_cache is None:
                    record = self.record(scenario, index)
                else:
                    key = (scenario.name, index)
                    record = record_cache.get(key)
                    if record is None:
                        record = self.record(scenario, index)
                        record_cache[key] = record
                records.append(record)
                indices.append(index)
        batch = self.psa.render(
            records, trace_indices=indices, sensors=sensors, columns=columns
        )
        return records, batch

    def collect(
        self,
        scenario_name: str,
        n_traces: int,
        sensors: Optional[Sequence[int]] = None,
    ) -> TraceSet:
        """Capture ``n_traces`` from the selected sensors.

        Compatibility view over :meth:`collect_batch`: same rendered
        samples, repackaged as a :class:`TraceSet` of per-sensor trace
        lists.

        Parameters
        ----------
        scenario_name:
            A key of :data:`repro.workloads.scenarios.SCENARIOS`.
        n_traces:
            Captures per sensor.
        sensors:
            Sensor indices (default: every sensor of the attached PSA,
            derived from the array — a non-16-sensor PSA yields exactly
            its own sensors, no phantoms).
        """
        if sensors is None:
            wanted = list(range(self.psa.n_sensors))
        else:
            wanted = list(sensors)
        segment = StreamSegment(scenario_name, n_traces, 0)
        records, batch = self._collect([segment], wanted, None)
        trace_set = TraceSet(scenario=scenario_name, records=records)
        for position, index in enumerate(wanted):
            trace_set.traces[index] = batch.traces(position)
        return trace_set
