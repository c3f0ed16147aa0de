"""Measurement campaigns: (chip, PSA, scenario stream) -> trace batches."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, MutableMapping, Optional, Sequence, Tuple

from ..chip.power import ActivityRecord
from ..chip.testchip import TestChip
from ..core.array import ProgrammableSensorArray
from ..engine import TraceBatch
from ..engine.plan import execute_one
from ..errors import WorkloadError
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

    def stream_records(
        self,
        segments: Sequence[StreamSegment],
        memo: Optional[MutableMapping[Tuple[str, int], ActivityRecord]] = None,
    ) -> List[ActivityRecord]:
        """The activity records behind a stream's captures, in order.

        ``memo`` is an optional ``(scenario, trace_index) ->
        ActivityRecord`` mapping (a dict or a store view).  Records are
        deterministic in that key, so a memo shared across calls skips
        re-simulating chip activity: each capture reads it with one
        ``get``, and only a miss runs :meth:`record` and stores the
        result.
        """
        records: List[ActivityRecord] = []
        for segment in segments:
            scenario = scenario_by_name(segment.scenario)
            for index in segment.indices:
                key = (scenario.name, index)
                record = None if memo is None else memo.get(key)
                if record is None:
                    record = self.record(scenario, index)
                    if memo is not None:
                        memo[key] = record
                records.append(record)
        return records

    # -- trace collection ----------------------------------------------------------

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

        :meth:`enqueue_stream` on a fresh plan plus one execute.  A
        monitoring stream is a reference span followed by a
        Trojan-active span (arbitrarily many spans are allowed), and
        the whole stream renders in a single vectorized engine pass.

        Parameters
        ----------
        segments:
            Stream spans in capture order.
        sensors:
            Sensor indices (default: every sensor of the attached PSA).
        record_cache:
            Optional ``(scenario, trace_index) -> ActivityRecord``
            memo (see :meth:`stream_records`), e.g. shared across sweep
            cells re-using the same baseline span.
        columns:
            rFFT columns to render in place of the samples (see
            :meth:`~repro.engine.MeasurementEngine.render`).
        """
        return execute_one(
            self.enqueue_stream,
            segments,
            sensors,
            record_cache,
            columns=columns,
        )

    def enqueue_stream(
        self,
        plan,
        segments: Sequence[StreamSegment],
        sensors: Optional[Sequence[int]] = None,
        record_cache: Optional[
            MutableMapping[Tuple[str, int], ActivityRecord]
        ] = None,
        tag: Optional[str] = None,
        columns: Optional[Sequence[int]] = None,
    ):
        """Enqueue a stream capture on a fused dispatch plan.

        Records come from :meth:`stream_records` at enqueue time, the
        render joins ``plan`` (a :class:`~repro.engine.RenderPlan`),
        and the returned ticket resolves to the stream's
        :class:`TraceBatch` after ``plan.execute()``.  Streams of many
        cells/chips enqueued on one plan render as a single fused
        engine pass.
        """
        if not segments:
            raise WorkloadError("need at least one stream segment")
        return self.psa.enqueue(
            plan,
            self.stream_records(segments, record_cache),
            trace_indices=[i for segment in segments for i in segment.indices],
            sensors=sensors,
            tag=tag,
            columns=columns,
        )

    def close(self) -> None:
        """Drop the PSA engine's capture-plan memo."""
        self.psa.close()
