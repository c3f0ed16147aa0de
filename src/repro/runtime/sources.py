"""Trace streams: where the monitoring pipeline's windows come from.

Two production sources sit behind one :class:`TraceStream` protocol:

* :class:`LiveSource` renders measurement windows *on demand* through
  the batched :class:`~repro.engine.MeasurementEngine` — a scripted
  :class:`ActivationSchedule` says which workload runs when (including
  the mid-stream Trojan activation), and each pulled chunk is one
  vectorized engine render.  Because every capture draws from the RNG
  stream ``render/{scenario}/{receiver}/{trace_index}``, a streamed
  run is **bit-identical** to the equivalent one-shot offline render
  at any chunk size.  Bound to an escalation pipeline, the source
  renders only the rFFT columns the pipeline's detector reads (see
  :attr:`LiveSource.columns`).
* :class:`ReplaySource` iterates a ``.npz`` trace archive (a file, or
  its bytes in memory) through :class:`repro.traceio.TraceArchive`,
  never holding more than one chunk of samples — recorded sessions
  re-run through the same pipeline.

Both yield :class:`StreamChunk` blocks: a ``(n_streams, k,
n_samples)`` sample stack (or a live chunk's spectra at the monitored
columns) plus per-window bookkeeping, the unit of work the escalation
pipeline consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..chip.power import ActivityRecord
from ..core.analysis.detector import DEFAULT_MONITOR_SENSOR
from ..dsp.transforms import RfftColumns
from ..errors import AnalysisError, TraceIOError, WorkloadError
from ..store import ArtifactStore
from ..traceio import TraceArchive, save_traces
from ..traces import Trace
from ..workloads.campaign import MeasurementCampaign, StreamSegment
from ..workloads.scenarios import SCENARIOS, reference_for, scenario_by_name

#: Default windows per pulled chunk (matches the engine's irFFT
#: chunking sweet spot).
DEFAULT_CHUNK_WINDOWS = 16


@dataclass(frozen=True)
class StreamChunk:
    """One contiguous block of monitoring windows.

    Attributes
    ----------
    samples:
        Voltage samples [V], shape ``(n_streams, k, n_samples)`` —
        one row of ``k`` consecutive windows per monitored stream;
        None when the chunk carries ``spectra`` instead.
    fs:
        Sampling rate [Hz].
    start:
        Global stream index of the first window in the block.
    scenarios:
        Workload scenario per window.
    trace_indices:
        Capture (RNG/workload) index per window.
    labels:
        Receiver label per stream row.
    spectra:
        A column render of the windows in place of ``samples``: their
        complex rFFT values at a few native columns, shape
        ``(n_streams, k, n_columns)``.
    """

    samples: Optional[np.ndarray]
    fs: float
    start: int
    scenarios: Tuple[str, ...]
    trace_indices: Tuple[int, ...]
    labels: Tuple[str, ...]
    spectra: Optional[RfftColumns] = None

    def __post_init__(self) -> None:
        if (self.samples is None) == (self.spectra is None):
            raise AnalysisError("a StreamChunk holds samples or spectra")
        data = self.samples if self.spectra is None else self.spectra.values
        if data.ndim != 3:
            raise AnalysisError(
                "StreamChunk samples must be (n_streams, k, n_samples), "
                f"got shape {data.shape}"
            )
        n_streams, k, n_samples = data.shape
        if len(self.scenarios) != k or len(self.trace_indices) != k:
            raise AnalysisError("one scenario/index per window required")
        if len(self.labels) != n_streams:
            raise AnalysisError("one label per stream required")
        if n_samples == 0:
            raise AnalysisError("StreamChunk windows must hold samples")
        if not 0.0 < self.fs < math.inf:
            raise AnalysisError(
                f"StreamChunk fs must be finite and positive, got {self.fs!r}"
            )

    @property
    def n_streams(self) -> int:
        """Monitored streams in the block."""
        return len(self.labels)

    @property
    def n_windows(self) -> int:
        """Windows in the block."""
        return len(self.trace_indices)

    def trace(self, stream: int, offset: int) -> Trace:
        """One window of one stream as a :class:`~repro.traces.Trace`."""
        if self.samples is None:
            raise AnalysisError(
                "a chunk of rFFT columns holds no samples; ask its "
                "source for the window"
            )
        if not 0 <= stream < self.n_streams:
            raise AnalysisError(
                f"stream {stream} outside 0..{self.n_streams - 1}"
            )
        if not 0 <= offset < self.n_windows:
            raise AnalysisError(
                f"window offset {offset} outside 0..{self.n_windows - 1}"
            )
        return Trace(
            samples=self.samples[stream, offset],
            fs=self.fs,
            label=self.labels[stream],
            scenario=self.scenarios[offset],
            meta={"trace_index": self.trace_indices[offset]},
        )


def _scenario_is_active(name: str) -> bool:
    """Whether a scenario name carries an armed Trojan payload."""
    scenario = SCENARIOS.get(name)
    return scenario is not None and bool(scenario.active)


@dataclass(frozen=True)
class ActivationSchedule:
    """Scripted workload timeline of a monitoring session.

    An ordered tuple of :class:`~repro.workloads.campaign.StreamSegment`
    spans; the Trojan "activates" at the first span whose scenario has
    an armed payload.  The schedule is what makes a streamed session
    reproducible: window ``w`` maps to exactly one (scenario,
    trace_index) capture, independent of chunking.

    Attributes
    ----------
    segments:
        Stream spans in capture order.
    """

    segments: Tuple[StreamSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise WorkloadError("schedule needs at least one segment")
        for segment in self.segments:
            scenario_by_name(segment.scenario)

    @classmethod
    def step(
        cls,
        trojan: str,
        n_baseline: int = 8,
        n_active: int = 6,
        reference: str = "auto",
        baseline_offset: int = 0,
        active_offset: int = 500,
    ) -> "ActivationSchedule":
        """The canonical run-time script: quiet span, then activation.

        ``reference="auto"`` resolves the matched Trojan-inactive
        workload (T2 pairs with ``T2_ref``); distinct index offsets
        keep the two spans in distinct workload epochs.
        """
        if reference == "auto":
            reference = reference_for(trojan).name
        return cls(
            segments=(
                StreamSegment(reference, n_baseline, baseline_offset),
                StreamSegment(trojan, n_active, active_offset),
            )
        )

    @property
    def n_windows(self) -> int:
        """Total windows scripted by the schedule."""
        return sum(segment.n_traces for segment in self.segments)

    @property
    def trigger_index(self) -> Optional[int]:
        """First window with an armed Trojan (None = never activates)."""
        position = 0
        for segment in self.segments:
            if _scenario_is_active(segment.scenario):
                return position
            position += segment.n_traces
        return None

    @property
    def trojan(self) -> Optional[str]:
        """Scenario name of the first armed span (None = all quiet)."""
        for segment in self.segments:
            if _scenario_is_active(segment.scenario):
                return segment.scenario
        return None

    @property
    def reference(self) -> str:
        """Scenario name of the first span (the self-baseline workload)."""
        return self.segments[0].scenario

    def scenario_at(self, window: int) -> str:
        """Scenario of one global window index."""
        position = 0
        for segment in self.segments:
            if window < position + segment.n_traces:
                return segment.scenario
            position += segment.n_traces
        raise WorkloadError(
            f"window {window} outside the {self.n_windows}-window schedule"
        )


@runtime_checkable
class TraceStream(Protocol):
    """Anything the escalation pipeline can monitor.

    A stream produces :class:`StreamChunk` blocks in window order and
    knows its own shape; ``trigger_index`` is the scripted activation
    window when known (live schedules, annotated replays) so MTTD can
    be computed, and ``localization_records`` supplies matched
    Trojan-inactive/active activity records for the LOCALIZE stage
    (None when the stream cannot re-measure, e.g. archive replay).
    """

    @property
    def n_streams(self) -> int: ...

    @property
    def n_windows(self) -> int: ...

    @property
    def trigger_index(self) -> Optional[int]: ...

    def chunks(self) -> Iterator[StreamChunk]: ...

    def localization_records(
        self, n_records: int
    ) -> Optional[Tuple[List[ActivityRecord], List[ActivityRecord]]]: ...


class LiveSource:
    """On-demand rendering of a scripted monitoring session.

    Each pulled chunk is one batched engine render of up to ``chunk``
    consecutive windows (never spanning a schedule segment boundary,
    so every window keeps its scripted (scenario, trace_index)
    identity).  The engine's determinism contract makes the stream
    bit-identical to the one-shot offline render of the same schedule
    — at chunk size 1, 7, 64 or anything else.

    Once :attr:`columns` is set (an escalation pipeline's ``bind``
    sets it to the native rFFT columns its detector reads), chunks
    carry each window's spectrum at those columns instead of its
    samples: every capture draws its RNG stream as far as those
    columns read, the same normals as the full render, so the columns
    are those of the full render up to the rounding of the rFFT it
    would have gone through.  :meth:`capture` renders one
    window in full when a stage needs its samples.

    Parameters
    ----------
    campaign:
        The measurement campaign (chip + PSA + engine) to render with.
    schedule:
        Scripted workload timeline.
    sensors:
        Sensor indices to monitor (one detector stream each).
    chunk:
        Maximum windows per pulled chunk.
    record_cache:
        Optional ``(scenario, trace_index) -> ActivityRecord`` memo
        shared with other consumers of the same chip (records are
        deterministic in that key).  The monitored chip's activity
        exists independently of the monitor — in deployment the
        workload simply runs — so pre-populating the cache (see
        :meth:`warm_records`) isolates the monitor's own
        capture-plus-processing cost.  Entries the memo holds when a
        chunk renders stay in it; records the source adds for a chunk
        leave it once that chunk is consumed (see :meth:`chunks`).
    store:
        Optional :class:`~repro.store.ArtifactStore`.  When given (and
        no explicit ``record_cache`` was passed), the record memo
        becomes a persistent store view keyed by the monitored chip's
        content fingerprint: a repeated monitor session — including
        :meth:`warm_records` — replays the chip's activity from disk,
        bit-identical to simulating it fresh.
    """

    def __init__(
        self,
        campaign: MeasurementCampaign,
        schedule: ActivationSchedule,
        sensors: Sequence[int] = (DEFAULT_MONITOR_SENSOR,),
        chunk: int = DEFAULT_CHUNK_WINDOWS,
        record_cache: Optional[dict] = None,
        store: Optional[ArtifactStore] = None,
    ):
        if chunk < 1:
            raise AnalysisError(f"chunk must be >= 1, got {chunk}")
        if not sensors:
            raise AnalysisError("need at least one monitored sensor")
        self.campaign = campaign
        self.schedule = schedule
        self.sensors = tuple(int(s) for s in sensors)
        self.chunk = chunk
        #: Native rFFT columns to render per window (None: samples).
        self.columns: Optional[np.ndarray] = None
        if record_cache is not None:
            self._record_cache = record_cache
        elif store is not None:
            self._record_cache = store.records(campaign.chip)
        else:
            self._record_cache = {}

    def warm_records(self) -> int:
        """Pre-simulate every scheduled activity record into the cache.

        Returns the number of records now cached.  Benchmarks (and
        latency-sensitive deployments) call this so the streamed
        session measures monitoring throughput — capture, feature
        extraction, detection — rather than workload simulation.
        With a store-backed cache the warm-up itself warm-starts:
        records already persisted load from disk instead of
        re-simulating.
        """
        self.campaign.stream_records(self.schedule.segments, self._record_cache)
        return len(self._record_cache)

    def _release(self, held) -> None:
        """Drop memo entries not in ``held``; a store keeps its copy."""
        memo = self._record_cache
        release = getattr(memo, "release", memo.pop)
        for key in [key for key in memo if key not in held]:
            release(key)

    @property
    def n_streams(self) -> int:
        """One stream per monitored sensor."""
        return len(self.sensors)

    @property
    def n_windows(self) -> int:
        """Windows the schedule will produce."""
        return self.schedule.n_windows

    @property
    def trigger_index(self) -> Optional[int]:
        """Scripted activation window."""
        return self.schedule.trigger_index

    @property
    def config(self):
        """The simulation config behind the rendered windows."""
        return self.campaign.chip.config

    @staticmethod
    def chunk_from(batch, position: int) -> StreamChunk:
        """Wrap one rendered chunk batch as its stream chunk."""
        return StreamChunk(
            samples=batch.samples,
            fs=batch.fs,
            start=position,
            scenarios=batch.scenarios,
            trace_indices=batch.trace_indices,
            labels=batch.labels,
            spectra=batch.spectra,
        )

    def chunks(self) -> Iterator[StreamChunk]:
        """Render the schedule chunk by chunk, in window order.

        Chunks never span a schedule segment boundary, so every window
        keeps its scripted (scenario, trace_index) identity at any
        chunk size.  Each chunk is rendered when it is pulled, and the
        suspended generator keeps no reference to it, so a consumer
        that drops a chunk before pulling the next holds one at a time.

        When the next chunk is pulled, the activity records this source
        simulated or loaded for the previous one leave the memo's
        memory (a store keeps them on disk), so a session holds no
        more records than one chunk needs.  Entries the memo held
        before the chunk, such as those :meth:`warm_records` loaded,
        stay.
        """
        position = 0
        for segment in self.schedule.segments:
            for lo in range(0, segment.n_traces, self.chunk):
                k = min(self.chunk, segment.n_traces - lo)
                sub = StreamSegment(
                    segment.scenario, k, segment.index_offset + lo
                )
                held = set(self._record_cache)
                yield self.chunk_from(
                    self.campaign.collect_stream(
                        [sub],
                        sensors=list(self.sensors),
                        record_cache=self._record_cache,
                        columns=self.columns,
                    ),
                    position,
                )
                self._release(held)
                position += k

    def capture(self, stream: int, scenario: str, trace_index: int) -> Trace:
        """One window of one monitored stream, rendered in full.

        Its samples are bit-identical to the window a samples chunk
        holds: the capture draws from the same RNG stream, whatever
        else renders with it.
        """
        batch = self.campaign.collect_stream(
            [StreamSegment(scenario, 1, trace_index)],
            sensors=[self.sensors[stream]],
            record_cache=self._record_cache,
        )
        return batch.trace(0, 0)

    def localization_records(
        self,
        n_records: int,
        baseline_epoch: int = 3000,
        active_epoch: int = 3500,
    ) -> Optional[Tuple[List[ActivityRecord], List[ActivityRecord]]]:
        """Matched populations for the LOCALIZE stage.

        Fresh workload epochs (far from the monitoring stream's own
        indices) of the schedule's reference and Trojan scenarios —
        the live system can always take more measurements, which is
        exactly what the paper's reprogram-and-refine step does.
        """
        trojan = self.schedule.trojan
        if trojan is None:
            return None
        base = StreamSegment(self.schedule.reference, n_records, baseline_epoch)
        active = StreamSegment(trojan, n_records, active_epoch)
        return (
            self.campaign.stream_records([base], self._record_cache),
            self.campaign.stream_records([active], self._record_cache),
        )


class ReplaySource:
    """Streamed replay of a recorded ``.npz`` trace archive.

    The archive is opened once (:class:`repro.traceio.TraceArchive`)
    and read member by member — at most one chunk of samples is in
    memory at a time, so arbitrarily long recordings replay with
    bounded footprint.  Each chunk's C-contiguous ``(n_streams, k,
    n_samples)`` array is filled straight from the members.
    Traces are stored window-major: with ``n_streams`` monitored
    streams, window ``w`` occupies traces ``w*n_streams ..
    (w+1)*n_streams - 1``.

    The activation window is recovered from the recorded scenario
    labels (first window whose scenario carries an armed payload), so
    MTTD accounting survives the round-trip; localization cannot (a
    replay cannot take new measurements), so
    :meth:`localization_records` returns None and the pipeline stops
    its escalation at IDENTIFY.

    Parameters
    ----------
    path:
        Archive written by :func:`repro.traceio.save_traces` (e.g. via
        :func:`record_stream`); with ``data``, only the source's name.
    batch:
        Maximum windows per pulled chunk.
    n_streams:
        Monitored streams interleaved in the archive; None (the
        default) recovers the count from the recorded receiver labels
        (the per-window label pattern of the window-major layout).
        An explicit count is validated against that pattern, so a
        mismatched replay fails loudly instead of interleaving
        different sensors into one detector stream.
    data:
        The archive's bytes, already in memory (``repro serve`` replays
        an upload's request body); nothing is read from ``path`` then.
    """

    def __init__(
        self,
        path: "str | Path",
        batch: int = DEFAULT_CHUNK_WINDOWS,
        n_streams: Optional[int] = None,
        data: Optional[bytes] = None,
    ):
        if batch < 1:
            raise AnalysisError(f"batch must be >= 1, got {batch}")
        self.path = Path(path)
        self.batch = batch
        self._archive = TraceArchive(self.path, data=data)
        entries = self._archive.entries
        labels = [entry["label"] for entry in entries]
        if n_streams is None:
            # Window-major layout: the first window's labels run until
            # the leading label repeats (or the archive ends).
            try:
                n_streams = labels.index(labels[0], 1)
            except ValueError:
                n_streams = len(labels)
        if n_streams < 1:
            raise AnalysisError(f"n_streams must be >= 1, got {n_streams}")
        if len(entries) % n_streams:
            raise AnalysisError(
                f"archive holds {len(entries)} traces, not a multiple of "
                f"{n_streams} streams"
            )
        for position, label in enumerate(labels):
            if label != labels[position % n_streams]:
                raise AnalysisError(
                    f"archive trace {position} is labeled {label!r} where "
                    f"the {n_streams}-stream window-major layout expects "
                    f"{labels[position % n_streams]!r}"
                )
        self._n_streams = n_streams
        self._n_windows = len(entries) // n_streams
        self._labels = tuple(labels[:n_streams])
        firsts = entries[::n_streams]
        self._scenarios = tuple(entry["scenario"] for entry in firsts)
        try:
            self._trace_indices = tuple(
                int(entry["meta"].get("trace_index", window))
                for window, entry in enumerate(firsts)
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise TraceIOError(
                f"{self.path} has a malformed trace_index: {exc}"
            ) from exc

    @property
    def n_streams(self) -> int:
        """Streams interleaved in the archive."""
        return self._n_streams

    @property
    def n_windows(self) -> int:
        """Whole windows stored in the archive."""
        return self._n_windows

    @property
    def trigger_index(self) -> Optional[int]:
        """Activation window recovered from recorded scenario labels."""
        for window, name in enumerate(self._scenarios):
            if _scenario_is_active(name):
                return window
        return None

    def chunks(self) -> Iterator[StreamChunk]:
        """Stream the archive back as whole-window chunks."""
        entries = self._archive.entries
        members = self._archive.samples()
        for start in range(0, self._n_windows, self.batch):
            stop = min(start + self.batch, self._n_windows)
            yield StreamChunk(
                samples=self._fill(members, start, stop),
                fs=float(entries[start * self._n_streams]["fs"]),
                start=start,
                scenarios=self._scenarios[start:stop],
                trace_indices=self._trace_indices[start:stop],
                labels=self._labels,
            )

    def _fill(
        self, members: Iterator[np.ndarray], start: int, stop: int
    ) -> np.ndarray:
        """Windows ``start..stop`` as one C-contiguous sample stack."""
        samples = None
        for window in range(start, stop):
            for stream in range(self._n_streams):
                array = next(members)
                if samples is None:
                    samples = np.empty(
                        (self._n_streams, stop - start, array.size)
                    )
                elif array.size != samples.shape[2]:
                    raise TraceIOError(
                        f"{self.path} trace "
                        f"{window * self._n_streams + stream} holds "
                        f"{array.size} samples where its chunk's first "
                        f"holds {samples.shape[2]}"
                    )
                samples[stream, window - start] = array
        return samples

    def localization_records(self, n_records: int) -> None:
        """A replay cannot re-measure; localization is unavailable."""
        return None


def record_stream(source: TraceStream, path: "str | Path") -> Path:
    """Render a stream to a replayable archive (window-major layout).

    Every window of every stream is materialized in chunk order and
    saved through :func:`repro.traceio.save_traces`, producing exactly
    the layout :class:`ReplaySource` expects — the round-trip
    ``record_stream`` → ``ReplaySource`` reproduces the live session's
    windows bit-for-bit.  The source must yield samples: a
    :class:`LiveSource` not bound to a pipeline.
    """
    traces: List[Trace] = []
    for chunk in source.chunks():
        for offset in range(chunk.n_windows):
            for stream in range(chunk.n_streams):
                traces.append(chunk.trace(stream, offset))
    return save_traces(path, traces)
