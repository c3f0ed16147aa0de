"""Fused dispatch plans: many logical renders, one engine pass.

Every layer of the reproduction issues renders — sweep cells, fleet
chips, quadtree scan levels — and each render on its own is often too
small to amortize a pass.  A :class:`RenderPlan` inverts the flow:
callers *enqueue* any number of logical renders (each tagged with its
origin and tied to its own engine), then :meth:`RenderPlan.execute`
fuses them into the fewest possible engine passes and demultiplexes
the results back, with each :class:`RenderTicket` resolving to exactly
the :class:`TraceBatch` its standalone ``engine.render`` call would
have produced.

Requests sharing (engine, coupling object, receiver subset, rFFT
columns) concatenate their capture lists into one *job*, so e.g. the
base and active score-map renders of a localization, or every repeat
of a sweep cell, render as one pass.

Bit-identity is structural, not incidental: every capture's samples
depend only on its RNG stream ``render/{scenario}/{receiver}/{index}``
(the engine's determinism contract), so concatenating requests into a
job and slicing the job's output back apart reproduces each request's
standalone render exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MeasurementError
from .batch import TraceBatch


@dataclass
class _Request:
    """One enqueued logical render (normalized)."""

    engine: object
    coupling: object
    records: list
    trace_indices: List[int]
    receiver_indices: List[int]
    columns: Optional[np.ndarray]
    tag: Optional[str]
    batch: Optional[TraceBatch] = None


@dataclass
class _Job:
    """Requests fused into one engine pass (same engine/coupling/receivers/columns)."""

    engine: object
    coupling: object
    receiver_indices: List[int]
    columns: Optional[np.ndarray]
    records: list = field(default_factory=list)
    trace_indices: List[int] = field(default_factory=list)
    #: ``(request, lo, hi)`` — request's capture positions inside the job.
    spans: List[Tuple[_Request, int, int]] = field(default_factory=list)

    def add(self, request: _Request) -> None:
        lo = len(self.trace_indices)
        self.records.extend(request.records)
        self.trace_indices.extend(request.trace_indices)
        self.spans.append((request, lo, len(self.trace_indices)))


class RenderTicket:
    """Handle to one enqueued render; resolves after ``execute()``.

    Attributes
    ----------
    tag:
        The caller-supplied origin tag (for demux bookkeeping).
    """

    def __init__(self, request: _Request):
        self._request = request
        self.tag = request.tag

    def result(self) -> TraceBatch:
        """The rendered batch (raises if the plan has not executed)."""
        batch = self._request.batch
        if batch is None:
            raise MeasurementError(
                "render plan not executed yet; call RenderPlan.execute()"
            )
        return batch


class RenderPlan:
    """Queue of logical renders executed as one fused engine pass.

    Parameters
    ----------
    engine:
        Default engine for :meth:`add` calls that do not name one.

    Usage::

        plan = RenderPlan()
        t1 = plan.add(coupling_a, records_a, engine=engine, tag="cell-0")
        t2 = plan.add(coupling_b, records_b, engine=engine, tag="cell-1")
        plan.execute()
        batch_a, batch_b = t1.result(), t2.result()

    A plan executes once; enqueue further work on a fresh plan.
    """

    def __init__(self, engine=None):
        self._default_engine = engine
        self._requests: List[_Request] = []
        self._executed = False

    def __len__(self) -> int:
        return len(self._requests)

    def add(
        self,
        coupling,
        records: Sequence,
        trace_indices: Optional[Sequence[int]] = None,
        receiver_indices: Optional[Sequence[int]] = None,
        engine=None,
        tag: Optional[str] = None,
        columns: Optional[Sequence[int]] = None,
    ) -> RenderTicket:
        """Enqueue one logical render; returns its ticket.

        Arguments mirror :meth:`MeasurementEngine.render` exactly
        (validation happens here, at enqueue time).  With ``columns``
        the ticket resolves to the captures' rFFT values at those
        columns, each drawn only as far as they read; requests fuse
        only with others asking for the same columns.
        """
        if self._executed:
            raise MeasurementError(
                "render plan already executed; build a new plan"
            )
        engine = engine or self._default_engine
        if engine is None:
            raise MeasurementError("no engine for enqueued render")
        records, trace_indices, receiver_indices, columns = engine._normalize(
            coupling, records, trace_indices, receiver_indices, columns
        )
        request = _Request(
            engine=engine,
            coupling=coupling,
            records=records,
            trace_indices=trace_indices,
            receiver_indices=receiver_indices,
            columns=columns,
            tag=tag,
        )
        self._requests.append(request)
        return RenderTicket(request)

    def execute(self) -> None:
        """Run every enqueued render in the fewest engine passes.

        After this returns, every ticket's :meth:`RenderTicket.result`
        resolves.  Requests fuse into jobs by (engine, coupling,
        receiver subset, columns); each job renders as one engine pass;
        results demux back in enqueue order.
        """
        if self._executed:
            raise MeasurementError(
                "render plan already executed; build a new plan"
            )
        self._executed = True
        jobs: Dict[tuple, _Job] = {}
        for request in self._requests:
            key = (
                id(request.engine),
                id(request.coupling),
                tuple(request.receiver_indices),
                None if request.columns is None else request.columns.tobytes(),
            )
            job = jobs.get(key)
            if job is None:
                job = _Job(
                    engine=request.engine,
                    coupling=request.coupling,
                    receiver_indices=request.receiver_indices,
                    columns=request.columns,
                )
                jobs[key] = job
            job.add(request)
        for job in jobs.values():
            output = job.engine._render_pass(
                job.coupling, job.records, job.trace_indices,
                job.receiver_indices, job.columns,
            )
            self._demux(job, output)

    @staticmethod
    def _demux(job: _Job, output: np.ndarray) -> None:
        """Slice one job's output back into its requests' batches."""
        for request, lo, hi in job.spans:
            view = output[:, lo:hi] if len(job.spans) > 1 else output
            request.batch = request.engine._finalize(
                view,
                job.coupling,
                request.records,
                request.trace_indices,
                request.receiver_indices,
                request.columns,
            )


def execute_one(enqueue, *args, **kwargs) -> TraceBatch:
    """Run one ``enqueue*`` twin alone: a fresh plan, one execute.

    ``enqueue(plan, *args, **kwargs)`` must return one ticket; its
    batch is returned, so a standalone render is its enqueue twin.
    """
    plan = RenderPlan()
    ticket = enqueue(plan, *args, **kwargs)
    plan.execute()
    return ticket.result()
