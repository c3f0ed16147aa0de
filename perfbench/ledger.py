"""Layer spans recorded from outside the library, and the stage ledger.

A :class:`Recorder` replaces the public entry point of each layer with a
wrapper that records one span per call: name, layer, start, end, the
span that caused it (per thread) and the chip or upload it served.
Spans stay in memory; :func:`ledger` turns them into per-layer self
time and :func:`chrome_trace` into trace-event JSON that Perfetto opens.

Nothing under ``src/`` is changed: every wrapper is installed with
``setattr`` on the class or module that owns the entry point, and
:meth:`Recorder.uninstall` puts the originals back.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Layers of the stack, named after their modules, in ledger order.
LAYERS = ("chip", "store", "engine", "analysis", "runtime", "traceio", "serve")


class Recorder:
    """In-memory span and counter registry for one process."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals = []
        self.pid = os.getpid()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, chip):
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, None)
        span_id = next(self._ids)
        chip = chip or inherited
        stack.append((span_id, chip))
        return span_id, parent, chip

    def _close(self, name, layer, opened, start):
        end = time.perf_counter()
        span_id, parent, chip = opened
        self._stack().pop()
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "layer": layer,
                "chip": chip,
                "pid": self.pid,
                "tid": threading.get_ident(),
                "start": start,
                "end": end,
            }
        )

    def add_span(self, name, layer, start, end, chip=None, self_s=None):
        """Record a span timed by the caller (e.g. a client request).

        ``self_s`` overrides the self time, for a span whose children
        ran in another process.
        """
        span = {
            "id": next(self._ids),
            "parent": 0,
            "name": name,
            "layer": layer,
            "chip": chip,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": start,
            "end": end,
        }
        if self_s is not None:
            span["self"] = self_s
        self.spans.append(span)

    def wrap(self, owner, attr, layer, chip_of=None, before=None):
        """Record a span around every call of ``owner.attr``.

        ``chip_of(args)`` names the chip a call serves (children inherit
        their parent's); ``before(recorder, args)`` updates counters
        before the call runs.
        """
        original = getattr(owner, attr)
        name = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            opened = self._open(chip_of(args) if chip_of else None)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, layer, opened, start)

        self._install(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr, layer, chip_of=None):
        """Record one span per item a generator method yields."""
        original = getattr(owner, attr)
        name = f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
        recorder = self

        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            chip = chip_of(args) if chip_of else None
            while True:
                opened = recorder._open(chip)
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder._close(name, layer, opened, start)
                recorder.counters[f"{name}.items"] += 1
                yield item

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        self._originals.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._originals):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._originals.clear()


def _count_plan(recorder, args):
    plan = args[0]
    recorder.counters["engine.passes"] += 1
    recorder.counters["engine.tickets"] += len(plan)
    recorder.counters["engine.captures"] += sum(
        len(request.records) * len(request.receiver_indices)
        for request in plan._requests
    )


def _count_windows(recorder, args):
    recorder.counters["analysis.windows"] += args[0].n_windows


def _replay_chip(args):
    return Path(args[0].path).stem


def _replay_init_chip(args):
    return Path(args[1]).stem


def install_layers(recorder, chip_of_campaign=None):
    """Wrap the public entry point of every layer of the stack.

    ``chip_of_campaign`` maps ``id(campaign)`` to the chip id of the
    fleet member that owns it, so activity-simulation spans carry it.
    """
    from repro.core.analysis.identifier import TrojanIdentifier
    from repro.core.analysis.localizer import Localizer
    from repro.core.array import ProgrammableSensorArray
    from repro.engine.plan import RenderPlan
    from repro.runtime import pipeline
    from repro.runtime.fleet import FleetScheduler
    from repro.runtime.sources import ReplaySource
    from repro.store.store import StoreMapping
    from repro.workloads.campaign import MeasurementCampaign

    owners = chip_of_campaign or {}
    recorder.wrap(
        MeasurementCampaign,
        "record",
        "chip",
        chip_of=lambda args: owners.get(id(args[0])),
    )
    recorder.wrap(StoreMapping, "__getitem__", "store")
    recorder.wrap(StoreMapping, "__setitem__", "store")
    recorder.wrap(RenderPlan, "execute", "engine", before=_count_plan)
    recorder.wrap(ProgrammableSensorArray, "render", "engine")
    recorder.wrap(ProgrammableSensorArray, "measure_coils_batch", "engine")
    recorder.wrap(pipeline, "chunk_features", "analysis", before=_count_windows)
    recorder.wrap(TrojanIdentifier, "classify", "analysis")
    recorder.wrap(Localizer, "localize", "analysis")
    recorder.wrap(FleetScheduler, "run", "runtime")
    recorder.wrap(
        pipeline.EscalationPipeline,
        "process_chunk",
        "runtime",
        chip_of=lambda args: args[0].chip,
    )
    recorder.wrap(ReplaySource, "__init__", "traceio", chip_of=_replay_init_chip)
    recorder.wrap_generator(ReplaySource, "chunks", "traceio", chip_of=_replay_chip)


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])] += span["end"] - span["start"]
    return [
        span.get("self", span["end"] - span["start"] - children[(span["pid"], span["id"])])
        for span in spans
    ]


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def ledger(spans, start, end):
    """Per-layer calls, self seconds and share of the wall ``[start, end]``."""
    wall = end - start
    rows = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    by_name = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        row = rows.setdefault(span["layer"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        by_name[span["name"]] += own
    for row in rows.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    unattributed = wall - covered(
        [(span["start"], span["end"]) for span in spans], start, end
    )
    return {
        "wall_s": wall,
        "layers": rows,
        "by_name": dict(by_name),
        "unattributed_share": unattributed / wall if wall > 0 else 0.0,
    }


def format_ledger(title, table, overhead=None):
    """The stage ledger as a plain-text table."""
    lines = [
        f"stage ledger: {title} (wall {table['wall_s']:.3f} s)",
        "layer        |    calls |   self s |  share",
        "-------------|----------|----------|-------",
    ]
    ranked = sorted(
        table["layers"].items(), key=lambda item: -item[1]["self_s"]
    )
    for layer, row in ranked:
        lines.append(
            f"{layer:<12} | {row['calls']:>8} | {row['self_s']:>8.3f} | "
            f"{row['share']:>6.1%}"
        )
    lines.append(
        f"{'unattributed':<12} | {'':>8} | "
        f"{table['unattributed_share'] * table['wall_s']:>8.3f} | "
        f"{table['unattributed_share']:>6.1%}"
    )
    if overhead is not None:
        lines.append(f"tracing overhead: {overhead}")
    return "\n".join(lines)


def chrome_trace(spans, origin):
    """Spans as Chrome trace-event JSON (``ph: X`` complete events)."""
    events = []
    for span in spans:
        events.append(
            {
                "name": span["name"],
                "cat": span["layer"],
                "ph": "X",
                "ts": round((span["start"] - origin) * 1e6, 3),
                "dur": round((span["end"] - span["start"]) * 1e6, 3),
                "pid": span["pid"],
                "tid": span["tid"],
                "args": {
                    "span": span["id"],
                    "parent": span["parent"],
                    "chip": span["chip"],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
