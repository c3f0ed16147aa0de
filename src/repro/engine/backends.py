"""Pluggable execution backends for the measurement engine.

The engine decides how to shard a render into payloads; a backend
decides where the shards run.  ``serial`` keeps every render
in-process; ``shared`` fans shards out over a worker pool that ships
inputs and results through shared memory
(:class:`~repro.engine.shm.SharedMemoryBackend`).  Because every
random draw in the render path comes from a stream named by
(scenario, receiver, trace index), sharding never changes the
rendered samples — the backends are interchangeable bit-for-bit.

Backends are **long-lived session objects**: resolving a backend by
name returns a process-wide session shared by every engine that asked
for the same spec, so the worker pool and the input arena persist
across dispatches instead of being rebuilt per render.  ``close()``
releases the resources; the next dispatch transparently restarts
them.  :func:`close_backend_sessions` tears every session down (the
CLI calls it on exit, and an ``atexit`` hook covers everything else).
"""

from __future__ import annotations

import atexit
from typing import Callable, Dict, List, Protocol, Sequence, Tuple

import numpy as np

from ..config import BACKEND_NAMES
from ..errors import ConfigError
from .shm import SharedMemoryBackend


class ExecutionBackend(Protocol):
    """Anything that can evaluate sharded renders."""

    name: str

    @property
    def parallelism(self) -> int:
        """How many shards are worth creating for one render."""
        ...

    def run_jobs(self, fn: Callable, jobs: Sequence[tuple]) -> List[np.ndarray]:
        """Evaluate sharded renders; one assembled result per job.

        Only called for renders split into two or more shards, i.e.
        when :attr:`parallelism` exceeds one.  See
        :meth:`~repro.engine.shm.SharedMemoryBackend.run_jobs` for the
        job layout.
        """
        ...

    def close(self) -> None:
        """Release pooled resources (a later dispatch restarts them)."""
        ...


class SerialBackend:
    """In-process backend: renders are never sharded."""

    name = "serial"

    @property
    def parallelism(self) -> int:
        """Always one shard: the render stays in-process."""
        return 1

    def close(self) -> None:
        """Nothing to release (uniform lifecycle hook)."""


#: Process-wide backend sessions, one per resolved (name, workers)
#: spec.  Engines resolving the same spec share the same pool (and
#: shared-memory arena), which is what lets a fleet of chips — each
#: with its own engine — amortize one worker pool across every
#: dispatch.
_SESSIONS: Dict[Tuple[str, int], "ExecutionBackend"] = {}


def close_backend_sessions() -> None:
    """Close every process-wide backend session.

    Sessions stay registered: the next render through them lazily
    restarts their pool/arena, so this is always safe to call.
    """
    for backend in _SESSIONS.values():
        backend.close()


def backend_session_stats() -> List[Dict[str, object]]:
    """One row per live process-wide backend session.

    Observability hook for long-running deployments (the serve
    service's ``/metrics`` endpoint): which named backends this
    process has resolved, and the parallelism each one carries.
    """
    return [
        {
            "backend": name,
            "workers": workers,
            "parallelism": backend.parallelism,
        }
        for (name, workers), backend in sorted(_SESSIONS.items())
    ]


atexit.register(close_backend_sessions)


def resolve_backend(
    backend: "str | ExecutionBackend | None",
    workers: int = 0,
) -> ExecutionBackend:
    """Turn a config/CLI backend spec into a backend session.

    Parameters
    ----------
    backend:
        A backend instance (returned as-is), a name (``"serial"`` /
        ``"shared"``), or None for the serial backend.
    workers:
        Worker count for the ``shared`` pool (0 = machine CPU count).

    Returns
    -------
    ExecutionBackend
        The resolved backend.  Named specs resolve to process-wide
        sessions: every engine asking for the same (name, workers)
        gets the *same* long-lived instance, so the pool and its
        arena persist across dispatches and across engines.

    Raises
    ------
    ConfigError
        For unknown backend names.
    """
    if backend is None:
        return SerialBackend()
    if not isinstance(backend, str):
        return backend
    if backend not in BACKEND_NAMES:
        raise ConfigError(
            f"unknown engine backend {backend!r}; choose from {BACKEND_NAMES}"
        )
    key = (backend, int(workers))
    session = _SESSIONS.get(key)
    if session is None:
        if backend == "serial":
            session = SerialBackend()
        else:
            session = SharedMemoryBackend(max_workers=workers or None)
        _SESSIONS[key] = session
    return session
