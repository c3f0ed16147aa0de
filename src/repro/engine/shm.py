"""The zero-copy shared-memory pool backend.

:class:`SharedMemoryBackend` fans the shards of a render out over a
worker pool without pickling any bulk data:

* **inputs** — every factor array reachable from the shard payloads is
  packed once into a single :class:`multiprocessing.shared_memory`
  arena; payloads ship slim :class:`SharedArrayRef` descriptors and
  workers resolve them to read-only views of the same physical pages
  (a factor referenced by every shard crosses the process boundary
  zero times instead of once per shard);
* **outputs** — the backend allocates the full ``(n_receivers,
  n_traces, n_samples)`` result in shared memory up front and each
  worker writes its rendered column block straight into it; the parent
  wraps the segment as the result array with no concatenation and no
  result pickling.

Because the transport never touches the rendered values — workers run
the exact same serial render path — the backend is **bit-for-bit
identical** to ``serial`` (the engine's determinism contract), and is
selectable everywhere a backend spec is accepted:
``SimConfig(engine_backend="shared")``, the CLI ``--backend shared``,
or ``MeasurementEngine(..., backend="shared")``.

Lifetime: the worker pool starts lazily on first use and is reused by
every later dispatch.  The backend also owns a **persistent input
arena** — one segment reused (and geometrically grown) across every
dispatch instead of being created/unlinked per render; workers cache
their attachment to it, so steady-state dispatches pay zero segment
churn on the input side.  Output segments live exactly as long as the
returned arrays (a ``weakref.finalize`` closes and unlinks each).
:meth:`SharedMemoryBackend.close` unlinks the arena and shuts the pool
down; the next dispatch restarts both.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class SharedArrayRef:
    """Descriptor of one array inside a shared-memory arena."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment owned by the parent process.

    The attaching process must not let a resource tracker claim the
    segment — the parent owns the lifecycle (under ``spawn`` the
    worker's own tracker would unlink it at worker exit; under
    ``fork`` the shared tracker would double-account it).  Python 3.13
    exposes this as ``track=False``; on 3.10–3.12 the attach-time
    registration is suppressed directly.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


#: Worker-side attachment memo: arena segments are named stably across
#: dispatches, so long-lived workers attach once per arena generation
#: instead of once per task.  Bounded (stale generations are closed)
#: because a grown arena gets a fresh name.
_ATTACH_CACHE: Dict[str, shared_memory.SharedMemory] = {}
_ATTACH_CACHE_LIMIT = 8


def _attach_cached(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACH_CACHE.get(name)
    if shm is None:
        while len(_ATTACH_CACHE) >= _ATTACH_CACHE_LIMIT:
            _, stale = _ATTACH_CACHE.popitem()
            stale.close()
        shm = _attach(name)
        _ATTACH_CACHE[name] = shm
    return shm


def _view(shm: shared_memory.SharedMemory, ref: SharedArrayRef) -> np.ndarray:
    """Read-only array view over one packed arena entry."""
    view = np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
    )
    view.flags.writeable = False
    return view


class _InputArena:
    """Packs deduplicated input arrays into one shared segment."""

    def __init__(self) -> None:
        self._refs: Dict[int, SharedArrayRef] = {}
        self._arrays: List[np.ndarray] = []
        self._total = 0
        self.shm: "shared_memory.SharedMemory | None" = None

    def add(self, array: np.ndarray) -> SharedArrayRef:
        """Plan one array into the arena (deduplicated by identity)."""
        ref = self._refs.get(id(array))
        if ref is None:
            contiguous = np.ascontiguousarray(array)
            # 64-byte alignment keeps every view cacheline-aligned.
            offset = (self._total + 63) & ~63
            ref = SharedArrayRef(
                offset=offset,
                shape=tuple(contiguous.shape),
                dtype=contiguous.dtype.str,
            )
            self._refs[id(array)] = ref
            self._arrays.append(contiguous)
            self._total = offset + contiguous.nbytes
        return ref

    @property
    def n_arrays(self) -> int:
        return len(self._arrays)

    @property
    def nbytes(self) -> int:
        """Bytes the planned arrays occupy (including alignment)."""
        return self._total

    def write_into(self, shm: shared_memory.SharedMemory) -> None:
        """Copy every planned array into an existing segment."""
        for array, ref in zip(self._arrays, self._refs.values()):
            view = np.ndarray(
                ref.shape,
                dtype=np.dtype(ref.dtype),
                buffer=shm.buf,
                offset=ref.offset,
            )
            view[...] = array

    def materialize(self) -> str:
        """Create the segment, copy every planned array in; its name."""
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(self._total, 1)
        )
        self.write_into(self.shm)
        return self.shm.name

    def release(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            self.shm = None


class _PersistentArena:
    """One input segment reused (and grown) across dispatches.

    Per dispatch the payload arrays are *planned* with a fresh
    :class:`_InputArena` (identity-dedup, alignment) but *written*
    into a segment that outlives the call: if the planned bytes fit
    the current segment it is reused in place; otherwise a segment of
    the next power-of-two size replaces it (the old one is unlinked —
    worker-side attachment memos expire by name).  Steady-state
    dispatches therefore create zero input segments.
    """

    def __init__(self) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = None
        self.generations = 0

    @property
    def capacity(self) -> int:
        """Bytes the current segment can hold (0 = no segment)."""
        return 0 if self.shm is None else self.shm.size

    def place(self, plan: _InputArena) -> str:
        """Write a planned arena into the persistent segment; its name."""
        needed = max(plan.nbytes, 1)
        if self.shm is None or self.shm.size < needed:
            size = 1
            while size < needed:
                size *= 2
            self.close()
            self.shm = shared_memory.SharedMemory(create=True, size=size)
            self.generations += 1
        plan.write_into(self.shm)
        return self.shm.name

    def close(self) -> None:
        """Unlink the segment (the next dispatch allocates afresh)."""
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass
            self.shm = None


def _pack_payload(payload, arena: _InputArena, packed: Dict[int, object]):
    """Copy of a shard payload with factor arrays swapped for arena refs.

    Walks the payload for objects carrying a ``factors`` dict (the
    engine's activity records) and gives each a shallow copy whose
    ``(name, weights, toggles)`` arrays are :class:`SharedArrayRef`
    descriptors.  The caller's records are never touched; a record
    shared across shards is copied once (``packed`` maps source
    identity to its copy).
    """
    if isinstance(payload, (tuple, list)):
        return type(payload)(
            _pack_payload(item, arena, packed) for item in payload
        )
    factors = getattr(payload, "factors", None)
    if not isinstance(factors, dict):
        return payload
    twin = packed.get(id(payload))
    if twin is None:
        twin = copy.copy(payload)
        twin.factors = {
            group: [
                (name, arena.add(weights), arena.add(toggles))
                for name, weights, toggles in parts
            ]
            for group, parts in factors.items()
        }
        packed[id(payload)] = twin
    return twin


def _resolve_payload(payload, shm: shared_memory.SharedMemory, seen):
    """Worker-side inverse of :func:`_pack_payload` (views, no copies)."""
    if isinstance(payload, (tuple, list)):
        return type(payload)(
            _resolve_payload(item, shm, seen) for item in payload
        )
    factors = getattr(payload, "factors", None)
    if isinstance(factors, dict) and not seen.get(id(payload)):
        seen[id(payload)] = True
        payload.factors = {
            group: [
                (name, _view(shm, weights), _view(shm, toggles))
                for name, weights, toggles in parts
            ]
            for group, parts in factors.items()
        }
    return payload


def _run_shard(task) -> None:
    """Pool entry point: render one shard into the shared output."""
    (fn, payload, in_name, out_name, out_shape, lo, hi) = task
    in_shm = _attach_cached(in_name) if in_name is not None else None
    out_shm = _attach(out_name)
    try:
        if in_shm is not None:
            payload = _resolve_payload(payload, in_shm, {})
        result = fn(payload)
        out = np.ndarray(out_shape, buffer=out_shm.buf)
        out[:, lo:hi] = result
    finally:
        out_shm.close()


def _release_segment(shm: shared_memory.SharedMemory) -> None:
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedMemoryBackend:
    """Worker-pool backend shipping shards through shared memory.

    The pool is created lazily on first use (preferring ``fork``) and
    reused for every later dispatch; :meth:`close` tears it down and
    unlinks the input arena, and a later dispatch transparently
    restarts both.  The engine dispatches through :meth:`run_jobs`.

    Parameters
    ----------
    max_workers:
        Pool size (default: the machine's CPU count, minimum 2 so the
        sharding path is exercised even on single-core hosts).
    start_method:
        Worker start method (``"fork"`` / ``"spawn"`` / ...).  None
        prefers ``fork`` (cheap start-up, inherits sys.path) and falls
        back to the platform default where fork is missing.
    """

    name = "shared"

    def __init__(
        self,
        max_workers: int | None = None,
        start_method: str | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        methods = multiprocessing.get_all_start_methods()
        if start_method is not None and start_method not in methods:
            raise ConfigError(
                f"unknown start method {start_method!r}; "
                f"choose from {tuple(methods)}"
            )
        self.max_workers = max_workers or max(os.cpu_count() or 1, 2)
        self.start_method = start_method
        self._executor: ProcessPoolExecutor | None = None
        self._arena = _PersistentArena()

    @property
    def parallelism(self) -> int:
        """One shard per pool worker."""
        return self.max_workers

    @property
    def arena_generations(self) -> int:
        """Times the persistent input arena was (re)allocated."""
        return self._arena.generations

    @property
    def arena_capacity(self) -> int:
        """Current input-arena capacity in bytes."""
        return self._arena.capacity

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = self.start_method
            if method is None and "fork" in multiprocessing.get_all_start_methods():
                method = "fork"
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context(method),
            )
        return self._executor

    def close(self) -> None:
        """Release the arena and the pool (a later dispatch restarts)."""
        self._arena.close()
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def run_jobs(
        self,
        fn: Callable,
        jobs: Sequence[Tuple[Sequence, Tuple[int, int, int], Sequence[int]]],
    ) -> List[np.ndarray]:
        """Evaluate many sharded renders as **one** pool wave.

        The fused-dispatch entry point: every job's shard payloads are
        packed into the one persistent input arena and submitted to
        the pool in a single ``map`` call, so a plan of N logical
        renders pays one scatter/gather instead of N.

        Parameters
        ----------
        fn:
            Shard renderer (shared by every job).
        jobs:
            ``(payloads, out_shape, splits)`` per logical render:
            shard ``i`` of ``payloads`` renders columns
            ``splits[i]:splits[i+1]`` (axis 1) of the float64
            ``(n_receivers, n_traces, n_samples)`` result.

        Returns
        -------
        list of numpy.ndarray
            One assembled result per job, in job order, each backed by
            its own shared segment (lifetime tied to the array).
        """
        plan = _InputArena()
        packed: Dict[int, object] = {}
        packed_jobs = []
        for payloads, out_shape, splits in jobs:
            if len(payloads) != len(splits) - 1:
                raise ValueError(
                    f"{len(payloads)} payloads for {len(splits) - 1} splits"
                )
            packed_jobs.append(
                (
                    [_pack_payload(p, plan, packed) for p in payloads],
                    tuple(out_shape),
                    [int(s) for s in splits],
                )
            )
        in_name = self._arena.place(plan) if plan.n_arrays else None

        out_segments: List[shared_memory.SharedMemory] = []
        tasks = []
        try:
            for payloads, out_shape, splits in packed_jobs:
                # float64 samples: 8 bytes each.
                out_shm = shared_memory.SharedMemory(
                    create=True, size=max(int(np.prod(out_shape)) * 8, 1)
                )
                out_segments.append(out_shm)
                for payload, lo, hi in zip(payloads, splits[:-1], splits[1:]):
                    tasks.append(
                        (fn, payload, in_name, out_shm.name, out_shape, lo, hi)
                    )
            list(self._pool().map(_run_shard, tasks))
        except BaseException:
            for out_shm in out_segments:
                _release_segment(out_shm)
            raise
        results = []
        for out_shm, (_, out_shape, _) in zip(out_segments, packed_jobs):
            out = np.ndarray(out_shape, buffer=out_shm.buf)
            weakref.finalize(out, _release_segment, out_shm)
            results.append(out)
        return results
