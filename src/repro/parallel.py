"""One call's rows, rendered or transformed on every core in-process.

The render's normal draws and irFFTs and the featurizer's
quantization and rFFT release the GIL, so the rows of one call can be
worked on by several threads at once.  Callers split only work whose
rows are independent (a rendered capture draws from its own named
stream; a transformed row depends on that row alone) into contiguous
:class:`Pieces`, and each piece writes its own slice of one
preallocated output, so the bytes never depend on the thread count or
on which thread took which piece.  Threads take the pieces in order,
one at a time, so a thread slowed by other load on its core simply
takes fewer of them.

The thread count is the number of cores in the process's CPU affinity
mask.  With one core every call runs inline and no pool is made.  The
calling thread always works through the pieces itself, and a call made
from a pool thread runs inline, so no pool thread ever waits on work
queued behind it; a pool busy with other callers' pieces only means
the caller takes more of its own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterator, Optional, Sequence, Tuple


def _affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


#: Threads one call is split across: the cores this process may run on.
THREADS = _affinity_cores()

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, THREADS - 1),
                thread_name_prefix="repro-split",
                initializer=_mark_pool_thread,
            )
        return _pool


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: start afresh."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def workers(n: int, per_worker: int = 1) -> int:
    """Threads worth putting on ``n`` items: one per core, one per
    ``per_worker`` items at most (so a small call stays on one
    thread), and one inside a pool thread."""
    if getattr(_pool_thread, "active", False):
        return 1
    return min(THREADS, max(1, -(-n // max(1, per_worker))))


class Pieces:
    """``0..n`` in contiguous ``(lo, hi)`` pieces of ``size`` items.

    Iterating hands out the next piece not yet taken, so threads
    iterating one instance together take every piece exactly once.
    """

    def __init__(self, n: int, size: int):
        self._n = n
        self._size = max(1, size)
        self._next = 0
        self._lock = threading.Lock()

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        while True:
            with self._lock:
                lo = self._next
                self._next = min(lo + self._size, self._n)
            if lo >= self._n:
                return
            yield lo, min(lo + self._size, self._n)


def run(calls: Sequence[Callable[[], None]]) -> None:
    """Run every call, the first in this thread and the rest on the pool.

    Returns once all have finished; the first error raised in this
    thread, else the first pool call's error, propagates.
    """
    if len(calls) == 1:
        calls[0]()
        return
    executor = _executor()
    futures = [executor.submit(call) for call in calls[1:]]
    try:
        calls[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()
