"""The content-addressed on-disk artifact store.

:class:`ArtifactStore` persists the expensive intermediates of the
reproduction — chip activity records, featurized trace spans — keyed
by a SHA-256 content address of their full simulation provenance (see
:mod:`repro.store.keys`).  Identical inputs always map to the same
key, so any consumer that renders through the store warm-starts
bit-identically: a second detection sweep, localize sweep or monitor
session replays its artifacts from disk instead of re-simulating.

Design points
-------------
* **Layout** — ``root/objects/<kind>/<hh>/<digest>.npz`` plus a
  ``store.json`` schema marker.  Every object is a plain ``.npz`` with
  an embedded JSON header (the :mod:`repro.traceio` idiom), loadable
  with ``allow_pickle=False``.
* **Atomicity** — objects are written to a temp file and published
  with :func:`os.replace`, so concurrent writers (a fleet of
  monitors, parallel CI jobs) can never expose a partial entry.
  Writers racing on the same key produce identical content
  (determinism), so last-replace-wins is harmless.
* **Corruption policy** — any entry that fails to load (truncated
  file, bad header, schema/kind mismatch, codec error) is *evicted,
  never served*: the reader unlinks it and reports a miss.
* **LRU size cap** — reads touch the entry's mtime; :meth:`gc`
  deletes oldest-first until the store fits ``max_bytes``.  Puts
  trigger an opportunistic gc once the cap is exceeded.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import zipfile
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..chip.power import ACTIVITY_GROUPS, ActivityRecord
from ..chip.testchip import TestChip
from ..errors import StoreError
from .keys import CODE_VERSION, KEY_SCHEMA, canonical_json, chip_fingerprint

#: On-disk object schema; bump to invalidate every stored entry.
SCHEMA_VERSION = 2

#: Default LRU size cap [bytes].
DEFAULT_MAX_BYTES = 2 * 1024**3

#: Environment variable overriding the default store root.
ENV_STORE_DIR = "REPRO_STORE_DIR"

_MARKER_NAME = "store.json"

#: Process-wide temp-file counter: combined with the pid and thread
#: id it makes every in-flight write's temp name unique, even across
#: store handles sharing one directory.
_TMP_COUNTER = itertools.count()


def default_store_root() -> Path:
    """The store root: ``$REPRO_STORE_DIR``, else the user cache dir."""
    env = os.environ.get(ENV_STORE_DIR)
    if env:
        return Path(env).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home).expanduser() if cache_home else (
        Path.home() / ".cache"
    )
    return base / "psa-em-repro" / "store"


@dataclass
class StoreStats:
    """Snapshot of one store's contents plus this process's counters.

    Attributes
    ----------
    root:
        Store root directory.
    entries, total_bytes:
        On-disk object count and summed size.
    by_kind:
        ``{kind: (entries, bytes)}`` breakdown.
    max_bytes:
        Configured LRU cap.
    hits, misses, writes, evictions, corrupt_evictions:
        Process-local counters since this handle was opened.
    """

    root: str
    entries: int
    total_bytes: int
    by_kind: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    max_bytes: int = DEFAULT_MAX_BYTES
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    corrupt_evictions: int = 0

    def format(self) -> str:
        """Human-readable stats table."""
        lines = [
            f"store: {self.root}",
            f"  entries: {self.entries} "
            f"({self.total_bytes / 1e6:.1f} MB of "
            f"{self.max_bytes / 1e6:.0f} MB cap)",
        ]
        for kind in sorted(self.by_kind):
            count, size = self.by_kind[kind]
            lines.append(f"  {kind}: {count} entries, {size / 1e6:.1f} MB")
        lines.append(
            f"  session: {self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.evictions} evicted "
            f"({self.corrupt_evictions} corrupt)"
        )
        return "\n".join(lines)


class ArtifactStore:
    """Content-addressed artifact store rooted at one directory.

    Parameters
    ----------
    root:
        Store directory (created on demand).  None resolves
        ``$REPRO_STORE_DIR``, falling back to the user cache dir.
    max_bytes:
        LRU size cap enforced by :meth:`gc` and opportunistically
        after writes.
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_bytes < 1:
            raise StoreError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root).expanduser() if root else default_store_root()
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.corrupt_evictions = 0
        self._lock = threading.Lock()
        self._approx_bytes: Optional[int] = None
        self._check_marker()

    # -- layout ----------------------------------------------------------------

    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    def _path(self, kind: str, key: str) -> Path:
        if not kind or "/" in kind or kind.startswith("."):
            raise StoreError(f"invalid artifact kind {kind!r}")
        return self._objects / kind / key[:2] / f"{key}.npz"

    def _check_marker(self) -> None:
        marker = self.root / _MARKER_NAME
        if marker.exists():
            try:
                header = json.loads(marker.read_text())
                schema = (
                    header.get("schema")
                    if isinstance(header, dict)
                    else None
                )
            except (OSError, ValueError):
                schema = None
            if schema != SCHEMA_VERSION:
                # A different (or unreadable) schema: every entry is
                # stale — drop them rather than mis-serve old
                # payloads, and stamp the current schema so the next
                # handle does not wipe the store again.
                self.clear()
                self._write_marker()
        elif self.root.exists():
            self._write_marker()

    def _write_marker(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        marker = self.root / _MARKER_NAME
        tmp = self.root / (
            f".{_MARKER_NAME}.tmp-{os.getpid()}-{threading.get_ident()}-"
            f"{next(_TMP_COUNTER)}"
        )
        tmp.write_text(json.dumps({"schema": SCHEMA_VERSION}) + "\n")
        os.replace(tmp, marker)

    # -- object I/O ------------------------------------------------------------

    def put(
        self,
        kind: str,
        key: str,
        arrays: Dict[str, np.ndarray],
        meta: Dict[str, object],
    ) -> Path:
        """Persist one object atomically; returns the published path.

        ``meta`` must be JSON-serializable; array names must not
        collide with the reserved ``__meta__`` member.
        """
        if "__meta__" in arrays:
            raise StoreError("'__meta__' is a reserved array name")
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if not (self.root / _MARKER_NAME).exists():
            self._write_marker()
        header = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "meta": meta,
        }
        payload = dict(arrays)
        payload["__meta__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        tmp = path.parent / (
            f".tmp-{os.getpid()}-{threading.get_ident()}-"
            f"{next(_TMP_COUNTER)}.npz"
        )
        try:
            # ``np.savez_compressed``'s container at deflate level 1
            # (numpy's is 6): a record deflates in about a third of
            # the time for ~15% more bytes.
            with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
                for name, array in payload.items():
                    with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array(
                            member, np.asanyarray(array), allow_pickle=False
                        )
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            # A concurrent gc()/clear() already evicted the fresh
            # entry; the write itself succeeded — degrade to a future
            # cache miss instead of failing the producer.
            size = 0
        with self._lock:
            self.writes += 1
            if self._approx_bytes is not None:
                self._approx_bytes += size
        if self._size_estimate() > self.max_bytes:
            self.gc()
        return path

    def get(
        self,
        kind: str,
        key: str,
        decode: Optional[Callable[..., object]] = None,
    ):
        """Load one object; ``(meta, arrays)`` or None on miss.

        With ``decode``, returns ``decode(meta, arrays)`` instead.  A
        corrupted or mismatched entry — including one ``decode``
        rejects — is evicted and reported as a miss: the store never
        serves a payload it cannot validate.
        """
        path = self._path(kind, key)
        try:
            with np.load(path, allow_pickle=False) as archive:
                if "__meta__" not in archive:
                    raise StoreError(f"{path} has no object header")
                header = json.loads(
                    bytes(archive["__meta__"]).decode("utf-8")
                )
                if header.get("schema") != SCHEMA_VERSION:
                    raise StoreError(
                        f"unsupported object schema {header.get('schema')!r}"
                    )
                if header.get("kind") != kind:
                    raise StoreError(
                        f"object kind {header.get('kind')!r} != {kind!r}"
                    )
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name != "__meta__"
                }
            meta = header.get("meta", {})
            value = (meta, arrays) if decode is None else decode(meta, arrays)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except Exception:
            # Truncated zip, bad header, wrong schema/kind, a payload
            # the decoder rejects: evict.
            path.unlink(missing_ok=True)
            with self._lock:
                self.misses += 1
                self.evictions += 1
                self.corrupt_evictions += 1
                self._approx_bytes = None
            return None
        # LRU recency: a hit makes the entry newest.
        try:
            os.utime(path)
        except OSError:
            pass  # racing gc/clear; the loaded payload is still valid
        with self._lock:
            self.hits += 1
        return value

    def evict(self, kind: str, key: str) -> bool:
        """Remove one entry; True if something was deleted."""
        path = self._path(kind, key)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        with self._lock:
            self.evictions += 1
            self._approx_bytes = None
        return True

    # -- maintenance -----------------------------------------------------------

    def _scan(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) of every object, tolerant of races."""
        entries = []
        if not self._objects.exists():
            return entries
        for path in self._objects.rglob("*.npz"):
            if path.name.startswith(".tmp-"):
                continue
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _size_estimate(self) -> int:
        with self._lock:
            if self._approx_bytes is not None:
                return self._approx_bytes
        total = sum(size for _, size, _ in self._scan())
        with self._lock:
            self._approx_bytes = total
        return total

    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used entries down to the size cap.

        Returns ``(entries_evicted, bytes_freed)``.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap < 0:
            raise StoreError(f"gc cap must be >= 0, got {cap}")
        entries = sorted(self._scan())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        freed = 0
        for mtime, size, path in entries:
            if total - freed <= cap:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            evicted += 1
            freed += size
        with self._lock:
            self.evictions += evicted
            self._approx_bytes = total - freed
        return evicted, freed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for _, _, path in self._scan():
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        with self._lock:
            self.evictions += removed
            self._approx_bytes = 0
        return removed

    def stats(self) -> StoreStats:
        """Scan the store and snapshot counters."""
        by_kind: Dict[str, Tuple[int, int]] = {}
        total = 0
        count = 0
        for _, size, path in self._scan():
            kind = path.parent.parent.name
            entries, size_sum = by_kind.get(kind, (0, 0))
            by_kind[kind] = (entries + 1, size_sum + size)
            total += size
            count += 1
        with self._lock:
            return StoreStats(
                root=str(self.root),
                entries=count,
                total_bytes=total,
                by_kind=by_kind,
                max_bytes=self.max_bytes,
                hits=self.hits,
                misses=self.misses,
                writes=self.writes,
                evictions=self.evictions,
                corrupt_evictions=self.corrupt_evictions,
            )

    # -- typed views -----------------------------------------------------------

    def mapping(
        self, kind: str, context: Dict[str, object], codec: "Codec"
    ) -> "StoreMapping":
        """A persistent ``MutableMapping`` view bound to one context.

        The view plugs in anywhere the library accepts an in-memory
        memo (``record_cache`` arguments, the sweep feature cache):
        reads fall through memory → disk, writes go to both.
        """
        return StoreMapping(self, kind, context, codec)

    def records(self, chip: TestChip) -> "StoreMapping":
        """The chip's activity-record view, keyed ``(scenario, index)``.

        Records depend on the chip alone (key, config, floorplan), so
        the context deliberately omits any PSA: every consumer of the
        same chip shares one record namespace.
        """
        return self.mapping("record", {"chip": chip_fingerprint(chip)}, RecordCodec(chip))


class Codec:
    """Encode/decode one value type to/from named arrays + JSON meta."""

    def encode(
        self, value
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        raise NotImplementedError

    def decode(self, meta: Dict[str, object], arrays: Dict[str, np.ndarray]):
        raise NotImplementedError


class StoreMapping(MutableMapping):
    """Dict-compatible store view: memory layer over disk objects.

    Keys are arbitrary canonicalizable items (scenario/index tuples,
    span signatures); each maps to the content address
    ``digest({schema, kind, context, item})``.  Values decoded from
    disk are memoized, so repeated lookups return the *same object* —
    preserving identity-based reuse downstream (e.g. the engine's
    per-record EMF memo).

    ``__iter__``/``__len__`` cover the memory layer only (the store
    has no per-context index); consumers use ``get``/``[]=``, which is
    all the library's memo contracts require.  A long-running consumer
    bounds the memory layer with :meth:`release`, which keeps the disk
    entry; ``del`` evicts it.
    """

    def __init__(
        self,
        store: ArtifactStore,
        kind: str,
        context: Dict[str, object],
        codec: Codec,
    ):
        self.store = store
        self.kind = kind
        self.codec = codec
        self._memory: Dict[object, object] = {}
        # The address material ``{"code", "context", "item", "kind",
        # "schema"}`` serializes in that sorted-key order, and all but
        # the item is fixed per view: hash the JSON up to the item once
        # and finish a copy of that hash per lookup.
        self._head = hashlib.sha256(
            b'{"code":' + canonical_json(CODE_VERSION)
            + b',"context":' + canonical_json(context)
            + b',"item":'
        )
        self._tail = (
            b',"kind":' + canonical_json(kind)
            + b',"schema":' + canonical_json(KEY_SCHEMA) + b"}"
        )

    def address(self, item) -> str:
        """Content address of one item key.

        Equals ``digest({"schema": KEY_SCHEMA, "code": CODE_VERSION,
        "kind": kind, "context": context, "item": item})``.  The library
        version is part of the material: artifacts computed by one
        release never warm-start another (see
        :data:`repro.store.keys.CODE_VERSION`).
        """
        sha = self._head.copy()
        sha.update(canonical_json(item) + self._tail)
        return sha.hexdigest()

    def __getitem__(self, item):
        if item in self._memory:
            return self._memory[item]
        value = self.store.get(self.kind, self.address(item), self.codec.decode)
        if value is None:
            raise KeyError(item)
        self._memory[item] = value
        return value

    def __setitem__(self, item, value) -> None:
        self._memory[item] = value
        arrays, meta = self.codec.encode(value)
        self.store.put(self.kind, self.address(item), arrays, meta)

    def __delitem__(self, item) -> None:
        self._memory.pop(item, None)
        if not self.store.evict(self.kind, self.address(item)):
            raise KeyError(item)

    def release(self, item) -> None:
        """Drop ``item`` from the memory layer; its disk entry stays.

        The next lookup decodes it from disk again, a store hit.
        ``del`` is the eviction: it removes the disk entry too.
        """
        self._memory.pop(item, None)

    def __iter__(self) -> Iterator:
        return iter(self._memory)

    def __len__(self) -> int:
        return len(self._memory)


# -- codecs -------------------------------------------------------------------


class RecordCodec(Codec):
    """:class:`~repro.chip.power.ActivityRecord` ↔ one toggle matrix.

    A chip record is a list of ``(name, weights, toggles)`` factors
    whose weights the chip owns (:meth:`TestChip.factor_weights`), so
    an entry holds only what changes from trace to trace: every
    factor's toggles, stacked as one ``(n_factors, n_cycles)`` array,
    plus the factor names per group.  Decoding takes the weights back
    from the chip — the very objects a fresh simulation carries — and
    returns a record that builds its dense matrices only if something
    reads them.

    Record ``meta`` survives as JSON; top-level tuple values come back
    as tuples (matching how the chip constructs them).
    """

    def __init__(self, chip: TestChip):
        self.chip = chip

    def encode(self, record: ActivityRecord):
        parts: Dict[str, List[str]] = {}
        rows = []
        for group in ACTIVITY_GROUPS:
            for name, weights, toggles in record.factors.get(group, ()):
                expected = self.chip.factor_weights(name)
                if weights is not expected and not np.array_equal(weights, expected):
                    raise StoreError(f"factor {name!r} does not carry the chip's weights")
                parts.setdefault(group, []).append(name)
                rows.append(toggles)
        meta = {
            "format": "toggles",
            "parts": parts,
            "scenario": record.scenario,
            "record_meta": self._meta_to_json(record.meta),
        }
        return {"toggles": np.asarray(rows, dtype=float)}, meta

    def decode(self, meta, arrays) -> ActivityRecord:
        if meta.get("format") != "toggles":
            raise StoreError(f"unknown record format {meta.get('format')!r}")
        parts = meta["parts"]
        names = [name for group in ACTIVITY_GROUPS for name in parts.get(group, ())]
        toggles = arrays["toggles"]
        if toggles.shape != (len(names), self.chip.config.n_cycles):
            raise StoreError(
                f"toggles shape {toggles.shape} does not match "
                f"{len(names)} factors x {self.chip.config.n_cycles} cycles"
            )
        rows = iter(toggles)
        factors = {
            group: [
                (str(name), self.chip.factor_weights(name), next(rows))
                for name in parts[group]
            ]
            for group in ACTIVITY_GROUPS
            if parts.get(group)
        }
        return ActivityRecord(
            config=self.chip.config,
            scenario=str(meta["scenario"]),
            meta=self._meta_from_json(meta.get("record_meta")),
            factors=factors,
        )

    @staticmethod
    def _meta_to_json(meta) -> Optional[Dict[str, object]]:
        if meta is None:
            return None
        out = {}
        for key, value in meta.items():
            if isinstance(value, tuple):
                out[key] = {"__tuple__": list(value)}
            else:
                out[key] = value
        return out

    @staticmethod
    def _meta_from_json(meta) -> Optional[Dict[str, object]]:
        if meta is None:
            return None
        out = {}
        for key, value in meta.items():
            if isinstance(value, dict) and "__tuple__" in value:
                out[key] = tuple(value["__tuple__"])
            else:
                out[key] = value
        return out


class ArrayCodec(Codec):
    """Plain ndarray payloads (featurized spans, score maps...)."""

    def __init__(self, readonly: bool = False):
        self.readonly = readonly

    def encode(self, value):
        return {"data": np.asarray(value)}, {"format": "array"}

    def decode(self, meta, arrays) -> np.ndarray:
        if meta.get("format") != "array":
            raise StoreError(f"unknown array format {meta.get('format')!r}")
        data = arrays["data"]
        if self.readonly:
            data.flags.writeable = False
        return data
