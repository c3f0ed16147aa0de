"""Trace archive I/O: save/load trace collections as ``.npz`` files.

The archive layout is flat and self-describing: each trace stores its
sample array plus a JSON metadata blob, so archives survive library
version changes and can be inspected with plain numpy (``np.load``).

Archives are written stored, not compressed: float64 noise shrinks by
only ~3% under zlib, and inflating it cost more than analysing it.
Readers accept stored and compressed (older) archives alike.

Every member is read with one strict ``.npy`` parser of the only
layout :func:`save_traces` writes: format version 1.0, ``'<f8'``
(samples) or ``'|u1'`` (the JSON header), ``fortran_order: False``,
a 1-D shape, and a payload of exactly shape x itemsize bytes.
Anything else is refused; neither numpy's header reader nor ``ast``
is involved, so concurrent decodes share no parser state.

An archive is read from its file or from its bytes already in memory
(``data=``), which is how ``repro serve`` decodes uploads.  Either
way its directory and JSON header are decoded once, and members are
read whole through ``zipfile`` (which checks each one's local header
and CRC-32) one at a time, so a replay consumer never holds more
than one member beyond its own chunk, however long the recording.
:class:`TraceArchive` is that reader; :func:`iter_traces` streams its
traces in bounded batches and :func:`load_traces` is the eager view.  Every decode failure (not
a zip, truncated, a bad CRC, a missing member, a malformed header, an
unsupported npy layout) raises :class:`~repro.errors.TraceIOError`.
"""

from __future__ import annotations

import io
import json
import re
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .errors import TraceIOError
from .traces import Trace

_FORMAT_VERSION = 1

#: Default traces per :func:`iter_traces` batch.
DEFAULT_READ_BATCH = 64

#: Fields of every trace-index entry in the header.
_ENTRY_FIELDS = frozenset({"key", "fs", "label", "scenario", "meta"})

#: What damaged bytes raise while an archive is decoded: not a zip or a
#: bad CRC (BadZipFile), a broken deflate stream (zlib.error), a cut
#: member (EOFError), bad npy/JSON/UTF-8 or sizes (ValueError), a
#: missing member (KeyError), and zip flag bits naming unsupported
#: features (NotImplementedError, and RuntimeError for "encrypted").
_DECODE_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, ValueError, KeyError,
    NotImplementedError, RuntimeError,
)

#: ``.npy`` format 1.0: magic, then a little-endian uint16 header length.
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_PREFIX = len(_NPY_MAGIC) + 2
#: The one header ``np.save`` writes for a 1-D C-order float64 or
#: uint8 array (keys sorted, space-padded, newline-terminated).
_NPY_HEADER = re.compile(
    rb"\{'descr': '(<f8|\|u1)', 'fortran_order': False, "
    rb"'shape': \((\d{1,18}),\), \} *\n"
)
_NPY_DTYPES = {b"<f8": np.dtype("<f8"), b"|u1": np.dtype("u1")}


def save_traces(path: "str | Path", traces: Sequence[Trace]) -> Path:
    """Write traces to a stored ``.npz`` archive; returns the path written."""
    if not traces:
        raise TraceIOError("refusing to write an empty trace archive")
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    arrays: Dict[str, np.ndarray] = {}
    index: List[Dict[str, object]] = []
    for number, trace in enumerate(traces):
        key = f"trace_{number:05d}"
        arrays[key] = trace.samples
        meta = dict(trace.meta)
        try:
            json.dumps(meta)
        except TypeError as exc:
            raise TraceIOError(
                f"trace {number} metadata is not JSON-serializable: {exc}"
            ) from exc
        index.append(
            {
                "key": key,
                "fs": trace.fs,
                "label": trace.label,
                "scenario": trace.scenario,
                "meta": meta,
            }
        )
    header = {"version": _FORMAT_VERSION, "traces": index}
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)
    return path


@contextmanager
def _decoding(path: Path) -> Iterator[None]:
    """Turn a damaged archive's decode error into :class:`TraceIOError`."""
    try:
        yield
    except _DECODE_ERRORS as exc:
        raise TraceIOError(
            f"{path} is not a readable trace archive: {exc}"
        ) from exc


def _npy_array(member: bytes, name: str) -> np.ndarray:
    """The 1-D array of one ``.npy`` member, a read-only view of it.

    Only the layout :func:`save_traces` writes is accepted (see
    :data:`_NPY_HEADER`), and the payload must be exactly the size its
    header declares: a damaged header can neither shorten nor retype a
    trace, and nothing larger than the member is ever allocated.
    """
    if len(member) < _NPY_PREFIX or member[: len(_NPY_MAGIC)] != _NPY_MAGIC:
        raise ValueError(f"{name} is not an npy v1.0 member")
    end = _NPY_PREFIX + (member[8] | member[9] << 8)
    if end > len(member):
        raise ValueError(f"{name}: npy header runs past the member end")
    match = _NPY_HEADER.fullmatch(member, _NPY_PREFIX, end)
    if match is None:
        raise ValueError(
            f"{name}: npy header is not a 1-D C-order '<f8' or '|u1' "
            f"array: {bytes(member[_NPY_PREFIX:end][:80])!r}"
        )
    dtype = _NPY_DTYPES[match[1]]
    expected = int(match[2]) * dtype.itemsize
    if len(member) - end != expected:
        raise ValueError(
            f"{name}: payload is {len(member) - end} bytes, its header "
            f"declares {expected}"
        )
    return np.frombuffer(member, dtype=dtype, offset=end)


def _valid_entry(entry: object) -> bool:
    """Whether one trace-index entry has every field, correctly typed."""
    return (
        isinstance(entry, dict)
        and _ENTRY_FIELDS <= entry.keys()
        and isinstance(entry["key"], str)
        and isinstance(entry["fs"], (int, float))
        and not isinstance(entry["fs"], bool)
        and entry["fs"] > 0
        and isinstance(entry["label"], str)
        and isinstance(entry["scenario"], str)
        and isinstance(entry["meta"], dict)
    )


class TraceArchive:
    """A trace archive opened for reading.

    The zip directory and the JSON header are decoded once, when the
    archive is opened; :meth:`samples` then decodes the traces member
    by member, through ``zipfile``, so memory stays bounded by one
    member however long the recording.

    Parameters
    ----------
    path:
        Archive written by :func:`save_traces`; with ``data``, only the
        archive's name in error messages.
    data:
        The archive's bytes; nothing is read from ``path`` then.

    Raises
    ------
    TraceIOError
        A missing file, or a damaged zip directory or header.
    """

    def __init__(self, path: "str | Path", *, data: Optional[bytes] = None):
        self.path = Path(path)
        if data is None and not self.path.exists():
            raise TraceIOError(f"no trace archive at {self.path}")
        self._memory = None
        if data is not None:
            with _decoding(self.path):
                self._memory = zipfile.ZipFile(io.BytesIO(data))
        with self._zip() as archive:
            self.header = self._parse_header(archive)
        #: The header's trace index, in stored order.
        self.entries: List[Dict[str, object]] = self.header["traces"]

    @contextmanager
    def _zip(self) -> Iterator[zipfile.ZipFile]:
        if self._memory is not None:
            yield self._memory
            return
        with _decoding(self.path):
            archive = zipfile.ZipFile(self.path)
        with archive:
            yield archive

    def _array(self, archive: zipfile.ZipFile, name: str) -> np.ndarray:
        # Read whole, so that zipfile checks the CRC.
        return _npy_array(archive.read(name), name)

    def _parse_header(self, archive: zipfile.ZipFile) -> Dict[str, object]:
        if "__header__.npy" not in archive.NameToInfo:
            raise TraceIOError(f"{self.path} is not a repro trace archive")
        with _decoding(self.path):
            header = json.loads(
                self._array(archive, "__header__.npy").tobytes().decode("utf-8")
            )
        if not isinstance(header, dict) or header.get("version") != _FORMAT_VERSION:
            version = header.get("version") if isinstance(header, dict) else None
            raise TraceIOError(f"unsupported archive version {version!r}")
        entries = header.get("traces")
        if (
            not isinstance(entries, list)
            or not entries
            or not all(_valid_entry(entry) for entry in entries)
        ):
            raise TraceIOError(f"{self.path} has a malformed trace index")
        return header

    def samples(self) -> Iterator[np.ndarray]:
        """Each trace's samples, in stored order, as read-only 1-D arrays.

        Each is a view of its member's bytes; copy what must be
        written.  Damaged bytes raise :class:`TraceIOError` on the
        ``next()`` that reads them.
        """
        with self._zip() as archive:
            for entry in self.entries:
                with _decoding(self.path):
                    array = self._array(archive, f"{entry['key']}.npy")
                yield array


def read_header(
    path: "str | Path", *, data: Optional[bytes] = None
) -> Dict[str, object]:
    """Read and validate an archive's header without loading samples.

    With ``data``, the archive is those bytes and ``path`` only names
    it in error messages.
    """
    return TraceArchive(path, data=data).header


def trace_count(path: "str | Path") -> int:
    """Traces stored in an archive (header only, no sample reads)."""
    return len(read_header(path)["traces"])


def iter_traces(
    path: "str | Path",
    batch: int = DEFAULT_READ_BATCH,
    *,
    data: Optional[bytes] = None,
) -> Iterator[List[Trace]]:
    """Yield an archive's traces in bounded batches, in stored order.

    A streamed read over :class:`TraceArchive`: each yielded list
    holds at most ``batch`` traces, and only those traces' members are
    read while the batch is being built — a multi-gigabyte archive
    reads with bounded memory.  Every trace's samples are its own
    writable array.

    Parameters
    ----------
    path:
        Archive written by :func:`save_traces`; with ``data``, only the
        archive's name in error messages.
    batch:
        Maximum traces per yielded list.
    data:
        The archive's bytes, already in memory (e.g. an upload's
        request body); nothing is read from ``path`` then.

    Raises
    ------
    TraceIOError
        At call time (not first iteration) for a bad batch size or a
        missing archive file; damaged bytes surface on the ``next()``
        that reads them (the archive is opened exactly once).
    """
    if batch < 1:
        raise TraceIOError(f"batch must be >= 1, got {batch}")
    path = Path(path)
    if data is None and not path.exists():
        raise TraceIOError(f"no trace archive at {path}")
    return _iter_traces(path, batch, data)


def _iter_traces(
    path: Path, batch: int, data: Optional[bytes]
) -> Iterator[List[Trace]]:
    archive = TraceArchive(path, data=data)
    entries = archive.entries
    samples = archive.samples()
    for start in range(0, len(entries), batch):
        yield [
            Trace(
                samples=np.array(array, dtype=float),
                fs=float(entry["fs"]),
                label=entry["label"],
                scenario=entry["scenario"],
                meta=dict(entry["meta"]),
            )
            for entry, array in zip(entries[start : start + batch], samples)
        ]


def load_traces(path: "str | Path") -> List[Trace]:
    """Read back an archive written by :func:`save_traces`.

    Eager view over :func:`iter_traces` — same traces, same order,
    one flat list.
    """
    return [trace for chunk in iter_traces(path) for trace in chunk]
