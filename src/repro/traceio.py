"""Trace archive I/O: save/load trace collections as ``.npz`` files.

The archive layout is flat and self-describing: each trace stores its
sample array plus a JSON metadata blob, so archives survive library
version changes and can be inspected with plain numpy (``np.load``).

Archives are written stored, not compressed: float64 noise shrinks by
only ~3% under zlib, and inflating it cost more than analysing it.
Readers accept stored and compressed (older) archives alike.

Reading is streamed: :func:`iter_traces` walks the archive in bounded
batches, reading one member per trace, so a replay consumer never
materializes more than one batch of samples.  An archive is read from
its file or from its bytes already in memory (``data=``), which is how
``repro serve`` decodes uploads.  Every decode failure (not a zip,
truncated, a bad CRC, a missing member, a malformed header) raises
:class:`~repro.errors.TraceIOError`.  :func:`load_traces` is the eager
view over the same iterator.
"""

from __future__ import annotations

import io
import json
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
#: missing member (KeyError), mistyped header fields (TypeError), and
#: zip flag bits naming unsupported features (NotImplementedError, and
#: RuntimeError for "encrypted").
_DECODE_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, ValueError, KeyError,
    TypeError, NotImplementedError, RuntimeError,
)

#: Header readers of the ``.npy`` format versions ``np.savez`` writes.
_NPY_HEADERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


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


def _open(path: Path, data: Optional[bytes]) -> zipfile.ZipFile:
    """The archive at ``path``, or the one held in ``data``."""
    if data is None and not path.exists():
        raise TraceIOError(f"no trace archive at {path}")
    with _decoding(path):
        return zipfile.ZipFile(path if data is None else io.BytesIO(data))


def _read_array(archive: zipfile.ZipFile, key: str) -> np.ndarray:
    """One ``.npy`` member, read whole so that its CRC is checked.

    ``np.load`` stops reading a member where its npy header says the
    array ends, so a damaged header could shorten or retype a trace
    without the CRC ever being checked.  Viewing the whole member's
    payload also refuses a header that promises more data than the
    member holds, before anything that large is allocated.
    """
    raw = archive.read(f"{key}.npy")
    stream = io.BytesIO(raw)
    shape, fortran_order, dtype = _NPY_HEADERS[np.lib.format.read_magic(stream)](stream)
    payload = np.frombuffer(raw, dtype=dtype, offset=stream.tell())
    return payload.reshape(shape, order="F" if fortran_order else "C").copy()


def _parse_header(archive: zipfile.ZipFile, path: Path) -> Dict[str, object]:
    """Validate and decode the header of an open archive."""
    if "__header__.npy" not in archive.namelist():
        raise TraceIOError(f"{path} is not a repro trace archive")
    with _decoding(path):
        header = json.loads(_read_array(archive, "__header__").tobytes().decode("utf-8"))
    if not isinstance(header, dict) or header.get("version") != _FORMAT_VERSION:
        version = header.get("version") if isinstance(header, dict) else None
        raise TraceIOError(f"unsupported archive version {version!r}")
    entries = header.get("traces")
    if (
        not isinstance(entries, list)
        or not entries
        or not all(
            isinstance(entry, dict) and _ENTRY_FIELDS <= entry.keys()
            for entry in entries
        )
    ):
        raise TraceIOError(f"{path} has a malformed trace index")
    return header


def read_header(
    path: "str | Path", *, data: Optional[bytes] = None
) -> Dict[str, object]:
    """Read and validate an archive's header without loading samples.

    With ``data``, the archive is those bytes and ``path`` only names
    it in error messages.
    """
    path = Path(path)
    with _open(path, data) as archive:
        return _parse_header(archive, path)


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

    The streaming read behind :class:`repro.runtime.ReplaySource`:
    each yielded list holds at most ``batch`` traces, and only those
    traces' members are read while the batch is being built — a
    multi-gigabyte archive replays with bounded memory.

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
    with _open(path, data) as archive:
        entries = _parse_header(archive, path)["traces"]
        for start in range(0, len(entries), batch):
            with _decoding(path):
                chunk = [
                    Trace(
                        samples=_read_array(archive, str(entry["key"])),
                        fs=float(entry["fs"]),
                        label=str(entry["label"]),
                        scenario=str(entry["scenario"]),
                        meta=dict(entry["meta"]),
                    )
                    for entry in entries[start : start + batch]
                ]
            yield chunk


def load_traces(path: "str | Path") -> List[Trace]:
    """Read back an archive written by :func:`save_traces`.

    Eager view over :func:`iter_traces` — same traces, same order,
    one flat list.
    """
    return [trace for chunk in iter_traces(path) for trace in chunk]
