"""Shared fixtures.

The chip + PSA assembly (coupling matrices in particular) is expensive,
so integration-level tests share one session-scoped context and a small
cache of activity records / traces.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.chip.testchip import TestChip
from repro.config import SimConfig
from repro.core.array import ProgrammableSensorArray
from repro.workloads.campaign import MeasurementCampaign, StreamSegment

#: Key used by every test chip.
TEST_KEY = bytes(range(16))

#: Committed detector timelines (see ``test_detector_golden.py``).
DETECTOR_GOLDEN = Path(__file__).parent / "data" / "detector_golden.json"


@pytest.fixture(scope="session")
def config() -> SimConfig:
    """The paper's default simulation configuration."""
    return SimConfig()


@pytest.fixture(scope="session")
def chip(config: SimConfig) -> TestChip:
    """One shared test chip."""
    return TestChip(TEST_KEY, config)


@pytest.fixture(scope="session")
def psa(chip: TestChip) -> ProgrammableSensorArray:
    """One shared sensor array (coupling matrix built once)."""
    return ProgrammableSensorArray(chip)


@pytest.fixture(scope="session")
def campaign(chip: TestChip, psa: ProgrammableSensorArray) -> MeasurementCampaign:
    """One shared campaign driver."""
    return MeasurementCampaign(chip, psa)


@pytest.fixture(scope="session")
def records(campaign: MeasurementCampaign):
    """Pre-simulated activity records for the common scenarios."""
    return {
        name: campaign.stream_records([StreamSegment(name, 2, 500)])
        for name in ("idle", "baseline", "T1", "T2", "T3", "T4", "T2_ref")
    }


@pytest.fixture(scope="session")
def amp_at():
    """``amp_at(spectrum, freq)``: amplitude [V] of the bin nearest ``freq``."""

    def at(spectrum, freq: float) -> float:
        return float(spectrum.amps[np.argmin(np.abs(spectrum.freqs - freq))])

    return at


@pytest.fixture(scope="session")
def switches_on():
    """``switches_on(grid)``: the crosspoints a :class:`PsaGrid` has on."""

    def on(grid) -> set:
        return {(int(i), int(j)) for i, j in zip(*np.nonzero(grid._state))}

    return on


@pytest.fixture(scope="session")
def detector_golden() -> dict:
    """The committed detector golden (timelines, pins, fixtures)."""
    return json.loads(DETECTOR_GOLDEN.read_text())


def _npy(header: str, payload: bytes, version: int = 1) -> bytes:
    """A ``.npy`` member with header dict text ``header`` (numpy's padding)."""
    text = header.encode("latin1")
    prefix = 10 if version == 1 else 12
    text += b" " * (-(prefix + len(text) + 1) % 64) + b"\n"
    if version == 1:
        return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text + payload
    return b"\x93NUMPY\x02\x00" + struct.pack("<I", len(text)) + text + payload


def _header(descr: str = "'<f8'", fortran: str = "False", shape: str = "(256,)") -> str:
    return f"{{'descr': {descr}, 'fortran_order': {fortran}, 'shape': {shape}, }}"


@pytest.fixture(scope="session")
def foreign_npy_members() -> dict:
    """256-sample ``.npy`` members numpy reads, in layouts ``save_traces`` never writes."""
    samples = np.random.default_rng(3).normal(size=256)
    return {
        "fortran order": _npy(_header(fortran="True"), samples.tobytes()),
        "big-endian f8": _npy(_header(descr="'>f8'"), samples.astype(">f8").tobytes()),
        "f4 samples": _npy(_header(descr="'<f4'"), samples.astype("<f4").tobytes()),
        "2-D shape": _npy(_header(shape="(16, 16)"), samples.tobytes()),
        "npy v2.0": _npy(_header(), samples.tobytes(), version=2),
    }


#: The member every damage below targets (not the first, so a replay
#: fails mid-stream, after its header read and first chunk).
_TARGET = "trace_00001.npy"


def _with_member(data: bytes, member: bytes) -> bytes:
    """``data`` rebuilt stored, with :data:`_TARGET` replaced (fresh CRCs)."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(data)) as source, zipfile.ZipFile(buffer, "w") as target:
        for name in source.namelist():
            target.writestr(name, member if name == _TARGET else source.read(name))
    return buffer.getvalue()


def _with_field(data: bytes, offset: int, value: int, fmt: str, central: bool) -> bytes:
    """``data`` with one field of :data:`_TARGET`'s local or central header set."""
    name = _TARGET.encode("ascii")
    if central:
        at = data.rfind(name) - zipfile.sizeCentralDir + offset
    else:
        at = data.find(name) - zipfile.sizeFileHeader + offset
    out = bytearray(data)
    struct.pack_into(fmt, out, at, value)
    return bytes(out)


def _encrypted(data: bytes) -> bytes:
    data = _with_field(data, 6, 0x0001, "<H", central=False)
    return _with_field(data, 8, 0x0001, "<H", central=True)


@pytest.fixture(scope="session")
def strict_damage(foreign_npy_members) -> dict:
    """Damage the strict trace reader refuses: name -> archive bytes -> bytes.

    Every case leaves the header member intact, so it surfaces on the
    read of a trace member.
    """
    damage = {
        name: (lambda member: lambda data: _with_member(data, member))(member)
        for name, member in foreign_npy_members.items()
    }
    damage.update(
        {
            "header length past the member end": lambda data: _with_member(
                data, b"\x93NUMPY\x01\x00" + struct.pack("<H", 0xFFFF) + b"{'descr'"
            ),
            "payload not shape x 8": lambda data: _with_member(
                data, _npy(_header(), bytes(8 * 255))
            ),
            "local name differs": lambda data: data.replace(
                _TARGET.encode("ascii"), b"trace_0000X.npy", 1
            ),
            "encrypted flag bit": _encrypted,
            # The central directory points the member's local header at
            # the archive's last bytes, too few to hold one.
            "truncated local header": lambda data: _with_field(
                data, 42, len(data) - 10, "<I", central=True
            ),
        }
    )
    return damage
