"""Content keys: canonical fingerprints of simulation provenance.

Every artifact the store holds is fully determined by simulation
inputs — the chip (key, config, floorplan), the measurement front-end
(PSA geometry, amplifier, analyzer, ADC) and the workload identity
(scenario name, trace index).  A *fingerprint* is a JSON-able,
deterministic description of one of those inputs; hashing the
canonical JSON of the assembled key material gives the content
address.

Floats are encoded via :meth:`float.hex` so the key material is exact
(no repr rounding, no locale surprises) and stable across platforms
and interpreter runs.  Execution-only engine parameters (thread
counts, chunk sizes) are deliberately **excluded**: the engine's
determinism contract pins rendered output bit-for-bit across thread
splits and chunkings, so a store entry is valid no matter how it was
executed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Sequence

import numpy as np

from .._version import __version__
from ..chip.testchip import TestChip
from ..config import SimConfig
from ..errors import StoreError
from ..instruments.adc import AdcSpec
from ..instruments.spectrum_analyzer import SpectrumAnalyzer

#: Bump when the key material layout changes (invalidates every entry).
#: 2: T4's supply droop reads per-module totals (its toggles moved).
KEY_SCHEMA = 2

#: Library version folded into every content address.  Artifacts are
#: only as reproducible as the code that computed them, so a release
#: that changes rendered values must not warm-start from an older
#: release's cache: bumping the package version (or, for a
#: mid-development simulator change, ``KEY_SCHEMA``) retires every
#: prior entry.
CODE_VERSION = __version__


def _float(value: float) -> str:
    """Exact, platform-stable encoding of one float."""
    return float(value).hex()


def canonical(obj):
    """Normalize key material into a deterministic JSON-able structure.

    Floats become exact hex strings, numpy scalars/arrays become
    nested lists of those, tuples become lists, dict keys are emitted
    in sorted order by :func:`digest`.  Anything else must already be
    JSON-serializable.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return _float(obj)
    if isinstance(obj, (np.floating,)):
        return _float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [canonical(item) for item in obj.tolist()]
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise StoreError(
                    f"key material dict keys must be strings, got {key!r}"
                )
            out[key] = canonical(value)
        return out
    raise StoreError(f"cannot canonicalize key material of type {type(obj)}")


def canonical_json(material) -> bytes:
    """The exact bytes :func:`digest` hashes: sorted-key compact JSON."""
    return json.dumps(
        canonical(material), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def digest(material) -> str:
    """SHA-256 hex digest of canonicalized key material."""
    return hashlib.sha256(canonical_json(material)).hexdigest()


# -- fingerprints of the simulation inputs ----------------------------------


def config_fingerprint(config: SimConfig) -> Dict[str, object]:
    """Key material of a :class:`~repro.config.SimConfig`.

    Covers every field that changes rendered values.
    """
    return {
        "f_clock": config.f_clock,
        "oversample": config.oversample,
        "n_cycles": config.n_cycles,
        "block_cycles": config.block_cycles,
        "vdd": config.vdd,
        "temperature_c": config.temperature_c,
        "seed": config.seed,
    }


def floorplan_fingerprint(floorplan) -> Dict[str, object]:
    """Key material of a floorplan: grid plus every module placement."""
    return {
        "die_size": floorplan.die_size,
        "n_regions_side": floorplan.n_regions_side,
        "placements": {
            module: [
                [rect.x0, rect.y0, rect.x1, rect.y1]
                for rect in rects
            ]
            for module, rects in sorted(floorplan.placements.items())
        },
    }


def chip_fingerprint(chip: TestChip) -> Dict[str, object]:
    """Key material of a test chip: AES key, config and floorplan."""
    return {
        "key": chip.key,
        "config": config_fingerprint(chip.config),
        "floorplan": floorplan_fingerprint(chip.floorplan),
    }


def _receiver_fingerprint(receiver) -> Dict[str, object]:
    return {
        "z": receiver.z,
        "r_series": receiver.r_series,
        "inductance": receiver.inductance,
        "ambient_gain": receiver.ambient_gain,
        "gain_jitter": receiver.gain_jitter,
        "turns": [
            [turn.x0, turn.y0, turn.x1, turn.y1] for turn in receiver.turns
        ],
    }


def amplifier_fingerprint(amplifier) -> Dict[str, object]:
    """Key material of the measurement front-end amplifier."""
    return {
        "gain_db": amplifier.gain_db,
        "f_highpass": amplifier.f_highpass,
        "f_lowpass": amplifier.f_lowpass,
        "input_noise_density": amplifier.input_noise_density,
        "input_impedance": amplifier.input_impedance,
    }


def psa_fingerprint(psa) -> Dict[str, object]:
    """Key material of a sensor array's rendering chain.

    Receiver geometry (turn rectangles, height, electrical
    parameters), the coupling calibration and the amplifier — i.e.
    everything between an activity record and a voltage trace that is
    not already covered by the chip fingerprint.
    """
    return {
        "n_sensors": psa.n_sensors,
        "coupling_scale": psa.coupling_scale,
        "receivers": [
            _receiver_fingerprint(receiver)
            for receiver in psa.coupling.receivers
        ],
        "amplifier": amplifier_fingerprint(psa.amplifier),
    }


def campaign_fingerprint(campaign) -> Dict[str, object]:
    """Key material of a measurement campaign (chip + PSA)."""
    return {
        "chip": chip_fingerprint(campaign.chip),
        "psa": psa_fingerprint(campaign.psa),
    }


def analyzer_fingerprint(analyzer: SpectrumAnalyzer) -> Dict[str, object]:
    """Key material of the spectrum-analyzer display settings."""
    return {
        "f_lo": analyzer.f_lo,
        "f_hi": analyzer.f_hi,
        "n_points": analyzer.n_points,
    }


def adc_fingerprint(adc: AdcSpec) -> Dict[str, object]:
    """Key material of an ADC front-end."""
    return {"n_bits": adc.n_bits, "full_scale": adc.full_scale}


def sensors_fingerprint(sensors: Sequence[int]) -> list:
    """Key material of a monitored-sensor selection."""
    return [int(sensor) for sensor in sensors]
