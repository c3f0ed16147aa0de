"""Coupling matrices and EMF synthesis.

``CouplingMatrix`` maps per-region currents to flux linkage in every
receiver (PSA coils, probes, single coil); :func:`emf_rfft` turns an
:class:`~repro.chip.power.ActivityRecord` into the induced-voltage
spectrum of every receiver: the per-cycle charge train convolved
(circularly, on the trace's FFT grid) with the differentiated current
kernel.  It is the one EMF synthesis the program has.

Two throughput mechanisms live here because this is where the physics
is computed:

* a **content-keyed geometry cache** — the flux-integral matrices
  depend only on (die grid, receiver turn geometry, calibration
  scales), so identical tuples are computed once per process no
  matter how many ``CouplingMatrix`` instances are built (administered
  through :mod:`repro.engine.cache`);
* a **spectral EMF path** (:func:`emf_rfft`) — the per-cycle charge
  train is an impulse train on the fast-time grid, so its DFT is the
  cycle-rate DFT of the charge amplitudes tiled across the trace bins;
  the kernel convolution becomes a cached bin-wise product.  This is
  what the batched :class:`repro.engine.MeasurementEngine` renders
  from.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip.floorplan import DIE_SIZE, POWER_STRIPES, REGION_LOOP_AREA, Floorplan, Rect
from ..chip.power import ActivityRecord, charge_per_toggle, emf_kernel
from ..config import SimConfig
from ..errors import ConfigError
from .loops import turns_flux_factor

#: Effective area of the package/bond-wire supply loop [m^2].  The
#: total chip current returns through bondwires and the package plane,
#: forming a die-scale loop — the dominant source for external probes.
BOND_LOOP_AREA = 3.0e-6

#: Height of the bond-loop's equivalent dipole below the die surface [m].
BOND_LOOP_Z = -0.4e-3

#: Process-wide cache of built coupling geometry, keyed by content
#: (see :func:`coupling_geometry_key`).  Values are the read-only
#: ``(matrix, bond_row)`` pair shared by every CouplingMatrix whose
#: inputs hash to the same key.
_GEOMETRY_CACHE: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
_GEOMETRY_HITS = 0
_GEOMETRY_MISSES = 0


def coupling_geometry_key(
    floorplan: Floorplan,
    receivers: Sequence["Receiver"],
    loop_area: float,
    scale: float,
    bond_scale: float,
    return_fraction: float,
) -> str:
    """Content key of a coupling-geometry computation.

    Covers everything the flux matrices depend on: the region grid and
    power-stripe layout, each receiver's turn rectangles and height,
    and the calibration scales.  Module *placements* are deliberately
    excluded — the geometry matrices do not depend on what logic sits
    in a region, so chips that differ only in floorplan contents share
    one computation.
    """
    h = hashlib.blake2b(digest_size=16)

    def _floats(*values: float) -> None:
        for value in values:
            h.update(float(value).hex().encode("ascii"))

    _floats(floorplan.die_size)
    h.update(int(floorplan.n_regions_side).to_bytes(4, "little"))
    h.update(np.ascontiguousarray(POWER_STRIPES, dtype=float).tobytes())
    _floats(loop_area, scale, bond_scale, return_fraction)
    for receiver in receivers:
        _floats(receiver.z)
        for turn in receiver.turns:
            _floats(turn.x0, turn.y0, turn.x1, turn.y1)
    return h.hexdigest()


def coupling_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the geometry cache."""
    return {
        "hits": _GEOMETRY_HITS,
        "misses": _GEOMETRY_MISSES,
        "entries": len(_GEOMETRY_CACHE),
    }


def clear_coupling_cache() -> None:
    """Drop every cached coupling geometry (mainly for tests)."""
    _GEOMETRY_CACHE.clear()


@dataclass(frozen=True)
class Receiver:
    """A flux-sensing structure (coil/probe).

    Attributes
    ----------
    name:
        Identifier, e.g. ``"psa_sensor_10"`` or ``"langer_lf1"``.
    turns:
        Enclosed rectangle of each series turn.
    z:
        Height of the sensing plane above the switching layer [m].
    r_series:
        Series resistance of the winding (wire + switches) [ohm].
    inductance:
        Series self-inductance estimate [H].
    ambient_gain:
        Effective area [m^2] multiplying the ambient field pickup
        (large for external probes, tiny for shielded on-chip coils).
    gain_jitter:
        Relative per-measurement gain drift (1-sigma).  External probes
        are repositioned between captures and their fixtures drift;
        fabricated on-chip coils have none.  This drift is the dominant
        reason conventional probe statistics need thousands of traces.
    """

    name: str
    turns: List[Rect]
    z: float
    r_series: float
    inductance: float = 0.0
    ambient_gain: float = 0.0
    gain_jitter: float = 0.0


class CouplingMatrix:
    """Flux-linkage matrix between floorplan regions and receivers.

    Parameters
    ----------
    floorplan:
        Provides the dipole-pair source geometry.
    receivers:
        Sensing structures.
    loop_area:
        Effective supply-loop area per region [m^2] (dipole moment per
        ampere).
    scale:
        Dimensionless absolute-coupling calibration applied uniformly
        to the region-dipole matrix (see :mod:`repro.calibration`);
        relative comparisons between receivers are unaffected.
    bond_scale:
        Calibration of the package/bond-loop coupling (the global
        total-current term).
    return_fraction:
        Weight of the local return pole (see
        :data:`repro.calibration.RETURN_FRACTION`).
    """

    def __init__(
        self,
        floorplan: Floorplan,
        receivers: Sequence[Receiver],
        loop_area: float = REGION_LOOP_AREA,
        scale: float = 1.0,
        bond_scale: float | None = None,
        return_fraction: float | None = None,
    ):
        if not receivers:
            raise ConfigError("need at least one receiver")
        if scale <= 0:
            raise ConfigError(f"coupling scale must be positive, got {scale}")
        from ..calibration import BOND_COUPLING_SCALE, RETURN_FRACTION

        self.floorplan = floorplan
        self.receivers = list(receivers)
        self.loop_area = loop_area
        self.scale = scale
        self.bond_scale = (
            BOND_COUPLING_SCALE if bond_scale is None else bond_scale
        )
        self.return_fraction = (
            RETURN_FRACTION if return_fraction is None else return_fraction
        )
        if not 0.0 <= self.return_fraction <= 1.0:
            raise ConfigError("return_fraction must be within [0, 1]")
        global _GEOMETRY_HITS, _GEOMETRY_MISSES
        key = coupling_geometry_key(
            floorplan,
            self.receivers,
            self.loop_area,
            self.scale,
            self.bond_scale,
            self.return_fraction,
        )
        cached = _GEOMETRY_CACHE.get(key)
        if cached is None:
            _GEOMETRY_MISSES += 1
            cached = (self._build(), self._build_bond_row())
            _GEOMETRY_CACHE[key] = cached
        else:
            _GEOMETRY_HITS += 1
        self.matrix, self.bond_row = cached
        # Per-instance scratch of the low-rank EMF synthesis: maps a
        # factor-name tuple to (weights, projection rows, weight sums),
        # see _module_rows.
        self._rows_cache: Dict[
            Tuple[str, ...], Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray]
        ] = {}

    def _build(self) -> np.ndarray:
        """Region-dipole flux matrix, with area smearing.

        A region's current is distributed, not a point: each source
        pole is averaged over a 2x2 sample grid inside its region, and
        each return pole over the same span along its stripe.  The
        smearing removes the artificial sensitivity of thin-loop flux
        to a point dipole grazing a coil wire.
        """
        sources, returns = self.floorplan.dipole_pairs()
        quarter = self.floorplan.region_size / 4.0
        source_offsets = np.array(
            [[-quarter, -quarter], [quarter, -quarter],
             [-quarter, quarter], [quarter, quarter]]
        )
        return_offsets = np.array(
            [[0.0, -quarter], [0.0, quarter]]
        )
        rows = []
        for receiver in self.receivers:
            flux_pos = np.zeros(sources.shape[0])
            for offset in source_offsets:
                flux_pos += turns_flux_factor(
                    receiver.turns, receiver.z, sources + offset, 0.0
                )
            flux_pos /= len(source_offsets)
            flux_neg = np.zeros(returns.shape[0])
            for offset in return_offsets:
                flux_neg += turns_flux_factor(
                    receiver.turns, receiver.z, returns + offset, 0.0
                )
            flux_neg /= len(return_offsets)
            rows.append(
                (flux_pos - self.return_fraction * flux_neg)
                * self.loop_area
                * self.scale
            )
        matrix = np.asarray(rows)
        matrix.setflags(write=False)
        return matrix

    def _build_bond_row(self) -> np.ndarray:
        """Per-receiver flux linkage with the package loop [Wb/A]."""
        center = np.array([[DIE_SIZE / 2.0, DIE_SIZE / 2.0]])
        row = np.zeros(len(self.receivers))
        for index, receiver in enumerate(self.receivers):
            factor = turns_flux_factor(receiver.turns, receiver.z, center, BOND_LOOP_Z)
            row[index] = factor[0] * BOND_LOOP_AREA * self.bond_scale
        row.setflags(write=False)
        return row

    @property
    def n_receivers(self) -> int:
        """Number of receivers."""
        return len(self.receivers)


class CouplingStack:
    """A read-only row concatenation of coupling matrices.

    The batched engine renders whatever set of receivers it is handed.
    A stack lets one render cover *independently synthesized* coils —
    each part keeps its own content-cached :class:`CouplingMatrix`
    (built once per distinct coil geometry, process-wide), and the
    stack simply presents their receivers as one list.

    EMF synthesis (:func:`emf_rfft`) delegates to each part rather than
    multiplying a concatenated matrix: BLAS matmul results differ in
    the last bits between a 1-row and an n-row operand, so delegation
    is what makes a stacked render bit-identical to rendering every
    part on its own (the contract the adaptive scanner and quadrant
    refinement rely on).

    Parameters
    ----------
    parts:
        Coupling matrices to stack, in receiver order.  Receiver names
        must be unique across the stack (they name RNG streams).
    """

    def __init__(self, parts: Sequence[CouplingMatrix]):
        if not parts:
            raise ConfigError("need at least one coupling matrix to stack")
        self.parts = list(parts)
        self.receivers: List[Receiver] = [
            receiver for part in self.parts for receiver in part.receivers
        ]
        names = [receiver.name for receiver in self.receivers]
        if len(set(names)) != len(names):
            duplicate = next(n for n in names if names.count(n) > 1)
            raise ConfigError(
                f"duplicate receiver name {duplicate!r} in coupling stack"
            )

    @property
    def n_receivers(self) -> int:
        """Total receivers across every stacked part."""
        return len(self.receivers)


def _module_rows(coupling: CouplingMatrix, parts: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Per-module projections ``matrix @ weights`` and weight sums.

    Returns the ``(n_receivers, n_modules)`` projection rows and the
    ``(n_modules,)`` weight totals (the bond term's per-module
    charge share) of the factors ``parts``.  Activity factors reuse the
    same weight vectors across every record of a chip, so both are
    computed once per (coupling, factor names); the cached weights
    objects are identity-checked to stay safe against a name collision
    with different contents.
    """
    names = tuple(name for name, _, _ in parts)
    weights = tuple(weights for _, weights, _ in parts)
    cached = coupling._rows_cache.get(names)
    if cached is not None and all(a is b for a, b in zip(cached[0], weights)):
        return cached[1], cached[2]
    rows = np.stack([coupling.matrix @ w for w in weights], axis=1)
    sums = np.array([float(w.sum()) for w in weights])
    coupling._rows_cache[names] = (weights, rows, sums)
    return rows, sums


#: A record's charge trains per clock phase: ``(parts, trains)`` with
#: ``trains`` one row per factor, or ``None`` for a phase without one.
_Charges = Tuple[Tuple[Sequence, Optional[np.ndarray]], ...]


def _charge_trains(
    record: ActivityRecord,
    switch_cap: float | None,
    basis: Optional[np.ndarray],
) -> _Charges:
    """Per-module charge trains of the rising and falling phases.

    Each train is ``toggles * q_per_toggle``, stacked one row per
    factor; with ``basis`` (``(n_cycles, m)``) the stack is mapped onto
    its ``m`` coefficients.  They depend on the record alone, so one
    computation serves every receiver set the record renders through.
    """
    from ..chip.power import MEAN_SWITCH_CAP

    cap = MEAN_SWITCH_CAP if switch_cap is None else switch_cap
    q_per_toggle = charge_per_toggle(record.config.vdd, cap)
    factors = record.factors
    out = []
    for parts in (
        list(factors.get("main", ())) + list(factors.get("trojan_rising", ())),
        list(factors.get("trojan", ())),
    ):
        trains = None
        if parts:
            trains = np.stack([toggles * q_per_toggle for _, _, toggles in parts])
            if basis is not None:
                trains = trains @ basis
        out.append((parts, trains))
    return tuple(out)


def _amplitudes(
    coupling: CouplingMatrix,
    charges: _Charges,
    config: SimConfig,
    basis: Optional[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-receiver per-cycle charge amplitudes ``(rising, falling)``.

    Both are ``(n_receivers, n_cycles)`` matrices combining the
    region-dipole coupling with the global package-loop term; the
    falling matrix is ``None`` when the record carries no falling-phase
    (Trojan payload) factor at all.

    The record's activity is a sum of per-module ``weights x toggles``
    outer products (:attr:`ActivityRecord.factors`), so the region
    matmul collapses to one cached projection per module applied to the
    record's :func:`_charge_trains`.  With ``basis``, an ``(n_cycles,
    m)`` matrix the trains were mapped onto (the cycle DFT at a few
    bins, say), the amplitudes are linear in the trains, so the result
    is ``amplitudes @ basis`` without the ``n_cycles``-wide matrices.
    """

    def assemble(parts, trains) -> Optional[np.ndarray]:
        if not parts:
            return None
        rows, sums = _module_rows(coupling, parts)
        if basis is not None:
            # All modules at once: (receivers x modules) @ (modules x m).
            return rows @ trains + np.outer(coupling.bond_row, sums @ trains)
        total = np.zeros((coupling.n_receivers, config.n_cycles))
        bond_cycles = np.zeros(config.n_cycles)
        for index, charge in enumerate(trains):
            total += np.outer(rows[:, index], charge)
            bond_cycles += sums[index] * charge
        total += np.outer(coupling.bond_row, bond_cycles)
        return total

    (rising_parts, rising_trains), (falling_parts, falling_trains) = charges
    rising_q = assemble(rising_parts, rising_trains)
    if rising_q is None:
        width = config.n_cycles if basis is None else basis.shape[1]
        rising_q = np.zeros(
            (coupling.n_receivers, width), dtype=float if basis is None else complex
        )
    return rising_q, assemble(falling_parts, falling_trains)


# -- spectral EMF synthesis (the engine's hot path) -------------------------

#: rFFT of the circularly-padded EMF kernel per configuration, keyed by
#: the config fields the kernel depends on.
_KERNEL_SPECTRUM_CACHE: Dict[Tuple[float, int, int], np.ndarray] = {}
_KERNEL_SPECTRUM_HITS = 0
_KERNEL_SPECTRUM_MISSES = 0
#: Guards the cache and its counters: ``repro serve``'s analysis
#: threads render, and so look the kernel up, at once.
_KERNEL_SPECTRUM_LOCK = threading.Lock()


def kernel_spectrum(config: SimConfig) -> np.ndarray:
    """rFFT of the EMF kernel zero-padded to the trace length.

    Cached per (clock, oversample, trace length); read-only.  The
    cache persists across render dispatches (and engines), so the
    kernel transform is paid once per sampling grid per process.
    """
    global _KERNEL_SPECTRUM_HITS, _KERNEL_SPECTRUM_MISSES
    key = (config.f_clock, config.oversample, config.n_samples)
    with _KERNEL_SPECTRUM_LOCK:
        spectrum = _KERNEL_SPECTRUM_CACHE.get(key)
        if spectrum is not None:
            _KERNEL_SPECTRUM_HITS += 1
            return spectrum
        _KERNEL_SPECTRUM_MISSES += 1
        kernel = emf_kernel(config)
        padded = np.zeros(config.n_samples)
        padded[: kernel.size] = kernel
        spectrum = np.fft.rfft(padded)
        spectrum.setflags(write=False)
        _KERNEL_SPECTRUM_CACHE[key] = spectrum
        return spectrum


def kernel_spectrum_stats() -> Dict[str, int]:
    """Kernel-spectrum cache counters: ``hits``, ``misses``, ``size``."""
    return {
        "hits": _KERNEL_SPECTRUM_HITS,
        "misses": _KERNEL_SPECTRUM_MISSES,
        "size": len(_KERNEL_SPECTRUM_CACHE),
    }


#: Cached offset phase ramps (tiny, per sampling grid).
_PHASE_RAMP_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def _phase_ramp(n_samples: int, sample_offset: int) -> np.ndarray:
    key = (n_samples, sample_offset)
    ramp = _PHASE_RAMP_CACHE.get(key)
    if ramp is None:
        bins = np.arange(n_samples // 2 + 1)
        ramp = np.exp(-2j * np.pi * bins * (sample_offset / n_samples))
        ramp.setflags(write=False)
        _PHASE_RAMP_CACHE[key] = ramp
    return ramp


def _tiled_cycle_spectrum(
    amplitudes: np.ndarray, config: SimConfig, sample_offset: int
) -> np.ndarray:
    """rFFT of the impulse train carrying ``amplitudes`` at each cycle.

    The train places ``amplitudes[:, c]`` at sample ``c*oversample +
    sample_offset``; because the impulses sit on a uniform sub-grid,
    the trace-length DFT is the cycle-count DFT of the amplitudes,
    tiled across the trace bins and phase-ramped by the offset:

    ``rfft(train)[j] = exp(-2*pi*i*j*offset/N) * FFT_c(q)[j mod n_cycles]``
    """
    n_samples = config.n_samples
    n_bins = n_samples // 2 + 1
    n_cycles = config.n_cycles
    cycle_spectrum = np.fft.fft(amplitudes, axis=-1)
    # Tile directly into an n_bins-wide buffer instead of np.tile's
    # oversized intermediate (values identical, one copy less).
    tiled = np.empty(
        (cycle_spectrum.shape[0], n_bins), dtype=cycle_spectrum.dtype
    )
    for lo in range(0, n_bins, n_cycles):
        width = min(n_cycles, n_bins - lo)
        tiled[:, lo : lo + width] = cycle_spectrum[:, :width]
    if sample_offset:
        tiled *= _phase_ramp(n_samples, sample_offset)
    return tiled


#: Cached cycle-DFT bases ``exp(-2*pi*i*c*k/n_cycles)`` per (cycle
#: count, trace-bin columns): the column sets a render asks for are few.
_CYCLE_DFT_CACHE: Dict[Tuple[int, bytes], np.ndarray] = {}
_CYCLE_DFT_LIMIT = 16


def _cycle_dft(n_cycles: int, columns: np.ndarray) -> np.ndarray:
    """``(n_cycles, len(columns))`` DFT basis at bins ``columns % n_cycles``."""
    key = (n_cycles, columns.tobytes())
    basis = _CYCLE_DFT_CACHE.get(key)
    if basis is None:
        # The integer phase index reduced mod n_cycles first keeps
        # every angle in [0, 2*pi).
        index = np.outer(np.arange(n_cycles), columns % n_cycles) % n_cycles
        basis = np.exp(-2j * np.pi * index / n_cycles)
        basis.setflags(write=False)
        if len(_CYCLE_DFT_CACHE) >= _CYCLE_DFT_LIMIT:
            _CYCLE_DFT_CACHE.clear()
        _CYCLE_DFT_CACHE[key] = basis
    return basis


def emf_rfft(
    coupling: "CouplingMatrix | CouplingStack",
    record: ActivityRecord,
    switch_cap: float | None = None,
    columns: Optional[np.ndarray] = None,
) -> np.ndarray:
    """EMF spectrum per receiver, shape ``(n_receivers, n_bins)`` complex.

    The kernel convolution is evaluated as a bin-wise product on the
    trace FFT grid (i.e. circularly — the <= one-cycle kernel tail
    wraps onto the trace head), and the charge train's rFFT comes from
    the closed-form tiling of its cycle-rate DFT instead of a
    long-trace FFT.  Main-circuit (and rising-phase Trojan) charge
    lands on the clock rising edge; falling-phase Trojan payloads land
    half a cycle later, a phase structure that survives into the
    sideband spectrum.  ``irfft`` of the result is the engine's rendered
    EMF waveform.

    ``columns`` (strictly increasing rFFT bins) synthesizes only those
    bins, shape ``(n_receivers, len(columns))``: each module's charge
    train goes through the cycle DFT at ``columns % n_cycles`` alone
    (:func:`_amplitudes` with a DFT basis), times the phase ramp
    and the kernel at ``columns``, with no full-width row built.  It
    equals the full synthesis at those bins up to rounding.

    A :class:`CouplingStack` is synthesized part by part and row-
    stacked, so each row is bit-identical to the standalone render of
    its part (see :class:`CouplingStack`).
    """
    config = record.config
    basis = None if columns is None else _cycle_dft(config.n_cycles, columns)
    charges = _charge_trains(record, switch_cap, basis)
    if isinstance(coupling, CouplingStack):
        return np.vstack(
            [_emf_rows(part, charges, config, columns, basis) for part in coupling.parts]
        )
    return _emf_rows(coupling, charges, config, columns, basis)


def _emf_rows(
    coupling: CouplingMatrix,
    charges: _Charges,
    config: SimConfig,
    columns: Optional[np.ndarray],
    basis: Optional[np.ndarray],
) -> np.ndarray:
    """:func:`emf_rfft` of one coupling matrix from the record's charges."""
    kernel = kernel_spectrum(config)
    rising, falling = _amplitudes(coupling, charges, config, basis)
    if columns is not None:
        if falling is not None:
            falling *= _phase_ramp(config.n_samples, config.oversample // 2)[columns]
            rising += falling
        rising *= kernel[columns]
        return rising
    spectrum = _tiled_cycle_spectrum(rising, config, 0)
    if falling is not None:
        spectrum += _tiled_cycle_spectrum(falling, config, config.oversample // 2)
    spectrum *= kernel
    return spectrum
