"""Spectra: FFT-based amplitude spectra and the paper's 2000-point grid.

The paper's spectrum analyzer reports a DC-120 MHz spectrum populated
with 2000 sample points, averaged over five captured traces
(Section VI-D).  :func:`amplitude_spectrum` produces the native
FFT-binned spectrum; :func:`resample_spectrum` maps it onto the
instrument's uniform display grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from ..errors import AnalysisError
from ..parallel import Pieces, run, workers
from ..units import UV


@dataclass(frozen=True)
class Spectrum:
    """A one-sided amplitude spectrum.

    Attributes
    ----------
    freqs:
        Frequency axis [Hz], monotonically increasing.
    amps:
        RMS amplitude per bin [V].
    """

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.freqs.shape != self.amps.shape:
            raise AnalysisError(
                f"frequency axis {self.freqs.shape} and amplitude axis "
                f"{self.amps.shape} differ in shape"
            )
        if self.freqs.ndim != 1:
            raise AnalysisError("Spectrum arrays must be one-dimensional")

    def __len__(self) -> int:
        return int(self.freqs.size)

    def db(self, reference: float = UV) -> np.ndarray:
        """Amplitude in dB relative to ``reference`` volts (default dBuV)."""
        floor = np.finfo(float).tiny
        return 20.0 * np.log10(np.maximum(self.amps, floor) / reference)

    def at(self, freq: float) -> float:
        """Amplitude [V] of the bin nearest to ``freq``."""
        index = int(np.argmin(np.abs(self.freqs - freq)))
        return float(self.amps[index])

    def bin_of(self, freq: float) -> int:
        """Index of the bin nearest to ``freq``."""
        return int(np.argmin(np.abs(self.freqs - freq)))


def amplitude_spectrum(samples: np.ndarray, fs: float) -> Spectrum:
    """One-sided RMS amplitude spectrum of a real trace.

    Scaling: a full-scale sine ``A*sin(2*pi*f*t)`` whose frequency sits
    exactly on a bin yields ``A/sqrt(2)`` (its RMS value) in that bin.

    Parameters
    ----------
    samples:
        Real time-domain trace.
    fs:
        Sampling rate [Hz].
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise AnalysisError("amplitude_spectrum expects a 1-D trace")
    freqs, amps = amplitude_spectra(samples[None, :], fs)
    return Spectrum(freqs=freqs, amps=amps[0])


def amplitude_spectra(
    samples: np.ndarray, fs: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched one-sided RMS amplitude spectra of a trace stack.

    Returns ``(freqs, amps)`` with ``amps`` of shape ``(n_traces,
    n_bins)``; every trace shares the frequency axis, and per-row
    results are identical to :func:`amplitude_spectrum` of that row.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise AnalysisError("amplitude_spectra expects a 2-D trace stack")
    if samples.shape[1] < 2:
        raise AnalysisError("traces too short for a spectrum")
    n = samples.shape[1]
    spec = np.fft.rfft(samples, axis=-1)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    return freqs, _rms_amplitudes(spec, n, np.arange(spec.shape[1]))


def _rms_amplitudes(
    spec: np.ndarray, n: int, columns: np.ndarray
) -> np.ndarray:
    """RMS amplitudes of rfft columns ``columns`` of ``n``-sample traces.

    ``spec[:, k]`` is native bin ``columns[k]``.  Peak amplitude of
    each component, then to RMS; the DC and Nyquist bins are not
    doubled.  Scaling a column by 1.0 is exact, so any subset of
    columns gets bit for bit the values of the full spectrum.
    """
    amps = np.abs(spec)
    amps /= n
    amps *= np.where((columns > 0) & (2 * columns != n), 2.0, 1.0)
    amps /= np.where(columns > 0, np.sqrt(2.0), 1.0)
    return amps


def average_spectra(spectra: Sequence[Spectrum]) -> Spectrum:
    """Average several spectra bin-by-bin (RMS-power average).

    The paper averages five collected traces to derive each displayed
    spectrum (Section VI-D); averaging in the power domain matches what
    a spectrum analyzer's trace-average mode does.
    """
    if not spectra:
        raise AnalysisError("cannot average an empty spectrum list")
    freqs = spectra[0].freqs
    for spec in spectra[1:]:
        if spec.freqs.shape != freqs.shape or not np.allclose(
            spec.freqs, freqs
        ):
            raise AnalysisError("spectra have mismatched frequency axes")
    power = np.mean([spec.amps**2 for spec in spectra], axis=0)
    return Spectrum(freqs=freqs, amps=np.sqrt(power))


def resample_spectrum(
    spectrum: Spectrum,
    f_lo: float = 0.0,
    f_hi: float = 120e6,
    n_points: int = 2000,
) -> Spectrum:
    """Map a spectrum onto a uniform display grid.

    Reproduces the instrument setting in Section VI-D: "Each trace spans
    a frequency band from DC to 120 MHz, populated with 2000 sample
    points".  Each display point uses a positive-peak detector over its
    frequency bucket (as a real spectrum analyzer does), so narrow
    spectral lines are never lost between display points; buckets
    without a native bin interpolate in the power domain.
    """
    grid, amps = resample_spectra(
        spectrum.freqs, spectrum.amps[None, :], f_lo, f_hi, n_points
    )
    return Spectrum(freqs=grid, amps=amps[0])


class _ResamplePlan:
    """Precomputed display-grid geometry for one native frequency axis.

    The per-call work of :func:`resample_spectra` splits into geometry
    (bucket assignment, interpolation knots — a function of the
    frequency axis and the display band only) and per-row arithmetic.
    The geometry is cached across calls keyed by the axis/band
    content, which removes the dominant cost of steady-state display
    passes (the same sampling grid is featurized thousands of times in
    a sweep or a fleet run).

    The applied arithmetic is **bit-identical** to the reference
    per-row ``np.interp`` + ``np.maximum.at`` formulation:

    * interpolation evaluates ``slope*(g - x_lo) + y_lo`` with the
      same operand order as NumPy's scalar kernel (exact at knot hits
      because ``searchsorted(side="right") - 1`` always lands an exact
      hit on its *left* knot, where the residual is exactly zero);
    * peak detection exploits that buckets of an ascending axis are
      nondecreasing, so each bucket is one contiguous run and
      ``np.maximum.reduceat`` over run starts computes the exact same
      float maxima as element-wise ``np.maximum.at``.
    """

    __slots__ = (
        "freqs", "grid", "below", "above", "inside", "idx", "x_lo",
        "dx", "offsets", "in_band", "run_starts", "run_buckets", "subsets",
    )

    def __init__(
        self, freqs: np.ndarray, f_lo: float, f_hi: float, n_points: int
    ):
        self.freqs = np.array(freqs, dtype=float, copy=True)
        self.freqs.setflags(write=False)
        freqs = self.freqs
        grid = np.linspace(f_lo, f_hi, n_points)
        self.grid = grid
        # Both axes are ascending, so every region is one contiguous
        # run — store slices, not boolean masks: the per-row gathers
        # and scatters in :meth:`apply` become view operations.
        n_below = int(np.count_nonzero(grid < freqs[0]))
        n_above = int(np.count_nonzero(grid >= freqs[-1]))
        self.below = slice(0, n_below)
        self.above = slice(n_points - n_above, n_points)
        self.inside = slice(n_below, n_points - n_above)
        g_in = grid[self.inside]
        idx = np.searchsorted(freqs, g_in, side="right") - 1
        self.idx = np.clip(idx, 0, len(freqs) - 2)
        self.x_lo = freqs[self.idx]
        self.dx = freqs[self.idx + 1] - self.x_lo
        self.offsets = g_in - self.x_lo
        spacing = (f_hi - f_lo) / (n_points - 1)
        band_mask = (freqs >= f_lo - spacing / 2) & (
            freqs <= f_hi + spacing / 2
        )
        band_indices = np.flatnonzero(band_mask)
        if band_indices.size:
            self.in_band = slice(
                int(band_indices[0]), int(band_indices[-1]) + 1
            )
        else:
            self.in_band = slice(0, 0)
        buckets = np.clip(
            np.round((freqs[self.in_band] - f_lo) / spacing).astype(int),
            0,
            n_points - 1,
        )
        if buckets.size:
            starts = np.flatnonzero(
                np.r_[True, buckets[1:] != buckets[:-1]]
            )
            self.run_starts = starts
            self.run_buckets = buckets[starts]
        else:
            self.run_starts = None
            self.run_buckets = None
        #: :class:`_DisplayColumns` of the bin sets read so far.
        self.subsets: "dict[bytes, _DisplayColumns]" = {}

    def apply(self, native_power: np.ndarray) -> np.ndarray:
        """Resample a power stack onto the display grid (peak-held).

        Two gathers, then every pass runs in place — the arithmetic
        (``slope*(g - x_lo) + y_lo`` with slope ``(y_hi - y_lo)/dx``)
        is the reference formulation operation for operation.
        """
        n_rows = native_power.shape[0]
        power = np.empty((n_rows, self.grid.size))
        y_lo = native_power[:, self.idx]
        interp = native_power[:, self.idx + 1]
        np.subtract(interp, y_lo, out=interp)
        np.divide(interp, self.dx, out=interp)
        np.multiply(interp, self.offsets, out=interp)
        np.add(interp, y_lo, out=power[:, self.inside])
        power[:, self.below] = native_power[:, :1]
        power[:, self.above] = native_power[:, -1:]
        if self.run_starts is not None:
            run_max = np.maximum.reduceat(
                native_power[:, self.in_band], self.run_starts, axis=1
            )
            np.maximum(power[:, self.run_buckets], run_max, out=run_max)
            power[:, self.run_buckets] = run_max
        return power

    def _run_at(self, b: int) -> "slice | None":
        """Native columns of display point ``b``'s peak-hold run."""
        if self.run_buckets is None:
            return None
        run = int(np.searchsorted(self.run_buckets, b))
        if run >= len(self.run_starts) or self.run_buckets[run] != b:
            return None
        offset = self.in_band.start
        stop = (
            self.run_starts[run + 1]
            if run + 1 < len(self.run_starts)
            else self.in_band.stop - offset
        )
        return slice(offset + self.run_starts[run], offset + stop)

    def at(self, bins: np.ndarray) -> "_DisplayColumns":
        """The geometry of display columns ``bins``, built once.

        Kept on the plan itself, so it lives and dies with the plan's
        cache entry.
        """
        key = bins.tobytes()
        subset = self.subsets.get(key)
        if subset is None:
            if len(self.subsets) >= _RESAMPLE_PLAN_LIMIT:
                self.subsets.clear()
            subset = self.subsets[key] = _DisplayColumns(self, bins)
        return subset


class _DisplayColumns:
    """Resample geometry of a subset ``bins`` (strictly increasing)
    of one plan's display.

    Every display point's value is a function of its own interpolation
    knots and its own peak-hold run, so evaluating a subset reproduces
    :meth:`_ResamplePlan.apply`'s columns **bit for bit** at a fraction
    of the work — the fast path for feature extraction that reads a
    few sideband bins out of a 2000-point display.  :attr:`columns`
    lists the native columns those points read; :meth:`apply` takes
    the power of just those columns, in order, and evaluates all the
    points with whole-array operations in the reference's operation
    order.
    """

    __slots__ = (
        "columns", "edge_out", "edge_src", "inner_out", "knot",
        "dx", "offsets", "run_out", "run_bounds",
    )

    def __init__(self, plan: _ResamplePlan, bins: np.ndarray):
        lo, hi = plan.inside.start, plan.inside.stop
        last = len(plan.freqs) - 1
        parts = []
        runs = []
        for b in bins:
            if b < lo:
                parts.append([0])
            elif b >= hi:
                parts.append([last])
            else:
                idx = plan.idx[b - lo]
                parts.append([idx, idx + 1])
            run = plan._run_at(b)
            runs.append(run)
            if run is not None:
                parts.append(np.arange(run.start, run.stop))
        self.columns = np.unique(np.concatenate(parts).astype(int))
        self.columns.setflags(write=False)
        # Out-of-band points copy column 0 or the last column; the
        # others interpolate between knots idx and idx + 1, adjacent
        # in ``columns``.
        edge = (bins < lo) | (bins >= hi)
        self.edge_out = np.flatnonzero(edge)
        self.edge_src = np.where(bins[edge] < lo, 0, len(self.columns) - 1)
        self.inner_out = np.flatnonzero(~edge)
        inner = bins[~edge] - lo
        self.knot = np.searchsorted(self.columns, plan.idx[inner])
        self.dx = plan.dx[inner]
        self.offsets = plan.offsets[inner]
        # Peak-hold runs as (start, stop) pairs of ``columns``
        # positions, interleaved for one ``np.maximum.reduceat`` whose
        # even results are the runs' maxima.
        self.run_out = np.array(
            [col for col, run in enumerate(runs) if run is not None], dtype=int
        )
        bounds = []
        for run in runs:
            if run is not None:
                start = int(np.searchsorted(self.columns, run.start))
                bounds += [start, start + run.stop - run.start]
        if bounds and bounds[-1] == len(self.columns):
            bounds.pop()  # reduceat runs the last index to the end
        self.run_bounds = np.array(bounds, dtype=int)

    def apply(self, power: np.ndarray) -> np.ndarray:
        """Display points ``bins`` from the power of :attr:`columns`."""
        out = np.empty((power.shape[0], len(self.edge_out) + len(self.inner_out)))
        y_lo = power[:, self.knot]
        interp = power[:, self.knot + 1]
        np.subtract(interp, y_lo, out=interp)
        np.divide(interp, self.dx, out=interp)
        np.multiply(interp, self.offsets, out=interp)
        np.add(interp, y_lo, out=interp)
        out[:, self.inner_out] = interp
        out[:, self.edge_out] = power[:, self.edge_src]
        if self.run_out.size:
            run_max = np.maximum.reduceat(power, self.run_bounds, axis=1)[:, ::2]
            np.maximum(out[:, self.run_out], run_max, out=run_max)
            out[:, self.run_out] = run_max
        return out


#: Cached resample geometries keyed by display band + axis content
#: summary (full axis equality is verified on every hit).
_RESAMPLE_PLANS: "dict[tuple, _ResamplePlan]" = {}
_RESAMPLE_PLAN_LIMIT = 8
_RESAMPLE_PLAN_HITS = 0
_RESAMPLE_PLAN_MISSES = 0


def resample_plan_stats() -> "dict[str, int]":
    """Resample-plan cache counters: ``hits``, ``misses``, ``size``."""
    return {
        "hits": _RESAMPLE_PLAN_HITS,
        "misses": _RESAMPLE_PLAN_MISSES,
        "size": len(_RESAMPLE_PLANS),
    }


def _remember(key: tuple, plan: _ResamplePlan) -> _ResamplePlan:
    """Cache a freshly built plan (a miss) under ``key``."""
    global _RESAMPLE_PLAN_MISSES
    _RESAMPLE_PLAN_MISSES += 1
    if len(_RESAMPLE_PLANS) >= _RESAMPLE_PLAN_LIMIT:
        _RESAMPLE_PLANS.clear()
    _RESAMPLE_PLANS[key] = plan
    return plan


def _resample_plan(
    freqs: np.ndarray, f_lo: float, f_hi: float, n_points: int
) -> _ResamplePlan:
    global _RESAMPLE_PLAN_HITS
    key = (
        n_points,
        float(f_lo),
        float(f_hi),
        len(freqs),
        float(freqs[0]),
        float(freqs[-1]),
    )
    plan = _RESAMPLE_PLANS.get(key)
    if plan is not None and np.array_equal(plan.freqs, freqs):
        _RESAMPLE_PLAN_HITS += 1
        return plan
    return _remember(key, _ResamplePlan(freqs, f_lo, f_hi, n_points))


def _rfft_display_plan(
    n: int, fs: float, f_lo: float, f_hi: float, n_points: int
) -> _ResamplePlan:
    """The checked plan of ``n``-sample traces' rFFT axis at ``fs``.

    ``(n, fs)`` fixes the axis exactly, so a hit neither rebuilds the
    axis nor compares it.
    """
    global _RESAMPLE_PLAN_HITS
    key = ("rfft", n, float(fs), float(f_lo), float(f_hi), n_points)
    plan = _RESAMPLE_PLANS.get(key)
    if plan is not None:
        _RESAMPLE_PLAN_HITS += 1
        return plan
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    _check_band(freqs, f_lo, f_hi, n_points)
    return _remember(key, _ResamplePlan(freqs, f_lo, f_hi, n_points))


def resample_spectra(
    freqs: np.ndarray,
    amps: np.ndarray,
    f_lo: float = 0.0,
    f_hi: float = 120e6,
    n_points: int = 2000,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched :func:`resample_spectrum` over an amplitude stack.

    ``amps`` is ``(n_spectra, n_bins)`` sharing one native frequency
    axis; the display grid, bucket assignment and in-band mask come
    from a plan cached across calls (see :class:`_ResamplePlan` — the
    applied arithmetic is bit-identical to the per-row reference).
    Returns ``(grid, out)`` with ``out`` of shape
    ``(n_spectra, n_points)``.
    """
    amps = np.asarray(amps, dtype=float)
    if amps.ndim != 2:
        raise AnalysisError("resample_spectra expects a 2-D amplitude stack")
    plan = _display_plan(freqs, f_lo, f_hi, n_points)
    power = plan.apply(amps**2)
    np.sqrt(power, out=power)
    return plan.grid, power


#: Trace rows quantized and transformed per block in
#: :func:`display_spectra_at`, summed over the threads of a split
#: call: 32 rows of an 8448-sample window are a ~2.2 MB float block and
#: its ~2.2 MB spectrum, where one 256-row chunk at once would be 17 MB
#: each.  A call runs on one thread per 32 rows, at most one per core,
#: and each of ``k`` threads transforms ``32 // k`` rows at a time.
DISPLAY_BLOCK_ROWS = 32


@dataclass(frozen=True)
class RfftColumns:
    """rFFT values of real windows at a subset of their native columns.

    What a column render hands the featurizer in place of samples: the
    values :func:`display_spectra_at` would gather from each window's
    full rFFT, without the windows.

    Attributes
    ----------
    values:
        Complex rFFT values, shape ``(..., len(columns))``.
    columns:
        The native rFFT bins held, strictly increasing.
    n_samples:
        Length of the windows the rFFT is over.
    """

    values: np.ndarray
    columns: np.ndarray
    n_samples: int

    def __post_init__(self) -> None:
        if self.values.ndim < 1 or self.values.shape[-1] != len(self.columns):
            raise AnalysisError(
                f"rFFT values of shape {self.values.shape} do not hold "
                f"{len(self.columns)} columns"
            )


def _display_subset(
    n: int, fs: float, bins, f_lo: float, f_hi: float, n_points: int
) -> "tuple[_ResamplePlan, np.ndarray, _DisplayColumns]":
    """The checked plan of ``n``-sample windows and display ``bins`` on it."""
    plan = _rfft_display_plan(n, fs, f_lo, f_hi, n_points)
    bins = np.asarray(bins, dtype=int)
    if bins.ndim != 1 or bins.size == 0:
        raise AnalysisError("bins must be a non-empty 1-D index array")
    if bins.min() < 0 or bins.max() >= n_points:
        raise AnalysisError(
            f"display bins outside 0..{n_points - 1}"
        )
    if np.count_nonzero(np.diff(bins) <= 0):
        raise AnalysisError("display bins must be strictly increasing")
    return plan, bins, plan.at(bins)


def native_columns(
    n: int,
    fs: float,
    bins: np.ndarray,
    f_lo: float = 0.0,
    f_hi: float = 120e6,
    n_points: int = 2000,
) -> np.ndarray:
    """The native rFFT columns display points ``bins`` read (read-only).

    Display points of ``n``-sample windows at ``fs``: exactly the
    columns :func:`display_from_columns` needs to reproduce
    :func:`display_spectra_at`.
    """
    return _display_subset(n, fs, bins, f_lo, f_hi, n_points)[2].columns


def _display_points(
    spec: np.ndarray,
    n: int,
    plan: _ResamplePlan,
    bins: np.ndarray,
    subset: _DisplayColumns,
) -> "tuple[np.ndarray, np.ndarray]":
    """Display points ``bins`` from rFFT columns ``subset.columns``."""
    amps = _rms_amplitudes(spec, n, subset.columns)
    power = subset.apply(amps**2)
    np.sqrt(power, out=power)
    return plan.grid[bins], power


def display_spectra_at(
    samples: np.ndarray,
    fs: float,
    bins: np.ndarray,
    f_lo: float = 0.0,
    f_hi: float = 120e6,
    n_points: int = 2000,
    prepare: "Callable[[np.ndarray], np.ndarray] | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Display columns ``bins`` of a trace stack's resampled spectra.

    Returns ``(grid[bins], out)`` with ``out`` bit-identical to
    ``resample_spectra(*amplitude_spectra(samples, fs), ...)[1][:,
    bins]``, but only the native columns those display points read
    (see :class:`_DisplayColumns`) are scaled and squared — the fast
    path when a caller reads a handful of feature bins out of the
    display.  ``bins`` must be strictly increasing, as every
    detector's are.  The plan of the trace length's axis, and the
    columns and gather indices of ``bins`` on it, are cached across
    calls.

    The rows go through in blocks (see :data:`DISPLAY_BLOCK_ROWS`),
    taken in turn by a thread per core: each block is passed through
    ``prepare`` (a row-wise transform such as ADC quantization, which
    must not write into its input), transformed, and its columns
    gathered, so the working set is one block per thread rather than
    full-stack copies.  Every row's values depend on that row alone,
    so neither blocks nor threads change a bit.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise AnalysisError("display_spectra_at expects a 2-D trace stack")
    if samples.shape[1] < 2:
        raise AnalysisError("traces too short for a spectrum")
    n = samples.shape[1]
    plan, bins, subset = _display_subset(n, fs, bins, f_lo, f_hi, n_points)
    columns = subset.columns
    n_rows = samples.shape[0]
    spec = np.empty((n_rows, columns.size), dtype=complex)
    n_workers = workers(n_rows, DISPLAY_BLOCK_ROWS)
    block_rows = min(max(1, DISPLAY_BLOCK_ROWS // n_workers), n_rows)
    blocks = Pieces(n_rows, block_rows)

    def transform(spectrum):
        for lo, hi in blocks:
            block = samples[lo:hi]
            if prepare is not None:
                block = prepare(block)
            full = np.fft.rfft(block, axis=-1, out=spectrum[: hi - lo])
            spec[lo:hi] = full[:, columns]

    run(
        [
            partial(transform, np.empty((block_rows, n // 2 + 1), dtype=complex))
            for _ in range(n_workers)
        ]
    )
    return _display_points(spec, n, plan, bins, subset)


def display_from_columns(
    spectra: RfftColumns,
    fs: float,
    bins: np.ndarray,
    f_lo: float = 0.0,
    f_hi: float = 120e6,
    n_points: int = 2000,
) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`display_spectra_at` from the windows' rFFT columns.

    ``spectra`` must hold exactly :func:`native_columns` of ``bins``;
    its leading axes flatten into rows.  The columns then go through
    the same RMS scaling and display geometry as a transformed trace
    stack's, so the result equals :func:`display_spectra_at` of the
    windows up to the rounding of the rFFT the windows would have gone
    through.
    """
    n = spectra.n_samples
    plan, bins, subset = _display_subset(n, fs, bins, f_lo, f_hi, n_points)
    if not np.array_equal(spectra.columns, subset.columns):
        raise AnalysisError(
            "the rFFT columns at hand are not the columns the display "
            "bins read"
        )
    spec = spectra.values.reshape(-1, subset.columns.size)
    return _display_points(spec, n, plan, bins, subset)


def _check_band(
    freqs: np.ndarray, f_lo: float, f_hi: float, n_points: int
) -> None:
    """Refuse a display band the native axis ``freqs`` cannot fill."""
    if f_hi <= f_lo:
        raise AnalysisError(f"empty band [{f_lo}, {f_hi}]")
    if n_points < 2:
        raise AnalysisError("display grid needs at least two points")
    if f_hi > freqs[-1] * (1 + 1e-9):
        raise AnalysisError(
            f"band edge {f_hi/1e6:.1f} MHz beyond Nyquist "
            f"{freqs[-1]/1e6:.1f} MHz"
        )


def _display_plan(
    freqs: np.ndarray, f_lo: float, f_hi: float, n_points: int
) -> _ResamplePlan:
    """The checked, cached resample plan of one native axis and band."""
    _check_band(freqs, f_lo, f_hi, n_points)
    return _resample_plan(np.asarray(freqs, dtype=float), f_lo, f_hi, n_points)


def band_slice(spectrum: Spectrum, f_lo: float, f_hi: float) -> Spectrum:
    """Return the sub-spectrum with ``f_lo <= f <= f_hi``."""
    if f_hi <= f_lo:
        raise AnalysisError(f"empty band [{f_lo}, {f_hi}]")
    mask = (spectrum.freqs >= f_lo) & (spectrum.freqs <= f_hi)
    if not mask.any():
        raise AnalysisError("band contains no spectrum bins")
    return Spectrum(freqs=spectrum.freqs[mask], amps=spectrum.amps[mask])


def spectrum_dbuv(samples: np.ndarray, fs: float) -> np.ndarray:
    """Shorthand: one-sided spectrum of ``samples`` in dBuV."""
    return amplitude_spectrum(samples, fs).db()


def pick_peaks(
    spectrum: Spectrum,
    n_peaks: int,
    min_separation_hz: float,
    exclude: Iterable[float] = (),
    exclusion_hz: float = 0.0,
) -> list[int]:
    """Greedy spectral peak picking.

    Returns bin indices of the ``n_peaks`` largest local maxima that are
    at least ``min_separation_hz`` apart and not within ``exclusion_hz``
    of any frequency in ``exclude`` (used to mask the clock harmonics
    themselves when hunting for Trojan sidebands).
    """
    amps = spectrum.amps.copy()
    freqs = spectrum.freqs
    for masked in exclude:
        amps[np.abs(freqs - masked) <= exclusion_hz] = 0.0
    picked: list[int] = []
    for _ in range(n_peaks):
        index = int(np.argmax(amps))
        if amps[index] <= 0.0:
            break
        picked.append(index)
        amps[np.abs(freqs - freqs[index]) < min_separation_hz] = 0.0
    return picked
