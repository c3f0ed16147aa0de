"""Spectrum analyzer model: sweep display and zero-span mode.

Section VI-D's settings: "Each trace spans a frequency band from DC to
120 MHz, populated with 2000 sample points.  We averaged five collected
traces to derive the spectrum" and "we use the zero-span mode of the
spectrum analyzer to measure the time-domain signal of the PSA's output
at a desired single frequency".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..dsp.filters import analytic_bandpass
from ..dsp.transforms import (
    RfftColumns,
    Spectrum,
    amplitude_spectra,
    amplitude_spectrum,
    average_spectra,
    display_from_columns,
    display_spectra_at,
    native_columns,
    resample_spectra,
    resample_spectrum,
)
from ..errors import MeasurementError
from ..traces import Trace

#: Paper display settings.
DISPLAY_F_LO = 0.0
DISPLAY_F_HI = 120e6
DISPLAY_POINTS = 2000
DEFAULT_AVERAGES = 5

#: Default zero-span resolution bandwidth [Hz].
DEFAULT_RBW = 8e6


@dataclass(frozen=True)
class ZeroSpanResult:
    """Zero-span capture at one tuned frequency.

    Attributes
    ----------
    envelope:
        Detected envelope magnitude [V], decimated.
    fs:
        Envelope sampling rate [Hz].
    f_center:
        Tuned frequency [Hz].
    rbw:
        Resolution bandwidth [Hz].
    label, scenario:
        Propagated from the input trace.
    """

    envelope: np.ndarray
    fs: float
    f_center: float
    rbw: float
    label: str = ""
    scenario: str = ""

    def time(self) -> np.ndarray:
        """Time axis [s]."""
        return np.arange(self.envelope.size) / self.fs

    def as_trace(self) -> Trace:
        """View the envelope as a Trace (for feature extraction)."""
        return Trace(
            samples=self.envelope,
            fs=self.fs,
            label=f"{self.label}@{self.f_center/1e6:.0f}MHz",
            scenario=self.scenario,
            meta={"f_center": self.f_center, "rbw": self.rbw},
        )


class SpectrumAnalyzer:
    """Sweep + zero-span measurement model.

    Parameters
    ----------
    f_lo, f_hi:
        Display band [Hz].
    n_points:
        Display points across the band.
    """

    def __init__(
        self,
        f_lo: float = DISPLAY_F_LO,
        f_hi: float = DISPLAY_F_HI,
        n_points: int = DISPLAY_POINTS,
    ):
        if f_hi <= f_lo:
            raise MeasurementError(f"empty display band [{f_lo}, {f_hi}]")
        if n_points < 16:
            raise MeasurementError("display needs at least 16 points")
        self.f_lo = f_lo
        self.f_hi = f_hi
        self.n_points = n_points

    # -- sweep mode ------------------------------------------------------------

    def spectrum(self, trace: Trace) -> Spectrum:
        """Single-capture display spectrum (2000 uniform points)."""
        native = amplitude_spectrum(trace.samples, trace.fs)
        return resample_spectrum(native, self.f_lo, self.f_hi, self.n_points)

    def display_matrix(
        self, samples: np.ndarray, fs: float
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Batched display spectra of a trace stack.

        Returns ``(grid, amps)`` where ``amps`` is ``(n_traces,
        n_points)`` on the shared display grid — every row identical
        to :meth:`spectrum` of that trace.  This is the vectorized
        entry point the analysis layers feed trace batches through.
        """
        freqs, native = amplitude_spectra(samples, fs)
        return resample_spectra(
            freqs, native, self.f_lo, self.f_hi, self.n_points
        )

    def display_grid(self) -> np.ndarray:
        """The display frequency axis, without computing any spectra."""
        return np.linspace(self.f_lo, self.f_hi, self.n_points)

    def display_bins(
        self,
        samples: np.ndarray,
        fs: float,
        bins: np.ndarray,
        prepare: "Callable[[np.ndarray], np.ndarray] | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`display_matrix` restricted to display columns ``bins``.

        Returns ``(grid[bins], amps[:, bins])`` bit-identical to the
        corresponding columns of the full display — the fast path when
        a caller only reads a handful of feature bins per trace.
        ``prepare`` is a row-wise transform (e.g. ADC quantization)
        applied block by block before the spectra, see
        :func:`~repro.dsp.transforms.display_spectra_at`.
        """
        return display_spectra_at(
            samples, fs, bins, self.f_lo, self.f_hi, self.n_points, prepare
        )

    def native_columns(
        self, n_samples: int, fs: float, bins: np.ndarray
    ) -> np.ndarray:
        """The rFFT columns of ``n_samples``-sample windows that display
        columns ``bins`` read (see :meth:`display_from_columns`)."""
        return native_columns(
            n_samples, fs, bins, self.f_lo, self.f_hi, self.n_points
        )

    def display_from_columns(
        self, spectra: RfftColumns, fs: float, bins: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`display_bins` from the windows' rFFT columns.

        ``spectra`` holds the :meth:`native_columns` of ``bins``; the
        result equals :meth:`display_bins` of the windows themselves up
        to floating-point rounding, see
        :func:`~repro.dsp.transforms.display_from_columns`.
        """
        return display_from_columns(
            spectra, fs, bins, self.f_lo, self.f_hi, self.n_points
        )

    def display_spectra(self, samples: np.ndarray, fs: float) -> List[Spectrum]:
        """Batched display spectra as :class:`Spectrum` objects."""
        grid, amps = self.display_matrix(samples, fs)
        return [Spectrum(freqs=grid, amps=row) for row in amps]

    def average_spectrum(self, traces: Sequence[Trace]) -> Spectrum:
        """Trace-averaged display spectrum (the paper averages five)."""
        if not traces:
            raise MeasurementError("no traces to average")
        return average_spectra([self.spectrum(trace) for trace in traces])

    # -- zero-span mode ----------------------------------------------------------

    def zero_span(
        self,
        trace: Trace,
        f_center: float,
        rbw: float = DEFAULT_RBW,
        decimate_to: float | None = None,
    ) -> ZeroSpanResult:
        """Envelope of the signal inside ``rbw`` around ``f_center``.

        Parameters
        ----------
        trace:
            Input capture.
        f_center:
            Tuned frequency [Hz] (e.g. the 48 MHz sideband).
        rbw:
            Resolution bandwidth [Hz].
        decimate_to:
            Target envelope rate [Hz]; defaults to ``4 * rbw``.
        """
        baseband = analytic_bandpass(trace.samples, trace.fs, f_center, rbw)
        envelope = np.abs(baseband)
        target_fs = 4.0 * rbw if decimate_to is None else decimate_to
        step = max(1, int(trace.fs / target_fs))
        envelope = envelope[::step]
        if envelope.size < 16:
            raise MeasurementError(
                "zero-span capture too short after decimation; lower the "
                "decimation target or capture longer traces"
            )
        return ZeroSpanResult(
            envelope=envelope,
            fs=trace.fs / step,
            f_center=f_center,
            rbw=rbw,
            label=trace.label,
            scenario=trace.scenario,
        )
