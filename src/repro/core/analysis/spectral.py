"""Sideband bookkeeping and prominent-component identification.

With a 33 MHz clock and an 11-cycle AES block, the Trojans' round-
synchronous switching modulates the clock-harmonic comb at the 5th
block harmonic (15 MHz).  The ~50 %-duty supply-current kernel keeps
odd clock harmonics only, so the Trojan sidebands appear at

    33 MHz + 15 MHz = 48 MHz      (1st harmonic, upper sideband)
    99 MHz - 15 MHz = 84 MHz      (3rd harmonic, lower sideband)

exactly where the paper finds its "two prominent frequency components".
The mirror images (18 MHz, 114 MHz) are suppressed by the measurement
chain's band shaping.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...config import SimConfig
from ...dsp.transforms import Spectrum
from ...errors import AnalysisError
from ...trojans.base import SIDEBAND_BLOCK_HARMONIC

#: Clock-harmonic/offset pairs of the suppressed image sidebands.
IMAGE_OFFSET_HARMONICS: Tuple[Tuple[int, int], ...] = ((1, -1), (3, +1))

#: Half-width of each noise-floor probe window [Hz] (see
#: :func:`noise_probe_frequencies`).
NOISE_PROBE_HALFWIDTH = 500e3


def clock_harmonics(config: SimConfig, f_max: float = 120e6) -> List[float]:
    """Clock harmonics inside the display band."""
    harmonics = []
    k = 1
    while k * config.f_clock <= f_max:
        harmonics.append(k * config.f_clock)
        k += 1
    return harmonics


def sideband_frequencies(config: SimConfig) -> Tuple[float, float]:
    """The two prominent Trojan sideband frequencies [Hz] (48/84 MHz)."""
    f_mod = SIDEBAND_BLOCK_HARMONIC * config.f_block
    return (config.f_clock + f_mod, 3.0 * config.f_clock - f_mod)


def _amp_near(spectrum: Spectrum, freq: float, halfwidth: float) -> float:
    """Peak amplitude within ``freq +- halfwidth``."""
    mask = np.abs(spectrum.freqs - freq) <= halfwidth
    if not mask.any():
        raise AnalysisError(
            f"no spectrum bins within {halfwidth/1e3:.0f} kHz of "
            f"{freq/1e6:.1f} MHz"
        )
    return float(spectrum.amps[mask].max())


def sideband_amplitude(
    spectrum: Spectrum,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> float:
    """RMS of the two prominent sideband amplitudes [V].

    The linear-amplitude form is what the localizer ranks sensors by:
    identical coils make absolute amplitudes directly comparable, and
    a quiet corner sensor cannot win on a large *relative* change the
    way it could with a dB score.
    """
    lower, upper = sideband_frequencies(config)
    return float(
        np.sqrt(
            0.5
            * (
                _amp_near(spectrum, lower, halfwidth) ** 2
                + _amp_near(spectrum, upper, halfwidth) ** 2
            )
        )
    )


def sideband_amplitudes(
    freqs: np.ndarray,
    amps: np.ndarray,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> np.ndarray:
    """Batched :func:`sideband_amplitude` over an amplitude stack.

    ``amps`` is ``(n_spectra, n_points)`` on a shared frequency axis
    (e.g. one display grid per rendered capture); the band masks are
    computed once.  Row ``i`` equals ``sideband_amplitude`` of the
    corresponding :class:`Spectrum`.
    """
    amps = np.asarray(amps, dtype=float)
    if amps.ndim != 2:
        raise AnalysisError("sideband_amplitudes expects a 2-D stack")
    lower, upper = sideband_frequencies(config)
    total = np.zeros(amps.shape[0])
    for freq in (lower, upper):
        mask = np.abs(freqs - freq) <= halfwidth
        if not mask.any():
            raise AnalysisError(
                f"no spectrum bins within {halfwidth/1e3:.0f} kHz of "
                f"{freq/1e6:.1f} MHz"
            )
        total += amps[:, mask].max(axis=1) ** 2
    return np.sqrt(0.5 * total)


def sideband_display_bins(
    grid: np.ndarray,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> np.ndarray:
    """Display bins the sideband features actually read.

    The indices of every grid point within ``halfwidth`` of either
    prominent sideband.  Feeding exactly these columns (e.g. from
    ``SpectrumAnalyzer.display_bins``) to :func:`sideband_features_db`
    is bit-identical to evaluating the full display: the per-frequency
    masks select the same amplitude columns either way, because the
    two sidebands are far apart relative to ``halfwidth``.
    """
    lower, upper = sideband_frequencies(config)
    mask = (np.abs(grid - lower) <= halfwidth) | (
        np.abs(grid - upper) <= halfwidth
    )
    bins = np.flatnonzero(mask)
    if bins.size == 0:
        raise AnalysisError(
            f"no display bins within {halfwidth/1e3:.0f} kHz of the "
            "sideband frequencies"
        )
    return bins


def sideband_features_db(
    freqs: np.ndarray,
    amps: np.ndarray,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> np.ndarray:
    """Batched :func:`sideband_feature_db` over an amplitude stack."""
    sb = sideband_amplitudes(freqs, amps, config, halfwidth)
    floor = np.finfo(float).tiny
    return 20.0 * np.log10(np.maximum(sb, floor) / 1e-6)


def noise_probe_frequencies(
    config: SimConfig, f_max: float = 120e6
) -> List[float]:
    """Noise-floor probe frequencies [Hz]: midway between harmonics.

    The reference-free detectors (arXiv:2601.20163 / 2603.16058 style)
    need a noise-floor estimate from the *same* spectrum — no golden
    model, no self-history.  The probes sit at ``(k + 0.5) * f_clock``
    (16.5, 49.5, 82.5, 115.5 MHz for the 33 MHz clock): maximally far
    from every clock harmonic, and — because the Trojan sidebands sit
    at 15 MHz offsets — at least 1.5 MHz from every sideband and image
    component, so they see broadband noise only.
    """
    probes = []
    k = 0
    while (k + 0.5) * config.f_clock <= f_max:
        probes.append((k + 0.5) * config.f_clock)
        k += 1
    return probes


def noise_floor_display_bins(
    grid: np.ndarray,
    config: SimConfig,
    halfwidth: float = NOISE_PROBE_HALFWIDTH,
) -> np.ndarray:
    """Display bins inside any noise-floor probe window.

    Per-frequency criteria, so restricting a display to any superset
    of these bins selects exactly the same columns — the partial
    display evaluation of the runtime monitor stays bit-identical to
    the full display (same argument as
    :func:`sideband_display_bins`).
    """
    mask = np.zeros(grid.shape, dtype=bool)
    for probe in noise_probe_frequencies(config, float(grid[-1])):
        mask |= np.abs(grid - probe) <= halfwidth
    bins = np.flatnonzero(mask)
    if bins.size == 0:
        raise AnalysisError(
            f"no display bins within {halfwidth/1e3:.0f} kHz of the "
            "noise-floor probes"
        )
    return bins


def noise_floor_db(
    freqs: np.ndarray,
    amps: np.ndarray,
    config: SimConfig,
    halfwidth: float = NOISE_PROBE_HALFWIDTH,
) -> np.ndarray:
    """Per-spectrum noise-floor estimate [dBuV], batched.

    The median amplitude over the noise-floor probe bins of each row
    of an ``(n_spectra, n_points)`` amplitude stack.  The median makes
    the estimate robust to a stray narrowband component landing inside
    one probe window.
    """
    amps = np.asarray(amps, dtype=float)
    if amps.ndim != 2:
        raise AnalysisError("noise_floor_db expects a 2-D stack")
    bins = noise_floor_display_bins(np.asarray(freqs), config, halfwidth)
    floor = np.median(amps[:, bins], axis=1)
    tiny = np.finfo(float).tiny
    return 20.0 * np.log10(np.maximum(floor, tiny) / 1e-6)


def sideband_excess_db(
    freqs: np.ndarray,
    amps: np.ndarray,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> np.ndarray:
    """Reference-free detection statistic: sideband excess [dB], batched.

    The sideband RMS of each spectrum in dB *over that same spectrum's
    own noise floor* — no golden model, no matched reference workload,
    no self-baseline history.  An always-on Trojan's sidebands are
    anomalous from the very first captured window, which is the whole
    point: the statistic needs no baseline→active transition.
    """
    return sideband_features_db(freqs, amps, config, halfwidth) - (
        noise_floor_db(freqs, amps, config)
    )


def excess_display_bins(
    grid: np.ndarray,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> np.ndarray:
    """Display bins :func:`sideband_excess_db` actually reads.

    The union of the sideband bins and the noise-floor probe bins —
    still a small fraction of the display grid, so the runtime
    monitor's partial display evaluation stays cheap, and (both masks
    being per-frequency criteria) bit-identical to the full display.
    """
    return np.union1d(
        sideband_display_bins(grid, config, halfwidth),
        noise_floor_display_bins(grid, config),
    )


def sideband_feature_db(
    spectrum: Spectrum,
    config: SimConfig,
    halfwidth: float = 250e3,
) -> float:
    """The run-time detection statistic of one spectrum [dBuV].

    The sideband RMS of :func:`sideband_amplitude` in dB relative to
    1 uV.  An absolute level (rather than a carrier-normalized ratio)
    keeps every Trojan's signature one-sided: all four payloads *add*
    sideband energy, while T4's heater would partially mask a
    carrier-normalized ratio by raising the clock harmonics too.  Gain
    drift is handled by the detector's self-referencing baseline.
    """
    sb = sideband_amplitude(spectrum, config, halfwidth)
    floor = np.finfo(float).tiny
    return float(20.0 * np.log10(max(sb, floor) / 1e-6))


def added_sideband_scores(
    psa,
    analyzer,
    coils,
    baseline_records: Sequence,
    active_records: Sequence,
    active_offset: int,
) -> np.ndarray:
    """Added sideband amplitude [V] per programmed coil, batched.

    The shared scoring kernel of the localization stages (quadrant
    refinement, adaptive scan levels): every (coil, record) capture of
    both populations renders as **one** engine pass
    (``psa.measure_coils_batch`` over a coupling stack) at the rFFT
    columns the sideband features read (:func:`sideband_columns`),
    the band features are extracted in one vectorized pass, and each
    coil scores ``mean(active) - mean(baseline)``.

    A coil's score does not depend on the other coils scored with it
    (each capture's columns are the same bytes inside any batch), and
    equals the score of full-rendered samples through
    the display up to the rounding of the irFFT → rFFT round trip.

    Parameters
    ----------
    psa:
        The :class:`~repro.core.array.ProgrammableSensorArray` to
        render through.
    analyzer:
        The :class:`~repro.instruments.spectrum_analyzer.SpectrumAnalyzer`
        providing the display transform.
    coils:
        Programmed coils to score, one receiver row each.
    baseline_records, active_records:
        Matched Trojan-inactive / Trojan-active activity records.
    active_offset:
        RNG trace-index offset of the active population (baseline
        captures use ``0..n-1``).

    Returns
    -------
    numpy.ndarray
        One added-amplitude score [V] per coil, in ``coils`` order.
    """
    n_base = len(baseline_records)
    records = list(baseline_records) + list(active_records)
    indices = list(range(n_base)) + [
        active_offset + idx for idx in range(len(active_records))
    ]
    batch = psa.measure_coils_batch(
        coils,
        records,
        trace_indices=indices,
        columns=sideband_columns(analyzer, psa.config),
    )
    amps = batch_sideband_amplitudes(batch, analyzer, psa.config)
    return np.array(
        [float(np.mean(row[n_base:]) - np.mean(row[:n_base])) for row in amps]
    )


def sideband_columns(analyzer, config: SimConfig) -> np.ndarray:
    """The native rFFT columns the sideband display bins read.

    Render a localization population at these columns (``columns=``
    on the engine's render entries) and hand the batch to
    :func:`batch_sideband_amplitudes`.
    """
    bins = sideband_display_bins(analyzer.display_grid(), config)
    return analyzer.native_columns(config.n_samples, config.fs, bins)


def batch_sideband_amplitudes(batch, analyzer, config: SimConfig) -> np.ndarray:
    """Sideband amplitude [V] of every capture of a column-rendered batch.

    ``batch.spectra`` holds the captures at :func:`sideband_columns`;
    one display pass over them (``analyzer.display_from_columns``),
    then :func:`sideband_amplitudes`.  The result is ``(n_receivers,
    n_traces)``, row ``i`` the captures of receiver ``i``; the
    localization stages reduce it as they need.
    """
    bins = sideband_display_bins(analyzer.display_grid(), config)
    grid, display = analyzer.display_from_columns(batch.spectra, batch.fs, bins)
    return sideband_amplitudes(grid, display, config).reshape(
        batch.n_receivers, -1
    )


def find_prominent_components(
    active: Spectrum,
    baseline: Spectrum,
    config: SimConfig,
    top_n: int = 2,
    min_separation: float = 4e6,
    harmonic_mask: float = 2e6,
) -> List[Tuple[float, float]]:
    """Stage-1 of the cross-domain analysis: where did energy appear?

    Compares the Trojan-active average spectrum against the inactive
    one, masks the clock harmonics themselves (they move with overall
    activity, not with Trojan structure), and returns the ``top_n``
    peaks of *added amplitude* as ``(frequency, delta_db)`` pairs.
    Ranking by added amplitude (not by dB ratio) is what makes the
    48/84 MHz sidebands come out on top: they are the largest new
    components, while near-noise-floor bins can show huge ratios with
    negligible energy.
    """
    if active.freqs.shape != baseline.freqs.shape or not np.allclose(
        active.freqs, baseline.freqs
    ):
        raise AnalysisError("spectra have mismatched frequency axes")
    floor = np.finfo(float).tiny
    delta_db = 20.0 * np.log10(
        np.maximum(active.amps, floor) / np.maximum(baseline.amps, floor)
    )
    added = active.amps - baseline.amps
    freqs = active.freqs
    masked = added.copy()
    for harmonic in clock_harmonics(config, float(freqs[-1])):
        masked[np.abs(freqs - harmonic) <= harmonic_mask] = -np.inf
    masked[freqs < 5e6] = -np.inf  # ignore the near-DC shelf
    peaks: List[Tuple[float, float]] = []
    for _ in range(top_n):
        index = int(np.argmax(masked))
        if not np.isfinite(masked[index]) or masked[index] <= 0:
            break
        peaks.append((float(freqs[index]), float(delta_db[index])))
        masked[np.abs(freqs - freqs[index]) < min_separation] = -np.inf
    return peaks
