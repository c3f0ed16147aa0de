"""Noise sources of the measurement chain.

Three contributors, matching the paper's setup:

* **Johnson noise** of the winding's series resistance (dominant for
  high-resistance programmed coils with many T-gates in the path);
* **amplifier input noise** (handled by
  :class:`repro.em.amplifier.MeasurementAmplifier`);
* **ambient pickup** — broadcast/lab interference linked by the loop
  area.  Negligible for on-chip coils under the package lid, dominant
  for external probes, which is a large part of their SNR deficit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from ..units import KB, celsius_to_kelvin

#: Ambient field pickup at the PCB surface [V RMS per m^2 of loop area].
#: Calibrated so the Langer LF1 probe lands near its measured 14.3 dB
#: SNR (see repro.calibration).
AMBIENT_VRMS_PER_M2 = 0.34

#: Ambient narrowband interferers: (frequency [Hz], fraction of ambient RMS).
AMBIENT_TONES = ((30.0e6, 0.20), (88.0e6, 0.15), (100.0e6, 0.10))


def johnson_rms(resistance: float, temperature_c: float, bandwidth: float) -> float:
    """Thermal noise RMS voltage of a resistor over a bandwidth."""
    if resistance < 0 or bandwidth <= 0:
        raise ConfigError("resistance must be >= 0 and bandwidth > 0")
    temperature_k = celsius_to_kelvin(temperature_c)
    return math.sqrt(4.0 * KB * temperature_k * resistance * bandwidth)


def ambient_rms(loop_area: float) -> float:
    """Ambient pickup RMS voltage for a given effective loop area."""
    if loop_area < 0:
        raise ConfigError("loop area must be >= 0")
    return AMBIENT_VRMS_PER_M2 * loop_area


class NoiseModel:
    """The additive noise budget at a receiver's terminals.

    The measurement engine draws one realization per capture from the
    white part (:meth:`white_rms`) and the ambient tones (:meth:`tones`).

    Parameters
    ----------
    resistance:
        Winding series resistance [ohm].
    temperature_c:
        Ambient temperature [C].
    ambient_area:
        Effective ambient-pickup area [m^2].
    """

    def __init__(
        self,
        resistance: float,
        temperature_c: float,
        ambient_area: float = 0.0,
    ):
        self.resistance = resistance
        self.temperature_c = temperature_c
        self.ambient_area = ambient_area

    # -- engine-facing decomposition ------------------------------------------

    def white_rms(self, fs: float) -> float:
        """RMS of the *white* part only (thermal + broadband ambient).

        The sum of two independent white Gaussian processes is itself
        white Gaussian, so the engine draws this combined component in
        one pass; the narrowband tones are handled separately.
        """
        thermal = johnson_rms(self.resistance, self.temperature_c, fs / 2.0)
        amb_rms = ambient_rms(self.ambient_area)
        tone_fraction = sum(fraction for _f, fraction in AMBIENT_TONES)
        broadband = amb_rms * math.sqrt(max(1.0 - tone_fraction, 0.0))
        return math.sqrt(thermal**2 + broadband**2)

    def tones(self, fs: float) -> "tuple[tuple[float, float], ...]":
        """Narrowband ambient interferers as ``(freq, peak_amplitude)``.

        Only tones below Nyquist are returned; each is rendered as
        ``amplitude * sin(2*pi*f*t + phase)`` with a uniform random
        phase per capture.
        """
        amb_rms = ambient_rms(self.ambient_area)
        if amb_rms <= 0.0:
            return ()
        return tuple(
            (freq, amb_rms * fraction * math.sqrt(2.0))
            for freq, fraction in AMBIENT_TONES
            if freq < fs / 2
        )


# -- spectral synthesis (the engine's batched noise path) -------------------


def white_noise_scales(
    n_samples: int,
    rms: float,
    bin_gain: "np.ndarray | None" = None,
) -> "tuple[float, float, np.ndarray]":
    """Per-bin scales of a white-noise rFFT: ``(dc, nyquist, body)``.

    ``bin_gain`` optionally folds a transfer-function magnitude (on
    the full rFFT grid) into the scales, so filtered noise can be
    synthesized directly.  ``nyquist`` is meaningless for odd trace
    lengths.  Precomputable once per receiver; apply with
    :func:`fill_white_noise_rfft`.
    """
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2")
    full_scale = rms * math.sqrt(n_samples)
    body_scale = rms * math.sqrt(n_samples / 2.0)
    if bin_gain is None:
        n_bins = n_samples // 2 + 1
        bin_gain = np.ones(n_bins)
    body_gain = bin_gain[1:-1] if n_samples % 2 == 0 else bin_gain[1:]
    return (
        full_scale * float(bin_gain[0]),
        full_scale * float(bin_gain[-1]),
        body_scale * body_gain,
    )


def fill_white_noise_rfft(
    out: np.ndarray,
    z: np.ndarray,
    dc_scale: float,
    nyquist_scale: float,
    body_scale: np.ndarray,
) -> np.ndarray:
    """Lay ``n_samples`` standard normals out as a white-noise rFFT.

    This is the single definition of the bin layout: the DC (and, for
    even lengths, Nyquist) bins are real Gaussians at the full scale;
    every interior bin is a complex Gaussian at the body scale.  The
    rFFT being an orthogonal map, the inverse transform of the result
    is exactly i.i.d. Gaussian time noise.
    """
    n_samples = z.size
    n_bins = n_samples // 2 + 1
    if out.shape != (n_bins,):
        raise ConfigError(f"out must have shape ({n_bins},), got {out.shape}")
    out.real[0] = z[0] * dc_scale
    out.imag[0] = 0.0
    if n_samples % 2 == 0:
        body = n_bins - 2
        out.real[-1] = z[1] * nyquist_scale
        out.imag[-1] = 0.0
        np.multiply(z[2 : 2 + body], body_scale, out=out.real[1:-1])
        np.multiply(z[2 + body :], body_scale, out=out.imag[1:-1])
    else:
        body = n_bins - 1
        np.multiply(z[1 : 1 + body], body_scale, out=out.real[1:])
        np.multiply(z[1 + body :], body_scale, out=out.imag[1:])
    return out


def white_noise_columns(
    n_samples: int,
    columns: np.ndarray,
    dc_scale: float,
    nyquist_scale: float,
    body_scale: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """:func:`fill_white_noise_rfft`'s layout at rFFT ``columns`` only.

    Returns the layout ``(real_index, imag_index, real_scale,
    imag_scale)``: column ``columns[k]`` of the full fill is
    ``z[real_index[k]] * real_scale[k]`` plus ``i * z[imag_index[k]] *
    imag_scale[k]``, the same products of the same normals (the DC and
    Nyquist columns get an imaginary part of zero).  Apply with
    :func:`fill_white_noise_columns`.
    """
    columns = np.asarray(columns)
    n_bins = n_samples // 2 + 1
    even = n_samples % 2 == 0
    body = n_bins - 2 if even else n_bins - 1
    first = 2 if even else 1  # z index of the first interior real part
    nyquist = (columns == n_bins - 1) if even else np.zeros(columns.shape, bool)
    interior = (columns > 0) & ~nyquist
    body_index = np.clip(columns - 1, 0, body - 1)
    real_index = np.where(interior, first + body_index, np.where(nyquist, 1, 0))
    imag_index = np.where(interior, first + body + body_index, 0)
    real_scale = np.where(
        interior,
        body_scale[body_index],
        np.where(nyquist, nyquist_scale, dc_scale),
    )
    imag_scale = np.where(interior, real_scale, 0.0)
    return real_index, imag_index, real_scale, imag_scale


def fill_white_noise_columns(
    out: np.ndarray,
    z: np.ndarray,
    layout: "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]",
) -> np.ndarray:
    """Write the white-noise rFFT of normals ``z`` at a column subset.

    ``layout`` comes from :func:`white_noise_columns`; ``out`` holds
    one complex value per column.
    """
    real_index, imag_index, real_scale, imag_scale = layout
    np.multiply(z[real_index], real_scale, out=out.real)
    np.multiply(z[imag_index], imag_scale, out=out.imag)
    return out


def tone_bin(n_samples: int, fs: float, freq: float) -> "int | None":
    """Interior rFFT bin of a tone, or None when it sits off-grid."""
    bin_float = freq * n_samples / fs
    bin_index = int(round(bin_float))
    if (
        abs(bin_float - bin_index) < 1e-9
        and 0 < bin_index < n_samples // 2 + (n_samples % 2)
    ):
        return bin_index
    return None


def tone_line(amplitude: float, n_samples: int, phase: float) -> complex:
    """Spectral line of an on-bin sine: ``A*N/2 * (sin p - i cos p)``."""
    return (
        amplitude
        * (n_samples / 2.0)
        * complex(math.sin(phase), -math.cos(phase))
    )
