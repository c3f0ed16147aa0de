"""Supply-current model: from toggle counts to current waveforms.

Every cell toggle moves a charge ``Q = C_switch * VDD`` through the
local supply loop.  The per-cycle supply current is modeled as a
pulse-kernel train: a ~50 %-duty rectangular kernel with smoothed edges,
repeated at every clock rising edge and scaled by that cycle's toggle
count.  The 50 % duty is the physically-typical "logic evaluates during
the high phase" shape, and it is what suppresses the *even* clock
harmonics — the reason the paper sees Trojan sidebands around the 1st
and 3rd harmonics only.

The EM step needs ``dI/dt`` rather than ``I``; :func:`emf_kernel`
provides the differentiated kernel directly so the per-sensor EMF is a
single convolution.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SimConfig
from ..errors import ConfigError
from ..units import FF

#: Mean switched capacitance per toggle [F] (library-wide average).
MEAN_SWITCH_CAP = 3.0 * FF

#: Kernel duty cycle (fraction of the clock period the current flows).
KERNEL_DUTY = 0.5

#: Edge smoothing sigma as a fraction of the clock period.
KERNEL_EDGE_SIGMA = 0.02


def charge_per_toggle(vdd: float, switch_cap: float = MEAN_SWITCH_CAP) -> float:
    """Charge drawn from the supply per cell toggle [C]."""
    if vdd <= 0:
        raise ConfigError(f"vdd must be positive, got {vdd}")
    return switch_cap * vdd


def current_kernel(config: SimConfig) -> np.ndarray:
    """Unit-charge supply-current kernel, one clock period long.

    Integrates to 1 (so multiplying by the cycle's charge gives the
    cycle's current waveform).  Shape ``(oversample,)``.
    """
    n = config.oversample
    duty_samples = max(2, int(round(KERNEL_DUTY * n)))
    kernel = np.zeros(n)
    kernel[:duty_samples] = 1.0
    sigma = max(KERNEL_EDGE_SIGMA * n, 0.5)
    kernel = _gaussian_smooth(kernel, sigma)
    kernel /= kernel.sum() * config.dt
    return kernel


def emf_kernel(config: SimConfig) -> np.ndarray:
    """Time derivative of :func:`current_kernel` (units 1/s^2).

    Convolving the per-cycle charge impulse train with this kernel
    yields ``dI/dt`` directly.  Length is one cycle plus one sample to
    capture the trailing edge.
    """
    kernel = current_kernel(config)
    padded = np.concatenate([kernel, [kernel[0]]])
    return np.diff(padded) / config.dt


def _gaussian_smooth(values: np.ndarray, sigma: float) -> np.ndarray:
    """Circular Gaussian smoothing (keeps kernel periodic per cycle)."""
    n = values.size
    freqs = np.fft.rfftfreq(n)
    spectrum = np.fft.rfft(values)
    attenuation = np.exp(-2.0 * (np.pi * freqs * sigma) ** 2)
    return np.fft.irfft(spectrum * attenuation, n=n)


#: One low-rank factor of a toggle matrix: ``(name, weights, toggles)``.
Factor = Tuple[str, np.ndarray, np.ndarray]

#: The toggle-matrix groups of an :class:`ActivityRecord`.
ACTIVITY_GROUPS = ("main", "trojan", "trojan_rising")


def dense_activity(factors: Sequence[Factor], shape: Tuple[int, int]) -> np.ndarray:
    """Sum of ``outer(weights, toggles)`` over ``factors``, in order.

    The one accumulation every dense toggle matrix goes through, so a
    matrix rebuilt from factors is bit-for-bit the same wherever it is
    built.  Rows a factor does not weight are skipped: their product
    is an exact zero, and adding zero leaves every (never negative-zero)
    entry unchanged.  No simulation or rendering path calls it: the
    chip (T4's supply droop included) and the EMF synthesis read the
    factors, so a dense matrix exists only once a consumer reads one.
    """
    dense = np.zeros(shape)
    for _name, weights, toggles in factors:
        rows = np.flatnonzero(weights)
        dense[rows] += np.outer(np.asarray(weights)[rows], toggles)
    return dense


def _dense_view(group: str) -> property:
    """Read-only dense toggle matrix of ``group``, built on first read."""

    def read(record: "ActivityRecord") -> np.ndarray:
        dense = record._dense.get(group)
        if dense is None:
            dense = dense_activity(record.factors.get(group, ()), record._shape)
            dense.setflags(write=False)
            record._dense[group] = dense
        return dense

    return property(read)


@dataclass(eq=False, repr=False)
class ActivityRecord:
    """Per-region switching activity of one simulated trace window.

    Attributes
    ----------
    config:
        The simulation configuration used.
    factors:
        Low-rank decomposition of the toggle matrices: maps ``"main"``
        / ``"trojan"`` / ``"trojan_rising"`` to lists of ``(name,
        weights, toggles)`` outer-product factors with ``weights`` of
        shape ``(n_regions,)`` and ``toggles`` of shape
        ``(n_cycles,)``.  The chip simulator builds activity exactly
        this way (one factor per module), and the measurement engine's
        EMF synthesis renders from the factors directly.  At least one
        factor is required.
    scenario:
        Label, e.g. ``"idle"``, ``"baseline"``, ``"T1"``.
    meta:
        Free-form extra metadata.

    Notes
    -----
    The dense toggle matrices, shape ``(n_regions, n_cycles)``, are
    read-only views built with :func:`dense_activity` on first access
    and kept: :attr:`main` (clock-edge-aligned logic), :attr:`trojan`
    (falling-edge Trojan logic, rendered half a cycle later) and
    :attr:`trojan_rising` (rising-edge Trojan logic such as the T4
    power virus, rendered in phase with the main circuit).  Pickling
    ships only the factors, so the dense matrices (tens of MB per
    record) are never copied between processes.
    """

    _: KW_ONLY
    config: SimConfig
    factors: Optional[Dict[str, List[Factor]]] = None
    scenario: str = ""
    meta: Optional[Dict[str, object]] = None

    main = _dense_view("main")
    trojan = _dense_view("trojan")
    trojan_rising = _dense_view("trojan_rising")

    def __post_init__(self) -> None:
        parts = [
            part for group in ACTIVITY_GROUPS for part in (self.factors or {}).get(group, ())
        ]
        if not parts:
            raise ConfigError("an activity record needs at least one factor")
        self._shape = (len(parts[0][1]), self.config.n_cycles)
        self._dense: Dict[str, np.ndarray] = {}
        shapes = {(np.shape(w), np.shape(t)) for _name, w, t in parts}
        shapes.discard((self._shape[:1], self._shape[1:]))
        if shapes:
            raise ConfigError(
                f"activity shapes {sorted(shapes, key=str)} do not match "
                f"(n_regions, n_cycles)={self._shape}"
            )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_dense": {}}

    def combined(self) -> np.ndarray:
        """Main + Trojan activity (ignoring the phase offsets)."""
        return self.main + self.trojan + self.trojan_rising
