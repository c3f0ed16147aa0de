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
    entry unchanged.
    """
    dense = np.zeros(shape)
    for _name, weights, toggles in factors:
        rows = np.flatnonzero(weights)
        dense[rows] += np.outer(np.asarray(weights)[rows], toggles)
    return dense


class _DenseActivity:
    """A record's dense toggle matrix: as given, or built on first read.

    A data descriptor, so the dataclass ``__init__`` stores through it
    (``None`` leaves the matrix to be built from the factors).
    """

    def __set_name__(self, owner, name: str) -> None:
        self.group = name

    def __get__(self, record, owner=None):
        if record is None:
            return None  # the dataclass field default
        dense = record._dense.get(self.group)
        if dense is None:
            dense = dense_activity(record.factors.get(self.group, ()), record._shape)
            record._dense[self.group] = dense
        return dense

    def __set__(self, record, value) -> None:
        cache = record.__dict__.setdefault("_dense", {})
        if value is not None:
            cache[self.group] = value


@dataclass(eq=False, repr=False)
class ActivityRecord:
    """Per-region switching activity of one simulated trace window.

    Attributes
    ----------
    main:
        Toggle counts of clock-edge-aligned logic (main circuit),
        shape ``(n_regions, n_cycles)``.
    trojan:
        Toggle counts of falling-edge Trojan logic, same shape.  Kept
        separate because these cells switch on the opposite clock phase
        (a half-cycle offset), which the EMF synthesis honors.
    config:
        The simulation configuration used.
    scenario:
        Label, e.g. ``"idle"``, ``"baseline"``, ``"T1"``.
    meta:
        Free-form extra metadata.
    trojan_rising:
        Toggle counts of rising-edge (main-clock-synchronous) Trojan
        logic such as the T4 power virus; rendered in phase with the
        main circuit.
    factors:
        Optional low-rank decomposition of the toggle matrices: maps
        ``"main"`` / ``"trojan"`` / ``"trojan_rising"`` to lists of
        ``(name, weights, toggles)`` outer-product factors with
        ``weights`` of shape ``(n_regions,)`` and ``toggles`` of shape
        ``(n_cycles,)``, such that the dense matrix is the sum of
        ``outer(weights, toggles)`` over its factors.  The chip
        simulator builds activity exactly this way (one factor per
        module), and the measurement engine's EMF synthesis renders
        from the factors directly.

    Notes
    -----
    A record is built either from dense matrices (``main`` and
    ``trojan`` given, ``trojan_rising`` defaulting to zeros) or from
    ``factors`` alone.  A factor-bearing record builds each dense
    matrix with :func:`dense_activity` on first access and keeps it;
    pickling ships only the factors, so the dense matrices (tens of MB
    per record) are never copied between processes.
    """

    main: Optional[np.ndarray] = _DenseActivity()
    trojan: Optional[np.ndarray] = _DenseActivity()
    _: KW_ONLY
    config: SimConfig
    scenario: str = ""
    meta: Optional[Dict[str, object]] = None
    trojan_rising: Optional[np.ndarray] = _DenseActivity()
    factors: Optional[Dict[str, List[Factor]]] = None

    def __post_init__(self) -> None:
        dense = self._dense
        n_cycles = self.config.n_cycles
        if self.factors is None:
            if "main" not in dense or "trojan" not in dense:
                raise ConfigError("a record needs dense main/trojan or factors")
            dense.setdefault("trojan_rising", np.zeros_like(dense["main"]))
            self._shape = (dense["main"].shape[0], n_cycles)
            shapes = set()
        else:
            parts = [
                part for group in ACTIVITY_GROUPS for part in self.factors.get(group, ())
            ]
            if not parts:
                raise ConfigError("a factor-bearing record needs at least one factor")
            self._shape = (len(parts[0][1]), n_cycles)
            shapes = {(np.shape(w), np.shape(t)) for _name, w, t in parts}
            shapes.discard((self._shape[:1], self._shape[1:]))
        shapes |= {matrix.shape for matrix in dense.values()} - {self._shape}
        if shapes:
            raise ConfigError(
                f"activity shapes {sorted(shapes, key=str)} do not match "
                f"(n_regions, n_cycles)={self._shape}"
            )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        if self.factors is not None:
            state["_dense"] = {}
        return state

    @property
    def n_regions(self) -> int:
        """Number of floorplan regions."""
        return self._shape[0]

    def total_toggles(self) -> float:
        """All toggles in the window (main + Trojan)."""
        return float(
            self.main.sum() + self.trojan.sum() + self.trojan_rising.sum()
        )

    def combined(self) -> np.ndarray:
        """Main + Trojan activity (ignoring the phase offsets)."""
        return self.main + self.trojan + self.trojan_rising

    def trojan_total(self) -> np.ndarray:
        """All Trojan activity, both clock phases."""
        return self.trojan + self.trojan_rising


class PowerModel:
    """Converts activity into charge-per-cycle matrices.

    Parameters
    ----------
    config:
        Simulation configuration.
    switch_cap:
        Mean switched capacitance per toggle [F].
    """

    def __init__(self, config: SimConfig, switch_cap: float = MEAN_SWITCH_CAP):
        self.config = config
        self.switch_cap = switch_cap

    def charge_matrix(self, toggles: np.ndarray) -> np.ndarray:
        """Charge drawn per region per cycle [C], same shape as input."""
        return np.asarray(toggles, dtype=float) * charge_per_toggle(
            self.config.vdd, self.switch_cap
        )

    def mean_current(self, record: ActivityRecord) -> float:
        """Window-average supply current [A]."""
        total_charge = self.charge_matrix(record.combined()).sum()
        return float(total_charge / record.config.duration)

    def leakage_current(self, total_leakage_na: float) -> float:
        """Static leakage [A] given a netlist's summed leakage in nA."""
        return total_leakage_na * 1e-9
