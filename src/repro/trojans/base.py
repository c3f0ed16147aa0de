"""Common Trojan machinery.

Modeling rationale
------------------
All four Trojans tap AES-core signals (key wires, state bits, round
strobes), so while active their switching is synchronous with the AES
block structure: bursts aligned to the rounds of each 11-cycle block.
That block-synchronous burst pattern is what amplitude-modulates the
clock-harmonic comb and produces the sideband components the paper
observes at 48 MHz and 84 MHz (33 MHz + 15 MHz and 99 MHz - 15 MHz,
where 15 MHz is the 5th harmonic of the 3 MHz block rate).

On top of that shared round-synchronous pattern, each Trojan imposes its
own slower envelope — a 750 kHz carrier for T1, plaintext-gated blocks
for T2, a PN chip sequence for T3, a quasi-constant elevated level for
T4 — which is exactly what the zero-span identification step recovers
(Figure 5).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import WorkloadError
from ..netlist.builder import TABLE2_TROJANS

#: Harmonic of the block rate that carries the Trojan sidebands
#: (5 * 3 MHz = 15 MHz -> sidebands at 48 MHz and 84 MHz).
SIDEBAND_BLOCK_HARMONIC = 5

#: Cell counts of Trojan variants beyond the paper's Table II (the
#: always-on family of :mod:`repro.trojans.always_on` registers here).
#: Kept separate from :data:`~repro.netlist.builder.TABLE2_TROJANS` so
#: the paper's gate-count accounting (Table II, netlist inventory) is
#: untouched by model extensions.
EXTENDED_TROJAN_CELLS: Dict[str, int] = {}


@dataclass(frozen=True)
class CycleContext:
    """Everything a Trojan may observe in one clock cycle.

    Attributes
    ----------
    cycle:
        Absolute cycle index within the simulation.
    block:
        AES block index being processed.
    phase:
        Cycle position within the block (0 = load cycle).
    block_cycles:
        Cycles per block (11).
    time_s:
        Absolute time of the cycle's rising edge [s].
    plaintext:
        The 16-byte plaintext of the current block.
    key_hd:
        Hamming distance between the round keys active in this cycle
        and the previous one (0..128).
    aes_norm:
        Main-circuit activity this cycle, normalized to its trace
        maximum (0..1); used for supply-droop coupling.
    """

    cycle: int
    block: int
    phase: int
    block_cycles: int
    time_s: float
    plaintext: bytes
    key_hd: int
    aes_norm: float


@dataclass(frozen=True)
class CycleWindow:
    """What a Trojan observes over a window of cycles, as arrays.

    The fields of :class:`CycleContext`, one entry per cycle:
    ``cycle``, ``block``, ``phase``, ``time_s`` and ``key_hd`` have
    shape ``(n_cycles,)`` and ``plaintext`` is ``(n_cycles, 16)``
    uint8.  ``aes_norm`` is a zero-argument callable returning the
    ``(n_cycles,)`` array, so windows whose Trojans never read the
    supply droop never pay for it.
    """

    cycle: np.ndarray
    block: np.ndarray
    phase: np.ndarray
    block_cycles: int
    time_s: np.ndarray
    plaintext: np.ndarray
    key_hd: np.ndarray
    aes_norm: Callable[[], np.ndarray]

    @classmethod
    def of(cls, ctx: CycleContext) -> "CycleWindow":
        """The one-cycle window equal to ``ctx``."""
        return cls(
            cycle=np.array([ctx.cycle]),
            block=np.array([ctx.block]),
            phase=np.array([ctx.phase]),
            block_cycles=ctx.block_cycles,
            time_s=np.array([ctx.time_s], dtype=float),
            plaintext=np.frombuffer(bytes(ctx.plaintext), dtype=np.uint8)[None],
            key_hd=np.array([ctx.key_hd]),
            aes_norm=lambda: np.array([ctx.aes_norm], dtype=float),
        )

    @property
    def n_cycles(self) -> int:
        """Cycles in the window."""
        return int(self.cycle.size)

    def burst(self) -> np.ndarray:
        """:func:`block_pattern` of every cycle's block phase."""
        return _block_pattern_table(self.block_cycles)[self.phase]


def block_pattern(phase: int, block_cycles: int) -> float:
    """Round-synchronous burst weight for a cycle within a block.

    A raised cosine at the :data:`SIDEBAND_BLOCK_HARMONIC`-th harmonic
    of the block rate; its discrete spectrum concentrates the Trojan
    energy at 15 MHz offsets from the clock harmonics.
    """
    angle = 2.0 * math.pi * SIDEBAND_BLOCK_HARMONIC * phase / block_cycles
    return 0.5 * (1.0 + math.cos(angle))


@lru_cache(maxsize=None)
def _block_pattern_table(block_cycles: int) -> np.ndarray:
    # Evaluated with libm (math.cos), value for value equal to
    # block_pattern; a SIMD np.cos may differ in the last ulp.
    table = np.array([block_pattern(p, block_cycles) for p in range(block_cycles)])
    table.setflags(write=False)
    return table


class Trojan(ABC):
    """Base class for the four hardware Trojans.

    Parameters
    ----------
    enabled:
        External enable (the paper adds external enable signals to the
        always-on Trojans T3/T4 for experiments; T1/T2 carry their own
        trigger logic and ignore late enables only in the sense that
        their trigger condition must also hold).

    Notes
    -----
    Subclasses implement :meth:`active_window` (trigger state) and
    :meth:`payload_window` (cell toggles while active) over a whole
    :class:`CycleWindow`.  The small always-present trigger-circuit
    activity is modeled by :meth:`trigger_window` so an *inactive*
    Trojan is almost — but not exactly — invisible, as in the paper.
    The per-cycle methods (:meth:`is_active`, :meth:`toggles`, ...)
    are the one-cycle case of the window methods.
    """

    #: Trojan name; must match a Table II column or a registered
    #: :data:`EXTENDED_TROJAN_CELLS` variant.
    name: str = ""

    #: Which clock edge launches the payload's switching: "falling"
    #: (opposite phase to the main logic — typical for trigger-gated
    #: payloads strobing off the inverted clock) or "rising"
    #: (synchronous with the main logic).
    clock_phase: str = "falling"

    #: Floorplan module hosting this Trojan's cells.  None means the
    #: Trojan has its own placement under its ``name`` (T1..T4);
    #: variants without a dedicated rect name the host module they are
    #: fabricated into instead.
    site: Optional[str] = None

    def __init__(self, enabled: bool = False):
        cells = TABLE2_TROJANS.get(self.name)
        if cells is None:
            cells = EXTENDED_TROJAN_CELLS.get(self.name)
        if cells is None:
            raise WorkloadError(
                f"Trojan class {type(self).__name__} has invalid name "
                f"{self.name!r}"
            )
        self.enabled = enabled
        self.n_cells = cells

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Reset internal trigger state (counters, match latches)."""

    # -- window behaviour ------------------------------------------------------

    @abstractmethod
    def active_window(self, window: CycleWindow) -> np.ndarray:
        """Whether the payload is switching, per cycle (bool array)."""

    @abstractmethod
    def payload_window(self, window: CycleWindow) -> np.ndarray:
        """Payload cell toggles per cycle (given the Trojan is active)."""

    def trigger_window(self, window: CycleWindow) -> np.ndarray:
        """Trigger-circuit toggles per cycle (always present).

        Default: a few cells' worth of counter/comparator activity —
        negligible against the 22k-cell main circuit, which is why an
        inactive Trojan's spectrum matches the Trojan-free one.
        """
        return np.full(window.n_cycles, 2.0)

    def window_toggles(self, window: CycleWindow) -> np.ndarray:
        """Total Trojan toggles per cycle, shape ``(n_cycles,)``."""
        total = self.trigger_window(window)
        active = self.active_window(window)
        if active.any():
            total = np.where(active, total + self.payload_window(window), total)
        return total

    # -- per-cycle views ---------------------------------------------------------

    def is_active(self, ctx: CycleContext) -> bool:
        """Whether the payload is switching in this cycle."""
        return bool(self.active_window(CycleWindow.of(ctx))[0])

    def payload_toggles(self, ctx: CycleContext) -> float:
        """Payload cell toggles in this cycle (given the Trojan is active)."""
        return float(self.payload_window(CycleWindow.of(ctx))[0])

    def trigger_toggles(self, ctx: CycleContext) -> float:
        """Trigger-circuit toggles in this cycle (always present)."""
        return float(self.trigger_window(CycleWindow.of(ctx))[0])

    def toggles(self, ctx: CycleContext) -> float:
        """Total Trojan toggles this cycle."""
        return float(self.window_toggles(CycleWindow.of(ctx))[0])

    # -- metadata ------------------------------------------------------------

    @property
    def always_on(self) -> bool:
        """True for Trojans without an internal trigger (T3, T4)."""
        return False

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"{type(self).__name__}(name={self.name}, {state})"


class ExternallyEnabledTrojan(Trojan):
    """Always-on Trojan gated only by the external enable signal."""

    @property
    def always_on(self) -> bool:
        return True

    def active_window(self, window: CycleWindow) -> np.ndarray:
        return np.full(window.n_cycles, bool(self.enabled))
