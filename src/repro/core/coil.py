"""Coil synthesis on the PSA lattice.

A programmed sensor is a concentric multi-turn rectangular spiral: turn
``k`` runs along lattice wires inset ``k`` pitches from the outer
boundary, successive turns bridged at a corner crosspoint (Figure 1b
shows the 2-turn example).  Every crosspoint the winding passes through
contributes one T-gate's on-resistance; every inter-crosspoint segment
contributes lattice-wire resistance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..chip.floorplan import Rect
from ..em.coupling import Receiver
from ..em.devices import (
    WIRE_INDUCTANCE_PER_M,
    tgate_resistance,
    wire_resistance,
)
from ..errors import CoilSynthesisError
from .grid import N_WIRES, PITCH, WIRE_WIDTH, Crosspoint, PsaGrid

#: Height of the coil plane (M7/M8) above the switching layer [m].
COIL_Z = 3.0e-6

#: Residual ambient pickup of an on-chip coil under the package [m^2].
ONCHIP_AMBIENT_GAIN = 2.0e-9


@dataclass(frozen=True)
class Coil:
    """A synthesized PSA coil.

    Attributes
    ----------
    name:
        Identity used for grid ownership and receiver naming.
    turn_rects:
        Enclosed rectangle of each turn, outermost first [m].
    crosspoints:
        Lattice crosspoints whose T-gates must be on.
    n_tgates:
        T-gates in the series winding path.
    wire_length:
        Total winding wire length [m].
    """

    name: str
    turn_rects: List[Rect]
    crosspoints: Set[Crosspoint]
    n_tgates: int
    wire_length: float

    @property
    def n_turns(self) -> int:
        """Number of series turns."""
        return len(self.turn_rects)

    def resistance(self, vdd: float = 1.2, temperature_c: float = 25.0) -> float:
        """Series resistance of the winding [ohm]."""
        return self.n_tgates * tgate_resistance(
            vdd, temperature_c
        ) + wire_resistance(self.wire_length, WIRE_WIDTH)

    def inductance(self) -> float:
        """Rule-of-thumb series inductance [H]."""
        return WIRE_INDUCTANCE_PER_M * self.wire_length

    def to_receiver(
        self, vdd: float = 1.2, temperature_c: float = 25.0
    ) -> Receiver:
        """EM receiver view of this coil."""
        return Receiver(
            name=self.name,
            turns=list(self.turn_rects),
            z=COIL_Z,
            r_series=self.resistance(vdd, temperature_c),
            inductance=self.inductance(),
            ambient_gain=ONCHIP_AMBIENT_GAIN,
        )

    def program(self, grid: PsaGrid) -> None:
        """Turn on this coil's switches (atomic, ownership-checked)."""
        grid.program(self.crosspoints, owner=self.name)

    def release(self, grid: PsaGrid) -> None:
        """Turn this coil's switches back off."""
        grid.release(self.name)


def synthesize_rect_coil(
    name: str,
    col0: int,
    row0: int,
    size: int,
    turns: int,
) -> Coil:
    """Synthesize a concentric rectangular spiral coil.

    Parameters
    ----------
    name:
        Coil identity.
    col0, row0:
        Lattice indices of the outer turn's lower-left crosspoint.
    size:
        Outer turn side length in lattice pitches.
    turns:
        Number of concentric turns (each inset one pitch).

    Raises
    ------
    CoilSynthesisError
        If the coil does not fit the lattice or the turn count exceeds
        what the size allows.
    """
    if size < 2:
        raise CoilSynthesisError(f"coil size must be >= 2 pitches, got {size}")
    if turns < 1:
        raise CoilSynthesisError(f"coil needs >= 1 turn, got {turns}")
    max_turns = (size - 2) // 2 + 1
    if turns > max_turns:
        raise CoilSynthesisError(
            f"{turns} turns do not fit a {size}-pitch coil "
            f"(max {max_turns})"
        )
    if col0 < 0 or row0 < 0 or col0 + size >= N_WIRES or row0 + size >= N_WIRES:
        raise CoilSynthesisError(
            f"coil [{col0}..{col0+size}] x [{row0}..{row0+size}] exceeds "
            f"the {N_WIRES}-wire lattice"
        )

    turn_rects: List[Rect] = []
    crosspoints: Set[Crosspoint] = set()
    n_tgates = 0
    wire_length = 0.0
    for k in range(turns):
        lo_c, lo_r = col0 + k, row0 + k
        hi_c, hi_r = col0 + size - k, row0 + size - k
        side = hi_c - lo_c
        turn_rects.append(
            Rect(lo_c * PITCH, lo_r * PITCH, hi_c * PITCH, hi_r * PITCH)
        )
        crosspoints.update(_corner_crosspoints(lo_c, lo_r, hi_c, hi_r))
        # Straight runs stay on a single M7/M8 wire; the two layers only
        # join where a T-gate closes a crosspoint, so each turn needs
        # exactly its four corner switches.
        n_tgates += 4
        wire_length += 4 * side * PITCH
    # Inter-turn bridges: one diagonal jog (one extra T-gate and one
    # pitch of wire) per adjacent turn pair.
    if turns > 1:
        n_tgates += turns - 1
        wire_length += (turns - 1) * PITCH
    return Coil(
        name=name,
        turn_rects=turn_rects,
        crosspoints=crosspoints,
        n_tgates=n_tgates,
        wire_length=wire_length,
    )


def _corner_crosspoints(
    lo_c: int, lo_r: int, hi_c: int, hi_r: int
) -> Set[Crosspoint]:
    """The four corner crosspoints of a rectangular turn."""
    return {(lo_c, lo_r), (hi_c, lo_r), (hi_c, hi_r), (lo_c, hi_r)}
