"""The PSA lattice: 36x36 wires with a T-gate at every crosspoint.

Section V-A: "It is a lattice including 36 horizontal wires, 36
vertical wires, and 1296 switches."  Vertical wire ``i`` runs at
``x = i * pitch`` on one metal layer (M8), horizontal wire ``j`` at
``y = j * pitch`` on the other (M7); the T-gate at crosspoint ``(i, j)``
joins the two layers through vias when enabled (Figure 1a).

The paper quotes 16 um lattice segments, which cannot tile the 1 mm die
with 36 wires; we keep the die-spanning interpretation (pitch =
die/35 = 28.6 um) and note the discrepancy in DESIGN.md.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..chip.floorplan import DIE_SIZE
from ..errors import GridProgrammingError

#: Wires per direction.
N_WIRES = 36

#: Total crosspoint switches.
N_SWITCHES = N_WIRES * N_WIRES

#: Lattice pitch [m].
PITCH = DIE_SIZE / (N_WIRES - 1)

#: Lattice wire width [m] (Section V-A: 1 um).
WIRE_WIDTH = 1.0e-6

#: A crosspoint: (vertical wire index, horizontal wire index).
Crosspoint = Tuple[int, int]


class PsaGrid:
    """Switch-state model of the PSA lattice.

    The grid tracks which T-gates are on and which programmed structure
    owns them, so conflicting programmings fail loudly instead of
    silently shorting two coils together.
    """

    def __init__(self) -> None:
        self._state = np.zeros((N_WIRES, N_WIRES), dtype=bool)
        self._owner: dict[Crosspoint, str] = {}

    # -- geometry ------------------------------------------------------------

    @staticmethod
    def check_index(i: int, j: int) -> None:
        """Validate a crosspoint index pair."""
        if not (0 <= i < N_WIRES and 0 <= j < N_WIRES):
            raise GridProgrammingError(
                f"crosspoint ({i}, {j}) outside the {N_WIRES}x{N_WIRES} lattice"
            )

    # -- switching -----------------------------------------------------------

    def turn_off(self, i: int, j: int) -> None:
        """Disable one T-gate."""
        self.check_index(i, j)
        self._state[i, j] = False
        self._owner.pop((i, j), None)

    def program(self, crosspoints: Iterable[Crosspoint], owner: str = "") -> int:
        """Enable a set of crosspoints atomically.

        Either all requested switches turn on, or (on conflict) the
        grid is left unchanged.  Returns the number of switches turned
        on.
        """
        requested = list(crosspoints)
        for i, j in requested:
            self.check_index(i, j)
            current = self._owner.get((i, j))
            if self._state[i, j] and current not in ("", owner):
                raise GridProgrammingError(
                    f"crosspoint ({i}, {j}) already programmed by "
                    f"{current!r}"
                )
        for i, j in requested:
            self._state[i, j] = True
            self._owner[(i, j)] = owner
        return len(requested)

    def release(self, owner: str) -> int:
        """Turn off every switch owned by ``owner``; returns the count."""
        victims = [point for point, who in self._owner.items() if who == owner]
        for i, j in victims:
            self.turn_off(i, j)
        return len(victims)

    # -- observation ---------------------------------------------------------

    @property
    def n_on(self) -> int:
        """Enabled switch count."""
        return int(self._state.sum())

    def ascii_art(self, step: int = 1) -> str:
        """Human-readable lattice picture ('#' = on, '.' = off).

        With ``step > 1`` each character covers a ``step x step`` block
        of crosspoints and shows '#' if *any* switch in the block is on,
        so programmed structures never vanish between samples.
        """
        if step < 1:
            raise GridProgrammingError(f"step must be >= 1, got {step}")
        rows = []
        for j_hi in range(N_WIRES, 0, -step):
            j_lo = max(j_hi - step, 0)
            rows.append(
                "".join(
                    "#"
                    if self._state[i : i + step, j_lo:j_hi].any()
                    else "."
                    for i in range(0, N_WIRES, step)
                )
            )
        return "\n".join(rows)
