"""Die floorplan, region grid and sensor geometry.

Geometry follows Section V-A and Figure 2:

* 1 mm x 1 mm die (QFN 6x6 package);
* 16 square sensing areas in a 4x4 arrangement sharing area with their
  neighbours — realized as 11-lattice-pitch squares (314 um) at an
  8-pitch stride (229 um), i.e. 27 % shared area per neighbour (the
  paper's quoted 33 % cannot be realized with integer wire indices;
  see repro.core.sensors);
* the AES core occupies the central/right area, the UART FIFO the west
  edge, the PSA control corner is Trojan-free (sensor 0's patch);
* all four Trojans sit inside sensor 10's exclusive zone (one per
  quadrant, which the adaptive localization refinement exploits), with
  their stripe return currents also inside that zone;
* vertical power stripes (one of them through sensor 10's core at
  x = 600 um) provide the return-current locations for the dipole-pair
  EM source model.

Sensor indexing is row-major, row 0 at the top of the die (the paper's
exact index layout is not recoverable from its Figure 2 text; the
published semantics — Trojans under sensor 10, sensor 0 Trojan-free —
are preserved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import FloorplanError
from ..units import UM

#: Die edge length [m].
DIE_SIZE = 1000.0 * UM

#: Sensors per side of the 4x4 arrangement.
SENSOR_GRID = 4

#: Sensor square side [m]: 11 lattice pitches (see repro.core.sensors).
SENSOR_SIDE = 11.0 * DIE_SIZE / 35.0

#: Sensor placement pitch [m]: 8 lattice pitches.
SENSOR_PITCH = 8.0 * DIE_SIZE / 35.0

#: Region grid resolution per side.  35 matches the lattice pitch, so
#: region centers sit mid-cell — maximally far from any coil wire,
#: which keeps the flux couplings smooth.
N_REGIONS_SIDE = 35

#: Vertical power-stripe x positions [m].
POWER_STRIPES = np.array([100.0, 260.0, 420.0, 600.0, 760.0, 920.0]) * UM

#: Effective supply-loop area of one region's switching current [m^2].
REGION_LOOP_AREA = 60.0 * UM * UM


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in die coordinates [m]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise FloorplanError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))


def sensor_rect(index: int) -> Rect:
    """Footprint of sensor ``index`` (0..15), row-major, row 0 on top."""
    if not 0 <= index < SENSOR_GRID * SENSOR_GRID:
        raise FloorplanError(f"sensor index {index} outside 0..15")
    row, col = divmod(index, SENSOR_GRID)
    x0 = col * SENSOR_PITCH
    y1 = DIE_SIZE - row * SENSOR_PITCH
    return Rect(x0, y1 - SENSOR_SIDE, x0 + SENSOR_SIDE, y1)


def _um_rect(x0: float, y0: float, x1: float, y1: float) -> Rect:
    return Rect(x0 * UM, y0 * UM, x1 * UM, y1 * UM)


class Floorplan:
    """Module placement over a uniform region grid.

    Parameters
    ----------
    placements:
        Mapping from module name to the rectangles it occupies.
    die_size:
        Die edge [m].
    n_regions_side:
        Region grid resolution.
    """

    def __init__(
        self,
        placements: Dict[str, List[Rect]],
        die_size: float = DIE_SIZE,
        n_regions_side: int = N_REGIONS_SIDE,
    ):
        if n_regions_side < 2:
            raise FloorplanError("region grid must be at least 2x2")
        self.die_size = die_size
        self.n_regions_side = n_regions_side
        self.placements = dict(placements)
        for module, rects in placements.items():
            for rect in rects:
                if rect.x0 < 0 or rect.y0 < 0 or rect.x1 > die_size or rect.y1 > die_size:
                    raise FloorplanError(
                        f"module {module!r} rectangle {rect} exceeds the die"
                    )
        self._region_size = die_size / n_regions_side
        self._weights_cache: Dict[str, np.ndarray] = {}

    # -- region grid ---------------------------------------------------------

    @property
    def n_regions(self) -> int:
        """Total region count."""
        return self.n_regions_side**2

    @property
    def region_size(self) -> float:
        """Region edge length [m]."""
        return self._region_size

    def region_centers(self) -> np.ndarray:
        """(n_regions, 2) array of region center coordinates [m]."""
        half = 0.5 * self._region_size
        coords = np.arange(self.n_regions_side) * self._region_size + half
        xs, ys = np.meshgrid(coords, coords)  # row-major: y varies by row
        return np.column_stack([xs.ravel(), ys.ravel()])

    # -- module weights --------------------------------------------------------

    def module_weights(self, module: str) -> np.ndarray:
        """Fraction of the module's area in each region (sums to 1)."""
        if module in self._weights_cache:
            return self._weights_cache[module]
        if module not in self.placements:
            raise FloorplanError(f"floorplan has no module {module!r}")
        # One array pass per rect over the whole region grid: each
        # region's overlap with the rect; rects add in placement order.
        row, col = np.divmod(np.arange(self.n_regions), self.n_regions_side)
        x0 = col * self._region_size
        y0 = row * self._region_size
        x1 = x0 + self._region_size
        y1 = y0 + self._region_size
        weights = np.zeros(self.n_regions)
        total = 0.0
        for rect in self.placements[module]:
            total += rect.area
            dx = np.minimum(x1, rect.x1) - np.maximum(x0, rect.x0)
            dy = np.minimum(y1, rect.y1) - np.maximum(y0, rect.y0)
            weights += np.where((dx > 0.0) & (dy > 0.0), dx * dy, 0.0)
        if total <= 0.0:
            raise FloorplanError(f"module {module!r} has zero area")
        weights /= total
        weights.setflags(write=False)
        self._weights_cache[module] = weights
        return weights

    # -- power-return geometry -------------------------------------------------

    def dipole_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Source/return positions per region: two (n_regions, 2) arrays.

        A region's return pole is the nearest power stripe at its own
        ``y``: current drawn by cells flows back along the stripe, so
        the supply loop's "negative" pole is displaced there.  Cells
        close to a stripe form a short dipole pair (a weak, tight
        supply loop) — physically correct, and it keeps the return pole
        on the source's side of any sensor boundary instead of jumping
        across the die.
        """
        centers = self.region_centers()
        nearest = np.argmin(
            np.abs(POWER_STRIPES[None, :] - centers[:, :1]), axis=1
        )
        returns = np.column_stack([POWER_STRIPES[nearest], centers[:, 1]])
        return centers, returns


#: The sensor hosting the Trojan cluster on the paper's chip.
DEFAULT_TROJAN_SENSOR = 10


def _base_placements() -> Dict[str, List[Rect]]:
    """Every non-Trojan module of the paper's test chip."""
    return {
        # AES core (central/right band).
        "aes_sbox_bank": [_um_rect(250, 100, 950, 400)],
        "aes_mixcolumns": [_um_rect(250, 400, 650, 580)],
        "aes_addroundkey": [_um_rect(650, 400, 950, 580)],
        "aes_state_regs": [_um_rect(250, 580, 600, 740)],
        "aes_key_expand": [_um_rect(600, 580, 950, 740)],
        "aes_round_ctrl": [_um_rect(200, 100, 250, 300)],
        # Peripherals (west edge / top-left corner = sensor 0 patch).
        "uart_fifo": [_um_rect(30, 600, 200, 950)],
        "uart_core": [_um_rect(30, 440, 200, 600)],
        "psa_control": [_um_rect(30, 830, 170, 960)],
        # Distributed networks.
        "clock_tree": [_um_rect(50, 50, 950, 950)],
        "io_ring": [
            _um_rect(0, 0, 1000, 25),
            _um_rect(0, 975, 1000, 1000),
            _um_rect(0, 25, 25, 975),
            _um_rect(975, 25, 1000, 975),
        ],
    }


def trojan_cluster_rects(sensor_index: int) -> Dict[str, List[Rect]]:
    """The four-Trojan cluster implanted under one sensor.

    Places one Trojan per quadrant of the host sensor's *exclusive
    core* — the sub-area no overlapping neighbour covers, offset
    4.5/6.5 lattice pitches from the sensor origin, mid-cell and clear
    of every lattice wire — with T1 north-west, T2 north-east, T3
    south-west (smaller), T4 south-east.  For the paper's host
    (sensor 10) this reproduces the published layout exactly,
    including the x = 600 um power stripe running through the core as
    the return-current path.

    Parameters
    ----------
    sensor_index:
        Host sensor of the cluster (0..15, row-major, row 0 on top).

    Returns
    -------
    dict
        ``{"T1": [rect], ..., "T4": [rect]}`` placements [m].
    """
    host = sensor_rect(sensor_index)
    pitch = DIE_SIZE / 35.0
    x_west, x_east = host.x0 + 4.5 * pitch, host.x0 + 6.5 * pitch
    y_south, y_north = host.y0 + 4.5 * pitch, host.y0 + 6.5 * pitch

    def _trojan_rect(x: float, y: float, half: float) -> Rect:
        return Rect(x - half, y - half, x + half, y + half)

    return {
        "T1": [_trojan_rect(x_west, y_north, 14.0 * UM)],
        "T2": [_trojan_rect(x_east, y_north, 14.0 * UM)],
        "T3": [_trojan_rect(x_west, y_south, 10.0 * UM)],
        "T4": [_trojan_rect(x_east, y_south, 14.0 * UM)],
    }


def floorplan_with_trojans_at(sensor_index: int) -> Floorplan:
    """The test-chip floorplan with the Trojan cluster under any sensor.

    Everything except the Trojans stays at the paper's placement; the
    cluster (see :func:`trojan_cluster_rects`) moves to the chosen
    host.  This is the implant-position axis of the localization
    sweep: the coupling *geometry* is placement-independent (the
    content-keyed cache is shared across hosts), only the per-module
    activity weights change.

    Parameters
    ----------
    sensor_index:
        Host sensor of the implanted cluster (0..15).
    """
    placements = _base_placements()
    placements.update(trojan_cluster_rects(sensor_index))
    return Floorplan(placements)


def default_floorplan() -> Floorplan:
    """The paper's test-chip floorplan (see module docstring).

    Trojan quadrant assignment inside sensor 10: T1 north-west,
    T2 north-east, T3 south-west (small), T4 south-east.  The cluster
    sits in sensor 10's *exclusive core* — the part of its footprint
    not shared with the overlapping neighbours — matching the
    paper's amoeba view, where sensor 10 "offers the most coverage of
    both Trojan payloads and triggers".
    """
    return floorplan_with_trojans_at(DEFAULT_TROJAN_SENSOR)
