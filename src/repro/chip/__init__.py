"""Test-chip substrate: floorplan, placement, activity, assembly.

Reproduces the physical organization of the paper's 1 mm x 1 mm AES-128
test chip (Figure 2): module placement on a region grid, power-stripe
return-current geometry, the supply-current kernel, and the
:class:`TestChip` facade that turns workloads + Trojan activations into
per-region current activity for the EM model.
"""

from .floorplan import (
    DIE_SIZE,
    N_REGIONS_SIDE,
    SENSOR_GRID,
    SENSOR_PITCH,
    SENSOR_SIDE,
    Floorplan,
    Rect,
    default_floorplan,
    sensor_rect,
)
from .power import ActivityRecord, current_kernel, emf_kernel
from .testchip import TestChip

__all__ = [
    "DIE_SIZE",
    "N_REGIONS_SIDE",
    "SENSOR_GRID",
    "SENSOR_PITCH",
    "SENSOR_SIDE",
    "Floorplan",
    "Rect",
    "default_floorplan",
    "sensor_rect",
    "ActivityRecord",
    "current_kernel",
    "emf_kernel",
    "TestChip",
]
