"""Flux integration over rectangular coil turns.

Flux linkage is computed with the vector-potential line integral

    Phi = \\oint A . dl,     A = mu0 m (z_hat x r) / (4 pi r^3)

around each turn's perimeter.  Unlike surface (patch) integration this
is numerically robust: the integrand is smooth everywhere on the wire
(the nearest a source can get is the coil height), while the dipole's
Bz core under the loop is near-singular and defeats any reasonable
patch grid.  The line integral also reproduces the key physics exactly:
flux from a dipole deep inside a large loop falls off like 1/a (the
self-cancellation that penalizes whole-chip coils).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..chip.floorplan import Rect
from ..errors import ConfigError
from ..units import MU0

_PREFACTOR = MU0 / (4.0 * np.pi)


def rect_perimeter(
    rect: Rect, points_per_side: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Counter-clockwise perimeter discretization of a rectangle.

    Returns ``(midpoints (P, 2), dl (P, 2))`` — segment midpoints and
    the corresponding oriented segment vectors.
    """
    if points_per_side < 2:
        raise ConfigError("need at least 2 points per side")
    corners = np.array(
        [
            [rect.x0, rect.y0],
            [rect.x1, rect.y0],
            [rect.x1, rect.y1],
            [rect.x0, rect.y1],
        ]
    )
    midpoints = []
    deltas = []
    for index in range(4):
        start = corners[index]
        stop = corners[(index + 1) % 4]
        ts = np.linspace(0.0, 1.0, points_per_side + 1)
        points = start[None, :] + ts[:, None] * (stop - start)[None, :]
        midpoints.append(0.5 * (points[:-1] + points[1:]))
        deltas.append(points[1:] - points[:-1])
    return np.vstack(midpoints), np.vstack(deltas)


def loop_flux_factor(
    rect: Rect,
    loop_z: float,
    dipole_xy: np.ndarray,
    dipole_z: float,
    points_per_side: int = 64,
) -> np.ndarray:
    """Flux per unit dipole moment through one rectangular turn.

    Parameters
    ----------
    rect:
        The turn's enclosed rectangle.
    loop_z:
        Height of the turn's plane [m].
    dipole_xy:
        Dipole positions, shape ``(D, 2)``.
    dipole_z:
        Common dipole height [m].
    points_per_side:
        Line-integral resolution.

    Returns
    -------
    numpy.ndarray
        ``(D,)`` array [Wb/(A*m^2)].
    """
    dipole_xy = np.atleast_2d(np.asarray(dipole_xy, dtype=float))
    dz = loop_z - dipole_z
    if abs(dz) < 1e-12:
        raise ConfigError("dipole and loop planes coincide")
    midpoints, deltas = rect_perimeter(rect, points_per_side)
    dx = midpoints[None, :, 0] - dipole_xy[:, None, 0]
    dy = midpoints[None, :, 1] - dipole_xy[:, None, 1]
    r3 = (dx * dx + dy * dy + dz * dz) ** 1.5
    integrand = (-dy * deltas[None, :, 0] + dx * deltas[None, :, 1]) / r3
    return _PREFACTOR * integrand.sum(axis=1)


def turns_flux_factor(
    turns: Sequence[Rect],
    turns_z: float,
    dipole_xy: np.ndarray,
    dipole_z: float,
    points_per_side: int = 64,
) -> np.ndarray:
    """Flux linkage per unit dipole moment for a multi-turn coil.

    Each series turn links its own flux; the coil sums the linkages.
    Returns an array of shape ``(D,)`` [Wb/(A*m^2)].
    """
    if not turns:
        raise ConfigError("coil has no turns")
    dipole_xy = np.atleast_2d(np.asarray(dipole_xy, dtype=float))
    total = np.zeros(dipole_xy.shape[0])
    for turn in turns:
        total += loop_flux_factor(
            turn, turns_z, dipole_xy, dipole_z, points_per_side
        )
    return total

