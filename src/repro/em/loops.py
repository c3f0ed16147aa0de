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

Along a straight side only ``u``, the coordinate along the wire,
varies; the side's perpendicular offset ``d`` from the dipole is
fixed.  Each side therefore contributes the exact closed form

    d * \\int_lo^hi du / (u^2 + c^2)^{3/2} = d * [F(hi) - F(lo)],
    F(u) = u / (c^2 sqrt(u^2 + c^2)),   c^2 = d^2 + dz^2,

so a turn's flux is four such terms, with no discretisation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..chip.floorplan import Rect
from ..errors import ConfigError
from ..units import MU0

_PREFACTOR = MU0 / (4.0 * np.pi)


def _side_integral(
    offset: np.ndarray, lo: np.ndarray, hi: np.ndarray, dz: float
) -> np.ndarray:
    """``offset * int_lo^hi du / (u^2 + offset^2 + dz^2)^{3/2}``."""
    c2 = offset * offset + dz * dz
    return offset * (hi / np.sqrt(hi * hi + c2) - lo / np.sqrt(lo * lo + c2)) / c2


def loop_flux_factor(
    rect: Rect,
    loop_z: float,
    dipole_xy: np.ndarray,
    dipole_z: float,
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

    Returns
    -------
    numpy.ndarray
        ``(D,)`` array [Wb/(A*m^2)].
    """
    dipole_xy = np.atleast_2d(np.asarray(dipole_xy, dtype=float))
    dz = loop_z - dipole_z
    if abs(dz) < 1e-12:
        raise ConfigError("dipole and loop planes coincide")
    x0 = rect.x0 - dipole_xy[:, 0]
    x1 = rect.x1 - dipole_xy[:, 0]
    y0 = rect.y0 - dipole_xy[:, 1]
    y1 = rect.y1 - dipole_xy[:, 1]
    # Counter-clockwise: the bottom and left sides run against +u.
    return _PREFACTOR * (
        _side_integral(x1, y0, y1, dz)
        - _side_integral(x0, y0, y1, dz)
        + _side_integral(y1, x0, x1, dz)
        - _side_integral(y0, x0, x1, dz)
    )


def turns_flux_factor(
    turns: Sequence[Rect],
    turns_z: float,
    dipole_xy: np.ndarray,
    dipole_z: float,
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
        total += loop_flux_factor(turn, turns_z, dipole_xy, dipole_z)
    return total
