"""Magnetic dipole fields (Biot-Savart far-field form).

A switching region's supply loop is small (tens of um) compared with
the distances to the sensing structures, so each pole of the dipole
pair is treated as an ideal vertical (z-oriented) magnetic dipole:

    Bz(r) = mu0/(4*pi) * m * (3*dz^2 - r^2) / r^5

which integrates to *zero* net flux through any infinite plane above
the source — large loops capture progressively less net flux, the
physical root of the single-coil SNR deficit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..units import MU0

_PREFACTOR = MU0 / (4.0 * np.pi)


def bz_unit_dipole(
    dipole_xy: np.ndarray,
    dipole_z: float,
    points_xy: np.ndarray,
    points_z: float,
) -> np.ndarray:
    """Vertical field component per unit dipole moment.

    Parameters
    ----------
    dipole_xy:
        Dipole positions, shape ``(D, 2)`` [m].
    dipole_z:
        Common dipole height [m].
    points_xy:
        Field evaluation points, shape ``(P, 2)`` [m].
    points_z:
        Common evaluation height [m].

    Returns
    -------
    numpy.ndarray
        ``(D, P)`` array of Bz per unit moment [T/(A*m^2)].
    """
    dipole_xy = np.atleast_2d(np.asarray(dipole_xy, dtype=float))
    points_xy = np.atleast_2d(np.asarray(points_xy, dtype=float))
    if dipole_xy.shape[1] != 2 or points_xy.shape[1] != 2:
        raise ConfigError("positions must be (N, 2) arrays")
    dz = points_z - dipole_z
    if abs(dz) < 1e-12:
        raise ConfigError(
            "dipole and evaluation planes coincide; the point-dipole "
            "field diverges"
        )
    dx = points_xy[None, :, 0] - dipole_xy[:, None, 0]
    dy = points_xy[None, :, 1] - dipole_xy[:, None, 1]
    r2 = dx * dx + dy * dy + dz * dz
    r5 = r2 ** 2.5
    return _PREFACTOR * (3.0 * dz * dz - r2) / r5


def analytic_centered_flux(
    loop_radius: float, height: float
) -> float:
    """Closed-form flux through a circle centered above a unit dipole.

    ``Phi = mu0 * a^2 / (2 * (a^2 + z^2)^(3/2))`` — used by tests to
    validate the line integral.
    """
    if loop_radius <= 0 or height <= 0:
        raise ConfigError("radius and height must be positive")
    a2 = loop_radius * loop_radius
    return MU0 * a2 / (2.0 * (a2 + height * height) ** 1.5)
