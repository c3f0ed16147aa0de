"""Physical constants and unit helpers.

The library uses strict SI units internally (meters, seconds, volts,
amperes, ohms, henries, webers).  The constants below make intent
explicit at call sites: ``length = 333 * units.UM`` reads better than a
bare ``333e-6``.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# Fundamental constants (SI).
# ---------------------------------------------------------------------------

#: Vacuum permeability [H/m].
MU0 = 4.0e-7 * math.pi

#: Boltzmann constant [J/K].
KB = 1.380649e-23

#: Elementary charge [C].
Q_E = 1.602176634e-19

#: Absolute zero offset [K] for Celsius conversion.
ZERO_CELSIUS_K = 273.15

# ---------------------------------------------------------------------------
# Scale prefixes (multiply to convert INTO SI base units).
# ---------------------------------------------------------------------------

MM = 1e-3
UM = 1e-6
NM = 1e-9

MS = 1e-3
US = 1e-6
NS = 1e-9
PS = 1e-12

KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

MV = 1e-3
UV = 1e-6
NV = 1e-9

MA = 1e-3
UA = 1e-6
NA = 1e-9

PF = 1e-12
FF = 1e-15

KOHM = 1e3

NH = 1e-9
PH = 1e-12


def celsius_to_kelvin(temperature_c: float) -> float:
    """Convert a Celsius temperature to Kelvin."""
    return temperature_c + ZERO_CELSIUS_K


def from_db(value_db: float) -> float:
    """An amplitude ratio given in dB (``20*log10``) as a plain ratio."""
    return 10.0 ** (value_db / 20.0)
