"""Dipole field physics."""

import numpy as np
import pytest

from repro.em.dipole import analytic_centered_flux, bz_unit_dipole
from repro.em.loops import loop_flux_factor, turns_flux_factor
from repro.chip.floorplan import Rect
from repro.errors import ConfigError
from repro.units import MU0, UM


# -- surface-integral cross-check helpers -------------------------------------
# Patch integration of the dipole Bz: the independent reference the
# vector-potential line integral (the production coupling path) is
# checked against.


def rect_patches(rect, n_side):
    """``n_side x n_side`` equal patches: ``(centers (P, 2), area)``."""
    xs = np.linspace(rect.x0, rect.x1, n_side + 1)
    ys = np.linspace(rect.y0, rect.y1, n_side + 1)
    gx, gy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]))
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    return centers, (rect.width / n_side) * (rect.height / n_side)


def flux_through_patches(dipole_xy, dipole_z, patch_xy, patch_z, patch_area):
    """Net flux per unit moment through patches, shape ``(D,)``."""
    bz = bz_unit_dipole(dipole_xy, dipole_z, patch_xy, patch_z)
    return bz.sum(axis=1) * patch_area


def surface_flux_factor(rect, loop_z, dipole_xy, dipole_z, n_side=64):
    """Patch-integrated flux through one rectangular turn."""
    patches, area = rect_patches(rect, n_side)
    return flux_through_patches(dipole_xy, dipole_z, patches, loop_z, area)


def test_on_axis_field_positive_and_decaying():
    dipole = np.array([[0.0, 0.0]])
    points = np.array([[0.0, 0.0]])
    near = bz_unit_dipole(dipole, 0.0, points, 10 * UM)[0, 0]
    far = bz_unit_dipole(dipole, 0.0, points, 20 * UM)[0, 0]
    assert near > far > 0.0
    # On-axis: Bz = mu0 m / (2 pi z^3).
    expected = MU0 / (2 * np.pi * (10 * UM) ** 3)
    assert near == pytest.approx(expected, rel=1e-9)


def test_field_changes_sign_off_axis():
    """Bz flips sign beyond the sqrt(2)*z radius (flux returns)."""
    dipole = np.array([[0.0, 0.0]])
    z = 10 * UM
    inside = bz_unit_dipole(dipole, 0.0, np.array([[5 * UM, 0.0]]), z)[0, 0]
    outside = bz_unit_dipole(dipole, 0.0, np.array([[50 * UM, 0.0]]), z)[0, 0]
    assert inside > 0.0
    assert outside < 0.0


def test_coincident_planes_rejected():
    with pytest.raises(ConfigError):
        bz_unit_dipole(np.array([[0.0, 0.0]]), 0.0, np.array([[1.0, 1.0]]), 0.0)


def test_line_integral_matches_surface_integral():
    """Vector-potential and patch fluxes agree away from the core."""
    rect = Rect(-200 * UM, -200 * UM, 200 * UM, 200 * UM)
    dipole = np.array([[35 * UM, -20 * UM]])
    z = 60 * UM  # high enough for the patch integral to converge
    line = loop_flux_factor(rect, z, dipole, 0.0)[0]
    surface = surface_flux_factor(rect, z, dipole, 0.0, n_side=256)[0]
    assert line == pytest.approx(surface, rel=0.01)


def test_line_integral_matches_analytic_centered_disk():
    """Square-loop flux ~ equal-area circle flux for a centered dipole."""
    z = 5 * UM
    side = 400 * UM
    rect = Rect(-side / 2, -side / 2, side / 2, side / 2)
    flux = loop_flux_factor(rect, z, np.array([[0.0, 0.0]]), 0.0)[0]
    radius = side / np.sqrt(np.pi)  # equal-area circle
    expected = analytic_centered_flux(radius, z)
    assert flux == pytest.approx(expected, rel=0.1)


def test_flux_decays_with_loop_size():
    """Self-cancellation: a centered dipole links less flux through a
    bigger loop (the single-coil penalty)."""
    z = 5 * UM
    dipole = np.array([[0.0, 0.0]])
    fluxes = []
    for side in (100 * UM, 300 * UM, 900 * UM):
        rect = Rect(-side / 2, -side / 2, side / 2, side / 2)
        fluxes.append(loop_flux_factor(rect, z, dipole, 0.0)[0])
    assert fluxes[0] > fluxes[1] > fluxes[2] > 0.0


def test_dipole_outside_loop_links_negative_flux():
    rect = Rect(0.0, 0.0, 100 * UM, 100 * UM)
    outside = np.array([[150 * UM, 50 * UM]])
    flux = loop_flux_factor(rect, 5 * UM, outside, 0.0)[0]
    assert flux < 0.0


def test_turns_sum_linearly():
    turn_a = Rect(0.0, 0.0, 100 * UM, 100 * UM)
    turn_b = Rect(10 * UM, 10 * UM, 90 * UM, 90 * UM)
    dipole = np.array([[50 * UM, 50 * UM]])
    combined = turns_flux_factor([turn_a, turn_b], 5 * UM, dipole, 0.0)[0]
    separate = (
        loop_flux_factor(turn_a, 5 * UM, dipole, 0.0)[0]
        + loop_flux_factor(turn_b, 5 * UM, dipole, 0.0)[0]
    )
    assert combined == pytest.approx(separate, rel=1e-12)


def test_centered_square_flux_is_exact():
    """A square of half-side a over a dipole at height z links
    mu0/(4 pi) * 8a^2 / ((a^2 + z^2) sqrt(2a^2 + z^2))."""
    a, z = 50 * UM, 7 * UM
    rect = Rect(-a, -a, a, a)
    flux = loop_flux_factor(rect, z, np.array([[0.0, 0.0]]), 0.0)[0]
    expected = MU0 / (4 * np.pi) * 8 * a * a / ((a * a + z * z) * np.sqrt(2 * a * a + z * z))
    assert flux == pytest.approx(expected, rel=1e-12)


def test_off_centre_flux_matches_dense_line_sum():
    """The closed form equals a dense midpoint sum of the line integral."""
    rect = Rect(-30 * UM, -10 * UM, 70 * UM, 50 * UM)
    dipole = np.array([[12 * UM, 3 * UM]])
    z = 5 * UM
    corners = np.array(
        [[rect.x0, rect.y0], [rect.x1, rect.y0], [rect.x1, rect.y1], [rect.x0, rect.y1]]
    )
    ts = np.linspace(0.0, 1.0, 20001)[:, None]
    total = 0.0
    for start, stop in zip(corners, np.roll(corners, -1, axis=0)):
        points = start + ts * (stop - start)
        mid = 0.5 * (points[:-1] + points[1:]) - dipole[0]
        dl = points[1:] - points[:-1]
        r3 = (mid[:, 0] ** 2 + mid[:, 1] ** 2 + z * z) ** 1.5
        total += ((-mid[:, 1] * dl[:, 0] + mid[:, 0] * dl[:, 1]) / r3).sum()
    expected = MU0 / (4 * np.pi) * total
    flux = loop_flux_factor(rect, z, dipole, 0.0)[0]
    assert flux == pytest.approx(expected, rel=1e-8)


def test_rect_patches_tile_area():
    rect = Rect(0.0, 0.0, 3.0, 2.0)
    centers, area = rect_patches(rect, 6)
    assert centers.shape == (36, 2)
    assert 36 * area == pytest.approx(rect.area)


def test_flux_through_patches_signs():
    dipole = np.array([[0.0, 0.0]])
    patches, area = rect_patches(
        Rect(-5 * UM, -5 * UM, 5 * UM, 5 * UM), 8
    )
    flux = flux_through_patches(dipole, 0.0, patches, 10 * UM, area)
    assert flux[0] > 0.0
