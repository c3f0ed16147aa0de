"""Floorplan geometry and region weighting."""

import numpy as np
import pytest

from repro.chip.floorplan import (
    DIE_SIZE,
    POWER_STRIPES,
    Floorplan,
    Rect,
    default_floorplan,
    sensor_rect,
)
from repro.chip.testchip import TestChip as AesTestChip
from repro.config import SimConfig
from repro.errors import FloorplanError


def _overlap_area(a: Rect, b: Rect) -> float:
    """Area of the intersection of two rectangles."""
    dx = min(a.x1, b.x1) - max(a.x0, b.x0)
    dy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if dx <= 0.0 or dy <= 0.0:
        return 0.0
    return dx * dy


def _region_rect(floorplan: Floorplan, region: int) -> Rect:
    row, col = divmod(region, floorplan.n_regions_side)
    size = floorplan.region_size
    x0, y0 = col * size, row * size
    return Rect(x0, y0, x0 + size, y0 + size)


def _return_point(x: float, y: float):
    """The nearest power stripe at the same ``y``."""
    return (float(POWER_STRIPES[int(np.argmin(np.abs(POWER_STRIPES - x)))]), y)


def _reference_module_weights(floorplan: Floorplan, module: str) -> np.ndarray:
    """The per-region loop ``Floorplan.module_weights`` must reproduce."""
    weights = np.zeros(floorplan.n_regions)
    total = 0.0
    for rect in floorplan.placements[module]:
        total += rect.area
        for region in range(floorplan.n_regions):
            overlap = _overlap_area(_region_rect(floorplan, region), rect)
            if overlap > 0.0:
                weights[region] += overlap
    return weights / total


def _reference_dipole_pairs(floorplan: Floorplan):
    """The per-region loop ``Floorplan.dipole_pairs`` must reproduce."""
    centers = floorplan.region_centers()
    returns = np.array([_return_point(x, y) for x, y in centers])
    return centers, returns


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_rect_basics():
    rect = Rect(0.0, 0.0, 2.0, 1.0)
    assert rect.area == pytest.approx(2.0)
    assert rect.center == (1.0, 0.5)
    assert (rect.width, rect.height) == (2.0, 1.0)


def test_rect_rejects_degenerate():
    with pytest.raises(FloorplanError):
        Rect(0.0, 0.0, 0.0, 1.0)


def test_sensor_rects_cover_die():
    """The 16 sensors jointly cover the full die area."""
    rects = [sensor_rect(i) for i in range(16)]
    assert min(r.x0 for r in rects) == pytest.approx(0.0)
    assert max(r.x1 for r in rects) == pytest.approx(DIE_SIZE, rel=0.02)
    # Row-major indexing: sensor 0 is top-left.
    s0 = sensor_rect(0)
    assert s0.x0 == 0.0
    assert s0.y1 == pytest.approx(DIE_SIZE)


def test_sensor_overlap_fraction():
    """Adjacent sensors share 3/11 of their area (see DESIGN.md)."""
    s5, s6 = sensor_rect(5), sensor_rect(6)
    share = _overlap_area(s5, s6) / s5.area
    assert share == pytest.approx(3.0 / 11.0, rel=0.01)


def test_default_floorplan_places_trojans_under_sensor10():
    floorplan = default_floorplan()
    s10 = sensor_rect(10)
    for trojan in ("T1", "T2", "T3", "T4"):
        rect = floorplan.placements[trojan][0]
        assert _overlap_area(s10, rect) == pytest.approx(rect.area, rel=1e-9)


def test_trojans_one_per_quadrant():
    floorplan = default_floorplan()
    centers = {
        name: floorplan.placements[name][0].center
        for name in ("T1", "T2", "T3", "T4")
    }
    cx = 22.0 * DIE_SIZE / 35.0
    cy = 14.0 * DIE_SIZE / 35.0
    assert centers["T1"][0] < cx and centers["T1"][1] > cy  # nw
    assert centers["T2"][0] > cx and centers["T2"][1] > cy  # ne
    assert centers["T3"][0] < cx and centers["T3"][1] < cy  # sw
    assert centers["T4"][0] > cx and centers["T4"][1] < cy  # se


def test_sensor0_patch_is_trojan_free():
    floorplan = default_floorplan()
    s0 = sensor_rect(0)
    for trojan in ("T1", "T2", "T3", "T4"):
        rect = floorplan.placements[trojan][0]
        assert _overlap_area(s0, rect) == 0.0


def test_module_weights_normalized():
    floorplan = default_floorplan()
    for module in floorplan.placements:
        weights = floorplan.module_weights(module)
        assert weights.shape == (floorplan.n_regions,)
        assert weights.sum() == pytest.approx(1.0, rel=1e-6)
        assert (weights >= 0).all()


def test_region_centers_avoid_lattice_wires():
    """Region centers sit mid-cell (see floorplan docstring)."""
    floorplan = default_floorplan()
    pitch = DIE_SIZE / 35.0
    centers = floorplan.region_centers()
    offsets = (centers / pitch) % 1.0
    assert np.allclose(offsets, 0.5, atol=1e-6)


def test_return_points_on_stripes():
    floorplan = default_floorplan()
    sources, returns = floorplan.dipole_pairs()
    assert sources.shape == returns.shape == (floorplan.n_regions, 2)
    for x in returns[:, 0]:
        assert np.min(np.abs(POWER_STRIPES - x)) < 1e-12
    # y coordinates are preserved.
    assert np.allclose(sources[:, 1], returns[:, 1])


def test_trojan_returns_stay_in_sensor10_core():
    """Both Trojan poles must sit in sensor 10's exclusive zone."""
    floorplan = default_floorplan()
    pitch = DIE_SIZE / 35.0
    x_lo, x_hi = 19.0 * pitch, 24.0 * pitch
    for trojan in ("T1", "T2", "T3", "T4"):
        cx, cy = floorplan.placements[trojan][0].center
        rx, _ = _return_point(cx, cy)
        assert x_lo < cx < x_hi
        assert x_lo < rx < x_hi


def test_floorplan_rejects_out_of_die_modules():
    with pytest.raises(FloorplanError):
        Floorplan({"bad": [Rect(0, 0, 2e-3, 1e-4)]})


def test_module_weights_match_per_region_reference():
    floorplan = default_floorplan()
    assert len(floorplan.placements["io_ring"]) == 4  # a multi-rect module
    for module in floorplan.placements:
        _assert_same_bytes(
            floorplan.module_weights(module),
            _reference_module_weights(floorplan, module),
        )


def _random_rect(rng, size: float, n_side: int) -> Rect:
    """A random rect: region-snapped edges, sub-region size, or free."""
    kind = rng.integers(3)
    if kind == 0:
        # Every edge exactly on a region boundary (dx == 0 neighbours).
        c0, c1 = np.sort(rng.choice(n_side + 1, size=2, replace=False))
        r0, r1 = np.sort(rng.choice(n_side + 1, size=2, replace=False))
        return Rect(c0 * size, r0 * size, c1 * size, r1 * size)
    if kind == 1:
        # Under one region wide and tall, anywhere on the die.
        w, h = rng.uniform(0.05, 0.95, size=2) * size
        x0 = rng.uniform(0.0, n_side * size - w)
        y0 = rng.uniform(0.0, n_side * size - h)
        return Rect(x0, y0, x0 + w, y0 + h)
    x0, x1 = np.sort(rng.uniform(0.0, n_side * size, size=2))
    y0, y1 = np.sort(rng.uniform(0.0, n_side * size, size=2))
    return Rect(x0, y0, x1, y1)


@pytest.mark.parametrize("n_side", [2, 7, 35])
def test_module_weights_match_reference_on_random_placements(n_side):
    rng = np.random.default_rng(n_side)
    size = DIE_SIZE / n_side
    placements = {
        f"m{i}": [
            _random_rect(rng, size, n_side)
            for _ in range(int(rng.integers(1, 5)))
        ]
        for i in range(24)
    }
    floorplan = Floorplan(placements, n_regions_side=n_side)
    for module in placements:
        _assert_same_bytes(
            floorplan.module_weights(module),
            _reference_module_weights(floorplan, module),
        )


def test_snapped_rect_weights_skip_touching_regions():
    """Regions that only share an edge with a rect get exactly zero."""
    size = DIE_SIZE / 35
    floorplan = Floorplan({"cell": [Rect(3 * size, 5 * size, 4 * size, 6 * size)]})
    weights = floorplan.module_weights("cell")
    assert np.count_nonzero(weights) == 1
    assert weights[5 * floorplan.n_regions_side + 3] == 1.0


def test_dipole_pairs_match_per_region_reference():
    for floorplan in (default_floorplan(), Floorplan({}, n_regions_side=7)):
        for actual, expected in zip(
            floorplan.dipole_pairs(), _reference_dipole_pairs(floorplan)
        ):
            _assert_same_bytes(actual, expected)


def test_chip_build_makes_no_per_region_rects(monkeypatch):
    """Building a chip must not walk the region grid one Rect at a time."""
    made = []
    post_init = Rect.__post_init__

    def counting_post_init(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Rect, "__post_init__", counting_post_init)
    floorplan = default_floorplan()
    chip = AesTestChip(bytes(range(16)), SimConfig(), floorplan=floorplan)
    floorplan.dipole_pairs()
    assert chip.factor_weights("T1").shape == (floorplan.n_regions,)
    assert 0 < len(made) < 100
