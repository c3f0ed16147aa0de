#!/usr/bin/env python
"""Adaptive scanning: localize a Trojan by reshaping the array.

Demonstrates the PSA's headline flexibility beyond the fixed 16-sensor
layout: a quadtree descent that programs progressively smaller coils
around the strongest sideband response, narrowing the T4 power virus
to a ~170 um window — then renders the floorplan and the score map.

Every scan level renders as ONE batched engine pass over a coupling
stack of its candidate windows; each window's score is bit-identical
to scoring that window on its own.

Run:
    python examples/adaptive_scan.py
"""

import numpy as np

from repro import ProgrammableSensorArray, SimConfig, TestChip
from repro.core.analysis.localizer import Localizer
from repro.core.analysis.scanner import AdaptiveScanner
from repro.visualize import floorplan_map, score_heatmap
from repro.workloads.campaign import MeasurementCampaign
from repro.workloads.scenarios import reference_for, scenario_by_name


def main() -> None:
    config = SimConfig()
    chip = TestChip(key=bytes(range(16)), config=config)
    psa = ProgrammableSensorArray(chip)
    campaign = MeasurementCampaign(chip, psa)

    print("die floorplan (1 = T1 .. 4 = T4):")
    print(floorplan_map(chip.floorplan, width=56, height=24))
    print()

    trojan = "T4"
    reference = reference_for(trojan)
    baseline = [campaign.record(reference, i) for i in range(2)]
    active = [
        campaign.record(scenario_by_name(trojan), 500 + i) for i in range(2)
    ]

    print(f"adaptive scan for {trojan} (coarse stage, one batched "
          "render per level):")
    scanner = AdaptiveScanner(psa)
    scan = scanner.scan(baseline, active)
    for level, winner in enumerate(scan.path):
        print(
            f"  level {level}: window ({winner.col0},{winner.row0}) "
            f"size {winner.size} pitches — score {winner.score*1e3:.2f} mV"
        )
    true = chip.floorplan.placements[trojan][0].center
    error = np.hypot(scan.position[0] - true[0], scan.position[1] - true[1])
    print(
        f"  scan estimate ({scan.position[0]*1e6:.0f}, "
        f"{scan.position[1]*1e6:.0f}) um — {error*1e6:.0f} um from truth, "
        f"{scan.n_measurement_windows} programmed windows"
    )
    print()

    print("precision stage (fixed 16-sensor map + quadrant refinement):")
    localizer = Localizer(psa)
    result = localizer.localize(baseline, active, refine=True)
    print("  score heatmap (4x4 sensors):")
    for line in score_heatmap(result.scores).splitlines():
        print("   ", line)
    error = np.hypot(
        result.position[0] - true[0], result.position[1] - true[1]
    )
    print(
        f"  sensor {result.sensor_index}, quadrant {result.quadrant}, "
        f"position ({result.position[0]*1e6:.0f}, "
        f"{result.position[1]*1e6:.0f}) um — {error*1e6:.0f} um from truth"
    )


if __name__ == "__main__":
    main()
