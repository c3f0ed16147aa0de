#!/usr/bin/env python
"""Programming the PSA lattice: shapes, sizes and locations (Figure 1b).

Demonstrates the core hardware idea: the 36x36 T-gate lattice can be
programmed into coils of arbitrary size and position at run time.
Synthesizes the paper's 2-turn example, a standard 5-turn sensor, and a
custom Trojan-matched probe coil, then measures with each.

Run:
    python examples/program_psa_shapes.py
"""

from repro import ProgrammableSensorArray, SimConfig, TestChip
from repro.core.coil import synthesize_rect_coil
from repro.core.grid import PsaGrid
from repro.core.sensors import standard_sensor_coil
from repro.workloads.campaign import MeasurementCampaign
from repro.workloads.scenarios import scenario_by_name


def describe(coil) -> str:
    outer = coil.turn_rects[0]
    return (
        f"{coil.n_turns} turn(s), outer "
        f"{outer.width * 1e6:.0f} x {outer.height * 1e6:.0f} um, "
        f"{coil.n_tgates} T-gates, R = {coil.resistance():.0f} ohm, "
        f"L ~ {coil.inductance() * 1e9:.0f} nH"
    )


def main() -> None:
    config = SimConfig()
    chip = TestChip(key=bytes(range(16)), config=config)
    psa = ProgrammableSensorArray(chip)
    campaign = MeasurementCampaign(chip, psa)

    # Figure 1b: the 2-turn example coil.
    fig1b = synthesize_rect_coil("figure_1b", col0=0, row0=0, size=6, turns=2)
    print(f"Figure 1b coil     : {describe(fig1b)}")

    grid = PsaGrid()
    fig1b.program(grid)
    print("lattice occupancy  :", grid.n_on, "of 1296 switches on")
    print(grid.ascii_art(step=3))
    fig1b.release(grid)
    print()

    # A standard sensor and a Trojan-matched probe.
    sensor = standard_sensor_coil(10)
    probe = synthesize_rect_coil("ht_matched", col0=19, row0=11, size=6, turns=3)
    print(f"standard sensor 10 : {describe(sensor)}")
    print(f"HT-matched probe   : {describe(probe)}")
    print()

    # Measure the T3 scenario with both: the matched probe concentrates
    # on the Trojan cluster.
    record = campaign.record(scenario_by_name("T3"), 123)
    baseline = campaign.record(scenario_by_name("baseline"), 123)
    for coil in (sensor, probe):
        batch = psa.measure_coils_batch([coil], [record, baseline], [1, 1])
        active, quiet = batch.trace(0, 0), batch.trace(0, 1)
        delta = active.rms() / quiet.rms()
        print(
            f"{coil.name:<18s}: RMS x{delta:5.2f} when T3 activates "
            f"(trace RMS {quiet.rms():.3f} -> {active.rms():.3f} V)"
        )


if __name__ == "__main__":
    main()
