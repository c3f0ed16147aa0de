#!/usr/bin/env python
"""Quickstart: detect, identify and localize hardware Trojans at run time.

Builds four of the paper's AES-128 test chips, each with its on-chip
Programmable Sensor Array and one of the four catalog Trojans (T1-T4),
and monitors them as deployed: 8 quiet windows, then the Trojan
enabled, every sensor watched at the sideband bins its detector
reads (each window rendered as those rFFT columns).  The first alarm
escalates to zero-span identification and quadrant localization —
golden-model free.

The same session is ``repro monitor --preset paper --fleet 4``.

Run:
    python examples/quickstart.py
"""

from repro.runtime import build_fleet

#: Where each Trojan sits inside sensor 10's footprint.
TRUE_QUADRANT = {"T1": "nw", "T2": "ne", "T3": "sw", "T4": "se"}


def main() -> None:
    report = build_fleet("paper", n_chips=4).run()
    print("chips: AES-128-LUT + UART + 4 Trojans (28,806 cells) each")
    print("PSA: 16 programmable sensors per chip, lattice 36x36")
    print()
    print("trojan | traces to detect | MTTD [ms] | identified | localized")
    for chip in report.chips:
        session = chip.report
        loc = session.localization
        print(
            f"{chip.trojan:6s} | {session.mttd.traces_to_detect:16d} | "
            f"{session.mttd.mttd_s * 1e3:9.2f} | "
            f"{session.identification.label:10s} | "
            f"sensor {loc.sensor_index} {loc.quadrant} "
            f"(truth: sensor 10 {TRUE_QUADRANT[chip.trojan]})"
        )
    print()
    print("paper: <10 traces and <10 ms to detect")


if __name__ == "__main__":
    main()
