"""Golden event transcript of the 4-chip smoke fleet.

``tests/data/fleet_transcript_golden.json`` holds every event the
smoke fleet (``build_fleet("smoke", n_chips=4)``, default seed) puts on
its shared bus, in bus order: the event type, the chip, the window and
the event's discrete fields (scenario and alarm flag of a window, the
alarming sensor, the identified label, the localized sensor and
quadrant, the state transition).  Float payloads are left out: the
detector and localize goldens pin those at their own tolerances.

The transcript is the fleet's scheduling contract: how the scheduler
renders chunks may change, but not which chip decides what, when, and
in which order relative to the other chips.  Scheduler ``Backpressure``
events are not part of it.

Regenerate (only for an intended scheduling change) with::

    PYTHONPATH=src python tests/test_fleet_transcript_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.runtime import EventBus, build_fleet

FLEET_TRANSCRIPT_GOLDEN = (
    Path(__file__).parent / "data" / "fleet_transcript_golden.json"
)

#: Discrete payload fields kept per event type.
KEY_FIELDS = {
    "WindowProcessed": ("scenario", "alarm"),
    "Alarm": ("sensor", "escalating"),
    "TrojanIdentified": ("label",),
    "TrojanLocalized": ("sensor", "quadrant"),
    "StateChanged": ("previous", "current"),
}


def fleet_transcript() -> list:
    """Run the smoke fleet; its bus transcript as JSON-ready rows."""
    bus = EventBus()
    rows = []

    def record(event):
        name = type(event).__name__
        if name == "Backpressure":
            return
        row = {"type": name, "chip": event.chip, "window": event.window}
        for key in KEY_FIELDS[name]:
            row[key] = getattr(event, key)
        rows.append(row)

    bus.subscribe(record)
    scheduler = build_fleet("smoke", n_chips=4, bus=bus)
    try:
        scheduler.run()
    finally:
        scheduler.close()
    return rows


def test_fleet_transcript_matches_golden():
    expected = json.loads(FLEET_TRANSCRIPT_GOLDEN.read_text())
    actual = fleet_transcript()
    assert len(actual) == len(expected["events"])
    for index, (row, want) in enumerate(zip(actual, expected["events"])):
        assert row == want, f"event {index} differs"


def test_golden_transcript_covers_every_stage():
    """The pinned transcript exercises the full escalation, per chip."""
    events = json.loads(FLEET_TRANSCRIPT_GOLDEN.read_text())["events"]
    chips = sorted({row["chip"] for row in events})
    assert chips == ["chip0", "chip1", "chip2", "chip3"]
    for chip in chips:
        types = {row["type"] for row in events if row["chip"] == chip}
        assert {
            "WindowProcessed",
            "Alarm",
            "TrojanIdentified",
            "TrojanLocalized",
            "StateChanged",
        } <= types


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fleet_transcript_golden.py --write")
    payload = {"events": fleet_transcript()}
    # One event per line, so a scheduling change diffs event by event.
    lines = ",\n".join(
        "  " + json.dumps(row, sort_keys=True) for row in payload["events"]
    )
    FLEET_TRANSCRIPT_GOLDEN.write_text('{"events": [\n' + lines + "\n]}\n")
    print(f"wrote {FLEET_TRANSCRIPT_GOLDEN} ({len(payload['events'])} events)")
