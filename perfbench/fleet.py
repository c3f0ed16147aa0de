"""One fleet-workload process: set up, run the fleet, report as JSON.

Run by ``perfbench/run.py`` in a fresh interpreter per run::

    PYTHONPATH=src python3 perfbench/fleet.py --mode cold --seed 7 \\
        --seconds 15 --trace 0 --work DIR --out result.json

The fleet is ``repro monitor --preset soak --fleet 4``: chips T1-T4,
16 sensors each, 24 quiet + 12 active windows in chunks of 16, with
the full IDENTIFY and LOCALIZE escalation.  Modes:

* ``cold``: every fleet runs against a fresh, empty store;
* ``warm``: set-up fills a store under ``DIR`` with every activity
  record the fleet will ask for (what a cold run of it writes), then
  the same fleet and seed re-run against it.

Set-up (imports, chip and sensor-array geometry, the store fill) ends at
``ready_at``.  The process then resets its peak-RSS mark, so ``VmHWM``
covers the measured fleets alone.  A run measures ``--seconds`` worth
of fleets at the nominal cold-fleet duration, and at least
``MIN_FLEETS``; both modes measure the same number.  With
``--trace 1`` the first fleet then runs once more, traced; the
difference of its wall and the first measured fleet's is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import Recorder, install_layers  # noqa: E402

FLEET_CHIPS = 4
PRESET = "soak"
#: Base seeds of the fleet's chip sets (chip ``i`` uses base + ``i``):
#: twelve disjoint sets, every chip of which the library monitors
#: correctly.  The workload seed picks one; a cold run that repeats its
#: fleet takes the next.  Seeds are not used as bases directly because
#: some chips false-alarm in a quiet window (e.g. chip seed 103 with T1
#: or T3 alarms at window 12), which the ground-truth checks reject.
FLEET_BASES = tuple(range(1, 4 * 12, 4))
#: Nominal seconds of one cold fleet on the 2-core host the benchmark
#: was written on.  A run measures ``--seconds`` worth of fleets at this
#: rate, so its work does not depend on host speed.
NOMINAL_FLEET_S = 20.0
#: Fewest fleets a run measures: the host's speed drifts by tens of
#: percent over seconds, so one fleet is too short a sample.
MIN_FLEETS = 2


def vmhwm_kb(pid="self"):
    """Peak resident set of a process [kB], from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc status")


def reset_vmhwm():
    """Lower this process's peak-RSS mark to its current RSS."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


class FleetRun:
    """One assembled fleet plus the host clock of each chip's first alarm."""

    def __init__(self, seed, store_dir):
        from repro.config import SimConfig
        from repro.runtime import EventBus, build_fleet
        from repro.store import ArtifactStore

        self.store = ArtifactStore(store_dir)
        bus = EventBus()
        bus.subscribe(self._on_event)
        self.scheduler = build_fleet(
            PRESET,
            n_chips=FLEET_CHIPS,
            config=SimConfig().with_(seed=seed),
            bus=bus,
            store=self.store,
        )
        self.seed = seed
        self.first_alarm_at = {}

    def _on_event(self, event):
        from repro.runtime.events import Alarm

        if isinstance(event, Alarm):
            self.first_alarm_at.setdefault(event.chip, time.perf_counter())

    def fill(self):
        """Simulate every record the run will read into the store."""
        from repro.runtime import build_preset

        localize_records = build_preset(PRESET).localize_records
        for monitor in self.scheduler.monitors:
            monitor.source.warm_records()
            monitor.source.localization_records(localize_records)
        return {"hits": self.store.hits, "misses": self.store.misses}

    def campaigns(self):
        """``id(campaign) -> chip id`` of every member."""
        return {
            id(monitor.source.campaign): monitor.chip_id
            for monitor in self.scheduler.monitors
        }

    def cache_counts(self):
        """Summed plan-cache and kernel-spectrum lookups so far."""
        from repro.em.coupling import kernel_spectrum_stats

        engines = {
            id(m.source.campaign.psa.engine): m.source.campaign.psa.engine
            for m in self.scheduler.monitors
        }
        hits = misses = 0
        for stats in [e.plan_cache_stats() for e in engines.values()] + [
            kernel_spectrum_stats()
        ]:
            hits += stats["hits"]
            misses += stats["misses"]
        return hits, misses

    def run(self):
        """Run the fleet; the outcome as a JSON-ready dict."""
        cache_before = self.cache_counts()
        bytes_before = self.store.stats().total_bytes
        start = time.perf_counter()
        report = self.scheduler.run()
        end = time.perf_counter()
        cache_after = self.cache_counts()
        self.scheduler.close()
        stats = self.store.stats()
        return {
            "seed": self.seed,
            "start": start,
            "end": end,
            "windows": report.total_windows,
            "streams": self.scheduler.monitors[0].source.n_streams,
            "max_queue_len": report.max_queue_len,
            "backpressure_events": report.backpressure_events,
            "store": {
                "hits": stats.hits,
                "misses": stats.misses,
                "writes": stats.writes,
                "bytes_written": stats.total_bytes - bytes_before,
            },
            "cache": {
                "hits": cache_after[0] - cache_before[0],
                "misses": cache_after[1] - cache_before[1],
            },
            "chips": [
                {
                    "chip": chip.chip_id,
                    "trojan": chip.trojan,
                    "host_sensor": chip.host_sensor,
                    "first_alarm_at": self.first_alarm_at.get(chip.chip_id),
                    "report": chip.report.to_dict(),
                }
                for chip in report.chips
            ],
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("warm", "cold"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    def fleet(rep):
        gc.collect()
        if args.mode == "warm":
            return FleetRun(FLEET_BASES[args.seed % len(FLEET_BASES)], args.work / "store")
        path = args.work / f"store-{rep}"
        shutil.rmtree(path, ignore_errors=True)
        return FleetRun(FLEET_BASES[(args.seed + rep) % len(FLEET_BASES)], path)

    fill = fleet(0).fill() if args.mode == "warm" else None
    run = fleet(0)
    ready_at = time.perf_counter()
    gc.collect()
    reset_vmhwm()
    reps = [run.run()]
    for rep in range(1, max(MIN_FLEETS, math.ceil(args.seconds / NOMINAL_FLEET_S))):
        del run
        run = fleet(rep)
        reps.append(run.run())
    traced = None
    if args.trace:
        # The first fleet once more (on a fresh store when cold), traced:
        # the tracing overhead is its wall minus the untraced first rep.
        del run
        run = fleet(0)
        recorder = Recorder()
        install_layers(recorder, run.campaigns())
        traced = run.run()
        recorder.uninstall()
        traced["spans"] = recorder.spans
        traced["counters"] = dict(recorder.counters)
    args.out.write_text(
        json.dumps(
            {
                "ready_at": ready_at,
                "fill": fill,
                "reps": reps,
                "traced": traced,
                "vmhwm_kb": vmhwm_kb(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
