"""Serve service throughput: concurrent replayed chip streams.

Boots one :class:`~repro.serve.MonitorService` and replays the same
recorded **soak** session (24 quiet + 12 active windows, the run-time
monitor sensor stream — the paper's RASC deployment shape) under many
concurrent chip identities through the HTTP replay-upload path, each
from its own client thread.  This measures the service, not the
simulator: the archive is rendered once up front, so windows/sec is
ingest + analysis + reporting across the whole fleet.

Checks:

* every stream finishes with a 200 report, a detection verdict and a
  per-chip MTTD gauge in ``/metrics``;
* nothing is shed on the flow-controlled path and the overload guard
  never trips (a healthy soak degrades nothing);
* the service-side aggregate windows/sec meets the in-process
  ``BENCH_runtime.json`` fleet row (this run's, else the committed
  one) — fronting the pipeline with a network service must not cost
  the fleet its throughput;
* memory stays bounded while serving: the peak-RSS mark is reset
  just before the soak, and its peak (``VmHWM``) over the RSS at the
  reset stays under ``MAX_RSS_GROWTH_MB`` (bounded queues, not
  fleet-sized buffering).  The lifetime peak would hide the soak
  behind whatever the test session touched before it.

Results land in ``BENCH_serve.json`` (see ``bench_report.py``).  Set
``SERVE_SMOKE=1`` for the CI variant (fewer chips, no absolute
throughput floor — the committed baseline in
``benchmarks/baselines/BENCH_serve.json`` gates regressions instead).
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import replace
from bench_report import read_report, write_report
from repro.runtime.presets import build_preset
from repro.runtime.sources import (
    DEFAULT_MONITOR_SENSOR,
    ReplaySource,
    record_stream,
)
from repro.runtime.fleet import build_chip_monitor
from repro.serve import MonitorService, ServeConfig, ServiceRunner

SMOKE = os.environ.get("SERVE_SMOKE", "") not in ("", "0")
#: Concurrent replayed chip streams (the acceptance floor is 64).
N_CHIPS = 8 if SMOKE else 64
ANALYSIS_WORKERS = 4
#: Peak-RSS growth bound across the whole soak [MB].
MAX_RSS_GROWTH_MB = 512


def _status_mb(field: str) -> float:
    """One ``/proc/self/status`` memory field (kB on Linux) in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(f"{field}:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} line in /proc/self/status")


def _reset_peak_rss_mb() -> float:
    """Lower the peak-RSS mark to the current RSS; return that RSS [MB]."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")
    return _status_mb("VmRSS")


def test_serve_throughput(tmp_path):
    preset = build_preset("soak")
    spec = replace(
        preset.specs(1)[0], sensors=(DEFAULT_MONITOR_SENSOR,)
    )
    monitor = build_chip_monitor(
        spec, pipeline_config=preset.pipeline_config()
    )
    archive = tmp_path / "soak.npz"
    record_stream(monitor.source, archive)
    payload = archive.read_bytes()
    n_windows = ReplaySource(archive).n_windows

    config = ServeConfig(
        preset="soak",
        queue_depth=4,
        # Sized so a healthy soak never trips overload: sustained
        # backlog stays below ~one queue's worth per chip.
        high_water_windows=max(4096, N_CHIPS * preset.chunk * 8),
        analysis_workers=ANALYSIS_WORKERS,
    )
    rss_before = _reset_peak_rss_mb()
    statuses = [None] * N_CHIPS
    reports = [None] * N_CHIPS
    with ServiceRunner(MonitorService(config)) as runner:

        def upload(index: int) -> None:
            client = runner.client(timeout=600.0)
            status, report = client.post(
                f"/chips/soak{index:03d}/replay?batch={preset.chunk}",
                payload,
            )
            statuses[index] = status
            reports[index] = report

        threads = [
            threading.Thread(target=upload, args=(index,), daemon=True)
            for index in range(N_CHIPS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_seconds = time.perf_counter() - start
        _, metrics = runner.client().get("/metrics")
    rss_after = _status_mb("VmHWM")
    rss_growth = rss_after - rss_before

    assert statuses == [200] * N_CHIPS
    for report in reports:
        assert report["n_windows"] == n_windows
        assert report["detected"] is True
    assert metrics["n_chips"] == N_CHIPS
    assert metrics["windows_total"] == N_CHIPS * n_windows
    assert metrics["alarms_total"] >= N_CHIPS
    assert metrics["sheds_total"] == 0
    assert metrics["overload_active"] is False
    assert metrics["event_counts"].get("Overload", 0) == 0
    for gauge in metrics["chips"]:
        assert gauge["done"] is True
        assert gauge["mttd_ms"] is not None

    service_wps = metrics["windows_per_sec"]
    wall_wps = (N_CHIPS * n_windows) / wall_seconds
    result = {
        "soak": {
            "preset": "soak",
            "n_chips": N_CHIPS,
            "n_windows_per_chip": n_windows,
            "total_windows": N_CHIPS * n_windows,
            "chunk": preset.chunk,
            "queue_depth": config.queue_depth,
            "analysis_workers": ANALYSIS_WORKERS,
            "archive_bytes": len(payload),
        },
        "smoke": SMOKE,
        "service": {
            "seconds": round(wall_seconds, 3),
            "windows_per_sec": round(service_wps, 2),
            "wall_windows_per_sec": round(wall_wps, 2),
            "alarms": metrics["alarms_total"],
            "sheds": metrics["sheds_total"],
        },
        "memory": {
            "rss_before_mb": round(rss_before, 1),
            "peak_rss_after_mb": round(rss_after, 1),
            "growth_mb": round(rss_growth, 1),
            "bound_mb": MAX_RSS_GROWTH_MB,
        },
    }
    write_report("BENCH_serve.json", result)
    print()
    print(json.dumps(result, indent=2))

    assert rss_growth < MAX_RSS_GROWTH_MB, (
        f"peak RSS grew {rss_growth:.0f} MB serving {N_CHIPS} streams "
        f"(bound {MAX_RSS_GROWTH_MB} MB) — buffering is not bounded"
    )
    if not SMOKE:
        fleet_row = read_report("BENCH_runtime.json")
        floor = fleet_row["fleet"]["windows_per_sec"]
        assert service_wps >= floor, (
            f"serve fleet rate {service_wps:.1f} win/s below the "
            f"in-process fleet row {floor:.1f} win/s"
        )
