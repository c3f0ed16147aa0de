"""Command-line front-end: regenerate any paper table or figure.

Usage::

    psa-em table1            # or: python -m repro.cli table1
    psa-em fig4 --traces 5
    psa-em mttd
    psa-em sweep --grid table1
    psa-em sweep --grid smoke --no-store     # pin a cold run
    psa-em monitor --preset smoke
    psa-em monitor --fleet 4 --events fleet.jsonl
    psa-em serve --preset smoke              # streaming monitor service
    psa-em serve --selftest                  # headless CI smoke
    psa-em store stats                       # artifact-store admin
    psa-em store gc --max-mb 512
    psa-em store clear
    psa-em all

Sweep and monitor runs warm-start from the content-addressed artifact
store by default (``REPRO_STORE_DIR`` or the user cache dir); pass
``--no-store`` for a guaranteed cold run — warm and cold timings are
reported separately, never silently mixed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .config import SimConfig
from .errors import AnalysisError, ReproError, unknown_name_error
from .experiments.context import ExperimentContext
from .runtime.presets import MONITOR_PRESETS
from .store import ArtifactStore
from .sweep.grid import GRIDS
from .sweep.localize import LOCALIZE_GRIDS


def _resolve_store(args: argparse.Namespace) -> Optional[ArtifactStore]:
    """The artifact store selected by the CLI flags (None = cold run)."""
    if args.no_store:
        return None
    return ArtifactStore(args.store_dir)


def _store_summary(store: Optional[ArtifactStore]) -> str:
    """One-line provenance of a run's store usage.

    Cold runs say so explicitly and warm runs report their hit/miss
    counts, so a pasted timing is never ambiguous about whether it
    was store-accelerated.
    """
    if store is None:
        return "store: disabled (cold run)"
    return (
        f"store: {store.hits} hits, {store.misses} misses, "
        f"{store.writes} writes ({store.root})"
    )


def _traces(args: argparse.Namespace) -> Dict[str, int]:
    """``n_traces`` only when ``--traces`` is given.

    An absent flag keeps each experiment's own default (Table 1 needs
    at least 4 traces per population; Figure 4 averages 5).
    """
    return {} if args.traces is None else {"n_traces": args.traces}


def _cmd_table1(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.table1 import format_table1, run_table1

    return format_table1(run_table1(ctx, **_traces(args)))


def _cmd_table2(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.table2 import format_table2, run_table2

    return format_table2(run_table2())


def _cmd_fig3(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.fig3 import format_fig3, run_fig3

    return format_fig3(run_fig3(ctx, **_traces(args)))


def _cmd_fig4(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.fig4 import format_fig4, run_fig4

    return format_fig4(run_fig4(ctx, **_traces(args)))


def _cmd_fig5(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.fig5 import format_fig5, run_fig5

    return format_fig5(run_fig5(ctx))


def _cmd_snr(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.snr import format_snr, run_snr

    return format_snr(run_snr(ctx))


def _cmd_mttd(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.mttd import format_mttd, run_mttd

    return format_mttd(run_mttd(ctx))


def _cmd_localize(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.localization import (
        format_localization,
        run_localization,
    )

    return format_localization(run_localization(ctx))


def _cmd_robustness(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.robustness import format_robustness, run_robustness

    return format_robustness(run_robustness(ctx))


def _cmd_cost(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.cost import format_cost, run_cost

    return format_cost(run_cost())


def _cmd_sweep(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from dataclasses import replace

    from .sweep import (
        DetectionSweep,
        LocalizationSweep,
        build_grid,
        build_localize_grid,
    )

    store = _resolve_store(args)
    if args.grid in LOCALIZE_GRIDS:
        if args.detector is not None:
            raise AnalysisError(
                f"--detector applies to detection grids only; "
                f"{args.grid!r} is a localization grid"
            )
        sweep = LocalizationSweep(
            ctx.config, campaign=ctx.campaign, store=store
        )
        report = sweep.run(build_localize_grid(args.grid))
    else:
        if args.grid not in GRIDS:
            raise unknown_name_error(
                "sweep grid",
                args.grid,
                sorted(GRIDS) + sorted(LOCALIZE_GRIDS),
            )
        grid = build_grid(args.grid)
        if args.detector is not None:
            _check_detector(args.detector)
            # Re-derive labels so the method shows up in them (and
            # cells differing only by method stay distinct).
            grid = replace(
                grid,
                cells=tuple(
                    replace(cell, detector_name=args.detector, label="")
                    for cell in grid.cells
                ),
            )
        report = DetectionSweep(ctx.campaign, store=store).run(grid)
    if args.sweep_json:
        Path(args.sweep_json).write_text(report.to_json() + "\n")
    return report.format() + "\n" + _store_summary(store)


def _check_detector(name: str) -> None:
    """Friendly unknown-detector error, before any rendering starts."""
    from .detectors import available

    if name not in available():
        raise unknown_name_error("detector", name, available())


def _cmd_monitor(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from dataclasses import replace

    from .runtime import EventBus, JsonlSink, build_fleet
    from .runtime.presets import build_preset

    preset = build_preset(args.preset)
    if args.detector is not None:
        _check_detector(args.detector)
        preset = replace(preset, detector_name=args.detector)
    bus = EventBus()
    sink = None
    store = _resolve_store(args)
    if args.events:
        sink = JsonlSink(args.events)
        bus.subscribe(sink)
    try:
        scheduler = build_fleet(
            preset,
            n_chips=args.fleet,
            config=ctx.config,
            bus=bus,
            store=store,
        )
        report = scheduler.run()
    finally:
        if sink is not None:
            sink.close()
    if args.monitor_json:
        Path(args.monitor_json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
    return report.format() + "\n" + _store_summary(store)


def _cmd_ablations(ctx: ExperimentContext, args: argparse.Namespace) -> str:
    from .experiments.ablations import (
        format_ablations,
        run_duty_sweep,
        run_size_sweep,
        run_turns_sweep,
    )

    return format_ablations(
        run_size_sweep(ctx), run_turns_sweep(ctx), run_duty_sweep()
    )


_COMMANDS: Dict[str, Callable[[ExperimentContext, argparse.Namespace], str]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "snr": _cmd_snr,
    "mttd": _cmd_mttd,
    "localize": _cmd_localize,
    "robustness": _cmd_robustness,
    "cost": _cmd_cost,
    "ablations": _cmd_ablations,
    "sweep": _cmd_sweep,
    "monitor": _cmd_monitor,
}


def build_store_parent() -> argparse.ArgumentParser:
    """Shared ``--store-dir/--no-store`` flags (warm-start control)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--store-dir",
        metavar="PATH",
        default=None,
        help=(
            "artifact-store root for warm-starts "
            "(default: $REPRO_STORE_DIR, else the user cache dir)"
        ),
    )
    parent.add_argument(
        "--no-store",
        action="store_true",
        help=(
            "disable the artifact store for this run (guaranteed "
            "cold start; CI smoke jobs use this to pin cold timings)"
        ),
    )
    return parent


def build_detector_parent() -> argparse.ArgumentParser:
    """Shared ``--detector`` method-override flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--detector",
        metavar="NAME",
        default=None,
        help=(
            "detection method override: the session/sweep runs under "
            "this registered detector (default: the grid's/preset's "
            "own; builtin methods: welford, spectral, persistence)"
        ),
    )
    return parent


def build_events_parent() -> argparse.ArgumentParser:
    """Shared ``--events`` JSONL audit-log flag."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the session's event log as JSONL to PATH",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="psa-em",
        description=(
            "Regenerate the tables and figures of the PSA EM-sensor "
            "Trojan-detection paper from simulation."
        ),
        parents=[
            build_store_parent(),
            build_detector_parent(),
            build_events_parent(),
        ],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--traces",
        type=int,
        default=None,
        help="traces per population where applicable (default: each experiment's own)",
    )
    parser.add_argument(
        "--grid",
        metavar="NAME",
        default="smoke",
        help=(
            "named grid for the sweep command: a detection grid "
            f"({', '.join(sorted(GRIDS))}) or a localization grid "
            f"({', '.join(sorted(LOCALIZE_GRIDS))}); default smoke"
        ),
    )
    parser.add_argument(
        "--sweep-json",
        metavar="PATH",
        default=None,
        help="also write the sweep report as JSON to PATH",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(MONITOR_PRESETS),
        default="paper",
        help=(
            "named session script for the monitor command "
            "(default paper)"
        ),
    )
    parser.add_argument(
        "--fleet",
        type=int,
        default=1,
        help=(
            "chips monitored concurrently by the monitor command "
            "(default 1; fleets cycle the T1..T4 catalog)"
        ),
    )
    parser.add_argument(
        "--monitor-json",
        metavar="PATH",
        default=None,
        help="also write the monitor fleet report as JSON to PATH",
    )
    return parser


def build_store_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro store`` administrative subcommand."""
    parser = argparse.ArgumentParser(
        prog="psa-em store",
        description="Administer the content-addressed artifact store.",
    )
    parser.add_argument(
        "action",
        choices=("stats", "gc", "clear"),
        help="stats: show contents; gc: LRU-evict; clear: drop all",
    )
    parser.add_argument(
        "--store-dir",
        metavar="PATH",
        default=None,
        help=(
            "store root (default: $REPRO_STORE_DIR, else the user "
            "cache dir)"
        ),
    )
    parser.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="gc size cap in MB (default: the store's configured cap)",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro serve`` subcommand.

    Shares the engine/store/detector/events parent parsers with the
    main command set, so flags and help text are identical across
    ``sweep``, ``monitor`` and ``serve``.
    """
    parser = argparse.ArgumentParser(
        prog="psa-em serve",
        description=(
            "Run the fleet-scale streaming monitoring service: accept "
            "chip trace streams over HTTP/WebSocket, monitor each with "
            "its own escalation pipeline, expose /metrics and per-chip "
            "reports."
        ),
        parents=[
            build_store_parent(),
            build_detector_parent(),
            build_events_parent(),
        ],
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 picks a free port; default 8765)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(MONITOR_PRESETS),
        default="smoke",
        help=(
            "pipeline tuning preset for onboarded chips "
            "(default smoke)"
        ),
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=4,
        help="bounded chunk queue per chip session (default 4)",
    )
    parser.add_argument(
        "--high-water",
        type=int,
        default=256,
        metavar="WINDOWS",
        help=(
            "service-wide queued-window bound; past it pushed work "
            "is shed until the backlog drains (default 256)"
        ),
    )
    parser.add_argument(
        "--analysis-workers",
        type=int,
        default=4,
        help="threads in the shared analysis pool (default 4)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "boot the service, stream one recorded session through "
            "the replay endpoint, assert an alarm, sane /metrics (a "
            "windows/s the upload's wall time bears out) and a 400 for "
            "a truncated copy and for a copy with one member retyped "
            "to big-endian, and that a WebSocket closed before 'end' "
            "frees its chip, then exit (the CI serve-smoke job)"
        ),
    )
    return parser


def _retyped(payload: bytes) -> bytes:
    """``payload`` with its first trace's npy dtype set to big-endian.

    numpy itself would read the member (as other numbers); the strict
    trace reader must refuse it.  The archive is rebuilt, so every CRC
    still holds.
    """
    import io
    import zipfile

    buffer = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(payload)) as source, zipfile.ZipFile(
        buffer, "w"
    ) as target:
        for name in source.namelist():
            raw = source.read(name)
            if name == "trace_00000.npy":
                raw = raw.replace(b"'descr': '<f8'", b"'descr': '>f8'", 1)
            target.writestr(name, raw)
    return buffer.getvalue()


def _selftest_dropped_socket(client, path: Path) -> None:
    """Push one chunk as ``selftest-ws``, disconnect before ``end``.

    The socket's session must be dropped: the service back to only
    ``selftest`` and no window left queued.
    """
    import time

    from .runtime import ReplaySource
    from .serve import pack_chunk

    source = ReplaySource(path)
    ws = client.websocket("/chips/selftest-ws/ws")
    ws.send_json({"op": "hello", "n_streams": source.n_streams})
    ws.recv_json()
    ws.send(pack_chunk(next(source.chunks())))
    ws.recv_json()
    ws.close()
    for _ in range(200):  # the server notices the close within ~10 s
        _, metrics = client.get("/metrics")
        onboarded = [chip["chip"] for chip in metrics["chips"]]
        if onboarded == ["selftest"] and metrics["queued_windows"] == 0:
            return
        time.sleep(0.05)
    raise AnalysisError(
        f"selftest-ws session outlived its socket: chips {onboarded}, "
        f"{metrics['queued_windows']} windows queued"
    )


def _serve_selftest(service, config: SimConfig) -> str:
    """Boot, upload one recorded stream and two damaged copies, check all.

    The damaged copies are the stream cut in half and the stream with
    one member's npy dtype changed; both must answer 400 and onboard
    nothing.  Then a WebSocket pushes one chunk and disconnects before
    ``end``; its chip must be dropped.  The headless CI path:
    everything in-process, no fixed port, the same client the tests
    use.
    """
    import tempfile
    import time

    from .runtime import build_chip_monitor, build_preset, record_stream
    from .serve import ServiceRunner

    preset = build_preset(service.config.preset)
    spec = preset.specs(1)[0]
    monitor = build_chip_monitor(
        spec, config=config, pipeline_config=service.tuning
    )
    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        path = Path(tmp) / "stream.npz"
        record_stream(monitor.source, path)
        payload = path.read_bytes()
        with ServiceRunner(service) as runner:
            client = runner.client(timeout=300)
            started = time.monotonic()
            status, report = client.post("/chips/selftest/replay", payload)
            upload_s = time.monotonic() - started
            if status != 200:
                raise AnalysisError(
                    f"selftest replay upload failed: {status} {report}"
                )
            if not report.get("detected"):
                raise AnalysisError(
                    "selftest stream produced no detection; report: "
                    f"{json.dumps(report)}"
                )
            for kind, damaged in (
                ("truncated", payload[: len(payload) // 2]),
                ("retyped", _retyped(payload)),
            ):
                status, body = client.post(f"/chips/selftest-{kind}/replay", damaged)
                if status != 400 or "not a readable trace archive" not in str(body):
                    raise AnalysisError(
                        f"selftest {kind} upload answered {status}, not a 400 "
                        f"refusing the archive: {body}"
                    )
                status, chips = client.get("/chips")
                onboarded = [chip["chip"] for chip in chips["chips"]]
                if onboarded != ["selftest"]:
                    raise AnalysisError(
                        f"selftest {kind} upload onboarded a chip: {onboarded}"
                    )
            status, metrics = client.get("/metrics")
            _selftest_dropped_socket(client, path)
    if status != 200 or metrics.get("alarms_total", 0) < 1:
        raise AnalysisError(f"selftest metrics are not sane: {metrics}")
    if metrics["windows_total"] != report["n_windows"]:
        raise AnalysisError(
            f"selftest lost windows: processed {metrics['windows_total']} "
            f"of {report['n_windows']}"
        )
    # The meter's busy span is the upload's analysis: it lies inside
    # the upload, and it is most of it.  A rate past 10x windows over
    # the upload's wall time means the span missed the analysis (a
    # first chunk's own time uncounted reads ~100x).
    floor = report["n_windows"] / upload_s
    if not floor <= metrics["windows_per_sec"] <= 10.0 * floor:
        raise AnalysisError(
            f"selftest rate {metrics['windows_per_sec']:.1f} win/s is not "
            f"within 1-10x of {report['n_windows']} windows over the "
            f"upload's {upload_s:.3f} s"
        )
    return (
        f"serve selftest: OK — {report['n_windows']} windows, "
        f"first alarm @ {report['first_alarm']}, "
        f"identified {report['identification']['label']}, "
        f"{metrics['windows_per_sec']:.1f} win/s"
    )


def serve_main(argv: List[str]) -> int:
    """Entry point of ``repro serve``."""
    import asyncio

    args = build_serve_parser().parse_args(argv)
    config = SimConfig()
    try:
        if args.detector is not None:
            _check_detector(args.detector)
        from .serve import MonitorService, ServeConfig

        store = _resolve_store(args)
        service = MonitorService(
            ServeConfig(
                host=args.host,
                port=0 if args.selftest else args.port,
                preset=args.preset,
                detector=args.detector,
                queue_depth=args.queue_depth,
                high_water_windows=args.high_water,
                analysis_workers=args.analysis_workers,
                events_path=None if args.events is None else Path(args.events),
            ),
            sim_config=config,
            store=store,
        )
        if args.selftest:
            print(_serve_selftest(service, config))
            print(_store_summary(store))
            return 0

        def announce(svc) -> None:
            print(
                f"serve: listening on http://{args.host}:{svc.port} "
                f"(preset {args.preset}, queue depth "
                f"{args.queue_depth}, POST /shutdown to stop)",
                flush=True,
            )

        try:
            asyncio.run(service.serve_forever(on_ready=announce))
        except KeyboardInterrupt:
            pass
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def store_main(argv: List[str]) -> int:
    """Entry point of ``repro store {stats,gc,clear}``."""
    args = build_store_parser().parse_args(argv)
    store = ArtifactStore(args.store_dir)
    if args.action == "stats":
        print(store.stats().format())
    elif args.action == "gc":
        cap = None if args.max_mb is None else int(args.max_mb * 1e6)
        evicted, freed = store.gc(cap)
        print(
            f"gc: evicted {evicted} entries ({freed / 1e6:.1f} MB) "
            f"from {store.root}"
        )
    else:
        removed = store.clear()
        print(f"clear: removed {removed} entries from {store.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        return store_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    args = build_parser().parse_args(argv)
    ctx = ExperimentContext.build(SimConfig())
    try:
        names = (
            sorted(_COMMANDS) if args.experiment == "all" else [args.experiment]
        )
        for name in names:
            print(f"=== {name} ===")
            print(_COMMANDS[name](ctx, args))
            print()
    except ReproError as exc:
        # Unknown grid/detector/preset names and similar user errors
        # get a one-line message, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        ctx.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
