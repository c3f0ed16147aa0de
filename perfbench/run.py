"""The repository benchmark: three monitoring workloads, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_cold --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``fleet_cold``
    ``repro monitor --preset soak --fleet 4`` against an empty store:
    activity simulation, render, analysis, escalation, store writes.
``fleet_warm``
    The same fleet and seed re-run against the store its set-up filled.
``serve_replay``
    ``repro serve --preset soak --no-store --analysis-workers 2`` in its
    own process, fed one-sensor soak archives by an open-loop generator
    at ``UPLOAD_RATE`` uploads/s over ``CONNECTIONS`` keep-alive
    connections, each upload under a fresh chip id.

Every operation (a fleet chip or an upload) is checked against its
scripted truth.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The traced run also prints the
stage ledger and writes Chrome trace-event JSON (open it in Perfetto)
under ``.bench_build/perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import store_failures, tail, upload_failures, verdict_failures  # noqa: E402
from fleet import vmhwm_kb  # noqa: E402
from ledger import Recorder, chrome_trace, covered, format_ledger, ledger  # noqa: E402

WORKLOADS = ("fleet_cold", "fleet_warm", "serve_replay")
DEFAULT_SEED = 20240122
#: Open-loop upload rate [1/s]: about half of what a 2-core host serves.
UPLOAD_RATE = 4.0
#: Keep-alive connections of the load generator (the host's core count).
CONNECTIONS = 2
#: Server boots per run; ``setup_s`` is their median.
SERVER_BOOTS = 3
SERVE_ARGS = ["--preset", "soak", "--no-store", "--analysis-workers", "2", "--port", "0"]
#: The service's onboarding bound (``ServeConfig.max_chips``).
MAX_CHIPS = 1024
#: Longest any child process may take [s].
CHILD_TIMEOUT_S = 150


def child_env(work):
    """Environment of every child: library on the path, files in ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH="src" + (os.pathsep + path if path else ""),
        TMPDIR=str(tmp),
        REPRO_STORE_DIR=str(work / "default-store"),
    )


class Outcome:
    """Operations checked, failures found and the numbers measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.run_failures = []
        self.e2e = {}
        self.layers = {}
        self.notes = []

    def check(self, label, failures):
        self.attempted += 1
        self.failed += bool(failures)
        self.failures.extend(f"{label}: {reason}" for reason in failures)


def layer_metrics(spans, table, counters, extra):
    """Per-layer metrics from a traced run; ``extra`` adds the layer
    counters read outside the spans (store, scheduler, ``/metrics``)."""
    layers = table["layers"]

    def self_of(suffix):
        return sum(v for k, v in table["by_name"].items() if k.endswith(suffix))

    def calls_of(suffix):
        return sum(1 for span in spans if span["name"].endswith(suffix))

    passes = counters.get("engine.passes", 0)
    metrics = {
        "chip.calls": layers["chip"]["calls"],
        "chip.busy_s": layers["chip"]["self_s"],
        "chip.share": layers["chip"]["share"],
        "store.reads": calls_of(".__getitem__"),
        "store.read_s": self_of(".__getitem__"),
        "store.writes": calls_of(".__setitem__"),
        "store.write_s": self_of(".__setitem__"),
        "engine.passes": passes,
        "engine.captures": counters.get("engine.captures", 0),
        "engine.render_s": layers["engine"]["self_s"],
        "engine.fusion": counters.get("engine.tickets", 0) / passes if passes else 0.0,
        "analysis.windows": counters.get("analysis.windows", 0),
        "analysis.features_s": self_of(".chunk_features"),
        "analysis.identify_s": self_of(".classify"),
        "analysis.localize_s": self_of(".localize"),
        "runtime.self_s": layers["runtime"]["self_s"],
        "traceio.chunks": counters.get("traceio:ReplaySource.chunks.items", 0),
        "traceio.decode_s": layers["traceio"]["self_s"],
        "serve.self_s": layers["serve"]["self_s"],
        "unattributed.share": table["unattributed_share"],
    }
    metrics.update(extra)
    return metrics


def alarm_order_stats(alarms):
    """``(median, tail, tail percentile, samples)`` of alarm times, or None."""
    if not alarms:
        return None
    return (statistics.median(alarms), *tail(alarms))


def alarm_metrics(outcome, alarms):
    """Median and tail of the time to alarm; the tail's percentile and count."""
    stats = alarm_order_stats(alarms)
    if stats is None:
        return 0.0, 0
    outcome.e2e["time_to_alarm_s"], outcome.e2e["time_to_alarm_tail_s"] = stats[:2]
    return stats[2], stats[3]


def mttd_note(reports):
    """The paper's modelled MTTD: deterministic, so printed, not timed."""
    mttds = [(r.get("mttd") or {}).get("mttd_s") for r in reports]
    mttds = [m for m in mttds if m is not None]
    if not mttds:
        return "mttd_ms -"
    return f"mttd_ms {1e3 * statistics.median(mttds):.3f} (modelled, deterministic)"


def write_trace(workload, seed, spans, origin):
    traces = Path(".bench_build") / "perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(chrome_trace(spans, origin)))
    return path


# -- fleet workloads ---------------------------------------------------------


def run_fleet(workload, args, work, outcome):
    mode = "cold" if workload == "fleet_cold" else "warm"
    out = work / "fleet.json"
    spawned = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            str(HERE / "fleet.py"),
            "--mode", mode,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", str(work),
            "--out", str(out),
        ],
        env=child_env(work),
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    data = json.loads(out.read_text())
    if data["fill"]:
        fill = data["fill"]
        outcome.run_failures += store_failures("fleet_cold", fill["hits"], fill["misses"])
    fleets = [(f"rep{i}", rep) for i, rep in enumerate(data["reps"])]
    if data["traced"]:
        fleets.append(("traced", data["traced"]))
    for name, fleet in fleets:
        outcome.run_failures += store_failures(
            workload, fleet["store"]["hits"], fleet["store"]["misses"]
        )
        for chip in fleet["chips"]:
            outcome.check(
                f"{name}/{chip['chip']}",
                verdict_failures(chip["report"], chip["trojan"], chip["host_sensor"]),
            )

    reps = data["reps"]
    walls = [rep["end"] - rep["start"] for rep in reps]
    # Alarm order statistics per fleet, then their median over the
    # run's fleets: pooling chips would make the tail the slowest fleet.
    per_fleet = [
        alarm_order_stats(
            [
                chip["first_alarm_at"] - rep["start"]
                for chip in rep["chips"]
                if chip["first_alarm_at"] is not None
            ]
        )
        for rep in reps
    ]
    per_fleet = [stats for stats in per_fleet if stats is not None]
    outcome.e2e = {
        "setup_s": data["ready_at"] - spawned,
        "sensor_windows_per_s": sum(r["windows"] * r["streams"] for r in reps) / sum(walls),
        "peak_rss_mb": data["vmhwm_kb"] / 1024.0,
    }
    tail_pct = tail_n = 0
    if per_fleet:
        outcome.e2e["time_to_alarm_s"] = statistics.median(s[0] for s in per_fleet)
        outcome.e2e["time_to_alarm_tail_s"] = statistics.median(s[1] for s in per_fleet)
        tail_pct, tail_n = per_fleet[0][2], per_fleet[0][3]
    outcome.notes.append(
        f"{workload}: {len(reps)} fleet(s) of {len(reps[0]['chips'])} chips "
        f"(base seeds {', '.join(str(r['seed']) for r in reps)}), "
        f"{sum(walls):.3f} s measured; alarm median and tail (p{tail_pct:.1f} "
        f"of {tail_n} chips) per fleet, median over fleets; "
        f"{mttd_note([chip['report'] for rep in reps for chip in rep['chips']])}"
    )

    traced = data["traced"]
    if traced:
        spans = traced["spans"]
        table = ledger(spans, traced["start"], traced["end"])
        cache = traced["cache"]
        lookups = traced["store"]["hits"] + traced["store"]["misses"]
        cache_lookups = cache["hits"] + cache["misses"]
        outcome.layers = layer_metrics(
            spans,
            table,
            traced["counters"],
            {
                "store.hit_ratio": traced["store"]["hits"] / lookups if lookups else 0.0,
                "store.bytes_written": traced["store"]["bytes_written"],
                "engine.plan_cache_hit_ratio": cache["hits"] / cache_lookups
                if cache_lookups
                else 0.0,
                "runtime.max_queue_len": traced["max_queue_len"],
                "runtime.backpressure_events": traced["backpressure_events"],
                "serve.sheds": 0,
                "serve.http_errors": 0,
                "loadgen.lag_ms": 0.0,
            },
        )
        overhead = (traced["end"] - traced["start"]) - walls[0]
        print(
            format_ledger(
                f"{workload} seed {args.seed}",
                table,
                f"{overhead:+.3f} s (traced fleet wall - untraced first fleet wall)",
            )
        )
        path = write_trace(workload, args.seed, spans, traced["start"])
        print(f"trace: {path} ({len(spans)} spans)")


# -- serve workload ----------------------------------------------------------


def ensure_corpus(env):
    """The recorded upload corpus, built once per checkout."""
    corpus = Path(".bench_build") / "perfbench" / "corpus"
    if not (corpus / "manifest.json").exists():
        staging = corpus.with_name(f"corpus-{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(HERE / "replay.py"), "corpus", str(staging)],
            env=env,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        try:
            staging.rename(corpus)
        except OSError:
            # Another run published the corpus first; both are identical.
            shutil.rmtree(staging, ignore_errors=True)
    manifest = json.loads((corpus / "manifest.json").read_text())
    payloads = [(corpus / entry["file"]).read_bytes() for entry in manifest]
    return manifest, payloads


def request(port, method, path, body=None, timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class Server:
    """One ``repro serve`` process, booted until ``/healthz`` answers."""

    def __init__(self, argv, env, log):
        self.log = log
        spawned = time.perf_counter()
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(argv, env=env, stdout=sink, stderr=subprocess.STDOUT)
        try:
            self.port = self._await_port(spawned + 60.0)
            status, _ = request(self.port, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - spawned

    def _await_port(self, deadline):
        while True:
            match = re.search(rb"listening on http://[^:]+:(\d+)", self.log.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log.read_text()}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not announce its port in 60 s")
            time.sleep(0.002)

    def stop(self):
        """Shut the service down and wait for the process to end."""
        if self.proc.poll() is None and getattr(self, "port", None):
            try:
                request(self.port, "POST", "/shutdown", timeout=10.0)
            except (OSError, http.client.HTTPException, ValueError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def upload_plan(seed, n_uploads, n_archives):
    """``(chip id, archive index)`` per upload: fresh ids, seeded picks."""
    if n_uploads > MAX_CHIPS:
        raise ValueError(f"{n_uploads} uploads exceed the {MAX_CHIPS}-chip bound")
    rng = random.Random(seed)
    return [(f"s{seed}-u{k:04d}", rng.randrange(n_archives)) for k in range(n_uploads)]


def open_loop(port, plan, payloads, rate):
    """Send every upload at its due time over ``CONNECTIONS`` connections.

    A connection takes the next due upload when it is free, so a slow
    service delays later sends; latency is measured from the due time
    and the delay itself is the generator's lag.
    """
    start = time.perf_counter() + 0.05
    due = [start + k / rate for k in range(len(plan))]
    results = [None] * len(plan)
    cursor = iter(range(len(plan)))
    lock = threading.Lock()

    def connection():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while True:
                with lock:
                    k = next(cursor, None)
                if k is None:
                    return
                delay = due[k] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                chip, archive = plan[k]
                sent = time.perf_counter()
                try:
                    conn.request("POST", f"/chips/{chip}/replay", body=payloads[archive])
                    response = conn.getresponse()
                    status, report = response.status, json.loads(response.read())
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    status, report = None, {"error": str(exc)}
                    conn.close()
                results[k] = {
                    "chip": chip,
                    "archive": archive,
                    "due": due[k],
                    "sent": sent,
                    "done": time.perf_counter(),
                    "status": status,
                    "report": report,
                }
        finally:
            conn.close()

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if None in results:
        raise RuntimeError("the load generator lost uploads")
    return start, results


def serve_load(server, plan, payloads):
    """Drive one booted server; its results, ``/metrics`` and peak RSS."""
    start, results = open_loop(server.port, plan, payloads, UPLOAD_RATE)
    _, metrics = request(server.port, "GET", "/metrics")
    peak = vmhwm_kb(server.proc.pid) / 1024.0
    return start, results, metrics, peak


def run_serve(args, work, outcome):
    env = child_env(work)
    manifest, payloads = ensure_corpus(env)
    plan = upload_plan(args.seed, max(1, round(args.seconds * UPLOAD_RATE)), len(manifest))
    serve_cmd = [sys.executable, "-m", "repro.cli", "serve", *SERVE_ARGS]
    setups = []
    server = None
    try:
        for boot in range(SERVER_BOOTS):
            if server is not None:
                server.stop()
            server = Server(serve_cmd, env, work / f"serve-{boot}.log")
            setups.append(server.ready_s)
        start, results, metrics, peak = serve_load(server, plan, payloads)
    finally:
        if server is not None:
            server.stop()

    def check(label, results):
        for result in results:
            entry = manifest[result["archive"]]
            outcome.check(
                f"{label}/{result['chip']}",
                upload_failures(
                    result["status"],
                    result["report"],
                    entry["trojan"],
                    entry["trigger_index"],
                    entry["n_windows"],
                ),
            )

    check("untraced", results)
    end = max(r["done"] for r in results)
    ok = [r for r in results if r["status"] == 200]
    latencies = [r["done"] - r["due"] for r in results]
    alarms = [r["done"] - r["due"] for r in ok if r["report"].get("first_alarm") is not None]
    windows = sum(r["report"]["n_windows"] * len(r["report"]["sensors"]) for r in ok)
    outcome.e2e = {
        "setup_s": statistics.median(setups),
        "sensor_windows_per_s": windows / (end - start),
        "peak_rss_mb": peak,
    }
    tail_pct, tail_n = alarm_metrics(outcome, alarms)
    lags = [1e3 * (r["sent"] - r["due"]) for r in results]
    outcome.notes.append(
        f"serve_replay: {len(results)} uploads at {UPLOAD_RATE:g}/s over "
        f"{CONNECTIONS} connections; upload latency p50 "
        f"{1e3 * statistics.median(latencies):.1f} ms; alarm tail is p{tail_pct:.1f} "
        f"of {tail_n} uploads; generator lag max {max(lags):.2f} ms; "
        f"sheds {metrics['sheds_total']}; {mttd_note([r['report'] for r in ok])}"
    )
    if not args.trace:
        return

    spans_path = work / "server-spans.json"
    traced_cmd = [sys.executable, str(HERE / "replay.py"), "serve", str(spans_path), "--", *SERVE_ARGS]
    server = Server(traced_cmd, env, work / "serve-traced.log")
    try:
        t_start, t_results, t_metrics, _ = serve_load(server, plan, payloads)
    finally:
        server.stop()
    check("traced", t_results)
    t_end = max(r["done"] for r in t_results)
    server_side = json.loads(spans_path.read_text())
    by_chip = {}
    for span in server_side["spans"]:
        by_chip.setdefault(span["chip"], []).append((span["start"], span["end"]))
    client = Recorder()
    for result in t_results:
        sent, done = result["sent"], result["done"]
        inside = covered(by_chip.get(result["chip"], []), sent, done)
        client.add_span(
            "serve:POST /chips/<id>/replay",
            "serve",
            sent,
            done,
            chip=result["chip"],
            self_s=(done - sent) - inside,
        )
    spans = server_side["spans"] + client.spans
    table = ledger(spans, t_start, t_end)
    outcome.layers = layer_metrics(
        spans,
        table,
        server_side["counters"],
        {
            "store.hit_ratio": 0.0,
            "store.bytes_written": 0,
            "engine.plan_cache_hit_ratio": 0.0,
            "runtime.max_queue_len": 0,
            "runtime.backpressure_events": t_metrics["backpressure_total"],
            "serve.sheds": t_metrics["sheds_total"],
            "serve.http_errors": sum(1 for r in t_results if r["status"] != 200),
            "loadgen.lag_ms": max(1e3 * (r["sent"] - r["due"]) for r in t_results),
        },
    )
    # The open-loop wall is fixed by the schedule, so the overhead is
    # read from the summed upload latencies instead.
    overhead = sum(r["done"] - r["due"] for r in t_results) - sum(latencies)
    print(
        format_ledger(
            f"serve_replay seed {args.seed}",
            table,
            f"{overhead:+.3f} s (traced - untraced summed upload latency)",
        )
    )
    path = write_trace("serve_replay", args.seed, spans, t_start)
    print(f"trace: {path} ({len(spans)} spans)")


# -- entry point -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "repro").is_dir() or not Path("BENCHMARK.json").is_file():
        print(
            "perfbench: run from the root of a checkout (src/repro and "
            "BENCHMARK.json must exist)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = Path(".bench_build") / "perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = Outcome()
    try:
        if args.workload == "serve_replay":
            run_serve(args, work, outcome)
        else:
            run_fleet(args.workload, args, work, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = outcome.layers if args.trace else outcome.e2e
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        outcome.run_failures.append(f"metrics not measured: {missing}")
    for note in outcome.notes:
        print(note)
    failed = outcome.failed
    for reason in outcome.failures + outcome.run_failures:
        print(f"FAIL {reason}")
    print(f"{args.workload}: attempted {outcome.attempted}, failed {failed}")
    correct = failed == 0 and not outcome.run_failures
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in measured
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
