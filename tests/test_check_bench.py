"""Unit tests of the benchmark regression gate (tools/check_bench.py)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench",
    Path(__file__).resolve().parent.parent / "tools" / "check_bench.py",
)
check_bench = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_bench", check_bench)
_SPEC.loader.exec_module(check_bench)


def test_collect_metrics_flattens_nested_monitored_keys():
    report = {
        "speedup": 3.5,
        "grid": {"n_cells": 16},
        "legacy_per_trace": {"seconds": 8.0, "cells_per_sec": 1.9},
        "store_warm_start": {"speedup_vs_cold": 10.0},
        "smoke": True,
    }
    metrics = check_bench.collect_metrics(report)
    assert metrics == {
        "speedup": 3.5,
        "legacy_per_trace.cells_per_sec": 1.9,
        "store_warm_start.speedup_vs_cold": 10.0,
    }


def test_backend_scaling_metrics_are_monitored():
    baseline = {
        "shared_backend": {"speedup_vs_serial": 0.44, "workers": 2},
        "fleet_scaling": {"scaling_efficiency": 0.9, "chips": [1, 4]},
        "irfft_floor": {"seconds": 0.06},
        "floor_ratio": 0.18,
    }
    regressed = {
        "shared_backend": {"speedup_vs_serial": 0.2, "workers": 2},
        "fleet_scaling": {"scaling_efficiency": 0.5, "chips": [1, 4]},
        "irfft_floor": {"seconds": 0.06},
        "floor_ratio": 0.11,
    }
    assert check_bench.compare_reports(baseline, baseline, 0.25) == []
    problems = check_bench.compare_reports(baseline, regressed, 0.25)
    assert len(problems) == 3
    joined = "\n".join(problems)
    assert "shared_backend.speedup_vs_serial" in joined
    assert "fleet_scaling.scaling_efficiency" in joined
    assert "floor_ratio" in joined


def test_compare_passes_within_tolerance():
    baseline = {"speedup": 4.0, "sweep": {"cells_per_sec": 10.0}}
    current = {"speedup": 3.2, "sweep": {"cells_per_sec": 7.6}}
    assert check_bench.compare_reports(baseline, current, 0.25) == []


def test_compare_flags_regression_beyond_tolerance():
    baseline = {"speedup": 4.0}
    current = {"speedup": 2.9}
    problems = check_bench.compare_reports(baseline, current, 0.25)
    assert len(problems) == 1
    assert "speedup" in problems[0]


def test_compare_boundary_is_inclusive():
    baseline = {"speedup": 4.0}
    exactly_at_floor = {"speedup": 3.0}
    assert check_bench.compare_reports(baseline, exactly_at_floor, 0.25) == []


def test_missing_monitored_metric_fails():
    baseline = {"speedup": 4.0, "fleet": {"windows_per_sec": 50.0}}
    current = {"speedup": 4.0}
    problems = check_bench.compare_reports(baseline, current, 0.25)
    assert len(problems) == 1
    assert "missing metric fleet.windows_per_sec" in problems[0]


def test_improvements_and_new_metrics_pass():
    baseline = {"speedup": 4.0}
    current = {"speedup": 9.0, "extra": {"windows_per_sec": 1.0}}
    assert check_bench.compare_reports(baseline, current, 0.25) == []


def test_non_monitored_keys_ignored():
    baseline = {"seconds": 100.0, "n_cells": 16}
    current = {"seconds": 9000.0, "n_cells": 2}
    assert check_bench.compare_reports(baseline, current, 0.25) == []


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


def test_run_pairs_files_and_gates(tmp_path):
    baselines = tmp_path / "baselines"
    current = tmp_path / "current"
    _write(baselines / "BENCH_a.json", {"speedup": 4.0})
    _write(baselines / "BENCH_b.json", {"windows_per_sec": 100.0})
    _write(current / "BENCH_a.json", {"speedup": 4.1})
    _write(current / "BENCH_b.json", {"windows_per_sec": 10.0})
    code, lines = check_bench.run(baselines, current, 0.25)
    assert code == 1
    joined = "\n".join(lines)
    assert "ok   BENCH_a.json" in joined
    assert "FAIL BENCH_b.json" in joined


def test_run_fails_on_missing_current_report(tmp_path):
    baselines = tmp_path / "baselines"
    _write(baselines / "BENCH_a.json", {"speedup": 4.0})
    code, lines = check_bench.run(baselines, tmp_path / "current", 0.25)
    assert code == 1
    assert "no current report" in lines[0]


def test_run_fails_without_baselines(tmp_path):
    code, lines = check_bench.run(
        tmp_path / "none", tmp_path / "current", 0.25
    )
    assert code == 1


def test_main_exit_codes_and_tolerance_flag(tmp_path, capsys):
    baselines = tmp_path / "baselines"
    current = tmp_path / "current"
    _write(baselines / "BENCH_a.json", {"speedup": 4.0})
    _write(current / "BENCH_a.json", {"speedup": 2.5})
    argv = [
        "--baseline-dir",
        str(baselines),
        "--current-dir",
        str(current),
    ]
    assert check_bench.main(argv) == 1
    capsys.readouterr()
    assert check_bench.main(argv + ["--tolerance", "0.5"]) == 0
    with pytest.raises(SystemExit):
        check_bench.main(argv + ["--tolerance", "1.5"])


def test_engine_baseline_gates_same_run_ratios_only():
    """The committed engine floors are ratios of two timings from one
    run, never an absolute throughput of the host."""
    baselines = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    baseline = json.loads((baselines / "BENCH_engine.json").read_text())
    assert check_bench.collect_metrics(baseline) == {
        "floor_ratio": 0.2,
        "contract_floor_ratio": 0.52,
        "thread_split.speedup_vs_serial": 1.0,
    }
    slowed = {**baseline, "contract_floor_ratio": 0.3}
    (problem,) = check_bench.compare_reports(baseline, slowed, 0.25)
    assert problem.startswith("contract_floor_ratio")


def test_runtime_speedup_gate_fails_a_monitor_at_the_full_render():
    """The runtime ``speedup`` is the live monitor's rate over the full
    render's, same run: a monitor no faster than the full render (1.0)
    must fail the committed floor."""
    baselines = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
    baseline = json.loads((baselines / "BENCH_runtime.json").read_text())
    assert "legacy_per_trace" not in baseline
    (problem,) = check_bench.compare_reports(baseline, {**baseline, "speedup": 1.0}, 0.25)
    assert problem.startswith("speedup")
