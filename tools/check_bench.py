#!/usr/bin/env python3
"""Benchmark regression gate: current BENCH_*.json vs committed baselines.

Compares the monitored throughput metrics (``speedup``,
``windows_per_sec``, ``cells_per_sec``, ``traces_per_sec``,
``speedup_vs_cold``, ``scaling_efficiency``, ``floor_ratio``,
``contract_floor_ratio``) of freshly produced benchmark reports
against the committed baselines in ``benchmarks/baselines/``.  All monitored
metrics are higher-is-better; a current value more than
``tolerance`` (default 25%) below its baseline fails the gate, as
does a monitored baseline metric missing from the current report (a
silently dropped benchmark must not pass).

Metrics present only in the *current* report (new rows) are ignored —
they become gated once a baseline commits them.  Non-monitored keys
(shapes, flags, raw seconds) are never compared.

Usage::

    python tools/check_bench.py --baseline-dir benchmarks/baselines \
        --current-dir bench-artifacts [--tolerance 0.25]

Exit status 0 = within tolerance, 1 = regression (or missing file /
metric).  Stdlib only, unit-tested by ``tests/test_check_bench.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

#: Monitored metric names — all higher-is-better throughput figures.
MONITORED = (
    "speedup",
    "windows_per_sec",
    "cells_per_sec",
    "traces_per_sec",
    "speedup_vs_cold",
    "scaling_efficiency",
    # A work floor's time over the measured stage's, same run: the
    # engine render against its irFFT alone, and against the draws and
    # irFFTs the determinism contract fixes (1.0 = at the floor).
    "floor_ratio",
    "contract_floor_ratio",
)

#: Default allowed relative drop below baseline.
DEFAULT_TOLERANCE = 0.25


def collect_metrics(report: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a benchmark report to ``{json.path: value}`` for the
    monitored metric names, at any nesting depth."""
    metrics: Dict[str, float] = {}
    for key, value in report.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            metrics.update(collect_metrics(value, path))
        elif key in MONITORED and isinstance(value, (int, float)):
            metrics[path] = float(value)
    return metrics


def compare_reports(
    baseline: dict, current: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regression messages for one report pair (empty = gate passes)."""
    problems: List[str] = []
    baseline_metrics = collect_metrics(baseline)
    current_metrics = collect_metrics(current)
    for path, reference in sorted(baseline_metrics.items()):
        value = current_metrics.get(path)
        if value is None:
            problems.append(f"missing metric {path} (baseline {reference})")
            continue
        floor = reference * (1.0 - tolerance)
        if value < floor:
            drop = 100.0 * (1.0 - value / reference) if reference else 0.0
            problems.append(
                f"{path}: {value:g} is {drop:.1f}% below baseline "
                f"{reference:g} (floor {floor:g})"
            )
    return problems


def _pair_files(
    baseline_dir: Path, current_dir: Path
) -> List[Tuple[str, Path, Path]]:
    pairs = []
    for baseline_path in sorted(baseline_dir.glob("BENCH_*.json")):
        pairs.append(
            (
                baseline_path.name,
                baseline_path,
                current_dir / baseline_path.name,
            )
        )
    return pairs


def run(
    baseline_dir: Path, current_dir: Path, tolerance: float
) -> Tuple[int, List[str]]:
    """Gate every baseline file; ``(exit_code, report_lines)``."""
    lines: List[str] = []
    failed = False
    pairs = _pair_files(baseline_dir, current_dir)
    if not pairs:
        return 1, [f"no BENCH_*.json baselines in {baseline_dir}"]
    for name, baseline_path, current_path in pairs:
        if not current_path.exists():
            failed = True
            lines.append(f"FAIL {name}: no current report at {current_path}")
            continue
        try:
            baseline = json.loads(baseline_path.read_text())
            current = json.loads(current_path.read_text())
        except ValueError as exc:
            failed = True
            lines.append(f"FAIL {name}: unreadable report ({exc})")
            continue
        problems = compare_reports(baseline, current, tolerance)
        if problems:
            failed = True
            lines.append(f"FAIL {name}:")
            lines.extend(f"  {problem}" for problem in problems)
        else:
            checked = len(collect_metrics(baseline))
            lines.append(f"ok   {name}: {checked} metrics within tolerance")
    return (1 if failed else 0), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=Path("benchmarks/baselines"),
        help="directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--current-dir",
        type=Path,
        default=Path("."),
        help="directory of freshly produced BENCH_*.json reports",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative drop below baseline (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")
    code, lines = run(args.baseline_dir, args.current_dir, args.tolerance)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
