"""Where the pytest benchmarks put their ``BENCH_*.json`` reports.

A run writes each report under the gitignored ``.bench_build/`` at the
repo root, so running the suite leaves the tree as it was; CI uploads
the reports from there.  With ``BENCH_RECORD=1`` a run also rewrites
the committed copy at the repo root, the trajectory kept from change
to change::

    BENCH_RECORD=1 python -m pytest benchmarks/test_engine_throughput.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
RECORD = os.environ.get("BENCH_RECORD", "") not in ("", "0")


def write_report(name: str, payload: dict) -> Path:
    """Write report ``name`` under the build dir (and the root copy
    with ``BENCH_RECORD=1``); returns the build-dir path."""
    text = json.dumps(payload, indent=2) + "\n"
    BUILD_DIR.mkdir(exist_ok=True)
    path = BUILD_DIR / name
    path.write_text(text)
    if RECORD:
        (ROOT / name).write_text(text)
    return path


def read_report(name: str) -> dict:
    """Report ``name`` as the latest run wrote it, else the committed copy."""
    fresh = BUILD_DIR / name
    return json.loads((fresh if fresh.exists() else ROOT / name).read_text())
