"""The benchmark's own checks trip on perturbed expectations.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import store_failures, tail, upload_failures, verdict_failures  # noqa: E402
from ledger import Recorder, covered, ledger  # noqa: E402
from run import MAX_CHIPS, upload_plan  # noqa: E402


@pytest.fixture(scope="module")
def fleet_report():
    """A real one-chip monitor report (smoke preset, Trojan T4)."""
    from repro.runtime import build_fleet

    chip = build_fleet("smoke", n_chips=1).run().chips[0]
    return chip.report.to_dict(), chip.trojan, chip.host_sensor


def test_verdict_passes_on_scripted_truth(fleet_report):
    report, trojan, host = fleet_report
    assert verdict_failures(report, trojan, host) == []


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r, t, h: (r, "T1" if t != "T1" else "T2", h),
        lambda r, t, h: (r, t, h + 1),
        lambda r, t, h: ({**r, "trigger_index": r["first_alarm"] + 1}, t, h),
        lambda r, t, h: ({**r, "first_alarm": None}, t, h),
        lambda r, t, h: ({**r, "detected": False}, t, h),
        lambda r, t, h: ({**r, "identification": None}, t, h),
        lambda r, t, h: ({**r, "localization": None}, t, h),
    ],
    ids=["trojan", "host-sensor", "trigger", "no-alarm", "undetected", "unidentified",
         "unlocalized"],
)
def test_verdict_trips_on_perturbed_truth(fleet_report, perturb):
    assert verdict_failures(*perturb(*fleet_report))


def test_upload_checks_status_trigger_and_windows(fleet_report):
    report, trojan, _ = fleet_report
    good = (report, trojan, report["trigger_index"], report["n_windows"])
    assert upload_failures(200, *good) == []
    assert upload_failures(503, *good)
    assert upload_failures(None, *good)
    assert upload_failures(200, report, trojan, report["trigger_index"] + 1, report["n_windows"])
    assert upload_failures(200, report, trojan, report["trigger_index"], report["n_windows"] + 1)


def test_store_ratio_must_match_workload():
    assert store_failures("fleet_cold", hits=0, misses=72) == []
    assert store_failures("fleet_warm", hits=72, misses=0) == []
    assert store_failures("fleet_cold", hits=1, misses=71)
    assert store_failures("fleet_warm", hits=71, misses=1)
    assert store_failures("fleet_warm", hits=0, misses=0)


def test_tail_keeps_ten_samples_beyond():
    value, percentile, n = tail(range(120))
    assert (value, n) == (109, 120)
    assert sum(1 for v in range(120) if v > value) == 10
    assert percentile == pytest.approx(100 * 110 / 120)
    assert tail([3, 1, 2]) == (3, 100.0, 3)


def test_upload_plan_is_seeded_and_never_reuses_ids():
    plan = upload_plan(7, 120, 4)
    assert plan == upload_plan(7, 120, 4)
    assert plan != upload_plan(8, 120, 4)
    assert len({chip for chip, _ in plan}) == 120
    assert {archive for _, archive in plan} == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        upload_plan(7, MAX_CHIPS + 1, 4)


class _Toy:
    def outer(self, chip):
        return self.inner() + sum(self.items())

    def inner(self):
        return 1

    def items(self):
        yield from (1, 2)


def test_recorder_nests_spans_and_restores_originals():
    recorder = Recorder()
    original = _Toy.__dict__["outer"]
    recorder.wrap(_Toy, "outer", "runtime", chip_of=lambda args: args[1])
    recorder.wrap(_Toy, "inner", "analysis")
    recorder.wrap_generator(_Toy, "items", "traceio")
    assert _Toy().outer("chip7") == 4
    recorder.uninstall()
    assert _Toy.__dict__["outer"] is original
    outer = next(s for s in recorder.spans if s["name"].endswith(".outer"))
    children = [s for s in recorder.spans if s["parent"] == outer["id"]]
    assert len(children) == 4  # inner + three generator steps
    assert {s["chip"] for s in recorder.spans} == {"chip7"}
    assert recorder.counters["traceio:_Toy.items.items"] == 2


def test_ledger_subtracts_children_and_reports_gaps():
    spans = [
        {"id": 1, "parent": 0, "pid": 1, "name": "runtime:a", "layer": "runtime",
         "start": 0.0, "end": 4.0},
        {"id": 2, "parent": 1, "pid": 1, "name": "chip:b", "layer": "chip",
         "start": 1.0, "end": 3.0},
    ]
    table = ledger(spans, 0.0, 5.0)
    assert table["layers"]["runtime"]["self_s"] == pytest.approx(2.0)
    assert table["layers"]["chip"]["self_s"] == pytest.approx(2.0)
    assert table["unattributed_share"] == pytest.approx(0.2)
    assert covered([(0, 2), (1, 3), (4, 6)], 0, 5) == pytest.approx(4.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert not result.stdout.strip()
