"""CLI parser wiring (execution is covered by the experiments tests)."""

import importlib
import inspect

import pytest

from repro.cli import _COMMANDS, build_parser


def test_parser_accepts_all_experiments():
    parser = build_parser()
    for name in _COMMANDS:
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_all_keyword():
    args = build_parser().parse_args(["all"])
    assert args.experiment == "all"


def test_parser_traces_option():
    args = build_parser().parse_args(["fig4", "--traces", "7"])
    assert args.traces == 7


@pytest.mark.parametrize("name", ["table1", "fig3", "fig4"])
@pytest.mark.parametrize("argv", [[], ["--traces", "7"]])
def test_traces_default_is_each_experiments_own(monkeypatch, name, argv):
    """Without ``--traces`` a command runs at its experiment's default
    (``repro table1`` used to pass 3 and abort: Table 1 needs 4)."""
    module = importlib.import_module(f"repro.experiments.{name}")
    run = getattr(module, f"run_{name}")
    default = inspect.signature(run).parameters["n_traces"].default
    seen = []
    monkeypatch.setattr(
        module, f"run_{name}", lambda ctx, n_traces=default: seen.append(n_traces)
    )
    monkeypatch.setattr(module, f"format_{name}", lambda result: "")
    _COMMANDS[name](None, build_parser().parse_args([name, *argv]))
    assert seen == [7 if argv else default]


def test_parser_sweep_grid_option():
    args = build_parser().parse_args(["sweep", "--grid", "table1"])
    assert args.experiment == "sweep"
    assert args.grid == "table1"
    assert args.sweep_json is None
    assert args.detector is None
    args = build_parser().parse_args(
        ["sweep", "--grid", "mttd", "--sweep-json", "out.json"]
    )
    assert args.sweep_json == "out.json"
    # Unknown names parse fine; the command reports them with the list
    # of known grids at run time (see tests/test_cli_errors.py).
    args = build_parser().parse_args(["sweep", "--grid", "bogus"])
    assert args.grid == "bogus"


def test_parser_sweep_detector_option():
    args = build_parser().parse_args(
        ["sweep", "--grid", "detectors-smoke", "--detector", "spectral"]
    )
    assert args.detector == "spectral"


def test_parser_monitor_options():
    args = build_parser().parse_args(["monitor"])
    assert args.experiment == "monitor"
    assert args.preset == "paper"
    assert args.fleet == 1
    assert args.events is None
    assert args.monitor_json is None
    args = build_parser().parse_args(
        [
            "monitor",
            "--preset",
            "smoke",
            "--fleet",
            "4",
            "--events",
            "events.jsonl",
            "--monitor-json",
            "fleet.json",
        ]
    )
    assert args.preset == "smoke"
    assert args.fleet == 4
    # The fleet renders on demand; it has no queue to bound.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["monitor", "--queue-depth", "3"])
    assert args.events == "events.jsonl"
    assert args.monitor_json == "fleet.json"
    assert args.detector is None
    args = build_parser().parse_args(["monitor", "--detector", "persistence"])
    assert args.detector == "persistence"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["monitor", "--preset", "bogus"])


def test_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig9"])


def test_command_table_covers_paper_artifacts():
    assert {
        "table1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "snr",
        "mttd",
        "localize",
        "robustness",
        "cost",
        "ablations",
        "sweep",
        "monitor",
    } == set(_COMMANDS)
