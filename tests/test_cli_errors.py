"""Friendly one-line CLI errors for unknown grid/detector names.

Unknown names must exit with status 2 and a single ``error:`` line on
stderr that lists what *is* available — never a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.err


@pytest.mark.parametrize(
    "argv, expects",
    [
        (
            ["sweep", "--grid", "bogus"],
            ("unknown sweep grid", "detectors-smoke", "localize-smoke"),
        ),
        (
            ["sweep", "--grid", "detectors-smoke", "--detector", "bogus"],
            ("unknown detector", "persistence, spectral, welford"),
        ),
        (
            ["monitor", "--detector", "bogus"],
            ("unknown detector", "persistence, spectral, welford"),
        ),
        (
            ["serve", "--selftest", "--detector", "bogus"],
            ("unknown detector", "persistence, spectral, welford"),
        ),
        (
            ["sweep", "--grid", "localize-smoke", "--detector", "spectral"],
            ("localization", "--detector"),
        ),
    ],
)
def test_unknown_names_exit_2_with_one_line_error(argv, expects, capsys):
    code, err = _run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    for fragment in expects:
        assert fragment in err


def test_detector_error_text_identical_across_commands(capsys):
    """sweep, monitor and serve share one friendly-error surface."""
    texts = set()
    for argv in (
        ["sweep", "--grid", "detectors-smoke", "--detector", "bogus"],
        ["monitor", "--detector", "bogus"],
        ["serve", "--selftest", "--detector", "bogus"],
    ):
        code, err = _run(argv, capsys)
        assert code == 2
        texts.add(err)
    assert len(texts) == 1


def test_removed_process_backend_exits_2(capsys):
    """No engine backend flag remains: renders split across the cores."""
    with pytest.raises(SystemExit) as excinfo:
        main(["monitor", "--backend", "process"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --backend process" in capsys.readouterr().err


def test_removed_workers_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["monitor", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
