"""The unreached-code report (tools/reachability.py)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"

#: Calls ``from_db`` on a thread and reads the ``SimConfig.n_blocks``
#: property (a decorated def); never calls ``celsius_to_kelvin``.
COMMAND = (
    f'{sys.executable} -c "import threading; from repro.config import SimConfig; '
    "from repro.units import from_db; "
    "t = threading.Thread(target=from_db, args=(3.0,)); t.start(); t.join(); "
    'SimConfig().n_blocks"'
)


def test_report_lists_only_what_the_command_never_called():
    done = subprocess.run(
        [sys.executable, str(TOOL), COMMAND],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert "# exit 0" in done.stderr
    rows = {
        line.split()[1]: line.split()[0]
        for line in done.stdout.splitlines()
        if line.startswith("src/")
    }
    assert rows["celsius_to_kelvin"].startswith("src/repro/units.py:")
    assert "from_db" not in rows
    assert "SimConfig.n_blocks" not in rows
    assert "SimConfig.__post_init__" not in rows
    assert done.stdout.splitlines()[-1].endswith("body lines")
