"""The package runs on numpy alone.

numpy is the only runtime dependency: every FFT goes through
``np.fft`` and the normal quantiles come from the standard library.
These checks block SciPy at import time in a fresh interpreter and
drive the CLI and the serve front-end end to end.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Runs in a fresh interpreter: any ``import scipy`` (or submodule)
#: raises, then one cold smoke monitor session must exit 0.
_BLOCKED_SCIPY_SESSION = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked: numpy is the only dependency")
        return None


sys.meta_path.insert(0, BlockScipy())

import repro.cli
import repro.serve.app

sys.exit(repro.cli.main(["monitor", "--preset", "smoke", "--no-store"]))
"""


def test_cli_and_serve_run_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCIPY_SESSION],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert "store: disabled" in done.stdout


def test_numpy_is_the_only_runtime_dependency():
    pyproject = (REPO / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", pyproject, re.M | re.S)
    assert project is not None
    deps = re.search(r"^dependencies = (\[.*?\])", project.group(1), re.M | re.S)
    assert deps is not None
    assert ast.literal_eval(deps.group(1)) == ["numpy>=2.0"]
