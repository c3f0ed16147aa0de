"""The getting-started guide's two Python blocks run as written.

A snippet that calls a renamed or deleted name fails here, not in a
reader's shell.  Each block runs in a fresh namespace inside a
temporary working directory, so nothing it writes lands in the repo.
"""

import re
from pathlib import Path

import pytest

GUIDE = Path(__file__).resolve().parent.parent / "docs" / "getting-started.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", GUIDE.read_text(), re.M | re.S)


@pytest.mark.parametrize("index", range(2))
def test_guide_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = compile(BLOCKS[index], f"{GUIDE.name} python block {index}", "exec")
    exec(code, {"__name__": "__main__"})
