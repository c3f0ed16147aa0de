"""List the top-level functions and methods in ``src/repro`` that never run.

Usage, from the root of a checkout (with no command, it runs the entry
points listed in ``tools/reachability_commands.txt``)::

    python tools/reachability.py
    python tools/reachability.py "python -m repro.cli table2" "python examples/quickstart.py"

Each command runs in a shell from the root of the checkout, with
``$WORK`` set to a scratch directory and a ``sitecustomize`` module
first on ``PYTHONPATH``.  It installs ``sys.setprofile`` and
``threading.setprofile`` in every Python process that inherits the
environment, child processes and server threads included, and appends
the code objects each process calls to a file as it first meets them
(so a process ended by a signal or ``os._exit`` still reports).  The
report, on stdout (the commands' output goes to stderr), lists every
module-level function and every method of a module-level class whose
code object never ran, with its body line count, then a total.  A
decorated def is keyed on its first decorator line, which is what
``co_firstlineno`` reports.

Limits: the trace sees functions only.  Branches inside functions that
ran, module constants, class bodies, nested functions and lambdas are
not reported.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
COMMANDS = ROOT / "tools" / "reachability_commands.txt"

SITECUSTOMIZE = '''
import os, sys, threading
_dir, _root, _seen, _out = {out!r}, {root!r}, set(), [None, None]
def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen or not code.co_filename.startswith(_root):
        return
    _seen.add(code)
    if _out[0] != os.getpid():
        _out[:] = [os.getpid(), open(os.path.join(_dir, "calls-%d" % os.getpid()), "a")]
    _out[1].write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
    _out[1].flush()
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def run_traced(commands):
    """Run ``commands`` under the profile; the set of ``(file, line)`` called."""
    called = set()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        out, work = Path(tmp, "calls"), Path(tmp, "work")
        out.mkdir()
        work.mkdir()
        Path(tmp, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(out=str(out), root=str(SRC))
        )
        paths = (tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
        env = dict(os.environ, WORK=str(work), PYTHONPATH=os.pathsep.join(filter(None, paths)))
        for command in commands:
            run = subprocess.run(command, shell=True, cwd=ROOT, env=env, stdout=sys.stderr)
            print(f"# exit {run.returncode}: {command}", file=sys.stderr)
        for calls in out.iterdir():
            for line in calls.read_text().splitlines():
                filename, _, lineno = line.rpartition(":")
                called.add((filename, int(lineno)))
    return called


def top_level_defs(path):
    """``(key line, qualified name, body lines)`` of every top-level def."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = [(None, node)] if isinstance(node, defs) else []
        if isinstance(node, ast.ClassDef):
            members = [(node.name, m) for m in node.body if isinstance(m, defs)]
        for owner, fn in members:
            key = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            body = fn.end_lineno - fn.body[0].lineno + 1
            yield key, f"{owner}.{fn.name}" if owner else fn.name, body


def unreached(called):
    """``(path, line, name, body lines)`` of every def not in ``called``."""
    return [
        (path, key, name, body)
        for path in sorted(SRC.rglob("*.py"))
        for key, name, body in top_level_defs(path)
        if (str(path), key) not in called
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="*", help=f"shell command (default: {COMMANDS.name})")
    commands = parser.parse_args(argv).command
    if not commands:
        lines = COMMANDS.read_text().splitlines()
        commands = [c for c in lines if c.strip() and not c.startswith("#")]
    rows = unreached(run_traced(commands))
    for path, key, name, body in rows:
        print(f"{path.relative_to(ROOT)}:{key}  {name}  {body}")
    print(f"{len(rows)} unreached defs, {sum(r[3] for r in rows)} body lines")


if __name__ == "__main__":
    main()
