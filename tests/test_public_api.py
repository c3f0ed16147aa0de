"""The public surface imports: every module, every ``__all__`` name.

A deleted module or function that some package still re-exports only
fails when that package is imported; this walks the whole tree so a
stale re-export fails here, by name.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _module_names() -> list:
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix=f"{repro.__name__}."):
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_tree():
    assert "repro.runtime.pipeline" in MODULES
    assert "repro.core.analysis.detector" in MODULES
    assert len(MODULES) > 50


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
