"""Importing dcmesh generates no dataclass methods: its records are
NamedTuples and its mutable state plain classes, so an import loads
neither ``dataclasses`` nor ``inspect``."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import dcmesh

ROOT = Path(__file__).resolve().parent.parent


def test_no_dcmesh_class_is_a_dataclass():
    modules = [
        importlib.import_module(f"{dcmesh.__name__}.{info.name}")
        for info in pkgutil.iter_modules(dcmesh.__path__)
    ]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert {"GroupParams", "Scenario", "Transcript", "TreeNode"} <= {c.__name__ for c in classes}
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest itself loads both; -S keeps
    # site-packages' startup hooks out of what is measured
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    code = "import sys, dcmesh.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
