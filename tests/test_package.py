"""The package's public names: every module's `__all__` resolves, and every
name in it has a caller in the package's own modules; and what importing
the command line loads."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import maxdirac1d

ROOT = Path(__file__).resolve().parents[1]

# __main__ runs the command line on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(maxdirac1d.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_star_import_gives_every_name_in_all(name):
    module = importlib.import_module(f"maxdirac1d.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from maxdirac1d.{name} import *", namespace)
    assert set(exported) <= namespace.keys()


def _program_names() -> set[str]:
    """Every name the program's code reads: each Name, Attribute and import
    alias in the package modules `src/maxdirac1d/*.py` (not `__init__`).
    Demos, tools, the benchmark and the tests are readers of the package,
    not its callers: a name only they read does not belong in `src/`."""
    paths = [p for p in (ROOT / "src" / "maxdirac1d").glob("*.py") if p.name != "__init__.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_public_name_has_a_program_caller():
    public = {n for name in MODULES for n in getattr(importlib.import_module(f"maxdirac1d.{name}"), "__all__", ())}
    assert sorted(public - _program_names()) == []


def test_the_command_line_imports_no_process_pool():
    # only a sweep with jobs > 1 starts a pool; every other command would pay
    # for concurrent.futures and multiprocessing at start-up
    code = "import sys, maxdirac1d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
