"""The package's public names: every module's `__all__` resolves."""

import importlib
import pkgutil

import pytest

import maxdirac1d

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

