import importlib
import pkgutil

import pytest

import uqpc

MODULES = sorted(f"uqpc.{m.name}" for m in pkgutil.iter_modules(uqpc.__path__))


def test_modules_found():
    assert {"uqpc.cli", "uqpc.experiments", "uqpc.nisp", "uqpc.oracle"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # A stale entry left by a deletion imports fine and fails only under
    # `from module import *`.
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
