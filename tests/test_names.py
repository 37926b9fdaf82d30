"""The package's public names resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import addamsfrailty

MODULES = sorted(module.name for module in pkgutil.iter_modules(addamsfrailty.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # a stale ``__all__`` entry breaks ``from module import *`` alone
    source = importlib.import_module(f"addamsfrailty.{module}")
    assert [name for name in getattr(source, "__all__", ()) if not hasattr(source, name)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(addamsfrailty.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"addamsfrailty.{module}")
        assert getattr(addamsfrailty, name) is getattr(source, name)
