"""The package's public names resolve."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import addamsfrailty
from addamsfrailty import report

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


def test_cli_uses_only_public_report_names():
    # cli imports the report module under an alias; every name it reads
    # through that alias is part of the module's public list
    tree = ast.parse(Path(addamsfrailty.__file__).with_name("cli.py").read_text())
    alias, = [name.asname or name.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
              for name in node.names if name.name == "report"]
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == alias}
    assert used and sorted(used - set(report.__all__)) == []
