"""Every exported name resolves, so a deleted function cannot linger as an export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import drivenchain

MODULES = sorted(m.name for m in pkgutil.iter_modules(drivenchain.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"drivenchain.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate __all__ entries in {name}"
    assert [e for e in exported if not hasattr(module, e)] == []


def test_package_imports_resolve():
    # Read the package's own import list, so a stale name shows even if the
    # module that once defined it still exports something under that name.
    tree = ast.parse(Path(drivenchain.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module, name in imported:
        owner = importlib.import_module(f"drivenchain.{module}")
        assert hasattr(owner, name), f"drivenchain.{module} has no {name}"
        assert getattr(drivenchain, name) is getattr(owner, name)
