"""Every exported name resolves, so a deleted function cannot linger as an export."""

import ast
import importlib
import pkgutil
import re
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


SRC = Path(drivenchain.__file__).parent
BENCH = SRC.parents[1] / "bench"


def _src_uses() -> list[tuple[str, str, frozenset]]:
    """Each name read in ``src/`` as an AST Name or attribute: (module, name,
    the functions and classes around the read)."""
    uses = []

    def visit(module, node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            around = around | {node.name}
        if isinstance(node, ast.Name):
            uses.append((module, node.id, around))
        elif isinstance(node, ast.Attribute):
            uses.append((module, node.attr, around))
        for child in ast.iter_child_nodes(node):
            visit(module, child, around)

    for path in sorted(SRC.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), frozenset())
    return uses


def test_every_export_is_used_outside_tests():
    # A public helper that only tests call is deleted: each exported name is
    # read in src/ outside its own definition, or named by the benchmark.
    uses = _src_uses()
    bench_text = "\n".join(p.read_text() for p in sorted(BENCH.rglob("*.py")))
    unused = []
    for name in MODULES:
        for export in getattr(importlib.import_module(f"drivenchain.{name}"), "__all__", []):
            used = any(used_name == export and not (module == name and export in around)
                       for module, used_name, around in uses)
            if not (used or re.search(rf"\b{re.escape(export)}\b", bench_text)):
                unused.append(f"{name}.{export}")
    assert unused == []
