"""Every exported name exists, and the package exports what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spinholonomy

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(spinholonomy.__path__))


@pytest.mark.parametrize("name", ["spinholonomy", *(f"spinholonomy.{m}" for m in SUBMODULES)])
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_lists_every_public_import():
    tree = ast.parse(Path(spinholonomy.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {n for n in imported if not n.startswith("_")}
    assert sorted(public - set(spinholonomy.__all__)) == []
