"""The package's public surface: ``gpdkit.__all__`` and the names
``gpdkit/__init__.py`` imports must describe each other exactly."""

import ast
from pathlib import Path

import gpdkit


def imported_names():
    tree = ast.parse(Path(gpdkit.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_exported_name_resolves_once():
    assert len(gpdkit.__all__) == len(set(gpdkit.__all__))
    missing = [n for n in gpdkit.__all__ if not hasattr(gpdkit, n)]
    assert missing == []


def test_every_imported_name_is_exported():
    names = imported_names()
    assert names
    assert sorted(set(names) - set(gpdkit.__all__)) == []
