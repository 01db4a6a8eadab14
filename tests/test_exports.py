"""The package's public surface: each library module's ``__all__`` names what
it defines for the package, and ``gpdkit.__all__`` is those lists joined,
so every public name is written once, in the module that defines it."""

import ast
from pathlib import Path

import gpdkit
from gpdkit import core, dblgpd, documents, presentations, vankampen, xmod

MODULES = (core, dblgpd, documents, presentations, vankampen, xmod)


def _top_level(module):
    """The names a module's top level defines (``def``, ``class`` or an
    assignment) and the names it imports, read from its syntax tree."""
    tree = ast.parse(Path(module.__file__).read_text())
    defined, imported = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name for a in node.names)
    return defined, imported


def test_every_exported_name_resolves_once():
    assert len(gpdkit.__all__) == len(set(gpdkit.__all__))
    missing = [n for n in gpdkit.__all__ if not hasattr(gpdkit, n)]
    assert missing == []


def test_every_imported_name_is_exported():
    # a star import binds exactly the public surface, nothing beside it
    namespace = {}
    exec("from gpdkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gpdkit.__all__)


def test_each_module_lists_only_what_it_defines():
    for module in MODULES:
        defined, imported = _top_level(module)
        listed = module.__all__
        assert len(listed) == len(set(listed)), module
        assert sorted(set(listed) - defined) == [], module
        assert sorted(set(listed) & imported) == [], module


def test_no_name_is_listed_by_two_modules():
    seen = {}
    for module in MODULES:
        for n in module.__all__:
            assert n not in seen, (n, seen[n], module)
            seen[n] = module


def test_the_package_joins_the_module_lists():
    joined = [n for module in MODULES for n in module.__all__]
    assert gpdkit.__all__ == joined
    for module in MODULES:
        assert [n for n in module.__all__ if getattr(gpdkit, n) is not getattr(module, n)] == []


def test_the_package_lists_no_name_itself():
    # ``__init__.py`` imports modules and star-imports them; it names no
    # public name of its own
    tree = ast.parse(Path(gpdkit.__file__).read_text())
    for node in tree.body[1:]:  # after the docstring
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            assert names == ["*"] or names == [m.__name__.split(".")[1] for m in MODULES], names
        assert not isinstance(node, (ast.FunctionDef, ast.ClassDef))
        strings = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)]
        assert strings == [], strings
