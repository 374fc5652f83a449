"""The package namespace: every public name resolves lazily to the object its
submodule defines, and nothing else resolves."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import homord


def test_exports_are_module_attributes():
    listed = [name for names in homord._MODULES.values() for name in names.split()]
    assert sorted(listed) == homord.__all__  # each name listed once
    names = dir(homord)
    for name, mod in homord._EXPORTS.items():
        module = importlib.import_module(f"homord.{mod}")
        assert getattr(homord, name) is getattr(module, name), name
        assert name in names, name


def test_submodules_resolve():
    for mod in homord._MODULES:
        assert getattr(homord, mod) is importlib.import_module(f"homord.{mod}")
        assert mod in dir(homord)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        homord.no_such_name
    with pytest.raises(ImportError):
        from homord import no_such_name  # noqa: F401


def test_every_export_is_used_outside_the_tests():
    """A public name is named in the package beyond its own definition and
    the export map, or in the demos, the benchmark or the README: the
    package ships no API that only the tests call."""
    root = Path(__file__).parents[1]
    outside = "\n".join(p.read_text() for p in [
        *sorted((root / "demos").glob("*.py")), *sorted((root / "benchmarks").glob("*.py")),
        root / "README.md"])
    src = {p.stem: p.read_text() for p in (root / "src" / "homord").glob("*.py")
           if p.name != "__init__.py"}
    unused = []
    for name, mod in homord._EXPORTS.items():
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^(?:def|class) {name}\b|^{name}\s*[:=]", re.M)
        uses = sum(len(word.findall(text)) for text in src.values())
        if not word.search(outside) and uses <= len(own.findall(src[mod])):
            unused.append(name)
    assert unused == []


def _module_trees():
    src = Path(__file__).parents[1] / "src" / "homord"
    return {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}


def test_every_import_is_used():
    """A name a module imports is read somewhere in that module."""
    unused = []
    for name, tree in _module_trees().items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue  # a compiler directive binds no name
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in read:
                    unused.append((name, bound))
    assert unused == []


def test_every_private_definition_is_referenced():
    """A private top-level function or class is named somewhere in the
    package beyond its own definition: a deletion leaves no helper behind."""
    trees = _module_trees()
    named = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees.values()
             for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    unreferenced = [(name, node.name) for name, tree in trees.items() for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and node.name not in named]
    assert unreferenced == []
