"""The package namespace: every public name resolves lazily to the object its
submodule defines, and nothing else resolves."""

import importlib

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
