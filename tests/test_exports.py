"""Export lists: ``__all__`` names every public definition, and only real names."""

import importlib
import inspect
import pkgutil

import pytest

import keyedmod

MODULES = ["keyedmod"] + [
    f"keyedmod.{info.name}" for info in pkgutil.iter_modules(keyedmod.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize(
    "name", [n for n in MODULES if hasattr(importlib.import_module(n), "__all__")]
)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(name)
    defined = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [n for n in defined if n not in module.__all__] == []
