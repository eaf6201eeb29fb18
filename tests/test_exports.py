"""Export lists: every name a module's ``__all__`` lists must exist."""

import importlib
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
