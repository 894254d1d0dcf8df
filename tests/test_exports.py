"""Every ``__all__`` in the package names what its module defines, once."""

import importlib
import pkgutil

import pytest

import tvpdr

MODULES = ["tvpdr"] + [f"tvpdr.{m.name}" for m in pkgutil.iter_modules(tvpdr.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_repeats(name):
    module = importlib.import_module(name)
    assert sorted(module.__all__) == sorted(set(module.__all__))
    assert [e for e in module.__all__ if not hasattr(module, e)] == []
