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


def test_each_name_has_one_exporting_module():
    # a module exports what it owns; the package root is the one gathering point
    owners = {}
    for name in MODULES[1:]:
        for export in importlib.import_module(name).__all__:
            owners.setdefault(export, []).append(name)
    assert {e: m for e, m in owners.items() if len(m) > 1} == {}
