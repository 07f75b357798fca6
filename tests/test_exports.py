"""Public surface: every name a module exports resolves and is listed once.

The package root re-exports names from its modules and resolves them, and its
submodules, on first access.
"""

import importlib
import pkgutil

import pytest

import halftrap

MODULES = ["halftrap"] + [m.name for m in pkgutil.walk_packages(halftrap.__path__, "halftrap.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_is_listed_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_the_root_resolves_names_and_submodules_on_access():
    assert halftrap.__getattr__("Pulse") is importlib.import_module("halftrap.measurement").Pulse
    assert halftrap.__getattr__("evolution") is importlib.import_module("halftrap.evolution")
    assert not hasattr(halftrap, "no_such_name")
