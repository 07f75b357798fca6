"""Public surface: every name a module exports resolves and is listed once."""

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
