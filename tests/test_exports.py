"""Public surface: every name a module exports resolves and is listed once.

The package root exports the names of its numpy-only layers and imports the
scipy layers and the harness on first access; the harness package exports
its submodules.
"""

import importlib
import pkgutil
import subprocess
import sys

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
    assert halftrap.Pulse is importlib.import_module("halftrap.measurement").Pulse
    assert halftrap.__getattr__("evolution") is importlib.import_module("halftrap.evolution")
    assert not hasattr(halftrap, "no_such_name")


def test_the_root_exports_the_sector_post_selection_and_not_the_factor_one():
    # the exact route post-selects from its sector-by-level weights; the per-trap factors are gone,
    # and the joint-array forms live in the tests' oracle
    assert halftrap.postselect_sectors is importlib.import_module("halftrap.measurement").postselect_sectors
    for layer in ("measurement", "evolution"):
        module = importlib.import_module(f"halftrap.{layer}")
        for name in ("postselect_factors", "postselect", "embed_product", "perturbative_state"):
            assert name not in halftrap.__all__ and not hasattr(halftrap, name)
            assert name not in module.__all__ and not hasattr(module, name)
    assert not hasattr(importlib.import_module("halftrap.evolution").FactoredState, "joint")


def test_the_root_lists_the_names_of_its_numpy_only_layers():
    layers = ["orbitals", "states", "moments", "measurement", "entanglement"]
    names = [n for m in layers for n in importlib.import_module(f"halftrap.{m}").__all__]
    assert halftrap.__all__ == ["__version__", *names]


@pytest.mark.parametrize("layer", ["fock", "evolution"])
def test_the_root_lists_no_name_of_a_scipy_layer(layer):
    assert set(halftrap.__all__).isdisjoint(importlib.import_module(f"halftrap.{layer}").__all__)


def test_the_harness_package_lists_only_its_submodules():
    harness = importlib.import_module("halftrap.harness")
    assert [getattr(harness, n).__name__ for n in harness.__all__] == [
        f"halftrap.harness.{n}" for n in harness.__all__
    ]


def test_importing_the_harness_loads_config_and_sweep(cli_env):
    # benchmarks/worker.py reads both from sys.modules right after `import halftrap.harness`
    probe = (
        "import sys, halftrap.harness\n"
        "print(*(f'halftrap.harness.{m}' in sys.modules for m in ('config', 'sweep')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env, timeout=300
    )
    assert proc.stdout.split() == ["True", "True"], proc.stderr
