"""Import layering: only the Fock and exact layers load Fock or scipy code.

`fock` and `evolution` hold the two routes that need `scipy.sparse`. Every
other module of the package, found by walking it so that a new module is
checked without editing a list, may import `evolution`, `fock` or `scipy`
for annotations under `if TYPE_CHECKING:`, or inside a function that runs on
the fock or exact route, but never at module level. The moment route then
needs numpy only.
"""

import ast
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import halftrap

_HEAVY = {"evolution", "fock", "scipy"}
_MODULES = ["halftrap"] + [m.name for m in pkgutil.walk_packages(halftrap.__path__, "halftrap.")]
_LAYERED = [m for m in _MODULES if m not in ("halftrap.fock", "halftrap.evolution")]


def _runtime_imports(nodes):
    """Import statements that run when the module loads: skips functions and TYPE_CHECKING."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING",
            "typing.TYPE_CHECKING",
        ):
            yield from _runtime_imports(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from _runtime_imports(ast.iter_child_nodes(node))


def _names(node):
    """Every dotted module part an import statement names."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    else:
        # `from . import fock` names the module in its alias
        modules = [node.module or ""] + [alias.name for alias in node.names]
    return {part for module in modules for part in module.split(".")}


def _heavy_imports(module: str) -> list[str]:
    source = Path(importlib.util.find_spec(module).origin).read_text(encoding="utf-8")
    tree = ast.parse(source)
    return [ast.unparse(node) for node in _runtime_imports(tree.body) if _names(node) & _HEAVY]


def test_the_walk_finds_every_layer():
    assert {"halftrap", "halftrap.measurement", "halftrap.harness.sweep"} <= set(_LAYERED)
    assert {"halftrap.fock", "halftrap.evolution"} <= set(_MODULES) - set(_LAYERED)
    # the two exempt modules are the ones that do import scipy
    assert _heavy_imports("halftrap.fock") and _heavy_imports("halftrap.evolution")


@pytest.mark.parametrize("module", _LAYERED, ids=lambda m: m.removeprefix("halftrap."))
def test_module_level_imports_skip_fock_evolution_and_scipy(module):
    assert _heavy_imports(module) == []


def test_the_guard_sees_a_runtime_import():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.sparse\n"
        "def f():\n"
        "    from .fock import to_fock_vector\n"
        "try:\n"
        "    from .evolution import Pulse\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert [ast.unparse(n) for n in _runtime_imports(tree.body)] == [
        "from typing import TYPE_CHECKING",
        "from .evolution import Pulse",
    ]
