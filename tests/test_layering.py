"""Import layering: the moment route and post-selection load no Fock or scipy code.

`measurement` and `moments` sit on the moment route, which needs numpy only.
Each may import `evolution`, `fock` or `scipy` for annotations under
`if TYPE_CHECKING:`, or inside a function that runs on the fock or exact
route, but never at module level.
"""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "halftrap"
_HEAVY = {"evolution", "fock", "scipy"}


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


@pytest.mark.parametrize("module", ["measurement", "moments"])
def test_module_level_imports_skip_fock_evolution_and_scipy(module):
    tree = ast.parse((_PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    heavy = [
        ast.unparse(node) for node in _runtime_imports(tree.body) if _names(node) & _HEAVY
    ]
    assert heavy == []


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
