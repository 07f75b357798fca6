"""Entanglement extraction from a split harmonic trap.

A gas of bosons sits in the ground orbital of a one-dimensional harmonic
trap. Two localized probe oscillators couple briefly to the left and right
halves of the trap; post-selecting on a single shared excitation leaves the
probe pair in a two-level block whose off-diagonal weight is directly an
entanglement monotone. The package computes that block three independent
ways (closed-form moments, explicit occupation-basis expectations, full
pulse evolution) and cross-checks them against each other and against
closed forms.

Layout: `orbitals` builds half-line overlap tables of oscillator
eigenfunctions, `fock` the truncated many-body operators, `states` the
initial gas states, `moments` the probe-block moments at finite truncation
and in the infinite-mode limit, `evolution` the pulse dynamics,
`measurement` the probe and pulse parameters and the post-selection,
`entanglement` the negativity and fidelity measures, and `harness` the
config/sweep/acceptance tooling behind the `halftrap` command.

The root star-imports the five layers that need numpy alone (`orbitals`,
`states`, `moments`, `measurement`, `entanglement`), and its `__all__` is
theirs. `fock`, `evolution` and `harness` are imported on first access
(PEP 562): only `fock` and `evolution` import scipy, so `import halftrap` and
the moment route need numpy alone.
"""

import importlib

from . import entanglement, measurement, moments, orbitals, states
from .entanglement import *  # noqa: F401,F403
from .measurement import *  # noqa: F401,F403
from .moments import *  # noqa: F401,F403
from .orbitals import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAYERS = (orbitals, states, moments, measurement, entanglement)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]


def __getattr__(name: str):
    """Import the submodules that load scipy, and the harness, on first access."""
    if name in ("fock", "evolution", "harness"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
