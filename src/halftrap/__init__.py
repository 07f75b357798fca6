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

The names below are re-exported here and each module is imported on first
access (PEP 562), so `import halftrap` loads nothing but this file. Only
`fock` and `evolution` import scipy; the moment route needs numpy alone.
"""

import importlib

__version__ = "0.1.0"

# each public name, listed under the module that defines it
_EXPORTS = {
    "orbitals": ("OverlapTable", "build_overlap_table", "write_table_csv"),
    "fock": (
        "FockBasis", "build_lambda_operator", "locality_product_residual", "number_operator",
        "single_particle_commutator_residual", "to_fock_vector",
    ),
    "states": (
        "PureComponent", "TailToleranceError", "TrapState", "coherent_state", "make_state",
        "number_state", "phase_averaged_state", "superposition_state", "thermal_state",
    ),
    "moments": (
        "ProbeBlockMoments", "analytic_limit_moments", "moments_from_fock", "moments_from_state",
    ),
    "evolution": (
        "DimensionCapError", "IntegratorDriftError", "JointHamiltonian", "build_joint_hamiltonian",
        "embed_product", "exact_state", "perturbative_state", "probe_lowering", "probe_momentum",
    ),
    "measurement": (
        "NoExtractionError", "ProbeBlock", "ProbeParams", "Pulse", "block_from_moments",
        "postselect", "sample_outcomes",
    ),
    "entanglement": (
        "BipartiteDensity", "disturbance_fidelity", "negativity", "negativity_closed_form",
        "probe_block_density",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Resolve a re-exported name, or a submodule, on first access."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS or name == "harness":
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
