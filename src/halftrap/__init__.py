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
and in the infinite-mode limit, `evolution` the pulse dynamics, `measurement`
the post-selection, `entanglement` the negativity and fidelity measures,
and `harness` the config/sweep/acceptance tooling behind the `halftrap`
command.
"""

from .entanglement import (
    BipartiteDensity,
    disturbance_fidelity,
    negativity,
    negativity_closed_form,
    probe_block_density,
)
from .evolution import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    IntegratorDriftError,
    JointHamiltonian,
    ProbeParams,
    Pulse,
    build_joint_hamiltonian,
    embed_product,
    exact_state,
    perturbative_state,
    probe_lowering,
    probe_momentum,
)
from .fock import (
    FockBasis,
    build_lambda_operator,
    locality_product_residual,
    number_operator,
    single_particle_commutator_residual,
    to_fock_vector,
)
from .measurement import (
    NoExtractionError,
    ProbeBlock,
    block_from_moments,
    postselect,
    sample_outcomes,
)
from .moments import (
    ProbeBlockMoments,
    analytic_limit_moments,
    moments_from_fock,
    moments_from_state,
)
from .orbitals import (
    OverlapTable,
    build_overlap_table,
    write_table_csv,
)
from .states import (
    PureComponent,
    TailToleranceError,
    TrapState,
    coherent_state,
    make_state,
    number_state,
    phase_averaged_state,
    superposition_state,
    thermal_state,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # orbitals
    "OverlapTable",
    "build_overlap_table",
    "write_table_csv",
    # fock
    "FockBasis",
    "build_lambda_operator",
    "locality_product_residual",
    "number_operator",
    "single_particle_commutator_residual",
    "to_fock_vector",
    # states
    "PureComponent",
    "TailToleranceError",
    "TrapState",
    "coherent_state",
    "make_state",
    "number_state",
    "phase_averaged_state",
    "superposition_state",
    "thermal_state",
    # moments
    "ProbeBlockMoments",
    "analytic_limit_moments",
    "moments_from_fock",
    "moments_from_state",
    # evolution
    "DEFAULT_DIM_CAP",
    "DimensionCapError",
    "IntegratorDriftError",
    "JointHamiltonian",
    "ProbeParams",
    "Pulse",
    "build_joint_hamiltonian",
    "embed_product",
    "exact_state",
    "perturbative_state",
    "probe_lowering",
    "probe_momentum",
    # measurement
    "NoExtractionError",
    "ProbeBlock",
    "block_from_moments",
    "postselect",
    "sample_outcomes",
    # entanglement
    "BipartiteDensity",
    "disturbance_fidelity",
    "negativity",
    "negativity_closed_form",
    "probe_block_density",
]
