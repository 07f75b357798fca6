"""Post-selection onto the single shared excitation and outcome sampling."""

import numpy as np
import pytest

from halftrap.evolution import (
    ProbeParams,
    Pulse,
    build_joint_hamiltonian,
    embed_product,
    perturbative_state,
)
from halftrap.fock import FockBasis, to_fock_vector
from halftrap.measurement import (
    NoExtractionError,
    ProbeBlock,
    block_from_moments,
    postselect,
    sample_outcomes,
)
from halftrap.moments import analytic_limit_moments, moments_from_fock
from halftrap.orbitals import build_overlap_table
from halftrap.states import number_state, superposition_state

@pytest.fixture(scope="module")
def small():
    table = build_overlap_table(4)
    basis = FockBasis(4, 3)
    probe = ProbeParams(levels=4)
    return table, basis, probe, build_joint_hamiltonian(table, basis, probe)


def test_block_from_joint_matches_block_from_moments(small):
    table, basis, probe, ham = small
    state = number_state(2)
    phi = to_fock_vector(state.amplitudes, basis)
    pulse = Pulse.square(T=0.1, g0=0.3)
    joint = perturbative_state(phi, ham, pulse)
    joint[:, 0, 0] = phi
    from_joint = postselect(joint)
    mom = moments_from_fock(state, basis, ham.lamL, ham.lamR)
    from_mom = block_from_moments(mom, pulse, probe, state_norm_sq=1.0)
    assert np.allclose(from_joint.matrix, from_mom.matrix, atol=1e-12)
    assert from_joint.p_succ == pytest.approx(from_mom.p_succ, rel=1e-12)
    assert from_joint.leakage < 1e-12  # only rounding; no higher levels populated


def test_free_evolution_leaves_block_unchanged(small):
    # the free term only rotates the discarded ground branch; the selected
    # block is unaffected while the success probability shifts slightly
    table, basis, probe, ham = small
    phi = to_fock_vector(number_state(2).amplitudes, basis)
    pulse = Pulse.square(T=0.05, g0=0.3)
    with_h0 = postselect(perturbative_state(phi, ham, pulse))
    joint = perturbative_state(phi, ham, pulse)
    joint[:, 0, 0] = phi
    without = postselect(joint)
    assert np.allclose(with_h0.matrix, without.matrix, atol=1e-12)


def test_postselect_needs_trap_probe_probe_axes(small):
    table, basis, probe, ham = small
    phi = to_fock_vector(number_state(2).amplitudes, basis)
    joint = perturbative_state(phi, ham, Pulse.square(T=0.1, g0=0.3))
    with pytest.raises(ValueError, match="not \\(trap, probe, probe\\)"):
        postselect(joint.reshape(-1))


def test_vacuum_cannot_be_selected(small):
    table, basis, probe, ham = small
    phi = to_fock_vector(number_state(0).amplitudes, basis)
    joint = perturbative_state(phi, ham, Pulse.square(T=0.1, g0=0.3))
    with pytest.raises(NoExtractionError):
        postselect(joint)
    with pytest.raises(NoExtractionError):
        block_from_moments(analytic_limit_moments(number_state(0)))


def test_single_particle_block_is_maximally_mixed():
    # in the limiting table the cross sum vanishes: rho = diag(1/2, 1/2)
    mom = analytic_limit_moments(number_state(1))
    block = block_from_moments(mom)
    assert np.array_equal(block.matrix, np.diag([0.5, 0.5]).astype(complex))


def test_block_is_unit_trace_density(small):
    table, basis, probe, ham = small
    state = superposition_state(np.array([0.0, 0.6, 0.0, 0.8]))
    phi = to_fock_vector(state.amplitudes, basis)
    joint = perturbative_state(phi, ham, Pulse.square(T=0.1, g0=0.5))
    block = postselect(joint)
    assert np.trace(block.matrix).real == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(block.matrix)
    assert eigs.min() >= -1e-12
    assert 0.0 < block.p_succ < 1.0


def test_success_probability_formula():
    mom = analytic_limit_moments(number_state(2))
    pulse = Pulse.square(T=0.1, g0=0.2)
    probe = ProbeParams()
    block = block_from_moments(mom, pulse, probe, state_norm_sq=1.0)
    scale = pulse.area**2 * probe.M * probe.Omega / 2.0
    expect = scale * mom.S / (1.0 + scale * mom.S)
    assert block.p_succ == pytest.approx(expect, rel=1e-14)


def test_success_probability_nan_without_pulse():
    mom = analytic_limit_moments(number_state(2))
    block = block_from_moments(mom)
    assert np.isnan(block.p_succ)


def test_block_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        ProbeBlock(
            matrix=np.array([[0.6, 0.0], [0.0, 0.6]]), p_succ=0.5, leakage=0.0,
            source="synthetic",
        )
    with pytest.raises(ValueError):
        ProbeBlock(
            matrix=np.array([[1.2, 0.0], [0.0, -0.2]]), p_succ=0.5, leakage=0.0,
            source="synthetic",
        )


def _block_with_p(p: float) -> ProbeBlock:
    return ProbeBlock(
        matrix=np.diag([0.5, 0.5]).astype(complex),
        p_succ=p,
        leakage=0.0,
        source="synthetic",
    )


def test_sampling_degenerate_probabilities():
    assert sample_outcomes(_block_with_p(0.0), 1000, seed=1) == {
        "success": 0,
        "failure": 1000,
    }
    assert sample_outcomes(_block_with_p(1.0), 1000, seed=1) == {
        "success": 1000,
        "failure": 0,
    }


def test_sampling_concentrates_at_rate():
    shots = 1_000_000
    counts = sample_outcomes(_block_with_p(0.25), shots, seed=42)
    sigma = np.sqrt(0.25 * 0.75 / shots)
    assert abs(counts["success"] / shots - 0.25) < 5 * sigma
    assert counts["success"] + counts["failure"] == shots


def test_sampling_is_seed_deterministic():
    a = sample_outcomes(_block_with_p(0.3), 10_000, seed=7)
    b = sample_outcomes(_block_with_p(0.3), 10_000, seed=7)
    c = sample_outcomes(_block_with_p(0.3), 10_000, seed=8)
    assert a == b
    assert a != c


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_outcomes(_block_with_p(0.5), 0, seed=1)
    with pytest.raises(ValueError):
        sample_outcomes(block_from_moments(analytic_limit_moments(number_state(2))), 10, seed=1)
