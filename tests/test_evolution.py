"""Pulse dynamics: first-order model against the full propagator."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from halftrap import evolution
from halftrap.evolution import (
    DimensionCapError,
    IntegratorDriftError,
    ProbeParams,
    Pulse,
    build_joint_hamiltonian,
    embed_product,
    exact_state,
    perturbative_state,
    probe_lowering,
    probe_momentum,
)
from halftrap.fock import FockBasis, to_fock_vector
from halftrap.harness.config import ExperimentConfig
from halftrap.moments import moments_from_fock
from halftrap.orbitals import OverlapTable, build_overlap_table
from halftrap.states import (
    coherent_state,
    number_state,
    superposition_state,
)

# the joint-dimension cap every caller passes: the `exact.dim_cap` default
CAP = ExperimentConfig().exact_dim_cap


@pytest.fixture(scope="module")
def table4():
    return build_overlap_table(4)


def _full_coupling(ham):
    """V = Lambda_L P_L + Lambda_R P_R on the whole flattened joint space."""
    eye = sp.identity(ham.probe.levels, format="csr")
    P = sp.csr_matrix(probe_momentum(ham.probe))
    return (sp.kron(sp.kron(ham.lamL, P), eye) + sp.kron(sp.kron(ham.lamR, eye), P)).tocsr()


@pytest.fixture(scope="module")
def setup4(table4):
    basis = FockBasis(4, 3)
    probe = ProbeParams(levels=4)
    ham = build_joint_hamiltonian(table4, basis, probe, CAP)
    return table4, basis, probe, ham


def test_square_pulse_area():
    p = Pulse.square(T=0.5, g0=0.3)
    assert p.area == pytest.approx(0.15, rel=1e-15)


def test_probe_momentum_matrix():
    probe = ProbeParams(M=2.0, Omega=1.5, levels=2)
    b = probe_lowering(2)
    s = np.sqrt(2.0 * 1.5 / 2.0)
    expect = 1.0j * s * (b.conj().T - b)
    assert np.allclose(probe_momentum(probe), expect, atol=1e-15)
    p = probe_momentum(probe)
    assert np.allclose(p, p.conj().T, atol=1e-15)


def test_vacuum_gains_no_excitation(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(0).amplitudes, basis)
    out = perturbative_state(phi, ham, Pulse.square(T=0.1, g0=0.5))
    assert np.all(out[:, 1, 0] == 0.0)
    assert np.all(out[:, 0, 1] == 0.0)


def test_branch_weight_matches_moments(setup4):
    # |branch|^2 = area^2 (M Omega / 2) m_II with the same truncation
    table, basis, probe, ham = setup4
    state = number_state(2)
    phi = to_fock_vector(state.amplitudes, basis)
    pulse = Pulse.square(T=0.1, g0=0.4)
    out = perturbative_state(phi, ham, pulse)
    out[:, 0, 0] = phi
    mom = moments_from_fock(state, basis, ham.lamL, ham.lamR)
    scale = pulse.area**2 * probe.M * probe.Omega / 2.0
    w10 = float(np.vdot(out[:, 1, 0], out[:, 1, 0]).real)
    w01 = float(np.vdot(out[:, 0, 1], out[:, 0, 1]).real)
    assert w10 == pytest.approx(scale * mom.mLL, rel=1e-12)
    assert w01 == pytest.approx(scale * mom.mRR, rel=1e-12)


def test_free_term_only_touches_ground_branch(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(2).amplitudes, basis)
    pulse = Pulse.square(T=0.05, g0=0.4)
    with_h0 = perturbative_state(phi, ham, pulse)
    without = perturbative_state(phi, ham, pulse)
    without[:, 0, 0] = phi
    assert np.array_equal(with_h0[:, 1, 0], without[:, 1, 0])
    assert np.array_equal(with_h0[:, 0, 1], without[:, 0, 1])
    assert not np.array_equal(with_h0[:, 0, 0], without[:, 0, 0])


def test_zero_coupling_is_free_evolution(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(
        superposition_state(np.array([0.6, 0.0, 0.8])).amplitudes, basis
    )
    initial = embed_product(phi, probe)
    final = exact_state(initial, ham, Pulse.square(T=0.3, g0=0.0))
    # phases only: every amplitude keeps its magnitude, branches stay empty
    assert np.allclose(
        np.abs(final[:, 0, 0]), np.abs(initial[:, 0, 0]), atol=1e-12
    )
    assert np.abs(final[:, 1, 0]).max() < 1e-14
    assert np.abs(final[:, 0, 1]).max() < 1e-14


def test_exact_evolution_is_unitary(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(2).amplitudes, basis)
    final = exact_state(embed_product(phi, probe), ham, Pulse.square(T=0.2, g0=0.8))
    assert np.linalg.norm(final) == pytest.approx(1.0, abs=1e-12)


def test_first_order_residual_scales_quadratically(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(2).amplitudes, basis)
    residuals = []
    for T in (0.02, 0.01, 0.005):
        pulse = Pulse.square(T=T, g0=2.0)
        final = exact_state(embed_product(phi, probe), ham, pulse)
        model = perturbative_state(phi, ham, pulse)
        diff = final.reshape(-1) - model.reshape(-1)
        residuals.append(float(np.sqrt(np.vdot(diff, diff).real)))
    for i in range(2):
        assert 3.0 <= residuals[i] / residuals[i + 1] <= 5.0


def test_left_right_swap_mirrors_the_block(setup4):
    table, basis, probe, ham = setup4
    swapped = OverlapTable(
        K=table.K,
        lambdaL=table.lambdaR.copy(),
        lambdaR=table.lambdaL.copy(),
    )
    phi = to_fock_vector(number_state(2).amplitudes, basis)
    pulse = Pulse.square(T=0.02, g0=1.0)
    ham_swapped = build_joint_hamiltonian(swapped, basis, probe, CAP)
    a = exact_state(embed_product(phi, probe), ham, pulse)
    b = exact_state(embed_product(phi, probe), ham_swapped, pulse)
    wa10 = float(np.vdot(a[:, 1, 0], a[:, 1, 0]).real)
    wb01 = float(np.vdot(b[:, 0, 1], b[:, 0, 1]).real)
    assert wa10 == pytest.approx(wb01, rel=1e-12)


def test_sampled_pulse_agrees_with_square(setup4):
    # oracle for expm_multiply: integrate the same square pulse step by step
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(1).amplitudes, basis)
    T, g0 = 0.05, 1.0
    a = exact_state(embed_product(phi, probe), ham, Pulse.square(T=T, g0=g0))
    H = (ham.H0 + g0 * _full_coupling(ham)).tocsr()
    sol = solve_ivp(
        lambda t, y: -1j * (H @ y),
        (0.0, T),
        embed_product(phi, probe).reshape(-1),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success
    overlap = abs(np.vdot(a.reshape(-1), sol.y[:, -1]))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_dimension_cap_enforced(table4):
    basis = FockBasis(4, 3)
    probe = ProbeParams(levels=4)
    with pytest.raises(DimensionCapError):
        build_joint_hamiltonian(table4, basis, probe, dim_cap=100)


def _full_space_state(initial, ham, pulse):
    """Oracle: one expm_multiply over the whole joint space, every sector at once."""
    A = (-1j * pulse.T) * (ham.H0 + pulse.g0 * _full_coupling(ham))
    return expm_multiply(A.tocsc(), initial.reshape(-1))


@pytest.mark.parametrize(
    "state",
    [
        number_state(0),
        number_state(2),
        coherent_state(alpha_sq=0.4, n_cut=4, tail_tol=1e-3),
        superposition_state(np.array([0.6, 0.0, 0.8])),
        superposition_state(np.array([0.0, 0.5, 0.5j, 0.0, np.sqrt(0.5)])),
    ],
    ids=["vacuum", "number", "coherent", "superposition-0-2", "superposition-1-2-4"],
)
def test_sector_propagation_matches_full_space(state):
    # K = 1 has only even trap states; K >= 2 mixes both parities in a sector
    for K in range(1, 7):
        table = build_overlap_table(K)
        basis = FockBasis(K, 4)
        phi = to_fock_vector(state.amplitudes, basis)
        for levels in (2, 3, 4):
            probe = ProbeParams(levels=levels)
            ham = build_joint_hamiltonian(table, basis, probe, CAP)
            initial = embed_product(phi, probe)
            for pulse in (Pulse.square(T=0.05, g0=2.0), Pulse.square(T=0.3, g0=0.8)):
                got = exact_state(initial, ham, pulse).reshape(-1)
                expect = _full_space_state(initial, ham, pulse)
                assert np.abs(got - expect).max() <= 1e-14, (K, levels, pulse)
                # sectors the state does not occupy stay exactly zero
                d2 = probe.levels**2
                for sector in basis.sectors():
                    s = slice(sector.start * d2, sector.stop * d2)
                    if not initial.reshape(-1)[s].any():
                        assert not got[s].any()


@pytest.mark.parametrize("K, levels", [(1, 2), (3, 3), (4, 4)])
def test_mirror_sectors_reduce_the_full_operators(K, levels):
    basis = FockBasis(K, 4)
    probe = ProbeParams(levels=levels)
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe, CAP)
    # H_0 against its loop over the occupation tuples: half-integer sums, so equal exactly
    h0 = [
        sum((k + 0.5) * n for k, n in enumerate(occ)) + (a + 0.5) + (b + 0.5)
        for occ in basis.states
        for a in range(levels)
        for b in range(levels)
    ]
    assert np.array_equal(ham.H0.diagonal(), h0)
    V = _full_coupling(ham)
    for sector in ham.sectors:
        s, U = sector.span, sector.U
        assert abs(U.T @ U - sp.identity(U.shape[1])).max() <= 1e-15
        # U spans the mirror-even half: Pi U = U
        d = levels
        t = np.repeat(np.arange(s.start // d**2, s.stop // d**2), d * d)
        sign = (-1.0) ** (basis.states @ np.arange(K))[t]
        swap = np.arange(s.stop - s.start).reshape(-1, d, d).transpose(0, 2, 1).ravel()
        assert abs(sp.diags(sign) @ U[swap] - U).max() <= 1e-15
        assert abs(U.T @ ham.H0[s, s] @ U - sector.h).max() <= 1e-14
        assert abs(U.T @ V[s, s] @ U - sector.v).max() <= 1e-14
        assert (sector.h.indices == sector.v.indices).all()
    # an even trap state keeps the d(d+1)/2 swap-symmetric probe pairs, an odd one the d(d-1)/2 others
    parity = basis.states @ np.arange(K) % 2
    n_even = int(np.count_nonzero(parity == 0))
    n_odd = parity.size - n_even
    even_dim = (n_even * levels * (levels + 1) + n_odd * levels * (levels - 1)) // 2
    assert sum(sector.U.shape[1] for sector in ham.sectors) == even_dim


def test_mirror_halves_the_exact_sweep_sectors():
    ham = build_joint_hamiltonian(
        build_overlap_table(8), FockBasis(8, 4), ProbeParams(levels=4), CAP
    )
    assert [s.span.stop - s.span.start for s in ham.sectors] == [16, 128, 576, 1920, 5280]
    assert [s.U.shape[1] for s in ham.sectors] == [10, 64, 296, 960, 2660]
    assert ham.H0.shape[0] == 7920


def test_table_without_the_parity_identity_is_refused(table4, setup4):
    _, basis, probe, _ = setup4
    lamL = table4.lambdaL.copy()
    lamL[1, 2] += 1e-9  # k + l odd
    broken = OverlapTable(K=4, lambdaL=lamL, lambdaR=table4.lambdaR.copy())
    with pytest.raises(ValueError, match=r"lambdaL = P lambdaR P"):
        build_joint_hamiltonian(broken, basis, probe, CAP)


def test_mirror_odd_initial_state_is_refused(setup4):
    _, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(1).amplitudes, basis)
    odd = embed_product(phi, probe)
    odd[:, 1, 0] = phi  # |1>|10> alone is not even under the probe swap
    with pytest.raises(ValueError, match="mirror-odd"):
        exact_state(odd, ham, Pulse.square(T=0.05, g0=1.0))


def test_tiny_norm_tolerance_raises_drift_error(setup4, monkeypatch):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(
        superposition_state(np.array([0.6, 0.0, 0.8])).amplitudes, basis
    )
    # a long strong pulse: many Taylor steps, a drift of about 1e-13
    pulse = Pulse.square(T=20.0, g0=3.0)
    initial = embed_product(phi, probe)
    assert np.linalg.norm(exact_state(initial, ham, pulse)) == pytest.approx(1.0, abs=1e-9)
    monkeypatch.setattr(evolution, "_NORM_TOL", 1e-15)
    with pytest.raises(IntegratorDriftError):
        exact_state(initial, ham, pulse)
