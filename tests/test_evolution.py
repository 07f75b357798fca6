"""Pulse dynamics: first-order model against the full propagator."""

import dataclasses
import re

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply, norm as sparse_norm
from scipy.special import jv

from halftrap import evolution
from halftrap.evolution import (
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
from halftrap.moments import moments_from_fock
from halftrap.orbitals import OverlapTable, build_overlap_table
from halftrap.states import (
    coherent_state,
    number_state,
    superposition_state,
)

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
    ham = build_joint_hamiltonian(table4, basis, probe)
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
    ham_swapped = build_joint_hamiltonian(swapped, basis, probe)
    a = exact_state(embed_product(phi, probe), ham, pulse)
    b = exact_state(embed_product(phi, probe), ham_swapped, pulse)
    wa10 = float(np.vdot(a[:, 1, 0], a[:, 1, 0]).real)
    wb01 = float(np.vdot(b[:, 0, 1], b[:, 0, 1]).real)
    assert wa10 == pytest.approx(wb01, rel=1e-12)


def test_sampled_pulse_agrees_with_square(setup4):
    # oracle for the Chebyshev series: integrate the same square pulse step by step
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


def _full_space_state(initial, ham, pulse, step_norm=np.inf):
    """Oracle: expm_multiply over the whole joint space, every sector at once.

    The pulse runs in equal steps whose matrices have a 1-norm of at most
    `step_norm`. expm_multiply's error grows with that norm: over 400 draws
    of the random-input property below it reached 6.4e-14 in one step, and
    8.1e-15 in steps of 1-norm 8.
    """
    A = ((-1j * pulse.T) * (ham.H0 + pulse.g0 * _full_coupling(ham))).tocsc()
    steps = max(1, int(np.ceil(sparse_norm(A, 1) / step_norm)))
    psi = initial.reshape(-1)
    for _ in range(steps):
        psi = expm_multiply(A / steps, psi)
    return psi


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
            ham = build_joint_hamiltonian(table, basis, probe)
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
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe)
    # H_0 against its loop over the occupation tuples: half-integer sums, so equal exactly
    h0 = [
        sum((k + 0.5) * n for k, n in enumerate(occ)) + (a + 0.5) + (b + 0.5)
        for occ in basis.states
        for a in range(levels)
        for b in range(levels)
    ]
    assert np.array_equal(ham.H0.diagonal(), h0)
    V = _full_coupling(ham)
    # the probe frame |a b> -> i^(a+b) |a b> of each trap state; i^k exactly
    d = levels
    frame = np.array([1, 1j, -1, -1j])[np.add.outer(np.arange(d), np.arange(d)).ravel() % 4]
    assert ham.h.dtype == ham.v.dtype == ham.radius.dtype == np.float64
    for N, span in enumerate(basis.sectors()):
        s = slice(span.start * d**2, span.stop * d**2)
        e = slice(ham.edges[N], ham.edges[N + 1])
        W = ham.W[s, e]
        # the sector's rows of W reach its own range of the even basis only
        assert ham.W[s].nnz == W.nnz
        assert abs(W.conj().T @ W - sp.identity(W.shape[1])).max() <= 1e-15
        # W spans the mirror-even half: Pi W = W
        t = np.repeat(np.arange(span.start, span.stop), d * d)
        sign = (-1.0) ** (basis.states @ np.arange(K))[t]
        swap = np.arange(s.stop - s.start).reshape(-1, d, d).transpose(0, 2, 1).ravel()
        assert abs(sp.diags(sign) @ W[swap] - W).max() <= 1e-15
        # the frame is folded into W: undoing it leaves a real isometry
        omega = sp.diags(np.tile(frame, span.stop - span.start))
        assert abs((omega.conj() @ W).imag).max() == 0.0
        assert abs(W.conj().T @ ham.H0[s, s] @ W - sp.diags(ham.h[e])).max() <= 1e-14
        # V is real in the frame, and the sector's block of v is its mirror-even half
        reduced = W.conj().T @ V[s, s] @ W
        assert abs(reduced.imag).max() <= 1e-14
        assert abs(reduced.real - ham.v[e, e]).max() <= 1e-14
        assert ham.v[e].nnz == ham.v[e, e].nnz
    # v holds H_0's diagonal as explicit zeros at `diag`, and `radius` its |v| row sums
    n = ham.h.size
    assert np.array_equal(ham.v.indices[ham.diag], np.arange(n))
    assert np.array_equal(np.searchsorted(ham.v.indptr, ham.diag, side="right") - 1, np.arange(n))
    assert not ham.v.data[ham.diag].any()
    assert np.abs(ham.radius - abs(ham.v).sum(axis=1).A1).max() <= 1e-14
    # an even trap state keeps the d(d+1)/2 swap-symmetric probe pairs, an odd one the d(d-1)/2 others
    parity = basis.states @ np.arange(K) % 2
    n_even = int(np.count_nonzero(parity == 0))
    n_odd = parity.size - n_even
    even_dim = (n_even * levels * (levels + 1) + n_odd * levels * (levels - 1)) // 2
    assert ham.edges[0] == 0
    assert ham.edges[-1] == ham.W.shape[1] == even_dim == n


def test_mirror_halves_the_exact_sweep_sectors():
    ham = build_joint_hamiltonian(build_overlap_table(8), FockBasis(8, 4), ProbeParams(levels=4))
    assert np.diff(ham.edges).tolist() == [10, 64, 296, 960, 2660]
    assert ham.H0.shape[0] == 7920


def test_table_without_the_parity_identity_is_refused(table4, setup4):
    _, basis, probe, _ = setup4
    lamL = table4.lambdaL.copy()
    lamL[1, 2] += 1e-9  # k + l odd
    broken = OverlapTable(K=4, lambdaL=lamL, lambdaR=table4.lambdaR.copy())
    with pytest.raises(ValueError, match=r"lambdaL = P lambdaR P"):
        build_joint_hamiltonian(broken, basis, probe)


def test_mirror_odd_initial_state_is_refused(setup4):
    _, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(1).amplitudes, basis)
    odd = embed_product(phi, probe)
    odd[:, 1, 0] = phi  # |1>|10> alone is not even under the probe swap
    with pytest.raises(ValueError, match="mirror-odd"):
        exact_state(odd, ham, Pulse.square(T=0.05, g0=1.0))


def test_mirror_odd_part_beyond_the_first_occupied_sector_is_refused(setup4):
    _, basis, probe, ham = setup4
    phi = to_fock_vector(superposition_state(np.array([0.0, 0.6, 0.0, 0.8])).amplitudes, basis)
    initial = embed_product(phi, probe)
    pulse = Pulse.square(T=0.05, g0=1.0)
    assert np.linalg.norm(exact_state(initial, ham, pulse)) == pytest.approx(1.0, abs=1e-12)
    # |3>|10> alone is not even under the probe swap; N = 1 stays even
    t3 = np.flatnonzero(phi)[-1]
    assert basis.states[t3].sum() == 3
    initial[t3, 1, 0] = 0.1
    with pytest.raises(ValueError, match="mirror-odd part of norm 7.071e-02"):
        exact_state(initial, ham, pulse)


def test_wrongly_shaped_state_is_refused(setup4):
    _, basis, probe, ham = setup4
    wrong = np.zeros((basis.dimension, probe.levels, probe.levels + 1), dtype=np.complex128)
    expect = (basis.dimension, probe.levels, probe.levels)
    shapes = re.escape(f"{wrong.shape}") + ".*" + re.escape(f"{expect}")
    with pytest.raises(ValueError, match=shapes):
        exact_state(wrong, ham, Pulse.square(T=0.05, g0=1.0))


def test_empty_state_propagates_to_zeros(setup4):
    _, basis, probe, ham = setup4
    empty = np.zeros((basis.dimension, probe.levels, probe.levels), dtype=np.complex128)
    out = exact_state(empty, ham, Pulse.square(T=0.05, g0=1.0))
    assert out.shape == empty.shape
    assert not out.any()


def test_tiny_norm_tolerance_raises_drift_error(setup4, monkeypatch):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(
        superposition_state(np.array([0.6, 0.0, 0.8])).amplitudes, basis
    )
    # a long strong pulse: a series of about 1000 terms, a drift of about 2e-16
    pulse = Pulse.square(T=20.0, g0=3.0)
    initial = embed_product(phi, probe)
    assert np.linalg.norm(exact_state(initial, ham, pulse)) == pytest.approx(1.0, abs=1e-9)
    monkeypatch.setattr(evolution, "_NORM_TOL", 1e-17)
    with pytest.raises(IntegratorDriftError):
        exact_state(initial, ham, pulse)


_coefficients = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).filter(lambda raw: np.linalg.norm(raw) > 1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_state_matches_the_full_space_oracle_on_random_inputs(data):
    raw = data.draw(_coefficients)
    K = data.draw(st.integers(1, 6))
    basis = FockBasis(K, data.draw(st.integers(len(raw) - 1, 4)))
    probe = ProbeParams(levels=data.draw(st.integers(2, 4)))
    pulse = Pulse.square(T=data.draw(st.floats(0.01, 2.0)), g0=data.draw(st.floats(0.0, 10.0)))
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe)
    state = superposition_state(np.array(raw) / np.linalg.norm(raw))
    initial = embed_product(to_fock_vector(state.amplitudes, basis), probe)
    got = exact_state(initial, ham, pulse).reshape(-1)
    # the worst of 400 draws was 8.1e-15, within the bound of the fixed cases above
    assert np.abs(got - _full_space_state(initial, ham, pulse, step_norm=8.0)).max() <= 1e-14


@pytest.mark.parametrize("z", [0.0, 1e-3, 0.5, 5.0, 50.0, 700.0])
def test_bessel_series_matches_scipy(z):
    J = evolution._bessel_series(z)
    k = np.arange(J.size)
    # scipy's jv is itself off by 1.4e-14 at z = 700 (against mpmath), so there
    # mpmath pins the series as well
    assert np.abs(J - jv(k, z)).max() <= (2e-14 if z > 100 else 1e-15)
    if z > 100:
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.besselj(int(i), z)) for i in k[::25]])
        assert np.abs(J[::25] - exact).max() <= 1e-15
    # the series stops at the first k past max(z, 1) where 2 |J_k| < tol / 4,
    # and the tail it drops, 2 (|J_m| + |J_(m+1)| + ...), stays below tol
    assert J.size == 1 + max(
        i for i in range(J.size + 1) if i <= max(z, 1.0) or 2 * abs(jv(i, z)) >= evolution._SERIES_TOL / 4
    )
    tail = 2.0 * np.abs(jv(np.arange(J.size, J.size + 200), z)).sum()
    assert tail < evolution._SERIES_TOL


def test_flat_spectrum_propagates_as_a_pure_phase(setup4):
    # all of h at one energy and no coupling: the Gershgorin interval has r = 0,
    # and the propagator is the phase exp(-i T c) with no series
    _, basis, probe, ham = setup4
    flat = dataclasses.replace(ham, h=np.full_like(ham.h, 2.5))
    phi = to_fock_vector(superposition_state(np.array([0.6, 0.0, 0.8j])).amplitudes, basis)
    initial = embed_product(phi, probe)
    got = exact_state(initial, flat, Pulse.square(T=0.7, g0=0.0))
    assert np.abs(got - np.exp(-1.75j) * initial).max() <= 1e-15
