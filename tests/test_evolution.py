"""Pulse dynamics: first-order model against the full propagator.

`exact_state` works in the probes' centre-of-mass and relative levels
(n_+, n_-); the oracles here propagate the probes' own levels (n_L, n_R)
on the whole joint space, or each mode's Hamiltonian on its own.
"""

import dataclasses
import math

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
    exact_state,
    first_order_residual,
    probe_lowering,
)
from halftrap.entanglement import block_negativity
from halftrap.fock import FockBasis, build_imbalance_operator, to_fock_vector
from halftrap.harness.accept import _oracle_states as _accept_oracle_states
from halftrap.measurement import NoExtractionError, postselect_sectors
from halftrap.moments import moments_from_fock
from halftrap.orbitals import OverlapTable, build_overlap_table
from halftrap.states import (
    TrapState,
    coherent_state,
    number_state,
    superposition_state,
)
from exact_oracle import (
    array_residual,
    embed_product,
    joint,
    joint_array_route,
    perturbative_state,
    postselect,
    relative_initial,
    sector_level_weights,
    selected_and_leaked,
)
from lambda_oracle import lambda_pair


@pytest.fixture(scope="module")
def table4():
    return build_overlap_table(4)


def probe_momentum(probe: ProbeParams) -> np.ndarray:
    """P = i sqrt(M Omega / 2) (b^dag - b) on the truncated probe space."""
    b = probe_lowering(probe.levels)
    return 1j * np.sqrt(probe.M * probe.Omega / 2.0) * (b.T - b)


def _full_coupling(ham, table):
    """V = Lambda_L P_L + Lambda_R P_R on the whole flattened (trap, n_L, n_R) space."""
    lamL, lamR = lambda_pair(table, ham.basis)
    eye = sp.identity(ham.probe.levels, format="csr")
    P = sp.csr_matrix(probe_momentum(ham.probe))
    return (sp.kron(sp.kron(lamL, P), eye) + sp.kron(sp.kron(lamR, eye), P)).tocsr()


def _branches(joint):
    """The |00>, L and R single-excitation amplitudes of a (trap, n_+, n_-) array."""
    plus, minus = joint[:, 1, 0], joint[:, 0, 1]
    return joint[:, 0, 0], (plus + minus) / np.sqrt(2.0), (plus - minus) / np.sqrt(2.0)


@pytest.fixture(scope="module")
def setup4(table4):
    basis = FockBasis(4, 3)
    probe = ProbeParams(levels=4)
    ham = build_joint_hamiltonian(table4, basis, probe)
    return table4, basis, probe, ham


def test_square_pulse_area():
    p = Pulse(T=0.5, g0=0.3)
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
    out = perturbative_state(number_state(0).vector, ham, Pulse(T=0.1, g0=0.5))
    assert np.all(out[:, 1, 0] == 0.0)
    assert np.all(out[:, 0, 1] == 0.0)


def test_branch_weight_matches_moments(setup4):
    # |branch|^2 = area^2 (M Omega / 2) m_II with the same truncation
    table, basis, probe, ham = setup4
    state = number_state(2)
    pulse = Pulse(T=0.1, g0=0.4)
    _, left, right = _branches(perturbative_state(state.vector, ham, pulse))
    mom = moments_from_fock(state, basis, build_imbalance_operator(table, basis))
    scale = pulse.area**2 * probe.M * probe.Omega / 2.0
    w10 = float(np.vdot(left, left).real)
    w01 = float(np.vdot(right, right).real)
    assert w10 == pytest.approx(scale * mom.mLL, rel=1e-12)
    assert w01 == pytest.approx(scale * mom.mRR, rel=1e-12)


def test_free_term_only_touches_ground_branch(setup4):
    table, basis, probe, ham = setup4
    c = number_state(2).vector
    pulse = Pulse(T=0.05, g0=0.4)
    with_h0 = perturbative_state(c, ham, pulse)
    without = perturbative_state(c, ham, pulse)
    without[:, 0, 0] = to_fock_vector(c, basis)
    assert np.array_equal(with_h0[:, 1, 0], without[:, 1, 0])
    assert np.array_equal(with_h0[:, 0, 1], without[:, 0, 1])
    assert not np.array_equal(with_h0[:, 0, 0], without[:, 0, 0])


def test_zero_coupling_is_free_evolution(setup4):
    table, basis, probe, ham = setup4
    c = superposition_state(np.array([0.6, 0.0, 0.8])).vector
    initial = embed_product(to_fock_vector(c, basis), probe)
    final = joint(exact_state(c, ham, Pulse(T=0.3, g0=0.0)))
    # phases only: every amplitude keeps its magnitude, branches stay empty
    assert np.allclose(
        np.abs(final[:, 0, 0]), np.abs(initial[:, 0, 0]), atol=1e-12
    )
    assert np.abs(final[:, 1, 0]).max() < 1e-14
    assert np.abs(final[:, 0, 1]).max() < 1e-14


def test_exact_evolution_is_unitary(setup4):
    table, basis, probe, ham = setup4
    T, g0 = 0.2, 0.8
    final = joint(exact_state(number_state(2).vector, ham, Pulse(T=T, g0=g0)))
    # the array holds the + mode's first levels only: of the Poisson weights of
    # |beta|^2 = (2 c / Omega)^2 sin^2(Omega T / 2), c = g0 N sqrt(M Omega / 4), the first four
    beta_sq = (2.0 * g0 * 2 * 0.5 * np.sin(T / 2.0)) ** 2
    kept = np.exp(-beta_sq) * sum(beta_sq**n / math.factorial(n) for n in range(probe.levels))
    assert 1.0 - kept > 1e-8
    assert np.vdot(final, final).real == pytest.approx(kept, abs=1e-14)


def test_first_order_residual_scales_quadratically(setup4):
    table, basis, probe, ham = setup4
    c = number_state(2).vector
    residuals = [first_order_residual(c, exact_state(c, ham, Pulse(T=T, g0=2.0))) for T in (0.02, 0.01, 0.005)]
    for i in range(2):
        assert 3.0 <= residuals[i] / residuals[i + 1] <= 5.0


_RESIDUAL_STATES = {
    "number": number_state(2).vector,
    "coherent": coherent_state(alpha_sq=0.4, n_cut=4, tail_tol=1e-3).vector,
    "superposition": np.array([0.0, 0.5, 0.5j, 0.0, np.sqrt(0.5)]),
}
# the longest is far from first order: a residual of up to 0.92
_RESIDUAL_PULSES = (Pulse(T=0.02, g0=2.0), Pulse(T=0.05, g0=0.8), Pulse(T=0.3, g0=1.5))


@pytest.mark.parametrize("K", [4, 6, 8])
def test_first_order_residual_matches_the_array_residual(K):
    # on the propagated rows, with D phi from `ham.D`, against the whole joint array minus the
    # oracle's first-order array, read from H0: the worst of these 81 cases is 2.1 eps relative
    table = build_overlap_table(K)
    eps = np.finfo(float).eps
    for levels in (3, 4, 5):
        ham = build_joint_hamiltonian(table, FockBasis(K, 4), ProbeParams(levels=levels))
        for c in _RESIDUAL_STATES.values():
            for pulse in _RESIDUAL_PULSES:
                final = exact_state(c, ham, pulse)
                expect = array_residual(c, final)
                assert abs(first_order_residual(c, final) - expect) <= 4 * eps * expect, (levels, pulse)


def test_left_right_swap_mirrors_the_block(setup4):
    table, basis, probe, ham = setup4
    # psi_k(0) negated flips every k + l odd entry: lambdaR becomes lambdaL and back
    swapped = OverlapTable(K=table.K, value=-table.value, slope=table.slope.copy())
    modes = np.arange(table.K)
    for side, other in ("LR", "RL"):
        assert np.array_equal(
            swapped.entries(side, modes[:, None], modes), table.entries(other, modes[:, None], modes)
        )
    c = number_state(2).vector
    pulse = Pulse(T=0.02, g0=1.0)
    ham_swapped = build_joint_hamiltonian(swapped, basis, probe)
    _, a10, _ = _branches(joint(exact_state(c, ham, pulse)))
    _, _, b01 = _branches(joint(exact_state(c, ham_swapped, pulse)))
    wa10 = float(np.vdot(a10, a10).real)
    wb01 = float(np.vdot(b01, b01).real)
    assert wa10 == pytest.approx(wb01, rel=1e-12)


def _relative_operator(ham, span, pulse):
    return (sp.diags(ham.h[span]) + pulse.g0 * ham.v[span, span]).tocsc()


def test_sampled_pulse_agrees_with_square(setup4):
    # oracle for the Chebyshev series: integrate the same square pulse step by step
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(1).vector, basis)
    pulse = Pulse(T=0.05, g0=1.0)
    span = slice(int(ham.edges[1]), int(ham.edges[2]))
    y = relative_initial(phi, ham, span)
    a = evolution._chebyshev_propagate(ham, span, pulse, y)
    H = _relative_operator(ham, span, pulse)
    sol = solve_ivp(
        lambda t, y: -1j * (H @ y),
        (0.0, pulse.T),
        y.astype(complex),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success
    overlap = abs(np.vdot(a, sol.y[:, -1]))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def _full_space_states(initial, ham, table, pulse):
    """Oracle: expm_multiply over the whole (trap, n_L, n_R) space, every sector at once.

    `initial` holds one flattened joint state per column.
    """
    A = ((-1j * pulse.T) * (sp.diags(ham.H0) + pulse.g0 * _full_coupling(ham, table))).tocsc()
    return _stepped_expm(A, initial, 8.0)


def _stepped_expm(A, psi, step_norm):
    """expm_multiply(A, psi) in equal steps whose matrices have a 1-norm of at most `step_norm`.

    expm_multiply's error grows with that norm: over 400 draws of a
    random-input property on the whole joint space it reached 6.4e-14 in
    one step, and 8.1e-15 in steps of 1-norm 8.
    """
    steps = max(1, int(np.ceil(sparse_norm(A, 1) / step_norm)))
    for _ in range(steps):
        psi = expm_multiply(A / steps, psi)
    return psi


# lowest-orbital vectors: `exact_state` takes any complex one, phases included
_ORACLE_STATES = {
    "vacuum": number_state(0).vector,
    "number": number_state(2).vector,
    "coherent": coherent_state(alpha_sq=0.4, n_cut=4, tail_tol=1e-3).vector,
    "superposition-0-2": np.array([0.6, 0.0, 0.8]),
    "superposition-1-2-4": np.array([0.0, 0.5, 0.5j, 0.0, np.sqrt(0.5)]),
}
_ORACLE_PULSES = (Pulse(T=0.05, g0=2.0), Pulse(T=0.3, g0=0.8))


@pytest.fixture(scope="module")
def full_space_10():
    """Per K = 1..6: the 10-level Hamiltonian, and the full-space oracle of every state and pulse."""
    out = {}
    for K in range(1, 7):
        basis, table = FockBasis(K, 4), build_overlap_table(K)
        ham = build_joint_hamiltonian(table, basis, ProbeParams(levels=10))
        phis = [to_fock_vector(c, basis) for c in _ORACLE_STATES.values()]
        initial = np.stack([embed_product(phi, ham.probe).reshape(-1) for phi in phis], axis=1)
        expected = [_full_space_states(initial, ham, table, pulse) for pulse in _ORACLE_PULSES]
        out[K] = ham, dict(zip(_ORACLE_STATES, zip(_ORACLE_STATES.values(), zip(*(e.T for e in expected)))))
    return out


@pytest.mark.parametrize("state", list(_ORACLE_STATES))
def test_sector_propagation_matches_full_space(state, full_space_10):
    # both at 10 levels, where neither the L/R probes' truncation nor that of the
    # relative mode moves the |00> amplitudes or the single-excitation branches;
    # K = 1 has only even trap states, K >= 2 mixes both parities in a sector
    for K, (ham, cases) in full_space_10.items():
        c, expected = cases[state]
        phi = to_fock_vector(c, ham.basis)
        for pulse, expect in zip(_ORACLE_PULSES, expected):
            got = joint(exact_state(c, ham, pulse))
            expect = expect.reshape(got.shape)
            for a, b in zip(_branches(got), (expect[:, 0, 0], expect[:, 1, 0], expect[:, 0, 1])):
                assert np.abs(a - b).max() <= 1e-14, (K, pulse)
            # sectors the state does not occupy stay exactly zero
            for sector in ham.basis.sectors():
                if not phi[sector].any():
                    assert not got[sector].any()


@pytest.mark.parametrize(
    "N, g0, T, M, Omega",
    [(1, 2.0, 0.05, 1.0, 1.0), (4, 0.8, 0.3, 1.0, 1.0), (4, 2.0, 2.0, 1.0, 1.0), (2, 1.5, 7.0, 0.7, 1.3)],
)
def test_centre_of_mass_mode_is_the_driven_oscillator(N, g0, T, M, Omega):
    # beta_N and theta_N against expm_multiply of Omega b^dag b + i c_N (b^dag - b) from |0>,
    # truncated far past |beta_N|^2 <= (2 c_N / Omega)^2
    probe = ProbeParams(M=M, Omega=Omega, levels=10)
    got = evolution._centre_of_mass(np.array([N]), probe, Pulse(T=T, g0=g0))[0]
    c = g0 * N * np.sqrt(M * Omega / 4.0)
    size = int(2.0 * (2.0 * c / Omega) ** 2) + 60
    b = sp.csr_matrix(probe_lowering(size))
    H = Omega * (b.T @ b) + 1j * c * (b.T - b)
    expect = _stepped_expm((-1j * T * H).tocsc(), np.eye(size)[0].astype(complex), 8.0)
    assert np.abs(got - expect[:10]).max() <= 1e-13
    # the whole coherent state: no weight lies past the truncation
    assert np.linalg.norm(expect[size - 10 :]) < 1e-15


@pytest.mark.parametrize("K, levels", [(1, 2), (3, 3), (4, 4)])
def test_mirror_sectors_reduce_the_full_operators(K, levels):
    basis, table = FockBasis(K, 4), build_overlap_table(K)
    probe = ProbeParams(levels=levels)
    ham = build_joint_hamiltonian(table, basis, probe)
    # H_0 against its loop over the occupation tuples: half-integer sums, so equal exactly
    h0 = [
        sum((k + 0.5) * n for k, n in enumerate(occ)) + (a + 0.5) + (b + 0.5)
        for occ in basis.states
        for a in range(levels)
        for b in range(levels)
    ]
    assert np.array_equal(ham.H0, h0)
    d = levels
    parity = basis.states @ np.arange(K) % 2
    # the mirror-even half keeps the relative levels of the trap state's parity
    even = [t * d + m for t in range(basis.dimension) for m in range(d) if (m - parity[t]) % 2 == 0]
    assert np.array_equal(ham.even, even)
    t, m = np.divmod(ham.even, d)
    assert np.array_equal(ham.h, ham.H0.reshape(-1, d, d)[t, 0, m])
    assert ham.h.dtype == ham.v.dtype == ham.radius.dtype == np.float64
    # v is (Lambda_L - Lambda_R) P_- / sqrt 2, with P_- in the frame |m> -> i^m |m>, where it is real
    frame = np.diag(np.array([1, 1j, -1, -1j])[np.arange(d) % 4])
    P = frame.conj().T @ probe_momentum(probe) @ frame
    assert np.abs(P.imag).max() == 0.0
    lamL, lamR = lambda_pair(table, basis)
    full = sp.kron(lamL - lamR, sp.csr_matrix(P.real / np.sqrt(2.0))).tocsr()
    assert abs(full[ham.even][:, ham.even] - ham.v).max() <= 1e-15
    # the even half is closed under v: none of its rows reaches an odd state
    assert full[ham.even].nnz == full[ham.even][:, ham.even].nnz
    for N, span in enumerate(basis.sectors()):
        e = slice(ham.edges[N], ham.edges[N + 1])
        assert np.array_equal(ham.even[e] // d, np.repeat(np.arange(span.start, span.stop), np.bincount(t)[span]))
        assert ham.v[e].nnz == ham.v[e, e].nnz
    # v holds H_0's diagonal as explicit zeros at `diag`, and `radius` its |v| row sums
    n = ham.h.size
    assert np.array_equal(ham.v.indices[ham.diag], np.arange(n))
    assert np.array_equal(np.searchsorted(ham.v.indptr, ham.diag, side="right") - 1, np.arange(n))
    assert not ham.v.data[ham.diag].any()
    assert np.abs(ham.radius - abs(ham.v).sum(axis=1).A1).max() <= 1e-14
    # an even trap state keeps ceil(d / 2) relative levels, an odd one floor(d / 2)
    n_even = int(np.count_nonzero(parity == 0))
    assert ham.edges[0] == 0
    assert ham.edges[-1] == n_even * ((d + 1) // 2) + (parity.size - n_even) * (d // 2) == n


def _reference_build(table, basis, probe):
    """Oracle: the former build of `build_joint_hamiltonian`.

    It builds Lambda_L and Lambda_R, subtracts them, forms every product of
    an entry of the difference with one of P_- / sqrt 2 in COO form, keeps
    the rows of the mirror-even half and lets `tocsr` sort the entries.
    """
    d = probe.levels
    lamL, lamR = lambda_pair(table, basis)
    h_trap = basis.states @ (np.arange(basis.K) + 0.5)
    h_probe = (np.arange(d) + 0.5) * probe.Omega
    H0 = sp.diags((h_trap[:, None, None] + h_probe[:, None] + h_probe).ravel()).tocsr()
    parity = basis.states @ np.arange(basis.K) % 2
    even = np.flatnonzero((np.arange(d) - parity[:, None]) % 2 == 0)
    n = even.size
    h = ((h_trap[:, None] + h_probe[0]) + h_probe).ravel()[even]
    lam = (lamL - lamR).tocoo()
    low = probe_lowering(d)
    quad = np.sqrt(probe.M * probe.Omega / 4.0) * (low + low.T)
    i, j = np.nonzero(quad)
    rows = (lam.row[:, None] * d + i).ravel()
    cols = (lam.col[:, None] * d + j).ravel()
    vals = (lam.data[:, None] * quad[i, j]).ravel()
    index = np.full(basis.dimension * d, -1)
    index[even] = np.arange(n)
    kept = index[rows] >= 0
    at = np.arange(n)
    v = sp.csr_matrix(
        (
            np.concatenate((vals[kept], np.zeros(n))),
            (np.concatenate((index[rows[kept]], at)), np.concatenate((index[cols[kept]], at))),
        ),
        shape=(n, n),
    )
    row_of = np.repeat(at, np.diff(v.indptr))
    diag = np.flatnonzero(v.indices == row_of)
    radius = np.add.reduceat(np.abs(v.data), v.indptr[:-1])
    edges = np.searchsorted(even, [span.start * d for span in basis.sectors()] + [basis.dimension * d])
    return {"H0": H0.diagonal(), "even": even, "edges": edges, "h": h, "v": v, "diag": diag, "radius": radius}


@pytest.mark.parametrize("K", range(1, 9))
def test_joint_hamiltonian_matches_the_two_lambda_build_bit_for_bit(K):
    # odd and even level counts: an odd d gives the two trap parities different row counts
    table = build_overlap_table(K)
    for n_max in range(5):
        basis = FockBasis(K, n_max)
        for levels in range(2, 6):
            probe = ProbeParams(M=0.7, Omega=1.3, levels=levels)
            ham = build_joint_hamiltonian(table, basis, probe)
            ref = _reference_build(table, basis, probe)
            for attr in ("data", "indices", "indptr"):
                got, expect = getattr(ham.v, attr), getattr(ref["v"], attr)
                assert got.dtype == expect.dtype and np.array_equal(got, expect), (n_max, levels, attr)
            for name in ("H0", "even", "edges", "h", "diag", "radius"):
                assert np.array_equal(getattr(ham, name), ref[name]), (n_max, levels, name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(K=st.integers(1, 8), n_max=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_coupling_weight_is_the_lambda_pair_weight_on_random_states(K, n_max, seed):
    # (|N phi|^2 + |D phi|^2) / 2 against |Lambda_L phi|^2 + |Lambda_R phi|^2, for random
    # complex amplitudes c_n of phi = sum_n c_n |n, 0, ..., 0> up to a random cutoff
    table, basis = build_overlap_table(K), FockBasis(K, n_max)
    ham = build_joint_hamiltonian(table, basis, ProbeParams(levels=2))
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, n_max + 2))
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    vL, vR = (lam @ to_fock_vector(c, basis) for lam in lambda_pair(table, basis))
    expect = float(np.vdot(vL, vL).real) + float(np.vdot(vR, vR).real)
    assert abs(ham.coupling_weight(c) - expect) <= 1e-14 * expect


def test_basis_constants_are_the_per_state_values():
    basis = FockBasis(8, 4)
    probe = ProbeParams(levels=4)
    ham = build_joint_hamiltonian(build_overlap_table(8), basis, probe)
    assert np.array_equal(ham.number, basis.states.sum(axis=1))
    # the sector and relative level of each kept row
    t, m = np.divmod(ham.even, probe.levels)
    assert np.array_equal(ham.cell, basis.states[t].sum(axis=1) * probe.levels + m)
    # the centre-of-mass mode per sector, indexed by N, has the bits of its per-state form
    for pulse in (Pulse(T=0.05, g0=2.0), Pulse(T=7.0, g0=1.5)):
        per_state = evolution._centre_of_mass(basis.states.sum(axis=1), probe, pulse)
        per_sector = evolution._centre_of_mass(np.arange(basis.n_max + 1), probe, pulse)[ham.number]
        assert np.array_equal(per_sector, per_state)


def test_mirror_halves_the_exact_sweep_sectors():
    ham = build_joint_hamiltonian(build_overlap_table(8), FockBasis(8, 4), ProbeParams(levels=4))
    assert np.diff(ham.edges).tolist() == [2, 16, 72, 240, 660]
    assert ham.H0.shape[0] == 7920


@pytest.mark.parametrize("K", range(1, 9))
def test_origin_is_the_level_0_row_of_each_lowest_orbital_state(K):
    # origin[n] is the kept row (t, 0) of the trap state t = |n, 0, ..., 0>, at odd and even level counts
    basis = FockBasis(K, 4)
    table = build_overlap_table(K)
    for levels in range(2, 7):
        ham = build_joint_hamiltonian(table, basis, ProbeParams(levels=levels))
        lowest = [np.flatnonzero((basis.states == [n] + [0] * (K - 1)).all(axis=1))[0] for n in range(5)]
        assert ham.origin.tolist() == [int(np.flatnonzero(ham.even == t * levels)[0]) for t in lowest]
        assert ham.origin.dtype.kind == "i"


def test_cutoff_past_n_max_is_refused(setup4):
    # amplitudes up to n = n_max are accepted, even if the last ones are zero
    _, basis, probe, ham = setup4
    pulse = Pulse(T=0.05, g0=1.0)
    exact_state(np.array([0.6, 0.8] + [0.0] * (basis.n_max - 1)), ham, pulse)
    with pytest.raises(ValueError, match=f"state cutoff {basis.n_max + 1} exceeds basis capacity {basis.n_max}"):
        exact_state(np.array([0.6, 0.8] + [0.0] * basis.n_max), ham, pulse)
    # the pulse weight refuses it alike
    with pytest.raises(ValueError, match=f"state cutoff {basis.n_max + 1} exceeds basis capacity {basis.n_max}"):
        ham.coupling_weight(np.array([0.6, 0.8] + [0.0] * basis.n_max))


def test_empty_state_propagates_to_zeros(setup4):
    _, basis, probe, ham = setup4
    out = exact_state(np.zeros(basis.n_max + 1), ham, Pulse(T=0.05, g0=1.0))
    assert out.weights.shape == (basis.n_max + 1, probe.levels)
    assert not out.weights.any()
    array = joint(out)
    assert array.shape == (basis.dimension, probe.levels, probe.levels)
    assert not array.any()


def test_tiny_norm_tolerance_raises_drift_error(setup4, monkeypatch):
    table, basis, probe, ham = setup4
    c = superposition_state(np.array([0.6, 0.0, 0.8])).vector
    # a long strong pulse: a series of about 650 terms, a drift of about 1e-15
    pulse = Pulse(T=40.0, g0=3.0)
    exact_state(c, ham, pulse)
    monkeypatch.setattr(evolution, "_NORM_TOL", 1e-17)
    with pytest.raises(IntegratorDriftError):
        exact_state(c, ham, pulse)


_coefficients = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).filter(lambda raw: np.linalg.norm(raw) > 1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_relative_mode_series_matches_expm_multiply_on_random_inputs(data):
    raw = data.draw(_coefficients)
    K = data.draw(st.integers(1, 6))
    basis = FockBasis(K, data.draw(st.integers(len(raw) - 1, 4)))
    probe = ProbeParams(levels=data.draw(st.integers(2, 4)))
    pulse = Pulse(T=data.draw(st.floats(0.01, 2.0)), g0=data.draw(st.floats(0.0, 10.0)))
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe)
    phi = to_fock_vector(np.array(raw) / np.linalg.norm(raw), basis)
    # the range of sectors `exact_state` propagates for this phi
    lo, hi = basis.states[np.flatnonzero(phi)[[0, -1]]].sum(axis=1)
    span = slice(int(ham.edges[lo]), int(ham.edges[hi + 1]))
    y = relative_initial(phi, ham, span)
    got = evolution._chebyshev_propagate(ham, span, pulse, y)
    expect = _stepped_expm((-1j * pulse.T) * _relative_operator(ham, span, pulse), y, 8.0)
    assert np.abs(got - expect).max() <= 1e-14


def _weights(joint):
    """|00> weight, L and R branch weights and the coherence <R|L> of a (trap, n_+, n_-) array."""
    ground, left, right = _branches(joint)
    return np.array([np.vdot(ground, ground), np.vdot(left, left), np.vdot(right, right), np.vdot(right, left)])


_populations = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5).filter(lambda p: sum(p[1:]) > 1e-3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mixture_evolves_as_its_square_root_vector(data):
    # H conserves N, so the block of sum_n sqrt(p_n) |n> is the p_n-weighted sum of
    # the per-number-state branch weights
    p = np.array(data.draw(_populations))
    p /= p.sum()
    K = data.draw(st.integers(1, 6))
    basis = FockBasis(K, data.draw(st.integers(len(p) - 1, 4)))
    probe = ProbeParams(levels=data.draw(st.integers(2, 4)))
    pulse = Pulse(T=data.draw(st.floats(0.01, 2.0)), g0=data.draw(st.floats(0.1, 10.0)))
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe)
    mixture = TrapState("thermal", populations=p)
    norm_sq = mixture.norm_sq()
    final = exact_state(mixture.vector, ham, pulse)
    block = postselect_sectors(final.weights, final.beta_sq, norm_sq)
    w00, w10, w01, coh = sum(
        pn * _weights(joint(exact_state(np.eye(1, n + 1, n)[0], ham, pulse)))
        for n, pn in enumerate(p)
    )
    rho = np.array([[w10, coh], [np.conj(coh), w01]]) / (w10 + w01).real
    # the worst of 400 draws: 5.6e-16 in rho, 1.0e-15 in p_succ and 1.1e-15 in leakage
    assert np.abs(block.matrix - rho).max() <= 2e-15
    assert abs(block.p_succ - (norm_sq - w00.real) / norm_sq) <= 5e-15
    assert abs(block.leakage - (norm_sq - w00 - w10 - w01).real / norm_sq) <= 5e-15


def test_a_phase_on_one_sector_leaves_the_exact_block_alone(setup4):
    # `exact_state` takes any complex amplitudes, phases included: H conserves N,
    # so a phase on the N = 2 sector cancels in every block sum
    _, basis, _, ham = setup4
    pulse = Pulse(T=0.3, g0=0.8)
    finals = (exact_state(np.array(c), ham, pulse) for c in ([0.6, 0.0, 0.8], [0.6, 0.0, 0.8j]))
    plain, phased = (postselect_sectors(f.weights, f.beta_sq, 1.0) for f in finals)
    assert np.abs(phased.matrix - plain.matrix).max() <= 1e-15
    assert abs(phased.p_succ - plain.p_succ) <= 1e-15
    assert abs(phased.leakage - plain.leakage) <= 1e-15


def _numpy_bessel_series(z):
    """Oracle: `_bessel_series` with its Miller recurrence run on a numpy array, as it was."""
    if z == 0.0:
        return np.array([1.0, 0.0])
    top = int(2.0 * z) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2.0 * k / z) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1 :] *= 1e-250
    j /= j[0] + 2.0 * j[2::2].sum()
    k = np.arange(top + 2)
    return j[: np.flatnonzero((k > max(z, 1.0)) & (2.0 * np.abs(j) < evolution._SERIES_TOL / 4))[0]]


# 1e-9 and 1e-3 rescale the recurrence on its way down
@pytest.mark.parametrize("z", [0.0, 1e-9, 1e-3, 0.5, 5.0, 50.0, 700.0])
def test_bessel_series_matches_scipy(z):
    J = evolution._bessel_series(z)
    # the recurrence on Python floats rounds as numpy's float64 does
    assert J.tobytes() == _numpy_bessel_series(z).tobytes()
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
    # all of h at one energy and no coupling: the spectral interval has r = 0,
    # and the propagator is the phase exp(-i T c) with no series
    _, basis, probe, ham = setup4
    flat = dataclasses.replace(ham, h=np.full_like(ham.h, 2.5))
    c = np.array([0.6, 0.0, 0.8j])
    got = joint(exact_state(c, flat, Pulse(T=0.7, g0=0.0)))
    assert np.abs(got - np.exp(-1.75j) * embed_product(to_fock_vector(c, basis), probe)).max() <= 1e-15


def _hermite_top_zero(d):
    """||b + b^T|| on d levels, from the eigensolver that `_one_body_scale` does without."""
    low = probe_lowering(d)
    return float(np.linalg.eigvalsh(low + low.T).max())


@pytest.mark.parametrize("d", [*range(2, 13), 64, 300])
def test_one_body_scale_bounds_the_quadrature_norm_from_above(d):
    # at M = 4, Omega = 1 the scale is x_d raised by the margin: never below the norm, and
    # above it by no more than the margin and the rounding of the last Newton step
    x = _hermite_top_zero(d)
    scale = evolution._one_body_scale(ProbeParams(M=4.0, Omega=1.0, levels=d))
    assert x <= scale <= x * (1.0 + 2.0 * evolution._BOUND_MARGIN)


@pytest.mark.parametrize("M, Omega", [(1.0, 1.0), (0.7, 2.9)])
@pytest.mark.parametrize("K", range(1, 9))
def test_one_body_bound_holds_on_every_sector(K, M, Omega):
    # ||v_N|| <= N sqrt(M Omega / 4) x_d, dense over each sector, with x_d from the eigensolver
    # and no margin; the stored per-row `bound` is that value raised by the margin
    table, basis = build_overlap_table(K), FockBasis(K, 3)
    for levels in range(2, 7):
        probe = ProbeParams(M=M, Omega=Omega, levels=levels)
        ham = build_joint_hamiltonian(table, basis, probe)
        scale = np.sqrt(M * Omega / 4.0) * _hermite_top_zero(levels)
        for N in range(basis.n_max + 1):
            e = slice(ham.edges[N], ham.edges[N + 1])
            top = np.abs(np.linalg.eigvalsh(ham.v[e, e].toarray())).max()
            assert top <= N * scale, (levels, N)
            assert np.all(N * scale <= ham.bound[e])
            assert np.all(ham.bound[e] <= N * scale * (1.0 + 2.0 * evolution._BOUND_MARGIN))


def _reference_propagate(ham, span, pulse, y, reaches):
    """Oracle: the Chebyshev propagator on the intersection of the intervals h -+ |g0| reach[span].

    With `reaches = (ham.radius,)` it is the former propagator, sized by the
    Gershgorin hull alone. It forms the intervals of T H, from T h and
    |area| reach, builds its block afresh on every call and sums each term
    through a new array. Returns the state and the series' length.
    """
    th, g = pulse.T * ham.h[span], abs(pulse.area)
    bottom = max(float((th - g * reach[span]).min()) for reach in reaches)
    top = min(float((th + g * reach[span]).max()) for reach in reaches)
    c, z = (top + bottom) / 2.0, (top - bottom) / 2.0
    phase = np.exp(-1j * c)
    if z == 0.0:
        return phase * y, 0
    parts = [(u, part) for u, part in ((1.0, y.real), (1.0j, y.imag)) if part.any()]
    X2 = evolution._block(ham.v, span, span)
    X2.data = (2.0 * pulse.area / z) * X2.data
    X2.data[ham.diag[span] - ham.v.indptr[span.start]] = (2.0 / z) * (th - c)
    coef = 2.0 * _numpy_bessel_series(z)
    coef[0] /= 2.0
    coef *= np.resize([1.0, -1.0, -1.0, 1.0], coef.size)
    out = np.zeros(y.shape, dtype=np.complex128)
    for unit, part in parts:
        prev, cur = part, 0.5 * (X2 @ part)
        sums = [coef[0] * prev, coef[1] * cur]
        for k in range(2, coef.size):
            nxt = X2 @ cur
            nxt -= prev
            prev, cur = cur, nxt
            sums[k % 2] += coef[k] * cur
        out += unit * (sums[0] + 1j * sums[1])
    return phase * out, coef.size


def _propagation_cases():
    """Seeded (Hamiltonian, span, pulse, y): K 1-8, 2-5 levels, complex y on random sector ranges."""
    rng = np.random.default_rng(11)
    for K in (1, 2, 4, 6, 8):
        table = build_overlap_table(K)
        for levels in range(2, 6):
            ham = build_joint_hamiltonian(table, FockBasis(K, 3), ProbeParams(M=0.7, Omega=1.3, levels=levels))
            for _ in range(8):
                lo = int(rng.integers(0, 4))
                hi = int(rng.integers(lo, 4))
                span = slice(int(ham.edges[lo]), int(ham.edges[hi + 1]))
                y = rng.normal(size=span.stop - span.start) + 1j * rng.normal(size=span.stop - span.start)
                if rng.random() < 0.3:
                    y = y.real + 0j  # one part only, as `exact_state` hands over
                pulse = Pulse(T=float(rng.uniform(0.01, 3.0)), g0=float(rng.uniform(-10.0, 10.0)))
                yield ham, span, pulse, y / np.linalg.norm(y)


def _array_bytes(ham):
    """Every array the Hamiltonian holds, v's three included, as (name, dtype, bytes)."""
    arrays = {f.name: getattr(ham, f.name) for f in dataclasses.fields(ham)}
    for sparse in ("D", "v"):
        m = arrays.pop(sparse)
        arrays.update({f"{sparse}.{a}": getattr(m, a) for a in ("data", "indices", "indptr")})
    return [(k, a.dtype, a.tobytes()) for k, a in arrays.items() if isinstance(a, np.ndarray)]


def test_propagator_steps_move_no_bit_and_keep_one_block():
    # on the same interval the propagator is the oracle bit for bit, on every call: it slices
    # its own block each time and leaves every array of the Hamiltonian, and its attributes, alone
    for ham, span, pulse, y in _propagation_cases():
        before, attrs = _array_bytes(ham), dict(vars(ham))
        expect, _ = _reference_propagate(ham, span, pulse, y, (ham.radius, ham.bound))
        for _ in range(2):
            got = evolution._chebyshev_propagate(ham, span, pulse, y)
            assert got.tobytes() == expect.tobytes()
        assert _array_bytes(ham) == before
        assert vars(ham).keys() == attrs.keys() and all(vars(ham)[k] is v for k, v in attrs.items())


def test_one_body_interval_matches_the_gershgorin_propagator():
    # intersecting the Gershgorin hull with the one-body interval never lengthens the
    # series; the state moves from the Gershgorin-only one by at most the measured gap
    fewer, gap = 0, 0.0
    for ham, span, pulse, y in _propagation_cases():
        got, terms = _reference_propagate(ham, span, pulse, y, (ham.radius, ham.bound))
        expect, before = _reference_propagate(ham, span, pulse, y, (ham.radius,))
        assert terms <= before
        fewer += terms < before
        gap = max(gap, float(np.abs(got - expect).max()))
    # 94 of these 160 cases take fewer terms; the worst gap of the 160 is 1.5e-15
    assert fewer > 0
    assert gap <= 4e-15


def _factored_cases():
    """accept's oracle states as their vectors, and complex-phase superpositions handed over directly."""
    rng = np.random.default_rng(7)
    vectors = [state.vector for state in _accept_oracle_states(1)]
    for size in (2, 3, 5):
        raw = rng.normal(size=size) + 1j * rng.normal(size=size)
        vectors.append(raw / np.linalg.norm(raw))
    vectors.append(np.array([0.0, 0.6, 0.0, 0.8j]))
    return vectors


# exact-sweep's shape at K = 8, a sector-mixing strong pulse, odd and even level counts
_FACTORED_SETUPS = [
    (8, 4, 4, Pulse(T=0.05, g0=2.0)),
    (6, 4, 3, Pulse(T=0.3, g0=0.8)),
    (4, 3, 5, Pulse(T=2.0, g0=1.5)),
    (1, 2, 2, Pulse(T=0.05, g0=2.0)),
]


# worst cases over these setups: cell weights 2.0 eps of the total, the block and mu 1.7e-16,
# p_succ 2.6 eps and leakage 4.3 eps relative (`postselect` on the array: 2.3e-13 and 9.7e-11)
_WEIGHT_TOL = 4 * np.finfo(float).eps
_BLOCK_TOL = 4e-16
_SUMS_RTOL = 8 * np.finfo(float).eps


@pytest.mark.parametrize("K, n_max, levels, pulse", _FACTORED_SETUPS)
def test_factored_block_matches_the_joint_array_route(K, n_max, levels, pulse):
    # the oracle's `joint` forms the former joint array bit for bit, signed zeros included.
    # Post-selected from the sector-by-level weights, the block matches `postselect` on that
    # array, and p_succ and leakage match the positive-term oracle, each within the measured
    # worst case
    ham = build_joint_hamiltonian(build_overlap_table(K), FockBasis(K, n_max), ProbeParams(levels=levels))
    compared = 0
    for coeffs in _factored_cases():
        if len(coeffs) - 1 > n_max:
            continue
        phi = to_fock_vector(coeffs, ham.basis)
        final = exact_state(coeffs, ham, pulse)
        plus, relative = joint_array_route(phi, ham, pulse)
        expect = plus[:, :, None] * relative[:, None, :]
        assert joint(final).tobytes() == expect.tobytes()
        cells = sector_level_weights(relative, ham)
        assert np.abs(final.weights - cells).max() <= _WEIGHT_TOL * cells.sum()
        norm_sq = float(np.vdot(coeffs, coeffs).real)
        try:
            ref = postselect(expect, norm_sq)
        except NoExtractionError:  # the vacuum: nothing to select on either route
            with pytest.raises(NoExtractionError):
                postselect_sectors(final.weights, final.beta_sq, norm_sq)
            continue
        got = postselect_sectors(final.weights, final.beta_sq, norm_sq)
        assert np.abs(got.matrix - ref.matrix).max() <= _BLOCK_TOL
        assert abs(block_negativity(got) - block_negativity(ref)) <= _BLOCK_TOL
        selected, leaked = selected_and_leaked(plus, relative, ham, pulse)
        assert abs(got.p_succ - selected / norm_sq) <= _SUMS_RTOL * got.p_succ
        assert abs(got.leakage - leaked / norm_sq) <= _SUMS_RTOL * got.leakage
        compared += 1
    assert compared >= 4


@pytest.mark.parametrize("K, n_max, levels, pulse", _FACTORED_SETUPS)
def test_an_ulp_of_amplitude_moves_p_succ_and_leakage_a_few_eps(K, n_max, levels, pulse):
    # both are sums of positive terms, so moving g0 by one ulp moves them by their own
    # sensitivity plus round-off: at most 5.8 eps (p_succ) and 9.1 eps (leakage) relative
    # over these cases, where the differences norm_sq - w00 - ... moved them by up to 1253 eps
    ham = build_joint_hamiltonian(build_overlap_table(K), FockBasis(K, n_max), ProbeParams(levels=levels))
    moved = Pulse(T=pulse.T, g0=float(np.nextafter(pulse.g0, np.inf)))
    eps = np.finfo(float).eps
    for coeffs in _factored_cases():
        if len(coeffs) - 1 > n_max or not coeffs[1:].any():
            continue
        norm_sq = float(np.vdot(coeffs, coeffs).real)
        a, b = (
            postselect_sectors(f.weights, f.beta_sq, norm_sq)
            for f in (exact_state(coeffs, ham, p) for p in (pulse, moved))
        )
        assert abs(b.p_succ - a.p_succ) <= 7 * eps * a.p_succ
        assert abs(b.leakage - a.leakage) <= 11 * eps * a.leakage


@pytest.mark.parametrize("K", range(1, 9))
def test_column_weights_are_the_lowest_orbital_states_imbalance_weights(K):
    # ||D |n, 0, ..., 0>||^2 from the vector over the basis: 117 of the 120 cases agree bit
    # for bit, and 3 differ by one ulp, the order of the sums of squares
    table = build_overlap_table(K)
    for n_max in range(5):
        ham = build_joint_hamiltonian(table, FockBasis(K, n_max), ProbeParams(levels=2))
        assert ham.column.shape == (n_max + 1,)
        for n in range(n_max + 1):
            d_phi = ham.D @ to_fock_vector(np.eye(1, n + 1, n)[0], ham.basis)
            expect = float(np.vdot(d_phi, d_phi).real)
            assert abs(ham.column[n] - expect) <= np.spacing(expect)


def test_pulses_of_one_area_too_short_for_h0_propagate_alike(setup4):
    # the series is sized and scaled from T h and the area, so once T h stops registering
    # against the coupling, every pulse of one area leaves the same weights, bit for bit.
    # Sized from T and g0 apart, 5 of these 16 pulse lengths moved the block
    _, basis, _, ham = setup4
    c = superposition_state(np.array([0.6, 0.0, 0.8])).vector
    pulses = [Pulse(T=10.0**-k, g0=0.3 / 10.0**-k) for k in range(150, 301, 10)]
    assert all(p.area == pulses[0].area for p in pulses)
    finals = [exact_state(c, ham, p) for p in pulses]
    for f in finals[1:]:
        assert f.weights.tobytes() == finals[0].weights.tobytes()
