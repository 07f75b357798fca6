"""Pulse dynamics: first-order model against the full propagator.

`exact_state` works in the probes' centre-of-mass and relative levels
(n_+, n_-); the oracles here propagate the probes' own levels (n_L, n_R)
on the whole joint space, or each mode's Hamiltonian on its own.
"""

import dataclasses
import math
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
)
from halftrap.fock import FockBasis, build_lambda_operator, to_fock_vector
from halftrap.measurement import postselect
from halftrap.moments import moments_from_fock
from halftrap.orbitals import OverlapTable, build_overlap_table
from halftrap.states import (
    TrapState,
    coherent_state,
    number_state,
    superposition_state,
)

@pytest.fixture(scope="module")
def table4():
    return build_overlap_table(4)


def probe_momentum(probe: ProbeParams) -> np.ndarray:
    """P = i sqrt(M Omega / 2) (b^dag - b) on the truncated probe space."""
    b = probe_lowering(probe.levels)
    return 1j * np.sqrt(probe.M * probe.Omega / 2.0) * (b.T - b)


def _lambda_pair(table, basis):
    return tuple(build_lambda_operator(side, table, basis) for side in "LR")


def _full_coupling(ham, table):
    """V = Lambda_L P_L + Lambda_R P_R on the whole flattened (trap, n_L, n_R) space."""
    lamL, lamR = _lambda_pair(table, ham.basis)
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
    phi = to_fock_vector(number_state(0).vector, basis)
    out = perturbative_state(phi, ham, Pulse.square(T=0.1, g0=0.5))
    assert np.all(out[:, 1, 0] == 0.0)
    assert np.all(out[:, 0, 1] == 0.0)


def test_branch_weight_matches_moments(setup4):
    # |branch|^2 = area^2 (M Omega / 2) m_II with the same truncation
    table, basis, probe, ham = setup4
    state = number_state(2)
    phi = to_fock_vector(state.vector, basis)
    pulse = Pulse.square(T=0.1, g0=0.4)
    _, left, right = _branches(perturbative_state(phi, ham, pulse))
    mom = moments_from_fock(state, basis, *_lambda_pair(table, basis))
    scale = pulse.area**2 * probe.M * probe.Omega / 2.0
    w10 = float(np.vdot(left, left).real)
    w01 = float(np.vdot(right, right).real)
    assert w10 == pytest.approx(scale * mom.mLL, rel=1e-12)
    assert w01 == pytest.approx(scale * mom.mRR, rel=1e-12)


def test_free_term_only_touches_ground_branch(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(2).vector, basis)
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
        superposition_state(np.array([0.6, 0.0, 0.8])).vector, basis
    )
    initial = embed_product(phi, probe)
    final = exact_state(phi, ham, Pulse.square(T=0.3, g0=0.0))
    # phases only: every amplitude keeps its magnitude, branches stay empty
    assert np.allclose(
        np.abs(final[:, 0, 0]), np.abs(initial[:, 0, 0]), atol=1e-12
    )
    assert np.abs(final[:, 1, 0]).max() < 1e-14
    assert np.abs(final[:, 0, 1]).max() < 1e-14


def test_exact_evolution_is_unitary(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(2).vector, basis)
    T, g0 = 0.2, 0.8
    final = exact_state(phi, ham, Pulse.square(T=T, g0=g0))
    # the array holds the + mode's first levels only: of the Poisson weights of
    # |beta|^2 = (2 c / Omega)^2 sin^2(Omega T / 2), c = g0 N sqrt(M Omega / 4), the first four
    beta_sq = (2.0 * g0 * 2 * 0.5 * np.sin(T / 2.0)) ** 2
    kept = np.exp(-beta_sq) * sum(beta_sq**n / math.factorial(n) for n in range(probe.levels))
    assert 1.0 - kept > 1e-8
    assert np.vdot(final, final).real == pytest.approx(kept, abs=1e-14)


def test_first_order_residual_scales_quadratically(setup4):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(2).vector, basis)
    residuals = []
    for T in (0.02, 0.01, 0.005):
        pulse = Pulse.square(T=T, g0=2.0)
        final = exact_state(phi, ham, pulse)
        model = perturbative_state(phi, ham, pulse)
        diff = final.reshape(-1) - model.reshape(-1)
        residuals.append(float(np.sqrt(np.vdot(diff, diff).real)))
    for i in range(2):
        assert 3.0 <= residuals[i] / residuals[i + 1] <= 5.0


def test_left_right_swap_mirrors_the_block(setup4):
    table, basis, probe, ham = setup4
    # psi_k(0) negated flips every k + l odd entry: lambdaR becomes lambdaL and back
    swapped = OverlapTable(K=table.K, value=-table.value, slope=table.slope.copy())
    modes = np.arange(table.K)
    for side, other in ("LR", "RL"):
        assert np.array_equal(
            swapped.entries(side, modes[:, None], modes), table.entries(other, modes[:, None], modes)
        )
    phi = to_fock_vector(number_state(2).vector, basis)
    pulse = Pulse.square(T=0.02, g0=1.0)
    ham_swapped = build_joint_hamiltonian(swapped, basis, probe)
    _, a10, _ = _branches(exact_state(phi, ham, pulse))
    _, _, b01 = _branches(exact_state(phi, ham_swapped, pulse))
    wa10 = float(np.vdot(a10, a10).real)
    wb01 = float(np.vdot(b01, b01).real)
    assert wa10 == pytest.approx(wb01, rel=1e-12)


def _relative_initial(phi, ham, span):
    """phi on the relative mode's ground level, as a vector over the range `span` of its even half."""
    rows = ham.even[span]
    d = ham.probe.levels
    return np.where(rows % d == 0, phi[rows // d], 0.0)


def _relative_operator(ham, span, pulse):
    return (sp.diags(ham.h[span]) + pulse.g0 * ham.v[span, span]).tocsc()


def test_sampled_pulse_agrees_with_square(setup4):
    # oracle for the Chebyshev series: integrate the same square pulse step by step
    table, basis, probe, ham = setup4
    phi = to_fock_vector(number_state(1).vector, basis)
    pulse = Pulse.square(T=0.05, g0=1.0)
    span = slice(int(ham.edges[1]), int(ham.edges[2]))
    y = _relative_initial(phi, ham, span)
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
_ORACLE_PULSES = (Pulse.square(T=0.05, g0=2.0), Pulse.square(T=0.3, g0=0.8))


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
        out[K] = ham, dict(zip(_ORACLE_STATES, zip(phis, zip(*(e.T for e in expected)))))
    return out


@pytest.mark.parametrize("state", list(_ORACLE_STATES))
def test_sector_propagation_matches_full_space(state, full_space_10):
    # both at 10 levels, where neither the L/R probes' truncation nor that of the
    # relative mode moves the |00> amplitudes or the single-excitation branches;
    # K = 1 has only even trap states, K >= 2 mixes both parities in a sector
    for K, (ham, cases) in full_space_10.items():
        phi, expected = cases[state]
        for pulse, expect in zip(_ORACLE_PULSES, expected):
            got = exact_state(phi, ham, pulse)
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
    got = evolution._centre_of_mass(np.array([N]), probe, Pulse.square(T=T, g0=g0))[0]
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
    lamL, lamR = _lambda_pair(table, basis)
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
    lamL, lamR = _lambda_pair(table, basis)
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
    # (|N phi|^2 + |D phi|^2) / 2 against |Lambda_L phi|^2 + |Lambda_R phi|^2, over the whole basis
    table, basis = build_overlap_table(K), FockBasis(K, n_max)
    ham = build_joint_hamiltonian(table, basis, ProbeParams(levels=2))
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    vL, vR = (lam @ phi for lam in _lambda_pair(table, basis))
    expect = float(np.vdot(vL, vL).real) + float(np.vdot(vR, vR).real)
    assert abs(ham.coupling_weight(phi) - expect) <= 1e-14 * expect


def test_basis_constants_are_the_per_state_values():
    basis = FockBasis(8, 4)
    probe = ProbeParams(levels=4)
    ham = build_joint_hamiltonian(build_overlap_table(8), basis, probe)
    assert np.array_equal(ham.number, basis.states.sum(axis=1))
    assert np.array_equal(ham.odd, basis.states @ np.arange(8) % 2 == 1)
    # the centre-of-mass mode per sector, indexed by N, has the bits of its per-state form
    for pulse in (Pulse.square(T=0.05, g0=2.0), Pulse.square(T=7.0, g0=1.5)):
        per_state = evolution._centre_of_mass(basis.states.sum(axis=1), probe, pulse)
        per_sector = evolution._centre_of_mass(np.arange(basis.n_max + 1), probe, pulse)[ham.number]
        assert np.array_equal(per_sector, per_state)


def test_mirror_halves_the_exact_sweep_sectors():
    ham = build_joint_hamiltonian(build_overlap_table(8), FockBasis(8, 4), ProbeParams(levels=4))
    assert np.diff(ham.edges).tolist() == [2, 16, 72, 240, 660]
    assert ham.H0.shape[0] == 7920


def test_mirror_odd_initial_state_is_refused(setup4):
    _, basis, probe, ham = setup4
    # one particle in orbital 1: trap parity odd, so |phi>|00> is mirror-odd
    phi = np.zeros(basis.dimension, dtype=np.complex128)
    phi[np.flatnonzero((basis.states == [0, 1, 0, 0]).all(axis=1))] = 1.0
    with pytest.raises(ValueError, match="odd-parity part of norm 1.000e"):
        exact_state(phi, ham, Pulse.square(T=0.05, g0=1.0))


def test_mirror_odd_part_beyond_the_first_occupied_sector_is_refused(setup4):
    _, basis, probe, ham = setup4
    phi = to_fock_vector(superposition_state(np.array([0.0, 0.6, 0.0, 0.8])).vector, basis)
    pulse = Pulse.square(T=0.05, g0=1.0)
    exact_state(phi, ham, pulse)  # all even: accepted
    # (2, 1, 0, 0) holds three particles, one of them in orbital 1; N = 1 stays even
    odd = np.flatnonzero((basis.states == [2, 1, 0, 0]).all(axis=1))
    phi[odd] = 0.1
    with pytest.raises(ValueError, match="odd-parity part of norm 1.000e-01"):
        exact_state(phi, ham, pulse)


def test_wrongly_shaped_state_is_refused(setup4):
    _, basis, probe, ham = setup4
    wrong = np.zeros(basis.dimension + 1, dtype=np.complex128)
    shapes = re.escape(f"{wrong.shape}") + ".*" + re.escape(f"{(basis.dimension,)}")
    with pytest.raises(ValueError, match=shapes):
        exact_state(wrong, ham, Pulse.square(T=0.05, g0=1.0))


def test_empty_state_propagates_to_zeros(setup4):
    _, basis, probe, ham = setup4
    out = exact_state(np.zeros(basis.dimension, dtype=np.complex128), ham, Pulse.square(T=0.05, g0=1.0))
    assert out.shape == (basis.dimension, probe.levels, probe.levels)
    assert not out.any()


def test_tiny_norm_tolerance_raises_drift_error(setup4, monkeypatch):
    table, basis, probe, ham = setup4
    phi = to_fock_vector(
        superposition_state(np.array([0.6, 0.0, 0.8])).vector, basis
    )
    # a long strong pulse: a series of about 650 terms, a drift of about 1e-15
    pulse = Pulse.square(T=40.0, g0=3.0)
    exact_state(phi, ham, pulse)
    monkeypatch.setattr(evolution, "_NORM_TOL", 1e-17)
    with pytest.raises(IntegratorDriftError):
        exact_state(phi, ham, pulse)


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
    pulse = Pulse.square(T=data.draw(st.floats(0.01, 2.0)), g0=data.draw(st.floats(0.0, 10.0)))
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe)
    phi = to_fock_vector(np.array(raw) / np.linalg.norm(raw), basis)
    # the range of sectors `exact_state` propagates for this phi
    lo, hi = basis.states[np.flatnonzero(phi)[[0, -1]]].sum(axis=1)
    span = slice(int(ham.edges[lo]), int(ham.edges[hi + 1]))
    y = _relative_initial(phi, ham, span)
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
    pulse = Pulse.square(T=data.draw(st.floats(0.01, 2.0)), g0=data.draw(st.floats(0.1, 10.0)))
    ham = build_joint_hamiltonian(build_overlap_table(K), basis, probe)
    mixture = TrapState("thermal", populations=p)
    norm_sq = mixture.norm_sq()
    block = postselect(exact_state(to_fock_vector(mixture.vector, basis), ham, pulse), norm_sq)
    w00, w10, w01, coh = sum(
        pn * _weights(exact_state(to_fock_vector(np.eye(1, n + 1, n)[0], basis), ham, pulse))
        for n, pn in enumerate(p)
    )
    rho = np.array([[w10, coh], [np.conj(coh), w01]]) / (w10 + w01).real
    # the worst of 400 draws: 6.1e-16 in rho, 1.3e-15 in p_succ and 1.4e-15 in leakage
    assert np.abs(block.matrix - rho).max() <= 2e-15
    assert abs(block.p_succ - (norm_sq - w00.real) / norm_sq) <= 5e-15
    assert abs(block.leakage - (norm_sq - w00 - w10 - w01).real / norm_sq) <= 5e-15


def test_a_phase_on_one_sector_leaves_the_exact_block_alone(setup4):
    # `to_fock_vector` takes any complex vector, phases included: H conserves N,
    # so a phase on the N = 2 sector cancels in every block sum
    _, basis, _, ham = setup4
    pulse = Pulse.square(T=0.3, g0=0.8)
    plain, phased = (
        postselect(exact_state(to_fock_vector(np.array(c), basis), ham, pulse), 1.0)
        for c in ([0.6, 0.0, 0.8], [0.6, 0.0, 0.8j])
    )
    assert np.abs(phased.matrix - plain.matrix).max() <= 1e-15
    assert abs(phased.p_succ - plain.p_succ) <= 1e-15
    assert abs(phased.leakage - plain.leakage) <= 1e-15


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
    phi = to_fock_vector(np.array([0.6, 0.0, 0.8j]), basis)
    got = exact_state(phi, flat, Pulse.square(T=0.7, g0=0.0))
    assert np.abs(got - np.exp(-1.75j) * embed_product(phi, probe)).max() <= 1e-15
