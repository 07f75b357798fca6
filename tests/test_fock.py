"""Truncated occupation basis and the sparse coupling operators."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halftrap.fock import (
    FockBasis,
    build_imbalance_operator,
    single_particle_commutator_residual,
    to_fock_vector,
)
from halftrap.harness.sweep import LOCALITY_LADDER
from halftrap.orbitals import build_overlap_table
from lambda_oracle import build_lambda_operator


def number_operator(basis):
    """Total particle number, diagonal in the occupation basis."""
    return sp.diags(basis.states.sum(axis=1).astype(float)).tocsr()


def _occupations(total, modes):
    """Oracle: all occupation tuples of `modes` modes summing to `total`, lex order."""
    if modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _occupations(total - first, modes - 1):
            yield (first,) + rest


def _graded_states(K, n_max):
    """Oracle: the graded-lex basis as a list of occupation tuples."""
    return [occ for total in range(n_max + 1) for occ in _occupations(total, K)]


_BASIS_CASES = [(K, n_max) for K in range(1, 9) for n_max in range(5)] + [(64, 1), (40, 2)]


def _dense(table, side):
    modes = np.arange(table.K)
    return table.entries(side, modes[:, None], modes)


def _loop_lambda_operator(side, table, basis):
    """Oracle: sum_{kl} lambda_kl a_k^dag a_l, one state and one (k, l) pair at a time."""
    lam = _dense(table, side)
    states = _graded_states(basis.K, basis.n_max)
    index = {occ: i for i, occ in enumerate(states)}
    rows, cols, vals = [], [], []
    for j, occ in enumerate(states):
        for l in range(basis.K):
            n_l = occ[l]
            if n_l == 0:
                continue
            lowered = occ[:l] + (n_l - 1,) + occ[l + 1 :]
            for k in range(basis.K):
                coeff = lam[k, l]
                if coeff == 0.0:
                    continue
                if k == l:
                    rows.append(j)
                    cols.append(j)
                    vals.append(coeff * n_l)
                else:
                    target = lowered[:k] + (lowered[k] + 1,) + lowered[k + 1 :]
                    rows.append(index[target])
                    cols.append(j)
                    vals.append(coeff * math.sqrt(n_l * (lowered[k] + 1)))
    return sp.coo_matrix(
        (vals, (rows, cols)), shape=(basis.dimension, basis.dimension)
    ).tocsr()


def _coded_lambda_operator(side, table, basis):
    """Oracle: an earlier `build_lambda_operator`, which found each target state by an occupation code.

    Codes with digits (total, n_0, ..., n_{K-1}) in base n_max + 1 increase
    along the graded basis, so searchsorted finds the target of a_k^dag a_l;
    they are Python ints once they pass int64. Entries come by state j, then
    l (n_l > 0), then k (lambda_kl != 0), from the dense K x K matrix.
    """
    lam = _dense(table, side)
    occ = basis.states
    base = basis.n_max + 1
    dtype = np.int64 if base ** (basis.K + 1) < 2**63 else object
    w = np.array([base**p for p in range(basis.K, -1, -1)], dtype=dtype)
    codes = np.column_stack([occ.sum(axis=1), occ]) @ w
    j, l = np.nonzero(occ)
    p, k = np.nonzero(lam[:, l].T != 0.0)
    j, l = j[p], l[p]
    rows = np.searchsorted(codes, codes[j] - w[1 + l] + w[1 + k])
    vals = lam[k, l] * np.sqrt(occ[j, l] * (occ[j, k] + (k != l)))
    return sp.coo_matrix(
        (vals, (rows, j)), shape=(basis.dimension, basis.dimension)
    ).tocsr()


def _assert_same_csr(got, expect):
    for attr in ("data", "indices", "indptr"):
        a, b = getattr(got, attr), getattr(expect, attr)
        assert a.dtype == b.dtype, attr
        assert np.array_equal(a, b), attr


def _tuple_states(K, n_max):
    """Oracle: the former enumeration, each sector's bars as a list of Python tuples."""
    sectors = []
    for n in range(n_max + 1):
        bars = np.array(list(itertools.combinations(range(n + K - 1), K - 1)), dtype=np.int64)
        ends = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + K - 1))
        sectors.append(np.diff(ends, axis=1) - 1)
    return np.concatenate(sectors)


@pytest.mark.parametrize("K", range(1, 10))
def test_states_match_the_tuple_list_enumeration(K):
    # K = 1 has no bars: the streamed enumeration reshapes zero entries to (1, 0) per sector
    for n_max in range(5):
        got, expect = FockBasis(K, n_max).states, _tuple_states(K, n_max)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect)


def test_dimension_matches_stars_and_bars():
    for K, n_max in ((1, 1), (3, 2), (4, 3), (6, 4)):
        basis = FockBasis(K, n_max)
        assert basis.dimension == math.comb(n_max + K, K)
        assert basis.dimension == len(basis.states)


def test_enumeration_is_graded_then_lexicographic():
    basis = FockBasis(2, 2)
    assert basis.states.tolist() == [
        [0, 0],
        [0, 1],
        [1, 0],
        [0, 2],
        [1, 1],
        [2, 0],
    ]


@pytest.mark.parametrize("K, n_max", _BASIS_CASES)
def test_states_match_recursive_enumeration(K, n_max):
    basis = FockBasis(K, n_max)
    expect = _graded_states(K, n_max)
    assert basis.states.dtype == np.int64
    assert basis.states.shape == (len(expect), K)
    assert basis.states.tolist() == [list(occ) for occ in expect]
    assert not basis.states.flags.writeable


@pytest.mark.parametrize("K, n_max", _BASIS_CASES)
def test_to_fock_vector_places_c_n_on_the_lowest_orbital_state(K, n_max):
    basis = FockBasis(K, n_max)
    index = {occ: i for i, occ in enumerate(_graded_states(K, n_max))}
    coeffs = np.arange(1, n_max + 2) * (1.0 + 0.5j)
    v = to_fock_vector(coeffs, basis)
    expect = np.zeros(basis.dimension, dtype=np.complex128)
    for n, c in enumerate(coeffs):
        expect[index[(n,) + (0,) * (K - 1)]] = c
    assert np.array_equal(v, expect)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_bounded_occupation_is_present(data):
    basis = FockBasis(3, 4)
    occ = tuple(
        data.draw(st.integers(min_value=0, max_value=4), label=f"n{j}") for j in range(3)
    )
    matches = np.count_nonzero((basis.states == occ).all(axis=1))
    assert matches == (1 if sum(occ) <= 4 else 0)


def test_number_operator_counts():
    basis = FockBasis(2, 3)
    n = number_operator(basis)
    for i, occ in enumerate(basis.states):
        assert n[i, i] == float(sum(occ))


def test_lambda_smallest_instance():
    # one mode, one particle: the only matrix elements are the (0,0) overlaps
    table = build_overlap_table(1)
    basis = FockBasis(1, 1)
    lamL = build_lambda_operator("L", table, basis)
    dense = lamL.toarray()
    assert np.array_equal(dense, np.array([[0.0, 0.0], [0.0, 0.5]]))


@pytest.mark.parametrize("K", range(1, 9))
def test_lambda_operator_matches_loop_oracle_bit_for_bit(K):
    table = build_overlap_table(K)
    for n_max in range(5):
        basis = FockBasis(K, n_max)
        for side in "LR":
            got = build_lambda_operator(side, table, basis)
            _assert_same_csr(got, _loop_lambda_operator(side, table, basis))
            assert (got != got.T.conj()).nnz == 0  # exactly hermitian


# the largest K per n_max at which the coded oracle stays quick
_CODED_K_MAX = (70, 70, 40, 14, 9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    case=st.one_of(
        st.tuples(st.integers(62, 70), st.just(1)),
        st.integers(0, 4).flatmap(lambda n: st.tuples(st.integers(1, _CODED_K_MAX[n]), st.just(n))),
    )
)
@example(case=(62, 1))
@example(case=(70, 1))
@example(case=(9, 4))
def test_lambda_operator_matches_the_coded_oracle_bit_for_bit(case):
    # ranks from the sector maps replace the base-(n_max + 1) codes and their
    # searchsorted, with the same bits; at n_max = 1 and K >= 62 the codes were Python ints
    K, n_max = case
    table, basis = build_overlap_table(K), FockBasis(K, n_max)
    coded = [_coded_lambda_operator(side, table, basis) for side in "LR"]
    for side, expect in zip("LR", coded):
        _assert_same_csr(build_lambda_operator(side, table, basis), expect)
    _assert_same_csr(build_imbalance_operator(table, basis), coded[0] - coded[1])


@pytest.mark.parametrize("K, n_max", [(64, 1), (40, 2)])
def test_lambda_operator_matches_loop_oracle_past_int64_codes(K, n_max):
    # (n_max + 1)^(K + 1) >= 2^63: codes in base n_max + 1 would pass int64 here
    assert (n_max + 1) ** (K + 1) >= 2**63
    table = build_overlap_table(K)
    basis = FockBasis(K, n_max)
    for side in "LR":
        got = build_lambda_operator(side, table, basis)
        _assert_same_csr(got, _loop_lambda_operator(side, table, basis))


@pytest.mark.parametrize("K", range(1, 9))
def test_imbalance_operator_is_the_lambda_difference_bit_for_bit(K):
    # scipy's difference drops the diagonal, which cancels exactly; D never stores it
    table = build_overlap_table(K)
    for n_max in range(5):
        basis = FockBasis(K, n_max)
        D = build_imbalance_operator(table, basis)
        lamL, lamR = (build_lambda_operator(side, table, basis) for side in "LR")
        _assert_same_csr(D, lamL - lamR)
        assert not (D.indices == np.repeat(np.arange(basis.dimension), np.diff(D.indptr))).any()


def test_sectors_are_the_particle_number_blocks():
    for K, n_max in ((1, 0), (1, 3), (3, 2), (6, 4)):
        basis = FockBasis(K, n_max)
        sectors = basis.sectors()
        assert len(sectors) == n_max + 1
        assert sectors[0].start == 0 and sectors[-1].stop == basis.dimension
        assert all(a.stop == b.start for a, b in zip(sectors, sectors[1:]))
        for n, sector in enumerate(sectors):
            assert {sum(occ) for occ in basis.states[sector]} == {n}


def test_lambda_operators_sum_to_number(table8):
    basis = FockBasis(8, 3)
    lamL = build_lambda_operator("L", table8, basis)
    lamR = build_lambda_operator("R", table8, basis)
    n = number_operator(basis)
    diff = (lamL + lamR - n).toarray()
    assert np.abs(diff).max() == 0.0


def test_lambda_hermitian(table8):
    basis = FockBasis(8, 3)
    for side in "LR":
        op = build_lambda_operator(side, table8, basis)
        assert np.abs((op - op.T.conjugate()).toarray()).max() < 1e-12


def test_lambda_commutes_with_total_number(table8):
    basis = FockBasis(8, 3)
    n = number_operator(basis)
    for side in "LR":
        lam = build_lambda_operator(side, table8, basis)
        comm = (lam @ n - n @ lam).toarray()
        assert np.abs(comm).max() == 0.0


def test_lambda_preserves_particle_number_blocks(table8):
    basis = FockBasis(8, 2)
    lam = build_lambda_operator("R", table8, basis).tocoo()
    for i, j in zip(lam.row, lam.col):
        assert sum(basis.states[i]) == sum(basis.states[j])


def test_single_particle_commutator_residual_vanishes():
    # measured, never assumed: phi_k phi_l has parity (-1)^(k+l), so the
    # left integral is (-1)^(k+l) times the right one, which equals
    # delta_kl minus it; the two coupling matrices commute at any truncation
    for K in (8, 64):
        table = build_overlap_table(K)
        assert single_particle_commutator_residual(table) <= 1e-12


@pytest.mark.parametrize("K", LOCALITY_LADDER)
def test_dense_commutator_equals_the_fock_built_one(K):
    # the one-particle block of Lambda_I is lambda^I bit for bit (its states e_k run
    # from k = K - 1 down to 0), so [lambda^L, lambda^R] from the table's entries is
    # the commutator of the two Fock operators there
    table, basis = build_overlap_table(K), FockBasis(K, 1)
    lamL, lamR = (build_lambda_operator(side, table, basis) for side in "LR")
    for side, lam in zip("LR", (lamL, lamR)):
        assert np.array_equal(lam[1:, 1:].toarray(), _dense(table, side)[::-1, ::-1])
        assert lam[0].nnz == lam[:, 0].nnz == 0
    comm = lamL @ lamR - lamR @ lamL
    fock_built = float(abs(comm).max()) if comm.nnz else 0.0
    assert single_particle_commutator_residual(table) == fock_built == 0.0


def test_basis_table_mode_mismatch_rejected(table8):
    with pytest.raises(ValueError, match="K=8 but basis has K=2"):
        build_imbalance_operator(table8, FockBasis(2, 1))
