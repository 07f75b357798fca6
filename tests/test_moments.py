"""Probe-block moments: closed form, explicit cross-check, infinite-K limit."""

from functools import cache
from math import fsum

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftrap import moments
from halftrap.fock import FockBasis, build_lambda_operator
from halftrap.moments import (
    ProbeBlockMoments,
    analytic_limit_moments,
    moments_from_fock,
    moments_from_state,
)
from halftrap.orbitals import build_overlap_table
from halftrap.states import (
    coherent_state,
    number_state,
    phase_averaged_state,
    superposition_state,
    thermal_state,
)


def test_vacuum_has_no_moments():
    mom = moments_from_state(number_state(0), 64)
    assert mom.mLL == 0.0
    assert mom.mRR == 0.0
    assert mom.mLR == 0.0
    assert mom.S == 0.0


def test_number_state_analytic_values():
    # N = 3: E[n] = 3, E[n(n-1)] = 6 and the limiting sums are exact halves
    mom = analytic_limit_moments(number_state(3))
    assert mom.mLL == 0.5 * 3 + 0.25 * 6
    assert mom.mRR == mom.mLL
    assert mom.mLR == 0.25 * 6
    assert mom.S == 6.0


def test_coherent_analytic_values():
    # the truncation tail is amplified by n(n-1) in the pair moment, so the
    # tolerance here is looser than the tail mass itself
    mom = analytic_limit_moments(coherent_state(alpha_sq=2.0))
    assert mom.mLR.real == pytest.approx(1.0, abs=1e-9)
    assert mom.mLR.imag == 0.0
    assert mom.S == pytest.approx(4.0, abs=1e-9)


def test_thermal_moment_structure():
    nbar = 2.0
    mom = analytic_limit_moments(thermal_state(nbar))
    # E[n] = nbar, E[n(n-1)] = 2 nbar^2
    assert mom.mLR.real == pytest.approx(0.25 * 2 * nbar**2, rel=1e-8)
    assert mom.S == pytest.approx(nbar + nbar**2, rel=1e-8)


@pytest.mark.parametrize("K", [1, 2, 7, 8, 64, 512, 4096])
def test_truncation_sums_match_table_columns(K):
    # oracle: the compensated sums over column 0 of the Wronskian table; one
    # particle has E[n] = 1 and E[n(n-1)] = 0, so its moments are the sums T_IJ
    table, modes = build_overlap_table(K), np.arange(K)
    colL = table.entries("L", modes, 0)
    colR = table.entries("R", modes, 0)
    mom = moments_from_state(number_state(1), K)
    assert mom.provenance == "finite-K"
    assert mom.K == K
    assert abs(mom.mLL - fsum((colL * colL).tolist())) <= 1e-15
    assert abs(mom.mRR - fsum((colR * colR).tolist())) <= 1e-15
    assert abs(mom.mLR.real - fsum((colL * colR).tolist())) <= 1e-15
    assert mom.mLR.imag == 0.0


@pytest.mark.parametrize("K", [64, 512, 4096])
def test_cross_sum_matches_high_precision_series(K):
    # oracle: T_LR = 1/4 - (1/2pi) sum_{m < K/2} C(2m, m) / (4^m (2m + 1)) in 40 digits
    with mpmath.workdps(40):
        s = mpmath.fsum(
            mpmath.binomial(2 * m, m) / (mpmath.mpf(4) ** m * (2 * m + 1))
            for m in range(K // 2)
        ) / (2 * mpmath.pi)
        exact = mpmath.mpf(1) / 4 - s
        rel = abs((moments_from_state(number_state(1), K).mLR.real - exact) / exact)
    assert rel <= 1e-13


def test_block_size_leaves_the_sums_unchanged(monkeypatch):
    # the running product carries over from block to block, so how the
    # series is cut into blocks changes no digit
    whole = moments_from_state(number_state(1), 4096)
    monkeypatch.setattr(moments, "_BLOCK", 7)
    assert moments_from_state(number_state(1), 4096) == whole


def test_mode_count_validation():
    with pytest.raises(ValueError, match="mode count must be >= 1"):
        moments_from_state(number_state(1), 0)


@pytest.fixture(scope="module")
def fock6(table6):
    """Four-quanta basis on six modes and its (Lambda_L, Lambda_R) pair."""
    basis = FockBasis(table6.K, 4)
    return basis, *(build_lambda_operator(side, table6, basis) for side in "LR")


def test_moments_match_fock_expectations(table6, fock6):
    # independent oracle: sparse operators on the explicit occupation basis
    batch = [
        number_state(2),
        coherent_state(alpha_sq=1.0, n_cut=4, tail_tol=1.0),
        thermal_state(0.5, n_cut=4, tail_tol=1.0),
        superposition_state(np.array([0.6, 0.0, 0.8])),
    ]
    for state in batch:
        closed = moments_from_state(state, table6.K)
        explicit = moments_from_fock(state, *fock6)
        assert closed.mLL == pytest.approx(explicit.mLL, abs=1e-12)
        assert closed.mRR == pytest.approx(explicit.mRR, abs=1e-12)
        assert abs(closed.mLR - explicit.mLR) < 1e-12


@cache
def _fock_route(K: int):
    """Four-quanta basis on K modes and its (Lambda_L, Lambda_R) pair."""
    table = build_overlap_table(K)
    basis = FockBasis(K, 4)
    return basis, *(build_lambda_operator(side, table, basis) for side in "LR")


_amplitudes = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=5,
).filter(lambda raw: np.linalg.norm(raw) > 1e-6)
_mixture_args = {"n_cut": st.integers(0, 4), "tail_tol": st.just(1.0)}
# every state fits four quanta: superpositions of <= 5 terms, mixtures cut at n <= 4
_small_states = st.one_of(
    _amplitudes.map(lambda raw: superposition_state(np.array(raw) / np.linalg.norm(raw))),
    st.builds(thermal_state, st.floats(0.0, 8.0), **_mixture_args),
    st.builds(phase_averaged_state, st.floats(0.0, 8.0), **_mixture_args),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(K=st.integers(1, 6), state=_small_states)
def test_series_moments_match_fock_expectations_on_random_states(K, state):
    closed = moments_from_state(state, K)
    explicit = moments_from_fock(state, *_fock_route(K))
    assert abs(closed.mLL - explicit.mLL) <= 1e-12
    assert abs(closed.mRR - explicit.mRR) <= 1e-12
    assert abs(closed.mLR - explicit.mLR) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(K=st.integers(1, 6), state=_small_states)
def test_fock_moments_are_mirror_symmetric_on_random_states(K, state):
    # lambda^L = P lambda^R P with P = diag((-1)^k), and a state of the lowest
    # orbital is even under P, so the left and right diagonal moments agree
    explicit = moments_from_fock(state, *_fock_route(K))
    assert abs(explicit.mLL - explicit.mRR) <= 1e-14 * max(abs(explicit.mLL), abs(explicit.mRR))


@pytest.mark.parametrize(
    "state",
    [number_state(5), thermal_state(0.5, n_cut=5, tail_tol=1.0)],
    ids=["pure", "mixture"],
)
def test_fock_route_refuses_states_past_its_basis(state, fock6):
    with pytest.raises(ValueError, match="cutoff 5 exceeds basis capacity 4"):
        moments_from_fock(state, *fock6)


def test_finite_truncation_error_decays():
    state = coherent_state(alpha_sq=4.0)
    target = 0.5 * 4.0 / (2.0 + 4.0)
    errors = []
    for K in (8, 32, 128, 512):
        mom = moments_from_state(state, K)
        errors.append(abs(abs(mom.mLR) / mom.S - target))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < errors[0] / 5


def test_extrapolation_removes_truncation_tail():
    state = coherent_state(alpha_sq=4.0)
    target = 0.5 * 4.0 / (2.0 + 4.0)
    raw = moments_from_state(state, 512)
    fit = analytic_limit_moments(state)
    raw_err = abs(abs(raw.mLR) / raw.S - target)
    fit_err = abs(abs(fit.mLR) / fit.S - target)
    assert fit_err < 1e-6
    assert fit_err < raw_err / 100


def test_phase_averaged_equals_coherent():
    a = 2.0
    mixed = analytic_limit_moments(phase_averaged_state(a))
    pure = analytic_limit_moments(coherent_state(alpha_sq=a))
    assert abs(mixed.mLR - pure.mLR) < 1e-12
    assert mixed.mLL == pytest.approx(pure.mLL, abs=1e-12)
    assert mixed.S == pytest.approx(pure.S, abs=1e-12)


def test_left_right_symmetry():
    mom = moments_from_state(coherent_state(alpha_sq=2.0), 64)
    assert mom.mLL == pytest.approx(mom.mRR, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_moments_obey_cauchy_schwarz(raw):
    c = np.array([complex(re, im) for re, im in raw])
    norm = np.linalg.norm(c)
    if norm < 1e-6:
        return
    mom = moments_from_state(superposition_state(c / norm), 64)
    assert mom.mLL >= -1e-15
    assert mom.mRR >= -1e-15
    assert abs(mom.mLR) ** 2 <= mom.mLL * mom.mRR + 1e-9


def test_moment_container_rejects_inconsistent_values():
    with pytest.raises(ValueError):
        ProbeBlockMoments(mLL=-1.0, mRR=1.0, mLR=0.0, provenance="test", K=None)
    with pytest.raises(ValueError):
        ProbeBlockMoments(mLL=0.1, mRR=0.1, mLR=1.0, provenance="test", K=None)
