"""Probe-block moments: closed form, explicit cross-check, infinite-K limit."""

from fractions import Fraction
from functools import cache
from math import fsum
from time import perf_counter
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftrap import moments
from halftrap.fock import FockBasis, build_imbalance_operator, to_fock_vector
from halftrap.moments import (
    ProbeBlockMoments,
    analytic_limit_moments,
    moments_from_fock,
    moments_from_state,
)
from halftrap.harness.accept import _oracle_states
from halftrap.orbitals import build_overlap_table
from halftrap.states import (
    coherent_state,
    number_state,
    phase_averaged_state,
    superposition_state,
    thermal_state,
)
from lambda_oracle import lambda_pair


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


def _mp_tail(M):
    """sum_{m >= M} C(2m, m) / (4^m (2m + 1)) = t_M 3F2(1, M + 1/2, M + 1/2; M + 1, M + 3/2; 1), in mpmath."""
    M = mpmath.mpf(M)
    t_M = mpmath.gamma(M + 0.5) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(M + 1) * (2 * M + 1))
    return t_M * mpmath.hyp3f2(1, M + 0.5, M + 0.5, M + 1, M + 1.5, 1)


@pytest.mark.parametrize("M", [10**4, 2**16, 10**6])
def test_tail_series_coefficients_match_mpmath(M):
    # each float coefficient is the rounding of a small rational; with the rationals,
    # tail * sqrt(pi M) minus the series through 1/M^(j - 1) leaves coefficient j over
    # M^j, to 1e-3 relative, and after the last one the term the series drops
    exact = [Fraction(c).limit_denominator(10**6) for c in moments._TAIL_SERIES]
    assert [float(c) for c in exact] == list(moments._TAIL_SERIES)
    assert exact == [1, Fraction(1, 24), Fraction(-19, 640), Fraction(-155, 21504)]
    with mpmath.workdps(50):
        scaled = _mp_tail(M) * mpmath.sqrt(mpmath.pi * M)
        terms = [mpmath.mpf(c.numerator) / c.denominator for c in exact] + [mpmath.mpf(721) / 98304]
        for j in range(len(terms)):
            rest = (scaled - sum(c / mpmath.mpf(M) ** i for i, c in enumerate(terms[:j]))) * mpmath.mpf(M) ** j
            assert abs(rest - terms[j]) <= 1e-3 * abs(terms[j])


@pytest.mark.parametrize("K", [2 * 2**16 + 2, 2 * 2**16 + 3, 10**6 + 1, 10**9, 10**12, 2**62 + 7, 10**18])
def test_asymptotic_partial_sum_is_within_one_ulp(K):
    # past _ASYMPTOTIC_M terms, s(K) = 1/4 - tail / 2 pi from the series, against mpmath
    assert K // 2 > moments._ASYMPTOTIC_M
    with mpmath.workdps(50):
        exact = mpmath.mpf(1) / 4 - _mp_tail(K // 2) / (2 * mpmath.pi)
        s = moments._partial_sum(K)
        assert abs(s - exact) <= np.spacing(float(exact))
        # one particle: mLL = 1/4 + s, one rounding more
        mom = moments_from_state(number_state(1), K)
        assert abs(mom.mLL - (exact + mpmath.mpf(1) / 4)) <= np.spacing(mom.mLL)


def _mp_partial_sum(K):
    """s(K) in mpmath: the first floor(K/2) terms summed directly below 1000 of them, else 1/4 - tail / 2 pi."""
    M = K // 2
    if M >= 1000:
        return mpmath.mpf(1) / 4 - _mp_tail(M) / (2 * mpmath.pi)
    total, central = mpmath.mpf(0), mpmath.mpf(1)
    for m in range(M):
        total += central / (2 * m + 1)
        central = central * (2 * m + 1) / (2 * m + 2)
    return total / (2 * mpmath.pi)


# the worst K measured, over every K up to 2000 and 150 log-spaced K up to 2^17 + 1, is 970
@pytest.mark.parametrize("K", [2, 5, 64, 700, 970, 1035, 1690, 4096, 2**16, 2**17, 2**17 + 1])
def test_fsum_partial_sum_is_within_its_measured_ulps(K):
    # the float terms are summed exactly rounded, but each carries the rounding of the running
    # product that forms it: s(K) sits up to 1.68 ulp from mpmath (1.53 at K = 4096)
    assert K // 2 <= moments._ASYMPTOTIC_M
    with mpmath.workdps(40):
        exact = _mp_partial_sum(K)
        assert abs(moments._partial_sum(K) - exact) <= 1.7 * np.spacing(float(exact))


def test_threshold_keeps_the_fsum_path(monkeypatch):
    # up to _ASYMPTOTIC_M terms nothing changes: the fsum of the terms, as before
    K = 2 * moments._ASYMPTOTIC_M + 1
    calls = []
    real = moments._arcsin_terms
    monkeypatch.setattr(moments, "_arcsin_terms", lambda M: calls.append(M) or real(M))
    s = moments._partial_sum(K)
    assert calls == [moments._ASYMPTOTIC_M]
    assert s == fsum(real(moments._ASYMPTOTIC_M)) / (2.0 * np.pi)
    moments._partial_sum(K + 1)
    assert calls == [moments._ASYMPTOTIC_M]


def test_finite_k_moments_at_a_trillion_modes_take_no_time():
    # the sum over 5e11 terms ran for minutes; the series takes microseconds
    state = number_state(3)
    moments_from_state(state, 10**12)
    start = perf_counter()
    for _ in range(100):
        mom = moments_from_state(state, 10**12)
    assert (perf_counter() - start) / 100 < 1e-3
    assert mom.K == 10**12 and mom.provenance == "finite-K"


def test_mode_count_validation():
    with pytest.raises(ValueError, match="mode count must be >= 1"):
        moments_from_state(number_state(1), 0)


@pytest.fixture(scope="module")
def fock6(table6):
    """Four-quanta basis on six modes and its imbalance D = Lambda_L - Lambda_R."""
    basis = FockBasis(table6.K, 4)
    return basis, build_imbalance_operator(table6, basis)


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
    """Four-quanta basis on K modes and its imbalance D = Lambda_L - Lambda_R."""
    table = build_overlap_table(K)
    basis = FockBasis(K, 4)
    return basis, build_imbalance_operator(table, basis)


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


def _bits(mom) -> list[str]:
    """The moments' exact bits, signed zeros included."""
    return [float(x).hex() for x in (mom.mLL, mom.mRR, mom.mLR.real, mom.mLR.imag)]


@pytest.mark.parametrize("K", range(1, 9))
def test_fock_moments_are_the_lambda_pair_products_bit_for_bit(K):
    # (N v +- D v) / 2 against Lambda_L v and Lambda_R v of the oracle pair: the vector
    # holds one state per sector and both operators conserve N, so each entry is one
    # product; off the diagonal D = 2 Lambda_L exactly, and Lambda_I's diagonal on
    # |n, 0, ..., 0> is n / 2. The phased vectors reach moments_from_fock as a state's
    # `vector`, the one attribute it reads
    table, basis = build_overlap_table(K), FockBasis(K, 4)
    lamL, lamR = lambda_pair(table, basis)
    D = build_imbalance_operator(table, basis)
    rng = np.random.default_rng(K)
    for state in _oracle_states(seed=K):
        phased = state.vector * np.exp(2j * np.pi * rng.random(state.vector.size))
        for vector in (state.vector, phased):
            v = to_fock_vector(vector, basis)
            vL, vR = lamL @ v, lamR @ v
            expect = ProbeBlockMoments(
                float(np.vdot(vL, vL).real), float(np.vdot(vR, vR).real), complex(np.vdot(vL, vR)), "fock-K", K
            )
            got = moments_from_fock(SimpleNamespace(vector=vector), basis, D)
            assert _bits(got) == _bits(expect)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["mLL", "mRR", "mLR"])
def test_non_finite_block_moments_are_refused_naming_the_field(field, bad):
    # each check after this one is a comparison, which a NaN passes
    entries = {"mLL": 0.5, "mRR": 0.5, "mLR": 0.25 + 0.0j, field: bad}
    with pytest.raises(ValueError, match=f"block moment {field} must be finite"):
        ProbeBlockMoments(**entries, provenance="test", K=None)
    if field == "mLR":
        with pytest.raises(ValueError, match="block moment mLR must be finite"):
            ProbeBlockMoments(mLL=0.5, mRR=0.5, mLR=complex(0.25, bad), provenance="test")
