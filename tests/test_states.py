"""Initial gas states: coefficient recurrences, cutoffs, factorial moments."""

import importlib.util
import math
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import mpmath
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from halftrap.fock import FockBasis, to_fock_vector
from halftrap.harness.config import ExperimentConfig, parse_config_text
from halftrap.harness.sweep import _build_state
from halftrap.states import (
    TailToleranceError,
    TrapState,
    coherent_state,
    make_state,
    number_state,
    phase_averaged_state,
    superposition_state,
    thermal_state,
)


def poisson_pmf(mean: float, n: int) -> float:
    return math.exp(-mean) * mean**n / math.factorial(n)


def test_coherent_pmf_matches_direct_formula():
    state = coherent_state(alpha_sq=2.0)
    p = state.populations
    # p_2 = e^-2 * 2^2 / 2!
    assert p[2] == pytest.approx(poisson_pmf(2.0, 2), rel=1e-13)
    for n in range(state.n_cut + 1):
        assert p[n] == pytest.approx(poisson_pmf(2.0, n), rel=1e-12)
        assert abs(state.vector[n]) ** 2 == pytest.approx(poisson_pmf(2.0, n), rel=1e-12)


def test_coherent_truncated_norm_oracle():
    # fixed cutoff 8 at unit mean: norm deficit is about 1.1e-6, well above
    # the default tail tolerance but tiny in absolute terms
    state = coherent_state(alpha_sq=1.0, n_cut=8, tail_tol=1e-5)
    oracle = sum(poisson_pmf(1.0, n) for n in range(9))
    assert state.norm_sq() == pytest.approx(oracle, rel=1e-13)
    assert 1e-6 < 1.0 - state.norm_sq() < 1.3e-6


def test_truncated_state_not_renormalized():
    state = coherent_state(alpha_sq=4.0, n_cut=6, tail_tol=1.0)
    assert state.norm_sq() < 1.0
    assert state.tail_mass == pytest.approx(1.0 - state.norm_sq(), rel=1e-9)


def test_tail_tolerance_error_names_required_cutoff():
    with pytest.raises(TailToleranceError) as exc:
        coherent_state(alpha_sq=4.0, n_cut=3)
    err = exc.value
    assert err.requested_cut == 3
    assert err.required_cut > 3
    assert str(err.required_cut) in str(err)
    # the suggested cutoff actually suffices
    coherent_state(alpha_sq=4.0, n_cut=err.required_cut)


def test_auto_cutoff_meets_tolerance():
    state = coherent_state(alpha_sq=6.0)
    assert state.tail_mass <= 1e-12
    assert 1.0 - state.norm_sq() <= 1.1e-12


def assert_minimal_cutoff(state, sf, tail_tol):
    # sf(n) is the exact mass beyond n: the tail is it, and one less cutoff fails
    n = state.n_cut
    which = (state.kind, state.factorial_moments()[0], n)  # E[n] is the family's mean
    assert 0.0 <= state.tail_mass < tail_tol, (*which, state.tail_mass)
    assert state.tail_mass == pytest.approx(sf(n), rel=1e-9, abs=1e-300), which
    assert n == 0 or sf(n - 1) >= tail_tol, which


def test_large_amplitude_cutoffs_are_minimal_and_exact():
    # exp(-alpha_sq) is subnormal past alpha_sq ~ 708, where the amplitudes
    # of the paper's large-amplitude regime live
    for a in [*range(700, 761), 1024, 5000]:
        sf = partial(poisson.sf, mu=a)
        assert_minimal_cutoff(coherent_state(alpha_sq=a), sf, 1e-12)
        assert_minimal_cutoff(phase_averaged_state(a), sf, 1e-12)


def test_thermal_cutoff_is_minimal_and_exact():
    for nbar in (0.0, 0.5, 1.0, 20.0, 60.0, 745.0, 1024.0):
        r = nbar / (1.0 + nbar)
        assert_minimal_cutoff(thermal_state(nbar), lambda n: r ** (n + 1), 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    mean=st.floats(min_value=0.0, max_value=3000.0, allow_subnormal=False),
    tail_tol=st.floats(min_value=1e-14, max_value=1e-2),
)
def test_cutoff_properties(mean, tail_tol):
    sf = partial(poisson.sf, mu=mean)
    assert_minimal_cutoff(coherent_state(alpha_sq=mean, tail_tol=tail_tol), sf, tail_tol)
    r = mean / (1.0 + mean)
    thermal = thermal_state(mean, tail_tol=tail_tol)
    assert_minimal_cutoff(thermal, lambda n: r ** (n + 1), tail_tol)


def test_number_state_is_one_hot():
    state = number_state(3)
    assert state.vector[3] == 1.0
    assert np.count_nonzero(state.vector) == 1
    assert state.factorial_moments() == (3.0, 6.0)


def test_number_state_moments_low_edge():
    assert number_state(0).factorial_moments() == (0.0, 0.0)
    assert number_state(1).factorial_moments() == (1.0, 0.0)


def test_thermal_weights_geometric():
    state = thermal_state(1.0)
    # nbar = 1: p_n = (1/2)^(n+1)
    assert state.populations[0] == 0.5
    assert state.populations[1] == 0.25
    assert state.populations[2] == 0.125
    n1, n2 = state.factorial_moments()
    assert n1 == pytest.approx(1.0, rel=1e-10)
    assert n2 == pytest.approx(2.0, rel=1e-9)


def test_thermal_factorial_moments_closed_form():
    for nbar in (0.5, 2.0, 4.0):
        n1, n2 = thermal_state(nbar).factorial_moments()
        assert n1 == pytest.approx(nbar, rel=1e-9)
        assert n2 == pytest.approx(2.0 * nbar**2, rel=1e-8)


def test_phase_averaged_matches_coherent_weights():
    a = 2.0
    mixed = phase_averaged_state(a)
    pure = coherent_state(alpha_sq=a)
    probs = np.abs(pure.vector) ** 2
    for n, w in enumerate(mixed.populations[: len(probs)]):
        assert w == pytest.approx(probs[n], rel=1e-12)
    m1 = mixed.factorial_moments()
    m2 = pure.factorial_moments()
    assert m1[0] == pytest.approx(m2[0], rel=1e-13)
    assert m1[1] == pytest.approx(m2[1], rel=1e-13)


def test_coherent_and_phase_averaged_populations_are_bit_equal():
    # over the benchmark's alpha_sq ranges: a phase average changes no population
    for a in (*np.linspace(0.1, 20.0, 200).tolist(), *np.linspace(64.0, 1024.0, 241).tolist()):
        pure, mixed = coherent_state(a), phase_averaged_state(a)
        assert pure.populations.tobytes() == mixed.populations.tobytes(), a
        assert pure.tail_mass == mixed.tail_mass, a


def component_sums(state) -> tuple[float, float, float]:
    """Norm and factorial moments summed per number state |n>, weighted by p_n.

    |n> contributes (1, n, n(n-1)) to the three sums. The support sums of
    `TrapState` replace this loop; it stays here as the oracle.
    """
    norm = n1 = n2 = 0.0
    for n, w in enumerate(state.populations.tolist()):
        norm += w
        n1 += w * n
        n2 += w * (n * (n - 1))
    return norm, n1, n2


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["thermal", "phase_averaged"]),
    mean=st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False),
    tail_tol=st.floats(min_value=1e-12, max_value=1e-2),
)
def test_mixture_sums_match_component_oracle(kind, mean, tail_tol):
    # phase-averaged means run to 190, thermal ones to 10: n_cut <= 300 both
    scale = 19.0 if kind == "phase_averaged" else 1.0
    state = make_state(kind, mean * scale, tail_tol=tail_tol)
    assert state.n_cut <= 300
    norm, n1, n2 = component_sums(state)
    assert state.norm_sq() == pytest.approx(norm, rel=1e-14, abs=0.0)
    assert state.factorial_moments()[0] == pytest.approx(n1, rel=1e-14, abs=0.0)
    assert state.factorial_moments()[1] == pytest.approx(n2, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "state",
    [
        coherent_state(alpha_sq=0.0),
        coherent_state(alpha_sq=5.0),
        coherent_state(alpha_sq=1000.0),
        coherent_state(alpha_sq=6.0, n_cut=4, tail_tol=1.0),
        number_state(0),
        number_state(7),
        superposition_state([0.6, 0.0, 0.8j]),
        superposition_state(np.full(9, 1.0 / 3.0)),
    ],
    ids=lambda s: s.kind,
)
def test_pure_state_sums_are_the_amplitude_sums(state):
    # exact equality: a pure state's moments keep their bytes
    p = state.populations
    n = np.arange(len(p))
    assert state.norm_sq() == math.fsum(p)
    assert state.factorial_moments() == (math.fsum(n * p), math.fsum(n * (n - 1) * p))
    assert component_sums(state) == pytest.approx((state.norm_sq(), *state.factorial_moments()), rel=1e-14, abs=0.0)


def test_large_thermal_moments_match_truncated_geometric_sums():
    # G(x) = sum_{n <= N} x^n = (1 - x^(N+1)) / (1 - x), so with p_n = (1 - r) r^n
    # the truncated sums are (1 - r) times G(r), r G'(r) and r^2 G''(r)
    nbar = 60
    state = thermal_state(nbar)
    N = state.n_cut
    with mpmath.workdps(40):
        r = mpmath.mpf(nbar) / (1 + nbar)

        def G(x):
            return (1 - x ** (N + 1)) / (1 - x)

        exact = [
            (1 - r) * G(r),
            (1 - r) * r * mpmath.diff(G, r, 1),
            (1 - r) * r**2 * mpmath.diff(G, r, 2),
        ]
    got = [state.norm_sq(), *state.factorial_moments()]
    for value, oracle in zip(got, exact):
        assert value == pytest.approx(float(oracle), rel=1e-13, abs=0.0)


def test_large_phase_averaged_moments_match_high_precision_sum():
    mean = 1e4
    state = phase_averaged_state(mean)
    with mpmath.workdps(30):
        p = mpmath.exp(-mpmath.mpf(mean))
        norm = n1 = n2 = mpmath.mpf(0)
        for n in range(state.n_cut + 1):
            norm += p
            n1 += n * p
            n2 += n * (n - 1) * p
            p *= mean / (n + 1)
    got = [state.norm_sq(), *state.factorial_moments()]
    for value, oracle in zip(got, (norm, n1, n2)):
        assert value == pytest.approx(float(oracle), rel=1e-13, abs=0.0)


def full_fsums(state) -> tuple[float, float, float]:
    """Norm and factorial moments by one `math.fsum` over every population.

    `TrapState` sums the entries within 2^-120 of the peak term by term and
    the rest as one `np.sum` term; this summation from n = 0 stays here as
    its oracle.
    """
    p = state.populations
    n = np.arange(len(p))
    return (math.fsum(p.tolist()), math.fsum((n * p).tolist()), math.fsum((n * (n - 1) * p).tolist()))


def _benchmark_grid_states() -> list:
    """Every state of the moments-sweep and occupation-sweep grids, seeds 1-3."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("halftrap_bench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = wl  # its dataclasses look their module up there
    spec.loader.exec_module(wl)
    out = []
    for workload in ("moments-sweep", "occupation-sweep"):
        for seed in (1, 2, 3):
            for sweep in wl.sweeps(workload, seed):
                cfg = ExperimentConfig.from_entries(parse_config_text(sweep.config_text()))
                for v in cfg.sweep_values:
                    value = int(v) if cfg.sweep_param == "number_n" else v
                    out.append(_build_state(cfg, value))
    return out


def test_support_sums_match_full_fsum_on_the_benchmark_grids():
    grid = _benchmark_grid_states()
    assert {s.kind for s in grid} == {"coherent", "number", "thermal"}
    for state in grid:
        assert (state.norm_sq(), *state.factorial_moments()) == full_fsums(state), (state.kind, state.n_cut)


_wide_amplitudes = st.lists(
    st.tuples(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        st.integers(-560, 0),
    ),
    min_size=1,
    max_size=40,
).map(lambda terms: np.array([c * 2.0**e for c, e in terms])).filter(
    lambda c: np.linalg.norm(c) > 1e-6
)


def _low_peak_state(at: int, peak: float, tail: list) -> TrapState:
    """`peak` at n = `at` (0 or 1) over a tail w 2^e, no entry above 2^-120 of the peak.

    p's support then holds no n p_n, or no n(n-1) p_n, but a zero.
    """
    p = np.array([w * 2.0**e for w, e in tail])
    p[at] = peak
    return TrapState("thermal", p)


# every family across its range, superpositions whose |c_n|^2 span 2^-1120,
# and populations that peak at n = 0 or 1 above a tail far below the peak
_sum_states = st.one_of(
    st.floats(0.0, 1e5, exclude_max=True).map(lambda a: coherent_state(alpha_sq=a)),
    st.builds(phase_averaged_state, st.floats(0.0, 1e5, exclude_max=True)),
    st.builds(thermal_state, st.floats(0.0, 200.0)),
    _wide_amplitudes.map(lambda c: superposition_state(c / np.linalg.norm(c))),
    st.builds(
        _low_peak_state,
        st.integers(0, 1),
        st.floats(0.5, 1.0),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(-200, -121)), min_size=2, max_size=40),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_support_sums_match_full_fsum_on_random_states(data):
    try:
        state = data.draw(_sum_states)
    except TailToleranceError:
        reject()  # past alpha_sq ~97,790 the cutoff ceiling is too low
    assert (state.norm_sq(), *state.factorial_moments()) == full_fsums(state)


@pytest.mark.parametrize(
    "state",
    [
        coherent_state(alpha_sq=1024.0),
        phase_averaged_state(1e4),
        phase_averaged_state(9e4),
        thermal_state(200.0),
        superposition_state(np.array([1.0, 2.0**-300, 1e-160j, 2.0**-540]) / np.sqrt(1 + 2.0**-600)),
        TrapState("thermal", np.array([1.0, 2.0**-53, 2.0**-200])),
    ],
    ids=["coherent-1024", "phase-averaged-1e4", "phase-averaged-9e4", "thermal-200", "wide", "tie"],
)
def test_support_sums_are_within_an_ulp_of_a_50_digit_sum(state):
    p = state.populations
    n = np.arange(len(p))
    got = (state.norm_sq(), *state.factorial_moments())
    with mpmath.workdps(50):
        for value, x in zip(got, (p, n * p, n * (n - 1) * p)):
            exact = mpmath.fsum(mpmath.mpf(v) for v in x.tolist())
            assert abs(mpmath.mpf(value) - exact) <= math.ulp(value), (value, exact)


def _every_other(row: np.ndarray) -> np.ndarray:
    """`row` as every other entry of an array twice its length: a strided view."""
    wide = np.full(2 * len(row), np.nan)
    wide[::2] = row
    return wide[::2]


@pytest.mark.parametrize("view", [lambda row: row[::-1], _every_other], ids=["reversed", "strided"])
@pytest.mark.parametrize(
    "row",
    [coherent_state(alpha_sq=500.0).populations, thermal_state(40.0).populations],
    ids=["coherent-500", "thermal-40"],
)
def test_non_contiguous_populations_sum_as_their_contiguous_copy(row, view):
    # the coherent row's support leaves out its far left flank, the thermal row's is
    # the whole row, so both branches read a non-contiguous buffer
    state = TrapState("thermal", view(row))
    assert not state.populations.flags.c_contiguous
    copy = TrapState("thermal", np.ascontiguousarray(state.populations))
    got = (state.norm_sq(), *state.factorial_moments())
    assert got == (copy.norm_sq(), *copy.factorial_moments())
    assert got == full_fsums(copy)


def test_entries_below_the_support_still_break_a_tie():
    # 1 + 2^-53 is a tie that rounds to even, 1.0; the 2^-200 entry lies far
    # below the support and must still tip it up to 1 + 2^-52
    state = TrapState("thermal", np.array([1.0, 2.0**-53, 2.0**-200]))
    assert state.norm_sq() == 1.0 + 2.0**-52


def test_a_row_whose_mass_lies_off_the_support_of_p_is_exactly_rounded():
    # p's mass sits at n = 0, so p's support holds only the zero n p_n: summed as
    # one np.sum term, the row landed one ulp above its exactly rounded value
    p = [1.0, 7.346839692639297e-41, 6.612155723375367e-40, 2.204051907791789e-40]
    state = TrapState("thermal", np.array([*p, 2.448946564213099e-40, 2.448946564213099e-40]))
    assert state.factorial_moments()[0] == 4.261167021730792e-39
    assert (state.norm_sq(), *state.factorial_moments()) == full_fsums(state)


def test_empty_populations_are_refused():
    with pytest.raises(ValueError, match="populations must be .*not empty"):
        TrapState("thermal", np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_populations_and_amplitudes_are_refused(bad):
    with pytest.raises(ValueError, match="populations must be finite"):
        TrapState("thermal", np.array([bad, 1.0]))


def test_mixture_components_are_built_on_demand():
    # one component, the state's vector, whose length gives the cutoff
    state = thermal_state(3.0)
    assert "components" not in vars(state)
    comps = state.components
    assert state.components is comps
    assert max(len(c.coeffs) - 1 for c in comps) == state.n_cut


def test_superposition_requires_normalization():
    with pytest.raises(ValueError):
        superposition_state([1.0, 1.0])


@pytest.mark.parametrize("coeffs", [[1e200, 0.0], [0.6, 8e199j]], ids=["real", "imaginary"])
def test_huge_superposition_coefficients_are_refused_before_they_are_squared(coeffs):
    # |c_n|^2 overflows to inf; the refusal names the normalization, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="superposition coefficients must be normalized"):
            superposition_state(coeffs)


@pytest.mark.parametrize(
    "coeffs", [[np.nan, 1.0], [1.0, np.inf], [0.6, complex(0.0, -np.inf)]], ids=["nan", "inf", "complex-inf"]
)
def test_superposition_refuses_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="coeffs must be finite"):
        superposition_state(coeffs)


def test_superposition_moments_by_direct_sum():
    c = np.array([0.5, 0.5j, 0.0, -np.sqrt(0.5)])
    state = superposition_state(c)
    p = np.abs(c) ** 2
    n = np.arange(len(c))
    n1, n2 = state.factorial_moments()
    assert n1 == pytest.approx(float((p * n).sum()), rel=1e-14)
    assert n2 == pytest.approx(float((p * n * (n - 1)).sum()), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    raw=st.lists(
        st.tuples(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_superposition_properties(raw):
    c = np.array([complex(re, im) for re, im in raw])
    norm = np.linalg.norm(c)
    if norm < 1e-6:
        return
    state = superposition_state(c / norm)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
    n1, n2 = state.factorial_moments()
    assert n1 >= -1e-15
    assert n2 >= -1e-15
    assert state.n_cut == len(c) - 1


def test_make_state_dispatch():
    # the one value reaches the family's constructor, and a truncating family's the cutoff too
    cases = [
        ("coherent", 1.0, partial(coherent_state, alpha_sq=1.0, n_cut=7, tail_tol=0.5)),
        ("number", 2, partial(number_state, 2)),
        ("superposition", [0.6, 0.0, 0.8j], partial(superposition_state, [0.6, 0.0, 0.8j])),
        ("thermal", 0.5, partial(thermal_state, 0.5, n_cut=7, tail_tol=0.5)),
        ("phase_averaged", 1.0, partial(phase_averaged_state, 1.0, n_cut=7, tail_tol=0.5)),
    ]
    for kind, value, direct in cases:
        state, want = make_state(kind, value, n_cut=7, tail_tol=0.5), direct()
        assert state.kind == want.kind == kind
        assert state.populations.tobytes() == want.populations.tobytes(), kind
        assert state.tail_mass == want.tail_mass, kind
    with pytest.raises(ValueError, match="unknown state kind"):
        make_state("bogus", 1.0)


def test_to_fock_vector_embeds_lowest_mode():
    basis = FockBasis(3, 4)
    state = coherent_state(alpha_sq=1.0, n_cut=4, tail_tol=1.0)
    v = to_fock_vector(state.vector, basis)
    for n in range(5):
        (i,) = np.flatnonzero((basis.states == (n, 0, 0)).all(axis=1))
        assert v[i] == state.vector[n]
    assert np.count_nonzero(v) == 5


def test_to_fock_vector_rejects_overflow():
    basis = FockBasis(2, 2)
    state = number_state(3)
    with pytest.raises(ValueError):
        to_fock_vector(state.vector, basis)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        coherent_state(alpha_sq=-1.0)
    with pytest.raises(ValueError):
        number_state(-1)
    with pytest.raises(ValueError):
        thermal_state(-0.5)
    # non-finite parameters and negative cutoffs, each refused naming its argument
    for build, name in [
        (lambda: thermal_state(np.inf), "nbar"),
        (lambda: thermal_state(np.nan), "nbar"),
        (lambda: coherent_state(alpha_sq=np.nan), "alpha_sq"),
        (lambda: phase_averaged_state(np.nan), "alpha_sq"),
        (lambda: coherent_state(alpha_sq=np.inf), "alpha_sq"),
        (lambda: phase_averaged_state(np.inf), "alpha_sq"),
        (lambda: coherent_state(alpha_sq=2.0, n_cut=-1), "n_cut"),
        (lambda: thermal_state(1.0, n_cut=-1), "n_cut"),
    ]:
        with pytest.raises(ValueError, match=name):
            build()
