"""Post-selection onto the single shared excitation and outcome sampling."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halftrap.evolution import ProbeParams, Pulse, build_joint_hamiltonian
from halftrap.fock import FockBasis, build_imbalance_operator, to_fock_vector
from halftrap.measurement import (
    NoExtractionError,
    ProbeBlock,
    block_from_moments,
    postselect_sectors,
    sample_outcomes,
)
from halftrap.moments import analytic_limit_moments, moments_from_fock
from halftrap.orbitals import build_overlap_table
from halftrap.states import number_state, superposition_state
from exact_oracle import perturbative_state, postselect

def _norm_sq(joint):
    return float(np.vdot(joint, joint).real)


@pytest.fixture(scope="module")
def small():
    table = build_overlap_table(4)
    basis = FockBasis(4, 3)
    probe = ProbeParams(levels=4)
    return table, basis, probe, build_joint_hamiltonian(table, basis, probe)


def test_block_from_joint_matches_block_from_moments(small):
    table, basis, probe, ham = small
    state = number_state(2)
    pulse = Pulse(T=0.1, g0=0.3)
    joint = perturbative_state(state.vector, ham, pulse)
    joint[:, 0, 0] = to_fock_vector(state.vector, basis)
    from_joint = postselect(joint, _norm_sq(joint))
    mom = moments_from_fock(state, basis, build_imbalance_operator(table, basis))
    from_mom = block_from_moments(mom, pulse, probe, state_norm_sq=1.0)
    assert np.allclose(from_joint.matrix, from_mom.matrix, atol=1e-12)
    assert from_joint.p_succ == pytest.approx(from_mom.p_succ, rel=1e-12)
    assert from_joint.leakage < 1e-12  # only rounding; no higher levels populated


def test_free_evolution_leaves_block_unchanged(small):
    # the free term only rotates the discarded ground branch; the selected
    # block is unaffected while the success probability shifts slightly
    table, basis, probe, ham = small
    c = number_state(2).vector
    pulse = Pulse(T=0.05, g0=0.3)
    first = perturbative_state(c, ham, pulse)
    with_h0 = postselect(first, _norm_sq(first))
    joint = perturbative_state(c, ham, pulse)
    joint[:, 0, 0] = to_fock_vector(c, basis)
    without = postselect(joint, _norm_sq(joint))
    assert np.allclose(with_h0.matrix, without.matrix, atol=1e-12)


def test_vacuum_cannot_be_selected(small):
    table, basis, probe, ham = small
    joint = perturbative_state(number_state(0).vector, ham, Pulse(T=0.1, g0=0.3))
    with pytest.raises(NoExtractionError):
        postselect(joint, _norm_sq(joint))
    with pytest.raises(NoExtractionError):
        block_from_moments(analytic_limit_moments(number_state(0)))


@pytest.mark.parametrize("norm_sq", [0.0, -1.0, math.nan, math.inf])
def test_postselect_refuses_a_norm_that_is_not_finite_and_positive(small, norm_sq):
    # a NaN passes `norm_sq <= 0.0` and would give a NaN p_succ, which ProbeBlock accepts
    table, basis, probe, ham = small
    joint = perturbative_state(number_state(2).vector, ham, Pulse(T=0.1, g0=0.3))
    with pytest.raises(ValueError, match="norm_sq must be finite and positive"):
        postselect(joint, norm_sq)


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 1.0000000000000002, 1.5, 30.0])
def test_sector_post_selection_sums_positive_terms_to_a_few_eps(x):
    # one sector at three relative levels against mpmath: p_succ is s1 + s2 + (1 - e^-x) s0 and
    # leakage s2 + (1 - e^-x) s1 + (1 - e^-x (1 + x)) s0, which cancel in floats at small x
    s0, s1, s2 = 0.7, 0.2, 1e-3
    got = postselect_sectors(np.array([[s0, s1, s2]]), np.array([x]), 1.25)
    mp = mpmath.mp
    with mp.workprec(200):
        X = mp.mpf(x)
        a, b = X * mp.exp(-X) * s0, mp.exp(-X) * s1
        selected = s1 + s2 + -mp.expm1(-X) * s0
        leaked = s2 + -mp.expm1(-X) * s1 + (1 - mp.exp(-X) * (1 + X)) * s0
        expect = [selected / mp.mpf(1.25), leaked / mp.mpf(1.25), (a - b) / (2 * (a + b))]
    eps = np.finfo(float).eps
    for value, ref in zip([got.p_succ, got.leakage, got.matrix[0, 1].real], expect):
        assert abs(value - float(ref)) <= 4 * eps * abs(float(ref))
    assert got.matrix[0, 0] == got.matrix[1, 1] and got.matrix[0, 1].imag == 0.0


def test_sector_post_selection_refuses_what_postselect_refuses():
    with pytest.raises(NoExtractionError):  # the vacuum: nothing outside |00>
        postselect_sectors(np.array([[1.0, 0.0]]), np.array([0.0]), 1.0)
    for norm_sq in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="norm_sq must be finite and positive"):
            postselect_sectors(np.array([[0.9, 0.1]]), np.array([0.01]), norm_sq)


def test_levels_the_array_leaves_out_count_as_selected_leakage(small):
    # the caller's norm_sq holds weight the array lacks: selected, outside the block
    table, basis, probe, ham = small
    joint = perturbative_state(number_state(2).vector, ham, Pulse(T=0.1, g0=0.3))
    whole = postselect(joint, _norm_sq(joint))
    missing = postselect(joint, _norm_sq(joint) + 0.25)
    assert np.array_equal(missing.matrix, whole.matrix)
    total = _norm_sq(joint) + 0.25
    assert missing.p_succ == pytest.approx((whole.p_succ * _norm_sq(joint) + 0.25) / total, rel=1e-14)
    assert missing.leakage == pytest.approx(0.25 / total, rel=1e-12)


def test_single_particle_block_is_maximally_mixed():
    # in the limiting table the cross sum vanishes: rho = diag(1/2, 1/2)
    mom = analytic_limit_moments(number_state(1))
    block = block_from_moments(mom)
    assert np.array_equal(block.matrix, np.diag([0.5, 0.5]).astype(complex))


def test_block_is_unit_trace_density(small):
    table, basis, probe, ham = small
    state = superposition_state(np.array([0.0, 0.6, 0.0, 0.8]))
    joint = perturbative_state(state.vector, ham, Pulse(T=0.1, g0=0.5))
    block = postselect(joint, _norm_sq(joint))
    assert np.trace(block.matrix).real == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(block.matrix)
    assert eigs.min() >= -1e-12
    assert 0.0 < block.p_succ < 1.0


def test_success_probability_formula():
    mom = analytic_limit_moments(number_state(2))
    pulse = Pulse(T=0.1, g0=0.2)
    probe = ProbeParams()
    block = block_from_moments(mom, pulse, probe, state_norm_sq=1.0)
    scale = pulse.area**2 * probe.M * probe.Omega / 2.0
    expect = scale * mom.S / (1.0 + scale * mom.S)
    assert block.p_succ == pytest.approx(expect, rel=1e-14)


def test_success_probability_nan_without_pulse():
    mom = analytic_limit_moments(number_state(2))
    block = block_from_moments(mom)
    assert np.isnan(block.p_succ)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda bad: ProbeParams(M=bad), "mass M"),
        (lambda bad: ProbeParams(Omega=bad), "frequency Omega"),
        (lambda bad: Pulse(T=bad, g0=1.0), "duration T"),
        (lambda bad: Pulse(T=1.0, g0=bad), "amplitude g0"),
    ],
    ids=["M", "Omega", "T", "g0"],
)
@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_non_finite_probe_and_pulse_values_are_refused(build, field, bad):
    # before, Omega = inf or g0 = nan reached block_from_moments and gave p_succ = nan
    with pytest.raises(ValueError, match=f"{field} must be"):
        build(bad)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"T": 0.0, "g0": 1.0}, "duration T"),
        ({"T": -0.5, "g0": 1.0}, "duration T"),
        ({"T": math.nan, "g0": 1.0}, "duration T"),
        ({"T": math.inf, "g0": 1.0}, "duration T"),
        ({"T": 1.0, "g0": math.inf}, "amplitude g0"),
        ({"T": 1.0, "g0": math.nan}, "amplitude g0"),
    ],
)
def test_pulse_constructor_refuses_each_bad_value_by_its_field(kwargs, field):
    # the constructor itself checks both values; Pulse(T=0.0, g0=1.0) used to build without error
    with pytest.raises(ValueError, match=f"pulse {field} must be"):
        Pulse(**kwargs)
    with pytest.raises(TypeError, match="g0"):  # no default amplitude
        Pulse(T=1.0)
    pulse = Pulse(T=2, g0=-3)
    assert (type(pulse.T), type(pulse.g0), pulse.area) == (float, float, -6.0)


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


def _block(matrix) -> ProbeBlock:
    return ProbeBlock(matrix=matrix, p_succ=0.5, leakage=0.0, source="synthetic")


@pytest.mark.parametrize(
    "matrix",
    [
        [[np.nan, 0.0], [0.0, np.nan]],
        [[0.5, np.nan], [0.0, 0.5]],
        [[np.inf, 0.0], [0.0, -np.inf]],
        [[0.5, 0.0], [complex(0.0, np.inf), 0.5]],
    ],
)
def test_block_refuses_non_finite_entries(matrix):
    with pytest.raises(ValueError, match="matrix"):
        _block(matrix)


def test_hermitian_defect_counts_the_diagonal_imaginary_part_twice():
    # |rho - rho^H| on the diagonal is 2 |Im rho_kk|, against the bound 1e-12
    with pytest.raises(ValueError, match="hermitian"):
        _block([[0.5 + 6e-13j, 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="hermitian"):
        _block([[0.5, 0.0], [0.0, 0.5 - 6e-13j]])
    _block([[0.5 + 4e-13j, 0.0], [0.0, 0.5]])
    _block([[0.5, 0.0], [0.0, 0.5 - 4e-13j]])


def test_psd_refusal_reports_the_smaller_eigenvalue():
    with pytest.raises(ValueError, match="not PSD: min eig -1.000e-01"):
        _block([[0.5, 0.6], [0.6, 0.5]])


_THRESHOLD = 1e-12
_MARGIN = 1e-14


def _former_checks(rho: np.ndarray) -> tuple[float, float, float]:
    """Oracle: the former checks' hermitian defect, trace defect and eigensolver minimum."""
    return (
        float(np.abs(rho - rho.conj().T).max()),
        abs(rho[0, 0].real + rho[1, 1].real - 1.0),
        float(np.linalg.eigvalsh(rho).min()),
    )


@st.composite
def _near_threshold_matrices(draw):
    """2x2 matrices whose three defects straddle their bounds, diagonals near 0 included."""
    defect = st.floats(-2e-12, 2e-12)
    a = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-11), st.just(1.0)))
    b = 1.0 - a + draw(defect)
    # the smaller eigenvalue lands near t when |rho_10|^2 = (a - t)(b - t)
    t = draw(st.floats(-3e-12, 2e-12))
    lower = math.sqrt(max((a - t) * (b - t), 0.0)) * cmath.exp(1j * draw(st.floats(-3.0, 3.0)))
    # a hermitian defect of size |skew| at one place, or none
    spot = draw(st.sampled_from(["none", "rho_00", "rho_11", "rho_01"]))
    skew = draw(defect)
    rho = np.array([[a, lower.conjugate()], [lower, b]], dtype=np.complex128)
    if spot == "rho_01":
        rho[0, 1] += skew * cmath.exp(1j * draw(st.floats(-3.0, 3.0)))
    elif spot != "none":
        k = int(spot[-1])
        rho[k, k] += 0.5j * skew
    return rho


@settings(max_examples=600, deadline=None, derandomize=True)
@given(rho=_near_threshold_matrices())
def test_scalar_checks_refuse_what_the_eigensolver_checks_refused(rho):
    hermitian, trace, low = _former_checks(rho)
    assume(abs(hermitian - _THRESHOLD) >= _MARGIN)
    assume(abs(trace - _THRESHOLD) >= _MARGIN)
    assume(abs(low + _THRESHOLD) >= _MARGIN)
    refused = hermitian > _THRESHOLD or trace > _THRESHOLD or low < -_THRESHOLD
    try:
        _block(rho)
    except ValueError:
        assert refused
    else:
        assert not refused


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
    # numpy's binomial takes at most 2**63 - 1 trials
    assert sum(sample_outcomes(_block_with_p(0.5), 2**63 - 1, seed=1).values()) == 2**63 - 1
    with pytest.raises(ValueError, match="shots must be in"):
        sample_outcomes(_block_with_p(0.5), 2**63, seed=1)
    with pytest.raises(ValueError):
        sample_outcomes(block_from_moments(analytic_limit_moments(number_state(2))), 10, seed=1)
