"""Negativity of the probe pair and the extraction-disturbance trade-off."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halftrap.entanglement import (
    BipartiteDensity,
    block_negativity,
    disturbance_fidelity,
    negativity,
    negativity_closed_form,
    probe_block_density,
)
from halftrap.measurement import ProbeBlock, block_from_moments
from halftrap.moments import analytic_limit_moments
from halftrap.states import coherent_state, number_state


def _density(vec: np.ndarray) -> BipartiteDensity:
    rho = np.outer(vec, vec.conj())
    return BipartiteDensity(2, 2, rho)


def test_product_state_has_zero_negativity():
    vec = np.kron(np.array([1.0, 0.0]), np.array([0.6, 0.8]))
    assert negativity(_density(vec)) == pytest.approx(0.0, abs=1e-14)


def test_bell_state_has_maximal_negativity():
    vec = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    assert negativity(_density(vec)) == pytest.approx(0.5, abs=1e-12)


def test_partial_entanglement_interpolates():
    for theta in (0.1, 0.4, 0.7):
        c, s = np.cos(theta), np.sin(theta)
        vec = np.array([0.0, c, s, 0.0])
        # pure two-qubit state: negativity = |c| |s|
        assert negativity(_density(vec)) == pytest.approx(abs(c * s), abs=1e-12)


def test_embedded_block_negativity_is_offdiagonal_weight():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = a @ a.conj().T
        rho = h / np.trace(h).real
        block = ProbeBlock(matrix=rho, p_succ=0.5, leakage=0.0, source="synthetic")
        mu = negativity(probe_block_density(block))
        assert mu == pytest.approx(abs(rho[0, 1]), abs=1e-12)


@st.composite
def _psd_blocks(draw):
    """Unit-trace PSD 2x2 blocks: general, diagonal, rank-1 and tiny-coherence draws."""
    a = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])))
    b = 1.0 - a
    bound = math.sqrt(a * b)
    kind = draw(st.sampled_from(["general", "diagonal", "rank1", "tiny"]))
    scale = {
        "general": draw(st.floats(0.0, 1.0)),
        "diagonal": 0.0,
        "rank1": 1.0,
        "tiny": draw(st.floats(1e-300, 1e-10)),
    }[kind]
    c = scale * bound * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return ProbeBlock(
        matrix=[[a, c.conjugate()], [c, b]], p_succ=0.5, leakage=0.0, source="synthetic"
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(block=_psd_blocks())
def test_block_negativity_matches_the_partial_transpose(block):
    # the eigensolver on the 4x4 partial transpose is the oracle of the closed form
    expect = negativity(probe_block_density(block))
    assert abs(block_negativity(block) - expect) <= 1e-15


def test_closed_form_values():
    assert negativity_closed_form("coherent", 2.0) == 0.25
    assert negativity_closed_form("coherent", 0.0) == 0.0
    assert negativity_closed_form("number", 1.0) == 0.0
    assert negativity_closed_form("number", 9.0) == pytest.approx(0.4, abs=1e-15)
    assert negativity_closed_form("number", 2.0) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        negativity_closed_form("coherent", -1.0)
    with pytest.raises(ValueError):
        negativity_closed_form("number", 2.5)
    with pytest.raises(ValueError):
        negativity_closed_form("thermal", 1.0)


def test_closed_form_saturates_at_half():
    assert negativity_closed_form("coherent", 1e9) < 0.5
    assert negativity_closed_form("number", 1e6) < 0.5


def test_fidelity_closed_form_limits():
    # <n> = 2 gives 1/sqrt(2); a weak gas barely disturbs the trap
    f2 = disturbance_fidelity(coherent_state(alpha_sq=2.0))
    assert f2 == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
    f_small = disturbance_fidelity(coherent_state(alpha_sq=0.01))
    assert f_small == pytest.approx(1.0 / np.sqrt(201.0), abs=1e-9)


def test_fidelity_from_table_matches_closed_form():
    state = coherent_state(alpha_sq=2.0)
    f = disturbance_fidelity(state, analytic_limit_moments(state))
    assert f == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)


def test_fidelity_requires_coherent_input():
    with pytest.raises(ValueError):
        disturbance_fidelity(number_state(2))


def test_fidelity_of_the_vacuum_is_refused():
    with pytest.raises(ValueError, match="fidelity undefined for vacuum input"):
        disturbance_fidelity(coherent_state(0.0))


def test_extraction_and_disturbance_grow_together():
    # duality: a stronger gas yields more negativity and a less disturbed trap
    mus, fids = [], []
    for a in (1.0, 2.0, 4.0, 8.0, 16.0):
        state = coherent_state(alpha_sq=a)
        mom = analytic_limit_moments(state)
        block = block_from_moments(mom)
        mus.append(negativity(probe_block_density(block)))
        fids.append(disturbance_fidelity(state, mom))
    assert mus == sorted(mus)
    assert fids == sorted(fids)
    assert all(m < 0.5 for m in mus)
    assert all(f < 1.0 for f in fids)


def test_density_validation():
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    BipartiteDensity(2, 2, good)
    with pytest.raises(ValueError):
        BipartiteDensity(2, 2, np.diag([0.7, 0.7, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        BipartiteDensity(2, 2, np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))
    bad_shape = np.eye(3, dtype=complex) / 3.0
    with pytest.raises(ValueError):
        BipartiteDensity(2, 2, bad_shape)


def test_nonhermitian_rejected():
    m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    m[0, 1] = 0.2
    with pytest.raises(ValueError):
        BipartiteDensity(2, 2, m)


@pytest.mark.parametrize(
    "diag", [[np.inf, 0.0, 0.0, -np.inf], [np.nan, 1.0, 0.0, 0.0]], ids=["inf-minus-inf", "nan"]
)
def test_non_finite_density_rejected(diag):
    # inf - inf makes the trace NaN, which passes every comparison
    with pytest.raises(ValueError, match="finite"):
        BipartiteDensity(2, 2, np.diag(diag).astype(complex))
