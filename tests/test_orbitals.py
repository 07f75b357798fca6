"""The half-line overlap table, checked against orbital evaluation and quadrature."""

import csv
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from halftrap.orbitals import (
    OverlapTable,
    build_overlap_table,
    write_table_csv,
)

ONE_OVER_SQRT_2PI = 0.3989422804014327

# Beyond this squared dimensionless coordinate the ground-state Gaussian
# underflows double precision; all orbitals are returned as exact zeros there.
_UNDERFLOW_XI_SQ = 1500.0


def _hermite_functions(kmax: int, xi: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions psi_0..psi_{kmax-1} on dimensionless xi.

    Upward recurrence psi_{k+1} = sqrt(2/(k+1)) xi psi_k - sqrt(k/(k+1)) psi_{k-1},
    stable for the oscillatory region covered here. Points beyond the underflow
    radius are forced to exact zero so no overflow or NaN can be produced.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    dead = ~(np.abs(xi) < np.sqrt(_UNDERFLOW_XI_SQ))  # catches inf and nan too
    safe = np.where(dead, 0.0, xi)
    out = np.zeros((kmax, xi.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * safe * safe)
    if kmax > 1:
        out[1] = np.sqrt(2.0) * safe * out[0]
    for k in range(2, kmax):
        out[k] = np.sqrt(2.0 / k) * safe * out[k - 1] - np.sqrt((k - 1) / k) * out[k - 2]
    if dead.any():
        out[:, dead] = 0.0
    return out


def eval_orbital(k: int, x):
    """Evaluate the k-th trap orbital phi_k at position(s) x, with hbar = m = omega = 1.

    Normalized so the squared orbital integrates to one. Far outside the
    classical turning point the value underflows; exact zero is returned
    there instead of propagating non-finite intermediates.
    """
    if k < 0:
        raise ValueError(f"mode index must be non-negative, got {k}")
    xi = np.asarray(x, dtype=float)
    vals = _hermite_functions(k + 1, xi.ravel())[k]
    if np.ndim(x) == 0:
        return float(vals[0])
    return vals.reshape(np.shape(x))


def norm_constant(k: int) -> float:
    return 1.0 / math.sqrt(2.0**k * math.factorial(k) * math.sqrt(math.pi))


def quadrature_table(K: int) -> np.ndarray:
    """Oracle: all K x K integrals of psi_k psi_l over [0, x_max].

    Fixed-panel Gauss-Legendre (order 16, K panels, at least 32) past the
    turning point of the highest mode, with its own Hermite recurrence, so it
    shares nothing with the closed-form table but the definition.
    """
    xmax = math.sqrt(2.0 * (2.0 * K + 1.0)) + 10.0
    panels = max(32, K)
    xg, wg = leggauss(16)
    h = xmax / panels
    nodes = (h * np.arange(panels)[:, None] + 0.5 * h * (xg + 1.0)).ravel()
    weights = np.tile(0.5 * h * wg, panels)
    psi = np.zeros((K, nodes.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * nodes * nodes)
    if K > 1:
        psi[1] = math.sqrt(2.0) * nodes * psi[0]
    for k in range(2, K):
        psi[k] = math.sqrt(2.0 / k) * nodes * psi[k - 1] - math.sqrt((k - 1) / k) * psi[k - 2]
    return (psi * weights) @ psi.T


def wronskian_tables(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: (lambdaL, lambdaR) as dense K x K matrices, the table's former construction.

    The k + l odd block W_kl(0) / (2 (k - l)) is formed once for odd rows and
    even columns and stored with its transpose; lambdaL = I - lambdaR.
    """
    lambdaR = np.zeros((K, K))
    even = np.arange(0, K, 2)
    odd = np.arange(1, K, 2)
    steps = -np.sqrt((even[1:] - 1.0) / even[1:])
    value = np.pi**-0.25 * np.cumprod(np.concatenate(([1.0], steps)))
    slope = np.sqrt(2.0 * odd) * value[: odd.size]
    block = slope[:, None] * value[None, :] / (2.0 * (odd[:, None] - even[None, :]))
    lambdaR[1::2, 0::2] = block
    lambdaR[0::2, 1::2] = block.T
    np.fill_diagonal(lambdaR, 0.5)
    return np.eye(K) - lambdaR, lambdaR


def dense(table: OverlapTable, side: str) -> np.ndarray:
    """All K x K entries of one side of the table."""
    modes = np.arange(table.K)
    return table.entries(side, modes[:, None], modes)


def test_ground_orbital_at_origin():
    assert eval_orbital(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-15)


def test_odd_orbitals_vanish_at_origin():
    for k in (1, 3, 5, 11):
        assert eval_orbital(k, 0.0) == 0.0


def test_orbital_normalization_against_quadrature():
    # independent oracle: adaptive quadrature of psi_k^2 over the full line
    for k in (0, 3, 7, 12):
        val, err = scipy.integrate.quad(
            lambda x: eval_orbital(k, x) ** 2, -np.inf, np.inf
        )
        assert err < 1e-7
        assert val == pytest.approx(1.0, abs=1e-10)


def test_orbital_parity():
    x = np.linspace(0.1, 5.0, 7)
    for k in (0, 1, 2, 5):
        sign = (-1.0) ** k
        assert np.allclose(eval_orbital(k, -x), sign * eval_orbital(k, x), atol=1e-14)


def test_underflow_guard_far_tail():
    # far outside the classically allowed region the value is exactly zero,
    # never NaN from inf * 0
    vals = eval_orbital(3, np.array([-60.0, 60.0, 1e200]))
    assert np.all(vals == 0.0)
    assert not np.any(np.isnan(vals))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=12),
    x=st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
)
def test_orbital_matches_hermite_reference(k, x):
    ref = norm_constant(k) * scipy.special.eval_hermite(k, x) * math.exp(-0.5 * x * x)
    assert eval_orbital(k, x) == pytest.approx(ref, rel=1e-9, abs=1e-12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(K=st.integers(1, 80))
def test_entries_match_the_dense_oracle_bit_for_bit(K):
    # every value keeps the dense construction's expression and operand order, so
    # its bits, and lambdaL's even entries stay +0.0 (a -0.0 would print as -0)
    table = build_overlap_table(K)
    for side, expect in zip("LR", wronskian_tables(K)):
        assert dense(table, side).tobytes() == expect.tobytes()


@pytest.mark.parametrize("K", [1, 2, 7, 8, 64, 513])
def test_left_table_is_the_parity_image_of_the_right(K):
    # phi_k phi_l has parity (-1)^(k+l): lambdaL = P lambdaR P, P = diag((-1)^k), exactly
    table = build_overlap_table(K)
    sign = (-1.0) ** np.arange(K)
    assert np.array_equal(dense(table, "L"), sign[:, None] * dense(table, "R") * sign)


def test_table_holds_its_boundary_values_only():
    # psi_k(0) for even k and psi_k'(0) for odd k: K floats, where the dense
    # matrices held 2 K^2 (16 TB here)
    K = 10**6
    table = build_overlap_table(K)
    arrays = [v for v in vars(table).values() if hasattr(v, "nbytes")]
    assert sum(a.nbytes for a in arrays) == 8 * K
    assert table.entries("R", 1, 0) == pytest.approx(ONE_OVER_SQRT_2PI, abs=1e-15)


def test_overlap_entry_01_closed_form(table8):
    # int_0^inf psi_0 psi_1 = 1/sqrt(2 pi)
    assert table8.entries("R", 0, 1) == pytest.approx(ONE_OVER_SQRT_2PI, abs=1e-12)
    assert table8.entries("L", 0, 1) == pytest.approx(-ONE_OVER_SQRT_2PI, abs=1e-12)


def test_even_parity_entries_are_exact(table8):
    K = table8.K
    R = dense(table8, "R")
    for k in range(K):
        for l in range(K):
            if (k + l) % 2 == 0:
                expect = 0.5 if k == l else 0.0
                assert R[k, l] == expect


def test_left_right_tables_sum_to_identity(table8):
    assert np.array_equal(dense(table8, "L") + dense(table8, "R"), np.eye(table8.K))


def test_odd_entries_against_quadrature_oracle(table8):
    # recompute a few closed-form entries with an adaptive integrator,
    # on both half-lines: the left table is stored as the complement of the
    # right one, so this pins it to the (-inf, 0] integrals themselves
    for k, l in ((0, 1), (1, 2), (2, 5), (3, 4)):
        for lo, hi, table in (
            (0.0, np.inf, dense(table8, "R")),
            (-np.inf, 0.0, dense(table8, "L")),
        ):
            val, err = scipy.integrate.quad(
                lambda x: eval_orbital(k, x) * eval_orbital(l, x), lo, hi
            )
            assert err < 1e-6
            assert table[k, l] == pytest.approx(val, abs=1e-8)


def test_table_symmetry(table64):
    R = dense(table64, "R")
    assert np.array_equal(R, R.T)


def test_bessel_bound_and_weight_capture(table512):
    # rows of a projection obey sum_l lambda[k,l]^2 <= lambda[k,k] = 1/2,
    # approaching equality as modes are added
    R = dense(table512, "R")
    sq = R @ R
    diag = np.diag(sq)
    assert np.all(diag <= 0.5 + 1e-12)
    assert diag[0] > 0.49


def test_projection_defect_shrinks_with_truncation():
    # fixed upper-left block of lambda^2 - lambda, compared across table sizes
    defects = {}
    for K in (16, 128):
        R = dense(build_overlap_table(K), "R")
        d = R @ R - R
        defects[K] = float(np.abs(d[:8, :8]).max())
    assert defects[128] < defects[16]


@pytest.mark.parametrize("K", [8, 64, 512])
def test_closed_form_matches_quadrature_oracle(K):
    table = build_overlap_table(K)
    assert np.abs(dense(table, "R") - quadrature_table(K)).max() <= 1e-13


def test_large_table_builds():
    K = 2048
    R = dense(build_overlap_table(K), "R")
    assert np.array_equal(R, R.T)
    kk = np.arange(K)
    even = ((kk[:, None] + kk[None, :]) % 2) == 0
    assert np.array_equal(R[even], (0.5 * np.eye(K))[even])
    assert R[0, 1] == pytest.approx(ONE_OVER_SQRT_2PI, abs=1e-15)
    # diag(R^2) is the row sum of squares, since R is symmetric
    assert np.all(np.einsum("ij,ij->i", R, R) <= 0.5)


def test_csv_export_roundtrips(table8, tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(table8, str(path))
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "l", "lambdaL", "lambdaR"]
    assert len(rows) == 1 + table8.K**2
    L, R = dense(table8, "L"), dense(table8, "R")
    for row in rows[1:]:
        k, l = int(row[0]), int(row[1])
        assert float(row[2]) == L[k, l]
        assert float(row[3]) == R[k, l]


@pytest.mark.parametrize("K", [1, 2, 3, 8])
def test_csv_export_matches_the_dense_oracle_bytes(K, tmp_path):
    # the former writer: every entry of both dense matrices through %.17g
    lambdaL, lambdaR = wronskian_tables(K)
    expect = "k,l,lambdaL,lambdaR\n" + "".join(
        "%d,%d,%.17g,%.17g\n" % (k, l, lambdaL[k, l], lambdaR[k, l])
        for k in range(K)
        for l in range(K)
    )
    path = tmp_path / "table.csv"
    write_table_csv(build_overlap_table(K), str(path))
    assert path.read_bytes() == expect.encode()


def test_tables_are_read_only(table8):
    for arr in (table8.value, table8.slope):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_tables_compare_and_hash_by_contents(table6):
    # two builds from one K are equal and hash alike; a one-ulp change in a value is another table
    again = build_overlap_table(6)
    assert again is not table6 and again == table6 and hash(again) == hash(table6)
    altered = OverlapTable(K=6, value=table6.value * (1 + 2.0**-52), slope=table6.slope)
    assert altered != table6
    assert table6 != build_overlap_table(7) and table6 != (6, table6.value, table6.slope)


def test_invalid_arguments_rejected(table8):
    with pytest.raises(ValueError):
        build_overlap_table(0)
    with pytest.raises(ValueError, match="side must be"):
        table8.entries("X", 0, 1)
    with pytest.raises(ValueError, match="slope must hold 4 entries"):
        OverlapTable(K=8, value=table8.value.copy(), slope=table8.slope[:3].copy())
