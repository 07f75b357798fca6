"""Closed-form block moments <Lambda_I^dag Lambda_J> for any trap state.

For a pure lowest-orbital component sum_n c_n |n>, ladder algebra gives

    m_IJ = E[n] * T_IJ + E[n(n-1)] * lambda^I_00 lambda^J_00,
    T_IJ = sum_{k<K} lambda^I_k0 lambda^J_k0,

with both expectations taken over the populations p_n = |c_n|^2; cross terms
between different n vanish because the two operators conserve total particle
number, and a mixture of number states enters through its populations the
same way. This path scales to large K and large mean particle number without
ever building a Fock space; the explicit Fock path (module fock)
cross-validates it on small instances.

The overlap column decays as k^(-3/4), so the truncated sums T_IJ converge
only like K^(-1/2). `extrapolated_moments` removes that tail by Richardson
extrapolation in K over a ladder of prefix sums of one table, which is exact
here because the moments are affine in the tails; the residual drops to
O(K^(-5/2)), far below every tolerance used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import NamedTuple

import numpy as np

from .orbitals import OverlapTable
from .states import TrapState, to_fock_vector

__all__ = [
    "ProbeBlockMoments",
    "TruncationSums",
    "truncation_sums",
    "moments_from_state",
    "moments_from_fock",
    "analytic_limit_moments",
    "extrapolated_moments",
]

_EXTRAPOLATION_EXPONENTS = (0.0, 0.5, 1.5)


class TruncationSums(NamedTuple):
    T_LL: float
    T_LR: float
    T_RR: float


@dataclass(frozen=True)
class ProbeBlockMoments:
    """The three block entries and their normalization S = mLL + mRR."""

    mLL: float
    mRR: float
    mLR: complex
    provenance: str
    K: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mLL < 0 or self.mRR < 0:
            raise ValueError(
                f"diagonal moments must be non-negative, got {self.mLL}, {self.mRR}"
            )
        slack = 1e-9 * max(self.mLL * self.mRR, 1e-300)
        if abs(self.mLR) ** 2 > self.mLL * self.mRR + slack:
            raise ValueError(
                "block moments violate the Cauchy-Schwarz bound: "
                f"|mLR|^2 = {abs(self.mLR) ** 2!r} > mLL*mRR = {self.mLL * self.mRR!r}"
            )

    @property
    def S(self) -> float:
        return self.mLL + self.mRR


def truncation_sums(table: OverlapTable, K: int | None = None) -> TruncationSums:
    """Compensated prefix sums T_IJ = sum_{k<K} lambda^I_k0 lambda^J_k0.

    The L/R cross sum loses all but K^(-1/2) of itself to cancellation, so
    every sum is accumulated error-free via fsum.
    """
    kmax = table.K if K is None else K
    if not 1 <= kmax <= table.K:
        raise ValueError(f"prefix length {kmax} outside 1..{table.K}")
    colL = table.lambdaL[:kmax, 0]
    colR = table.lambdaR[:kmax, 0]
    t_ll = fsum((colL * colL).tolist())
    t_lr = fsum((colL * colR).tolist())
    t_rr = fsum((colR * colR).tolist())
    return TruncationSums(t_ll, t_lr, t_rr)


def _assemble(
    state: TrapState,
    sums: TruncationSums,
    lam00_L: float,
    lam00_R: float,
    provenance: str,
    K: int | None,
    diagnostics: dict,
) -> ProbeBlockMoments:
    n1, n2 = state.factorial_moments()
    mLL = sums.T_LL * n1 + lam00_L * lam00_L * n2
    mRR = sums.T_RR * n1 + lam00_R * lam00_R * n2
    mLR = sums.T_LR * n1 + lam00_L * lam00_R * n2
    diagnostics = dict(diagnostics)
    diagnostics.setdefault("tail_mass", state.tail_mass)
    return ProbeBlockMoments(
        mLL=mLL,
        mRR=mRR,
        mLR=complex(mLR),
        provenance=provenance,
        K=K,
        diagnostics=diagnostics,
    )


def moments_from_state(state: TrapState, table: OverlapTable) -> ProbeBlockMoments:
    """Finite-K block moments, same truncation as the table."""
    sums = truncation_sums(table)
    return _assemble(
        state,
        sums,
        float(table.lambdaL[0, 0]),
        float(table.lambdaR[0, 0]),
        provenance="finite-K",
        K=table.K,
        diagnostics={"T_LR_raw": sums.T_LR},
    )


def moments_from_fock(state: TrapState, table: OverlapTable, n_max: int) -> ProbeBlockMoments:
    """Block moments as multimode expectation values <Lambda_I phi, Lambda_J phi>.

    Independent of the factorial-moment route: the state is embedded in an
    occupation basis and the operators applied as sparse matrices. A pure
    state is embedded whole, so the vanishing of the cross terms between
    different n is checked rather than assumed; a mixture contributes one
    number state per n. Cost grows combinatorially with (K, n_max), so this
    is a cross-check for small truncations, not a production path.
    """
    from . import fock

    basis = fock.FockBasis(table.K, n_max)
    lamL = fock.build_lambda_operator("L", table, basis)
    lamR = fock.build_lambda_operator("R", table, basis)
    if state.is_pure:
        terms = [(1.0, state.amplitudes)]
    else:
        terms = [(p, np.eye(1, n + 1, n)[0]) for n, p in enumerate(state.populations)]
    mLL = 0.0
    mRR = 0.0
    mLR = 0.0 + 0.0j
    for weight, coeffs in terms:
        v = to_fock_vector(coeffs, basis)
        vL = fock.apply(lamL, v)
        vR = fock.apply(lamR, v)
        mLL += weight * fock.inner(vL, vL).real
        mRR += weight * fock.inner(vR, vR).real
        mLR += weight * fock.inner(vL, vR)
    return ProbeBlockMoments(
        mLL=float(mLL),
        mRR=float(mRR),
        mLR=complex(mLR),
        provenance="fock-K",
        K=table.K,
        diagnostics={"n_max": n_max, "dimension": basis.dimension},
    )


def analytic_limit_moments(state: TrapState) -> ProbeBlockMoments:
    """Block moments in the infinite-mode limit: T_LL = T_RR = 1/2, T_LR = 0."""
    sums = TruncationSums(0.5, 0.0, 0.5)
    return _assemble(
        state, sums, 0.5, 0.5, provenance="analytic-limit", K=None, diagnostics={}
    )


def _richardson(values: np.ndarray, ladder: tuple[int, ...]) -> float:
    """Leading coefficient of a fit in powers K^(-e) over the ladder."""
    A = np.array([[k ** -e for e in _EXTRAPOLATION_EXPONENTS] for k in ladder])
    coeffs = np.linalg.solve(A, values)
    return float(coeffs[0])


def extrapolated_moments(state: TrapState, table: OverlapTable) -> ProbeBlockMoments:
    """Block moments with the K^(-1/2) truncation tail extrapolated away.

    The three prefix sums are evaluated at K/4, K/2 and K and fitted to
    a + b K^(-1/2) + c K^(-3/2); the constant term is the extrapolated sum.
    Entry (0,0) is exact at any truncation and is used as is.
    """
    if table.K % 4 != 0 or table.K < 32:
        raise ValueError(
            f"default ladder needs K divisible by 4 and >= 32, got K={table.K}; "
            "set moments.extrapolate = false, or a table.K >= 32 divisible by 4"
        )
    ladder = (table.K // 4, table.K // 2, table.K)
    per_rung = [truncation_sums(table, k) for k in ladder]
    sums = TruncationSums(
        *(
            _richardson(np.array([s[i] for s in per_rung]), ladder)
            for i in range(3)
        )
    )
    raw = per_rung[-1]
    return _assemble(
        state,
        sums,
        float(table.lambdaL[0, 0]),
        float(table.lambdaR[0, 0]),
        provenance="extrapolated-K",
        K=table.K,
        diagnostics={
            "ladder": ladder,
            "T_LR_raw": raw.T_LR,
            "T_LR_extrapolated": sums.T_LR,
        },
    )
