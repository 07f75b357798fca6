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

The moments read only column 0 of the overlap table, and that column
collapses to one series. By parity lambda^L_00 = lambda^R_00 = 1/2, the
even entries below them vanish, and the odd ones obey
lambda^L_k0 = -lambda^R_k0; the Wronskian value of an odd entry
k = 2m + 1 is

    (lambda^R_k0)^2 = C(2m, m) / (4^m 2 pi (2m + 1)).

Hence T_LL = T_RR = 1/4 + s(K) and T_LR = 1/4 - s(K), with

    s(K) = (1/2pi) sum_{m < floor(K/2)} C(2m, m) / (4^m (2m + 1)),

the Taylor series of arcsin(x) / 2pi at x = 1. Its limit arcsin(1) / 2pi
= 1/4 is the completeness limit T_LL = T_RR = 1/2, T_LR = 0, which
`analytic_limit_moments` evaluates exactly; the partial sum converges only
like K^(-1/2), so a finite K leaves that tail in T_LR. Past 2^16 terms the
tail, sqrt(pi M) tail = 1 + 1/(24 M) - ... with M = floor(K/2), is summed
from its asymptotic series instead, so any K costs the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, pi, sqrt
from typing import TYPE_CHECKING

import numpy as np

from .states import TrapState

if TYPE_CHECKING:  # annotations only: importing moments loads no scipy.sparse
    import scipy.sparse as sp

    from .fock import FockBasis

__all__ = [
    "ProbeBlockMoments",
    "moments_from_state",
    "moments_from_fock",
    "analytic_limit_moments",
]

# past this many terms M = floor(K/2), s(K) comes from the asymptotic series of the tail
_ASYMPTOTIC_M = 1 << 16
# the tail sum_{m >= M} C(2m, m) / (4^m (2m + 1)) times sqrt(pi M), in powers of 1/M: the
# Euler-Maclaurin sum of the large-m expansion of Gamma(m + 1/2) / (sqrt(pi) Gamma(m + 1) (2m + 1));
# the next term, 721 / (98304 M^4), is below 1e-21 past _ASYMPTOTIC_M
_TAIL_SERIES = (1.0, 1.0 / 24.0, -19.0 / 640.0, -155.0 / 21504.0)


@dataclass(frozen=True)
class ProbeBlockMoments:
    """The three block entries and their normalization S = mLL + mRR."""

    mLL: float
    mRR: float
    mLR: complex
    provenance: str
    K: int | None = None

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


def _arcsin_terms(M: int) -> np.ndarray:
    """C(2m, m) / (4^m (2m + 1)) for m < M, M at most `_ASYMPTOTIC_M`."""
    m = np.arange(M, dtype=float)
    # C(2m+2, m+1) / 4^(m+1) = C(2m, m) / 4^m * (2m+1) / (2m+2), from C(0, 0) / 4^0 = 1
    run = np.cumprod(np.concatenate(([1.0], (2.0 * m + 1.0) / (2.0 * m + 2.0))))
    return run[:-1] / (2.0 * m + 1.0)


def _assemble(
    state: TrapState, s: float, provenance: str, K: int | None
) -> ProbeBlockMoments:
    """m_IJ from T_LL = T_RR = 1/4 + s, T_LR = 1/4 - s and lambda_00 = 1/2."""
    n1, n2 = state.factorial_moments()
    diag = (0.25 + s) * n1 + 0.25 * n2
    return ProbeBlockMoments(
        mLL=diag,
        mRR=diag,
        mLR=complex((0.25 - s) * n1 + 0.25 * n2),
        provenance=provenance,
        K=K,
    )


def _partial_sum(K: int) -> float:
    """s(K), the arcsin series' partial sum over m < floor(K/2), divided by 2 pi.

    Up to `_ASYMPTOTIC_M` terms the float terms are summed exactly rounded
    (fsum), in O(K) time and bounded memory. The terms themselves carry the
    rounding of the running product in `_arcsin_terms`, so s(K) is not
    exactly rounded: it lies within 1.7 ulp of its exact value (1.53 ulp at
    K = 4096, 1.23 at K = 2^17). Past `_ASYMPTOTIC_M` terms
    s = 1/4 - tail / 2 pi, with the tail from `_TAIL_SERIES`, in O(1).
    """
    M = K // 2
    if M <= _ASYMPTOTIC_M:
        return fsum(memoryview(_arcsin_terms(M))) / (2.0 * pi)
    series = 0.0
    for c in reversed(_TAIL_SERIES):
        series = series / M + c
    return 0.25 - series / (sqrt(pi * M) * (2.0 * pi))


def moments_from_state(state: TrapState, K: int) -> ProbeBlockMoments:
    """Block moments truncated to the lowest K trap modes (s(K) from `_partial_sum`)."""
    if K < 1:
        raise ValueError(f"mode count must be >= 1, got {K}")
    return _assemble(state, _partial_sum(K), provenance="finite-K", K=K)


def moments_from_fock(state: TrapState, basis: FockBasis, D: sp.csr_matrix) -> ProbeBlockMoments:
    """Block moments as multimode expectation values <Lambda_I phi, Lambda_J phi>.

    Independent of the factorial-moment route: the state is embedded in the
    occupation basis `basis` as one vector, `TrapState.vector` =
    sum_n sqrt(p_n) |n>, and Lambda_{L,R} phi = (N phi +- D phi) / 2 are
    formed from the particle number N and the caller's D = Lambda_L - Lambda_R
    (`fock.build_imbalance_operator`), so the vanishing of the cross terms
    between different n is checked rather than assumed, for every family.
    Cost grows combinatorially with (K, n_max), so this is a cross-check for
    small truncations, not a production path.
    """
    from .fock import to_fock_vector

    v = to_fock_vector(state.vector, basis)
    nv, dv = basis.states.sum(axis=1) * v, D @ v
    vL = (nv + dv) / 2
    vR = (nv - dv) / 2
    return ProbeBlockMoments(
        mLL=float(np.vdot(vL, vL).real),
        mRR=float(np.vdot(vR, vR).real),
        mLR=complex(np.vdot(vL, vR)),
        provenance="fock-K",
        K=basis.K,
    )


def analytic_limit_moments(state: TrapState) -> ProbeBlockMoments:
    """Block moments in the infinite-mode limit s = 1/4: T_LL = T_RR = 1/2, T_LR = 0."""
    return _assemble(state, 0.25, provenance="analytic-limit", K=None)
