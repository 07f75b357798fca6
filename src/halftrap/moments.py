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
like K^(-1/2), so a finite K leaves that tail in T_LR.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, pi
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

# series terms per block: memory stays bounded at any K
_BLOCK = 1 << 16


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


def _arcsin_terms(M: int):
    """C(2m, m) / (4^m (2m + 1)) for m < M, block by block."""
    central = 1.0  # C(2m, m) / 4^m at the first m of the block
    for lo in range(0, M, _BLOCK):
        m = np.arange(lo, min(lo + _BLOCK, M), dtype=float)
        # C(2m+2, m+1) / 4^(m+1) = C(2m, m) / 4^m * (2m+1) / (2m+2); the
        # running product carries over to the next block in its last entry
        run = np.cumprod(np.concatenate(([central], (2.0 * m + 1.0) / (2.0 * m + 2.0))))
        central = run[-1]
        yield from (run[:-1] / (2.0 * m + 1.0)).tolist()


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


def moments_from_state(state: TrapState, K: int) -> ProbeBlockMoments:
    """Block moments truncated to the lowest K trap modes.

    s(K) is summed exactly rounded (fsum), in O(K) time and bounded memory.
    """
    if K < 1:
        raise ValueError(f"mode count must be >= 1, got {K}")
    s = fsum(_arcsin_terms(K // 2)) / (2.0 * pi)
    return _assemble(state, s, provenance="finite-K", K=K)


def moments_from_fock(
    state: TrapState, basis: FockBasis, lamL: sp.csr_matrix, lamR: sp.csr_matrix
) -> ProbeBlockMoments:
    """Block moments as multimode expectation values <Lambda_I phi, Lambda_J phi>.

    Independent of the factorial-moment route: the state is embedded in the
    occupation basis `basis` as one vector, `TrapState.vector` =
    sum_n sqrt(p_n) |n>, and the caller's Lambda_L and Lambda_R on it (CSR
    matrices from `fock.build_lambda_operator`) are applied to it, so the
    vanishing of the cross terms between different n is checked rather than
    assumed, for every family. Cost grows combinatorially with (K, n_max),
    so this is a cross-check for small truncations, not a production path.
    """
    from .fock import to_fock_vector

    v = to_fock_vector(state.vector, basis)
    vL = lamL @ v
    vR = lamR @ v
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
