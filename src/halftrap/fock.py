"""Truncated multimode bosonic Fock space: basis, the Lambda imbalance, embedding.

Operators are `scipy.sparse.csr_matrix` and trap vectors complex arrays in
basis order. lambda^L + lambda^R = 1 makes Lambda_L + Lambda_R = N, the
particle number, so the one operator built is D = Lambda_L - Lambda_R, and
Lambda_{L,R} = (N +- D) / 2. This is the explicit computational path. It is
exact within the truncation (total particle number <= n_max over K modes)
and is used to validate the closed-form moment path on small instances and
to run exact time evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np
import scipy.sparse as sp

from .orbitals import OverlapTable

__all__ = [
    "FockBasis",
    "build_imbalance_operator",
    "to_fock_vector",
    "single_particle_commutator_residual",
    "locality_product_residual",
]


# modes of the low block `locality_product_residual` reads; part of the `commutator` target
_LOCALITY_BLOCK = 8


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis over K modes with total particles <= n_max.

    `states` is a read-only (dimension, K) int64 array of occupations in
    graded lexicographic order (by total, then lexicographic on the
    occupations), which is stable across runs and makes particle-number
    blocks contiguous. Sector n is enumerated as the multisets of n modes
    (`itertools.combinations_with_replacement`), whose lex order is the
    reverse of their occupations', and counted into rows by one bincount.
    """

    K: int
    n_max: int
    states: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError(f"mode count must be >= 1, got {self.K}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        K = self.K
        sectors = []
        for n in range(self.n_max + 1):
            # row r counts the modes of multiset rows - 1 - r, over the flat (row, mode) cells
            rows = comb(n + K - 1, n)
            flat = chain.from_iterable(combinations_with_replacement(range(K), n))
            cells = np.fromiter(flat, np.int64, count=rows * n)
            cells += np.arange((rows - 1) * K, -1, -K).repeat(n)
            sectors.append(np.bincount(cells, minlength=rows * K).reshape(rows, K))
        states = np.concatenate(sectors)
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def dimension(self) -> int:
        return len(self.states)

    def sectors(self) -> list[slice]:
        """Index range of each particle-number sector N = 0..n_max."""
        edges = [comb(n + self.K - 1, self.K) for n in range(self.n_max + 2)]
        return [slice(a, b) for a, b in zip(edges, edges[1:])]


def build_imbalance_operator(table: OverlapTable, basis: FockBasis) -> sp.csr_matrix:
    """D = Lambda_L - Lambda_R = sum_{k + l odd} (lambda^L_kl - lambda^R_kl) a_k^dag a_l, in CSR.

    lambdaL = delta - lambdaR, so D has no diagonal, and off it
    lambda^L_kl - lambda^R_kl = -2 lambda^R_kl bit for bit. Every entry is
    the coefficient times <m + e_k| a_k^dag a_l |m + e_l> =
    sqrt((m_k + 1) (m_l + 1)) for a state m one particle down, and no two
    pairs reach the same entry, so scipy's COO -> CSR conversion sorts the
    entries and sums none.
    """
    if table.K != basis.K:
        raise ValueError(
            f"overlap table has K={table.K} but basis has K={basis.K} modes"
        )
    # m -> m + e_k maps the states below the top sector, in order, onto the states
    # with n_k > 0, so up[m, k] is the index of m + e_k
    _, j = np.nonzero(basis.states.T)
    up = j.reshape(basis.K, -1).T
    raised = basis.states[: len(up)] + 1
    modes = np.arange(basis.K if len(up) else 0)  # no pairs without a particle to move
    k, l = np.nonzero(modes[:, None] % 2 != modes % 2)
    vals = (-2.0 * table.entries("R", k, l)) * np.sqrt(raised[:, l] * raised[:, k])
    return sp.coo_matrix((vals.ravel(), (up[:, k].ravel(), up[:, l].ravel())), shape=(basis.dimension,) * 2).tocsr()


def to_fock_vector(coeffs: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Embed lowest-orbital amplitudes c_n, n = 0..n_cut, as a complex array over `basis`."""
    if len(coeffs) - 1 > basis.n_max:
        raise ValueError(
            f"state cutoff {len(coeffs) - 1} exceeds basis capacity {basis.n_max}"
        )
    v = np.zeros(basis.dimension, dtype=np.complex128)
    # (n, 0, ..., 0) is the last state of sector n
    v[[comb(n + basis.K, basis.K) - 1 for n in range(len(coeffs))]] = coeffs
    return v


def single_particle_commutator_residual(table: OverlapTable) -> float:
    """Max-norm of [Lambda_L, Lambda_R] on the one-particle block, where Lambda_I is lambda^I.

    Formed from the dense K x K entries, for the locality ladder's K <= 64.
    Measured, never assumed: phi_k phi_l has parity (-1)^(k+l), so the
    half-line integrals obey lambdaL = P lambdaR P = I - lambdaR with
    P = diag((-1)^k), and the two operators commute identically at every
    truncation (the deviation from half-space locality shows up in their
    product instead, see `locality_product_residual`). This diagnostic
    returns the actual floating-point residual, whatever it is.
    """
    modes = np.arange(table.K)
    lamL, lamR = (table.entries(side, modes[:, None], modes) for side in "LR")
    return float(np.abs(lamL @ lamR - lamR @ lamL).max())


def locality_product_residual(table: OverlapTable) -> float:
    """Max-norm of (lambdaL @ lambdaR) on the fixed low-mode block of `_LOCALITY_BLOCK` modes.

    For disjoint half-spaces the product of the one-particle projections
    vanishes; truncating the intermediate mode sum at K leaves a residual
    that decays as the truncation grows. Restricting to a fixed block keeps
    the diagnostic away from the truncation edge, where the deficit stays
    order one.
    """
    block, modes = np.arange(min(_LOCALITY_BLOCK, table.K)), np.arange(table.K)
    prod = table.entries("L", block[:, None], modes) @ table.entries("R", modes[:, None], block)
    return float(np.abs(prod).max())
