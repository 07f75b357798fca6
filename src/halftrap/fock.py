"""Truncated multimode bosonic Fock space: basis, Lambda operators, embedding.

Operators are `scipy.sparse.csr_matrix` and trap vectors complex arrays in
basis order. This is the explicit computational path. It is exact within the
truncation (total particle number <= n_max over K modes) and is used to
validate the closed-form moment path on small instances and to run exact
time evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp

from .orbitals import OverlapTable

__all__ = [
    "FockBasis",
    "number_operator",
    "build_lambda_operator",
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
    blocks contiguous.
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
            # stars and bars: the K - 1 bars among n + K - 1 slots, in lex order; the
            # gaps around the bars are the occupations
            bars = np.array(list(combinations(range(n + K - 1), K - 1)), dtype=np.int64)
            ends = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, n + K - 1))
            sectors.append(np.diff(ends, axis=1) - 1)
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


def number_operator(basis: FockBasis) -> sp.csr_matrix:
    """Total particle number, diagonal in the occupation basis."""
    return sp.diags(basis.states.sum(axis=1).astype(float)).tocsr()


def build_lambda_operator(side: str, table: OverlapTable, basis: FockBasis) -> sp.csr_matrix:
    """Second-quantized half-space operator sum_{kl} lambda_{kl} a_k^dag a_l.

    Number conserving by construction; hermitian because the overlap matrix
    is symmetric real.
    """
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if table.K != basis.K:
        raise ValueError(
            f"overlap table has K={table.K} but basis has K={basis.K} modes"
        )
    lam = table.lambdaL if side == "L" else table.lambdaR
    occ = basis.states
    # codes with digits (total, n_0, ..., n_{K-1}) in base n_max + 1 increase along the
    # graded basis, so searchsorted finds the target of a_k^dag a_l; Python ints past int64
    base = basis.n_max + 1
    dtype = np.int64 if base ** (basis.K + 1) < 2**63 else object
    w = np.array([base**p for p in range(basis.K, -1, -1)], dtype=dtype)
    codes = np.column_stack([occ.sum(axis=1), occ]) @ w
    # entries by state j, then l (n_l > 0), then k (lambda_kl != 0): fixes the diagonal's sum order
    j, l = np.nonzero(occ)
    p, k = np.nonzero(lam[:, l].T != 0.0)
    j, l = j[p], l[p]
    rows = np.searchsorted(codes, codes[j] - w[1 + l] + w[1 + k])
    vals = lam[k, l] * np.sqrt(occ[j, l] * (occ[j, k] + (k != l)))
    return sp.coo_matrix(
        (vals, (rows, j)), shape=(basis.dimension, basis.dimension)
    ).tocsr()


def to_fock_vector(coeffs: np.ndarray, basis: FockBasis) -> np.ndarray:
    """Embed lowest-orbital amplitudes c_n, n = 0..n_cut, as a complex array over `basis`."""
    if len(coeffs) - 1 > basis.n_max:
        raise ValueError(
            f"component cutoff {len(coeffs) - 1} exceeds basis capacity {basis.n_max}"
        )
    v = np.zeros(basis.dimension, dtype=np.complex128)
    # (n, 0, ..., 0) is the last state of sector n
    v[[comb(n + basis.K, basis.K) - 1 for n in range(len(coeffs))]] = coeffs
    return v


def single_particle_commutator_residual(table: OverlapTable) -> float:
    """Max-norm of [Lambda_L, Lambda_R] on the one-particle block.

    Measured, never assumed: phi_k phi_l has parity (-1)^(k+l), so the
    half-line integrals obey lambdaL = P lambdaR P = I - lambdaR with
    P = diag((-1)^k), and the two operators commute identically at every
    truncation (the deviation from half-space locality shows up in their
    product instead, see `locality_product_residual`). This diagnostic
    returns the actual floating-point residual, whatever it is.
    """
    basis = FockBasis(table.K, 1)
    lamL = build_lambda_operator("L", table, basis)
    lamR = build_lambda_operator("R", table, basis)
    comm = lamL @ lamR - lamR @ lamL
    return float(abs(comm).max()) if comm.nnz else 0.0


def locality_product_residual(table: OverlapTable) -> float:
    """Max-norm of (lambdaL @ lambdaR) on the fixed low-mode block of `_LOCALITY_BLOCK` modes.

    For disjoint half-spaces the product of the one-particle projections
    vanishes; truncating the intermediate mode sum at K leaves a residual
    that decays as the truncation grows. Restricting to a fixed block keeps
    the diagnostic away from the truncation edge, where the deficit stays
    order one.
    """
    b = min(_LOCALITY_BLOCK, table.K)
    prod = table.lambdaL @ table.lambdaR
    return float(np.abs(prod[:b, :b]).max())
