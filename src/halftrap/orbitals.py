"""Half-line overlap integrals of the harmonic-oscillator eigenfunctions.

The overlap table lambdaR[k, l] = integral of phi_k * phi_l over [0, inf)
(and lambdaL over (-inf, 0]) is the single numerical input every
second-quantized half-space operator is built from. It is evaluated exactly
from the Wronskian identity: each entry is a ratio of the orbitals' values
and slopes at the origin, so no integral is computed at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OverlapTable",
    "build_overlap_table",
    "write_table_csv",
]


@dataclass(frozen=True)
class OverlapTable:
    """Half-line overlap matrices for the lowest K orbitals.

    Invariants established at construction:
      - parity rule: phi_k phi_l has parity (-1)^(k+l), so the half-line
        integrals obey lambdaL_kl = (-1)^(k+l) lambdaR_kl. Entries with k + l
        even are exactly delta_{kl}/2; entries with k + l odd carry the
        Wronskian value W_kl(0) / (2 (k - l)), with lambdaL = -lambdaR.
      - hence lambdaL + lambdaR == identity, entrywise exact; lambdaL is
        stored as that complement, which equals the (-inf, 0] integral.
      - both matrices exactly symmetric: the k + l odd block is computed
        once and stored with its transpose.
    """

    K: int
    lambdaL: np.ndarray
    lambdaR: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lambdaL", "lambdaR"):
            arr = getattr(self, name)
            if arr.shape != (self.K, self.K):
                raise ValueError(f"{name} must be {self.K}x{self.K}, got {arr.shape}")
            arr.setflags(write=False)


def build_overlap_table(K: int) -> OverlapTable:
    """Build the half-line overlap table for K modes from the Wronskian identity.

    psi_k'' = (xi^2 - 2k - 1) psi_k, so the Wronskian
    W_kl = psi_k' psi_l - psi_k psi_l' has derivative 2 (l - k) psi_k psi_l.
    It vanishes at infinity, hence for k != l

        lambdaR[k, l] = W_kl(0) / (2 (k - l)).

    For k + l odd exactly one of the two terms of W_kl(0) survives, since
    psi_k(0) = 0 for odd k and psi_k'(0) = 0 for even k; for k + l even the
    entry is delta_{kl}/2 exactly. lambdaL is the complement delta - lambdaR.

    The table is evaluated in the dimensionless coordinate, so it is
    independent of the trap's mass and frequency.
    """
    if K < 1:
        raise ValueError(f"mode count must be >= 1, got {K}")
    # the K x K allocation comes first, so a K too large for memory fails
    # before any other work
    lambdaR = np.zeros((K, K))
    even = np.arange(0, K, 2)
    odd = np.arange(1, K, 2)
    # psi_k(0) for even k, from psi_k(0) = -sqrt((k-1)/k) psi_{k-2}(0)
    steps = -np.sqrt((even[1:] - 1.0) / even[1:])
    value = np.pi**-0.25 * np.cumprod(np.concatenate(([1.0], steps)))
    # psi_k'(0) = sqrt(2k) psi_{k-1}(0) for odd k: the ladder identity
    # psi_k' = sqrt(k/2) psi_{k-1} - sqrt((k+1)/2) psi_{k+1} at the origin
    slope = np.sqrt(2.0 * odd) * value[: odd.size]
    # rows of odd k, columns of even l: W_kl(0) = psi_k'(0) psi_l(0)
    block = slope[:, None] * value[None, :] / (2.0 * (odd[:, None] - even[None, :]))
    lambdaR[1::2, 0::2] = block
    lambdaR[0::2, 1::2] = block.T
    np.fill_diagonal(lambdaR, 0.5)
    lambdaL = np.eye(K) - lambdaR
    return OverlapTable(K=K, lambdaL=lambdaL, lambdaR=lambdaR)


def write_table_csv(table: OverlapTable, path: str) -> None:
    """Export the table as CSV rows `k,l,lambdaL,lambdaR` at full precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,l,lambdaL,lambdaR\n")
        for k in range(table.K):
            for l in range(table.K):
                fh.write(
                    "%d,%d,%.17g,%.17g\n"
                    % (k, l, table.lambdaL[k, l], table.lambdaR[k, l])
                )
