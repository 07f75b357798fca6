"""Half-line overlap integrals of the harmonic-oscillator eigenfunctions.

The overlap table lambdaR[k, l] = integral of phi_k * phi_l over [0, inf)
(and lambdaL over (-inf, 0]) is the single numerical input every
second-quantized half-space operator is built from. It is evaluated exactly
from the Wronskian identity: each entry is a ratio of the orbitals' values
and slopes at the origin, so no integral is computed at runtime, and the
table holds those O(K) boundary values rather than its K x K entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OverlapTable",
    "build_overlap_table",
    "write_table_csv",
]


@dataclass(frozen=True, eq=False)
class OverlapTable:
    """Half-line overlap matrices for the lowest K orbitals, as their boundary data.

    `value` holds psi_k(0) for the even k = 0, 2, ... and `slope` psi_k'(0)
    for the odd k = 1, 3, ...; `entries` forms any entry from them:
      - k + l odd: lambdaR_kl = W_kl(0) / (2 (k - l)), where the Wronskian
        W_kl(0) = psi_k'(0) psi_l(0) for odd k, and the matrix is symmetric;
      - k + l even: lambdaR_kl = delta_kl / 2 exactly;
      - lambdaL = delta - lambdaR, which is the (-inf, 0] integral: phi_k phi_l
        has parity (-1)^(k+l), so lambdaL = P lambdaR P with P = diag((-1)^k)
        holds by construction.

    Two tables are equal, and hash alike, when K and both arrays match byte for byte.
    """

    K: int
    value: np.ndarray
    slope: np.ndarray

    def __post_init__(self) -> None:
        for name, size in (("value", (self.K + 1) // 2), ("slope", self.K // 2)):
            arr = getattr(self, name)
            if arr.shape != (size,):
                raise ValueError(f"{name} must hold {size} entries, got shape {arr.shape}")
            arr.setflags(write=False)

    def _contents(self) -> tuple[int, bytes, bytes]:
        return self.K, self.value.tobytes(), self.slope.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, OverlapTable) and self._contents() == other._contents()

    def __hash__(self) -> int:
        return hash(self._contents())

    def entries(self, side: str, k, l) -> np.ndarray:
        """lambda^side_kl for mode indices k and l, broadcast against each other."""
        if side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {side!r}")
        k, l = np.broadcast_arrays(np.asarray(k), np.asarray(l))
        lam = np.where(k == l, 0.5, 0.0)
        mixed = (k + l) % 2 == 1
        # the odd index of each k + l odd pair carries the slope, the even one the value
        odd = np.where(k % 2 == 1, k, l)[mixed]
        even = np.where(k % 2 == 1, l, k)[mixed]
        lam[mixed] = self.slope[odd // 2] * self.value[even // 2] / (2.0 * (odd - even))
        return (k == l) - lam if side == "L" else lam


def build_overlap_table(K: int) -> OverlapTable:
    """Build the half-line overlap table for K modes from the Wronskian identity.

    psi_k'' = (xi^2 - 2k - 1) psi_k, so the Wronskian
    W_kl = psi_k' psi_l - psi_k psi_l' has derivative 2 (l - k) psi_k psi_l.
    It vanishes at infinity, hence for k != l

        lambdaR[k, l] = W_kl(0) / (2 (k - l)).

    For k + l odd exactly one of the two terms of W_kl(0) survives, since
    psi_k(0) = 0 for odd k and psi_k'(0) = 0 for even k; for k + l even the
    entry is delta_{kl}/2 exactly. The table keeps the surviving values:
    psi_k(0) for even k and psi_k'(0) for odd k.

    The table is evaluated in the dimensionless coordinate, so it is
    independent of the trap's mass and frequency.
    """
    if K < 1:
        raise ValueError(f"mode count must be >= 1, got {K}")
    even = np.arange(0, K, 2)
    odd = np.arange(1, K, 2)
    # psi_k(0) for even k, from psi_k(0) = -sqrt((k-1)/k) psi_{k-2}(0)
    steps = -np.sqrt((even[1:] - 1.0) / even[1:])
    value = np.pi**-0.25 * np.cumprod(np.concatenate(([1.0], steps)))
    # psi_k'(0) = sqrt(2k) psi_{k-1}(0) for odd k: the ladder identity
    # psi_k' = sqrt(k/2) psi_{k-1} - sqrt((k+1)/2) psi_{k+1} at the origin
    slope = np.sqrt(2.0 * odd) * value[: odd.size]
    return OverlapTable(K=K, value=value, slope=slope)


def write_table_csv(table: OverlapTable, path: str) -> None:
    """Export the table as CSV rows `k,l,lambdaL,lambdaR` at full precision, one row of k at a time."""
    modes = np.arange(table.K)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("k,l,lambdaL,lambdaR\n")
        for k in range(table.K):
            left = table.entries("L", k, modes).tolist()
            right = table.entries("R", k, modes).tolist()
            # k + l even: the entries are delta_kl / 2 on both sides
            fh.write("".join(
                "%d,%d,%.17g,%.17g\n" % (k, l, left[l], right[l]) if (k + l) % 2
                else ("%d,%d,0.5,0.5\n" if k == l else "%d,%d,0,0\n") % (k, l)
                for l in range(table.K)
            ))
