"""Entanglement negativity, its closed forms, and the disturbance fidelity.

Negativity convention: sum of absolute values of the negative eigenvalues
of the partial transpose (not doubled, not logarithmic), so a maximally
entangled pair of two-level systems scores 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import moments as moments_mod
from .measurement import ProbeBlock
from .states import TrapState

__all__ = [
    "BipartiteDensity",
    "block_negativity",
    "negativity",
    "probe_block_density",
    "negativity_closed_form",
    "disturbance_fidelity",
]


@dataclass(frozen=True)
class BipartiteDensity:
    """Density matrix on a d_A x d_B product space, flattened row-major."""

    d_A: int
    d_B: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", rho)
        rho.setflags(write=False)
        dim = self.d_A * self.d_B
        if rho.shape != (dim, dim):
            raise ValueError(f"matrix must be {dim}x{dim}, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix must be finite")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("density matrix must be hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(rho)!r}")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")


def negativity(rho: BipartiteDensity) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over B."""
    four = rho.matrix.reshape(rho.d_A, rho.d_B, rho.d_A, rho.d_B)
    pt = four.transpose(0, 3, 2, 1).reshape(rho.matrix.shape)
    eigs = np.linalg.eigvalsh(pt)
    # abs, not negation: with no negative eigenvalue the sum is 0.0, never -0.0
    return float(abs(eigs[eigs < 0.0].sum()))


def block_negativity(block: ProbeBlock) -> float:
    """Negativity of the post-selected probe pair, |rho_01|, without an eigensolver.

    In the product basis the pair's density is rho_00 |10><10| + rho_11 |01><01|
    + rho_01 |10><01| + h.c. Transposing probe R maps |10><01| to |11><00|, so
    the partial transpose is diag(rho_00, rho_11) on {|10>, |01>} next to the
    block [[0, rho_01^*], [rho_01, 0]] on {|00>, |11>}. Its one negative
    eigenvalue is -|rho_01|. `negativity(probe_block_density(block))` is the
    numerical check of this value (the `structural` acceptance target).
    """
    return float(abs(block.matrix[0, 1]))


def probe_block_density(block: ProbeBlock) -> BipartiteDensity:
    """Embed the {|10>, |01>} block into the full two-probe product space."""
    rho = np.zeros((4, 4), dtype=np.complex128)
    # flat index b_L * 2 + b_R: |10> -> 2, |01> -> 1
    rho[2, 2] = block.matrix[0, 0]
    rho[2, 1] = block.matrix[0, 1]
    rho[1, 2] = block.matrix[1, 0]
    rho[1, 1] = block.matrix[1, 1]
    return BipartiteDensity(2, 2, rho)


def negativity_closed_form(kind: str, value: float) -> float:
    """Large-truncation negativity for coherent (mean number) / number (N) input."""
    if kind == "coherent":
        if value < 0:
            raise ValueError(f"mean particle number must be >= 0, got {value}")
        return 0.5 * value / (2.0 + value)
    if kind == "number":
        N = value
        if N != int(N) or N < 0:
            raise ValueError(f"particle number must be a non-negative integer, got {value}")
        if N <= 1:
            return 0.0
        return 0.5 * (N - 1.0) / (N + 1.0)
    raise ValueError(f"no closed form for state kind {kind!r}")


def disturbance_fidelity(
    state: TrapState, mom: moments_mod.ProbeBlockMoments | None = None
) -> float:
    """Overlap between the initial coherent state and its post-extraction remnant.

    F = |<phi|Lambda_L|phi>| / (|phi| * |Lambda_L phi|). The matrix element
    <Lambda_L> equals lambda_00 E[n], and lambda_00 = 1/2 exactly at every
    truncation; the denominator is sqrt(mLL) of `mom`, the block moments of
    `state` on the route in use. With no moments the infinite-truncation
    limit is used, which reduces to 1/sqrt(1 + 2/<n>) for a coherent state.
    """
    if state.kind != "coherent":
        raise ValueError(f"disturbance fidelity is defined for coherent input, got {state.kind!r}")
    if mom is None:
        mom = moments_mod.analytic_limit_moments(state)
    if mom.mLL <= 0.0:
        raise ValueError("zero-norm disturbed state: fidelity undefined for vacuum input")
    n1, _ = state.factorial_moments()
    return 0.5 * n1 / (sqrt(state.norm_sq()) * sqrt(mom.mLL))
