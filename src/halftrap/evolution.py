"""Joint trap + two-probe states after the coupling pulse.

Two routes to the final state: the first-order perturbative form (exact in
the pulse area, valid for weak pulses) and full propagation of the truncated
joint Hamiltonian (used to measure how good first order actually is).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .fock import FockBasis, build_lambda_operator
from .orbitals import OverlapTable

__all__ = [
    "ProbeParams",
    "Pulse",
    "JointState",
    "JointHamiltonian",
    "DimensionCapError",
    "IntegratorDriftError",
    "probe_lowering",
    "probe_momentum",
    "embed_product",
    "build_joint_hamiltonian",
    "perturbative_state",
    "exact_state",
]

DEFAULT_DIM_CAP = 20_000


@dataclass(frozen=True)
class ProbeParams:
    """One probe oscillator species: mass M, frequency Omega, level cutoff."""

    M: float = 1.0
    Omega: float = 1.0
    levels: int = 2

    def __post_init__(self) -> None:
        if not self.M > 0:
            raise ValueError(f"probe mass must be positive, got {self.M}")
        if not self.Omega > 0:
            raise ValueError(f"probe frequency must be positive, got {self.Omega}")
        if self.levels < 2:
            raise ValueError(f"probe needs at least 2 levels, got {self.levels}")


@dataclass(frozen=True)
class Pulse:
    """Square coupling pulse g(t) = g0 on [0, T]; first-order physics sees only the area."""

    T: float
    g0: float = 0.0

    @classmethod
    def square(cls, T: float, g0: float) -> "Pulse":
        if not T > 0:
            raise ValueError(f"pulse duration must be positive, got {T}")
        return cls(T=float(T), g0=float(g0))

    @property
    def area(self) -> float:
        return self.g0 * self.T


class DimensionCapError(RuntimeError):
    pass


class IntegratorDriftError(RuntimeError):
    pass


@dataclass
class JointState:
    """Amplitudes over (trap Fock basis) x (probe L levels) x (probe R levels)."""

    tensor: np.ndarray

    def __post_init__(self) -> None:
        self.tensor = np.asarray(self.tensor, dtype=np.complex128)
        if self.tensor.ndim != 3:
            raise ValueError(f"tensor shape {self.tensor.shape} is not (trap, probe, probe)")

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))

    def flat(self) -> np.ndarray:
        return self.tensor.reshape(-1)


def probe_lowering(levels: int) -> np.ndarray:
    """Truncated oscillator lowering operator b on `levels` levels."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1)


def probe_momentum(probe: ProbeParams) -> np.ndarray:
    """P = i sqrt(M Omega / 2) (b^dag - b) on the truncated probe space."""
    b = probe_lowering(probe.levels)
    return 1j * np.sqrt(probe.M * probe.Omega / 2.0) * (b.T - b)


def embed_product(phi: np.ndarray, probe: ProbeParams) -> JointState:
    """|phi> with both probes in their ground state."""
    d = probe.levels
    tensor = np.zeros((len(phi), d, d), dtype=np.complex128)
    tensor[:, 0, 0] = phi
    return JointState(tensor)


@dataclass(frozen=True)
class JointHamiltonian:
    """Sparse H_0 and coupling operator V = Lambda_L P_L + Lambda_R P_R.

    `lamL` and `lamR` are the trap-space Lambda operators V is built from.
    """

    basis: FockBasis
    probe: ProbeParams
    H0: sp.csr_matrix
    V: sp.csr_matrix
    lamL: sp.csr_matrix
    lamR: sp.csr_matrix

    def coupling_weight(self, phi: np.ndarray) -> float:
        """S = |Lambda_L phi|^2 + |Lambda_R phi|^2, the weight a pulse excites."""
        vL = self.lamL @ phi
        vR = self.lamR @ phi
        return float(np.vdot(vL, vL).real) + float(np.vdot(vR, vR).real)


def build_joint_hamiltonian(
    table: OverlapTable,
    basis: FockBasis,
    probe: ProbeParams,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> JointHamiltonian:
    """Assemble H_0 and V on the flattened trap x probe x probe space.

    Nothing here depends on the trap state or the pulse: `run_sweep` builds
    it once per sweep, and `exact_state` propagates each point with it.
    """
    d = probe.levels
    total_dim = basis.dimension * d * d
    if total_dim > dim_cap:
        raise DimensionCapError(
            f"joint dimension {total_dim} exceeds cap {dim_cap}"
        )
    lamL = build_lambda_operator("L", table, basis)
    lamR = build_lambda_operator("R", table, basis)

    # H_0 is diagonal: trap energy plus the two probe levels, (t, a, b) order;
    # orbital k carries energy (k + 1/2) omega per particle
    eps = (np.arange(basis.K) + 0.5) * table.params.omega
    h_trap = np.array([float(np.dot(occ, eps)) for occ in basis.states])
    h_probe = (np.arange(d) + 0.5) * probe.Omega
    H0 = sp.diags((h_trap[:, None, None] + h_probe[:, None] + h_probe).ravel()).tocsr()

    eye_p = sp.identity(d, format="csr")
    P = sp.csr_matrix(probe_momentum(probe))
    V = (
        sp.kron(sp.kron(lamL, P), eye_p) + sp.kron(sp.kron(lamR, eye_p), P)
    ).tocsr()
    return JointHamiltonian(basis=basis, probe=probe, H0=H0, V=V, lamL=lamL, lamR=lamR)


def perturbative_state(
    phi: np.ndarray,
    ham: JointHamiltonian,
    pulse: Pulse,
    include_H0: bool = True,
) -> JointState:
    """First-order joint state, unnormalized, from the operators `ham` holds.

    The zero-excitation branch is (1 - i T H_0)|phi>|00>; each single
    excitation branch carries area * sqrt(M Omega / 2) * Lambda|phi>. With
    include_H0 off the free-evolution term is dropped; it lives entirely in
    the branch that post-selection discards.
    """
    probe = ham.probe
    state = embed_product(phi, probe)
    if include_H0:
        # H_0 is diagonal; its |n>|00> entries are the trap energy plus both zero points
        h00 = ham.H0.diagonal().reshape(state.tensor.shape)[:, 0, 0]
        state.tensor[:, 0, 0] -= 1j * pulse.T * h00 * phi
    amp = pulse.area * np.sqrt(probe.M * probe.Omega / 2.0)
    state.tensor[:, 1, 0] = amp * (ham.lamL @ phi)
    state.tensor[:, 0, 1] = amp * (ham.lamR @ phi)
    return state


def exact_state(
    initial: JointState,
    ham: JointHamiltonian,
    pulse: Pulse,
    norm_tol: float = 1e-9,
) -> JointState:
    """Propagate the joint state through the pulse with the full Hamiltonian.

    The square pulse makes the Hamiltonian constant, so the sparse matrix
    exponential propagates in one step. H_0 and V conserve the trap particle
    number, so each occupied sector (a contiguous slice of the graded basis)
    is propagated with its own block of H and the others stay zero. The norm
    drift is checked against `norm_tol` and reported as a hard error when
    exceeded. The size cap was checked when `ham` was built.
    """
    d = ham.probe.levels
    if initial.tensor.shape != (ham.basis.dimension, d, d):
        raise ValueError(
            f"state shape {initial.tensor.shape} does not match the Hamiltonian's "
            f"(trap, probe, probe) = {(ham.basis.dimension, d, d)}"
        )
    psi0 = initial.flat()
    norm0 = np.linalg.norm(psi0)

    psiT = np.zeros_like(psi0)
    for sector in ham.basis.sectors():
        s = slice(sector.start * d * d, sector.stop * d * d)
        if psi0[s].any():
            A = (-1j * pulse.T) * (ham.H0[s, s] + pulse.g0 * ham.V[s, s])
            psiT[s] = expm_multiply(A.tocsc(), psi0[s])
    drift = abs(np.linalg.norm(psiT) - norm0)
    if drift > norm_tol:
        raise IntegratorDriftError(
            f"norm drift {drift:.3e} exceeds tolerance {norm_tol:.3e}"
        )
    return JointState(psiT.reshape(initial.tensor.shape))
