"""Probe and pulse parameters, projective post-selection and sampled outcomes.

`ProbeParams` and `Pulse` are plain records: the moment route reads them
here for the success probability, and the exact route for the Hamiltonian
and the propagation.

Post-selection keeps everything orthogonal to both probes in their ground
state, traces out the trap, and compresses to the single-excitation block
{|1>_L|0>_R, |0>_L|1>_R}. Population outside that block (possible on the
exact path) is folded into the success probability but excluded from the
block matrix and reported separately as leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moments import ProbeBlockMoments

__all__ = [
    "ProbeParams",
    "Pulse",
    "ProbeBlock",
    "NoExtractionError",
    "postselect",
    "block_from_moments",
    "sample_outcomes",
]

_P_SUCC_FLOOR = 1e-300


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


class NoExtractionError(RuntimeError):
    """No extraction event possible: the post-selected weight is zero."""


@dataclass(frozen=True)
class ProbeBlock:
    """Post-selected two-probe state on the ordered basis {|10>, |01>}."""

    matrix: np.ndarray
    p_succ: float
    leakage: float
    source: str

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", rho)
        rho.setflags(write=False)
        if rho.shape != (2, 2):
            raise ValueError(f"block must be 2x2, got {rho.shape}")
        if np.abs(rho - rho.conj().T).max() > 1e-12:
            raise ValueError("post-selected block must be hermitian")
        if abs(rho[0, 0].real + rho[1, 1].real - 1.0) > 1e-12:
            raise ValueError("post-selected block must have unit trace")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-12:
            raise ValueError(f"post-selected block not PSD: min eig {eigs.min():.3e}")


def postselect(joint: np.ndarray) -> ProbeBlock:
    """Project (trap, probe, probe) amplitudes off |00>, trace the trap, keep {10, 01}."""
    if joint.ndim != 3:
        raise ValueError(f"joint state shape {joint.shape} is not (trap, probe, probe)")
    norm_sq = float(np.vdot(joint, joint).real)
    if norm_sq <= 0.0:
        raise NoExtractionError("joint state has zero norm")
    branch_10 = joint[:, 1, 0]
    branch_01 = joint[:, 0, 1]
    w10 = float(np.vdot(branch_10, branch_10).real)
    w01 = float(np.vdot(branch_01, branch_01).real)
    # partial trace over the trap: rho_ab = sum_t psi_{t,a} conj(psi_{t,b})
    coh = complex(np.vdot(branch_01, branch_10))
    ground = joint[:, 0, 0]
    w00 = float(np.vdot(ground, ground).real)
    selected = norm_sq - w00
    leakage = max(selected - w10 - w01, 0.0)
    p_succ = selected / norm_sq
    if p_succ <= _P_SUCC_FLOOR:
        raise NoExtractionError("no extraction event possible: p_succ below floor")
    block_weight = w10 + w01
    if block_weight <= 0.0:
        raise NoExtractionError("single-excitation block is empty")
    # rho_ab = sum_trap psi_a psi_b^*; row order (10, 01)
    rho = (
        np.array(
            [[w10, coh], [np.conj(coh), w01]],
            dtype=np.complex128,
        )
        / block_weight
    )
    return ProbeBlock(
        matrix=rho, p_succ=p_succ, leakage=leakage / norm_sq, source="from_joint_state"
    )


def block_from_moments(
    mom: ProbeBlockMoments,
    pulse: Pulse | None = None,
    probe: ProbeParams | None = None,
    state_norm_sq: float = 1.0,
) -> ProbeBlock:
    """Post-selected block from closed-form moments.

    The block itself needs only the three moments. The success probability
    additionally needs the pulse area and probe scales; it uses the
    first-order normalization (zero-excitation branch without free
    evolution), p = a^2 (M Omega / 2) S / (|phi|^2 + a^2 (M Omega / 2) S).
    When pulse or probe are omitted, p_succ is reported as NaN.
    """
    if mom.S <= 0.0:
        raise NoExtractionError("no extraction event possible: S = 0")
    rho = (
        np.array(
            [[mom.mLL, mom.mLR], [np.conj(mom.mLR), mom.mRR]],
            dtype=np.complex128,
        )
        / mom.S
    )
    p_succ = float("nan")
    if pulse is not None and probe is not None:
        prefactor = pulse.area ** 2 * probe.M * probe.Omega / 2.0
        p_succ = prefactor * mom.S / (state_norm_sq + prefactor * mom.S)
    return ProbeBlock(matrix=rho, p_succ=p_succ, leakage=0.0, source="from_moments")


def sample_outcomes(block: ProbeBlock, shots: int, seed: int) -> dict:
    """Seeded Bernoulli draws of the extraction event."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= block.p_succ <= 1.0:
        raise ValueError(f"success probability {block.p_succ!r} outside [0, 1]")
    rng = np.random.default_rng(seed)
    successes = int(rng.binomial(shots, block.p_succ))
    return {"success": successes, "failure": shots - successes}
