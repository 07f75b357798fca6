"""Probe and pulse parameters, projective post-selection and sampled outcomes.

`ProbeParams` and `Pulse` are records that refuse an out-of-range value
when built, naming its field: the moment route reads them here for the
success probability, and the exact route for the Hamiltonian and the
propagation.

Post-selection keeps everything orthogonal to both probes in their ground
state, traces out the trap, and compresses to the single-excitation block
{|1>_L|0>_R, |0>_L|1>_R}, which it forms from the probes' centre-of-mass and
relative levels that the exact route works in. Population outside that block
(possible on the exact path) is folded into the success probability but
excluded from the block matrix and reported separately as leakage.
`postselect_sectors` reads the exact route's state as its weight per
particle-number sector and relative level next to each sector's coherent
+ mode; `block_from_moments` reads the moment and Fock routes' moments.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import exp, expm1, factorial, hypot, inf, isfinite

import numpy as np

from .moments import ProbeBlockMoments

__all__ = [
    "ProbeParams",
    "Pulse",
    "ProbeBlock",
    "NoExtractionError",
    "postselect_sectors",
    "block_from_moments",
    "sample_outcomes",
]

_P_SUCC_FLOOR = 1e-300

# 1 / k! for k = 19 down to 2: e^x - 1 - x = x^2 sum_k x^(k - 2) / k! to a relative 2 / 20! at 0 <= x <= 1
_SERIES = [1.0 / factorial(k) for k in range(19, 1, -1)]


@dataclass(frozen=True)
class ProbeParams:
    """One probe oscillator species: mass M, frequency Omega, level cutoff."""

    M: float = 1.0
    Omega: float = 1.0
    levels: int = 2

    def __post_init__(self) -> None:
        if not (self.M > 0 and isfinite(self.M)):
            raise ValueError(f"probe mass M must be positive and finite, got {self.M}")
        if not (self.Omega > 0 and isfinite(self.Omega)):
            raise ValueError(f"probe frequency Omega must be positive and finite, got {self.Omega}")
        if self.levels < 2:
            raise ValueError(f"probe needs at least 2 levels, got {self.levels}")


@dataclass(frozen=True)
class Pulse:
    """Square coupling pulse g(t) = g0 on [0, T]; first-order physics sees only the area.

    T must be positive and finite and g0 finite; both are stored as floats.
    """

    T: float
    g0: float

    def __post_init__(self) -> None:
        if not (self.T > 0 and isfinite(self.T)):
            raise ValueError(f"pulse duration T must be positive and finite, got {self.T}")
        if not isfinite(self.g0):
            raise ValueError(f"pulse amplitude g0 must be finite, got {self.g0}")
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "g0", float(self.g0))

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
        (r00, r01), (r10, r11) = rho.tolist()
        if not all(map(cmath.isfinite, (r00, r01, r10, r11))):
            raise ValueError(f"block matrix must be finite, got {rho.tolist()}")
        # max |rho - rho^H|: the diagonal entries' defect is twice their imaginary part
        if max(2.0 * abs(r00.imag), 2.0 * abs(r11.imag), abs(r01 - r10.conjugate())) > 1e-12:
            raise ValueError("post-selected block must be hermitian")
        a, b = r00.real, r11.real
        if abs(a + b - 1.0) > 1e-12:
            raise ValueError("post-selected block must have unit trace")
        # smaller eigenvalue of the hermitian matrix on the diagonal and lower entry
        low = (a + b) / 2.0 - hypot((a - b) / 2.0, abs(r10))
        if low < -1e-12:
            raise ValueError(f"post-selected block not PSD: min eig {low:.3e}")


def postselect_sectors(weights: np.ndarray, beta_sq: np.ndarray, norm_sq: float) -> ProbeBlock:
    """The block of a state whose + mode is the coherent state |beta_N> in each sector N.

    `weights[N, m]` is the weight of sector N at relative level m, and
    x = `beta_sq[N]` = |beta_N|^2: the + mode holds |0> with weight e^(-x)
    and |1> with x e^(-x). Level 0 lies on parity-even trap states and level
    1 on parity-odd ones, so |10> and |01> in (n_+, n_-) never share one: the
    L and R weights are (A + B) / 2 and their coherence (A - B) / 2, with
    A = sum_N x e^(-x) weights[N, 0] and B = sum_N e^(-x) weights[N, 1].
    p_succ and leakage, over every + level, are sums of positive terms.
    """
    a = b = selected = leakage = 0.0
    for x, (s0, s1, *higher) in zip(beta_sq.tolist(), weights.tolist()):
        ground, above = exp(-x), -expm1(-x)
        if x <= 1.0:  # 1 - e^(-x) (1 + x) from its series, where the difference would cancel
            series = 0.0
            for term in _SERIES:
                series = series * x + term
            beyond = ground * x * x * series
        else:
            beyond = above - x * ground
        rest = sum(higher)
        a += x * ground * s0
        b += ground * s1
        selected += rest + s1 + above * s0
        leakage += rest + above * s1 + beyond * s0
    return _block((a + b) / 2.0, (a + b) / 2.0, (a - b) / 2.0, selected, leakage, norm_sq)


def _block(w10: float, w01: float, coh: complex, selected: float, leakage: float, norm_sq: float) -> ProbeBlock:
    """The block from the L and R weights and their coherence, and the weights selected and leaked."""
    if not 0.0 < norm_sq < inf:
        raise ValueError(f"norm_sq must be finite and positive, got {norm_sq!r}")
    p_succ = selected / norm_sq
    if p_succ <= _P_SUCC_FLOOR:
        raise NoExtractionError("no extraction event possible: p_succ below floor")
    if w10 + w01 <= 0.0:
        raise NoExtractionError("single-excitation block is empty")
    # rho_ab = sum_trap psi_a psi_b^*; row order (10, 01)
    rho = np.array([[w10, coh], [np.conj(coh), w01]], dtype=np.complex128) / (w10 + w01)
    return ProbeBlock(matrix=rho, p_succ=p_succ, leakage=leakage / norm_sq, source="from_joint_state")


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
    if not 1 <= shots <= 2**63 - 1:  # numpy's binomial takes at most 2**63 - 1 trials
        raise ValueError(f"shots must be in [1, 2**63 - 1], got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 <= block.p_succ <= 1.0:
        raise ValueError(f"success probability {block.p_succ!r} outside [0, 1]")
    rng = np.random.default_rng(seed)
    successes = int(rng.binomial(shots, block.p_succ))
    return {"success": successes, "failure": shots - successes}
