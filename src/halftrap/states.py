"""Input states of the trap, in a common canonical form.

Every supported state (coherent, number, arbitrary superposition of
lowest-orbital number states, thermal, phase-averaged coherent) is stored
as its number populations p_n over the lowest orbital, n = 0..n_cut. A
pure state also keeps its amplitudes c_n, with p_n = |c_n|^2; a thermal or
phase-averaged mixture is diagonal in n and is its populations alone, so no
density matrix is ever built. The block moments depend on the state only
through p_n, because the extraction operators conserve particle number.
The Fock and exact routes embed amplitudes in an occupation basis with
`fock.to_fock_vector`; this module holds no multimode machinery.

Truncated states are NOT renormalized; the discarded tail mass is carried
as a diagnostic instead, because renormalization silently shifts moments
and corrupts convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, fsum, log, sqrt
from typing import NamedTuple

import numpy as np

__all__ = [
    "PureComponent",
    "TrapState",
    "TailToleranceError",
    "make_state",
    "coherent_state",
    "number_state",
    "superposition_state",
    "thermal_state",
    "phase_averaged_state",
]

_KINDS = ("coherent", "number", "superposition", "thermal", "phase_averaged")

# Largest cutoff chosen automatically; a state whose tail stays above the
# tolerance there raises TailToleranceError instead.
_N_CUT_CEILING = 100_000


class TailToleranceError(ValueError):
    """Requested tail tolerance unreachable within the given cutoff."""

    def __init__(self, requested_cut: int, required_cut: int, tail: float, tol: float):
        self.requested_cut = requested_cut
        self.required_cut = required_cut
        self.tail = tail
        self.tol = tol
        super().__init__(
            f"tail mass {tail:.3e} at n_cut={requested_cut} exceeds tolerance "
            f"{tol:.3e}; this state requires n_cut >= {required_cut}"
        )


class PureComponent(NamedTuple):
    """One pure component: amplitudes c_n over lowest-orbital number states."""

    coeffs: np.ndarray


@dataclass(frozen=True)
class TrapState:
    """Canonical form: populations p_n, n = 0..n_cut, and a pure state's amplitudes.

    Populations and amplitudes must be finite; `amplitudes` is None for a
    mixture of number states. The squared norm sum p_n and the factorial
    moments E[n], E[n(n-1)] are summed once, when the state is built: exactly
    (`math.fsum`) over the p_n at or above 2^-120 of the peak, plus the rest
    as one `np.sum` term. `tail_mass` is the mass the cutoff discarded.
    """

    kind: str
    populations: np.ndarray
    amplitudes: np.ndarray | None = None
    params: dict = field(default_factory=dict)
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        p = np.asarray(self.populations, dtype=float)
        object.__setattr__(self, "populations", p)
        p.setflags(write=False)
        top = p.max(initial=0.0)  # NaN if any entry is NaN
        if not (top < np.inf and p.min(initial=0.0) >= 0):
            raise ValueError("populations must be finite and non-negative")
        if self.amplitudes is not None:
            c = np.asarray(self.amplitudes, dtype=np.complex128)
            object.__setattr__(self, "amplitudes", c)
            c.setflags(write=False)
            if not np.abs(c).max(initial=0.0) < np.inf:  # False for NaN too
                raise ValueError("amplitudes must be finite")
            if c.shape != p.shape:
                raise ValueError("one population per amplitude required")
        n = np.arange(len(p))
        keep = p >= 2.0**-120 * top
        rest = ~keep
        sums = tuple(fsum([*x[keep].tolist(), x[rest].sum()]) for x in (p, n * p, n * (n - 1) * p))
        object.__setattr__(self, "_sums", sums)

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    @property
    def n_cut(self) -> int:
        return len(self.populations) - 1

    def norm_sq(self) -> float:
        """Squared norm sum p_n of the truncated canonical form."""
        return self._sums[0]

    def factorial_moments(self) -> tuple[float, float]:
        """(E[n], E[n(n-1)]) over the populations."""
        return self._sums[1:]

    @cached_property
    def components(self) -> tuple:
        """The state as pure components: itself, or one |n> per population.

        Built on first access only; nothing on the moment route reads it.
        """
        if self.amplitudes is not None:
            return (PureComponent(self.amplitudes),)
        # |n> is the last n + 1 entries of (0, ..., 0, 1): every component is
        # a view of one buffer, not an array of its own
        last = np.zeros(len(self.populations), dtype=np.complex128)
        last[-1] = 1.0
        last.setflags(write=False)
        return tuple(PureComponent(last[-n - 1 :]) for n in range(len(last)))


def _pure(kind: str, coeffs: np.ndarray, params: dict, tail: float = 0.0) -> TrapState:
    return TrapState(kind, np.abs(coeffs) ** 2, coeffs, params, tail)


def _poisson_weights(mean: float, n_cut: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Poisson pmf p_n and its tails sum_{m>n} p_m, summed directly, for n = 0..edge.

    The ratios p_{n+1}/p_n = mean/(n+1) are multiplied out from the mode in
    both directions, so no entry underflows where the pmf is representable
    and the array is normalised by its own sum. The edge sits 40 (sqrt(mean)
    + 1) past the mode, where the pmf is below e^-260 of its peak, or at
    `n_cut` if that is further out.
    """
    width = 40.0 * (sqrt(mean) + 1.0)
    reach = max(n_cut or 0, _N_CUT_CEILING)
    if mean - width > reach:
        # all the mass lies past any cutoff allowed here: do not allocate it
        return np.zeros(reach + 1), np.ones(reach + 1)
    mode = int(mean)
    edge = max(mode + int(width), n_cut or 0)
    right = np.cumprod(mean / np.arange(mode + 1, edge + 1))
    left = np.cumprod(np.arange(mode, 0, -1) / mean)[::-1]
    q = np.concatenate((left, [1.0], right))
    p = q / q.sum()
    return p, np.append(np.cumsum(p[:0:-1])[::-1], 0.0)


def _geometric_weights(
    nbar: float, n_cut: int | None, tail_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Geometric pmf r^n / (1 + nbar) and its exact tails r^(n+1), r = nbar/(1 + nbar).

    The array runs one entry past the smallest n with r^(n+1) < tail_tol,
    and at least to `n_cut`.
    """
    r = nbar / (1.0 + nbar)
    reach = _N_CUT_CEILING + 1
    if r == 0.0 or not tail_tol > 0:  # _truncate refuses the latter
        reach = 0
    elif r < 1.0:
        reach = min(reach, max(0, ceil(log(tail_tol) / log(r))))
    powers = r ** np.arange(max(reach, n_cut or 0) + 2)
    return powers[:-1] / (1.0 + nbar), powers[1:]


def _truncate(
    weights: np.ndarray, tails: np.ndarray, n_cut: int | None, tail_tol: float
) -> tuple[np.ndarray, float]:
    """Keep weights 0..n_cut, or up to the minimal cutoff whose tail is below tolerance.

    `tails[n]` is the mass beyond n and never increases, so the minimal
    cutoff is the number of entries at or above the tolerance.
    """
    if not tail_tol > 0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    required = int(np.count_nonzero(tails >= tail_tol))
    cut = min(required, _N_CUT_CEILING) if n_cut is None else n_cut
    tail = float(tails[cut])
    if tail >= tail_tol:
        raise TailToleranceError(cut, required, tail, tail_tol)
    return weights[: cut + 1], tail


def coherent_state(
    alpha: complex | None = None,
    alpha_sq: float | None = None,
    n_cut: int | None = None,
    tail_tol: float = 1e-12,
) -> TrapState:
    """Coherent state of the lowest orbital, c_n = e^{-|a|^2/2} a^n / sqrt(n!)."""
    if (alpha is None) == (alpha_sq is None):
        raise ValueError("give exactly one of alpha, alpha_sq")
    if alpha is None:
        if alpha_sq < 0:
            raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
        alpha = sqrt(alpha_sq)
    mean = abs(alpha) ** 2
    p, tail = _truncate(*_poisson_weights(mean, n_cut), n_cut, tail_tol)
    phase = alpha / abs(alpha) if alpha else 1.0
    coeffs = np.sqrt(p) * phase ** np.arange(len(p))
    return _pure("coherent", coeffs, {"alpha": complex(alpha), "alpha_sq": mean}, tail)


def number_state(N: int) -> TrapState:
    """Exactly N particles in the lowest orbital; no truncation tail."""
    if N < 0:
        raise ValueError(f"particle number must be >= 0, got {N}")
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    coeffs[N] = 1.0
    return _pure("number", coeffs, {"N": N})


def superposition_state(coeffs) -> TrapState:
    """Arbitrary normalized superposition sum_n c_n |n> of the lowest orbital."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("coefficient list must be a non-empty 1-d sequence")
    if not np.isfinite(c).all():
        raise ValueError(f"coeffs must be finite, got {c.tolist()!r}")
    state = _pure("superposition", c, {"n_terms": len(c)})
    if abs(state.norm_sq() - 1.0) > 1e-12:
        raise ValueError(
            f"superposition coefficients must be normalized; got |c|^2 = {state.norm_sq()!r}"
        )
    return state


def thermal_state(
    nbar: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Thermal (geometric) mixture p_n = nbar^n / (1 + nbar)^{n+1}."""
    if nbar < 0:
        raise ValueError(f"mean occupancy must be >= 0, got {nbar}")
    weights, tail = _truncate(*_geometric_weights(nbar, n_cut, tail_tol), n_cut, tail_tol)
    return TrapState("thermal", weights, None, {"nbar": nbar}, tail)


def phase_averaged_state(
    alpha_sq: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Coherent state averaged over its phase: Poisson mixture of number states."""
    if alpha_sq < 0:
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    weights, tail = _truncate(*_poisson_weights(alpha_sq, n_cut), n_cut, tail_tol)
    return TrapState("phase_averaged", weights, None, {"alpha_sq": alpha_sq}, tail)


def make_state(kind: str, params: dict, n_cut: int | None = None, tail_tol: float = 1e-12) -> TrapState:
    """Dispatch constructor of the harness config layer; refuses an `n_cut` below the last level."""
    if kind == "coherent":
        state = coherent_state(
            alpha=params.get("alpha"),
            alpha_sq=params.get("alpha_sq"),
            n_cut=n_cut,
            tail_tol=tail_tol,
        )
    elif kind == "number":
        state = number_state(params["N"])
    elif kind == "superposition":
        state = superposition_state(params["coeffs"])
    elif kind == "thermal":
        state = thermal_state(params["nbar"], n_cut=n_cut, tail_tol=tail_tol)
    elif kind == "phase_averaged":
        state = phase_averaged_state(params["alpha_sq"], n_cut=n_cut, tail_tol=tail_tol)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    if n_cut is not None and state.n_cut > n_cut:
        raise ValueError(f"n_cut = {n_cut} is below the {kind} state's last level {state.n_cut}")
    return state
