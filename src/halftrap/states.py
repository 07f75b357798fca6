"""Input states of the trap, each stored as its number populations.

Every supported state (coherent, number, arbitrary superposition of
lowest-orbital number states, thermal, phase-averaged coherent) is stored
as its number populations p_n over the lowest orbital, n = 0..n_cut, and
nothing else: the pulse Hamiltonian, Lambda_L, Lambda_R and D all conserve
particle number, so every block quantity depends on the state only through
p_n. A state's phases, and whether it is pure or a mixture of number
states, reach no route, and no amplitude list or density matrix is built.
The Fock and exact routes embed `TrapState.vector`, sqrt(p_n), in an
occupation basis with `fock.to_fock_vector`; this module holds no
multimode machinery.

Truncated states are NOT renormalized; the discarded tail mass is carried
as a diagnostic instead, because renormalization silently shifts moments
and corrupts convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, fsum, hypot, inf, log, sqrt
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
    """A state's `vector` sqrt(p_n) under the field name `coeffs`."""

    coeffs: np.ndarray


@dataclass(frozen=True)
class TrapState:
    """Canonical form: the populations p_n, n = 0..n_cut, of a `kind` state.

    `kind` names the family, one of the five that `make_state` builds.
    Populations must be finite and non-negative. The squared norm sum p_n
    and the factorial moments E[n], E[n(n-1)] are summed once, when the
    state is built: exactly (`math.fsum`) over the p_n at or above 2^-120 of
    the peak, plus the rest as one `np.sum` term. `tail_mass` is the mass
    the cutoff discarded.
    """

    kind: str
    populations: np.ndarray
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
        n = np.arange(len(p))
        keep = p >= 2.0**-120 * top
        rest = ~keep
        sums = tuple(fsum([*x[keep].tolist(), x[rest].sum()]) for x in (p, n * p, n * (n - 1) * p))
        object.__setattr__(self, "_sums", sums)

    @property
    def n_cut(self) -> int:
        return len(self.populations) - 1

    @property
    def vector(self) -> np.ndarray:
        """sqrt(p_n): the state as the vector sum_n sqrt(p_n) |n>.

        The Fock and exact routes form only sums within one particle-number
        sector, so on them this vector stands for the state, whatever its
        phases and whether it is pure or a mixture of number states.
        """
        return np.sqrt(self.populations)

    def norm_sq(self) -> float:
        """Squared norm sum p_n of the truncated canonical form."""
        return self._sums[0]

    def factorial_moments(self) -> tuple[float, float]:
        """(E[n], E[n(n-1)]) over the populations."""
        return self._sums[1:]

    @cached_property
    def components(self) -> tuple:
        """The state as one pure component, `vector`, built on first access.

        Nothing in the package reads it; `benchmarks/tracer.py` takes a
        state's cutoff from it, so it forms sqrt(p_n) without a traced
        `vector` call.
        """
        return (PureComponent(np.sqrt(self.populations)),)


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
    if n_cut is not None and n_cut < 0:
        raise ValueError(f"n_cut must be >= 0, got {n_cut}")
    required = int(np.count_nonzero(tails >= tail_tol))
    cut = min(required, _N_CUT_CEILING) if n_cut is None else n_cut
    tail = float(tails[cut])
    if tail >= tail_tol:
        raise TailToleranceError(cut, required, tail, tail_tol)
    return weights[: cut + 1], tail


def _poisson_state(kind: str, alpha_sq: float, n_cut: int | None, tail_tol: float) -> TrapState:
    if not 0 <= alpha_sq < inf:  # False for NaN too
        raise ValueError(f"alpha_sq must be finite and >= 0, got {alpha_sq}")
    return TrapState(kind, *_truncate(*_poisson_weights(alpha_sq, n_cut), n_cut, tail_tol))


def coherent_state(alpha_sq: float, n_cut: int | None = None, tail_tol: float = 1e-12) -> TrapState:
    """Coherent state of the lowest orbital, as its Poisson populations e^{-alpha_sq} alpha_sq^n / n!."""
    return _poisson_state("coherent", alpha_sq, n_cut, tail_tol)


def number_state(N: int) -> TrapState:
    """Exactly N particles in the lowest orbital; no truncation tail."""
    if N < 0:
        raise ValueError(f"particle number must be >= 0, got {N}")
    p = np.zeros(N + 1)
    p[N] = 1.0
    return TrapState("number", p)


def superposition_state(coeffs) -> TrapState:
    """Arbitrary normalized superposition sum_n c_n |n> of the lowest orbital, stored as |c_n|^2."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("coefficient list must be a non-empty 1-d sequence")
    if not np.isfinite(c).all():
        raise ValueError(f"coeffs must be finite, got {c.tolist()!r}")
    # a part past 2 puts |c|^2 past 4, and squaring it may overflow: refuse it by |c|, unsquared
    if max(np.abs(c.real).max(), np.abs(c.imag).max()) > 2.0:
        norm = hypot(*c.real.tolist(), *c.imag.tolist())
        raise ValueError(f"superposition coefficients must be normalized; got |c| = {norm!r}")
    state = TrapState("superposition", np.abs(c) ** 2)
    if abs(state.norm_sq() - 1.0) > 1e-12:
        raise ValueError(f"superposition coefficients must be normalized; got |c|^2 = {state.norm_sq()!r}")
    return state


def thermal_state(
    nbar: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Thermal (geometric) mixture p_n = nbar^n / (1 + nbar)^{n+1}."""
    if not 0 <= nbar < inf:  # False for NaN too
        raise ValueError(f"mean occupancy nbar must be finite and >= 0, got {nbar}")
    return TrapState("thermal", *_truncate(*_geometric_weights(nbar, n_cut, tail_tol), n_cut, tail_tol))


def phase_averaged_state(
    alpha_sq: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Coherent state averaged over its phase: a mixture of number states, populations as `coherent_state`."""
    return _poisson_state("phase_averaged", alpha_sq, n_cut, tail_tol)


def make_state(kind: str, value, n_cut: int | None = None, tail_tol: float = 1e-12) -> TrapState:
    """The `kind` state from its one parameter, as the harness config names it.

    `value` is alpha_sq for a coherent or phase-averaged state, N for a number
    state, the coefficient list for a superposition and nbar for a thermal
    state. `n_cut` and `tail_tol` reach the families that truncate; an `n_cut`
    below the state's last level is refused.
    """
    if kind == "coherent":
        state = coherent_state(value, n_cut=n_cut, tail_tol=tail_tol)
    elif kind == "number":
        state = number_state(value)
    elif kind == "superposition":
        state = superposition_state(value)
    elif kind == "thermal":
        state = thermal_state(value, n_cut=n_cut, tail_tol=tail_tol)
    elif kind == "phase_averaged":
        state = phase_averaged_state(value, n_cut=n_cut, tail_tol=tail_tol)
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    if n_cut is not None and state.n_cut > n_cut:
        raise ValueError(f"n_cut = {n_cut} is below the {kind} state's last level {state.n_cut}")
    return state
