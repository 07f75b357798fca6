"""Input states of the trap, in a common canonical form.

Every supported state (coherent, number, arbitrary superposition of
lowest-orbital number states, thermal, phase-averaged coherent) is stored
as a weighted set of pure components, each a coefficient list c_n over
number states of the lowest orbital. Mixed states never materialize a
density matrix: all downstream block moments are convex in the components.

Truncated states are NOT renormalized; the discarded tail mass is carried
as a diagnostic instead, because renormalization silently shifts moments
and corrupts convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, fsum, log, sqrt

import numpy as np

from .fock import FockBasis, FockVector

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
    "to_fock_vector",
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


@dataclass(frozen=True)
class PureComponent:
    """One pure component: amplitudes c_n over lowest-orbital number states."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    @property
    def n_cut(self) -> int:
        return len(self.coeffs) - 1

    def norm_sq(self) -> float:
        return fsum(np.abs(self.coeffs) ** 2)

    def factorial_moments(self) -> tuple[float, float]:
        """(E[n], E[n(n-1)]) over |c_n|^2, compensated summation."""
        p = np.abs(self.coeffs) ** 2
        n = np.arange(len(p))
        n1 = fsum(n * p)
        n2 = fsum(n * (n - 1) * p)
        return n1, n2


@dataclass(frozen=True)
class TrapState:
    """Canonical form: weights p_j over pure components.

    `tail_mass` is the probability mass the cutoff discarded, summed when
    the state was built.
    """

    kind: str
    weights: np.ndarray
    components: tuple
    params: dict = field(default_factory=dict)
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if len(w) != len(self.components):
            raise ValueError("one weight per component required")
        if np.any(w < 0):
            raise ValueError("component weights must be non-negative")

    @property
    def is_pure(self) -> bool:
        return len(self.components) == 1

    @property
    def n_cut(self) -> int:
        return max(c.n_cut for c in self.components)

    def norm_sq(self) -> float:
        """Weighted squared norm of the truncated canonical form."""
        return fsum(
            float(w) * c.norm_sq() for w, c in zip(self.weights, self.components)
        )

    def factorial_moments(self) -> tuple[float, float]:
        """Convex combination of the per-component factorial moments."""
        n1 = 0.0
        n2 = 0.0
        for w, comp in zip(self.weights, self.components):
            m1, m2 = comp.factorial_moments()
            n1 += float(w) * m1
            n2 += float(w) * m2
        return n1, n2


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


def _number_mixture(
    kind: str, weights: np.ndarray, tail: float, params: dict
) -> TrapState:
    # the one-hot |n> is the last n + 1 entries of (0, ..., 0, 1): every
    # component is a view of one buffer, not an array of its own
    last = np.zeros(len(weights), dtype=np.complex128)
    last[-1] = 1.0
    comps = tuple(PureComponent(last[-n - 1 :]) for n in range(len(weights)))
    return TrapState(kind, weights, comps, params, tail)


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
    return TrapState(
        "coherent",
        np.array([1.0]),
        (PureComponent(coeffs),),
        {"alpha": complex(alpha), "alpha_sq": mean},
        tail,
    )


def number_state(N: int) -> TrapState:
    """Exactly N particles in the lowest orbital; no truncation tail."""
    if N < 0:
        raise ValueError(f"particle number must be >= 0, got {N}")
    coeffs = np.zeros(N + 1, dtype=np.complex128)
    coeffs[N] = 1.0
    return TrapState("number", np.array([1.0]), (PureComponent(coeffs),), {"N": N})


def superposition_state(coeffs) -> TrapState:
    """Arbitrary normalized superposition sum_n c_n |n> of the lowest orbital."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or len(c) == 0:
        raise ValueError("coefficient list must be a non-empty 1-d sequence")
    norm_sq = fsum(np.abs(c) ** 2)
    if abs(norm_sq - 1.0) > 1e-12:
        raise ValueError(
            f"superposition coefficients must be normalized; got |c|^2 = {norm_sq!r}"
        )
    return TrapState(
        "superposition", np.array([1.0]), (PureComponent(c),), {"n_terms": len(c)}
    )


def thermal_state(
    nbar: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Thermal (geometric) mixture p_n = nbar^n / (1 + nbar)^{n+1}."""
    if nbar < 0:
        raise ValueError(f"mean occupancy must be >= 0, got {nbar}")
    weights, tail = _truncate(*_geometric_weights(nbar, n_cut, tail_tol), n_cut, tail_tol)
    return _number_mixture("thermal", weights, tail, {"nbar": nbar})


def phase_averaged_state(
    alpha_sq: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Coherent state averaged over its phase: Poisson mixture of number states."""
    if alpha_sq < 0:
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    weights, tail = _truncate(*_poisson_weights(alpha_sq, n_cut), n_cut, tail_tol)
    return _number_mixture("phase_averaged", weights, tail, {"alpha_sq": alpha_sq})


def make_state(kind: str, params: dict, n_cut: int | None = None, tail_tol: float = 1e-12) -> TrapState:
    """Dispatch constructor used by the harness config layer."""
    if kind == "coherent":
        return coherent_state(
            alpha=params.get("alpha"),
            alpha_sq=params.get("alpha_sq"),
            n_cut=n_cut,
            tail_tol=tail_tol,
        )
    if kind == "number":
        return number_state(params["N"])
    if kind == "superposition":
        return superposition_state(params["coeffs"])
    if kind == "thermal":
        return thermal_state(params["nbar"], n_cut=n_cut, tail_tol=tail_tol)
    if kind == "phase_averaged":
        return phase_averaged_state(params["alpha_sq"], n_cut=n_cut, tail_tol=tail_tol)
    raise ValueError(f"unknown state kind {kind!r}")


def to_fock_vector(component: PureComponent, basis: FockBasis) -> FockVector:
    """Embed a lowest-orbital component into a multimode basis."""
    if component.n_cut > basis.n_max:
        raise ValueError(
            f"component cutoff {component.n_cut} exceeds basis capacity {basis.n_max}"
        )
    v = FockVector.zero(basis)
    rest = (0,) * (basis.K - 1)
    for n, c in enumerate(component.coeffs):
        v.amplitudes[basis.index[(n,) + rest]] = c
    return v
