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
from math import exp, fsum, sqrt

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

# Hard ceiling on automatic cutoff search; reaching it means the requested
# tail tolerance is not achievable in double precision bookkeeping.
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
    tail_mass: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        object.__setattr__(self, "coeffs", c)
        c.setflags(write=False)

    @property
    def n_cut(self) -> int:
        return len(self.coeffs) - 1

    def norm_sq(self) -> float:
        return fsum(float(a) for a in np.abs(self.coeffs) ** 2)

    def factorial_moments(self) -> tuple[float, float]:
        """(E[n], E[n(n-1)]) over |c_n|^2, compensated summation."""
        p = np.abs(self.coeffs) ** 2
        n = np.arange(len(p))
        n1 = fsum(float(v) for v in n * p)
        n2 = fsum(float(v) for v in n * (n - 1) * p)
        return n1, n2


@dataclass(frozen=True)
class TrapState:
    """Canonical form: weights p_j over pure components."""

    kind: str
    weights: np.ndarray
    components: tuple
    params: dict = field(default_factory=dict)

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

    @property
    def tail_mass(self) -> float:
        """Probability mass discarded by the cutoff (weights + amplitudes)."""
        weight_tail = 1.0 - fsum(float(x) for x in self.weights)
        comp_tail = fsum(
            float(w) * c.tail_mass for w, c in zip(self.weights, self.components)
        )
        return weight_tail + comp_tail

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


def _coherent_coeffs(alpha: complex, n_cut: int) -> np.ndarray:
    c = np.zeros(n_cut + 1, dtype=np.complex128)
    c[0] = exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, n_cut + 1):
        c[n] = c[n - 1] * alpha / sqrt(n)
    return c


def _poisson_weights(mean: float, n_cut: int) -> np.ndarray:
    p = np.zeros(n_cut + 1)
    p[0] = exp(-mean)
    for n in range(1, n_cut + 1):
        p[n] = p[n - 1] * mean / n
    return p


def _geometric_weights(nbar: float, n_cut: int) -> np.ndarray:
    p = np.zeros(n_cut + 1)
    p[0] = 1.0 / (1.0 + nbar)
    r = nbar / (1.0 + nbar)
    for n in range(1, n_cut + 1):
        p[n] = p[n - 1] * r
    return p


def _resolve_cutoff(weight_fn, n_cut: int | None, tail_tol: float) -> tuple[int, np.ndarray, float]:
    """Find (or validate) a cutoff whose discarded mass is below tolerance."""
    if n_cut is not None:
        w = weight_fn(n_cut)
        tail = 1.0 - fsum(float(x) for x in w)
        if tail >= tail_tol:
            required = _required_cutoff(weight_fn, tail_tol)
            raise TailToleranceError(n_cut, required, tail, tail_tol)
        return n_cut, w, tail
    cut = _required_cutoff(weight_fn, tail_tol)
    w = weight_fn(cut)
    return cut, w, 1.0 - fsum(float(x) for x in w)


def _required_cutoff(weight_fn, tail_tol: float) -> int:
    cut = 8
    while cut <= _N_CUT_CEILING:
        w = weight_fn(cut)
        if 1.0 - fsum(float(x) for x in w) < tail_tol:
            # shrink back to the smallest sufficient cutoff
            lo, hi = cut // 2, cut
            while lo < hi:
                mid = (lo + hi) // 2
                wm = weight_fn(mid)
                if 1.0 - fsum(float(x) for x in wm) < tail_tol:
                    hi = mid
                else:
                    lo = mid + 1
            return hi
        cut *= 2
    raise TailToleranceError(_N_CUT_CEILING, _N_CUT_CEILING, float("nan"), tail_tol)


def _number_mixture(kind: str, weights: np.ndarray, params: dict) -> TrapState:
    comps = []
    for n in range(len(weights)):
        one_hot = np.zeros(n + 1, dtype=np.complex128)
        one_hot[n] = 1.0
        comps.append(PureComponent(one_hot))
    return TrapState(kind, np.asarray(weights, dtype=float), tuple(comps), params)


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
    cut, _, _ = _resolve_cutoff(lambda m: _poisson_weights(mean, m), n_cut, tail_tol)
    coeffs = _coherent_coeffs(alpha, cut)
    tail = 1.0 - fsum(float(v) for v in np.abs(coeffs) ** 2)
    return TrapState(
        "coherent",
        np.array([1.0]),
        (PureComponent(coeffs, tail),),
        {"alpha": complex(alpha), "alpha_sq": mean},
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
    norm_sq = fsum(float(v) for v in np.abs(c) ** 2)
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
    cut, weights, tail = _resolve_cutoff(
        lambda m: _geometric_weights(nbar, m), n_cut, tail_tol
    )
    return _number_mixture("thermal", weights, {"nbar": nbar})


def phase_averaged_state(
    alpha_sq: float, n_cut: int | None = None, tail_tol: float = 1e-12
) -> TrapState:
    """Coherent state averaged over its phase: Poisson mixture of number states."""
    if alpha_sq < 0:
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    cut, weights, tail = _resolve_cutoff(
        lambda m: _poisson_weights(alpha_sq, m), n_cut, tail_tol
    )
    return _number_mixture("phase_averaged", weights, {"alpha_sq": alpha_sq})


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
