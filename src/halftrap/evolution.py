"""Joint trap + two-probe states after the coupling pulse.

The trap starts in the lowest orbital, sum_n c_n |n, 0, ..., 0>, with both
probes in their ground state, and the pulse is propagated in full
(`exact_state`); `first_order_residual` measures how far that state lies from
the first-order perturbative one (exact in the pulse area, valid for weak
pulses).

Both are written in the probes' centre-of-mass and relative modes
b_+- = (b_L +- b_R) / sqrt 2. The half-line overlaps obey
lambda^L + lambda^R = 1, so Lambda_L + Lambda_R = N, the particle number,
and the coupling Lambda_L P_L + Lambda_R P_R is
(N P_+ + D P_-) / sqrt 2 with D = Lambda_L - Lambda_R: the Hamiltonian
reads N and D only, and no Lambda is built. The L and R single excitations
are (|n_+ = 1, n_- = 0> +- |0, 1>) / sqrt 2.

N is conserved, so in each particle-number sector the + mode is a driven
oscillator, solved in closed form. Only the trap and the relative mode are
propagated: on their mirror-even half, an index mask, in the frame
|n_-> -> i^(n_-) |n_-> where their Hamiltonian is real, as one Chebyshev
series whose terms are real sparse products; numpy and scipy.sparse are all
it needs. The exact state is held as these two factors (`FactoredState`),
and nothing here forms the (trap, n_+, n_-) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, sqrt

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, build_imbalance_operator, to_fock_vector
from .measurement import ProbeParams, Pulse
from .orbitals import OverlapTable

__all__ = [
    "JointHamiltonian",
    "FactoredState",
    "IntegratorDriftError",
    "SeriesLengthError",
    "probe_lowering",
    "build_joint_hamiltonian",
    "exact_state",
    "first_order_residual",
]


# a norm drift beyond this is refused by `exact_state`
_NORM_TOL = 1e-9


class IntegratorDriftError(RuntimeError):
    pass


class SeriesLengthError(ValueError):
    """A pulse whose Chebyshev series would pass `_MAX_TERMS` terms; refused before it is formed.

    `by_coupling` tells whether the coupling widens the spectral interval
    that sets the series' length by at least the half-spread of H_0 on it,
    the part that the pulse length sets alone.
    """

    def __init__(self, message: str, by_coupling: bool) -> None:
        super().__init__(message)
        self.by_coupling = by_coupling


def probe_lowering(levels: int) -> np.ndarray:
    """Truncated oscillator lowering operator b on `levels` levels."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1)


@dataclass(frozen=True)
class JointHamiltonian:
    """H_0 and the coupling V = Lambda_L P_L + Lambda_R P_R of the pulse.

    `H0` is the diagonal of H_0 on the whole flattened (trap, n_+, n_-)
    space, the same as on (trap, n_L, n_R), since n_+ + n_- = n_L + n_R. No
    route reads it: it is kept only for the benchmark tracer
    (`benchmarks/tracer.py`), which reports its size, until the benchmark
    change of ROADMAP item 1 drops it. `D` is the trap-space imbalance
    Lambda_L - Lambda_R, and `number` holds each trap state's particle
    number. The rest is the trap and relative mode on their mirror-even
    half: `even` holds the flat (trap, n_-) indices it keeps, in order, and
    the sector of particle number N is the range `edges[N]:edges[N + 1]` of
    them. `h` is H_0 there at n_+ = 0, `v`
    is D P_- / sqrt 2 in the frame (real, with explicit zeros on its
    diagonal at the positions `diag` of `v.data`, so that H_0 fits its
    pattern). Two bounds on v's spectrum are held per row: `radius`, the row
    sums of |v| (Gershgorin's), and `bound`, the one-body bound
    N sqrt(M Omega / 4) x_d of the row's sector N (see `_one_body_scale`).
    `cell` holds each kept row's N d + n_-; `origin[n]` is the row of
    |n, 0, ..., 0> at level 0, where a lowest-orbital state starts, and
    `column[n]` its ||D |n, 0, ..., 0>||^2.
    Nothing changes once built: one Hamiltonian serves any number of propagations.
    """

    basis: FockBasis
    probe: ProbeParams
    H0: np.ndarray
    D: sp.csr_matrix
    number: np.ndarray
    even: np.ndarray
    edges: np.ndarray
    h: np.ndarray
    v: sp.csr_matrix
    diag: np.ndarray
    radius: np.ndarray
    bound: np.ndarray
    cell: np.ndarray
    origin: np.ndarray
    column: np.ndarray

    def coupling_weight(self, c: np.ndarray) -> float:
        """S = |Lambda_L phi|^2 + |Lambda_R phi|^2, the weight a pulse excites.

        phi = sum_n c_n |n, 0, ..., 0>, and Lambda_L,R = (N +- D) / 2, so, as N
        and D keep each sector, S = sum_n |c_n|^2 (n^2 + `column[n]`) / 2.
        """
        if len(c) - 1 > self.basis.n_max:
            raise ValueError(f"state cutoff {len(c) - 1} exceeds basis capacity {self.basis.n_max}")
        n = np.arange(len(c))
        return 0.5 * float(np.dot((c * np.conj(c)).real, n * n + self.column[n]))


def _block(m: sp.csr_matrix, rows: slice, cols: slice) -> sp.csr_matrix:
    """The block of `m` on `rows` x `cols`, for a `m` with no entries beside it in those rows."""
    lo, hi = m.indptr[rows.start], m.indptr[rows.stop]
    return sp.csr_matrix(
        (m.data[lo:hi], m.indices[lo:hi] - cols.start, m.indptr[rows.start : rows.stop + 1] - lo),
        shape=(rows.stop - rows.start, cols.stop - cols.start),
    )


# the one-body bound is raised by this relative margin, for the rounding of x_d and of
# the table: ||d|| - 1 measured at most 4.4e-15 for K up to 5000
_BOUND_MARGIN = 2.0**-40


def _one_body_scale(probe: ProbeParams) -> float:
    """sqrt(M Omega / 4) x_d, with x_d the largest zero of He_d, raised by `_BOUND_MARGIN`.

    It bounds ||v|| per particle. lambda^R is the compression of the
    half-line projector onto the lowest K orbitals, so 0 <= lambda^R <= 1
    and the one-body d = lambda^L - lambda^R = 1 - 2 lambda^R has
    ||d|| <= 1. D = Lambda_L - Lambda_R is one-body, so on N bosons its
    eigenvalues are sums of N of d's, and ||D|| <= N. v is D times
    sqrt(M Omega / 4) (b + b^T), whose norm on d levels is x_d: b + b^T is
    the Jacobi matrix of the Hermite polynomials He_(k+1) = x He_k - k He_(k-1).
    Newton's method on He_d, started at the Gershgorin bound 2 sqrt(d - 1),
    descends onto that zero from above; its step He_d / He_d' = r_d / d
    reads the ratio r_k = He_k / He_(k-1), which stays finite and positive
    above the zero at any d. No eigensolver is called.
    """
    d = probe.levels
    x = 2.0 * np.sqrt(d - 1.0)
    while True:
        r = x  # He_1 / He_0
        for k in range(1, d):
            r = x - k / r
        step = r / d
        if not (step > 0.0 and x - step < x):
            break
        x -= step
    return float(np.sqrt(probe.M * probe.Omega / 4.0) * x) * (1.0 + _BOUND_MARGIN)


def build_joint_hamiltonian(
    table: OverlapTable,
    basis: FockBasis,
    probe: ProbeParams,
) -> JointHamiltonian:
    """Assemble H_0 on the flattened (trap, n_+, n_-) space and the relative mode's mirror-even half.

    The mirror Pi = (trap parity (-1)^(sum_k k n_k)) x (swap of the two
    probes) commutes with H_0 and V, because the table obeys lambdaL =
    P lambdaR P with P = diag((-1)^k) by construction. The swap keeps b_+
    and negates b_-, so Pi = (-1)^(trap parity + n_-): its even half keeps
    the relative levels of the trap state's parity, and it holds every state
    |phi>|00> with phi in the lowest orbital. H_0 and V conserve N, so each
    sector is a diagonal block of `v`, the Kronecker product D x P_- / sqrt 2
    kept on the mirror-even rows and columns (D flips the trap parity and P_-
    the level's, so a kept row loses no entry).

    Nothing here depends on the trap state or the pulse: the sweep harness
    keeps it for later sweeps with the same table, `n_max` and probe, and
    `exact_state` propagates each point with it.
    """
    d = probe.levels
    D = build_imbalance_operator(table, basis)
    parity = basis.states @ np.arange(basis.K) % 2  # (sum_k k n_k) mod 2 of each trap state

    # H_0 is diagonal: trap energy plus the two probe levels, (t, n_+, n_-) order;
    # orbital k carries energy k + 1/2 per particle
    h_trap = basis.states @ (np.arange(basis.K) + 0.5)
    h_probe = (np.arange(d) + 0.5) * probe.Omega
    H0 = (h_trap[:, None, None] + h_probe[:, None] + h_probe).ravel()

    even = np.flatnonzero((np.arange(d) - parity[:, None]) % 2 == 0)
    n = even.size
    h = ((h_trap[:, None] + h_probe[0]) + h_probe).ravel()[even]
    t, m = np.divmod(even, d)

    # the identity gives each row of v one explicit diagonal slot, zeroed here, where each pulse writes H_0
    low = probe_lowering(d)
    quad = np.sqrt(probe.M * probe.Omega / 4.0) * (low + low.T)
    v = sp.kron(D, sp.csr_matrix(quad), format="csr")[even][:, even] + sp.identity(n)
    v.sort_indices()
    diag = np.flatnonzero(v.indices == np.repeat(np.arange(n), np.diff(v.indptr)))
    v.data[diag] = 0.0
    radius = np.add.reduceat(np.abs(v.data), v.indptr[:-1])
    edges = np.searchsorted(even, [span.start * d for span in basis.sectors()] + [basis.dimension * d])
    number = basis.states.sum(axis=1)
    bound = number[t] * _one_body_scale(probe)
    # |n, 0, ..., 0> is the last state of sector n and even, so its level 0 is its
    # sector's last row but its (d + 1) // 2 kept levels
    origin = edges[1:] - (d + 1) // 2
    column = (D.multiply(D) @ np.ones(basis.dimension))[t[origin]]  # D is symmetric: row weights
    return JointHamiltonian(basis, probe, H0, D, number, even, edges, h, v, diag, radius, bound, number[t] * d + m, origin, column)


# the Chebyshev series of a pulse drops a tail of at most this weight
_SERIES_TOL = 2.0**-53
# the series of a pulse keeps more than T r terms; a T r past this is refused before
# anything of its size is allocated
_MAX_TERMS = 50_000


def _bessel_series(z: float) -> np.ndarray:
    """J_0(z), ..., J_(m-1)(z) for z >= 0: the terms the Chebyshev series of exp(-i z x) keeps.

    Miller's backward recurrence J_(k-1) = (2k / z) J_k - J_(k+1), started at
    k = 2z + 40, far past the cut (J_k falls faster than (e z / 2k)^k there),
    and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1. The cut m is the first
    k past max(z, 1) with 2 |J_k| < _SERIES_TOL / 4. Past z each ratio
    J_(k+1) / J_k is below z / (2k + 2) < 1/2, so the dropped tail
    2 (|J_m| + |J_(m+1)| + ...), which bounds the error of the series for any
    x in [-1, 1], is below _SERIES_TOL. The recurrence runs on Python floats,
    which round as numpy's float64 does but index far faster.
    """
    if z == 0.0:
        return np.array([1.0, 0.0])
    top = int(2.0 * z) + 40
    j = [0.0] * (top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2.0 * k / z) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # the recurrence grows fastest where J_k is smallest
            j[k - 1 :] = [x * 1e-250 for x in j[k - 1 :]]
    j = np.array(j)
    j /= j[0] + 2.0 * j[2::2].sum()
    k = np.arange(top + 2)
    return j[: np.flatnonzero((k > max(z, 1.0)) & (2.0 * np.abs(j) < _SERIES_TOL / 4))[0]]


def _chebyshev_propagate(
    ham: JointHamiltonian, span: slice, pulse: Pulse, y: np.ndarray
) -> np.ndarray:
    """exp(-i T H) y for H = h + g0 v on the range `span` of the mirror-even basis.

    Two intervals hold the spectrum of H on the range: the hull of its
    Gershgorin discs, h -+ |g0| `radius`, and h -+ |g0| `bound`, since each
    sector is a diagonal block whose h + g0 v lies within |g0| ||v|| of h's
    range (Weyl). Their intersection [c - r, c + r] is never wider than the
    Gershgorin hull, so X = (H - c) / r has its spectrum in [-1, 1] and, as
    one Chebyshev series,
    exp(-i T H) = exp(-i T c) (J_0(T r) + 2 sum_k (-i)^k J_k(T r) T_k(X))
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), of more than T r
    terms. Both are formed for T H, from T h and |area| `reach`, so pulses of
    one area too short for T h to register run one series, bit for bit.
    X is real, so the real and the imaginary part of y each run the
    recurrence T_(k+1) = 2 X T_k - T_(k-1) in real arithmetic; a part that is
    zero is left out. The coefficients (-i)^k are real for even k and
    imaginary for odd k, so the even and the odd terms are summed apart,
    each in place.

    2 X has the pattern of v's block on the range, sliced from v on each
    call into arrays of its own; `ham` is only read.
    """
    h = ham.h[span]
    th, g = pulse.T * h, abs(pulse.area)
    bottom, top = -np.inf, np.inf
    for reach in (ham.radius[span], ham.bound[span]):
        bottom, top = max(bottom, float((th - g * reach).min())), min(top, float((th + g * reach).max()))
    c, z = (top + bottom) / 2.0, (top - bottom) / 2.0  # T c and T r
    if not z <= _MAX_TERMS:
        free = float(np.ptp(th)) / 2.0  # the part of T r that H_0 sets alone
        raise SeriesLengthError(
            f"the pulse's Chebyshev series needs more than T r = {z:.3g} terms, past the cap of {_MAX_TERMS}",
            by_coupling=z - free >= free,
        )
    phase = np.exp(-1j * c)
    if z == 0.0:
        return phase * y
    parts = [(u, part) for u, part in ((1.0, y.real), (1.0j, y.imag)) if part.any()]
    # 2 X, with H's diagonal (h - c) / r folded into the explicit zeros of v's pattern
    X2 = _block(ham.v, span, span)
    X2.data = (2.0 * pulse.area / z) * X2.data  # a new array, never v's
    X2.data[ham.diag[span] - ham.v.indptr[span.start]] = (2.0 / z) * (th - c)

    coef = 2.0 * _bessel_series(z)
    coef[0] /= 2.0
    coef *= np.resize([1.0, -1.0, -1.0, 1.0], coef.size)  # (-i)^k with the i taken out of odd k
    coef = coef.tolist()
    out = np.zeros(y.shape, dtype=np.complex128)
    term = np.empty(y.shape)
    for unit, part in parts:
        prev, cur = part, 0.5 * (X2 @ part)
        sums = [coef[0] * prev, coef[1] * cur]
        for k in range(2, len(coef)):
            nxt = X2 @ cur
            nxt -= prev
            prev, cur = cur, nxt
            sums[k % 2] += np.multiply(coef[k], cur, out=term)
        out += unit * (sums[0] + 1j * sums[1])
    return phase * out


def _displacement(N: np.ndarray, probe: ProbeParams, pulse: Pulse) -> tuple[np.ndarray, np.ndarray]:
    """c_N / Omega and beta_N of `_centre_of_mass`, one per particle number in `N`."""
    x = pulse.g0 * N * np.sqrt(probe.M * probe.Omega / 4.0) / probe.Omega
    return x, 1j * x * np.expm1(-1j * probe.Omega * pulse.T)


def _centre_of_mass(N: np.ndarray, probe: ProbeParams, pulse: Pulse) -> np.ndarray:
    """<n_+| e^(i theta_N) |beta_N> on the probe levels, one row per particle number in `N`.

    In the sector of N particles the + mode sees Omega (n_+ + 1/2) +
    i c_N (b_+^dag - b_+), c_N = g0 N sqrt(M Omega / 4); from |0> it ends
    in the coherent state e^(i theta_N) |beta_N> with
    beta_N = i (c_N / Omega) (e^(-i Omega T) - 1) and
    theta_N = (c_N / Omega)^2 (Omega T - sin Omega T) (Glauber, Phys. Rev. 131,
    2766 (1963)); its zero point is left to the relative mode's h.
    """
    W, T = probe.Omega, pulse.T
    x, beta = _displacement(N, probe, pulse)
    # x reaches 1e154 at a tiny T of fixed area, where x * x overflows while Omega T - sin Omega T is 0
    theta = x * (x * (W * T - np.sin(W * T)))
    # <n|beta> = e^(-|beta|^2 / 2) beta^n / sqrt(n!), by the ratio beta / sqrt(n) from level to level
    steps = beta[:, None] / np.sqrt(np.arange(1.0, probe.levels))
    ground = np.exp(1j * theta - 0.5 * (beta * beta.conj()).real)
    return np.cumprod(np.hstack((ground[:, None], steps)), axis=1)


@dataclass(frozen=True)
class FactoredState:
    """A joint state: per sector N, the + mode's e^(i theta_N) |beta_N> times the trap and relative mode.

    `rows` are the latter on the range `span` of `ham`'s mirror-even basis,
    in its frame, the other rows zero. Post-selection reads `weights[N, n_-]`,
    their weight in sector N at relative level n_-, and `beta_sq[N]` = |beta_N|^2.
    """

    ham: JointHamiltonian
    pulse: Pulse
    span: slice
    rows: np.ndarray
    weights: np.ndarray
    beta_sq: np.ndarray


def exact_state(c: np.ndarray, ham: JointHamiltonian, pulse: Pulse) -> FactoredState:
    """The joint state after the pulse, from sum_n c_n |n, 0, ..., 0> with both probes in their ground state.

    H_0 and V conserve the particle number N, and in each sector the + mode
    evolves apart from the rest, in closed form (`_centre_of_mass`). Every
    |n, 0, ..., 0>|00> is mirror-even, so the trap and the relative mode
    evolve under h + g0 v on the mirror-even half of the sectors from the
    first to the last n with c_n nonzero (one contiguous range of the graded
    basis), starting at the rows `ham.origin`, and the others stay zero. A
    cutoff past the basis' `n_max` is refused. The square pulse makes the
    Hamiltonian constant, so exp(-i T (h + g0 v)) is applied once, as a
    Chebyshev series in real arithmetic. One bincount over `ham.cell` sums
    the result's weight per sector and relative level; the norm drift of
    those sums past `_NORM_TOL` is a hard error.
    """
    basis, d = ham.basis, ham.probe.levels
    if len(c) - 1 > basis.n_max:
        raise ValueError(f"state cutoff {len(c) - 1} exceeds basis capacity {basis.n_max}")
    span, rows = slice(0, 0), np.zeros(0, dtype=np.complex128)
    occupied = np.flatnonzero(c)
    if occupied.size:
        lo, hi = occupied[[0, -1]]
        span = slice(int(ham.edges[lo]), int(ham.edges[hi + 1]))
        y = np.zeros(span.stop - span.start, dtype=np.complex128)
        y[ham.origin[lo : hi + 1] - span.start] = c[lo : hi + 1]
        rows = _chebyshev_propagate(ham, span, pulse, y)
    weights = np.bincount(ham.cell[span], (rows * rows.conj()).real, (basis.n_max + 1) * d)
    drift = abs(np.sqrt(weights.sum()) - np.linalg.norm(c))
    if drift > _NORM_TOL:
        raise IntegratorDriftError(f"norm drift {drift:.3e} exceeds tolerance {_NORM_TOL:.3e}")
    beta = _displacement(np.arange(basis.n_max + 1), ham.probe, pulse)[1]
    return FactoredState(ham, pulse, span, rows, weights.reshape(-1, d), (beta * beta.conj()).real)


def first_order_residual(c: np.ndarray, final: FactoredState) -> float:
    """||final - the first-order state||, on the rows `final` propagated, in their frame.

    The first-order state of phi = sum_n c_n |n, 0, ..., 0> is
    (1 - i T H_0)|phi>|00> plus the + and - single excitations, which carry
    a N|phi> and a D|phi>, a = area sqrt(M Omega / 4): the L and R branches
    carry area sqrt(M Omega / 2) Lambda|phi>. On the mirror-even rows of
    `final.span` that is (1 - i T h) y at n_+ = 0, y being phi at relative
    level 0, and a N y at n_+ = 1; the level-1 rows at n_+ = 0 carry
    -i a D phi, the frame's i^(-1) taken in. D phi is formed from `ham.D`,
    never from `v`, so the check does not read the operator propagated. Both
    states are zero off these rows. The squared residual is summed over the
    d + levels of `_centre_of_mass` as positive terms, by one exact `fsum`.
    """
    ham, pulse, d = final.ham, final.pulse, final.ham.probe.levels
    t, m = np.divmod(ham.even[final.span], d)
    phi = to_fock_vector(c, ham.basis)
    a = pulse.area * np.sqrt(ham.probe.M * ham.probe.Omega / 4.0)
    y = np.where(m == 0, phi[t], 0.0)
    diff = _centre_of_mass(ham.number[t], ham.probe, pulse) * final.rows[:, None]
    d_phi = np.where(m == 1, (ham.D @ phi)[t], 0.0)
    diff[:, 0] -= (1.0 - 1j * pulse.T * ham.h[final.span]) * y - 1j * a * d_phi
    diff[:, 1] -= a * ham.number[t] * y
    return sqrt(fsum((diff * diff.conj()).real.ravel().tolist()))
