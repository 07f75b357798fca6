"""Joint trap + two-probe states after the coupling pulse.

Two routes to the final state: the first-order perturbative form (exact in
the pulse area, valid for weak pulses) and full propagation of the truncated
joint Hamiltonian (used to measure how good first order actually is). A
joint state is a complex array of shape (trap Fock basis, probe L levels,
probe R levels).

Full propagation maps the range of particle-number sectors a state
occupies, with one isometry, onto its mirror-even half in the probe frame
|a> -> i^a |a>, where the pulse Hamiltonian is real, and applies the
square pulse's exp(-i T H) there as one Chebyshev series whose terms are
real sparse products; numpy and scipy.sparse are all it needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, build_lambda_operator
from .measurement import ProbeParams, Pulse
from .orbitals import OverlapTable

__all__ = [
    "JointHamiltonian",
    "IntegratorDriftError",
    "probe_lowering",
    "probe_momentum",
    "embed_product",
    "build_joint_hamiltonian",
    "perturbative_state",
    "exact_state",
]


# a mirror-odd part or a norm drift beyond this is refused by `exact_state`
_NORM_TOL = 1e-9


class IntegratorDriftError(RuntimeError):
    pass


def probe_lowering(levels: int) -> np.ndarray:
    """Truncated oscillator lowering operator b on `levels` levels."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1)


def probe_momentum(probe: ProbeParams) -> np.ndarray:
    """P = i sqrt(M Omega / 2) (b^dag - b) on the truncated probe space."""
    b = probe_lowering(probe.levels)
    return 1j * np.sqrt(probe.M * probe.Omega / 2.0) * (b.T - b)


def embed_product(phi: np.ndarray, probe: ProbeParams) -> np.ndarray:
    """|phi> with both probes in their ground state, as a (trap, probe, probe) array."""
    d = probe.levels
    joint = np.zeros((len(phi), d, d), dtype=np.complex128)
    joint[:, 0, 0] = phi
    return joint


@dataclass(frozen=True)
class JointHamiltonian:
    """H_0 and the coupling V = Lambda_L P_L + Lambda_R P_R of the pulse.

    `H0` is the diagonal H_0 on the whole flattened (trap, probe, probe)
    space, and `lamL` and `lamR` are the trap-space Lambda operators V is
    built from. The mirror-even basis of `build_joint_hamiltonian` holds the
    rest. `W` is the isometry from it into the flattened space, with the
    probe frame i^(a+b) folded into its columns, and the sector of particle
    number N is the range `edges[N]:edges[N + 1]` of it. `h` is H_0 there
    (diagonal), `v` is V in the probe frame (real, with explicit zeros on its
    diagonal at the positions `diag` of `v.data`, so that H_0 fits its
    pattern), and `radius` holds the row sums of |v|. The full V is never
    assembled.
    """

    basis: FockBasis
    probe: ProbeParams
    H0: sp.csr_matrix
    lamL: sp.csr_matrix
    lamR: sp.csr_matrix
    W: sp.csr_matrix
    edges: np.ndarray
    h: np.ndarray
    v: sp.csr_matrix
    diag: np.ndarray
    radius: np.ndarray

    def coupling_weight(self, phi: np.ndarray) -> float:
        """S = |Lambda_L phi|^2 + |Lambda_R phi|^2, the weight a pulse excites."""
        vL = self.lamL @ phi
        vR = self.lamR @ phi
        return float(np.vdot(vL, vL).real) + float(np.vdot(vR, vR).real)


def _probe_halves(probe: ProbeParams) -> tuple:
    """Split the probe pair space by the swap |a b> -> |b a>: index 0 even, 1 odd.

    Returns (Q, pairs, B). `Q[0]` has the columns |a a> and (|a b> + |b a>)/sqrt 2,
    `Q[1]` the columns (|a b> - |b a>)/sqrt 2; column j of `Q[p]` holds the
    levels a = pairs[p][0][j] <= b = pairs[p][1][j]. `B[p][q]` =
    Q_p^T (P x 1 + (-1)^(p+q) 1 x P) Q_q is V's probe factor between trap
    states of parities p and q, in the probe frame |a> -> i^a |a>: there P is
    the real quadrature sqrt(M Omega / 2) (b + b^T), so `B` is real.
    """
    d = probe.levels
    Q, pairs = [], []
    for sign, k in ((1.0, 0), (-1.0, 1)):
        a, b = np.triu_indices(d, k)
        q = np.zeros((d * d, len(a)))
        cols = np.arange(len(a))
        q[b * d + a, cols] = sign
        q[a * d + b, cols] = 1.0
        Q.append(q / np.linalg.norm(q, axis=0))
        pairs.append((a, b))
    low = probe_lowering(d)
    P = np.sqrt(probe.M * probe.Omega / 2.0) * (low + low.T)
    PI, IP = np.kron(P, np.eye(d)), np.kron(np.eye(d), P)
    B = tuple(
        tuple(Q[p].T @ (PI + (-1) ** (p + q) * IP) @ Q[q] for q in (0, 1)) for p in (0, 1)
    )
    return Q, pairs, B


def _block(m: sp.csr_matrix, rows: slice, cols: slice) -> sp.csr_matrix:
    """The block of `m` on `rows` x `cols`, for a `m` with no entries beside it in those rows."""
    lo, hi = m.indptr[rows.start], m.indptr[rows.stop]
    return sp.csr_matrix(
        (m.data[lo:hi], m.indices[lo:hi] - cols.start, m.indptr[rows.start : rows.stop + 1] - lo),
        shape=(rows.stop - rows.start, cols.stop - cols.start),
    )


# i^k for k mod 4, exactly
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


def _mirror_even_basis(
    basis: FockBasis,
    lamL: sp.csr_matrix,
    h_trap: np.ndarray,
    h_probe: np.ndarray,
    probe: ProbeParams,
) -> tuple:
    """Reduce the joint space to its mirror-even half, in the probe frame.

    A trap state t of parity p pairs with the probe pairs in Q_p: the even
    basis runs over the trap states in basis order, each with its Q_p
    columns in order, and W's column for the pair a <= b carries i^(a+b).
    V's entry between (t, Q_p) and (t', Q_q) is Lambda_L[t, t'] B[p][q],
    because Lambda_R[t, t'] = (-1)^(p+q) Lambda_L[t, t'] by the parity
    identity. Everything is built for the whole basis at once; H_0, V and
    Lambda_L conserve N, so each sector is a diagonal block of the result.

    Returns (W, edges, h, v, diag, radius) as `JointHamiltonian` holds them.
    """
    Q, pairs, B = _probe_halves(probe)
    d2 = probe.levels**2
    par = basis.states @ np.arange(basis.K) % 2
    off = np.concatenate(([0], np.cumsum([Q[p].shape[1] for p in par])))
    n = int(off[-1])
    lam = lamL.tocoo()
    # V's probe factors have a zero diagonal, so the diagonal enters as explicit
    # zeros: the pattern then holds H_0 as well
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.zeros(n)]
    h = np.empty(n)
    w_rows, w_cols, w_vals = [], [], []
    for p in (0, 1):
        t = np.flatnonzero(par == p)
        # H_0 is diagonal in the even basis as well: trap energy plus both probe levels
        a, b = pairs[p]
        at = (off[t, None] + np.arange(len(a))).ravel()
        h[at] = ((h_trap[t, None] + h_probe[a]) + h_probe[b]).ravel()
        k, j = np.nonzero(Q[p])
        w_rows.append((t[:, None] * d2 + k).ravel())
        w_cols.append((off[t, None] + j).ravel())
        w = Q[p][k, j] * _I_POW[(a + b)[j] % 4]
        w_vals.append(np.broadcast_to(w, (t.size, k.size)).ravel())
        for q in (0, 1):
            m = (par[lam.row] == p) & (par[lam.col] == q)
            i, j = np.nonzero(B[p][q])
            rows.append((off[lam.row[m], None] + i).ravel())
            cols.append((off[lam.col[m], None] + j).ravel())
            vals.append((lam.data[m, None] * B[p][q][i, j]).ravel())
    v = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    row_of = np.repeat(np.arange(n), np.diff(v.indptr))
    diag = np.flatnonzero(v.indices == row_of)
    radius = np.add.reduceat(np.abs(v.data), v.indptr[:-1])
    W = sp.csr_matrix(
        (np.concatenate(w_vals), (np.concatenate(w_rows), np.concatenate(w_cols))),
        shape=(basis.dimension * d2, n),
    )
    edges = off[[span.start for span in basis.sectors()] + [basis.dimension]]
    return W, edges, h, v, diag, radius


def build_joint_hamiltonian(
    table: OverlapTable,
    basis: FockBasis,
    probe: ProbeParams,
) -> JointHamiltonian:
    """Assemble H_0 on the flattened trap x probe x probe space and its mirror-even reduction.

    The mirror Pi = (trap parity (-1)^(sum_k k n_k)) x (swap of the two
    probes) commutes with H_0 and V, because the table obeys lambdaL =
    P lambdaR P with P = diag((-1)^k); a table that does not is refused.
    Both also conserve the particle number N. Each sector of fixed N is
    therefore kept as H_0 and V on its Pi-even half, which holds every state
    |phi>|00> with phi in the lowest orbital. The reduction is written in the
    probe frame |a> -> i^a |a> of both probes, which commutes with Pi and
    H_0 and makes V real.

    Nothing here depends on the trap state or the pulse: `run_sweep` builds
    it once per sweep, and `exact_state` propagates each point with it.
    """
    d = probe.levels
    sign = (-1.0) ** np.arange(table.K)
    if not np.array_equal(table.lambdaL, sign[:, None] * table.lambdaR * sign):
        raise ValueError(
            "overlap table breaks the parity identity lambdaL = P lambdaR P, "
            "P = diag((-1)^k), that the mirror reduction of the exact route needs"
        )
    lamL = build_lambda_operator("L", table, basis)
    lamR = build_lambda_operator("R", table, basis)

    # H_0 is diagonal: trap energy plus the two probe levels, (t, a, b) order;
    # orbital k carries energy k + 1/2 per particle
    h_trap = basis.states @ (np.arange(basis.K) + 0.5)
    h_probe = (np.arange(d) + 0.5) * probe.Omega
    H0 = sp.diags((h_trap[:, None, None] + h_probe[:, None] + h_probe).ravel()).tocsr()

    even = _mirror_even_basis(basis, lamL, h_trap, h_probe, probe)
    return JointHamiltonian(basis, probe, H0, lamL, lamR, *even)


def perturbative_state(phi: np.ndarray, ham: JointHamiltonian, pulse: Pulse) -> np.ndarray:
    """First-order joint state, unnormalized, from the operators `ham` holds.

    The zero-excitation branch is (1 - i T H_0)|phi>|00>; each single
    excitation branch carries area * sqrt(M Omega / 2) * Lambda|phi>. The
    free-evolution term lives entirely in the branch that post-selection
    discards.
    """
    probe = ham.probe
    joint = embed_product(phi, probe)
    # H_0 is diagonal; its |n>|00> entries are the trap energy plus both zero points
    h00 = ham.H0.diagonal().reshape(joint.shape)[:, 0, 0]
    joint[:, 0, 0] -= 1j * pulse.T * h00 * phi
    amp = pulse.area * np.sqrt(probe.M * probe.Omega / 2.0)
    joint[:, 1, 0] = amp * (ham.lamL @ phi)
    joint[:, 0, 1] = amp * (ham.lamR @ phi)
    return joint


# the Chebyshev series of a pulse drops a tail of at most this weight
_SERIES_TOL = 2.0**-53


def _bessel_series(z: float) -> np.ndarray:
    """J_0(z), ..., J_(m-1)(z) for z >= 0: the terms the Chebyshev series of exp(-i z x) keeps.

    Miller's backward recurrence J_(k-1) = (2k / z) J_k - J_(k+1), started at
    k = 2z + 40, far past the cut (J_k falls faster than (e z / 2k)^k there),
    and normalised by J_0 + 2 (J_2 + J_4 + ...) = 1. The cut m is the first
    k past max(z, 1) with 2 |J_k| < _SERIES_TOL / 4. Past z each ratio
    J_(k+1) / J_k is below z / (2k + 2) < 1/2, so the dropped tail
    2 (|J_m| + |J_(m+1)| + ...), which bounds the error of the series for any
    x in [-1, 1], is below _SERIES_TOL.
    """
    if z == 0.0:
        return np.array([1.0, 0.0])
    top = int(2.0 * z) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2.0 * k / z) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # the recurrence grows fastest where J_k is smallest
            j[k - 1 :] *= 1e-250
    j /= j[0] + 2.0 * j[2::2].sum()
    k = np.arange(top + 2)
    return j[: np.flatnonzero((k > max(z, 1.0)) & (2.0 * np.abs(j) < _SERIES_TOL / 4))[0]]


def _chebyshev_propagate(
    ham: JointHamiltonian, span: slice, pulse: Pulse, y: np.ndarray
) -> np.ndarray:
    """exp(-i T H) y for H = h + g0 v on the range `span` of the mirror-even basis.

    The Gershgorin discs of H on the range lie in [c - r, c + r], so
    X = (H - c) / r has its spectrum in [-1, 1] and, as one Chebyshev series,
    exp(-i T H) = exp(-i T c) (J_0(T r) + 2 sum_k (-i)^k J_k(T r) T_k(X))
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)). X is real, so the
    real and the imaginary part of y each run the recurrence
    T_(k+1) = 2 X T_k - T_(k-1) in real arithmetic; a part that is zero is
    left out. The coefficients (-i)^k are real for even k and imaginary for
    odd k, so the even and the odd terms are summed apart.
    """
    h = ham.h[span]
    reach = abs(pulse.g0) * ham.radius[span]
    top, bottom = float((h + reach).max()), float((h - reach).min())
    c, r = (top + bottom) / 2.0, (top - bottom) / 2.0
    phase = np.exp(-1j * pulse.T * c)
    if r == 0.0:
        return phase * y
    parts = [(u, part) for u, part in ((1.0, y.real), (1.0j, y.imag)) if part.any()]
    # 2 X, with H's diagonal (h - c) folded into the explicit zeros of v's pattern
    X2 = _block(ham.v, span, span)
    X2.data = (2.0 * pulse.g0 / r) * X2.data  # a new array: the block shares v's
    X2.data[ham.diag[span] - ham.v.indptr[span.start]] = (2.0 / r) * (h - c)

    coef = 2.0 * _bessel_series(pulse.T * r)
    coef[0] /= 2.0
    coef *= np.resize([1.0, -1.0, -1.0, 1.0], coef.size)  # (-i)^k with the i taken out of odd k
    out = np.zeros(y.shape, dtype=np.complex128)
    for unit, part in parts:
        prev, cur = part, 0.5 * (X2 @ part)
        sums = [coef[0] * prev, coef[1] * cur]
        for k in range(2, coef.size):
            nxt = X2 @ cur
            nxt -= prev
            prev, cur = cur, nxt
            sums[k % 2] += coef[k] * cur
        out += unit * (sums[0] + 1j * sums[1])
    return phase * out


def exact_state(initial: np.ndarray, ham: JointHamiltonian, pulse: Pulse) -> np.ndarray:
    """Propagate the joint state through the pulse on the mirror-even half of the occupied sectors.

    H_0 and V conserve the trap particle number, so only the sectors from
    the lowest to the highest N the state occupies evolve (one contiguous
    range of the graded basis), and the others stay zero. The block of W on
    that range maps the state into the probe frame's mirror-even basis, in
    which the pulse Hamiltonian is real, with W^H; a state with a mirror-odd
    part beyond `_NORM_TOL` is refused, since that part would be dropped.
    The square pulse makes the Hamiltonian constant, so exp(-i T (h + g0 v))
    is applied once, as a Chebyshev series in real arithmetic, and the
    result is mapped back with W. The norm drift is checked against
    `_NORM_TOL` and reported as a hard error when exceeded.
    """
    d = ham.probe.levels
    if initial.shape != (ham.basis.dimension, d, d):
        raise ValueError(
            f"state shape {initial.shape} does not match the Hamiltonian's "
            f"(trap, probe, probe) = {(ham.basis.dimension, d, d)}"
        )
    psi0 = initial.reshape(-1)
    norm0 = np.linalg.norm(psi0)

    psiT = np.zeros(psi0.shape, dtype=np.complex128)
    occupied = np.flatnonzero(initial.any(axis=(1, 2)))
    if occupied.size:
        lo, hi = ham.basis.states[occupied[[0, -1]]].sum(axis=1)
        spans = ham.basis.sectors()
        rows = slice(spans[lo].start * d * d, spans[hi].stop * d * d)
        even = slice(int(ham.edges[lo]), int(ham.edges[hi + 1]))
        W = _block(ham.W, rows, even)
        x = psi0[rows]
        y = W.conj().T @ x
        odd = np.linalg.norm(x - W @ y)
        if odd > _NORM_TOL:
            raise ValueError(
                f"initial state has a mirror-odd part of norm {odd:.3e}; "
                "exact_state propagates the mirror-even half only"
            )
        psiT[rows] = W @ _chebyshev_propagate(ham, even, pulse, y)
    drift = abs(np.linalg.norm(psiT) - norm0)
    if drift > _NORM_TOL:
        raise IntegratorDriftError(
            f"norm drift {drift:.3e} exceeds tolerance {_NORM_TOL:.3e}"
        )
    return psiT.reshape(initial.shape)
