"""Joint trap + two-probe states after the coupling pulse.

Two routes to the final state: the first-order perturbative form (exact in
the pulse area, valid for weak pulses) and full propagation of the truncated
joint Hamiltonian (used to measure how good first order actually is). A
joint state is a complex array of shape (trap Fock basis, probe L levels,
probe R levels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .fock import FockBasis, build_lambda_operator
from .measurement import ProbeParams, Pulse
from .orbitals import OverlapTable

__all__ = [
    "MirrorSector",
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


# a mirror-odd part or a norm drift beyond this is refused by `exact_state`
_NORM_TOL = 1e-9


class DimensionCapError(RuntimeError):
    pass


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
class MirrorSector:
    """One particle-number sector of the joint space, reduced to its mirror-even half.

    `span` is the sector's range in the flattened (trap, probe, probe) space
    and `U` the isometry from the even half into it. `h` = U^T H_0 U and
    `v` = U^T V U share one CSR pattern, so a point combines their data arrays.
    """

    span: slice
    U: sp.csr_matrix
    h: sp.csr_matrix
    v: sp.csr_matrix


@dataclass(frozen=True)
class JointHamiltonian:
    """H_0 and the coupling V = Lambda_L P_L + Lambda_R P_R of the pulse.

    `H0` is the diagonal H_0 on the whole flattened (trap, probe, probe)
    space, and `lamL` and `lamR` are the trap-space Lambda operators V is
    built from. `sectors` holds, for each particle number N = 0..n_max, H_0
    and V on the mirror-even half of that sector (see
    `build_joint_hamiltonian`); the full V is never assembled.
    """

    basis: FockBasis
    probe: ProbeParams
    H0: sp.csr_matrix
    lamL: sp.csr_matrix
    lamR: sp.csr_matrix
    sectors: tuple[MirrorSector, ...]

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
    states of parities p and q.
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
    P = probe_momentum(probe)
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


def _mirror_sectors(
    basis: FockBasis,
    lamL: sp.csr_matrix,
    h_trap: np.ndarray,
    h_probe: np.ndarray,
    probe: ProbeParams,
) -> tuple[MirrorSector, ...]:
    """Reduce each particle-number sector to its mirror-even half.

    A trap state t of parity p pairs with the probe pairs in Q_p: the even
    basis runs over the trap states in basis order, each with its Q_p
    columns in order. V's entry
    between (t, Q_p) and (t', Q_q) is Lambda_L[t, t'] B[p][q], because
    Lambda_R[t, t'] = (-1)^(p+q) Lambda_L[t, t'] by the parity identity.
    Everything is built for the whole basis at once; H_0, V and Lambda_L
    conserve N, so each sector is a diagonal block of the result.
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
    h_diag = np.empty(n)
    u_rows, u_cols, u_vals = [], [], []
    for p in (0, 1):
        t = np.flatnonzero(par == p)
        # H_0 is diagonal in the even basis as well: trap energy plus both probe levels
        a, b = pairs[p]
        h_diag[(off[t, None] + np.arange(len(a))).ravel()] = (
            (h_trap[t, None] + h_probe[a]) + h_probe[b]
        ).ravel()
        k, j = np.nonzero(Q[p])
        u_rows.append((t[:, None] * d2 + k).ravel())
        u_cols.append((off[t, None] + j).ravel())
        u_vals.append(np.broadcast_to(Q[p][k, j], (t.size, k.size)).ravel())
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
    h = sp.csr_matrix(
        (np.where(v.indices == row_of, h_diag[row_of], 0.0), v.indices, v.indptr), shape=(n, n)
    )
    U = sp.csr_matrix(
        (np.concatenate(u_vals), (np.concatenate(u_rows), np.concatenate(u_cols))),
        shape=(basis.dimension * d2, n),
    )
    sectors = []
    for span in basis.sectors():
        full = slice(span.start * d2, span.stop * d2)
        even = slice(int(off[span.start]), int(off[span.stop]))
        sectors.append(
            MirrorSector(full, _block(U, full, even), _block(h, even, even), _block(v, even, even))
        )
    return tuple(sectors)


def build_joint_hamiltonian(
    table: OverlapTable,
    basis: FockBasis,
    probe: ProbeParams,
    dim_cap: int,
) -> JointHamiltonian:
    """Assemble H_0 on the flattened trap x probe x probe space and each sector's reduction.

    The mirror Pi = (trap parity (-1)^(sum_k k n_k)) x (swap of the two
    probes) commutes with H_0 and V, because the table obeys lambdaL =
    P lambdaR P with P = diag((-1)^k); a table that does not is refused.
    Both also conserve the particle number N. Each sector of fixed N is
    therefore kept as H_0 and V on its Pi-even half, which holds every state
    |phi>|00> with phi in the lowest orbital.

    Nothing here depends on the trap state or the pulse: `run_sweep` builds
    it once per sweep, and `exact_state` propagates each point with it.
    """
    d = probe.levels
    total_dim = basis.dimension * d * d
    if total_dim > dim_cap:
        raise DimensionCapError(
            f"joint dimension {total_dim} exceeds cap {dim_cap}"
        )
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

    sectors = _mirror_sectors(basis, lamL, h_trap, h_probe, probe)
    return JointHamiltonian(basis, probe, H0, lamL, lamR, sectors)


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


def exact_state(initial: np.ndarray, ham: JointHamiltonian, pulse: Pulse) -> np.ndarray:
    """Propagate the joint state through the pulse on the mirror-even half of each sector.

    The square pulse makes the Hamiltonian constant, so the sparse matrix
    exponential propagates in one step. H_0 and V conserve the trap particle
    number, so each occupied sector (a contiguous slice of the graded basis)
    is propagated on its own and the others stay zero. Within a sector the
    state is mapped onto its mirror-even half with U^T, propagated with
    -iT (h + g0 v), and mapped back with U; a state with a mirror-odd part
    beyond `_NORM_TOL` is refused, since that part would be dropped. The norm
    drift is checked against `_NORM_TOL` and reported as a hard error when
    exceeded. The size cap was checked when `ham` was built.
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
    scale = -1j * pulse.T
    for sector in ham.sectors:
        x = psi0[sector.span]
        if not x.any():
            continue
        y = sector.U.T @ x
        odd = np.linalg.norm(x - sector.U @ y)
        if odd > _NORM_TOL:
            raise ValueError(
                f"initial state has a mirror-odd part of norm {odd:.3e}; "
                "exact_state propagates the mirror-even half only"
            )
        h, v = sector.h, sector.v
        A = sp.csr_matrix((scale * (h.data + pulse.g0 * v.data), v.indices, v.indptr), shape=v.shape)
        # V's trace vanishes: its probe factors have a zero diagonal
        y = expm_multiply(A, y, traceA=scale * h.data.sum())
        psiT[sector.span] = sector.U @ y
    drift = abs(np.linalg.norm(psiT) - norm0)
    if drift > _NORM_TOL:
        raise IntegratorDriftError(
            f"norm drift {drift:.3e} exceeds tolerance {_NORM_TOL:.3e}"
        )
    return psiT.reshape(initial.shape)
