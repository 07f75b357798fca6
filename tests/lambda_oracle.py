"""Oracle: the half-space operators Lambda_L and Lambda_R on a truncated Fock basis.

The package builds only their imbalance D = Lambda_L - Lambda_R
(`fock.build_imbalance_operator`) and reads Lambda_L + Lambda_R = N from the
occupations; the tests build the pair itself here, to check D, the
fock-route moments and the joint Hamiltonian against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from halftrap.fock import FockBasis
from halftrap.orbitals import OverlapTable


def build_lambda_operator(side: str, table: OverlapTable, basis: FockBasis) -> sp.csr_matrix:
    """Second-quantized half-space operator sum_{kl} lambda_{kl} a_k^dag a_l, in CSR.

    lambda_kl is nonzero on the diagonal and for k + l odd only. Built in
    O(nnz): every entry is lambda_kl times <m + e_k| a_k^dag a_l |m + e_l> =
    sqrt((m_k + 1) (m_l + 1)) for a state m one particle down; off the
    diagonal no two pairs reach the same entry, and `tocsr` sums the
    diagonal's per-mode terms.
    """
    if table.K != basis.K:
        raise ValueError(f"overlap table has K={table.K} but basis has K={basis.K} modes")
    # up[m, k] is the index of m + e_k, for m below the top sector
    _, j = np.nonzero(basis.states.T)
    up = j.reshape(basis.K, -1).T
    raised = basis.states[: len(up)] + 1
    modes = np.arange(basis.K if len(up) else 0)
    k, l = np.nonzero((modes[:, None] % 2 != modes % 2) | np.eye(len(modes), dtype=bool))
    vals = table.entries(side, k, l) * np.sqrt(raised[:, l] * raised[:, k])
    return sp.coo_matrix(
        (vals.ravel(), (up[:, k].ravel(), up[:, l].ravel())), shape=(basis.dimension, basis.dimension)
    ).tocsr()


def lambda_pair(table: OverlapTable, basis: FockBasis) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(Lambda_L, Lambda_R) on `basis`."""
    return build_lambda_operator("L", table, basis), build_lambda_operator("R", table, basis)
