"""Oracles for the exact route: the whole joint array, and its post-selected weights as positive terms.

`evolution.exact_state` propagates only the mirror-even rows of the sectors a
state occupies and hands post-selection their weight per sector and relative
level (`measurement.postselect_sectors`). The tests form the state here the
former way instead, as its + mode and relative-mode factors over the whole
trap basis, whose product is the (trap, n_+, n_-) array, and sum the weights
post-selection reports from that array. The array forms that `src/` kept
until the exact route read its factors alone live here too: `joint`,
`embed_product`, `perturbative_state` (the first-order state as an array,
read from `H0`) and `postselect` on an array.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from halftrap import evolution, measurement
from halftrap.fock import to_fock_vector

# i^k for k mod 4, exactly
_I_POW = np.array([1.0, 1.0j, -1.0, -1.0j])


def relative_initial(phi, ham, span):
    """phi on the relative mode's ground level, as a vector over the range `span` of its even half."""
    rows = ham.even[span]
    d = ham.probe.levels
    return np.where(rows % d == 0, phi[rows // d], 0.0)


def joint_array_route(phi, ham, pulse):
    """The former `exact_state`: the + mode and relative-mode factors, each a (trap, levels) array.

    It re-derives the per-row maps from `ham.even` and reads the + mode for
    every particle number, per trap state; the joint array is
    plus[:, :, None] * relative[:, None, :].
    """
    basis, d = ham.basis, ham.probe.levels
    relative = np.zeros(basis.dimension * d, dtype=np.complex128)
    occupied = np.flatnonzero(phi)
    if occupied.size:
        lo, hi = ham.basis.number[occupied[[0, -1]]]
        span = slice(int(ham.edges[lo]), int(ham.edges[hi + 1]))
        rows = ham.even[span]
        out = evolution._chebyshev_propagate(ham, span, pulse, relative_initial(phi, ham, span))
        relative[rows] = out * _I_POW[rows % d % 4]
    plus = evolution._centre_of_mass(np.arange(basis.n_max + 1), ham.probe, pulse)[ham.basis.number]
    return plus, relative.reshape(-1, d)


def displacement_sq(N, probe, pulse):
    """|beta_N|^2 = (2 c_N / Omega)^2 sin^2(Omega T / 2), c_N = g0 N sqrt(M Omega / 4), per trap state's N."""
    c = pulse.g0 * N * np.sqrt(probe.M * probe.Omega / 4.0)
    return (2.0 * c / probe.Omega * np.sin(probe.Omega * pulse.T / 2.0)) ** 2


def selected_and_leaked(plus, relative, ham, pulse):
    """The weight outside |00> and outside {|00>, |10>, |01>} in (n_+, n_-), each one `math.fsum`.

    The array's own weights are summed term by term. The + levels past the
    array, n_+ >= d, carry P(d, |beta|^2) = e^(-|beta|^2) sum_(k >= d)
    |beta|^2k / k! of each trap state's relative weight, a positive term
    each, in both sums.
    """
    d = plus.shape[1]
    w = np.abs(plus[:, :, None] * relative[:, None, :]) ** 2
    past = gammainc(d, displacement_sq(ham.basis.number, ham.probe, pulse)) * (np.abs(relative) ** 2).sum(axis=1)
    outside_00 = np.ones((d, d), dtype=bool)
    outside_00[0, 0] = False
    outside_block = outside_00.copy()
    outside_block[1, 0] = outside_block[0, 1] = False
    return (
        math.fsum([*w[:, outside_00].ravel(), *past]),
        math.fsum([*w[:, outside_block].ravel(), *past]),
    )


def sector_level_weights(relative, ham):
    """The weight of each (sector N, relative level n_-) cell of the relative factor, one `math.fsum` each."""
    w = np.abs(relative) ** 2
    return np.array(
        [[math.fsum(w[ham.basis.number == n, m]) for m in range(w.shape[1])] for n in range(ham.basis.n_max + 1)]
    )


def joint(final):
    """The (trap, n_+, n_-) array of an `exact_state` result: plus[t, n_+] * relative[t, n_-]."""
    ham, d = final.ham, final.ham.probe.levels
    relative = np.zeros(ham.basis.dimension * d, dtype=np.complex128)
    kept = ham.even[final.span]
    relative[kept] = final.rows * _I_POW[kept % d % 4]  # back from the frame
    plus = evolution._centre_of_mass(np.arange(ham.basis.n_max + 1), ham.probe, final.pulse)[ham.basis.number]
    return plus[:, :, None] * relative.reshape(-1, d)[:, None, :]


def embed_product(phi, probe):
    """|phi> with both probes in their ground state, as a (trap, probe, probe) array."""
    d = probe.levels
    out = np.zeros((len(phi), d, d), dtype=np.complex128)
    out[:, 0, 0] = phi
    return out


def perturbative_state(c, ham, pulse):
    """First-order joint state, unnormalized, as a (trap, n_+, n_-) array.

    The zero-excitation branch is (1 - i T H_0)|phi>|00>, its H_0 read from
    `ham.H0`; the + and - single excitations carry
    area sqrt(M Omega / 4) times N|phi> and D|phi>.
    """
    probe = ham.probe
    phi = to_fock_vector(c, ham.basis)
    out = embed_product(phi, probe)
    # H_0 is diagonal; its |n>|00> entries are the trap energy plus both zero points
    h00 = ham.H0.reshape(out.shape)[:, 0, 0]
    out[:, 0, 0] -= 1j * pulse.T * h00 * phi
    amp = pulse.area * np.sqrt(probe.M * probe.Omega / 4.0)
    out[:, 1, 0] = amp * ham.basis.number * phi
    out[:, 0, 1] = amp * (ham.D @ phi)
    return out


def array_residual(c, final):
    """||joint(final) - perturbative_state||, summed over the whole (trap, n_+, n_-) array."""
    diff = joint(final) - perturbative_state(c, final.ham, final.pulse)
    return float(np.sqrt(np.vdot(diff, diff).real))


def postselect(array, norm_sq):
    """The block of a (trap, n_+, n_-) array: off |00>, the trap traced out, {|10>, |01>} kept.

    The L and R single excitations are (|10> +- |01>) / sqrt 2 in (n_+, n_-).
    `norm_sq` is the squared norm of the whole state: levels the array leaves
    out count as selected and, outside the block, as leakage.
    """
    branch_10 = (array[:, 1, 0] + array[:, 0, 1]) / math.sqrt(2.0)
    branch_01 = (array[:, 1, 0] - array[:, 0, 1]) / math.sqrt(2.0)
    w10 = float(np.vdot(branch_10, branch_10).real)
    w01 = float(np.vdot(branch_01, branch_01).real)
    coh = complex(np.vdot(branch_01, branch_10))
    selected = norm_sq - float(np.vdot(array[:, 0, 0], array[:, 0, 0]).real)
    return measurement._block(w10, w01, coh, selected, max(selected - w10 - w01, 0.0), norm_sq)
