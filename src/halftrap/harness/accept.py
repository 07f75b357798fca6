"""Acceptance battery: one named target per headline claim, one line each.

Every target recomputes its quantity through the full pipeline and checks it
against an independently derived value (closed form, explicit occupation-basis
expectation, or an exact identity). Targets never share intermediate results
with the thing they check. Output is one `[PASS]`/`[FAIL]` line per target;
the battery exits nonzero if any target fails, and a target that cannot hold
is reported honestly rather than weakened.
"""

from __future__ import annotations

import io
from dataclasses import replace
from math import fsum, sqrt

import numpy as np

from .. import entanglement, measurement, moments, states
from ..orbitals import build_overlap_table
from .config import ExperimentConfig
from .sweep import (
    LOCALITY_LADDER,
    _Route,
    commutator_evidence,
    extract,
    perturbation_evidence,
    run_sweep,
    write_sweep_csv,
)

__all__ = ["TARGETS", "run_accept"]

_ALPHA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
_NUMBER_GRID = tuple(range(1, 11))
_FIDELITY_GRID = (0.5, 2.0, 8.0)
_THERMAL_GRID = (0.5, 1.0, 4.0)
# round-off bound on a commutator that vanishes identically
_ROUNDOFF = 1e-12


def _moment_route(cfg: ExperimentConfig) -> _Route:
    """A route of the configuration pinned to infinite-K limit moments and the amplitude preset."""
    pinned = replace(
        cfg, path="moments", extrapolate=True, pulse_preset="amplitude10", pulse_area=None
    )
    return _Route(pinned)


def _negativity(block) -> float:
    """The partial-transpose negativity of a post-selected block."""
    return entanglement.negativity(entanglement.probe_block_density(block))


def _pipeline_mu(cfg: ExperimentConfig, batch) -> list[float]:
    """Per state, on one pinned route: limit moments -> post-selected block -> partial transpose."""
    route = _moment_route(cfg)
    return [_negativity(extract(route, state, route.cfg.alpha_sq)[1]) for state in batch]


def _limit_mu(state) -> float:
    """|mLR| / S of the state's infinite-mode limit moments, read without a block."""
    mom = moments.analytic_limit_moments(state)
    return abs(mom.mLR) / (mom.mLL + mom.mRR)


def _deviation(got, want) -> float:
    """The largest |got - want| over paired values, 0 for none; a NaN on either side gives NaN."""
    return float(np.max(np.abs(np.subtract(got, want)), initial=0.0))


def _strictly_monotone(values, rising: bool = True) -> bool:
    """Whether each value lies strictly above (or below) the one before; a NaN breaks it."""
    return all(lo < hi if rising else lo > hi for lo, hi in zip(values, values[1:]))


def check_coherent_negativity(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Coherent-state negativity against its closed form over a mean-number grid."""
    batch = [states.coherent_state(alpha_sq=a, tail_tol=cfg.tail_tol) for a in _ALPHA_GRID]
    mus = _pipeline_mu(cfg, batch)
    closed = [entanglement.negativity_closed_form("coherent", a) for a in _ALPHA_GRID]
    worst = _deviation(mus, closed)
    rising = _strictly_monotone(mus)
    ok = worst < cfg.mu_tol and rising
    return ok, (
        f"max |mu - closed form| = {worst:.3e} over alpha_sq in {_ALPHA_GRID} "
        f"(tol {cfg.mu_tol:g}, infinite-K limit); strictly increasing "
        f"toward the 1/2 ceiling: {rising} (the infinite-occupation limit is "
        f"asserted through monotonicity and the closed forms, never evaluated)"
    )


def check_number_negativity(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Number-state negativity; the single-particle value must be compatible with zero."""
    mu_one, *mus = _pipeline_mu(cfg, [states.number_state(N) for N in _NUMBER_GRID])
    closed = [entanglement.negativity_closed_form("number", float(N)) for N in _NUMBER_GRID[1:]]
    worst = _deviation(mus, closed)
    ok = worst < cfg.mu_tol and mu_one < cfg.single_particle_mu_bound
    return ok, (
        f"max |mu - closed form| = {worst:.3e} for N in {_NUMBER_GRID[1:]} "
        f"(tol {cfg.mu_tol:g}); mu(N=1) = {mu_one:.3e} "
        f"(bound {cfg.single_particle_mu_bound:g})"
    )


def check_fidelity(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Remnant-overlap fidelity against 1/sqrt(1 + 2/<n>), rising with <n>."""
    fids = [
        entanglement.disturbance_fidelity(states.coherent_state(alpha_sq=a, tail_tol=cfg.tail_tol))
        for a in _FIDELITY_GRID
    ]
    worst = _deviation(fids, [1.0 / sqrt(1.0 + 2.0 / a) for a in _FIDELITY_GRID])
    rising = _strictly_monotone(fids)
    ok = worst < cfg.f_tol and rising
    return ok, (
        f"max |F - closed form| = {worst:.3e} over alpha_sq in {_FIDELITY_GRID} "
        f"(tol {cfg.f_tol:g}); strictly increasing toward the F = 1 ceiling: "
        f"{rising} (the limit itself is covered by monotonicity, not evaluated)"
    )


def _oracle_states(seed: int) -> list:
    """Twenty small states covering every family, truncated to four quanta."""
    rng = np.random.default_rng(seed)
    out = []
    for N in range(5):
        out.append(states.number_state(N))
    for a in (0.5, 1.0, 2.0, 4.0):
        out.append(states.coherent_state(alpha_sq=a, n_cut=4, tail_tol=1.0))
    for _ in range(6):
        raw = rng.normal(size=5) + 1j * rng.normal(size=5)
        out.append(states.superposition_state(raw / np.linalg.norm(raw)))
    for nbar in (0.5, 1.0, 4.0):
        out.append(states.thermal_state(nbar, n_cut=4, tail_tol=1.0))
    for a in (1.0, 2.0):
        out.append(states.phase_averaged_state(a, n_cut=4, tail_tol=1.0))
    return out


def check_oracle(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Closed-form moments vs explicit occupation-basis expectations, entry by entry.

    The closed form sums T_IJ(K) from the arcsin series and reads no table,
    so the finite-K approach is checked too: on the locality ladder the
    series value of T_LR(K) must equal the fsum of the table column
    lambda^L_k0 lambda^R_k0 and decrease strictly toward its limit 0. The
    basis is a fock route's, so `exact.dim_cap` refuses it before enumerating.
    """
    basis, D, _ = _Route(replace(cfg, path="fock", K=6, n_max=4)).fock
    batch = _oracle_states(cfg.seed)
    closed = [moments.moments_from_state(state, basis.K) for state in batch]
    explicit = [moments.moments_from_fock(state, basis, D) for state in batch]
    worst = _deviation(
        [(m.mLL, m.mRR, m.mLR) for m in closed], [(m.mLL, m.mRR, m.mLR) for m in explicit]
    )
    # one particle: E[n] = 1 and E[n(n-1)] = 0, so mLR is T_LR(K) itself
    series = [
        moments.moments_from_state(states.number_state(1), K).mLR.real
        for K in LOCALITY_LADDER
    ]
    columns = []
    for K in LOCALITY_LADDER:
        t, modes = build_overlap_table(K), np.arange(K)
        columns.append(fsum(memoryview(t.entries("L", modes, 0) * t.entries("R", modes, 0))))
    column_worst = _deviation(series, columns)
    decreasing = _strictly_monotone(series, rising=False)
    ok = worst < cfg.oracle_tol and column_worst < cfg.oracle_tol and decreasing
    return ok, (
        f"{len(batch)} states, six modes, max entry deviation = {worst:.3e} "
        f"(tol {cfg.oracle_tol:g}); T_LR(K) at K={LOCALITY_LADDER}: "
        + ", ".join(f"{t:.6e}" for t in series)
        + f", max deviation from the table column = {column_worst:.3e} "
        f"(tol {cfg.oracle_tol:g}); strictly decreasing: {decreasing}"
    )


def check_perturbation(cfg: ExperimentConfig) -> tuple[bool, str]:
    """First-order residual must shrink quadratically and leakage stay marginal."""
    ev = perturbation_evidence(cfg)
    ratios_ok = all(cfg.ratio_lo <= r <= cfg.ratio_hi for r in ev["ratios"])
    leak = _deviation(ev["leak_fracs"], 0.0)  # the largest fraction; a NaN one is kept
    return ratios_ok and leak < cfg.leakage_fraction, (
        "residual halving ratios "
        + ", ".join(f"{r:.3f}" for r in ev["ratios"])
        + f" (required within [{cfg.ratio_lo:g}, {cfg.ratio_hi:g}]); "
        + "max leakage fraction "
        + f"{leak:.2e} (bound {cfg.leakage_fraction:g})"
    )


def check_commutator(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Truncated coupling operators converge to half-space locality.

    phi_k phi_l has parity (-1)^(k+l), so the half-line integrals obey
    lambda^L_kl = (-1)^(k+l) lambda^R_kl = delta_kl - lambda^R_kl at every K:
    the two coupling operators commute identically, and their measured
    commutator must stay at round-off. What truncation breaks is locality:
    lambda^L lambda^R = lambda^R - (lambda^R)^2 is a sum over the discarded
    modes m >= K, and on a fixed 8x8 block it must decrease strictly at every
    step of the validation ladder.
    """
    ev = commutator_evidence()
    resid, prods = ev["residuals"], ev["products"]
    commute = all(r <= _ROUNDOFF for r in resid)
    decays = _strictly_monotone(prods, rising=False)
    return commute and decays, (
        f"max|[L,R]| at K={LOCALITY_LADDER}: "
        + ", ".join(f"{r:.3e}" for r in resid)
        + f" (bound {_ROUNDOFF:g}, zero by parity); locality product on the "
        + "8x8 block: "
        + ", ".join(f"{p:.4e}" for p in prods)
        + f"; strictly decreasing: {decays}"
    )


def check_structural(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Partial-transpose negativity equals the off-diagonal fraction |rho_01|."""
    rng = np.random.default_rng(cfg.seed)
    blocks, refs = [], []
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = a @ a.conj().T
        rho = h / np.trace(h).real
        blocks.append(
            measurement.ProbeBlock(matrix=rho, p_succ=0.5, leakage=0.0, source="synthetic")
        )
        refs.append(abs(rho[0, 1]))
    for state in (
        states.coherent_state(alpha_sq=2.0),
        states.number_state(3),
        states.thermal_state(1.0),
    ):
        mom = moments.analytic_limit_moments(state)
        blocks.append(measurement.block_from_moments(mom))
        refs.append(abs(mom.mLR) / mom.S)
    worst = _deviation([_negativity(block) for block in blocks], refs)
    ok = worst < cfg.structural_tol
    return ok, (
        f"max |negativity - |rho_01|| = {worst:.3e} over 200 random and 3 "
        f"state-derived blocks (tol {cfg.structural_tol:g})"
    )


def check_mixtures(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Dephased and thermal mixtures against oracles built from factorial moments."""
    # coherent and phase-averaged states share their Poisson populations, so
    # this reads 0 by construction and catches any change that lets a phase
    # reach the moments; the infinite-mode limit adds no truncation noise
    grid, tol = (1.0, 2.0, 4.0), cfg.tail_tol
    dephase_worst = _deviation(
        [_limit_mu(states.coherent_state(alpha_sq=a, tail_tol=tol)) for a in grid],
        [_limit_mu(states.phase_averaged_state(a, tail_tol=tol)) for a in grid],
    )
    batch = [states.thermal_state(nbar, tail_tol=cfg.tail_tol) for nbar in _THERMAL_GRID]
    thermal = _pipeline_mu(cfg, batch)
    # geometric weights give E[n] = nbar, E[n(n-1)] = 2 nbar^2,
    # hence mu -> nbar / (2 (nbar + 1))
    thermal_worst = _deviation(thermal, [nbar / (2.0 * (nbar + 1.0)) for nbar in _THERMAL_GRID])
    ok = dephase_worst < cfg.mixture_exact_tol and thermal_worst < cfg.mu_tol
    return ok, (
        f"max |mu(dephased) - mu(coherent)| = {dephase_worst:.3e} in the "
        f"infinite-mode limit (tol {cfg.mixture_exact_tol:g}); max thermal "
        f"deviation = {thermal_worst:.3e} for nbar in {_THERMAL_GRID} "
        f"(tol {cfg.mu_tol:g}); both reference values are oracles computed "
        f"from Poisson and geometric factorial moments, not quoted results"
    )


def check_determinism(cfg: ExperimentConfig) -> tuple[bool, str]:
    """Same config, same bytes: sweep CSV and seeded sampling are reproducible."""
    scan = replace(
        cfg,
        state="coherent",
        sweep_param="alpha_sq",
        sweep_values=[0.5, 1.0, 2.0, 4.0],
        path="moments",
        timing=False,
        pulse_preset="amplitude10",
        pulse_area=None,
    )
    payloads = []
    for _ in range(2):
        buf = io.StringIO()
        write_sweep_csv(run_sweep(scan), buf)
        payloads.append(buf.getvalue())
    csv_ok = payloads[0] == payloads[1]
    route = _moment_route(cfg)
    _, block = extract(route, states.coherent_state(alpha_sq=2.0), 2.0)
    draws = [measurement.sample_outcomes(block, 10_000, cfg.seed) for _ in range(2)]
    sample_ok = draws[0] == draws[1]
    ok = csv_ok and sample_ok
    return ok, (
        f"sweep CSV bytes identical across two runs: {csv_ok} "
        f"({len(payloads[0])} bytes); "
        f"seeded outcome counts identical: {sample_ok}"
    )


TARGETS = {
    "coherent-negativity": check_coherent_negativity,
    "number-negativity": check_number_negativity,
    "fidelity": check_fidelity,
    "oracle": check_oracle,
    "perturbation": check_perturbation,
    "commutator": check_commutator,
    "structural": check_structural,
    "mixtures": check_mixtures,
    "determinism": check_determinism,
}


def run_accept(cfg: ExperimentConfig, names: list[str], stream) -> int:
    """Run the named targets (or all), one verdict line each; 0 iff all pass."""
    if not names or names == ["all"]:
        names = list(TARGETS)
    unknown = [n for n in names if n not in TARGETS]
    if unknown:
        raise ValueError(f"unknown acceptance target(s): {', '.join(unknown)}")
    failures = 0
    for name in names:
        ok, detail = TARGETS[name](cfg)
        verdict = "PASS" if ok else "FAIL"
        stream.write(f"[{verdict}] {name}: {detail}\n")
        if not ok:
            failures += 1
    stream.write(f"{len(names) - failures}/{len(names)} targets passed\n")
    return 0 if failures == 0 else 2
