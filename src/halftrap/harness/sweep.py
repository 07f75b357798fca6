"""Parameter sweeps over trap states and the supporting validation report.

A sweep walks one state parameter over a value grid, pushes each state
through the configured computational path (closed-form moments, explicit
occupation-basis expectation, or full pulse evolution), post-selects, and
records the probe-pair negativity next to its closed form where one exists.
Points run one after another in grid order, so output bytes never depend on
scheduling.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from math import comb, inf, isfinite, isnan, nan, sqrt
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .. import entanglement, measurement, moments, states
from ..orbitals import OverlapTable, build_overlap_table
from .config import _STATE_PARAM, ConfigError, ExperimentConfig, _check_sweep_param

if TYPE_CHECKING:  # the fock and exact routes import them where they first run
    import scipy.sparse as sp

    from .. import evolution, fock

__all__ = [
    "LOCALITY_LADDER",
    "PointResult",
    "commutator_evidence",
    "evaluate_point",
    "extract",
    "perturbation_evidence",
    "resolve_pulse",
    "run_sweep",
    "single_block",
    "write_sweep_csv",
    "write_plot_data",
    "run_validation",
]

_FLOAT_FMT = "%.17g"

# truncations at which validate prints and accept checks the locality defect
LOCALITY_LADDER = (8, 16, 32, 64)

# nonzeros of a Lambda operator, which bound D's, per unit of `exact.dim_cap` (1.28e6 at the default)
_LAMBDA_NNZ_PER_CAP = 64

# how many routes' Fock operators `_fock_build` keeps, each bounded by `exact.dim_cap`
_BUILDS_KEPT = 2

# two-sided 95 percent Student-t quantile at the scaling fit's 3 degrees of freedom
_T_975_DOF3 = 3.1824463052837078


@dataclass
class PointResult:
    """One sweep point; float('nan') marks fields a failed point never set."""

    param: str
    value: float
    mu: float = nan
    mu_closed_form: float | None = None
    fidelity: float | None = None
    p_succ: float = nan
    S: float = nan
    mLL: float = nan
    mRR: float = nan
    mLR_re: float = nan
    mLR_im: float = nan
    leakage: float = nan
    provenance: str = ""
    wall_time: float | None = None
    error: str = ""


def _area_key(cfg: ExperimentConfig) -> str:
    """The key that sets the pulse area: the explicit override, else the preset's own."""
    presets = {"amplitude10": "pulse.amplitude_target", "inverse-quartic": "pulse.g_ref"}
    return "pulse.area" if cfg.pulse_area is not None else presets.get(cfg.pulse_preset, "pulse.area")


def resolve_pulse(cfg: ExperimentConfig, S: float, alpha_sq: float):
    """Pulse area from the configured preset (or the explicit override).

    The inverse-quartic preset reads `alpha_sq`, a sweep point's own, so it
    needs a state family that reads it too. An area of 0, which excites no
    probe, or one whose first-order weight area^2 (M Omega / 2) S is not
    finite, or that divides by an alpha_sq^2 that underflows to zero, is
    refused, naming the key that set it.
    """
    key = _area_key(cfg)
    if cfg.pulse_area is not None:
        area = cfg.pulse_area
    elif cfg.pulse_preset == "amplitude10":
        scale = (cfg.probe_M * cfg.probe_Omega / 2.0) * S
        if scale <= 0.0:
            raise measurement.NoExtractionError(
                "amplitude preset undefined: no weight outside the ground level"
            )
        area = cfg.amplitude_target / sqrt(scale)
    elif cfg.pulse_preset == "inverse-quartic":
        if _STATE_PARAM[cfg.state] != "alpha_sq" or alpha_sq <= 0.0:
            raise ConfigError(
                "pulse.preset",
                "inverse-quartic scaling needs a coherent-family state with alpha_sq > 0",
            )
        square = alpha_sq**2
        area = cfg.g_ref / square if square else inf  # an underflow, refused as an overflow below
    else:
        raise ConfigError("pulse.area", "preset 'none' requires an explicit pulse.area")
    g0 = area / cfg.pulse_T
    area = g0 * cfg.pulse_T  # `Pulse.area`, which an amplitude that overflows makes infinite
    if area == 0.0:
        raise ConfigError(key, "sets the pulse area 0, which extracts nothing")
    # the weight as `block_from_moments` forms it, with a product in place of its `** 2`
    weight = area * area * cfg.probe_M * cfg.probe_Omega / 2.0 * S
    if not isfinite(weight):
        raise ConfigError(key, f"sets the pulse area {area:.3g}, whose first-order weight overflows")
    return measurement.Pulse(T=cfg.pulse_T, g0=g0)


def _exact_final(cfg: ExperimentConfig, ham, c: np.ndarray, pulse) -> evolution.FactoredState:
    """The joint state after the pulse; one too long for its series is refused by the key of its larger part."""
    from .. import evolution

    try:
        return evolution.exact_state(c, ham, pulse)
    except evolution.SeriesLengthError as exc:
        raise ConfigError(_area_key(cfg) if exc.by_coupling else "pulse.T", str(exc)) from None


def _build_state(cfg: ExperimentConfig, value) -> states.TrapState:
    return states.make_state(cfg.state, value, n_cut=cfg.n_cut, tail_tol=cfg.tail_tol)


def _closed_form_for(cfg: ExperimentConfig, value) -> float | None:
    if cfg.state in ("coherent", "phase_averaged"):
        return entanglement.negativity_closed_form("coherent", value)
    if cfg.state == "number":
        return entanglement.negativity_closed_form("number", float(value))
    return None


class _FockBuild(NamedTuple):
    """A route's Fock operators: the basis, D = Lambda_L - Lambda_R and, on the exact route, the Hamiltonian."""

    basis: fock.FockBasis
    D: sp.csr_matrix
    ham: evolution.JointHamiltonian | None


@lru_cache(maxsize=_BUILDS_KEPT)
def _fock_build(table: OverlapTable, n_max: int, probe: measurement.ProbeParams | None) -> _FockBuild:
    """The basis and D from `table`, and the Hamiltonian when a probe is given.

    Kept by what it reads: the table's contents, `n_max` and the probe. A build that raises is not kept.
    """
    from .. import evolution, fock

    basis = fock.FockBasis(table.K, n_max)
    D = fock.build_imbalance_operator(table, basis)
    return _FockBuild(basis, D, None if probe is None else evolution.build_joint_hamiltonian(basis, D, probe))


class _Route:
    """A config's probe, formed at construction, and its overlap table and Fock operators, built on first use.

    None of them depends on a swept parameter, so a sweep forms one route
    for all its points, and `_fock_build` keeps the Fock operators of the
    last `_BUILDS_KEPT` routes for later sweeps and points. Only the fock
    and exact routes read them, and both check the basis size before any
    lookup or build. The Fock layer, and with it scipy, is imported on
    first use, so the moment route never loads it.
    """

    def __init__(self, cfg: ExperimentConfig, table: OverlapTable | None = None) -> None:
        if table is not None and table.K != cfg.K:
            raise ConfigError("table.K", f"is {cfg.K}, but the table passed in has K = {table.K}")
        self.cfg = cfg
        self.probe = measurement.ProbeParams(cfg.probe_M, cfg.probe_Omega, cfg.probe_levels)
        if table is not None:
            self.table = table  # an instance attribute shadows the cached property

    @cached_property
    def table(self) -> OverlapTable:
        return build_overlap_table(self.cfg.K)

    def _check_size(self) -> None:
        """Refuse a basis over `exact.dim_cap` before anything is looked up or built.

        The cap bounds the dimension and, `_LAMBDA_NNZ_PER_CAP` times over, Lambda's
        nonzeros: the diagonal, and per state one particle down, the pairs k + l odd (D's).
        """
        cfg = self.cfg
        K, n = cfg.K, cfg.n_max
        dim = comb(n + K, K)
        nnz = dim - 1 + comb(n - 1 + K, K) * 2 * (K // 2) * ((K + 1) // 2)
        size = "Fock dimension C(fock.n_max + table.K, table.K)"
        sizes = f"C({cfg.n_max} + {cfg.K}, {cfg.K})"
        if cfg.path == "exact":
            dim *= cfg.probe_levels**2
            size = "joint dimension C(fock.n_max + table.K, table.K) * probe.levels^2"
            sizes += f" * {cfg.probe_levels}^2"
        if dim > cfg.exact_dim_cap:
            raise ConfigError("exact.dim_cap", f"is {cfg.exact_dim_cap}, below the {size} = {sizes} = {dim}")
        if nnz > _LAMBDA_NNZ_PER_CAP * cfg.exact_dim_cap:
            raise ConfigError("exact.dim_cap", f"is {cfg.exact_dim_cap}, below the {nnz} nonzeros of Lambda / {_LAMBDA_NNZ_PER_CAP}")

    @cached_property
    def fock(self) -> _FockBuild:
        """The route's Fock operators, refused over `exact.dim_cap` before any lookup or build."""
        self._check_size()
        return _fock_build(self.table, self.cfg.n_max, self.probe if self.cfg.path == "exact" else None)


def extract(
    route: _Route, state: states.TrapState, alpha_sq: float
) -> tuple[moments.ProbeBlockMoments | None, measurement.ProbeBlock]:
    """The point pipeline: block moments by route, pulse, post-selected block.

    The moment route uses the infinite-K limit or the finite-K closed form,
    as `moments.extrapolate` says, and reads no table; the fock route the
    occupation-basis expectations. The exact route evolves the joint state
    instead and returns None for the moments; every state evolves as the
    vector sum_n sqrt(p_n) |n>, which gives the block of any state with
    those populations, pure or mixed, since H conserves N and every
    quantity post-selection forms is a sum within one sector. `route`
    carries the config, probe, table and Fock operators (see `_Route`); a
    state past `fock.n_max` is refused before either route builds anything.
    Only the inverse-quartic preset reads `alpha_sq`, the point's value.
    """
    cfg = route.cfg
    if cfg.path != "moments" and state.n_cut > cfg.n_max:
        raise ConfigError("fock.n_max", f"is {cfg.n_max}, below the state's last level n = {state.n_cut}")
    if cfg.path == "exact":
        ham = route.fock.ham
        pulse = resolve_pulse(cfg, ham.coupling_weight(state.vector), alpha_sq)
        final = _exact_final(cfg, ham, state.vector, pulse)
        return None, measurement.postselect_sectors(final.weights, final.beta_sq, state.norm_sq())
    if cfg.path == "fock":
        mom = moments.moments_from_fock(state, route.fock.basis, route.fock.D)
    elif cfg.extrapolate:
        mom = moments.analytic_limit_moments(state)
    else:
        mom = moments.moments_from_state(state, cfg.K)
    pulse = resolve_pulse(cfg, mom.S, alpha_sq)
    return mom, measurement.block_from_moments(mom, pulse, route.probe, state.norm_sq())


def single_block(
    cfg: ExperimentConfig, table: OverlapTable | None = None
) -> measurement.ProbeBlock:
    """Post-selected block for the configured state, via the configured path."""
    return extract(_Route(cfg, table), _build_state(cfg, getattr(cfg, _STATE_PARAM[cfg.state])), cfg.alpha_sq)[1]


def evaluate_point(route: _Route, value: float | None = None) -> PointResult:
    """Evaluate the route's state at `value` of `sweep.param`, else at its own; never raises, errors land in `.error`.

    The route's config is not copied: the value goes to the state, the
    inverse-quartic area and the closed form, the only readers of a swept
    parameter. A `sweep.param` the state never reads is refused as
    `validate` refuses it.
    """
    cfg = route.cfg
    param = cfg.sweep_param or "none"
    out = PointResult(param=param, value=nan if value is None else float(value))
    started = time.perf_counter()
    try:
        _check_sweep_param(cfg.state, cfg.sweep_param)
        if value is None:
            value = getattr(cfg, _STATE_PARAM[cfg.state])
        elif cfg.sweep_param is None:
            raise ConfigError("sweep.param", "no sweep parameter configured")
        elif param == "number_n":
            if value != int(value):
                raise ConfigError("sweep.values", f"particle number {value} not an integer")
            if value > states._N_CUT_CEILING:
                raise ConfigError("sweep.values", f"particle number {value} must be <= {states._N_CUT_CEILING}")
            value = int(value)
        else:
            value = float(value)

        state = _build_state(cfg, value)
        mom, block = extract(route, state, value)
        if mom is None:
            out.provenance = block.source
        else:
            out.provenance = mom.provenance
            out.S = mom.S
            out.mLL = mom.mLL
            out.mRR = mom.mRR
            out.mLR_re = mom.mLR.real
            out.mLR_im = mom.mLR.imag
        out.mu = entanglement.block_negativity(block)
        out.p_succ = block.p_succ
        out.leakage = block.leakage
        out.mu_closed_form = _closed_form_for(cfg, value)
        if cfg.state == "coherent":
            if cfg.path != "moments":  # fock and exact rows: finite-K closed form
                mom = moments.moments_from_state(state, cfg.K)
            out.fidelity = entanglement.disturbance_fidelity(state, mom)
    except Exception as exc:  # noqa: BLE001 - one bad point must not kill the grid
        out.error = f"{type(exc).__name__}: {exc}"
    if cfg.timing:
        out.wall_time = time.perf_counter() - started
    return out


def run_sweep(cfg: ExperimentConfig, table: OverlapTable | None = None) -> list[PointResult]:
    """Evaluate the configured grid; results come back in grid order.

    Every point reads one route, formed from `cfg` and `table`: the overlap
    table and the Fock operators are built at the first point that reads
    them, unless a recent sweep or point with equal inputs left them (see
    `_Route`), so a point costs its state vector and the propagation of the
    particle-number sectors it occupies; a build that fails fails again at
    each point, so every row carries its own error.
    """
    if cfg.sweep_param is None:
        raise ConfigError("sweep.param", "no sweep parameter configured")
    if not cfg.sweep_values:
        raise ConfigError("sweep.values", "sweep requested but value list is empty")
    route = _Route(cfg, table)
    return [evaluate_point(route, v) for v in cfg.sweep_values]


def _blank(value) -> str:
    return ""


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and isnan(value)):
        return ""
    return _FLOAT_FMT % value


def write_sweep_csv(results: list[PointResult], stream, timing: bool = False) -> None:
    """17-significant-digit CSV; reruns with one config produce identical bytes.

    One column per `PointResult` field, in field order; `wall_time` stays
    blank unless `timing` is set.
    """
    names = [f.name for f in fields(PointResult)]
    cell = [str if f.type == "str" else _fmt for f in fields(PointResult)]  # once per column
    if not timing:
        cell[names.index("wall_time")] = _blank
    row = attrgetter(*names)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    for r in results:
        writer.writerow([fmt(v) for fmt, v in zip(cell, row(r))])


def write_plot_data(results: list[PointResult], stream) -> None:
    """Long-form companion table (series, x, y) for external plotting."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["series", "x", "y"])
    for r in results:
        if r.error:
            continue
        writer.writerow(["mu", _fmt(r.value), _fmt(r.mu)])
        if r.mu_closed_form is not None:
            writer.writerow(["mu_closed_form", _fmt(r.value), _fmt(r.mu_closed_form)])
        if r.fidelity is not None:
            writer.writerow(["fidelity", _fmt(r.value), _fmt(r.fidelity)])


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log y vs log x with a 95 percent half-width.

    The half-width uses `_T_975_DOF3`, so it holds for the five-point grid of
    `_scaling_section` only.
    """
    lx = np.log(x)
    ly = np.log(y)
    dof = len(lx) - 2
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    se = sqrt(float(resid @ resid) / dof / float(((lx - lx.mean()) ** 2).sum()))
    return float(slope), _T_975_DOF3 * se


def perturbation_evidence(cfg: ExperimentConfig) -> dict:
    """First-order model vs full evolution on a small instance, pulse-length ladder.

    Two particles in four modes, four probe levels. The amplitude rule pins
    the excited-branch weight at T0; the ladder then halves T at fixed
    coupling, so the first-order residual shrinks as T^2. The instance is
    built as an exact route, so `exact.dim_cap` refuses it before enumerating,
    and its pulse comes from `resolve_pulse` at T0. Each residual and
    leakage fraction reads the factored state that `extract` post-selects.
    """
    from .. import evolution

    T0 = 0.02
    small = replace(
        cfg, path="exact", K=4, n_max=3, probe_levels=4, probe_M=1.0, probe_Omega=1.0,
        pulse_T=T0, pulse_area=None, pulse_preset="amplitude10",
    )
    ham = _Route(small).fock.ham
    state = states.number_state(2)
    g0 = resolve_pulse(small, ham.coupling_weight(state.vector), small.alpha_sq).g0
    lengths = (T0, T0 / 2, T0 / 4)
    residuals = []
    leak_fracs = []
    for T in lengths:
        pulse = measurement.Pulse(T=T, g0=g0)
        final = _exact_final(small, ham, state.vector, pulse)
        residuals.append(evolution.first_order_residual(state.vector, final))
        block = measurement.postselect_sectors(final.weights, final.beta_sq, state.norm_sq())
        leak_fracs.append(block.leakage / block.p_succ)
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    return {"T": lengths, "residuals": residuals, "ratios": ratios, "leak_fracs": leak_fracs}


def commutator_evidence() -> dict:
    """[Lambda_L, Lambda_R] residual and the 8x8 locality product at each K of LOCALITY_LADDER."""
    from .. import fock

    tables = [build_overlap_table(K) for K in LOCALITY_LADDER]
    return {
        "residuals": [fock.single_particle_commutator_residual(t) for t in tables],
        "products": [fock.locality_product_residual(t) for t in tables],
    }


def _perturbative_section(cfg: ExperimentConfig, lines: list[str]) -> None:
    ev = perturbation_evidence(cfg)
    lines.append("perturbative regime (two particles, four modes, pulse-length ladder)")
    lines.append("      T      residual      leakage_frac")
    for T, residual, frac in zip(ev["T"], ev["residuals"], ev["leak_fracs"]):
        lines.append(f"  {T:7.4g}  {residual:12.6g}  {frac:12.6g}")
    lines.append(
        "  halving ratios "
        + ", ".join(f"{r:.3f}" for r in ev["ratios"])
        + " (second-order residual doubles them toward 4)"
    )
    lines.append("")


def _scaling_section(cfg: ExperimentConfig, lines: list[str]) -> None:
    """Success probability vs mean particle number under inverse-quartic areas."""
    grid = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    scan = replace(
        cfg, state="coherent", path="moments", extrapolate=True, pulse_preset="inverse-quartic", pulse_area=None
    )
    route = _Route(scan)
    probs = []
    for a in grid:
        state = states.coherent_state(alpha_sq=float(a), tail_tol=cfg.tail_tol)
        probs.append(extract(route, state, float(a))[1].p_succ)
    slope, half = _fit_loglog(grid, np.array(probs))
    lines.append("success probability under inverse-quartic pulse areas")
    lines.append("  alpha_sq    p_succ")
    for a, p in zip(grid, probs):
        lines.append(f"  {a:8.4g}  {p:.6e}")
    lines.append(
        f"  fitted exponent {slope:+.4f} (95% half-width {half:.4f}); "
        "measured, not asserted"
    )
    lines.append("")


def _commutator_section(lines: list[str]) -> None:
    """The two coupling operators commute identically at every truncation."""
    lines.append("single-particle commutator residual vs truncation")
    lines.append("     K   max|[L,R]|   corner-product")
    ev = commutator_evidence()
    for K, resid, prod in zip(LOCALITY_LADDER, ev["residuals"], ev["products"]):
        lines.append(f"  {K:4d}  {resid:11.4e}  {prod:13.6e}")
    lines.append(
        "  note: phi_k phi_l has parity (-1)^(k+l), so the half-line integrals"
    )
    lines.append(
        "  obey lambda_L = P lambda_R P = 1 - lambda_R with P = diag((-1)^k);"
    )
    lines.append(
        "  the commutator vanishes identically at every K, and the fixed"
    )
    lines.append(
        "  upper-corner product above is the quantity that decays as the"
    )
    lines.append("  truncation grows.")
    lines.append("")


def _superposition_section(lines: list[str]) -> None:
    """Two-component superpositions, reported without a closed-form target."""
    lines.append("two-component superpositions (no closed form; values reported only)")
    cases = [
        ("(|0> + |1>)/sqrt(2)", [1 / sqrt(2), 1 / sqrt(2)]),
        ("(|0> + |2>)/sqrt(2)", [1 / sqrt(2), 0.0, 1 / sqrt(2)]),
    ]
    for label, coeffs in cases:
        state = states.superposition_state(coeffs)
        mom = moments.analytic_limit_moments(state)
        mu = abs(mom.mLR) / mom.S if mom.S > 0 else 0.0
        lines.append(f"  {label}: mu = {mu:.12g}")
    lines.append(
        "  the first family carries no pair weight (E[n(n-1)] = 0), so its"
    )
    lines.append("  coherence vanishes; the second extracts a finite value.")
    lines.append("")


def run_validation(cfg: ExperimentConfig) -> str:
    """Assemble the numbered evidence report; informational, no assertions."""
    lines: list[str] = ["validation report", "=" * 17, ""]
    _perturbative_section(cfg, lines)
    _scaling_section(cfg, lines)
    _commutator_section(lines)
    _superposition_section(lines)
    # one particle: E[n] = 1 and E[n(n-1)] = 0, so the moments are the sums T_IJ
    sums = moments.moments_from_state(states.number_state(1), cfg.K)
    lines.append(
        f"truncation sums at K={cfg.K}: T_LL+T_RR = {sums.S:.10f}, "
        f"T_LR = {sums.mLR.real:.6e}"
    )
    return "\n".join(lines) + "\n"
