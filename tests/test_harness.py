"""Config grammar, sweep driver, CSV stability, and the command-line surface."""

import copy
import hashlib
import io
import re
import subprocess
import sys
from dataclasses import fields, replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halftrap import evolution, fock, moments, orbitals
from halftrap.entanglement import BipartiteDensity, negativity_closed_form
from halftrap.harness import cli
from halftrap.harness.accept import TARGETS
from halftrap.harness.config import (
    _FIELDS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    parse_config_text,
)
from halftrap.harness.sweep import (
    _BUILDS_KEPT,
    _T_975_DOF3,
    PointResult,
    _fock_build,
    _Route,
    evaluate_point,
    perturbation_evidence,
    resolve_pulse,
    run_sweep,
    run_validation,
    single_block,
    write_plot_data,
    write_sweep_csv,
)
from halftrap.measurement import NoExtractionError, ProbeParams, Pulse
from halftrap.moments import moments_from_state
from halftrap.states import number_state
from exact_oracle import array_residual, joint_array_route, selected_and_leaked
from lambda_oracle import build_lambda_operator


def _cli(args, env, cwd=None, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "halftrap.harness.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        input=input_text,
        timeout=300,
    )


# ---------------------------------------------------------------- config


def test_parse_config_basics():
    text = """
    # run shape
    state = number
    number_n = 3   # inline comment
    table.K = 64

    sweep.values = 1, 2, 3
    """
    entries = parse_config_text(text)
    assert entries == {
        "state": "number",
        "number_n": "3",
        "table.K": "64",
        "sweep.values": "1, 2, 3",
    }


def test_parse_config_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text("seed = 1\nseed = 2\n")
    assert err.value.fieldname == "seed"
    assert "line 2" in str(err.value)


def test_parse_config_missing_equals_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("state = coherent\nnonsense\n")
    assert err.value.fieldname == "line 2"


@pytest.mark.parametrize(
    "text, field, message",
    [
        (" = 1", "line 1", "empty key"),
        ("alpha_sq = abc", "alpha_sq", "not a number: 'abc'"),
        ("sweep.values = ,", "sweep.values", "list must be non-empty"),
        ("sweep.values = 1, x", "sweep.values", "not a comma-separated number list: '1, x'"),
    ],
)
def test_a_malformed_config_line_is_refused_naming_its_field(text, field, message):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_entries(parse_config_text(text))
    assert (err.value.fieldname, str(err.value)) == (field, f"config field {field!r}: {message}")


def test_apply_overrides():
    base = {"state": "coherent", "seed": "1"}
    merged = apply_overrides(base, ["seed=99", "table.K = 32"])
    assert merged == {"state": "coherent", "seed": "99", "table.K": "32"}
    assert base["seed"] == "1"
    with pytest.raises(ConfigError):
        apply_overrides(base, ["no-equals-here"])


def test_from_entries_defaults_and_types():
    cfg = ExperimentConfig.from_entries({})
    assert cfg.state == "coherent"
    assert cfg.K == 512
    assert cfg.extrapolate is True
    cfg2 = ExperimentConfig.from_entries(
        {"state": "thermal", "nbar": "0.5", "moments.extrapolate": "false", "seed": "7"}
    )
    assert cfg2.nbar == 0.5
    assert cfg2.extrapolate is False
    assert cfg2.seed == 7


@pytest.mark.parametrize(
    "entries, field",
    [
        ({"table.K": "0"}, "table.K"),
        ({"table.K": "lots"}, "table.K"),
        ({"state": "squeezed"}, "state"),
        ({"accept.mu_tol": "-1"}, "accept.mu_tol"),
        ({"sweep.param": "alpha_sq"}, "sweep.values"),
        ({"state": "superposition"}, "coeffs"),
        ({"probe.levels": "1"}, "probe.levels"),
        ({"moments.extrapolate": "maybe"}, "moments.extrapolate"),
        ({"number_n": "-2"}, "number_n"),
        ({"alpha_sq": "nan"}, "alpha_sq"),
        ({"pulse.T": "inf"}, "pulse.T"),
        ({"tail_tol": "inf"}, "tail_tol"),
        ({"sweep.param": "alpha_sq", "sweep.values": "1, nan"}, "sweep.values"),
        ({"state": "superposition", "coeffs": "nan, 1"}, "coeffs"),
        ({"sweep.param": "bogus", "sweep.values": "1"}, "sweep.param"),
        ({"nbar": "-0.5"}, "nbar"),
        ({"n_cut": "-1"}, "n_cut"),
        ({"fock.n_max": "-1"}, "fock.n_max"),
        ({"exact.dim_cap": "0"}, "exact.dim_cap"),
        ({"probe.M": "0"}, "probe.M"),
        ({"seed": "-1"}, "seed"),
        ({"n_cut": "100001"}, "n_cut"),
        ({"number_n": "100001"}, "number_n"),
        ({"state": "number", "number_n": "10000000"}, "number_n"),
    ],
)
def test_validation_names_the_field(entries, field):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_entries(entries)
    assert err.value.fieldname == field


# one non-default entry per schema key, and the value its field must take
_NON_DEFAULT = {
    "state": ("number", "number"),
    "alpha_sq": ("0.5", 0.5),
    "number_n": ("7", 7),
    "coeffs": ("1, 0.5j", [1, 0.5j]),
    "nbar": ("3.5", 3.5),
    "n_cut": ("9", 9),
    "tail_tol": ("1e-6", 1e-6),
    "table.K": ("64", 64),
    "path": ("exact", "exact"),
    "moments.extrapolate": ("off", False),
    "fock.n_max": ("2", 2),
    "pulse.T": ("0.25", 0.25),
    "pulse.area": ("0.125", 0.125),
    "pulse.preset": ("none", "none"),
    "pulse.amplitude_target": ("0.2", 0.2),
    "pulse.g_ref": ("0.3", 0.3),
    "probe.M": ("2", 2.0),
    "probe.Omega": ("3", 3.0),
    "probe.levels": ("2", 2),
    "exact.dim_cap": ("100", 100),
    "sweep.param": ("alpha_sq", "alpha_sq"),
    "sweep.values": ("1, 2.5", [1.0, 2.5]),
    "seed": ("7", 7),
    "timing": ("yes", True),
}


def test_schema_defaults_and_keys():
    assert ExperimentConfig.from_entries({}) == ExperimentConfig()
    assert [f.metadata["key"] for f in fields(ExperimentConfig)] == list(_NON_DEFAULT)


def test_the_parser_table_lists_every_declared_key_once():
    # parsing and validating read one table formed from the declarations, so a new field needs no second list
    declared = [(f.metadata["key"], f.name) for f in fields(ExperimentConfig)]
    assert [(key, row[0]) for key, row in _FIELDS.items()] == declared


@pytest.mark.parametrize("f", fields(ExperimentConfig), ids=lambda f: f.metadata["key"])
def test_each_key_sets_its_own_field(f):
    key = f.metadata["key"]
    text, value = _NON_DEFAULT[key]
    # a sweep needs a value list; every other key stands alone
    extra = {"sweep.values": "0.5"} if key == "sweep.param" else {}
    cfg = ExperimentConfig.from_entries({key: text, **extra})
    want = replace(ExperimentConfig(), **{f.name: value})
    if extra:
        want.sweep_values = [0.5]
    assert cfg == want
    assert value != getattr(ExperimentConfig(), f.name)


# the fixed acceptance bounds, which no config entry may set
_BOUNDS = {
    "mu_tol": 1e-3,
    "f_tol": 1e-3,
    "oracle_tol": 1e-12,
    "single_particle_mu_bound": 1e-6,
    "mixture_exact_tol": 1e-12,
    "structural_tol": 1e-12,
    "leakage_fraction": 0.01,
    "ratio_lo": 3.0,
    "ratio_hi": 5.0,
}


def test_unknown_key_in_a_config_file_is_refused():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_entries(parse_config_text("state = number\nzeta = 1\n"))
    assert err.value.fieldname == "zeta"
    assert "not a config key" in str(err.value)


@pytest.mark.parametrize("key", ["pulse.shape", *(f"accept.{name}" for name in _BOUNDS)])
def test_retired_keys_are_refused(key):
    # pulse.shape had one value, square; the bounds are constants
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_entries({key: "square" if key == "pulse.shape" else "1"})
    assert err.value.fieldname == key


@pytest.mark.parametrize("name", _BOUNDS)
def test_acceptance_bounds_are_fixed_constants(name):
    assert name not in {f.name for f in fields(ExperimentConfig)}
    assert getattr(ExperimentConfig.from_entries({}), name) == _BOUNDS[name]
    with pytest.raises(TypeError):
        replace(ExperimentConfig(), **{name: 1.0})


def test_workers_entry_still_parses():
    # benchmark sweep configs carry `workers = 1`, the one undeclared entry let through
    assert ExperimentConfig.from_entries({"workers": "1"}) == ExperimentConfig()


def test_readme_names_only_declared_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
    declared = [f.metadata["key"] for f in fields(ExperimentConfig)]
    named = []
    for row in table.splitlines()[2:]:
        first = re.sub(r"\([^)]*\)", "", row.split("|")[1])  # drop the defaults
        named += re.findall(r"`([^`]+)`", first)
    assert sorted(named) == sorted(declared)


# ---------------------------------------------------------------- sweep


# the one parameter each state family reads
_READS = {
    "coherent": "alpha_sq",
    "number": "number_n",
    "superposition": None,
    "thermal": "nbar",
    "phase_averaged": "alpha_sq",
}


@pytest.mark.parametrize("state", list(_READS))
@pytest.mark.parametrize("param", ["alpha_sq", "number_n", "nbar"])
def test_a_sweep_walks_only_the_parameter_its_state_reads(state, param):
    entries = {"state": state, "coeffs": "1", "sweep.param": param, "sweep.values": "1, 3, 9"}
    if param == _READS[state]:
        assert ExperimentConfig.from_entries(entries).sweep_param == param
    else:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_entries(entries)
        assert err.value.fieldname == "sweep.param"
        # a config built by hand skips `validate`; each of its points is refused with the
        # same message, never evaluated at the state's own field under the wrong label
        cfg = ExperimentConfig(state=state, coeffs=[1], sweep_param=param, sweep_values=[1.0, 3.0, 9.0])
        rows = [evaluate_point(_Route(cfg)), evaluate_point(_Route(cfg), 5.0), *run_sweep(cfg)]
        assert [row.error for row in rows] == [f"ConfigError: {err.value}"] * 5


def test_fit_quantile_is_the_student_t_quantile():
    # validate's scaling fit has five points, so three degrees of freedom
    from scipy.stats import t

    assert _T_975_DOF3 == t.ppf(0.975, 3)


def test_run_sweep_requires_sweep_param():
    cfg = ExperimentConfig.from_entries({})
    with pytest.raises(ConfigError) as err:
        run_sweep(cfg)
    assert err.value.fieldname == "sweep.param"


def test_number_sweep_matches_closed_form(table512):
    cfg = ExperimentConfig.from_entries(
        {
            "state": "number",
            "sweep.param": "number_n",
            "sweep.values": "2, 3, 5",
        }
    )
    results = run_sweep(cfg, table=table512)
    assert [r.value for r in results] == [2.0, 3.0, 5.0]
    for r, expected in zip(results, (1.0 / 6.0, 0.25, 1.0 / 3.0)):
        assert r.error == ""
        assert r.mu == pytest.approx(expected, abs=1e-6)
        assert r.mu_closed_form == pytest.approx(expected, rel=1e-15)
        assert r.fidelity is None
        assert r.provenance == "analytic-limit"
        assert 0.0 < r.p_succ < 1.0


def test_sweep_point_error_is_reported_not_raised(table512):
    # the inverse-quartic preset needs a coherent amplitude; a number state
    # cannot supply one, so the row carries the failure instead of the run
    cfg = ExperimentConfig.from_entries(
        {
            "state": "number",
            "pulse.preset": "inverse-quartic",
            "sweep.param": "number_n",
            "sweep.values": "2",
        }
    )
    (row,) = run_sweep(cfg, table=table512)
    assert row.error != ""
    assert row.mu != row.mu  # NaN


def test_csv_bytes_are_stable(table512):
    cfg = ExperimentConfig.from_entries(
        {
            "sweep.param": "alpha_sq",
            "sweep.values": "1, 2",
        }
    )
    results = run_sweep(cfg, table=table512)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_sweep_csv(results, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    header = bufs[0].splitlines()[0]
    assert header == (
        "param,value,mu,mu_closed_form,fidelity,p_succ,S,mLL,mRR,mLR_re,mLR_im,"
        "leakage,provenance,wall_time,error"
    )
    # 17 significant digits survive a text round trip
    row = bufs[0].splitlines()[1].split(",")
    assert float(row[2]) == results[0].mu


def test_wall_time_column_only_on_request(table512):
    cfg = ExperimentConfig.from_entries(
        {
            "sweep.param": "alpha_sq",
            "sweep.values": "2",
            "timing": "true",
        }
    )
    results = run_sweep(cfg, table=table512)
    assert results[0].wall_time is not None and results[0].wall_time > 0
    quiet, timed = io.StringIO(), io.StringIO()
    write_sweep_csv(results, quiet)
    write_sweep_csv(results, timed, timing=True)
    q_row = quiet.getvalue().splitlines()[1].split(",")
    t_row = timed.getvalue().splitlines()[1].split(",")
    assert q_row[-2] == ""
    assert t_row[-2] != ""


def test_plot_data_rows(table512):
    cfg = ExperimentConfig.from_entries(
        {
            "sweep.param": "alpha_sq",
            "sweep.values": "1, 4",
        }
    )
    results = run_sweep(cfg, table=table512)
    buf = io.StringIO()
    write_plot_data(results, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "series,x,y"
    series = [ln.split(",")[0] for ln in lines[1:]]
    # coherent points carry all three series
    assert series.count("mu") == 2
    assert series.count("mu_closed_form") == 2
    assert series.count("fidelity") == 2


@pytest.mark.parametrize("path", ["moments", "fock"])
def test_table_of_another_size_is_refused(path, table6):
    # table.K is honoured on every route: a table built for other K is not used
    cfg = ExperimentConfig.from_entries(
        {
            "state": "number",
            "path": path,
            "table.K": "8",
            "sweep.param": "number_n",
            "sweep.values": "2",
        }
    )
    for call in (run_sweep, single_block):
        with pytest.raises(ConfigError) as err:
            call(cfg, table6)
        assert err.value.fieldname == "table.K"


def test_fock_path_agrees_with_series_route(table6):
    cfg = ExperimentConfig.from_entries(
        {
            "state": "number",
            "number_n": "2",
            "path": "fock",
            "table.K": "6",
            "fock.n_max": "4",
        }
    )
    row = evaluate_point(_Route(cfg, table6))
    assert row.error == ""
    assert row.provenance == "fock-K"
    reference = moments_from_state(number_state(2), table6.K)
    assert row.mLL == pytest.approx(reference.mLL, rel=1e-12)
    assert row.mu == pytest.approx(
        abs(reference.mLR) / (reference.mLL + reference.mRR), rel=1e-12
    )


@pytest.mark.parametrize("state", ["coherent", "number"])
@pytest.mark.parametrize("extrapolate", ["true", "false"])
def test_extrapolate_key_is_honoured_or_refused(state, extrapolate):
    # honoured at any K, here one that is not a multiple of 4
    param = "alpha_sq" if state == "coherent" else "number_n"
    cfg = ExperimentConfig.from_entries(
        {
            "state": state,
            "table.K": "30",
            "moments.extrapolate": extrapolate,
            "sweep.param": param,
            "sweep.values": "2",
        }
    )
    (row,) = run_sweep(cfg)
    assert row.error == ""
    assert row.provenance == ("analytic-limit" if extrapolate == "true" else "finite-K")
    assert (row.fidelity is not None) == (state == "coherent")


def test_large_amplitude_coherent_sweep_completes(table512):
    # alpha_sq past ~708, where exp(-alpha_sq) is subnormal
    cfg = ExperimentConfig.from_entries(
        {"table.K": "512", "sweep.param": "alpha_sq", "sweep.values": "722.4, 745, 1024"}
    )
    for row in run_sweep(cfg, table=table512):
        assert row.error == ""
        assert abs(row.mu - negativity_closed_form("coherent", row.value)) <= cfg.mu_tol
        assert abs(row.fidelity - 1.0 / sqrt(1.0 + 2.0 / row.value)) <= cfg.f_tol


def test_large_phase_averaged_point_matches_coherent_closed_form(table512):
    # phase averaging leaves every block moment unchanged; n_cut = 10711 here
    cfg = ExperimentConfig.from_entries(
        {"state": "phase_averaged", "table.K": "512", "sweep.param": "alpha_sq", "sweep.values": "10000"}
    )
    (row,) = run_sweep(cfg, table=table512)
    assert row.error == ""
    assert abs(row.mu - negativity_closed_form("coherent", 1e4)) <= cfg.mu_tol


def _count_calls(monkeypatch, owner, attr: str) -> list:
    """Patch every module binding of owner.attr to log its first argument."""
    original = getattr(owner, attr)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("halftrap") and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, counting)
    return calls


def test_exact_point_builds_one_imbalance_operator(table6, monkeypatch):
    # the exact route reads Lambda_L - Lambda_R only, built as one operator
    imbalance = _count_calls(monkeypatch, fock, "build_imbalance_operator")
    cfg = ExperimentConfig.from_entries(
        {
            "state": "number",
            "number_n": "2",
            "path": "exact",
            "table.K": "6",
            "fock.n_max": "4",
            "probe.levels": "4",
            "pulse.T": "0.05",
        }
    )
    row = evaluate_point(_Route(cfg, table6))
    assert row.error == ""
    assert imbalance == [table6]


def test_perturbation_target_builds_one_imbalance_operator(accept_cfg, monkeypatch):
    # the first-order model reuses the operator of the Hamiltonian it is checked against
    imbalance = _count_calls(monkeypatch, fock, "build_imbalance_operator")
    ok, detail = TARGETS["perturbation"](accept_cfg)
    assert ok, detail
    assert len(imbalance) == 1


def test_perturbation_evidence_matches_the_array_oracles(accept_cfg, monkeypatch):
    # at the defaults, each residual against the whole-array one of the oracle's first-order state
    # (0.72 eps relative at worst), and each leakage fraction against the positive-term oracle's
    # leaked / selected (0.73 eps; the former array form was off by up to 1.6e-10)
    seen = []
    residual = evolution.first_order_residual

    def spy(c, final):
        seen.append((c, final))
        return residual(c, final)

    monkeypatch.setattr(evolution, "first_order_residual", spy)
    ev = perturbation_evidence(accept_cfg)
    assert len(seen) == len(ev["T"]) == 3
    eps = np.finfo(float).eps
    for (c, final), got, frac in zip(seen, ev["residuals"], ev["leak_fracs"]):
        expect = array_residual(c, final)
        assert abs(got - expect) <= 4 * eps * expect
        plus, relative = joint_array_route(fock.to_fock_vector(c, final.ham.basis), final.ham, final.pulse)
        selected, leaked = selected_and_leaked(plus, relative, final.ham, final.pulse)
        assert abs(frac - leaked / selected) <= 4 * eps * frac


def test_validate_prints_the_perturbative_rows_unchanged(accept_cfg):
    # the rows and the ratio line as the report printed them when the residual was summed over
    # the whole joint array and the leakage post-selected from it
    lines = run_validation(accept_cfg).splitlines()
    start = lines.index("      T      residual      leakage_frac")
    assert lines[start + 1 : start + 5] == [
        "     0.02     0.0108601     0.0053709",
        "     0.01    0.00271945    0.00134509",
        "    0.005   0.000680138   0.000336419",
        "  halving ratios 3.994, 3.998 (second-order residual doubles them toward 4)",
    ]


_ROUTE = {
    "state": "number",
    "table.K": "6",
    "fock.n_max": "4",
    "probe.levels": "4",
    "pulse.T": "0.05",
}


def _route_cfg(path: str, **entries: str) -> ExperimentConfig:
    sweep = {"sweep.param": "number_n", "sweep.values": "1, 2, 3, 4"}
    return ExperimentConfig.from_entries({**_ROUTE, "path": path, **sweep, **entries})


@pytest.mark.parametrize(
    "entries, field",
    [
        ({"pulse.area": "1e155"}, "pulse.area"),
        ({"pulse.amplitude_target": "1e200"}, "pulse.amplitude_target"),
        ({"pulse.preset": "inverse-quartic", "pulse.g_ref": "1e200"}, "pulse.g_ref"),
        ({"pulse.area": "1e308", "pulse.T": "0.5"}, "pulse.area"),  # g0 = area / T overflows too
        # alpha_sq^2 underflows to 0, so g_ref / alpha_sq^2 would divide by zero
        ({"pulse.preset": "inverse-quartic", "alpha_sq": "1e-200"}, "pulse.g_ref"),
    ],
)
def test_a_pulse_whose_first_order_weight_overflows_is_refused(entries, field):
    # area^2 (M Omega / 2) S passes the largest float, 1.8e308, for each of these
    cfg = ExperimentConfig.from_entries(entries)
    with pytest.raises(ConfigError) as err:
        resolve_pulse(cfg, 4.0, cfg.alpha_sq)
    assert err.value.fieldname == field
    assert resolve_pulse(replace(cfg, pulse_area=1e153), 4.0, cfg.alpha_sq).area == 1e153
    sweep = {"sweep.param": "alpha_sq", "sweep.values": entries.get("alpha_sq", "1, 2")}
    rows = run_sweep(ExperimentConfig.from_entries({**entries, **sweep}))
    assert all(row.error.startswith(f"ConfigError: config field {field!r}") for row in rows)


def test_the_perturbation_ladder_resolves_its_pulse_with_the_weight_check(accept_cfg, cli_env):
    # the ladder's pulse comes from `pulse.amplitude_target` through `resolve_pulse`
    cfg = replace(accept_cfg, amplitude_target=1e200)
    with pytest.raises(ConfigError) as err:
        perturbation_evidence(cfg)
    assert err.value.fieldname == "pulse.amplitude_target"
    proc = _cli(["validate", "--set", "pulse.amplitude_target=1e200"], cli_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config field 'pulse.amplitude_target'")


@pytest.mark.parametrize(
    "entries, field",
    [
        ({"pulse.area": "1e100"}, "pulse.area"),
        ({"pulse.area": "1e6"}, "pulse.area"),
        ({"pulse.amplitude_target": "1e100"}, "pulse.amplitude_target"),
        ({"pulse.preset": "inverse-quartic", "pulse.g_ref": "1e100"}, "pulse.g_ref"),
        ({"pulse.T": "1e5"}, "pulse.T"),
    ],
)
def test_a_pulse_too_long_for_its_series_is_refused(entries, field, table6):
    # a finite first-order weight, but T r far past the Chebyshev series' term cap;
    # a long pulse of small area is blamed on its length
    coherent = {"state": "coherent", "alpha_sq": "0.4", "n_cut": "4", "tail_tol": "1e-3"}
    cfg = ExperimentConfig.from_entries({**_ROUTE, "path": "exact", **coherent, **entries})
    with pytest.raises(ConfigError, match="past the cap of") as err:
        single_block(cfg, table6)
    assert err.value.fieldname == field


def test_an_area_past_the_gershgorin_cap_runs_within_the_one_body_bound(table6):
    # at T = 2 pi / Omega the + mode ends in its ground level, so a strong area still leaves a
    # block; at area 5000 the Gershgorin hull alone puts T r past the cap (it was refused by
    # `pulse.area`), and its intersection with the one-body interval does not
    coherent = {"state": "coherent", "alpha_sq": "0.4", "n_cut": "4", "tail_tol": "1e-3"}
    T = 2.0 * np.pi
    entries = {**_ROUTE, "path": "exact", **coherent, "pulse.T": repr(T), "pulse.area": "5000"}
    block = single_block(ExperimentConfig.from_entries(entries), table6)
    assert 0.0 < block.p_succ <= 1.0 and np.isfinite(block.matrix).all()
    # the sectors 0-4 the state occupies are the whole basis
    basis = fock.FockBasis(6, 4)
    ham = evolution.build_joint_hamiltonian(basis, fock.build_imbalance_operator(table6, basis), evolution.ProbeParams(levels=4))
    g0 = 5000.0 / T
    gershgorin = np.ptp(np.concatenate((ham.h - g0 * ham.radius, ham.h + g0 * ham.radius))) / 2.0
    one_body = np.ptp(np.concatenate((ham.h - g0 * ham.bound, ham.h + g0 * ham.bound))) / 2.0
    assert T * one_body <= evolution._MAX_TERMS < T * gershgorin


@pytest.mark.parametrize("T", [2.0**-530, 2.0**-1000], ids=["2**-530", "2**-1000"])
def test_a_vanishing_pulse_length_keeps_the_exact_block_finite(T, table6):
    # at a fixed area x = g0 N sqrt(M Omega / 4) / Omega passes 1e154 (about 3.0e158
    # and 9.1e299 at N = 2 here), so x * x overflows while Omega T - sin Omega T is 0;
    # the phase must not become inf * 0. Powers of two make g0 = area / T,
    # area = g0 * T and x * T exact, so the blocks agree bit for bit by construction
    entries = {**_ROUTE, "path": "exact", "number_n": "2"}
    ref = 2.0**-500
    at = {t: single_block(ExperimentConfig.from_entries({**entries, "pulse.T": repr(t)}), table6) for t in (ref, T)}
    assert np.array_equal(at[T].matrix, at[ref].matrix)
    assert at[T].p_succ == at[ref].p_succ and at[T].leakage == at[ref].leakage


def test_cli_samples_an_exact_pulse_whose_series_argument_is_tiny(capsys):
    # T r near 1e-100 once overflowed the Bessel recurrence: a traceback and exit 1 from the
    # CLI, and an IndexError row from a sweep, where the moment and fock routes run
    sets = ["table.K=4", "path=exact", "fock.n_max=3", "probe.levels=3", "pulse.T=1e-100", "pulse.area=1e-100"]
    sets += ["state=number", "number_n=2"]
    assert cli.main(["sample", "--shots", "10", *(a for s in sets for a in ("--set", s))]) == 0
    assert capsys.readouterr().err == ""
    entries = dict(s.split("=") for s in sets)
    rows = run_sweep(ExperimentConfig.from_entries({**entries, "sweep.param": "number_n", "sweep.values": "1, 2, 3"}))
    assert [row.error for row in rows] == [""] * 3


def test_cli_refuses_a_pulse_too_long_for_its_series(cli_env):
    args = ["sample", "--shots", "10", "--set", "path=exact", "--set", "table.K=4"]
    args += ["--set", "fock.n_max=3", "--set", "state=number", "--set", "pulse.area=1e100"]
    proc = _cli(args, cli_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config field 'pulse.area'")
    assert "Traceback" not in proc.stderr


def _count_builds(monkeypatch) -> dict:
    """Log each basis enumeration, D build and Hamiltonian build, by its first argument."""
    bases = []
    post_init = fock.FockBasis.__post_init__

    def counting(basis):
        bases.append(basis.K)
        post_init(basis)

    monkeypatch.setattr(fock.FockBasis, "__post_init__", counting)
    return {
        "basis": bases,
        "D": _count_calls(monkeypatch, fock, "build_imbalance_operator"),
        "ham": _count_calls(monkeypatch, evolution, "build_joint_hamiltonian"),
    }


def _sweep_csv(cfg: ExperimentConfig, table=None) -> str:
    buf = io.StringIO()
    write_sweep_csv(run_sweep(cfg, table), buf)
    return buf.getvalue()


@pytest.mark.parametrize("path, hamiltonians", [("fock", 0), ("exact", 1)])
def test_sweep_builds_its_fock_operators_once(path, hamiltonians, table6, monkeypatch):
    # both routes build the imbalance D = Lambda_L - Lambda_R once, and the exact route its
    # Hamiltonian from it; the fock route reads Lambda_{L,R} as (N +- D) / 2
    builds = _count_builds(monkeypatch)
    cfg = _route_cfg(path)
    cold = _sweep_csv(cfg, table6)
    assert cold.count(",\n") == 4  # every row's error column is empty
    assert builds["basis"] == [6]
    assert builds["D"] == [table6]
    assert len(builds["ham"]) == hamiltonians
    # equal K, n_max and probe: later sweeps and single points reuse the build, a
    # table built afresh from K has the same contents, and warm rows keep their bytes
    assert _sweep_csv(cfg, table6) == _sweep_csv(cfg) == cold
    assert evaluate_point(_Route(replace(cfg, number_n=2), table6)).error == ""
    assert single_block(replace(cfg, number_n=3)).p_succ > 0
    assert builds["basis"] == [6]
    assert builds["D"] == [table6]
    assert len(builds["ham"]) == hamiltonians


def test_probe_levels_rebuild_the_exact_route_only(table6, monkeypatch):
    builds = _count_builds(monkeypatch)
    for levels in ("4", "3"):
        assert _sweep_csv(_route_cfg("fock", **{"probe.levels": levels}), table6).count(",\n") == 4
    assert builds["basis"] == [6]
    for levels in ("4", "3"):
        assert _sweep_csv(_route_cfg("exact", **{"probe.levels": levels}), table6).count(",\n") == 4
    assert len(builds["ham"]) == 2 and builds["basis"] == [6, 6, 6]
    # both Hamiltonians are kept: rerunning either exact sweep builds nothing
    for levels in ("3", "4"):
        assert _sweep_csv(_route_cfg("exact", **{"probe.levels": levels}), table6).count(",\n") == 4
    assert len(builds["ham"]) == 2 and builds["basis"] == [6, 6, 6]


def test_a_table_with_other_contents_rebuilds(table6, monkeypatch):
    builds = _count_builds(monkeypatch)
    cfg = _route_cfg("exact")
    cold = _sweep_csv(cfg, table6)
    altered = orbitals.OverlapTable(K=6, value=table6.value * (1 + 2.0**-52), slope=table6.slope)
    assert altered != table6
    moved = _sweep_csv(cfg, altered)
    assert builds["D"] == [table6, altered]
    assert len(builds["ham"]) == 2
    assert moved != cold
    assert _sweep_csv(cfg, table6) == cold  # both builds are kept
    assert len(builds["ham"]) == 2


def test_a_build_that_raises_is_not_kept(table6, monkeypatch):
    original = fock.build_imbalance_operator
    calls = []

    def failing(table, basis):
        calls.append(table)
        if len(calls) <= 8:
            raise MemoryError("no room for D")
        return original(table, basis)

    monkeypatch.setattr(fock, "build_imbalance_operator", failing)
    cfg = _route_cfg("fock")
    for sweep_no in (1, 2):
        rows = run_sweep(cfg, table6)
        # every row of every sweep tries the build again and carries its error
        assert [row.error for row in rows] == ["MemoryError: no room for D"] * 4
        assert len(calls) == 4 * sweep_no
        assert _fock_build.cache_info().currsize == 0
    assert [row.error for row in run_sweep(cfg, table6)] == [""] * 4
    assert len(calls) == 9
    assert _fock_build.cache_info().currsize == 1


def test_the_store_keeps_the_last_two_builds(monkeypatch):
    builds = _count_builds(monkeypatch)
    routes = [
        _route_cfg("exact", **{"table.K": "4"}),
        _route_cfg("exact", **{"table.K": "5"}),
        _route_cfg("fock", **{"table.K": "5"}),
        _route_cfg("exact", **{"table.K": "6"}),
        _route_cfg("exact", **{"table.K": "6", "fock.n_max": "5"}),
    ]
    for cfg in routes:
        assert [row.error for row in run_sweep(cfg)] == [""] * 4
        assert _fock_build.cache_info().currsize <= _BUILDS_KEPT == 2
    assert builds["basis"] == [4, 5, 5, 6, 6]
    # the last two are kept and the oldest of them is refreshed by its use ...
    for cfg in (routes[3], routes[4], routes[3]):
        run_sweep(cfg)
    assert builds["basis"] == [4, 5, 5, 6, 6]
    # ... so a new key evicts the other, and an evicted key builds again
    run_sweep(routes[0])
    run_sweep(routes[3])
    assert builds["basis"] == [4, 5, 5, 6, 6, 4]
    run_sweep(routes[4])
    assert builds["basis"] == [4, 5, 5, 6, 6, 4, 6]


@pytest.mark.parametrize("path", ["exact", "fock"])
def test_the_size_cap_is_checked_before_a_kept_build_is_reused(path, table6, monkeypatch):
    builds = _count_builds(monkeypatch)
    tables = _count_calls(monkeypatch, orbitals, "build_overlap_table")
    assert [row.error for row in run_sweep(_route_cfg(path))] == [""] * 4
    assert builds["basis"] == [6] and len(tables) == 1
    # the same key over a lower cap: refused, by every row, with the build kept
    cap = "100"
    for table in (None, table6):
        rows = run_sweep(_route_cfg(path, **{"exact.dim_cap": cap}), table)
        assert all(row.error.startswith("ConfigError: config field 'exact.dim_cap'") for row in rows)
    with pytest.raises(ConfigError) as err:
        single_block(_route_cfg(path, **{"exact.dim_cap": cap}))
    assert err.value.fieldname == "exact.dim_cap"
    assert builds["basis"] == [6] and len(tables) == 1
    assert _fock_build.cache_info().currsize == 1


def _exact_ham() -> evolution.JointHamiltonian:
    return _Route(_route_cfg("exact")).fock.ham


# one of each frozen record that holds arrays, built when its test runs
_ARRAY_RECORDS = {
    "TrapState": lambda: number_state(2),
    "ProbeBlock": lambda: single_block(ExperimentConfig()),
    "BipartiteDensity": lambda: BipartiteDensity(2, 2, np.eye(4) / 4),
    "JointHamiltonian": _exact_ham,
    "FactoredState": lambda: evolution.exact_state(number_state(2).vector, _exact_ham(), Pulse(T=0.05, g0=1.0)),
}


@pytest.mark.parametrize("name", list(_ARRAY_RECORDS))
def test_a_record_that_holds_arrays_compares_and_hashes_by_identity(name):
    record = _ARRAY_RECORDS[name]()
    assert type(record).__name__ == name
    assert record == record and {record: name}[record] == name
    assert copy.copy(record) != record


@pytest.mark.parametrize(
    "entries",
    [
        {"state": "number", "number_n": "3"},
        {"state": "coherent", "alpha_sq": "0.4", "n_cut": "4", "tail_tol": "1e-3"},
        {"state": "superposition", "coeffs": "0.6, 0, 0.8j"},
    ],
    ids=["number", "coherent", "superposition"],
)
def test_exact_route_block_is_mirror_symmetric(entries, table6):
    # trap parity times the probe swap is a symmetry, so both probes are excited alike
    # one point, no sweep: a coherent or superposition state reads no number_n
    cfg = ExperimentConfig.from_entries(
        {**_ROUTE, "path": "exact", "pulse.area": "0.2", **entries}
    )
    block = single_block(cfg, table6)
    assert block.p_succ > 0
    assert block.matrix[0, 0] == pytest.approx(block.matrix[1, 1], rel=1e-14, abs=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    K=st.integers(1, 6),
    n_max=st.integers(1, 4),
    levels=st.integers(2, 4),
    raw=st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=5,
    ),
    area=st.floats(0.01, 1.0),
    T=st.floats(0.05, 1.0),
)
def test_exact_route_block_is_mirror_symmetric_on_random_points(K, n_max, levels, raw, area, T):
    coeffs = np.array(raw[: n_max + 1])
    # weight past the vacuum, or the pulse excites nothing
    assume(np.linalg.norm(coeffs[1:]) > 1e-3)
    cfg = ExperimentConfig(
        state="superposition",
        coeffs=list(coeffs / np.linalg.norm(coeffs)),
        path="exact",
        K=K,
        n_max=n_max,
        probe_levels=levels,
        pulse_T=T,
        pulse_area=area,
    )
    block = single_block(cfg)
    assert block.p_succ > 0
    assert block.matrix[0, 0] == pytest.approx(block.matrix[1, 1], rel=1e-14, abs=0)


def test_sweep_rows_match_points_evaluated_alone(table6):
    # sharing the operators between points changes no byte of a row
    for path in ("fock", "exact"):
        cfg = _route_cfg(path)
        shared = run_sweep(cfg, table6)
        alone = [evaluate_point(_Route(cfg, table6), v) for v in cfg.sweep_values]
        assert shared == alone


_SMALL_FOCK = {"table.K": "4", "fock.n_max": "3"}
_WEAK = {"n_cut": "3", "tail_tol": "0.5"}
_INVERSE_QUARTIC = {"state": "coherent", "pulse.preset": "inverse-quartic", "sweep.param": "alpha_sq"}
# number_n values the sweep refuses before evaluating, with the refusal each row carries
_REFUSED = {
    2.5: "ConfigError: config field 'sweep.values': particle number 2.5 not an integer",
    100001.0: "ConfigError: config field 'sweep.values': particle number 100001.0 must be <= 100000",
}
_POINT_SWEEPS = {
    "moments-inverse-quartic": {**_INVERSE_QUARTIC, "sweep.values": "0.5, 3, 7.5, 40"},
    "moments-finite-K": {"state": "coherent", "table.K": "16", "moments.extrapolate": "false",
                         "sweep.param": "alpha_sq", "sweep.values": "0.5, 3"},
    "moments-number": {"state": "number", "sweep.param": "number_n", "sweep.values": "1, 2.5, 100001, -1, 7"},
    "moments-thermal": {"state": "thermal", "sweep.param": "nbar", "sweep.values": "0.5, 4"},
    "moments-phase-averaged": {**_INVERSE_QUARTIC, "state": "phase_averaged", "sweep.values": "0.5, 6"},
    "fock-inverse-quartic": {**_SMALL_FOCK, **_WEAK, **_INVERSE_QUARTIC, "path": "fock", "sweep.values": "0.5, 1, 3"},
    "fock-number": {**_SMALL_FOCK, "path": "fock", "state": "number", "sweep.param": "number_n",
                    "sweep.values": "1, 2.5, 100001, -1, 3"},
    "exact-inverse-quartic": {**_SMALL_FOCK, **_WEAK, **_INVERSE_QUARTIC, "path": "exact", "pulse.T": "0.05",
                              "sweep.values": "0.5, 1, 3"},
    "exact-number": {**_SMALL_FOCK, "path": "exact", "pulse.T": "0.05", "state": "number",
                     "sweep.param": "number_n", "sweep.values": "3, 2.5, 100001, -1, 1"},
}


def _replaced_point(cfg: ExperimentConfig, value: float):
    """The row of `value` by copying the config to hold it, then evaluating that copy as a single point."""
    param = cfg.sweep_param
    if param == "number_n" and value in _REFUSED:
        return PointResult(param=param, value=value, error=_REFUSED[value])
    row = evaluate_point(_Route(replace(cfg, **{param: int(value) if param == "number_n" else value})))
    row.value = value
    return row


def _csv(rows) -> str:
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("entries", _POINT_SWEEPS.values(), ids=list(_POINT_SWEEPS))
def test_every_reader_gets_the_points_value(entries):
    # the state, the inverse-quartic area and the closed form each read the swept
    # value, never the config's own (alpha_sq 2, number_n 2, nbar 1)
    cfg = ExperimentConfig.from_entries(entries)
    rows = run_sweep(cfg)
    assert _csv(rows) == _csv([_replaced_point(cfg, v) for v in cfg.sweep_values])
    assert sum(not row.error for row in rows) >= 2


# each key that can set the pulse area, at 0
_ZERO_AREAS = {
    "pulse.area": {"pulse.area": "0"},
    "pulse.amplitude_target": {"pulse.amplitude_target": "0"},
    "pulse.g_ref": {"pulse.preset": "inverse-quartic", "pulse.g_ref": "0"},
}


@pytest.mark.parametrize("key", list(_ZERO_AREAS))
@pytest.mark.parametrize("path", ["moments", "fock", "exact"])
def test_a_zero_pulse_area_is_refused_naming_its_key(path, key, capsys):
    # an area of 0 excites no probe: every route refuses it, never a row of p_succ 0
    entries = {"state": "coherent", **_WEAK, **_ZERO_AREAS[key], "path": path}
    if path != "moments":
        entries.update(_SMALL_FOCK, **{"pulse.T": "0.05"})
    message = f"config field {key!r}: sets the pulse area 0, which extracts nothing"
    code = cli.main(["sample", "--shots", "10", *(a for k, v in entries.items() for a in ("--set", f"{k}={v}"))])
    assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")
    rows = run_sweep(ExperimentConfig.from_entries({**entries, "sweep.param": "alpha_sq", "sweep.values": "0.5, 2"}))
    assert [row.error for row in rows] == [f"ConfigError: {message}"] * 2


@pytest.mark.parametrize(
    "entries", [{"alpha_sq": "0"}, {"state": "number", "number_n": "0"}], ids=["coherent", "number"]
)
@pytest.mark.parametrize("path", ["moments", "fock", "exact"])
def test_a_state_with_no_excited_weight_is_refused_on_every_route(path, entries):
    # the vacuum gives the amplitude preset no weight to scale its area by
    entries = {**entries, "path": path, **(_SMALL_FOCK if path != "moments" else {})}
    message = "^amplitude preset undefined: no weight outside the ground level$"
    with pytest.raises(NoExtractionError, match=message):
        single_block(ExperimentConfig.from_entries(entries))


def test_preset_none_without_an_area_is_refused_naming_the_area():
    cfg = ExperimentConfig.from_entries({"pulse.preset": "none"})
    with pytest.raises(ConfigError) as err:
        single_block(cfg)
    assert err.value.fieldname == "pulse.area"
    assert str(err.value) == "config field 'pulse.area': preset 'none' requires an explicit pulse.area"


# per family: the swept parameter, its grid, m = E[n(n-1)] / E[n] at a value, and a bound
# twice the largest gap measured over the grid at every K below (the states' `tail_tol` cut)
_FINITE_K_LAW = {
    "coherent": ("alpha_sq", np.geomspace(0.1, 700, 15).tolist(), lambda a: a, 1.1e-10),
    "number": ("number_n", range(1, 51), lambda n: n - 1, 4e-16),
    "thermal": ("nbar", np.geomspace(0.1, 20, 12).tolist(), lambda nbar: 2 * nbar, 2.4e-10),
    "phase_averaged": ("alpha_sq", np.geomspace(0.5, 8, 8).tolist(), lambda a: a, 3e-11),
}


@pytest.mark.parametrize("K", [6, 64, 512, 2**20, None], ids=["6", "64", "512", "2^20", "limit"])
@pytest.mark.parametrize("state", list(_FINITE_K_LAW))
def test_moment_rows_follow_the_finite_K_law(state, K):
    # mu_K = (m + 1 - 4 s) / (2 (m + 1 + 4 s)) with s = s(K), 1/4 in the limit
    param, grid, m_of, bound = _FINITE_K_LAW[state]
    cfg = ExperimentConfig.from_entries({
        "state": state, "table.K": str(K or 512), "moments.extrapolate": str(K is None).lower(),
        "sweep.param": param, "sweep.values": ", ".join(map(repr, grid)),
    })
    s = 0.25 if K is None else moments._partial_sum(K)
    rows = run_sweep(cfg)
    assert [row.error for row in rows] == [""] * len(rows)
    for row in rows:
        m = m_of(row.value)
        assert abs(row.mu - (m + 1 - 4 * s) / (2 * (m + 1 + 4 * s))) <= bound, row.value


def test_a_value_given_without_a_sweep_parameter_is_refused():
    row = evaluate_point(_Route(ExperimentConfig()), 3.0)
    assert row.error == "ConfigError: config field 'sweep.param': no sweep parameter configured"
    assert (row.param, row.value) == ("none", 3.0)
    assert _csv([row]) == _csv([PointResult(param="none", value=3.0, error=row.error)])


@pytest.mark.parametrize(
    "entries, points",
    [
        ({"state": "coherent", "sweep.param": "alpha_sq"}, 64),
        ({**_SMALL_FOCK, "path": "exact", "pulse.T": "0.05", "state": "number", "sweep.param": "number_n"}, 8),
    ],
    ids=["moments", "exact"],
)
def test_a_sweep_copies_no_config_and_forms_one_probe(entries, points, monkeypatch):
    # a point passes its value on, so what a sweep constructs does not grow with its points
    values = [repr(1.0 + i % 3) for i in range(points)]
    sweeps = [ExperimentConfig.from_entries({**entries, "sweep.values": ", ".join(values[:n])}) for n in (1, points)]
    made = []

    def logged(cls):
        init = cls.__init__

        def logging(self, *args, **kwargs):
            made.append(cls.__name__)
            init(self, *args, **kwargs)

        return logging

    for cls in (ExperimentConfig, ProbeParams):
        monkeypatch.setattr(cls, "__init__", logged(cls))
    counts = []
    for cfg in sweeps:
        made.clear()
        rows = run_sweep(cfg)
        assert [row.error for row in rows] == [""] * len(cfg.sweep_values)
        counts.append(sorted(made))
    assert counts == [["ProbeParams"]] * 2


def test_exact_sweep_rows_report_their_own_errors(table6, monkeypatch):
    bases = []
    post_init = fock.FockBasis.__post_init__

    def counting(basis):
        bases.append(basis.K)
        post_init(basis)

    monkeypatch.setattr(fock.FockBasis, "__post_init__", counting)
    tables = _count_calls(monkeypatch, orbitals, "build_overlap_table")
    # over the cap: refused from C(n_max + K, K) before any state is enumerated
    # and before the overlap table is allocated
    for path in ("exact", "fock"):
        over = _route_cfg(path, **{"table.K": "30", "fock.n_max": "5"})
        rows = run_sweep(over)
        assert all(
            row.error.startswith("ConfigError: config field 'exact.dim_cap'") for row in rows
        )
        assert len(rows) == 4 and bases == []
    assert tables == []
    # a point past the basis fails alone; its neighbours share the operators
    rows = run_sweep(_route_cfg("exact", **{"sweep.values": "2, 6, 3"}), table6)
    assert rows[0].error == rows[2].error == ""
    assert rows[1].error == (
        "ConfigError: config field 'fock.n_max': is 4, below the state's last level n = 6"
    )
    assert bases == [6]


@pytest.mark.parametrize("path", ["exact", "fock"])
@pytest.mark.parametrize(
    "entries, last",
    [
        ({"state": "coherent", "alpha_sq": "2"}, 18),
        ({"state": "thermal", "nbar": "1"}, 39),
        ({"state": "number", "number_n": "6"}, 6),
        ({"state": "superposition", "coeffs": "0.6, 0, 0, 0, 0, 0.8"}, 5),
    ],
    ids=["coherent", "thermal", "number", "superposition"],
)
def test_a_state_past_the_basis_is_refused_by_n_max_before_enumerating(path, entries, last, monkeypatch):
    # the state's last level is checked against fock.n_max before the basis, the table
    # or the Hamiltonian is built; a sweep refuses each such row on its own
    bases = []
    monkeypatch.setattr(fock.FockBasis, "__post_init__", lambda basis: bases.append(basis.K))
    tables = _count_calls(monkeypatch, orbitals, "build_overlap_table")
    cfg = ExperimentConfig.from_entries({**_ROUTE, "path": path, "fock.n_max": "3", **entries})
    with pytest.raises(ConfigError) as err:
        single_block(cfg)
    assert err.value.fieldname == "fock.n_max"
    assert str(err.value).endswith(f"is 3, below the state's last level n = {last}")
    if entries["state"] != "superposition":  # the one family no sweep may walk
        param = next(key for key in entries if key != "state")
        rows = run_sweep(replace(cfg, sweep_param=param, sweep_values=[float(entries[param])] * 2))
        assert [row.error for row in rows] == [f"ConfigError: {err.value}"] * 2
    assert bases == [] and tables == []


def test_exact_route_runs_mixtures(table6):
    # a thermal state evolves as sum_n sqrt(p_n) |n>; its rows agree with the fock
    # route's within the benchmark's exact-vs-fock row bound, the first-order
    # remainder at pulse.T = 0.05
    thermal = {"state": "thermal", "sweep.param": "nbar", "sweep.values": "1, 2"}
    thermal.update({"n_cut": "4", "tail_tol": "0.2"})
    exact, fock_rows = (run_sweep(_route_cfg(path, **thermal), table6) for path in ("exact", "fock"))
    assert [row.error for row in exact + fock_rows] == [""] * 4
    assert all(abs(a.mu - b.mu) <= 2e-3 for a, b in zip(exact, fock_rows))


def test_cli_refuses_an_exact_route_over_the_cap_at_once(cli_env):
    # the fock route at default settings would enumerate C(516, 4) ~ 2.9e9 states;
    # at K = 4000 and n_max = 1 its dimension is 4001, but each Lambda would hold 8e6 entries;
    # a one-particle state fits every basis, so `fock.n_max` refuses none of them first
    one = ["state=number", "number_n=1"]
    fock_4000 = ["path=fock", "fock.n_max=1", *one, "table.K=4000"]
    for sets in (["path=exact", "table.K=30", "fock.n_max=5", *one], ["path=fock", *one], fock_4000):
        args = ["sample", "--shots", "10"]
        for item in sets:
            args += ["--set", item]
        proc = _cli(args, cli_env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: config field 'exact.dim_cap'")
        assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("path, K, n_max", [("fock", 200, 1), ("fock", 80, 2), ("exact", 520, 1)])
def test_the_cap_bounds_the_nonzeros_of_lambda(path, K, n_max, monkeypatch):
    # the refusal counts Lambda's nonzeros exactly, before any state is enumerated,
    # and admits 64 of them per unit of the cap
    basis = fock.FockBasis(K, n_max)
    nnz = build_lambda_operator("L", orbitals.build_overlap_table(K), basis).nnz
    entries = {"path": path, "state": "number", "number_n": "1", "table.K": str(K)}
    entries.update({"fock.n_max": str(n_max), "probe.levels": "2", "pulse.T": "0.05"})
    cap = -(-nnz // 64)
    assert cap >= basis.dimension * (4 if path == "exact" else 1)  # the dimension passes
    monkeypatch.setattr(fock.FockBasis, "__post_init__", None)  # enumerating would fail
    with pytest.raises(ConfigError, match=f"below the {nnz} nonzeros of Lambda / 64") as err:
        single_block(ExperimentConfig.from_entries({**entries, "exact.dim_cap": str(cap - 1)}))
    assert err.value.fieldname == "exact.dim_cap"
    monkeypatch.undo()
    assert single_block(ExperimentConfig.from_entries({**entries, "exact.dim_cap": str(cap)})).p_succ > 0


def test_the_oracle_target_builds_its_basis_under_the_cap(accept_cfg):
    # the oracle's fock basis at K = 6 and n_max = 4 holds C(10, 6) = 210 states
    with pytest.raises(ConfigError, match="Fock dimension .* = C[(]4 [+] 6, 6[)] = 210") as err:
        TARGETS["oracle"](replace(accept_cfg, exact_dim_cap=209))
    assert err.value.fieldname == "exact.dim_cap"
    ok, _ = TARGETS["oracle"](replace(accept_cfg, exact_dim_cap=210))
    assert ok


@pytest.mark.parametrize("verb", [["accept", "perturbation"], ["validate"]])
def test_cli_refuses_the_perturbation_instance_over_the_cap(verb, cli_env):
    # the perturbation evidence evolves a fixed instance of joint dimension 560;
    # the refusal names its K = 4, n_max = 3 and 4 levels, not the default table.K = 512
    proc = _cli([*verb, "--set", "exact.dim_cap=100"], cli_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config field 'exact.dim_cap'")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.rstrip().endswith("probe.levels^2 = C(3 + 4, 4) * 4^2 = 560")
    assert "512" not in proc.stderr


@pytest.mark.parametrize(
    "sets",
    [
        ["state=number", "number_n=5", "n_cut=2"],
        ["state=superposition", "coeffs=0.6,0,0.8", "n_cut=1"],
    ],
)
def test_cli_refuses_an_n_cut_below_the_states_last_level(sets, cli_env):
    args = ["sample", "--shots", "10"]
    for item in sets:
        args += ["--set", item]
    proc = _cli(args, cli_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: n_cut")
    assert len(proc.stderr.splitlines()) == 1


def test_a_number_sweep_refuses_only_the_levels_past_n_cut():
    cfg = ExperimentConfig.from_entries(
        {"state": "number", "n_cut": "2", "sweep.param": "number_n", "sweep.values": "1, 2, 3"}
    )
    rows = run_sweep(cfg)
    assert [row.error for row in rows[:2]] == ["", ""]
    assert rows[2].error.startswith("ValueError: n_cut = 2 is below")


def test_a_number_sweep_refuses_a_particle_number_past_the_ceiling_in_its_own_row():
    cfg = ExperimentConfig.from_entries(
        {"state": "number", "sweep.param": "number_n", "sweep.values": "2, 100001, 2.5, 100000"}
    )
    rows = run_sweep(cfg)
    assert [rows[0].error, rows[3].error] == ["", ""]
    assert rows[1].error == "ConfigError: config field 'sweep.values': particle number 100001.0 must be <= 100000"
    assert rows[2].error == "ConfigError: config field 'sweep.values': particle number 2.5 not an integer"


@pytest.mark.parametrize("path, builds", [("moments", 0), ("fock", 1), ("exact", 1)])
def test_only_the_fock_and_exact_routes_build_a_table(path, builds, monkeypatch):
    calls = _count_calls(monkeypatch, orbitals, "build_overlap_table")
    cfg = ExperimentConfig.from_entries(
        {
            "state": "number",
            "number_n": "2",
            "path": path,
            "table.K": "4",
            "fock.n_max": "3",
            "probe.levels": "4",
            "pulse.T": "0.05",
            "sweep.param": "number_n",
            "sweep.values": "2, 3",
        }
    )
    assert [row.error for row in run_sweep(cfg)] == ["", ""]
    assert calls == [4] * builds
    single_block(cfg)
    assert calls == [4] * (2 * builds)


# ---------------------------------------------------------------- CLI


# prints, after each step, the step's exit code (if any) and whether scipy is loaded
_SCIPY_PROBE = """
import contextlib, io, sys

def report(*head):
    print(*head, any(m.split(".")[0] == "scipy" for m in sys.modules))

import halftrap
report()
from halftrap.harness import cli
report()
fock = ["--set", "path=fock", "--set", "table.K=4", "--set", "state=number"]
sweep = ["--set", "sweep.param=alpha_sq", "--set", "sweep.values=1, 2", "--out", sys.argv[1]]
for argv in (["sample", "--shots", "9"], ["sweep", *sweep], ["sample", "--shots", "9", *fock]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report(code)
# a submodule no step imported resolves through the root
print(halftrap.evolution.Pulse is halftrap.Pulse)
"""


def test_moment_route_loads_no_scipy(tmp_path, cli_env):
    # the import, a moment-route sample and a moment-route sweep stay numpy-only;
    # the last step takes the fock route, which is where scipy first loads
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "s.csv")],
        capture_output=True,
        text=True,
        env=cli_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "False", "0 False", "0 False", "0 True", "True"]
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 3


_ROUTE_SWEEPS = {
    "moments": {"state": "coherent", "sweep.param": "alpha_sq", "sweep.values": "0.5, 2, 8"},
    "fock": {"path": "fock", "table.K": "4", "fock.n_max": "3", "state": "number",
             "sweep.param": "number_n", "sweep.values": "1, 2, 3"},
    "exact": {"path": "exact", "table.K": "4", "fock.n_max": "3", "probe.levels": "4",
              "pulse.T": "0.05", "state": "number", "sweep.param": "number_n", "sweep.values": "1, 2, 3"},
}


@pytest.mark.parametrize("path", list(_ROUTE_SWEEPS))
def test_sweep_points_call_no_eigensolver(path, monkeypatch):
    # each point reads its negativity and the block's PSD check from 2x2 closed forms
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called on a sweep point")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rows = run_sweep(ExperimentConfig.from_entries(_ROUTE_SWEEPS[path]))
    assert [row.error for row in rows] == ["", "", ""]
    assert all(row.mu >= 0.0 for row in rows)


# prints an exact-route sample's exit code, then whether scipy.sparse,
# scipy.sparse.linalg and scipy.linalg are loaded
_EXACT_ROUTE_PROBE = """
import contextlib, io, sys
from halftrap.harness import cli
sets = ["path=exact", "table.K=4", "fock.n_max=3", "probe.levels=3", "pulse.T=0.05", "state=number"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sample", "--shots", "9", *(a for s in sets for a in ("--set", s))])
print(code, *(name in sys.modules for name in ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")))
"""


def test_exact_route_loads_no_scipy_linalg(cli_env):
    # the pulse propagator needs sparse products only, so the exact route
    # leaves scipy.sparse.linalg and scipy.linalg (about 0.14 s of import) unloaded
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_ROUTE_PROBE],
        capture_output=True,
        text=True,
        env=cli_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "False", "False"]


def test_cli_reports_unallocatable_table_as_input_error(tmp_path, cli_env):
    # a fock route at K = 10^8 is over `exact.dim_cap`, and the 10^16 rows of a
    # K = 10^8 table CSV exceed any disk, so both stop before the table is built;
    # of the sample routes only fock and exact read the table
    for args in (
        ["sample", "--shots", "10", "--set", "path=fock", "--set", "table.K=100000000"],
        ["lambda", "--K", "100000000", "--out", str(tmp_path / "t.csv")],
    ):
        proc = _cli(args, cli_env)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("extrapolate", ["true", "false"])
def test_cli_moment_route_samples_at_a_million_modes(extrapolate, cli_env):
    # the moment route reads no K x K table: finite K costs O(K) time only
    proc = _cli(
        [
            "sample",
            "--set",
            "table.K=1000000",
            "--set",
            f"moments.extrapolate={extrapolate}",
            "--shots",
            "100",
        ],
        cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("p_succ = ")


_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "cmd = [sys.executable, '-m', 'halftrap.harness.cli', *sys.argv[1:]]\n"
    "code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def _peak_rss_kb(args, env) -> int:
    """Peak RSS of one `halftrap` process, taken by a parent that starts nothing else."""
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *args], capture_output=True, text=True, env=env, timeout=300
    )
    code, peak = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(peak)


def test_cli_lambda_streams_its_table_in_bounded_memory(tmp_path, cli_env):
    # the bytes the dense K x K matrices wrote (48 MB peak RSS at K = 1024); streamed
    # row by row from the boundary values, the verb stays within a few MB of a
    # moment-route sample, which builds no table
    out = tmp_path / "t.csv"
    peak = _peak_rss_kb(["lambda", "--K", "1024", "--out", str(out)], cli_env)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "3f2d2b74d2c9a479e90b8ca168c8deda8b12cdc999a03f9d9212994dd2cc46b1"
    assert peak <= _peak_rss_kb(["sample", "--shots", "100"], cli_env) + 4 * 1024


def test_cli_exact_sample_at_the_caps_edge_stays_in_bounded_memory(cli_env):
    # K = 1599 at n_max 1 is the largest exact build the default cap admits: Lambda holds
    # 1,279,999 nonzeros, and 1,281,600 at K = 1600 pass the cap's 1,280,000. The sample's
    # peak measured 270.7 MB, 234.9 MB over a moment-route sample's 35.8 MB; the bound,
    # 240 MB over it, is 10 % over the 251 MB measured when v was laid out by hand
    edge = ["path=exact", "fock.n_max=1", "probe.levels=3", "state=number", "number_n=1", "pulse.T=0.05"]
    args = ["sample", "--shots", "100"]
    for item in edge:
        args += ["--set", item]
    peak = _peak_rss_kb([*args, "--set", "table.K=1599"], cli_env)
    assert peak <= _peak_rss_kb(["sample", "--shots", "100"], cli_env) + 240 * 1024
    proc = _cli([*args, "--set", "table.K=1600"], cli_env)
    assert proc.returncode == 1
    assert proc.stderr.strip() == "error: config field 'exact.dim_cap': is 20000, below the 1281600 nonzeros of Lambda / 64"


def test_cli_lambda_writes_table(tmp_path, cli_env):
    out = tmp_path / "overlaps.csv"
    proc = _cli(["lambda", "--K", "6", "--out", str(out)], cli_env)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "k,l,lambdaL,lambdaR"
    assert len(lines) == 1 + 6 * 6
    assert proc.stdout.strip() == f"wrote {out}: K=6"


def test_cli_sweep_with_config_file(tmp_path, cli_env):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "state = coherent\n"
        "table.K = 32\n"
        "sweep.param = alpha_sq\n"
        "sweep.values = 1, 2\n"
        "moments.extrapolate = false\n"
    )
    out = tmp_path / "sweep.csv"
    proc = _cli(
        ["sweep", "--config", str(cfg_file), "--out", str(out)], cli_env
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param,value,mu")
    assert len(lines) == 3
    assert lines[1].startswith("alpha_sq,1,")


def test_cli_validate_report(cli_env):
    proc = _cli(["validate", "--set", "table.K=64"], cli_env)
    assert proc.returncode == 0, proc.stderr
    assert "fitted exponent" in proc.stdout
    assert "identically at every K" in proc.stdout


def test_cli_writes_no_table_to_disk(tmp_path, cli_env):
    # tables are built in memory; no verb leaves a file behind in the
    # places a per-user cache would go
    home = tmp_path / "home"
    home.mkdir()
    env = dict(cli_env, HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"))
    env.pop("HALFTRAP_CACHE_DIR", None)
    for args in (
        ["validate", "--set", "table.K=64"],
        ["sample", "--set", "pulse.area=1.0", "--shots", "100"],
    ):
        proc = _cli(args, env)
        assert proc.returncode == 0, proc.stderr
    assert list(home.iterdir()) == []


def test_cli_sample_deterministic(cli_env):
    args = [
        "sample",
        "--set",
        "pulse.area=1.0",
        "--set",
        "table.K=32",
        "--set",
        "moments.extrapolate=false",
        "--shots",
        "1000",
        "--seed",
        "7",
    ]
    first = _cli(args, cli_env)
    second = _cli(args, cli_env)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert "p_succ = " in first.stdout
    assert "success = " in first.stdout


def test_cli_refuses_a_sweep_over_a_parameter_the_state_never_reads(tmp_path, cli_env):
    # a coherent state reads alpha_sq only: an nbar sweep would write identical rows
    out = tmp_path / "s.csv"
    sets = ["--set", "sweep.param=nbar", "--set", "sweep.values=0.5, 3, 9"]
    proc = _cli(["sweep", *sets, "--out", str(out)], cli_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: config field 'sweep.param'")
    assert not out.exists()


def test_cli_bad_config_exits_one(tmp_path, cli_env):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("state = bogus\n")
    out = tmp_path / "unused.csv"
    proc = _cli(["sweep", "--config", str(cfg_file), "--out", str(out)], cli_env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "state" in proc.stderr


@pytest.mark.parametrize("sets", [["state=number", "number_n=0"], ["alpha_sq=0"]])
def test_cli_reports_a_state_with_no_extraction_as_one_error_line(sets, cli_env):
    # the vacuum has no weight outside the ground level: NoExtractionError
    args = ["sample", "--shots", "10"]
    for item in sets:
        args += ["--set", item]
    proc = _cli(args, cli_env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


def test_cli_accept_failure_exits_two(cli_env):
    # a coarse cutoff moves mu about 7e-3 off its closed form, past the fixed 1e-3 bound
    proc = _cli(["accept", "coherent-negativity", "--set", "tail_tol=0.01"], cli_env)
    assert proc.returncode == 2
    assert "[FAIL] coherent-negativity" in proc.stdout
    assert "0/1 targets passed" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--shots", "10", "--set", "alpha_sqq=50"],
        ["accept", "--set", "accept.ratio_lo=0"],
        ["sample", "--shots", "10", "--set", "pulse.shape=square"],
    ],
)
def test_cli_refuses_an_unknown_key_in_one_line(args, cli_env):
    proc = _cli(args, cli_env)
    key = args[-1].split("=")[0]
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: config field {key!r}: not a config key\n"


@pytest.mark.parametrize(
    "args, field",
    [
        (["--set", "pulse.area=1e200"], "'pulse.area'"),
        (["--set", "pulse.area=1e154"], "'pulse.area'"),
        (["--set", "pulse.amplitude_target=1e200"], "'pulse.amplitude_target'"),
        (["--set", "seed=-1"], "'seed'"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--shots", "100000000000000000000"], "shots must be in [1, 2**63 - 1]"),
        (
            [a for s in ("path=fock", "table.K=4", "fock.n_max=3", "alpha_sq=2") for a in ("--set", s)],
            "'fock.n_max': is 3, below the state's last level n = 18",
        ),
    ],
)
def test_cli_sample_names_the_field_of_an_out_of_range_value(args, field, capsys):
    code = cli.main(["sample", "--shots", "10", *args])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err


def test_cli_unknown_target_rejected(cli_env):
    proc = _cli(["accept", "nonsense-target"], cli_env)
    assert proc.returncode != 0
