"""The benchmark still parses its configs and its span tracer still sees the names it reads.

`benchmarks/tracer.py` wraps the package from outside and its observers read
`TrapState.components[*].coeffs`, `FockBasis.states`, `JointHamiltonian.H0`
and `vars(OverlapTable)`. A rename of any of them breaks the traced run that
produces every per-layer metric without failing anything else. Likewise
`benchmarks/workloads.py` writes config entries and `benchmarks/worker.py`
checks rows against `cfg.mu_tol` and `cfg.f_tol`; a schema change that drops
either would break every benchmark run, and only a benchmark run would show it.
The worker's row gate on the exact-sweep grids, exact against fock within
`EXACT_VS_FOCK_TOL`, is run here too, so an exact-route regression fails
here before a benchmark run reports it, and so is a count of the Chebyshev
terms those grids take, which sets most of an exact point's cost. On the
same grids, one ulp of the pulse amplitude may move an exact row's p_succ
and leakage by a few eps only.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import sys
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

from halftrap import evolution
from halftrap.harness import sweep
from halftrap.harness.config import ExperimentConfig, apply_overrides, parse_config_text
from halftrap.orbitals import build_overlap_table
from halftrap.states import coherent_state, thermal_state

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    path = _BENCHMARKS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"halftrap_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracer")


def _sets(args: list[str]) -> list[str]:
    return [args[i + 1] for i, arg in enumerate(args) if arg == "--set"]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_benchmark_config_parses_with_its_row_bounds(seed):
    wl = _load("workloads")
    configs = []
    for workload in wl.SWEEP_WORKLOADS:
        texts = [sw.config_text() for sw in wl.sweeps(workload, seed)]
        configs += [ExperimentConfig.from_entries(parse_config_text(t)) for t in texts]
        sets = _sets(wl.sample_args(workload, seed))
        configs.append(ExperimentConfig.from_entries(apply_overrides({}, sets)))
    for call in wl.cli_calls(seed, 64):  # the most calls `benchmarks/run.py` makes
        assert call["sets"] == _sets(call["args"])
        configs.append(ExperimentConfig.from_entries(apply_overrides({}, call["sets"])))
    assert len({cfg.path for cfg in configs}) == 2
    for cfg in configs:
        assert 0 < cfg.mu_tol < 1 and 0 < cfg.f_tol < 1


def _csv(cfg: ExperimentConfig, table) -> str:
    # looked up on the module at call time, so the tracer's wrappers apply
    buf = io.StringIO()
    sweep.write_sweep_csv(sweep.run_sweep(cfg, table), buf)
    return buf.getvalue()


def test_tracer_sees_both_routes_and_leaves_output_alone(tracing):
    runs = [
        (
            ExperimentConfig.from_entries(
                {"table.K": "64", "sweep.param": "alpha_sq", "sweep.values": "1, 4"}
            ),
            build_overlap_table(64),
        ),
        (
            # a mixture: its one component, the vector sqrt(p_n), is built when read
            ExperimentConfig.from_entries(
                {
                    "state": "thermal",
                    "table.K": "64",
                    "sweep.param": "nbar",
                    "sweep.values": "0.5, 3",
                }
            ),
            build_overlap_table(64),
        ),
        (
            ExperimentConfig.from_entries(
                {
                    "state": "number",
                    "path": "exact",
                    "table.K": "4",
                    "fock.n_max": "3",
                    "probe.levels": "4",
                    "pulse.T": "0.05",
                    "sweep.param": "number_n",
                    "sweep.values": "2, 3",
                }
            ),
            build_overlap_table(4),
        ),
        (
            # a mixture on the exact route, embedded as sum_n sqrt(p_n) |n>
            ExperimentConfig.from_entries(
                {
                    "state": "thermal",
                    "path": "exact",
                    "table.K": "4",
                    "fock.n_max": "3",
                    "probe.levels": "4",
                    "pulse.T": "0.05",
                    "n_cut": "3",
                    "tail_tol": "0.2",
                    "sweep.param": "nbar",
                    "sweep.values": "0.5, 1",
                }
            ),
            build_overlap_table(4),
        ),
    ]
    plain = [_csv(cfg, table) for cfg, table in runs]
    sweep._BUILDS.clear()  # the plain pass's builds would serve the traced pass unseen
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_csv(cfg, table) for cfg, table in runs]
    finally:
        tracer.uninstall()
    assert traced == plain
    # the error column is last: every point completed
    assert all(row.endswith(",") for text in plain for row in text.splitlines()[1:])
    summary = tracing.summarize(tracer.spans)
    # one state per point: coherent 1, 4; thermal 0.5, 3; number 2, 3; thermal 0.5, 1 at n_cut 3
    cutoffs = [coherent_state(alpha_sq=a).n_cut for a in (1.0, 4.0)]
    cutoffs += [thermal_state(nbar).n_cut for nbar in (0.5, 3.0)]
    assert summary["n_cut_sum"] == sum(cutoffs) + 2 + 3 + 3 + 3
    assert summary["basis_dim"] > 0
    # the full joint dimension of the exact run, C(n_max + K, K) * levels^2, not the
    # mirror-even half that is propagated
    assert summary["joint_dim"] == comb(3 + 4, 4) * 4**2
    # the exact step and the build it reads run under the names the tracer times:
    # a move to another name would read 0 in every traced benchmark run
    assert summary["propagate_s"] > 0
    assert summary["hamiltonian_s"] > 0


def _constant(module: str, name: str):
    """A module-level constant of a benchmark file, read from its source without running it."""
    tree = ast.parse((_BENCHMARKS / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{module}.py defines no {name}")


@pytest.mark.parametrize("seed", [1, 2])
def test_exact_sweep_rows_pass_the_benchmark_row_gate(seed):
    # the worker's check of every exact-sweep row: it completes on both routes, and
    # the exact route's mu stays within EXACT_VS_FOCK_TOL of the fock route's
    wl = _load("workloads")
    tol = _constant("worker", "EXACT_VS_FOCK_TOL")
    assert 0 < tol < 1e-2
    for sw in wl.sweeps("exact-sweep", seed):
        text = sw.config_text()
        assert "path = exact" in text
        exact, fock = (
            sweep.run_sweep(ExperimentConfig.from_entries(parse_config_text(text.replace("path = exact", f"path = {route}"))))
            for route in ("exact", "fock")
        )
        assert [r.value for r in exact] == [r.value for r in fock] == list(sw.values)
        for e, f in zip(exact, fock):
            assert e.error == f.error == ""
            assert abs(e.mu - f.mu) <= tol, (sw.K, sw.family.state, e.value)


@pytest.mark.parametrize("seed", [1, 2])
def test_an_ulp_of_amplitude_target_moves_exact_p_succ_and_leakage_a_few_eps(seed):
    # at every exact-sweep grid point: at most 3.2 eps (p_succ) and 5.1 eps (leakage) relative
    # over seeds 1-2, where the differences norm_sq - w00 - ... moved them by 104 and 3616 eps
    wl = _load("workloads")
    eps = np.finfo(float).eps
    for sw in wl.sweeps("exact-sweep", seed):
        cfg = ExperimentConfig.from_entries(parse_config_text(sw.config_text()))
        moved = replace(cfg, amplitude_target=float(np.nextafter(cfg.amplitude_target, np.inf)))
        for a, b in zip(sweep.run_sweep(cfg), sweep.run_sweep(moved)):
            assert a.error == b.error == ""
            assert abs(b.p_succ - a.p_succ) <= 4 * eps * a.p_succ, (sw.K, sw.family.state, a.value)
            assert abs(b.leakage - a.leakage) <= 6 * eps * a.leakage, (sw.K, sw.family.state, a.value)


def test_exact_sweep_grids_keep_their_series_short(monkeypatch):
    # the Chebyshev terms over the exact-sweep grids of seeds 1-3: 924 when the series was
    # sized by the Gershgorin hull alone, 800 on its intersection with the one-body interval
    wl = _load("workloads")
    terms = []
    real = evolution._bessel_series

    def counted(z):
        series = real(z)
        terms.append(series.size)
        return series

    monkeypatch.setattr(evolution, "_bessel_series", counted)
    rows = [
        row
        for seed in (1, 2, 3)
        for sw in wl.sweeps("exact-sweep", seed)
        for row in sweep.run_sweep(ExperimentConfig.from_entries(parse_config_text(sw.config_text())))
    ]
    assert len(rows) == len(terms) == 48
    assert all(row.error == "" for row in rows)
    assert sum(terms) <= 800
