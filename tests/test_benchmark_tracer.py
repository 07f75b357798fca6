"""The benchmark still parses its configs and its span tracer still sees the names it reads.

`benchmarks/tracer.py` wraps the package from outside and its observers read
`TrapState.components[*].coeffs`, `FockBasis.states`, `JointHamiltonian.H0`
and `vars(OverlapTable)`. A rename of any of them breaks the traced run that
produces every per-layer metric without failing anything else. Likewise
`benchmarks/workloads.py` writes config entries and `benchmarks/worker.py`
checks rows against `cfg.mu_tol` and `cfg.f_tol`; a schema change that drops
either would break every benchmark run, and only a benchmark run would show it.
"""

from __future__ import annotations

import importlib.util
import io
import sys
from math import comb
from pathlib import Path

import pytest

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
