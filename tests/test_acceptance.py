"""Acceptance battery: one test per release criterion, at the shipped tolerances.

Each test delegates to the same checker the `halftrap accept` command runs,
prints its pass/fail line, and asserts the verdict. Nothing here relaxes a
tolerance or skips a target: a criterion the implementation cannot meet
fails in plain sight.
"""

import subprocess
import sys
import time

from halftrap.evolution import ProbeParams, Pulse
from halftrap.harness.accept import TARGETS
from halftrap.measurement import block_from_moments, sample_outcomes
from halftrap.moments import analytic_limit_moments
from halftrap.states import coherent_state


def _run(name, cfg):
    ok, detail = TARGETS[name](cfg)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok, detail


def test_coherent_negativity_closed_form(accept_cfg):
    start = time.monotonic()
    ok, detail = _run("coherent-negativity", accept_cfg)
    elapsed = time.monotonic() - start
    assert ok, detail
    assert elapsed < 60.0


def test_number_negativity_closed_form(accept_cfg):
    ok, detail = _run("number-negativity", accept_cfg)
    assert ok, detail


def test_disturbance_fidelity(accept_cfg):
    ok, detail = _run("fidelity", accept_cfg)
    assert ok, detail


def test_moment_fock_oracle_equivalence(accept_cfg):
    start = time.monotonic()
    ok, detail = _run("oracle", accept_cfg)
    elapsed = time.monotonic() - start
    assert ok, detail
    assert elapsed < 60.0


def test_perturbative_regime(accept_cfg):
    ok, detail = _run("perturbation", accept_cfg)
    assert ok, detail


def test_commutator_convergence(accept_cfg):
    ok, detail = _run("commutator", accept_cfg)
    assert ok, detail


def test_structural_negativity_identity(accept_cfg):
    ok, detail = _run("structural", accept_cfg)
    assert ok, detail


def test_mixture_negativities(accept_cfg):
    ok, detail = _run("mixtures", accept_cfg)
    assert ok, detail


def test_deterministic_outputs(accept_cfg, tmp_path, cli_env):
    ok, detail = _run("determinism", accept_cfg)
    assert ok, detail

    # same check across process boundaries: two fresh interpreters
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "halftrap.harness.cli",
                "sweep",
                "--set",
                "table.K=64",
                "--set",
                "moments.extrapolate=false",
                "--set",
                "sweep.param=alpha_sq",
                "--set",
                "sweep.values=0.5,2,8",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=cli_env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()

    # and seeded sampling reproduces exactly inside one process
    block = block_from_moments(
        analytic_limit_moments(coherent_state(alpha_sq=2.0)),
        pulse=Pulse(T=1.0, g0=0.05),
        probe=ProbeParams(),
    )
    counts = [sample_outcomes(block, shots=5000, seed=accept_cfg.seed) for _ in range(2)]
    assert counts[0] == counts[1]
