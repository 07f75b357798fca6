"""Acceptance battery: one test per release criterion, at the shipped tolerances.

Each test delegates to the same checker the `halftrap accept` command runs,
prints its pass/fail line, and asserts the verdict. Nothing here relaxes a
tolerance or skips a target: a criterion the implementation cannot meet
fails in plain sight.
"""

import itertools
import subprocess
import sys
import time
from math import nan

import numpy as np
import pytest

from halftrap import entanglement, moments
from halftrap.evolution import ProbeParams, Pulse
from halftrap.harness import accept
from halftrap.harness.accept import TARGETS, _deviation, _strictly_monotone
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


def test_the_shared_checks_let_no_nan_through():
    # max(0.0, nan) is 0.0, so a running max drops a NaN; these two must not
    assert _deviation([1.0, 2.0], [1.0, 2.5]) == 0.5
    assert _deviation([], []) == 0.0
    assert str(_deviation([1.0, nan], [1.0, 2.0])) == "nan"
    assert str(_deviation([1.0, 2.0], [nan, 2.0])) == "nan"
    assert _deviation([1.0 + 1.0j], [1.0 - 1.0j]) == 2.0
    # on finite values it is the running maximum the targets kept before, bit for bit
    rng = np.random.default_rng(5)
    got, want = rng.normal(size=(2, 40)) + 1j * rng.normal(size=(2, 40))
    for pair in ((got.real, want.real), (got, want), (got.tolist(), want.tolist())):
        worst = 0.0
        for a, b in zip(*pair):
            worst = max(worst, abs(a - b))
        assert _deviation(*pair) == worst
    assert _strictly_monotone([1.0, 2.0, 3.0]) and _strictly_monotone([3.0, 2.0], rising=False)
    assert not _strictly_monotone([1.0, 1.0]) and not _strictly_monotone([1.0, 1.0], rising=False)
    assert not _strictly_monotone([1.0, nan, 3.0])
    assert not _strictly_monotone([3.0, nan, 1.0], rising=False)


def _nan_mLR(mom):
    object.__setattr__(mom, "mLR", complex(nan))  # set past the record's own finiteness check
    return mom


def _nan_middle_leak(evidence):
    evidence["leak_fracs"][1] = nan
    return evidence


def _spoil(monkeypatch, owner, name, spoil, calls):
    """Pass every result of `owner.name` (or those of the 0-based `calls`) through `spoil`."""
    real, count = getattr(owner, name), itertools.count()

    def fault(*args, **kwargs):
        value = real(*args, **kwargs)
        return spoil(value) if calls is None or next(count) in calls else value

    monkeypatch.setattr(owner, name, fault)


def _to_nan(value):
    return nan


# per target: the call whose results are spoiled, how, and on which calls (None: all)
_NAN_FAULTS = {
    "oracle": (moments, "moments_from_fock", _nan_mLR, None),
    "structural": (entanglement, "negativity", _to_nan, None),
    "mixtures": (entanglement, "negativity", _to_nan, None),
    "number-negativity": (entanglement, "negativity", _to_nan, {2}),  # N = 3 alone
    "coherent-negativity": (entanglement, "negativity", _to_nan, None),
    "fidelity": (entanglement, "disturbance_fidelity", _to_nan, None),
    "perturbation": (accept, "perturbation_evidence", _nan_middle_leak, None),
}


@pytest.mark.parametrize("target", list(_NAN_FAULTS))
def test_a_nan_deviation_fails_its_target(target, accept_cfg, monkeypatch):
    _spoil(monkeypatch, *_NAN_FAULTS[target])
    ok, detail = _run(target, accept_cfg)
    assert not ok
    assert " nan " in detail
