"""Shared fixtures: session-scoped overlap tables, built once per run, and an empty build store per test."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from halftrap.harness import sweep
from halftrap.harness.config import ExperimentConfig
from halftrap.orbitals import build_overlap_table

pytest_plugins = ["pytester"]


@pytest.fixture(autouse=True)
def _empty_build_store():
    # each test starts cold, so a count of operator builds sees its own builds only
    sweep._fock_build.cache_clear()


@pytest.fixture(scope="session")
def table6():
    return build_overlap_table(6)


@pytest.fixture(scope="session")
def table8():
    return build_overlap_table(8)


@pytest.fixture(scope="session")
def table64():
    return build_overlap_table(64)


@pytest.fixture(scope="session")
def table512():
    return build_overlap_table(512)


@pytest.fixture(scope="session")
def accept_cfg() -> ExperimentConfig:
    return ExperimentConfig.from_entries({})


@pytest.fixture(scope="session")
def cli_env() -> dict:
    # CLI subprocesses import this checkout's package, installed or not
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
