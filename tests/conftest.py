"""Shared fixtures: session-scoped overlap tables, built once per run."""

from __future__ import annotations

import os

import pytest

from halftrap.harness.config import ExperimentConfig
from halftrap.orbitals import build_overlap_table


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
def accept_tables(table512) -> dict:
    # one shared pool so the battery reuses the big table across targets
    return {512: table512}


@pytest.fixture(scope="session")
def cli_env() -> dict:
    return dict(os.environ)
