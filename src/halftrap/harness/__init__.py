"""Run orchestration: config parsing, sweeps, acceptance battery, CLI."""

from .accept import TARGETS, run_accept
from .config import ConfigError, ExperimentConfig, apply_overrides, parse_config_text
from .sweep import (
    PointResult,
    evaluate_point,
    extract,
    resolve_pulse,
    run_sweep,
    run_validation,
    single_block,
    write_plot_data,
    write_sweep_csv,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PointResult",
    "TARGETS",
    "apply_overrides",
    "evaluate_point",
    "extract",
    "parse_config_text",
    "resolve_pulse",
    "run_accept",
    "run_sweep",
    "run_validation",
    "single_block",
    "write_plot_data",
    "write_sweep_csv",
]
