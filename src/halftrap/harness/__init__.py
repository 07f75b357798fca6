"""Run orchestration: config parsing, sweeps, acceptance battery, CLI."""

# benchmarks/worker.py reads `config` and `sweep` from sys.modules right after
# `import halftrap.harness`, so importing the package must load them
from . import accept, config, sweep

__all__ = ["accept", "config", "sweep"]
