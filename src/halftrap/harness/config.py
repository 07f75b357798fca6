"""Flat key-value run configuration with dotted section keys.

Grammar (one entry per line):

    # comment
    key = value
    section.key = value        # e.g. pulse.area, probe.Omega

Values are plain scalars, comma-separated lists, or bare words; no quoting.
CLI `--set key=value` pairs override file entries; a key `_FIELDS` does not list is refused.
"""

from __future__ import annotations

from cmath import isfinite  # takes real and complex values alike
from dataclasses import dataclass, field, fields
from typing import ClassVar

from ..states import _N_CUT_CEILING

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "apply_overrides"]

_PATHS = ("moments", "fock", "exact")
# the one field each state family reads, and so the only one a sweep of it may walk;
# a list cannot be walked, so a superposition has no sweep parameter
_STATE_PARAM = {
    "coherent": "alpha_sq",
    "number": "number_n",
    "superposition": "coeffs",
    "thermal": "nbar",
    "phase_averaged": "alpha_sq",
}
_SWEEP_PARAMS = tuple(dict.fromkeys(p for p in _STATE_PARAM.values() if p != "coeffs"))
_PULSE_PRESETS = ("amplitude10", "inverse-quartic", "none")


class ConfigError(ValueError):
    """Configuration problem, attributed to a specific field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field {fieldname!r}: {message}")


def _check_sweep_param(state: str, param: str | None) -> None:
    """Refuse a sweep parameter that the state family never reads."""
    reads = _STATE_PARAM[state]
    if param not in (None, reads):
        hint = f"sweep {reads!r} instead" if reads in _SWEEP_PARAMS else "it has no sweep parameter"
        raise ConfigError("sweep.param", f"state {state!r} never reads {param!r}; {hint}")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat grammar into a string-to-string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in out:
            raise ConfigError(key, f"duplicate entry on line {lineno}")
        out[key] = value
    return out


def apply_overrides(entries: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply CLI `key=value` pairs on top of file entries."""
    merged = dict(entries)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(item, "override must look like key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def _float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(key, f"not a number: {text!r}") from None
    if not isfinite(value):
        raise ConfigError(key, f"must be finite, got {text!r}")
    return value


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"not an integer: {text!r}") from None


def _bool(key: str, text: str) -> bool:
    value = text.lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"not a boolean: {text!r}")


def _choice(*allowed: str):
    def parse(key: str, text: str) -> str:
        if text not in allowed:
            raise ConfigError(key, f"must be one of {allowed}, got {text!r}")
        return text

    return parse


def _list(convert, noun: str):
    """Non-empty comma-separated list of finite `convert` values."""

    def parse(key: str, text: str) -> list:
        items = [s for s in text.split(",") if s.strip()]
        if not items:
            raise ConfigError(key, "list must be non-empty")
        try:
            values = [convert(s) for s in items]
        except ValueError:
            raise ConfigError(key, f"not a comma-separated {noun} list: {text!r}") from None
        if not all(isfinite(v) for v in values):
            raise ConfigError(key, f"every entry must be finite, got {text!r}")
        return values

    return parse


def _key(key: str, default, parse, low=None, high=None, positive: bool = False):
    """A config field: its dotted key, parser and bounds, declared once.

    `low` and `high` are inclusive bounds; `positive` demands a value above zero.
    A list default becomes a per-instance factory.
    """
    meta = {"key": key, "rule": (parse, low, high, positive)}
    if isinstance(default, list):
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    """Typed run parameters; construct via `from_entries`."""

    # state
    state: str = _key("state", "coherent", _choice(*_STATE_PARAM))
    alpha_sq: float = _key("alpha_sq", 2.0, _float, low=0)
    number_n: int = _key("number_n", 2, _int, low=0, high=_N_CUT_CEILING)
    coeffs: list = _key("coeffs", [], _list(complex, "complex"))
    nbar: float = _key("nbar", 1.0, _float, low=0)
    n_cut: int | None = _key("n_cut", None, _int, low=0, high=_N_CUT_CEILING)
    tail_tol: float = _key("tail_tol", 1e-12, _float, positive=True)

    # overlap table
    K: int = _key("table.K", 512, _int, low=1)

    # computational path
    path: str = _key("path", "moments", _choice(*_PATHS))
    extrapolate: bool = _key("moments.extrapolate", True, _bool)
    n_max: int = _key("fock.n_max", 4, _int, low=0)

    # pulse and probes
    pulse_T: float = _key("pulse.T", 1.0, _float, positive=True)
    pulse_area: float | None = _key("pulse.area", None, _float)
    pulse_preset: str = _key("pulse.preset", "amplitude10", _choice(*_PULSE_PRESETS))
    amplitude_target: float = _key("pulse.amplitude_target", 0.1, _float)
    g_ref: float = _key("pulse.g_ref", 0.1, _float)
    probe_M: float = _key("probe.M", 1.0, _float, positive=True)
    probe_Omega: float = _key("probe.Omega", 1.0, _float, positive=True)
    probe_levels: int = _key("probe.levels", 4, _int, low=2)
    exact_dim_cap: int = _key("exact.dim_cap", 20_000, _int, low=1)

    # sweep
    sweep_param: str | None = _key("sweep.param", None, _choice(*_SWEEP_PARAMS))
    sweep_values: list = _key("sweep.values", [], _list(float, "number"))

    # misc
    seed: int = _key("seed", 12345, _int, low=0)
    timing: bool = _key("timing", False, _bool)

    # acceptance bounds: constants, not fields, so no config entry can set them
    mu_tol: ClassVar[float] = 1e-3
    f_tol: ClassVar[float] = 1e-3
    oracle_tol: ClassVar[float] = 1e-12
    single_particle_mu_bound: ClassVar[float] = 1e-6
    mixture_exact_tol: ClassVar[float] = 1e-12
    structural_tol: ClassVar[float] = 1e-12
    leakage_fraction: ClassVar[float] = 0.01
    ratio_lo: ClassVar[float] = 3.0
    ratio_hi: ClassVar[float] = 5.0

    @classmethod
    def from_entries(cls, entries: dict[str, str]) -> "ExperimentConfig":
        """Parse each entry by its field's row of `_FIELDS`, refusing undeclared keys; absent keys keep defaults."""
        values = {}
        for key, text in entries.items():
            if key in _FIELDS:
                values[_FIELDS[key][0]] = _FIELDS[key][1](key, text)
            # `workers` is no key, but benchmarks/workloads.py still writes `workers = 1`
            # into every sweep config; the benchmark change that drops it drops this too
            elif key != "workers":
                raise ConfigError(key, "not a config key")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check each field's declared bound in field order, then the cross-field rules."""
        for key, (name, _, low, high, positive) in _FIELDS.items():
            value = getattr(self, name)
            if positive and not value > 0:
                raise ConfigError(key, f"must be positive, got {value}")
            if low is not None and value is not None and value < low:
                raise ConfigError(key, f"must be >= {low}, got {value}")
            if high is not None and value is not None and value > high:
                raise ConfigError(key, f"must be <= {high}, got {value}")
        if self.sweep_param is not None and not self.sweep_values:
            raise ConfigError("sweep.values", "sweep requested but value list is empty")
        _check_sweep_param(self.state, self.sweep_param)
        if self.state == "superposition" and not self.coeffs:
            raise ConfigError("coeffs", "superposition state needs a coefficient list")


# key -> (field name, parser, low, high, positive) in field order, read once from the declarations
_FIELDS = {f.metadata["key"]: (f.name, *f.metadata["rule"]) for f in fields(ExperimentConfig)}
