"""Flat key-value run configuration with dotted section keys.

Grammar (one entry per line):

    # comment
    key = value
    section.key = value        # e.g. pulse.area, probe.Omega

Values are plain scalars, comma-separated lists, or bare words; no quoting.
CLI `--set key=value` pairs override file entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite

__all__ = ["ConfigError", "ExperimentConfig", "parse_config_text", "apply_overrides"]

_PATHS = ("moments", "fock", "exact")
_STATE_KINDS = ("coherent", "number", "superposition", "thermal", "phase_averaged")
_PULSE_PRESETS = ("amplitude10", "inverse-quartic", "none")


class ConfigError(ValueError):
    """Configuration problem, attributed to a specific field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field {fieldname!r}: {message}")


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


def _parse_float(entries: dict, key: str, default: float) -> float:
    if key not in entries:
        return default
    try:
        value = float(entries[key])
    except ValueError:
        raise ConfigError(key, f"not a number: {entries[key]!r}") from None
    if not isfinite(value):
        raise ConfigError(key, f"must be finite, got {entries[key]!r}")
    return value


def _parse_int(entries: dict, key: str, default: int) -> int:
    if key not in entries:
        return default
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(key, f"not an integer: {entries[key]!r}") from None


def _parse_bool(entries: dict, key: str, default: bool) -> bool:
    if key not in entries:
        return default
    value = entries[key].lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"not a boolean: {entries[key]!r}")


def _parse_str(entries: dict, key: str, default: str, allowed: tuple = ()) -> str:
    value = entries.get(key, default)
    if allowed and value not in allowed:
        raise ConfigError(key, f"must be one of {allowed}, got {value!r}")
    return value


def _parse_float_list(entries: dict, key: str) -> list[float] | None:
    if key not in entries:
        return None
    items = [s for s in entries[key].split(",") if s.strip()]
    if not items:
        raise ConfigError(key, "list must be non-empty")
    try:
        values = [float(s) for s in items]
    except ValueError:
        raise ConfigError(key, f"not a comma-separated number list: {entries[key]!r}") from None
    if not all(isfinite(v) for v in values):
        raise ConfigError(key, f"every entry must be finite, got {entries[key]!r}")
    return values


def _parse_complex_list(entries: dict, key: str) -> list[complex] | None:
    if key not in entries:
        return None
    items = [s for s in entries[key].split(",") if s.strip()]
    if not items:
        raise ConfigError(key, "list must be non-empty")
    try:
        values = [complex(s) for s in items]
    except ValueError:
        raise ConfigError(key, f"not a comma-separated complex list: {entries[key]!r}") from None
    if not all(isfinite(v.real) and isfinite(v.imag) for v in values):
        raise ConfigError(key, f"every entry must be finite, got {entries[key]!r}")
    return values


@dataclass
class ExperimentConfig:
    """Typed run parameters; construct via `from_entries`."""

    # state
    state: str = "coherent"
    alpha_sq: float = 2.0
    number_n: int = 2
    coeffs: list = field(default_factory=list)
    nbar: float = 1.0
    n_cut: int | None = None
    tail_tol: float = 1e-12

    # overlap table
    K: int = 512

    # computational path
    path: str = "moments"
    extrapolate: bool = True
    n_max: int = 4

    # pulse and probes
    pulse_shape: str = "square"
    pulse_T: float = 1.0
    pulse_area: float | None = None
    pulse_preset: str = "amplitude10"
    amplitude_target: float = 0.1
    g_ref: float = 0.1
    probe_M: float = 1.0
    probe_Omega: float = 1.0
    probe_levels: int = 4
    exact_dim_cap: int = 20_000

    # sweep
    sweep_param: str | None = None
    sweep_values: list = field(default_factory=list)

    # misc
    seed: int = 12345
    timing: bool = False

    # acceptance tolerances
    mu_tol: float = 1e-3
    f_tol: float = 1e-3
    oracle_tol: float = 1e-12
    single_particle_mu_bound: float = 1e-6
    mixture_exact_tol: float = 1e-12
    leakage_fraction: float = 0.01
    ratio_lo: float = 3.0
    ratio_hi: float = 5.0
    structural_tol: float = 1e-12

    @classmethod
    def from_entries(cls, entries: dict[str, str]) -> "ExperimentConfig":
        cfg = cls(
            state=_parse_str(entries, "state", "coherent", _STATE_KINDS),
            alpha_sq=_parse_float(entries, "alpha_sq", 2.0),
            number_n=_parse_int(entries, "number_n", 2),
            coeffs=_parse_complex_list(entries, "coeffs") or [],
            nbar=_parse_float(entries, "nbar", 1.0),
            n_cut=_parse_int(entries, "n_cut", 0) if "n_cut" in entries else None,
            tail_tol=_parse_float(entries, "tail_tol", 1e-12),
            K=_parse_int(entries, "table.K", 512),
            path=_parse_str(entries, "path", "moments", _PATHS),
            extrapolate=_parse_bool(entries, "moments.extrapolate", True),
            n_max=_parse_int(entries, "fock.n_max", 4),
            pulse_shape=_parse_str(entries, "pulse.shape", "square", ("square",)),
            pulse_T=_parse_float(entries, "pulse.T", 1.0),
            pulse_area=(
                _parse_float(entries, "pulse.area", 0.0) if "pulse.area" in entries else None
            ),
            pulse_preset=_parse_str(entries, "pulse.preset", "amplitude10", _PULSE_PRESETS),
            amplitude_target=_parse_float(entries, "pulse.amplitude_target", 0.1),
            g_ref=_parse_float(entries, "pulse.g_ref", 0.1),
            probe_M=_parse_float(entries, "probe.M", 1.0),
            probe_Omega=_parse_float(entries, "probe.Omega", 1.0),
            probe_levels=_parse_int(entries, "probe.levels", 4),
            exact_dim_cap=_parse_int(entries, "exact.dim_cap", 20_000),
            sweep_param=entries.get("sweep.param"),
            sweep_values=_parse_float_list(entries, "sweep.values") or [],
            seed=_parse_int(entries, "seed", 12345),
            timing=_parse_bool(entries, "timing", False),
            mu_tol=_parse_float(entries, "accept.mu_tol", 1e-3),
            f_tol=_parse_float(entries, "accept.f_tol", 1e-3),
            oracle_tol=_parse_float(entries, "accept.oracle_tol", 1e-12),
            single_particle_mu_bound=_parse_float(entries, "accept.single_particle_mu_bound", 1e-6),
            mixture_exact_tol=_parse_float(entries, "accept.mixture_exact_tol", 1e-12),
            leakage_fraction=_parse_float(entries, "accept.leakage_fraction", 0.01),
            ratio_lo=_parse_float(entries, "accept.ratio_lo", 3.0),
            ratio_hi=_parse_float(entries, "accept.ratio_hi", 5.0),
            structural_tol=_parse_float(entries, "accept.structural_tol", 1e-12),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        positive = [
            ("tail_tol", self.tail_tol),
            ("pulse.T", self.pulse_T),
            ("probe.M", self.probe_M),
            ("probe.Omega", self.probe_Omega),
            ("accept.mu_tol", self.mu_tol),
            ("accept.f_tol", self.f_tol),
            ("accept.oracle_tol", self.oracle_tol),
            ("accept.single_particle_mu_bound", self.single_particle_mu_bound),
            ("accept.mixture_exact_tol", self.mixture_exact_tol),
            ("accept.leakage_fraction", self.leakage_fraction),
            ("accept.structural_tol", self.structural_tol),
        ]
        for name, value in positive:
            if not value > 0:
                raise ConfigError(name, f"must be positive, got {value}")
        if self.K < 1:
            raise ConfigError("table.K", f"must be >= 1, got {self.K}")
        if self.n_max < 0:
            raise ConfigError("fock.n_max", f"must be >= 0, got {self.n_max}")
        if self.probe_levels < 2:
            raise ConfigError("probe.levels", f"must be >= 2, got {self.probe_levels}")
        if self.exact_dim_cap < 1:
            raise ConfigError("exact.dim_cap", f"must be >= 1, got {self.exact_dim_cap}")
        if not self.ratio_lo < self.ratio_hi:
            raise ConfigError("accept.ratio_lo", "lower ratio bound must be below upper")
        if self.sweep_param is not None and not self.sweep_values:
            raise ConfigError("sweep.values", "sweep requested but value list is empty")
        if self.state == "superposition" and not self.coeffs and self.sweep_param != "coeffs":
            raise ConfigError("coeffs", "superposition state needs a coefficient list")
        if self.n_cut is not None and self.n_cut < 0:
            raise ConfigError("n_cut", f"must be >= 0, got {self.n_cut}")
        if self.alpha_sq < 0:
            raise ConfigError("alpha_sq", f"must be >= 0, got {self.alpha_sq}")
        if self.number_n < 0:
            raise ConfigError("number_n", f"must be >= 0, got {self.number_n}")
        if self.nbar < 0:
            raise ConfigError("nbar", f"must be >= 0, got {self.nbar}")

    def state_params(self) -> dict:
        if self.state == "coherent":
            return {"alpha_sq": self.alpha_sq}
        if self.state == "number":
            return {"N": self.number_n}
        if self.state == "superposition":
            return {"coeffs": self.coeffs}
        if self.state == "thermal":
            return {"nbar": self.nbar}
        return {"alpha_sq": self.alpha_sq}
