"""Workload definitions: seeded sweep grids, configs and CLI calls.

Standard library only, so the orchestrating process never imports numpy
or halftrap. Every grid is drawn from the seed by antithetic stratified
sampling: the range is cut into equal strata and each stratum gets a pair
of points mirrored about its centre. The values differ from seed to seed,
but the total work of a grid barely does, which keeps throughput
comparable across seeds even where the cost of a point grows steeply with
its value (thermal states cost O(nbar^2) at the seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SWEEP_WORKLOADS = ("moments-sweep", "occupation-sweep", "exact-sweep")
CLI_WORKLOAD = "cold-cli"
WORKLOADS = (*SWEEP_WORKLOADS, CLI_WORKLOAD)

# Tables up to this size fit comfortably; K >= 1024 exhausts memory at the
# seed and is left to its own benchmark change.
MOMENT_K = 512
SHOTS = 10_000

# Every sweep runs single-threaded; the config parser ignores unknown keys,
# so the setting stays harmless once the thread pool is gone.
_COMMON = ("workers = 1",)
_MOMENT_ROUTE = ("path = moments", "moments.extrapolate = true")
# Short pulse keeps the exact route first-order, so it agrees with path=fock.
_EXACT_ROUTE = ("path = exact", "fock.n_max = 4", "probe.levels = 4", "pulse.T = 0.05")
_WEAK_COHERENT = ("n_cut = 4", "tail_tol = 1e-3")


@dataclass(frozen=True)
class Family:
    """One swept state family: its parameter range and number of points."""

    state: str
    param: str
    lo: float
    hi: float
    count: int
    integer: bool = False
    extra: tuple = ()
    # points per `halftrap sweep` call; the grid is split into consecutive
    # chunks so that no timed call runs much past half a second
    chunk: int | None = None


@dataclass(frozen=True)
class Sweep:
    """One `halftrap sweep` config: a family on a table size and route."""

    K: int
    family: Family
    route: tuple
    values: tuple

    def config_text(self, values=None) -> str:
        vals = self.values if values is None else values
        lines = [
            f"state = {self.family.state}",
            f"sweep.param = {self.family.param}",
            "sweep.values = " + ", ".join(_fmt(v) for v in vals),
            f"table.K = {self.K}",
            *_COMMON,
            *self.route,
            *self.family.extra,
        ]
        return "\n".join(lines) + "\n"


_SWEEP_PLANS = {
    # Moment route at K=512 over small and moderate occupations. Thermal
    # points are few: their cost is dominated by `states` (quadratic in the
    # cutoff), which occupation-sweep isolates.
    "moments-sweep": [
        (MOMENT_K, Family("coherent", "alpha_sq", 0.1, 20.0, 32), _MOMENT_ROUTE),
        (MOMENT_K, Family("number", "number_n", 1, 50, 32, integer=True), _MOMENT_ROUTE),
        (MOMENT_K, Family("thermal", "nbar", 0.1, 20.0, 8), _MOMENT_ROUTE),
    ],
    # Same route and K at large occupations, where the cutoff search and the
    # per-component sums in `states` dominate. A thermal point costs
    # 0.08-0.65 s over nbar 20-60 at the seed and 4.8 s at nbar 200, so the
    # range stops at 60 to keep a pass near two seconds. Coherent points
    # above about alpha_sq 720 fail at the seed (TailToleranceError) and
    # stay in the grid.
    "occupation-sweep": [
        (MOMENT_K, Family("thermal", "nbar", 20.0, 60.0, 4, chunk=1), _MOMENT_ROUTE),
        (MOMENT_K, Family("coherent", "alpha_sq", 64.0, 1024.0, 48, chunk=8), _MOMENT_ROUTE),
    ],
    # Fock basis, Lambda operators and pulse propagation at joint
    # dimensions 3360 (K=6) and 7920 (K=8).
    "exact-sweep": [
        (K, fam, _EXACT_ROUTE)
        for K in (6, 8)
        for fam in (
            Family("number", "number_n", 2, 4, 4, integer=True),
            Family("coherent", "alpha_sq", 0.1, 0.5, 4, extra=_WEAK_COHERENT),
        )
    ],
}

# The one-shot `halftrap sample` call each sweep workload times as its cold
# start: a fixed representative point of the workload's route, warm cache.
_SAMPLE_POINT = {
    "moments-sweep": (f"table.K={MOMENT_K}", "state=coherent", "alpha_sq=10"),
    "occupation-sweep": (f"table.K={MOMENT_K}", "state=thermal", "nbar=40"),
    "exact-sweep": (
        "table.K=8", "path=exact", "fock.n_max=4", "probe.levels=4", "pulse.T=0.05",
        "state=number", "number_n=3",
    ),
}


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def draw(family: Family, rng: random.Random) -> tuple:
    """Antithetic stratified draw of `family.count` values in [lo, hi]."""
    pairs = family.count // 2
    width = (family.hi - family.lo) / pairs
    out = []
    for i in range(pairs):
        u = rng.random()
        for frac in (u, 1.0 - u):
            v = family.lo + width * (i + frac)
            if family.integer:
                v = min(max(round(v), family.lo), family.hi)
            out.append(float(v))
    return tuple(out)


def sweeps(workload: str, seed: int) -> list[Sweep]:
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for K, fam, route in _SWEEP_PLANS[workload]:
        values = draw(fam, rng)
        step = fam.chunk or len(values)
        out += [Sweep(K, fam, route, values[i:i + step]) for i in range(0, len(values), step)]
    return out


def sample_args(workload: str, seed: int) -> list[str]:
    """`halftrap sample` arguments for the sweep workload's cold start."""
    args = ["sample", "--shots", str(SHOTS), "--seed", str(seed % 2**31)]
    for item in _SAMPLE_POINT[workload]:
        args += ["--set", item]
    return args


def cli_calls(seed: int, count: int) -> list[dict]:
    """Seeded `halftrap sample` calls for cold-cli: coherent alpha_sq in 0.1-20."""
    rng = random.Random(f"{CLI_WORKLOAD}:{seed}")
    fam = Family("coherent", "alpha_sq", 0.1, 20.0, count + count % 2)
    values = draw(fam, rng)
    calls = []
    for i in range(count):
        sample_seed = rng.randrange(2**31)
        sets = [f"table.K={MOMENT_K}", "state=coherent", f"alpha_sq={_fmt(values[i])}"]
        args = ["sample", "--shots", str(SHOTS), "--seed", str(sample_seed)]
        for item in sets:
            args += ["--set", item]
        calls.append({"args": args, "sets": sets, "seed": sample_seed})
    return calls
