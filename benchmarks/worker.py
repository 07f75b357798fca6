"""One fresh process of the halftrap benchmark; started by run.py.

Modes:
  prepare  build the workload's tables into the benchmark's cache, and for
           cold-cli compute each call's in-process reference block
  setup    import halftrap, parse the config, obtain the table, exit
  sweep    set up, then run timed sweep passes and check their output
  cli      run `halftrap` in-process under the tracer (traced cold-cli);
           the halftrap arguments follow `--`

`--t0` is the parent's time.monotonic() just before the spawn; CLOCK_MONOTONIC
is system-wide on Linux, so set-up time counts from the spawn itself.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
from math import sqrt

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402

# The host's effective CPU speed drifts by 20 % and more within seconds
# (shared 2-vCPU VM). A fixed kernel of interpreter work and small numpy
# calls, timed right before and right after each sweep, tracks that drift;
# a sweep's wall time scaled by PROBE_REF_S / probe is its time at the
# reference speed, which is what the throughput metric reports.
PROBE_REF_S = 0.00035

# |mu(exact) - mu(fock)| at pulse.T = 0.05 is the first-order remainder of
# the pulse; the seed's worst case over the exact-sweep ranges is 1.4e-3.
EXACT_VS_FOCK_TOL = 2e-3


def _import_halftrap() -> float:
    start = time.perf_counter()
    import halftrap.harness  # noqa: F401
    return time.perf_counter() - start


def _mods():
    """Modules looked up at call time, so that the tracer's patches apply."""
    return (
        sys.modules["halftrap.harness.config"],
        sys.modules["halftrap.harness.sweep"],
        sys.modules["halftrap.orbitals"],
    )


def _parse(text: str):
    hc, _, _ = _mods()
    return hc.ExperimentConfig.from_entries(hc.parse_config_text(text))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# -- prepare / setup ----------------------------------------------------------


def prepare(spec: dict, out: str) -> None:
    _import_halftrap()
    hc, hs, orb = _mods()
    from halftrap.measurement import sample_outcomes

    tables = {K: orb.build_overlap_table(K) for K in spec["tables"]}
    refs = []
    if spec["calls"]:
        table = tables[spec["tables"][0]]
        for call in spec["calls"]:
            cfg = hc.ExperimentConfig.from_entries(hc.apply_overrides({}, call["sets"]))
            block = hs.single_block(cfg, table)
            counts = sample_outcomes(block, spec["shots"], call["seed"])
            refs.append({"p_succ": block.p_succ, "success": counts["success"]})
    _dump(out, {"refs": refs})


def setup(spec: dict, t0: float, tracer=None) -> tuple[dict, float, float]:
    """Import, parse the first config, obtain every table; (tables, setup_s, import_s)."""
    import_s = _import_halftrap()
    if tracer is not None:
        tracer.install()
    _, _, orb = _mods()
    first = _parse(spec["setup_text"])
    tables = {K: orb.build_overlap_table(K) for K in spec["tables"]}
    if first.K not in tables:
        raise RuntimeError(f"config asks for K={first.K}, spec prepared {spec['tables']}")
    return tables, time.monotonic() - t0, import_s


# -- sweep passes -------------------------------------------------------------


def run_pass(sweeps: list[dict], tables: dict, work_dir: str, key: str) -> tuple[list[float], list[float], list[str]]:
    """One pass over every sweep: parse, run_sweep, write the CSV to a file.

    Returns the wall time of each sweep, the probe time around it, and the
    CSV texts, read back afterwards.
    """
    _, hs, _ = _mods()
    paths = [os.path.join(work_dir, f"{key}-{i}.csv") for i in range(len(sweeps))]
    walls = []
    probes = []
    for sw, path in zip(sweeps, paths):
        before = probe()
        start = time.perf_counter()
        cfg = _parse(sw[key])
        results = hs.run_sweep(cfg, tables[sw["K"]])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            hs.write_sweep_csv(results, fh, timing=cfg.timing)
        walls.append(time.perf_counter() - start)
        probes.append(0.5 * (before + probe()))
    texts = []
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            texts.append(fh.read())
    return walls, probes, texts


def probe() -> float:
    """Median wall time of five runs of the fixed host-speed kernel."""
    import numpy as np

    a = np.arange(64.0)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = 0.0
        for i in range(4000):
            x = x * 0.5 + i
        for _ in range(30):
            np.sqrt(a * a + x, out=a)
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweeps(sweeps: list[dict], texts: list[str], tables: dict, work_dir: str) -> tuple[int, int, list[str]]:
    """Compare every row with an independent reference; (points, failed, problems)."""
    from halftrap.entanglement import negativity_closed_form

    problems: list[str] = []
    points = failed = 0
    fock_texts = None
    if any(sw["route"] == "exact" for sw in sweeps):
        fock_sweeps = [dict(sw, text=sw["text"].replace("path = exact", "path = fock")) for sw in sweeps]
        _, _, fock_texts = run_pass(fock_sweeps, tables, work_dir, "text")
    for i, (sw, text) in enumerate(zip(sweeps, texts)):
        rows = _rows(text)
        cfg = _parse(sw["text"])
        got = [float(r["value"]) for r in rows]
        if got != sw["values"]:
            problems.append(f"sweep {i}: rows {got} do not follow the grid {sw['values']}")
            continue
        ref_rows = _rows(fock_texts[i]) if sw["route"] == "exact" else None
        for j, row in enumerate(rows):
            points += 1
            if row["error"]:
                failed += 1
                continue
            v = float(row["value"])
            mu = float(row["mu"])
            where = f"{sw['state']} {sw['param']}={v:g} K={sw['K']}"
            if ref_rows is not None:
                ref = ref_rows[j]
                if ref["error"] or abs(mu - float(ref["mu"])) > EXACT_VS_FOCK_TOL:
                    problems.append(f"{where}: exact mu {mu!r} vs fock {ref['mu']!r} {ref['error']}")
                continue
            if sw["state"] == "thermal":
                expect = v / (2.0 * (1.0 + v))
            else:
                expect = negativity_closed_form(sw["state"], v)
            if not abs(mu - expect) <= cfg.mu_tol:
                problems.append(f"{where}: mu {mu!r} vs closed form {expect!r}")
            if sw["state"] == "coherent":
                f_expect = 1.0 / sqrt(1.0 + 2.0 / v)
                if not abs(float(row["fidelity"] or "nan") - f_expect) <= cfg.f_tol:
                    problems.append(f"{where}: fidelity {row['fidelity']!r} vs {f_expect!r}")
    return points, failed, problems


def sweep_mode(spec: dict, t0: float, seconds: float, trace: bool, out: str) -> None:
    work_dir = spec["work_dir"]
    tracer = tracing.Tracer(os.environ.get("HALFTRAP_CACHE_DIR")) if trace else None
    tables, setup_s, import_s = setup(spec, t0, tracer)
    setup_spans = []
    if tracer is not None:
        tracer.uninstall()
        setup_spans = tracer.spans[:]
        tracer.spans.clear()

    sweeps = spec["sweeps"]
    run_pass(sweeps, tables, work_dir, "warm_text")

    passes = []
    texts = None
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            walls, probes, pass_texts = run_pass(sweeps, tables, work_dir, "text")
        finally:
            if traced:
                tracer.uninstall()
        digest = hashlib.sha256("\x00".join(pass_texts).encode()).hexdigest()
        record = {
            "traced": traced,
            "wall": sum(walls),
            "walls": walls,
            "probes": probes,
            "sha256": digest,
        }
        if traced:
            record["trace"] = tracing.summarize(tracer.spans)
        passes.append(record)
        texts = texts or pass_texts
        # stop before a pass that would end past the budget, after the minimum
        now = time.perf_counter()
        if len(passes) >= (1 if tracer is None else 2) and now - begin + (now - started) > seconds:
            break

    points, failed, problems = check_sweeps(sweeps, texts, tables, work_dir)
    _dump(out, {
        "setup_s": setup_s,
        "import_s": import_s,
        "setup_trace": tracing.summarize(setup_spans) if tracer is not None else None,
        "passes": passes,
        "points": points,
        "failed": failed,
        "problems": problems,
        "rss_mb": _rss_mb(),
    })


# -- traced CLI ---------------------------------------------------------------


def cli_mode(args: list[str], out: str) -> int:
    import_s = _import_halftrap()
    import halftrap.harness.cli as cli

    tracer = tracing.Tracer(os.environ.get("HALFTRAP_CACHE_DIR"))
    tracer.install()
    try:
        code = cli.main(args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        _dump(out, {"import_s": import_s, "spans": tracing.to_records(tracer.spans)})
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("prepare", "setup", "sweep", "cli"))
    p.add_argument("--spec")
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    a = p.parse_args(argv[:split])
    if a.mode == "cli":
        return cli_mode(argv[split + 1:], a.out)
    with open(a.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    if a.mode == "prepare":
        prepare(spec, a.out)
    elif a.mode == "setup":
        _, setup_s, import_s = setup(spec, a.t0)
        _dump(a.out, {"setup_s": setup_s, "import_s": import_s, "rss_mb": _rss_mb()})
    else:
        sweep_mode(spec, a.t0, a.seconds, bool(a.trace), a.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
