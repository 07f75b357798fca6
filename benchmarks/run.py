"""halftrap benchmark: run one workload, check its output, print its metrics.

    python3 benchmarks/run.py --workload moments-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The
lines before it print the same figures by name, with units. See README.md
in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402

SETUPS = 3  # fresh set-up processes per run; setup_s is their median
COLD_SAMPLES = 3  # one-shot `halftrap sample` calls per sweep-workload run
MIN_CALLS = 4  # cold-cli calls per run at the least, whatever --seconds says
MAX_CALLS = 64
CHILD_TIMEOUT = 150.0

# Process start-up on a shared VM drifts by 20 % between runs, and the
# in-process probe does not track it. A fixed ruler process, which imports
# the package's dependencies and nothing of halftrap, timed right before and
# right after each measured process, does: a process time at the reference
# speed is wall * RULER_REF_S / ruler.
RULER = ("-c", "import numpy, scipy.sparse.linalg, scipy.stats, scipy.integrate")
RULER_REF_S = 1.0

END_TO_END = {
    "points_per_s": "pt/s",
    "cold_start_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}

PER_LAYER = {
    "harness.import_s": "s",
    "orbitals.build_s": "s",
    "orbitals.load_s": "s",
    "orbitals.table_bytes": "bytes",
    "orbitals.calls": "count",
    "orbitals.cache_hit_share": "share",
    "states.self_s": "s/pt",
    "states.calls": "count/pass",
    "states.n_cut_sum": "count/pass",
    "states.failed": "count/pass",
    "moments.self_s": "s/pt",
    "moments.truncation_sums_per_point": "count/pt",
    "fock.self_s": "s/pt",
    "fock.lambda_builds_per_point": "count/pt",
    "fock.basis_dim": "count",
    "evolution.hamiltonian_s": "s/pt",
    "evolution.propagate_s": "s/pt",
    "evolution.joint_dim": "count",
    "measurement.self_s": "s/pt",
    "entanglement.self_s": "s/pt",
    "harness.sweep.self_s": "s/pt",
    "harness.csv_s": "s/pt",
    "trace.overhead_s": "s/pt",
    "trace.coverage": "share",
}


class Failure(RuntimeError):
    """A child process failed; the run ends without a result line."""


class Child(NamedTuple):
    """Exit code, wall time, peak RSS and output of one finished process."""

    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Bench:
    def __init__(self, root: str, work: str, args):
        self.root = root
        self.work = work
        self.args = args
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads
        # keep anything that falls back to a home-directory cache inside the checkout
        self.env["HOME"] = self.env["XDG_CACHE_HOME"] = self.path("home")
        self.cache = self.path("cache")
        self.counter = 0

    def path(self, name: str) -> str:
        p = os.path.join(self.work, name)
        os.makedirs(p, exist_ok=True)
        return p

    def fresh_dir(self, prefix: str) -> str:
        self.counter += 1
        return self.path(f"{prefix}-{self.counter}")

    # -- processes -----------------------------------------------------------

    def spawn(self, argv: list[str], cache: str, pass_t0: bool = False) -> Child:
        env = dict(self.env, HALFTRAP_CACHE_DIR=cache)
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w+", encoding="utf-8") as out, open(err_path, "w+", encoding="utf-8") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(
                [*argv, "--t0", repr(t0)] if pass_t0 else argv,
                cwd=self.root, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(code, wall, usage.ru_maxrss / 1024.0, out.read(), err.read())

    def ruler(self) -> float:
        child = self.spawn([sys.executable, *RULER], self.cache)
        if child.code != 0:
            raise Failure(f"ruler process exited {child.code}:\n{child.stderr}")
        return child.wall

    def between_rulers(self, run_one, more) -> tuple[list, list[float]]:
        """Run `run_one(i)` while `more(i)`, with the ruler before and after each.

        Returns the results and, for each, the factor that scales its times
        to the reference speed.
        """
        results, factors, before = [], [], self.ruler()
        while more(len(results)):
            results.append(run_one(len(results)))
            after = self.ruler()
            factors.append(RULER_REF_S * 2.0 / (before + after))
            before = after
        return results, factors

    def worker(self, mode: str, spec: dict, cache: str, *extra: str) -> tuple[Child, dict]:
        spec_path = os.path.join(self.work, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        out = os.path.join(self.work, f"{mode}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, "--spec", spec_path, "--out", out, *extra]
        child = self.spawn(argv, cache, pass_t0=mode in ("setup", "sweep"))
        if child.code != 0:
            raise Failure(f"worker {mode} exited {child.code}:\n{child.stderr}")
        with open(out, encoding="utf-8") as fh:
            return child, json.load(fh)

    def cli(self, args: list[str], cache: str, traced: bool) -> tuple[Child, dict | None]:
        if not traced:
            return self.spawn([sys.executable, "-m", "halftrap.harness.cli", *args], cache), None
        out = os.path.join(self.work, "cli-trace.json")
        if os.path.exists(out):
            os.remove(out)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "cli", "--out", out, "--", *args]
        child = self.spawn(argv, cache)
        with open(out, encoding="utf-8") as fh:
            return child, json.load(fh)

    # -- sweep workloads -----------------------------------------------------

    def sweep_spec(self) -> dict:
        sweeps = []
        for sw in wl.sweeps(self.args.workload, self.args.seed):
            sweeps.append({
                "K": sw.K,
                "state": sw.family.state,
                "param": sw.family.param,
                "values": list(sw.values),
                "route": "exact" if "path = exact" in sw.route else "moments",
                "text": sw.config_text(),
                "warm_text": sw.config_text([min(sw.values)]),
            })
        return {
            "sweeps": sweeps,
            "setup_text": sweeps[0]["text"],
            "tables": sorted({sw["K"] for sw in sweeps}),
            "calls": [],
            "shots": wl.SHOTS,
            "work_dir": self.path("csv"),
        }

    def run_sweep_workload(self) -> dict:
        spec = self.sweep_spec()
        self.worker("prepare", spec, self.cache)
        seconds = self.args.seconds
        if self.args.trace:
            _, res = self.worker("sweep", spec, self.cache, "--seconds", str(seconds), "--trace", "1")
            return self.sweep_layers(res)
        argv = [sys.executable, "-m", "halftrap.harness.cli", *wl.sample_args(self.args.workload, self.args.seed)]

        def step(i: int):
            if i < SETUPS:
                return self.worker("sweep", spec, self.cache, "--seconds", str(seconds / SETUPS))
            return self.spawn(argv, self.cache), None

        runs, factors = self.between_rulers(step, lambda n: n < SETUPS + COLD_SAMPLES)
        results = [res for _, res in runs[:SETUPS]]
        samples = [child for child, _ in runs[SETUPS:]]
        setups = [r["setup_s"] * f for r, f in zip(results, factors)]
        cold = [c.wall * f for c, f in zip(samples, factors[SETUPS:])]

        problems = [p for r in results for p in r["problems"]]
        digests = {p["sha256"] for r in results for p in r["passes"]}
        if len(digests) != 1:
            problems.append(f"sweep CSVs differ between passes and processes: {len(digests)} distinct")
        if len({(s.code, s.stdout) for s in samples}) != 1:
            problems.append("repeated `halftrap sample` calls printed different output")
        attempted = sum(r["points"] * len(r["passes"]) for r in results) + len(samples)
        failed = sum(r["failed"] * len(r["passes"]) for r in results) + sum(s.code != 0 for s in samples)
        passes = [p for r in results for p in r["passes"]]
        # median over passes of each sweep call's time at the reference speed, summed
        ref_pass = sum(
            median(w * PROBE_REF_S / p for w, p in zip(walls, probes))
            for walls, probes in zip(zip(*(p["walls"] for p in passes)), zip(*(p["probes"] for p in passes)))
        )
        points = results[0]["points"]
        self.notes = [
            f"grid: {points} points in {len(passes[0]['walls'])} sweep calls per pass, "
            f"{len(passes)} passes in {SETUPS} processes; unscaled median {points / median(p['wall'] for p in passes):.6g} pt/s",
            f"cold start: median of {len(samples)} `halftrap sample` calls on a warm cache; "
            f"unscaled {median(s.wall for s in samples):.6g} s",
            f"set-up: median of {SETUPS} processes; unscaled {median(r['setup_s'] for r in results):.6g} s",
        ]
        metrics = {
            "points_per_s": points / ref_pass,
            "cold_start_s": median(cold),
            "setup_s": median(setups),
            "peak_rss_mb": median(r["rss_mb"] for r in results),
            "completed_share": (attempted - failed) / attempted,
        }
        return self.result(metrics, END_TO_END, attempted, failed, problems)

    def sweep_layers(self, res: dict) -> dict:
        traced = [p for p in res["passes"] if p["traced"]]
        plain = [p for p in res["passes"] if not p["traced"]]
        points = res["points"]
        setup = res["setup_trace"]
        one_pass = traced[0]["trace"]
        problems = list(res["problems"])
        if len({p["sha256"] for p in res["passes"]}) != 1:
            problems.append("tracing changed the sweep CSV bytes")
        self.notes = [f"{len(traced)} traced and {len(plain)} untraced passes of {points} points"]
        metrics = layer_metrics(
            [p["trace"] for p in traced], points, res["import_s"], setup, one_pass,
            overhead=median(p["wall"] for p in traced) - median(p["wall"] for p in plain),
            coverage=sum(p["trace"]["top_s"] for p in traced) / sum(p["wall"] for p in traced),
        )
        attempted = points * len(res["passes"])
        return self.result(metrics, PER_LAYER, attempted, res["failed"] * len(res["passes"]), problems)

    # -- cold-cli ------------------------------------------------------------

    def run_cli_workload(self) -> dict:
        calls = wl.cli_calls(self.args.seed, MAX_CALLS)
        spec = {
            "sweeps": [],
            "setup_text": "\n".join(calls[0]["sets"]),
            "tables": [wl.MOMENT_K],
            "calls": calls,
            "shots": wl.SHOTS,
            "work_dir": self.path("csv"),
        }
        refs = self.worker("prepare", spec, self.fresh_dir("ref-cache"))[1]["refs"]
        problems: list[str] = []
        begin = []  # start of the first call

        def call(i: int) -> tuple[Child, dict | None]:
            begin.append(time.monotonic())
            cache = self.fresh_dir("cache")
            child, trace = self.cli(calls[i]["args"], cache, traced=bool(self.args.trace) and i % 2 == 1)
            shutil.rmtree(cache, ignore_errors=True)
            problems.extend(check_sample(child, refs[i], i))
            return child, trace

        def more_calls(n: int) -> bool:
            # stop before a call that would end past the budget, after the minimum
            now = time.monotonic()
            return n < MIN_CALLS or (n < MAX_CALLS and now - begin[0] + (now - begin[-1]) <= self.args.seconds)

        if self.args.trace:
            runs = []
            while more_calls(len(runs)):
                runs.append(call(len(runs)))
        else:
            def step(i: int):
                if i < SETUPS:
                    return self.worker("setup", spec, self.fresh_dir("cache"))
                return call(i - SETUPS)

            steps, factors = self.between_rulers(step, lambda n: n < SETUPS or more_calls(n - SETUPS))
            setups = [res["setup_s"] * f for (_, res), f in zip(steps[:SETUPS], factors)]
            runs = steps[SETUPS:]
            cold = [c.wall * f for (c, _), f in zip(runs, factors[SETUPS:])]

        attempted = len(runs)
        failed = sum(c.code != 0 for c, _ in runs)
        if self.args.trace:
            traces = [(c, t) for c, t in runs if t is not None]
            plain = [c for c, t in runs if t is None]
            summaries = [tracing.summarize(tracing.from_records(t["spans"])) for _, t in traces]
            self.notes = [f"{len(traces)} traced and {len(plain)} untraced calls, each on an empty cache"]
            metrics = layer_metrics(
                summaries, 1, median(t["import_s"] for _, t in traces), summaries[0], None,
                overhead=median(c.wall for c, _ in traces) - median(c.wall for c in plain),
                coverage=sum(t["import_s"] + s["top_s"] for (_, t), s in zip(traces, summaries))
                / sum(c.wall for c, _ in traces),
            )
            return self.result(metrics, PER_LAYER, attempted, failed, problems)

        self.notes = [
            f"cold start: median of {len(runs)} `halftrap sample` calls, each on an empty cache; "
            f"unscaled {median(c.wall for c, _ in runs):.6g} s",
            f"set-up: median of {SETUPS} processes; unscaled {median(res['setup_s'] for _, res in steps[:SETUPS]):.6g} s",
        ]
        metrics = {
            "points_per_s": 1.0 / median(cold),
            "cold_start_s": median(cold),
            "setup_s": median(setups),
            "peak_rss_mb": median(c.rss_mb for c, _ in runs),
            "completed_share": (attempted - failed) / attempted,
        }
        return self.result(metrics, END_TO_END, attempted, failed, problems)

    # -- result --------------------------------------------------------------

    def result(self, values: dict, units: dict, attempted: int, failed: int, problems: list[str]) -> dict:
        self.problems = problems
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
        }


def check_sample(child: Child, ref: dict, index: int) -> list[str]:
    """A `halftrap sample` call must print the in-process block's p_succ and draw."""
    if child.code != 0:
        return []  # counted as a failed operation, not as a wrong answer
    fields = dict(line.split(" = ", 1) for line in child.stdout.splitlines() if " = " in line)
    try:
        p_succ = float(fields["p_succ"])
        success, failure = int(fields["success"]), int(fields["failure"])
    except (KeyError, ValueError):
        return [f"call {index}: unreadable output {child.stdout!r}"]
    problems = []
    if abs(p_succ - ref["p_succ"]) > 1e-12 * abs(ref["p_succ"]):
        problems.append(f"call {index}: p_succ {p_succ!r} vs in-process {ref['p_succ']!r}")
    if success != ref["success"] or success + failure != wl.SHOTS:
        problems.append(f"call {index}: counts {success}/{failure} vs in-process {ref['success']}")
    return problems


def layer_metrics(per_pass: list[dict], points: int, import_s: float, setup: dict,
                  one_pass: dict | None, overhead: float, coverage: float) -> dict:
    """Per-layer figures from traced passes (or traced calls, `points` = 1).

    Times are self times per point, averaged over the traced passes; counts
    are per pass. The orbitals figures cover set-up plus one pass.
    """
    n = len(per_pass) * points

    def total(key):
        return sum(p[key] for p in per_pass)

    def self_s(layer):
        return sum(p["layer_self"][layer] for p in per_pass) / n

    orb = [setup] + ([one_pass] if one_pass is not None else [])
    calls = sum(o["orbitals_calls"] for o in orb)
    hits = sum(o["orbitals_hits"] for o in orb)
    return {
        "harness.import_s": import_s,
        "orbitals.build_s": sum(o["build_s"] for o in orb),
        "orbitals.load_s": sum(o["load_s"] for o in orb),
        "orbitals.table_bytes": max(o["table_bytes"] for o in orb),
        "orbitals.calls": calls,
        "orbitals.cache_hit_share": hits / calls if calls else 0.0,
        "states.self_s": self_s("states"),
        "states.calls": total("states_calls") / len(per_pass),
        "states.n_cut_sum": total("n_cut_sum") / len(per_pass),
        "states.failed": total("states_failed") / len(per_pass),
        "moments.self_s": self_s("moments"),
        "moments.truncation_sums_per_point": total("truncation_sums") / n,
        "fock.self_s": self_s("fock"),
        "fock.lambda_builds_per_point": total("lambda_builds") / n,
        "fock.basis_dim": max(p["basis_dim"] for p in per_pass),
        "evolution.hamiltonian_s": total("hamiltonian_s") / n,
        "evolution.propagate_s": total("propagate_s") / n,
        "evolution.joint_dim": max(p["joint_dim"] for p in per_pass),
        "measurement.self_s": self_s("measurement"),
        "entanglement.self_s": self_s("entanglement"),
        "harness.sweep.self_s": (sum(p["layer_self"]["harness.sweep"] for p in per_pass) - total("csv_self_s")) / n,
        "harness.csv_s": total("csv_s") / n,
        "trace.overhead_s": overhead / points,
        "trace.coverage": coverage,
    }


def main() -> int:
    p = argparse.ArgumentParser(description="halftrap benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "halftrap", "__init__.py")):
        print("error: run from the repository root; src/halftrap not found", file=sys.stderr)
        return 2
    # SIGTERM ends the run like an error: the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(root, work, args)
    try:
        if args.workload == wl.CLI_WORKLOAD:
            result = bench.run_cli_workload()
        else:
            result = bench.run_sweep_workload()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in bench.notes:
        print(f"  {note}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>16.9g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  attempted {result['attempted']}, failed {result['failed']} (failed_share {share:.6g})")
    for problem in bench.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
