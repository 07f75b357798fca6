"""In-memory span tracer that wraps halftrap's public API from outside.

`Tracer.install()` replaces every public function, and every public method,
classmethod, property and `__post_init__` of every public class, of each
layer module with a wrapper that records a span: name, layer, start, end
and parent span. Module-level names bound by `from ... import` anywhere in
the package are rebound to the same wrappers, so calls between layers are
seen too. `uninstall()` restores every attribute it replaced.

Spans live on one stack shared by all threads. That is exact only while
calls run one at a time, which is why every traced sweep sets
`workers = 1`; a span closed out of order raises instead of misattributing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

LAYERS = (
    "orbitals",
    "states",
    "moments",
    "fock",
    "evolution",
    "measurement",
    "entanglement",
    "harness.config",
    "harness.sweep",
    "harness.accept",
    "harness.cli",
)


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "failed", "info")

    def __init__(self, name: str, layer: str, parent: int):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.failed = False
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class CacheWatch:
    """Tells a cache hit from a build by watching the table cache directory.

    A call is a hit when the directory already held a table and the call
    added none; a call that writes a file, or finds no cache at all, built.
    """

    def __init__(self, directory: str | None):
        self.directory = directory
        self.seen = self._listing()

    def _listing(self) -> set:
        if self.directory and os.path.isdir(self.directory):
            return set(os.listdir(self.directory))
        return set()

    def __call__(self, args, kwargs, table) -> dict:
        now = self._listing()
        hit = bool(self.seen) and not (now - self.seen)
        self.seen = now
        arrays = [v for v in vars(table).values() if hasattr(v, "nbytes")]
        return {"hit": hit, "bytes": sum(int(a.nbytes) for a in arrays), "K": table.K}


def _observers(cache_dir: str | None) -> dict:
    """Per-span size records. They read plain attributes only, never a
    wrapped property, so recording adds no spans of its own."""
    return {
        "states.make_state": lambda a, k, r: {"n_cut": max(len(c.coeffs) - 1 for c in r.components)},
        "fock.FockBasis.__post_init__": lambda a, k, r: {"dim": len(a[0].states)},
        "evolution.build_joint_hamiltonian": lambda a, k, r: {"dim": int(r.H0.shape[0])},
        "orbitals.build_overlap_table": CacheWatch(cache_dir),
    }


class Tracer:
    def __init__(self, cache_dir: str | None = None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._observers = _observers(cache_dir)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans = self.spans
        stack = self._stack
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, layer, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                if stack.pop() != idx:
                    raise RuntimeError(f"span {name} closed out of order: calls overlapped")
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name, layer)))
            elif isinstance(member, property) and member.fget is not None:
                self._set(cls, attr, property(self._wrap(member.fget, name, layer), member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"halftrap.{layer}")
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{public}", layer))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "halftrap" or modname.startswith("halftrap.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def summarize(spans: list[Span]) -> dict:
    """Totals over a list of spans: self time per layer, named spans, counts.

    `top_s` is the time covered by spans with no parent, which is what the
    trace accounts for of the caller's wall time.
    """
    out = {
        "top_s": 0.0,
        "csv_s": 0.0,
        "csv_self_s": 0.0,
        "hamiltonian_s": 0.0,
        "propagate_s": 0.0,
        "build_s": 0.0,
        "load_s": 0.0,
        "orbitals_calls": 0,
        "orbitals_hits": 0,
        "states_calls": 0,
        "states_failed": 0,
        "n_cut_sum": 0,
        "truncation_sums": 0,
        "lambda_builds": 0,
        "basis_dim": 0,
        "joint_dim": 0,
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    table_bytes: dict = {}
    for s, own in zip(spans, self_times(spans)):
        layer_self[s.layer] += own
        info = s.info or {}
        if s.parent < 0:
            out["top_s"] += s.duration
        if s.layer == "states":
            out["states_calls"] += 1
            if s.failed and (s.parent < 0 or spans[s.parent].layer != "states"):
                out["states_failed"] += 1
        if s.name == "harness.sweep.write_sweep_csv":
            out["csv_s"] += s.duration
            out["csv_self_s"] += own
        elif s.name == "moments.truncation_sums":
            out["truncation_sums"] += 1
        elif s.name == "fock.build_lambda_operator":
            out["lambda_builds"] += 1
        elif s.name == "evolution.build_joint_hamiltonian":
            out["hamiltonian_s"] += own
        elif s.name == "evolution.exact_state":
            out["propagate_s"] += own
        elif s.name == "states.make_state" and info:
            out["n_cut_sum"] += info["n_cut"]
        elif s.name == "orbitals.build_overlap_table":
            out["orbitals_calls"] += 1
            if info.get("hit"):
                out["orbitals_hits"] += 1
                out["load_s"] += own
            else:
                out["build_s"] += own
            if "K" in info:
                table_bytes[info["K"]] = info["bytes"]
        if s.name == "fock.FockBasis.__post_init__" and not s.failed:
            out["basis_dim"] = max(out["basis_dim"], info["dim"])
        if s.name == "evolution.build_joint_hamiltonian" and not s.failed:
            out["joint_dim"] = max(out["joint_dim"], info["dim"])
    out["table_bytes"] = sum(table_bytes.values())
    out["layer_self"] = layer_self
    return out


def to_records(spans: list[Span]) -> list[list]:
    return [[s.name, s.layer, s.parent, s.start, s.end, s.failed, s.info] for s in spans]


def from_records(records: list[list]) -> list[Span]:
    spans = []
    for name, layer, parent, start, end, failed, info in records:
        s = Span(name, layer, parent)
        s.start, s.end, s.failed, s.info = start, end, failed, info
        spans.append(s)
    return spans
