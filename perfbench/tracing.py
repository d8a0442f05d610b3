"""Spans and call counts around calls into the qng modules.

A ``Tracer`` replaces each traced function by a wrapper in every qng module
namespace, and in every module-level dict, that holds the function:
``theorems``, ``cli`` and ``partitions`` bind ``spectra``/``polys`` names at
import time, and ``THEOREM_CHECKS`` holds the check functions, so patching
only the defining module would miss their calls.  Methods are wrapped on
their class.  ``uninstall`` puts every original back.

Spans nest on a stack.  A span's self time is its duration minus the time its
child spans cover; the tracer keeps per-name aggregates (calls, self time)
rather than the span list, plus the per-call latency of every bound check.

``scan(..., jobs>1)`` runs checks in forked pool workers, which inherit the
installed wrappers.  The wrapped chunk entry point resets the inherited state
in a new worker and, after each chunk, writes that worker's aggregates to a
file that the parent merges in ``collect``.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import qng
from qng import cli, enumeration, graph, partitions, polys, spectra, theorems

MODULES = (qng, graph, spectra, polys, partitions, enumeration, theorems, cli)

# (module, function name, span name); functions sharing a span name are summed.
SPANS = [
    (graph, "from_graph6", "graph.from_graph6"),
    (enumeration, "enumerate_graphs", "enumeration.enumerate_graphs"),
    (enumeration, "canonicalize", "enumeration.canonicalize"),
    (enumeration, "isomorphism_witness", "enumeration.isomorphism_witness"),
    (enumeration, "scan", "enumeration.scan"),
    (spectra, "eigenvalues_sym", "spectra.eigenvalues_sym"),
    (spectra, "matrix_of_kind", "spectra.matrix_of_kind"),
    (spectra, "char_poly_exact", "spectra.char_poly_exact"),
    (spectra, "compare_sum_with", "spectra.compare"),
    (spectra, "compare_qk_with", "spectra.compare"),
    (spectra, "compare_q1", "spectra.compare"),
    (spectra, "compare_sum_vs_radical", "spectra.compare"),
    (spectra, "certify_qk", "spectra.compare"),
    (polys, "compare_kth_roots", "polys.compare_kth_roots"),
    (polys, "poly_eval_surd", "polys.poly_eval_surd"),
    (partitions, "quotient_matrix", "partitions.quotient_matrix"),
    (partitions, "is_equitable", "partitions.is_equitable"),
    (partitions, "duplicate_classes", "partitions.duplicate_classes"),
    (theorems, "proof_check_thm12", "theorems.proof_check_thm12"),
    (theorems, "proof_check_thm15", "theorems.proof_check_thm15"),
    (cli, "main", "cli.main"),
]

# Bound checks: each span is named after the ``bound`` of the report it returns.
CHECKS = sorted(
    {f.__name__ for f in theorems.THEOREM_CHECKS.values()} | {"check_ng_q1", "check_ng_generic"}
)

CACHES = {
    f"spectra.{name}": getattr(spectra, name)
    for name in ("spectrum", "kind_char_poly")
    if hasattr(getattr(spectra, name, None), "cache_info")
}


class Tracer:
    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.canonicalized_in_enumeration = 0
        self.check_ms: list[float] = []
        self.certified = 0
        self.cache_base = {name: _cache_counts(f) for name, f in CACHES.items()}

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, label=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                span = name
                if label is not None and result is not None:
                    span = label(result)
                    tracer.check_ms.append(dur * 1e3)
                    tracer.certified += bool(getattr(result, "certified", False))
                tracer.calls[span] += 1
                tracer.self_s[span] += dur - frame[1]
                if parent == "enumeration.enumerate_graphs" and name == "enumeration.canonicalize":
                    tracer.canonicalized_in_enumeration += 1

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _worker_entry(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(args):
            if tracer.pid != os.getpid():
                tracer.reset()
            out = fn(args)
            tracer.dump(os.path.join(tracer.worker_dir, f"worker-{os.getpid()}.json"))
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, module, attr: str, make) -> None:
        original = getattr(module, attr, None)
        if original is None:  # renamed or removed since the benchmark was written
            return
        wrapper = make(original)
        for owner in MODULES:
            namespace = vars(owner)
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._patches.append((value, k, original))
                            value[k] = wrapper

    def _replace_method(self, cls, attr: str, make) -> None:
        original = vars(cls).get(attr) if cls is not None else None
        if original is not None:
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._replace_everywhere(module, attr, lambda f, name=name: self._span(name, f))
        for attr in CHECKS:
            self._replace_everywhere(theorems, attr, lambda f, attr=attr: self._span(
                f"theorems.{attr}", f, lambda report: f"theorems.{report.bound}"))
        self._replace_method(getattr(polys, "RootCounter", None), "__init__",
                             lambda f: self._span("polys.RootCounter", f))
        self._replace_method(getattr(polys, "RootWindow", None), "refine",
                             lambda f: self._counter("polys.RootWindow.refine", f))
        self._replace_everywhere(enumeration, "_scan_chunk", self._worker_entry)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- aggregation across processes -------------------------------------

    def _state(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "canonicalized_in_enumeration": self.canonicalized_in_enumeration,
            "check_ms": list(self.check_ms),
            "certified": self.certified,
            "cache": {
                name: [now - base for now, base in zip(_cache_counts(f), self.cache_base[name])]
                for name, f in CACHES.items()
            },
        }

    def dump(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self._state(), f)
        os.replace(tmp, path)

    def collect(self) -> dict:
        """This process's aggregates plus those of finished pool workers."""
        total = self._state()
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.worker_dir, entry)
            with open(path) as f:
                part = json.load(f)
            os.remove(path)
            for key in ("calls", "self_s"):
                for name, value in part[key].items():
                    total[key][name] = total[key].get(name, 0) + value
            total["canonicalized_in_enumeration"] += part["canonicalized_in_enumeration"]
            total["check_ms"] += part["check_ms"]
            total["certified"] += part["certified"]
            for name, (hits, misses) in part["cache"].items():
                total["cache"][name][0] += hits
                total["cache"][name][1] += misses
        return total


def _cache_counts(cached) -> tuple[int, int]:
    info = cached.cache_info()
    return info.hits, info.misses


BOUNDS = [
    "thm-1.2", "thm-1.3", "thm-1.4", "thm-1.5", "thm-1.6", "problem-1.2", "regular-bound",
    "lemma-2.6", "lemma-2.8", "lemma-2.9", "lemma-2.10", "q1-sum", "ng-A2", "ng-L1",
]

SELF_TIMES = [
    "enumeration.enumerate_graphs", "enumeration.canonicalize", "enumeration.isomorphism_witness",
    "enumeration.scan", "graph.from_graph6", "cli.main", "spectra.eigenvalues_sym",
    "spectra.matrix_of_kind", "spectra.char_poly_exact", "spectra.compare", "polys.RootCounter",
    "polys.compare_kth_roots", "polys.poly_eval_surd", "partitions.quotient_matrix",
    "partitions.is_equitable", "partitions.duplicate_classes",
    *(f"theorems.{b}" for b in BOUNDS),
    "theorems.proof_check_thm12", "theorems.proof_check_thm15",
]

CALLS = [
    "enumeration.canonicalize", "enumeration.isomorphism_witness", "graph.from_graph6",
    "spectra.eigenvalues_sym", "spectra.char_poly_exact", "spectra.compare", "polys.RootCounter",
    "polys.compare_kth_roots", "polys.RootWindow.refine", "polys.poly_eval_surd",
]

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def layer_metrics(state: dict, classes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one repetition, as name -> (value, unit).

    ``classes`` is the number of isomorphism classes the repetition's own
    top-level ``enumerate_graphs`` calls returned.
    """
    calls, self_s = state["calls"], state["self_s"]
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMES:
        out[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["enumeration.class_yield"] = (_ratio(classes, state["canonicalized_in_enumeration"]), "ratio")
    for name in ("spectra.spectrum", "spectra.kind_char_poly"):
        hits, misses = state["cache"].get(name, (0, 0))
        out[f"{name}.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    checks = sorted(state["check_ms"])
    out["theorems.escalated"] = (state["certified"], "count")
    out["theorems.escalated_ratio"] = (_ratio(state["certified"], len(checks)), "ratio")
    out["theorems.check_samples"] = (len(checks), "count")
    tail = 0.0
    if checks:
        tail = max(p for p in TAIL_PERCENTILES if len(checks) * (100.0 - p) / 100.0 >= 10 or p == 50.0)
    out["theorems.check_p50_ms"] = (_percentile(checks, 50.0) if checks else 0.0, "ms")
    out["theorems.check_tail_ms"] = (_percentile(checks, tail) if checks else 0.0, "ms")
    out["theorems.check_tail_pct"] = (tail, "%")
    return out
