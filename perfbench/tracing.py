"""Span tracing for the per-layer run.

``install`` wraps qnsem's public functions in place: each wrapper is bound
under every name that refers to the function in any qnsem module, so calls
through ``from ... import`` names (``demo.is_dynamic_legal``,
``oml.solve_feasibility``) and methods (``ProjectorBindings.denote``) are
seen too.  A span is (name, start, end, parent); spans stay in memory and
``write`` saves them when the run ends.  Self time is a span's duration
minus that of its child spans.  Counters are kept at the same boundaries.

``tracing.overhead_s`` is the time tracing adds to a pass, measured directly:
the spans times the cost of one span, timed on a wrapped no-op, plus the
time spent counting.  A traced pass minus a plain one would measure the same
if the host kept one speed; on a shared host that difference swings by more
than the whole cost of tracing a workload with few spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import known

#: every per-layer metric, name -> unit, as BENCHMARK.json declares them
LAYER_METRICS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
}
#: the demo's section functions, each timed as metric ``demo.<section>.s``
SECTIONS = tuple(name[len("demo."):-len(".s")] for name in LAYER_METRICS if name.startswith("demo."))

# (span name, module, attribute); a dotted attribute names a method
SPANS = (
    ("linalg.hermitian_eigen", "linalg", "hermitian_eigen"),
    ("linalg.as_matrix", "linalg", "as_matrix"),
    ("linalg.orthonormalize", "linalg", "orthonormalize"),
    ("hilbert.meet", "hilbert", "meet"),
    ("hilbert.join", "hilbert", "join"),
    ("hilbert.born", "hilbert", "born"),
    ("hilbert.leq", "hilbert", "leq"),
    ("hilbert.check_density", "hilbert", "check_density"),
    ("hilbert.projector_from_span", "hilbert", "projector_from_span"),
    ("hilbert.random_projector", "hilbert", "random_projector"),
    ("quantum.denote", "quantum", "ProjectorBindings.denote"),
    ("quantum.classify", "quantum", "ProjectorBindings.classify"),
    ("quantum.evaluate_state", "quantum", "evaluate_state"),
    ("quantum.order_preservation_check", "quantum", "order_preservation_check"),
    ("formulas.parse", "formulas", "parse"),
    ("formulas.subformula_closure", "formulas", "subformula_closure"),
    ("nmatrix.is_dynamic_legal", "nmatrix", "is_dynamic_legal"),
    ("nmatrix.dynamic_consequence", "nmatrix", "dynamic_consequence"),
    ("nmatrix.verify_rexpansion", "nmatrix", "verify_rexpansion"),
    ("oml.verify_oml", "oml", "verify_oml"),
    ("oml.state_constraints", "oml", "state_constraints"),
    ("oml.find_state", "oml", "find_state"),
    ("oml.legal_valuation_search", "oml", "legal_valuation_search"),
    ("oml.find_two_valued_valuation", "oml", "find_two_valued_valuation"),
    ("feasibility.check_point", "feasibility", "check_point"),
    ("kscheck.orthogonality_graph", "kscheck", "orthogonality_graph"),
    ("kscheck.search", "kscheck", "search_classical_valuation"),
    ("kscheck.search", "kscheck", "count_solutions"),
    ("kscheck.exhaustive_count", "kscheck", "exhaustive_count"),
) + tuple((f"demo.{s}", "demo", s) for s in SECTIONS)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.denoted: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.consequence = None  # (matrix, gamma) of the running dynamic_consequence
        self.hook_s = 0.0  # time spent counting, outside the spans
        self.span_cost = 0.0  # seconds a span adds to its call, set by install

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, before=None, after=None):
        """``name`` is a span name, or a function of the call's arguments
        returning one."""
        pick = name if callable(name) else None
        fixed = None if pick else self._id(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                hook = clock()
                before(args, kwargs)
                self.hook_s += clock() - hook
            span = len(starts)
            ids.append(fixed if pick is None else self._id(pick(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                hook = clock()
                after(args, result)
                self.hook_s += clock() - hook
            return result

        return traced

    def mark(self) -> tuple[int, Counter, float]:
        return len(self.start), Counter(self.counts), self.hook_s

    def metrics(self, mark: tuple[int, Counter, float]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``mark``."""
        begin, counts_before, hook_before = mark
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        ids = np.array(self.name_id[begin:], dtype=np.int64)
        parent = np.array(self.parent[begin:], dtype=np.int64) - begin
        duration = np.array(self.end[begin:]) - np.array(self.start[begin:])
        nested = parent >= 0
        own = duration - np.bincount(parent[nested], weights=duration[nested], minlength=len(ids))
        size = len(self.names)
        calls = dict(zip(self.names, np.bincount(ids, minlength=size).tolist()))
        self_s = dict(zip(self.names, np.bincount(ids, weights=own, minlength=size).tolist()))
        total_s = dict(zip(self.names, np.bincount(ids, weights=duration, minlength=size).tolist()))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(span, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(span, 0.0)
            elif kind == "s" and span.startswith("demo."):
                out[metric] = total_s.get(span, 0.0)
        out["quantum.denote.hit_frac"] = ratio(
            calls.get("quantum.denote", 0) - counts["denote.distinct"], calls.get("quantum.denote", 0)
        )
        out["quantum.classify.ambiguous_frac"] = ratio(counts["classify.ambiguous"], calls.get("quantum.classify", 0))
        out["formulas.parse.nodes_per_s"] = ratio(counts["parse.nodes"], self_s.get("formulas.parse", 0.0))
        out["formulas.subformula_closure.nodes"] = counts["closure.nodes"]
        out["nmatrix.valuations_visited"] = counts["valuations.visited"]
        out["nmatrix.valuations.gamma_designated_frac"] = ratio(
            counts["valuations.gamma_designated"], counts["valuations.visited"]
        )
        out["oml.state_constraints.rows"] = counts["state_constraints.rows"]
        out["feasibility.infeasible.certified_frac"] = ratio(counts["infeasible.certified"], counts["infeasible"])
        out["tracing.overhead_s"] = len(ids) * self.span_cost + self.hook_s - hook_before
        return out

    def write(self, path: Path, mark: tuple[int, Counter, float]) -> None:
        """Save the spans recorded since ``mark``; parents index that slice."""
        begin = mark[0]
        path.parent.mkdir(parents=True, exist_ok=True)
        parent = np.array(self.parent[begin:], dtype=np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name_id[begin:], dtype=np.int16),
            parent=np.where(parent >= 0, parent - begin, -1).astype(np.int32),
            start=np.array(self.start[begin:]),
            end=np.array(self.end[begin:]),
        )


def _rebind(original, wrapped) -> None:
    for name, module in list(sys.modules.items()):
        if name == "qnsem" or name.startswith("qnsem."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install() -> Tracer:
    """Wrap every traced qnsem function; a name the program no longer has
    is skipped and its metrics read 0."""
    from qnsem import feasibility, formulas, nmatrix

    tracer = Tracer()
    tracer.span_cost = span_cost()
    counts = tracer.counts

    def count_denote(args, result):
        seen = tracer.denoted.setdefault(args[0], set())
        if args[1] not in seen:
            seen.add(args[1])
            counts["denote.distinct"] += 1

    def count_infeasible(args, result):
        if not result.feasible:
            counts["infeasible"] += 1
            counts["infeasible.certified"] += result.certificate is not None

    after = {
        "quantum.denote": count_denote,
        "quantum.classify": lambda a, r: counts.update({"classify.ambiguous": r == nmatrix.AMBIGUOUS}),
        "formulas.parse": lambda a, r: counts.update({"parse.nodes": known.tree_size(r)}),
        "formulas.subformula_closure": lambda a, r: counts.update({"closure.nodes": len(r)}),
        "oml.state_constraints": lambda a, r: counts.update({"state_constraints.rows": len(r[1])}),
    }
    before = {"nmatrix.dynamic_consequence": lambda a, k: setattr(tracer, "consequence", (a[0], list(a[1])))}

    for span, module_name, attr in SPANS:
        module = importlib.import_module(f"qnsem.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, method, None)
        if original is None:
            continue
        wrapped = tracer.wrap(span, original, before.get(span), after.get(span))
        if owner_name:
            setattr(owner, method, wrapped)
        else:
            _rebind(original, wrapped)

    if hasattr(feasibility, "solve_feasibility"):
        _rebind(feasibility.solve_feasibility, _solver(tracer, feasibility.solve_feasibility, count_infeasible))
    if hasattr(formulas, "render"):
        _rebind(formulas.render, _outermost(tracer, formulas, "render"))
    if hasattr(nmatrix, "enumerate_dynamic_valuations"):
        _rebind(nmatrix.enumerate_dynamic_valuations, _counted(tracer, nmatrix.enumerate_dynamic_valuations))
    return tracer


def span_cost(repeats: int = 5, calls: int = 20_000) -> float:
    """Seconds a span adds to the call it wraps: a no-op timed bare and
    wrapped, taking the least of several timings of each."""
    probe = Tracer()

    def noop(a, b):
        return a

    def least(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn(1, 2)
            times.append(time.perf_counter() - start)
        return min(times)

    return (least(probe.wrap("probe", noop)) - least(noop)) / calls


def _solver(tracer: Tracer, original, after):
    """One span name per back end of the feasibility solver."""

    def backend(args, kwargs):
        exact = kwargs.get("exact", args[2] if len(args) > 2 else True)
        return "feasibility.solve_feasibility.exact" if exact else "feasibility.solve_feasibility.float"

    return tracer.wrap(backend, original, after=after)


def _outermost(tracer: Tracer, module, attr: str):
    """A span for the outermost call of a function that recurses through its
    module-global name; the recursion runs unwrapped, so tracing adds no
    stack frames to deep formulas."""
    original = getattr(module, attr)
    traced = tracer.wrap(f"{module.__name__.rpartition('.')[2]}.{attr}", original)

    @functools.wraps(original)
    def outermost(*args, **kwargs):
        setattr(module, attr, original)
        try:
            return traced(*args, **kwargs)
        finally:
            setattr(module, attr, outermost)

    return outermost


def _counted(tracer: Tracer, original):
    """Count the valuations a consequence check visits, and those that make
    every premise designated."""
    counts = tracer.counts

    def counted(m, formulas):
        for valuation in original(m, formulas):
            hook = time.perf_counter()
            counts["valuations.visited"] += 1
            if tracer.consequence is not None:
                matrix, gamma = tracer.consequence
                if all(matrix.is_designated(valuation[g]) for g in gamma):
                    counts["valuations.gamma_designated"] += 1
            tracer.hook_s += time.perf_counter() - hook
            yield valuation

    return counted
