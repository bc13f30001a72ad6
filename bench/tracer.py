"""Span tracer that wraps calls into monocover from outside the package.

``install`` rebinds module attributes: every name in any ``monocover``
module that refers to a traced function (cross-module imports such as
``monocover.covers.independence_number`` included) is replaced by a wrapper that records
one span per call: name, start, end and parent span. No source file of the
package changes. A function the package no longer has is skipped, so the
tracer keeps working when a layer is refactored; its metrics then read 0.

Spans are kept in memory in flat arrays and written to a file when the run
ends. Self time of a span is its duration minus the durations of its direct
children, which nest strictly because the workloads are single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute) -> span name. Several functions may share a name; a
# span nested in another of the same name is not counted twice in ``.ms``.
TRACED = {
    ("graph", "parse_graph"): "graph.parse",
    ("graph", "parse_certificate"): "graph.parse",
    ("graph", "parse_combined"): "graph.parse",
    ("graph", "format_graph"): "graph.format",
    ("graph", "format_certificate"): "graph.format",
    ("graph", "format_combined"): "graph.format",
    ("graph", "verify_cover"): "graph.verify_cover",
    ("graph", "independence_number"): "graph.independence_number",
    ("graph", "_mask_diameter"): "graph.mask_diameter",
    ("graph", "find_odd_antihole"): "graph.find_odd_antihole",
    ("graph", "is_complement_bipartite"): "graph.is_complement_bipartite",
    ("graph", "induced_subgraph"): "graph.induced_subgraph",
    ("classify", "_classify_within"): "classify.classify_within",
    ("classify", "_spanning_mono_within"): "classify.spanning_mono_within",
    ("covers", "cover_general"): "covers.cover_general",
    ("covers", "cover_alpha2"): "covers.cover_alpha2",
    ("covers", "cover_near_split"): "covers.cover_near_split",
    ("covers", "detect_near_split"): "covers.detect_near_split",
    ("oracle", "maximal_candidates"): "oracle.maximal_candidates",
    ("oracle", "_qualifying_supersets"): "oracle.qualify_sweep",
    ("oracle", "min_cover_exact"): "oracle.min_cover_exact",
    ("oracle", "exists_bounds_cover"): "oracle.exists_bounds_cover",
    ("search", "enumerate_colorings"): "search",
    ("search", "min_cover_distribution"): "search",
}

# search predicates are classes with an ``evaluate`` method; every such
# class in monocover.search gets its method wrapped under this name
PREDICATE_SPAN = "search.predicate"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded monocover module."""
        modules = {k[len("monocover."):] or "": m for k, m in sys.modules.items()
                   if k == "monocover" or k.startswith("monocover.")}
        hooks = {
            "oracle.maximal_candidates": lambda a, res: self.count("oracle.candidates", len(res)),
            "oracle.qualify_sweep": self._count_sweep,
        }
        wrappers = {}
        for (mod, attr), span in TRACED.items():
            fn = getattr(modules.get(mod), attr, None)
            if callable(fn):
                wrappers[id(fn)] = self.wrap(span, fn, hooks.get(span))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        search = modules.get("search")
        for value in list(vars(search).values()) if search else ():
            if isinstance(value, type) and callable(getattr(value, "evaluate", None)):
                value.evaluate = self.wrap(PREDICATE_SPAN, value.evaluate)

    def _count_sweep(self, args, result) -> None:
        n = args[1]
        self.count("oracle.qualify_checks", (1 << n) - 1)
        self.count("oracle.qualify_hits", len(result[0]))

    # -- summarising -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, ms (outermost spans only) and self_ms."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in self.names}
        for i in range(n):
            nid = self.name[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_ms"] += (dur[i] - child[i]) * 1e3
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                rec["ms"] += dur[i] * 1e3
        return out

    def write(self, path: Path) -> None:
        """One JSON header line (names, fields, count), then the four span
        arrays as raw machine values in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "fields": ["name:i", "parent:i", "start:d", "end:d"],
            "spans": len(self.name),
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer: Tracer, ops_per_s: float, covers: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced run;
    ``covers`` is the number of cover operations the workload ran."""
    s = tracer.summary()
    zero = {"calls": 0, "ms": 0.0, "self_ms": 0.0}

    def get(name, key):
        return s.get(name, zero)[key]

    def per_cover(calls):
        return calls / covers if covers else 0.0

    checks = tracer.counts.get("oracle.qualify_checks", 0)
    return {
        "search.ms": (get("search", "ms"), "ms"),
        "search.self_ms": (get("search", "self_ms"), "ms"),
        "search.predicate_evals": (get(PREDICATE_SPAN, "calls"), "count"),
        "oracle.maximal_candidates.calls": (get("oracle.maximal_candidates", "calls"), "count"),
        "oracle.maximal_candidates.ms": (get("oracle.maximal_candidates", "ms"), "ms"),
        "oracle.qualify_sweep.ms": (get("oracle.qualify_sweep", "ms"), "ms"),
        "oracle.candidates": (tracer.counts.get("oracle.candidates", 0), "count"),
        "oracle.qualify_checks": (checks, "count"),
        "oracle.qualify_hits": (tracer.counts.get("oracle.qualify_hits", 0), "count"),
        "oracle.candidate_yield": (
            tracer.counts.get("oracle.candidates", 0) / checks if checks else 0.0, "ratio"),
        "oracle.min_cover_exact.self_ms": (get("oracle.min_cover_exact", "self_ms"), "ms"),
        "oracle.exists_bounds_cover.self_ms": (get("oracle.exists_bounds_cover", "self_ms"), "ms"),
        "graph.mask_diameter.calls": (get("graph.mask_diameter", "calls"), "count"),
        "graph.mask_diameter.ms": (get("graph.mask_diameter", "ms"), "ms"),
        "graph.independence_number.calls": (get("graph.independence_number", "calls"), "count"),
        "graph.independence_number.ms": (get("graph.independence_number", "ms"), "ms"),
        "graph.independence_number.per_cover": (
            per_cover(get("graph.independence_number", "calls")), "calls/cover"),
        "graph.verify_cover.calls": (get("graph.verify_cover", "calls"), "count"),
        "graph.verify_cover.ms": (get("graph.verify_cover", "ms"), "ms"),
        "graph.verify_cover.per_cover": (per_cover(get("graph.verify_cover", "calls")), "calls/cover"),
        "graph.parse.ms": (get("graph.parse", "ms"), "ms"),
        "graph.format.ms": (get("graph.format", "ms"), "ms"),
        "graph.find_odd_antihole.ms": (get("graph.find_odd_antihole", "ms"), "ms"),
        "graph.is_complement_bipartite.ms": (get("graph.is_complement_bipartite", "ms"), "ms"),
        "graph.induced_subgraph.calls": (get("graph.induced_subgraph", "calls"), "count"),
        "classify.classify_within.calls": (get("classify.classify_within", "calls"), "count"),
        "classify.classify_within.ms": (get("classify.classify_within", "ms"), "ms"),
        "classify.spanning_mono_within.calls": (get("classify.spanning_mono_within", "calls"), "count"),
        "covers.cover_general.self_ms": (get("covers.cover_general", "self_ms"), "ms"),
        "covers.cover_alpha2.self_ms": (get("covers.cover_alpha2", "self_ms"), "ms"),
        "covers.cover_near_split.self_ms": (get("covers.cover_near_split", "self_ms"), "ms"),
        "covers.detect_near_split.ms": (get("covers.detect_near_split", "ms"), "ms"),
        "trace.ops_per_s": (ops_per_s, "1/s"),
    }

