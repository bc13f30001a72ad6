"""Exhaustive or sampled search over the r-colorings of a host graph.

Colorings are enumerated up to global color permutation: along the fixed
lexicographic edge order, a canonical coloring labels colors by first
occurrence (the first edge gets color 1, each later edge one of the colors
seen so far or the next unused one). Canonical strings are ordered
lexicographically; their ordinals drive chunking, budgets and witness
tie-breaks, so reports are identical for any worker count.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import get_context

from .covers import cover_general
from .graph import ColoredGraph, LimitExceeded, build_graph
from .oracle import exists_bounds_cover, min_cover_exact

DEFAULT_BUDGET = 1 << 26

# -- canonical coloring arithmetic -------------------------------------------


def _rgs_ways(m: int, r: int) -> list[list[int]]:
    """ways[i][M]: completions of positions i..m-1 when colors 0..M are in
    use; a next digit is any used color or the first unused one (below r)."""
    ways = [[1] * r for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        nxt = ways[i + 1]
        row = ways[i]
        for M in range(r):
            t = (M + 1) * nxt[M]
            if M + 1 < r:
                t += nxt[M + 1]
            row[M] = t
    return ways


def count_canonical(m: int, r: int) -> int:
    """Number of canonical colorings of m edge slots with up to r colors."""
    if m == 0:
        return 1
    return _rgs_ways(m, r)[1][0]


def _rgs_unrank(ordinal: int, m: int, r: int, ways: list[list[int]]) -> list[int]:
    digits = [0] * m
    M = 0
    for i in range(1, m):
        lim = M + 1 if M + 1 < r else r - 1
        for d in range(lim + 1):
            nm = M if d <= M else d
            c = ways[i + 1][nm]
            if ordinal < c:
                digits[i] = d
                M = nm
                break
            ordinal -= c
        else:
            raise ValueError("ordinal out of range")
    if ordinal:
        raise ValueError("ordinal out of range")
    return digits


def _rgs_next(digits: list[int], r: int) -> bool:
    """Advance to the lexicographically next canonical string, in place."""
    m = len(digits)
    prefmax = [0] * m
    best = -1
    for i in range(m):
        prefmax[i] = best
        if digits[i] > best:
            best = digits[i]
    for i in range(m - 1, 0, -1):
        lim = prefmax[i] + 1
        if lim > r - 1:
            lim = r - 1
        if digits[i] < lim:
            digits[i] += 1
            for j in range(i + 1, m):
                digits[j] = 0
            return True
    return False


def _canonicalize(raw: list[int]) -> list[int]:
    relabel: dict[int, int] = {}
    out = []
    for d in raw:
        if d not in relabel:
            relabel[d] = len(relabel)
        out.append(relabel[d])
    return out


def apply_coloring(host: ColoredGraph, colors: tuple[int, ...], r: int | None = None) -> ColoredGraph:
    """The host graph recolored by `colors` (1-based, lexicographic edge
    order); this is how report witnesses are turned back into graphs."""
    pairs = sorted(host.edge_color)
    if len(colors) != len(pairs):
        raise ValueError(f"expected {len(pairs)} colors, got {len(colors)}")
    if r is None:
        r = max(max(colors, default=1), host.r)
    return build_graph(host.n, r, [(u, v, c) for (u, v), c in zip(pairs, colors)])


# -- predicates ---------------------------------------------------------------


@dataclass(frozen=True)
class HasBoundsCover:
    """Passes iff a cover with the given per-component diameter bounds
    exists; badness 1 on failure."""

    bounds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(self.bounds))

    @property
    def name(self) -> str:
        return f"has-bounds-cover({','.join(map(str, self.bounds))})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        ok = exists_bounds_cover(G, list(self.bounds)) is not None
        return ok, 0 if ok else 1


@dataclass(frozen=True)
class MinCoverAtMost:
    """Passes iff the exact minimum diameter-<=d cover has at most k
    components; badness is the minimum itself."""

    d: int
    k: int

    @property
    def name(self) -> str:
        return f"min-cover-atmost(d={self.d},k={self.k})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        kmin, _cert = min_cover_exact(G, self.d)
        return kmin <= self.k, kmin


@dataclass(frozen=True)
class ConstructiveMatchesOracle:
    """Passes iff the constructive general cover uses exactly the oracle
    minimum number of components at bound d; badness is the gap."""

    d: int = 4

    @property
    def name(self) -> str:
        return f"constructive-matches-oracle(d={self.d})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        kmin, _cert = min_cover_exact(G, self.d)
        built = len(cover_general(G).components)
        gap = built - kmin
        if gap < 0:
            raise RuntimeError(f"constructive cover beat the exact oracle: {built} < {kmin}")
        return gap == 0, gap


@dataclass(frozen=True)
class MinCoverDistribution:
    """Passes on every coloring; badness is the exact minimum diameter-<=d
    cover size, and the report carries the histogram of those values."""

    d: int
    histogram = True  # not a field: reports of this predicate carry one

    @property
    def name(self) -> str:
        return f"min-cover-distribution(d={self.d})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        kmin, _cert = min_cover_exact(G, self.d)
        return True, kmin


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    """Outcome summary of one search run.

    Counts always sum to `total`; `space` is the full canonical space (or the
    requested sample count) of which only `total` were evaluated when the
    budget cut the run short (`partial`). The witness is the evaluated
    coloring of maximum badness, lowest ordinal on ties; `witness_colors`
    are 1-based colors along the lexicographic edge order of the host.
    Wall-clock time and worker count are informational and excluded from
    equality.
    """

    host: str
    r: int
    predicate: str
    mode: str
    space: int
    total: int
    symmetry_factor: int
    ok_count: int
    fail_count: int
    partial: bool
    budget: int
    worst_badness: int
    witness_ordinal: int | None
    witness_colors: tuple[int, ...] | None
    histogram: tuple[tuple[int, int], ...] | None = None
    wall_seconds: float = field(default=0.0, compare=False)
    jobs: int = field(default=1, compare=False)


def format_report(report: SearchReport) -> str:
    lines = [
        f"search: {report.predicate} over {report.mode} colorings of {report.host} with r={report.r}",
        f"  space {report.space} (symmetry factor {report.symmetry_factor}), "
        f"evaluated {report.total}, budget {report.budget}"
        + (" [partial]" if report.partial else ""),
        f"  outcomes: {report.ok_count} ok, {report.fail_count} fail",
    ]
    if report.witness_ordinal is not None:
        lines.append(
            f"  worst badness {report.worst_badness} at ordinal {report.witness_ordinal}, "
            f"colors {','.join(map(str, report.witness_colors))}"
        )
    if report.histogram is not None:
        body = ", ".join(f"{v}:{c}" for v, c in report.histogram)
        lines.append(f"  histogram {{{body}}}")
    lines.append(f"  wall {report.wall_seconds:.2f}s, jobs {report.jobs}")
    lines.append("")
    kv = {
        "host": report.host,
        "r": report.r,
        "predicate": report.predicate,
        "mode": report.mode,
        "space": report.space,
        "total": report.total,
        "symmetry_factor": report.symmetry_factor,
        "ok_count": report.ok_count,
        "fail_count": report.fail_count,
        "partial": int(report.partial),
        "budget": report.budget,
        "worst_badness": report.worst_badness,
        "witness_ordinal": "" if report.witness_ordinal is None else report.witness_ordinal,
        "witness_colors": ""
        if report.witness_colors is None
        else ",".join(map(str, report.witness_colors)),
    }
    if report.histogram is not None:
        kv["histogram"] = ",".join(f"{v}:{c}" for v, c in report.histogram)
    lines.extend(f"{k} = {v}" for k, v in kv.items())
    return "\n".join(lines)


# -- the search engine ---------------------------------------------------------

def _eval_chunk(job: dict, span: tuple[int, int]):
    """Evaluate the coloring ordinals lo..hi-1 of a search `job`: the state
    enumerate_colorings builds, passed to pool workers with each chunk. A
    predicate fault other than LimitExceeded comes back as a RuntimeError
    that names the coloring (message only, so it pickles from a worker)."""
    lo, hi = span
    n = job["n"]
    r = job["r"]
    pairs = job["pairs"]
    predicate = job["predicate"]
    collect = job["collect"]
    sample_seed = job["sample_seed"]
    exhaustive = job["mode"] == "exhaustive"
    m = len(pairs)
    ok = fail = 0
    hist: Counter = Counter()
    best = None  # (badness, ordinal, colors)
    if exhaustive:
        digits = _rgs_unrank(lo, m, r, job["ways"])
    for ordinal in range(lo, hi):
        if not exhaustive:
            rng = random.Random(sample_seed * (1 << 32) + ordinal)
            digits = _canonicalize([rng.randrange(r) for _ in range(m)])
        colors = tuple(d + 1 for d in digits)
        G = ColoredGraph(n, r, dict(zip(pairs, colors)))
        try:
            passed, badness = predicate.evaluate(G)
        except LimitExceeded:
            raise
        except Exception as exc:
            shown = ",".join(map(str, colors))
            raise RuntimeError(f"coloring ordinal {ordinal}, colors {shown}: {type(exc).__name__}: {exc}") from exc
        if passed:
            ok += 1
        else:
            fail += 1
        if collect:
            hist[badness] += 1
        if best is None or badness > best[0]:
            best = (badness, ordinal, colors)
        if exhaustive and ordinal + 1 < hi:
            _rgs_next(digits, r)
    return ok, fail, best, hist


def _merge(results):
    ok = fail = 0
    hist: Counter = Counter()
    best = None
    for c_ok, c_fail, c_best, c_hist in results:
        ok += c_ok
        fail += c_fail
        hist.update(c_hist)
        if c_best is not None:
            if best is None or (c_best[0], -c_best[1]) > (best[0], -best[1]):
                best = c_best
    return ok, fail, best, hist


def enumerate_colorings(
    host: ColoredGraph,
    r: int,
    predicate,
    mode: str = "exhaustive",
    samples: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> SearchReport:
    """Evaluate `predicate` on the canonical r-colorings of the host's edges.

    Exhaustive mode walks all canonical colorings in lexicographic order,
    stopping at `budget` evaluations (report flagged partial). Sample mode
    draws `samples` colorings, each edge color uniform, from a generator
    seeded with seed*2^32 + sample index, then canonicalizes. The report
    carries a histogram of badness values when the predicate has a true
    `histogram` attribute.
    """
    start = time.perf_counter()
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    m = len(host.edge_color)
    if mode == "exhaustive":
        scope = count_canonical(m, r)
    elif mode == "sample":
        if samples < 1:
            raise ValueError("sample mode needs samples >= 1")
        scope = samples
    else:
        raise ValueError(f"unknown mode {mode!r}; use exhaustive or sample")
    evaluated = min(scope, budget)
    collect = getattr(predicate, "histogram", False)
    job = dict(
        n=host.n,
        r=r,
        pairs=tuple(sorted(host.edge_color)),
        predicate=predicate,
        mode=mode,
        collect=collect,
        sample_seed=seed,
        ways=_rgs_ways(m, r) if mode == "exhaustive" else None,
    )
    if evaluated == 0:
        results = []
    elif jobs == 1:
        results = [_eval_chunk(job, (0, evaluated))]
    else:
        chunks = min(evaluated, jobs * 4)
        step = -(-evaluated // chunks)
        spans = [(lo, min(lo + step, evaluated)) for lo in range(0, evaluated, step)]
        with get_context("fork").Pool(jobs) as pool:
            results = pool.map(partial(_eval_chunk, job), spans)
    ok, fail, best, hist = _merge(results)
    return SearchReport(
        host=f"n={host.n} m={m}",
        r=r,
        predicate=predicate.name,
        mode=mode,
        space=scope,
        total=evaluated,
        symmetry_factor=math.factorial(r),
        ok_count=ok,
        fail_count=fail,
        partial=evaluated < scope,
        budget=budget,
        worst_badness=best[0] if best else 0,
        witness_ordinal=best[1] if best else None,
        witness_colors=best[2] if best else None,
        histogram=tuple(sorted(hist.items())) if collect else None,
        wall_seconds=time.perf_counter() - start,
        jobs=jobs,
    )


def min_cover_distribution(
    host: ColoredGraph,
    r: int,
    d: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> tuple[dict[int, int], SearchReport]:
    """Histogram of exact minimum cover sizes at diameter bound d over all
    canonical colorings; the maximum observed value lower-bounds what any
    coloring of this host can force."""
    report = enumerate_colorings(host, r, MinCoverDistribution(d), budget=budget, jobs=jobs)
    return dict(report.histogram), report
