"""Exhaustive or sampled search over the r-colorings of a host graph.

Colorings are enumerated up to global color permutation: along the fixed
lexicographic edge order, a canonical coloring labels colors by first
occurrence (the first edge gets color 1, each later edge one of the colors
seen so far or the next unused one). Canonical strings are ordered
lexicographically; their ordinals drive chunking, budgets and witness
tie-breaks, so reports are identical for any worker count.

A predicate whose class declares `invariant = True` promises the same
verdict and badness for colorings related by a host automorphism. For such
a predicate, exhaustive mode decides each orbit of Aut(host) x S_r once: it
evaluates only the least canonical string of the orbit (its lowest ordinal)
and credits the verdict to every orbit member inside the decided ordinal
range. Counts, histograms and witnesses equal those of evaluating every
ordinal (isomorph rejection, McKay, J. Algorithms 1998). A permutation that
moves a string below itself by reading only a prefix rules out every string
with that prefix, so the walk jumps over them by rank.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial
from multiprocessing import get_context

from .covers import cover_general
from .graph import ColoredGraph, LimitExceeded, build_graph, mask_of
from .oracle import exists_bounds_cover, min_cover_exact

DEFAULT_BUDGET = 1 << 26

# Largest color count enumerate_colorings accepts, checked before anything is
# allocated: the report prints r! and the rank tables hold r columns per edge.
MAX_COLORS = 64

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


def _rgs_rank(digits: list[int], ways: list[list[int]]) -> int:
    """The ordinal of a canonical string; the inverse of _rgs_unrank."""
    ordinal = 0
    M = 0
    for i in range(1, len(digits)):
        for d in range(digits[i]):
            ordinal += ways[i + 1][max(M, d)]
        M = max(M, digits[i])
    return ordinal


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


# -- host symmetry -------------------------------------------------------------

_AUTOMORPHISM_CAP = 40320  # 8!; the orbit test costs time linear in the group


def _edge_automorphisms(host: ColoredGraph) -> list[tuple[int, ...]]:
    """The host's automorphisms other than the identity, as permutations p of
    the positions of sorted(host.edge_color): p[i] is the position of the
    image of edge i. Isolated vertices stay fixed and the lower end of an
    isolated edge maps only to a lower end, so the vertex maps are exactly
    the edge permutations. When the group has more than _AUTOMORPHISM_CAP of
    them, this is the pointwise stabilizer of the fewest leading vertices
    0..t-1 that fits; every subgroup keeps orbit-reduced reports exact."""
    n = host.n
    adj = host.adj_rows
    degree = [row.bit_count() for row in adj]
    # lower ends of isolated edges: degree 1, with a higher neighbor of degree 1
    lower = mask_of(v for v in range(n) if degree[v] == 1 and adj[v] >> v and degree[adj[v].bit_length() - 1] == 1)

    fixed = 0
    maps: list[tuple[int, ...]] = []
    while not _extend(0, 0, fixed, adj, degree, lower, [0] * n, maps):
        maps.clear()
        fixed += 1
    pairs = sorted(host.edge_color)
    index = {e: i for i, e in enumerate(pairs)}
    perms = {
        tuple(index[(s[u], s[v]) if s[u] < s[v] else (s[v], s[u])] for u, v in pairs) for s in maps
    }
    perms.discard(tuple(range(len(pairs))))
    return sorted(perms)


def _extend(v: int, used: int, fixed: int, adj, degree, lower: int, img: list[int], found: list) -> bool:
    """One node of the backtracking over vertices in order that lists the
    vertex automorphisms fixing 0..fixed-1 and every isolated vertex: maps v
    and the vertices after it, given the images `used` so far, and appends
    each complete map to `found`; False once there are more than
    _AUTOMORPHISM_CAP. A module-level function, so that the recursion leaves
    no reference cycle behind."""
    n = len(adj)
    if v == n:
        found.append(tuple(img))
        return len(found) <= _AUTOMORPHISM_CAP
    if v < fixed or not adj[v]:
        img[v] = v
        return _extend(v + 1, used | 1 << v, fixed, adj, degree, lower, img, found)
    want = 0  # images of v's neighbours mapped so far
    back = adj[v] & ((1 << v) - 1)
    while back:
        low = back & -back
        want |= 1 << img[low.bit_length() - 1]
        back ^= low
    for w in range(n):
        if (
            not used >> w & 1
            and degree[w] == degree[v]
            and adj[w] & used == want
            and lower >> w & 1 == lower >> v & 1
        ):
            img[v] = w
            if not _extend(v + 1, used | 1 << w, fixed, adj, degree, lower, img, found):
                return False
    return True


def _compare_image(digits: list[int], p: tuple[int, ...], r: int, target) -> int:
    """Compare the canonical string of `digits` moved by the edge permutation
    p with `target`: 0 when equal, else -(i+1) or i+1 as the image is below
    or above it, where i is the first position that differs."""
    relabel = [-1] * r
    fresh = 0
    for i, j in enumerate(p):
        c = relabel[digits[j]]
        if c < 0:
            c = relabel[digits[j]] = fresh
            fresh += 1
        if c != target[i]:
            return -i - 1 if c < target[i] else i + 1
    return 0


def _orbit_weight(digits: list[int], perms, r: int, limit: tuple[int, ...] | None) -> tuple[int, int]:
    """Orbit test of the canonical string `digits` under the edge
    permutations `perms` (with the identity, a group) and color relabeling.

    For the least string of its orbit, returns (w, 0): w counts the orbit
    strings below `limit` (all when None). Each orbit string is the image
    of as many group elements as fix `digits`, so w is a quotient. Any
    other string gives (0, k): a permutation moves it below itself reading
    only its first k digits, so no string sharing them is least either."""
    # digits < limit, first apart at `split`: an image above digits that
    # parts from it earlier is above limit, one that parts later is below
    split = -1 if limit is None else next(i for i, d in enumerate(digits) if d != limit[i])
    stabilizer = below = 1
    for p in perms:
        sign = _compare_image(digits, p, r, digits)
        if sign < 0:
            return 0, max(p[:-sign]) + 1
        if sign == 0:
            stabilizer += 1
            below += 1
        elif sign > split + 1 or (sign == split + 1 and _compare_image(digits, p, r, limit) < 0):
            below += 1
    return below // stabilizer, 0


# -- predicates ---------------------------------------------------------------


@dataclass(frozen=True)
class HasBoundsCover:
    """Passes iff a cover with the given per-component diameter bounds
    exists; badness 1 on failure."""

    bounds: tuple[int, ...]
    invariant = True  # not a field: see the module docstring

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
    invariant = True

    @property
    def name(self) -> str:
        return f"min-cover-atmost(d={self.d},k={self.k})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        kmin, _cert = min_cover_exact(G, self.d)
        return kmin <= self.k, kmin


@dataclass(frozen=True)
class ConstructiveMatchesOracle:
    """Passes iff the constructive general cover uses exactly the oracle
    minimum number of components at bound d; badness is the gap. Not
    invariant: cover_general's component count can depend on vertex labels."""

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
    invariant = True

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
    requested sample count) of which only the first `total` ordinals were
    decided when the budget cut the run short (`partial`). The witness is the
    decided coloring of maximum badness, lowest ordinal on ties; `witness_colors`
    are 1-based colors along the lexicographic edge order of the host.
    Wall-clock time, worker count, the order of the host symmetry group the
    search was reduced by (1 when it was not) and the number of predicate
    calls are informational and excluded from equality.
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
    group_order: int = field(default=1, compare=False)
    evaluations: int = field(default=0, compare=False)


def format_report(report: SearchReport) -> str:
    lines = [
        f"search: {report.predicate} over {report.mode} colorings of {report.host} with r={report.r}",
        f"  space {report.space} (symmetry factor {report.symmetry_factor}), "
        f"decided {report.total}, budget {report.budget}, "
        f"host group order {report.group_order}, {report.evaluations} predicate calls"
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
    # every compared field in declaration order: a bool as 0 or 1, None as
    # nothing (no histogram line at all), a tuple comma-joined
    for f in fields(report):
        v = getattr(report, f.name)
        if f.compare and (v is not None or f.name != "histogram"):
            if isinstance(v, tuple):  # witness colors, or histogram (value, count) pairs
                v = ",".join(":".join(map(str, x)) if isinstance(x, tuple) else str(x) for x in v)
            lines.append(f"{f.name} = {'' if v is None else int(v) if isinstance(v, bool) else v}")
    return "\n".join(lines)


# -- the search engine ---------------------------------------------------------

def _eval_chunk(span: tuple[int, int], *, n, r, pairs, predicate, mode, collect, sample_seed, ways, perms, limit):
    """Decide the coloring ordinals lo..hi-1 of a search whose state
    enumerate_colorings builds and passes, bound once, to pool workers.
    With host symmetries (`perms`), only the least string of each orbit is
    evaluated, weighted by its orbit members below `limit`, and a run of
    ordinals whose common prefix already rules them out is skipped in one
    step. A predicate fault other than LimitExceeded comes back as a
    RuntimeError that names the coloring (message only, so it pickles from
    a worker)."""
    lo, hi = span
    exhaustive = mode == "exhaustive"
    m = len(pairs)
    ok = fail = calls = 0
    hist: Counter = Counter()
    best = None  # (badness, ordinal, colors)
    if exhaustive:
        digits = _rgs_unrank(lo, m, r, ways)
    ordinal = lo
    while ordinal < hi:
        if not exhaustive:
            rng = random.Random(sample_seed * (1 << 32) + ordinal)
            digits = _canonicalize([rng.randrange(r) for _ in range(m)])
        weight, keep = _orbit_weight(digits, perms, r, limit) if perms else (1, 0)
        if not weight:
            # skip every string that shares the rejected prefix
            head = digits[:keep]
            if not _rgs_next(head, r):
                break
            digits[:] = head + [0] * (m - keep)
            ordinal = _rgs_rank(digits, ways)
            continue
        calls += 1
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
            ok += weight
        else:
            fail += weight
        if collect:
            hist[badness] += weight
        if best is None or badness > best[0]:
            best = (badness, ordinal, colors)
        ordinal += 1
        if exhaustive and ordinal < hi:
            _rgs_next(digits, r)
    return ok, fail, best, hist, calls


def _merge(results):
    ok = fail = calls = 0
    hist: Counter = Counter()
    best = None
    for c_ok, c_fail, c_best, c_hist, c_calls in results:
        ok += c_ok
        fail += c_fail
        calls += c_calls
        hist.update(c_hist)
        if c_best is not None:
            if best is None or (c_best[0], -c_best[1]) > (best[0], -best[1]):
                best = c_best
    return ok, fail, best, hist, calls


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

    Exhaustive mode decides the canonical colorings in lexicographic order,
    stopping after the first `budget` ordinals (report flagged partial).
    When the predicate has a true `invariant` attribute it is evaluated once
    per orbit of the host's automorphisms and color permutations, at the
    orbit's lowest ordinal, and that verdict counts for every orbit member
    in the decided range; the report is equal to evaluating every ordinal.
    Sample mode draws `samples` colorings, each edge color uniform, from a
    generator seeded with seed*2^32 + sample index, then canonicalizes; it
    is never reduced. The report carries a histogram of badness values when
    the predicate has a true `histogram` attribute.
    """
    start = time.perf_counter()
    if not 1 <= r <= MAX_COLORS:
        raise ValueError(f"r must be in 1..{MAX_COLORS}, got {r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    m = len(host.edge_color)
    if mode == "exhaustive":
        if samples:
            raise ValueError("samples apply only to sample mode")
        scope = count_canonical(m, r)
    elif mode == "sample":
        if samples < 1:
            raise ValueError("sample mode needs samples >= 1")
        scope = samples
    else:
        raise ValueError(f"unknown mode {mode!r}; use exhaustive or sample")
    evaluated = min(scope, budget)
    collect = getattr(predicate, "histogram", False)
    reduce = mode == "exhaustive" and getattr(predicate, "invariant", False)
    ways = _rgs_ways(m, r) if mode == "exhaustive" else None
    job = dict(
        n=host.n,
        r=r,
        pairs=tuple(sorted(host.edge_color)),
        predicate=predicate,
        mode=mode,
        collect=collect,
        sample_seed=seed,
        ways=ways,
        perms=_edge_automorphisms(host) if reduce else (),
        limit=tuple(_rgs_unrank(evaluated, m, r, ways)) if reduce and evaluated < scope else None,
    )
    if evaluated == 0:
        results = []
    elif jobs == 1:
        results = [_eval_chunk((0, evaluated), **job)]
    else:
        chunks = min(evaluated, jobs * 4)
        step = -(-evaluated // chunks)
        spans = [(lo, min(lo + step, evaluated)) for lo in range(0, evaluated, step)]
        with get_context("fork").Pool(jobs) as pool:
            results = pool.map(partial(_eval_chunk, **job), spans)
    ok, fail, best, hist, calls = _merge(results)
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
        group_order=len(job["perms"]) + 1,
        evaluations=calls,
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
