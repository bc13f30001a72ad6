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
ordinal (isomorph rejection, McKay, J. Algorithms 1998). The least strings
come from orderly generation (Read, Ann. Discrete Math. 1978): strings are
extended position by position, and the sorted group, held as a prefix tree,
is compared with each prefix as soon as its digits are set, so a prefix that
some permutation maps below itself is cut with every string extending it,
and one comparison settles all the permutations that share a prefix.

The predicates are certificate-first: `oracle.two_piece_cover` looks for a
spanning color, then a closed monochromatic star plus the rest, and only a
coloring that neither settles reaches the exact oracle. Any such cover
answers `has-bounds-cover`; asked with bounds (d, d) its component count is
the exact minimum (see `_min_cover_size`), so verdicts, badness and
predicate-call counts are those of the oracle alone.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial
from multiprocessing import get_context

from .covers import cover_general
from .graph import ColoredGraph, LimitExceeded, build_graph, mask_of
from .oracle import exists_bounds_cover, min_cover_exact, two_piece_cover

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
    _require_nonnegative("count_canonical", m=m, r=r)
    if m == 0 or r == 0:
        return int(m == 0)  # the empty string, or no color for a slot
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

_AUTOMORPHISM_CAP = 40320  # 8!; the trie and the walk's waiting nodes grow with the group


def _edge_automorphisms(host: ColoredGraph) -> list[tuple[int, ...]]:
    """The host's automorphisms other than the identity, as permutations p of
    the positions of sorted(host.edge_color): p[i] is the position of the
    image of edge i. Isolated vertices stay fixed and the lower end of an
    isolated edge maps only to a lower end, so the vertex maps are exactly
    the edge permutations. When the group has more than _AUTOMORPHISM_CAP of
    them, this is the pointwise stabilizer of the fewest leading vertices
    that fits; every subgroup keeps orbit-reduced reports exact."""
    n = host.n
    adj = host.adj_rows
    degree = [row.bit_count() for row in adj]
    # lower ends of isolated edges: degree 1, with a higher neighbor of degree 1
    lower = mask_of(v for v in range(n) if degree[v] == 1 and adj[v] >> v and degree[adj[v].bit_length() - 1] == 1)

    maps: list[tuple[int, ...]] = []
    if not _extend(0, 0, adj, degree, lower, [0] * n, maps):
        # The maps come in lexicographic order, the identity first, so all cap
        # + 1 fix 0..t-1, t the first vertex the last one moves: that stabilizer
        # is over the cap, and all its maps that also fix t came before the last.
        t = next(v for v in range(n) if maps[-1][v] != v)
        maps = [s for s in maps if s[t] == t]
    pairs = sorted(host.edge_color)
    position = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        position[u][v] = position[v][u] = i
    # distinct maps give distinct permutations; the identity sorts first
    return sorted(tuple(position[s[u]][s[v]] for u, v in pairs) for s in maps)[1:]


def _extend(v: int, used: int, adj, degree, lower: int, img: list[int], found: list) -> bool:
    """One node of the backtracking over vertices in order that lists the
    vertex automorphisms fixing every isolated vertex, in lexicographic order
    of (img[0], img[1], ...): maps v and the vertices after it, given the
    images `used` so far, and appends each complete map to `found`; False
    once it holds more than _AUTOMORPHISM_CAP. A module-level function, so
    that the recursion leaves no reference cycle behind."""
    n = len(adj)
    if v == n:
        found.append(tuple(img))
        return len(found) <= _AUTOMORPHISM_CAP
    if not adj[v]:
        img[v] = v
        return _extend(v + 1, used | 1 << v, adj, degree, lower, img, found)
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
            if not _extend(v + 1, used | 1 << w, adj, degree, lower, img, found):
                return False
    return True


def _trie(perms, lo: int, hi: int, depth: int) -> tuple:
    """The sorted perms[lo:hi], which share their first `depth` positions,
    as a prefix tree: one node per value at position `depth`, each a tuple
    (p, b, kids, size). Its `size` elements share p[:b] and its `kids`, the
    nodes of the same shape at depth b, part there; a single element keeps
    the rest of its positions (b = m, no kids). A module-level recursion, so
    that it leaves no reference cycle behind."""
    nodes = []
    while lo < hi:
        p, z = perms[lo], lo + 1
        while z < hi and perms[z][depth] == p[depth]:
            z += 1
        q = perms[z - 1]
        b = next((i for i in range(depth, len(p)) if p[i] != q[i]), len(p))
        nodes.append((p, b, _trie(perms, lo, z, b) if z - lo > 1 else (), z - lo))
        lo = z
    return tuple(nodes)


def _least_strings(first: list[int], end: list[int] | None, trie: tuple, r: int, limit):
    """Yield (s, w) for each canonical string s with first <= s < end (to the
    last string when end is None) that is the least of its orbit under the
    group whose non-identity elements `trie` holds (`_trie` of the sorted
    edge permutations, () for no group) and color relabeling, in order; w
    counts the orbit strings below `limit` (all when None). Each orbit
    string is the image of as many group elements as fix s, so w is the
    number of images below limit over that of images equal to s.

    Orderly generation, depth first over positions: a trie node at position
    i waits in bucket p[i] until s[p[i]] is set (s[i] then is too, since a
    node that has compared positions 0..L maps them onto themselves), then
    compares the label of s[p[i]], given by first occurrence along the
    image, with s[i]. Above s, it is dropped with its subtree; below, the
    prefix is pruned, since no string extending it is least; equal, it goes
    on to i + 1 or its kids. Backtracking undoes pushes in LIFO order. An
    image above s counts towards w if it parts after s parts from limit
    (`split`); parting at split, it is compared with limit from there. With
    no limit, split is -1: every image above s counts."""
    m = len(first)
    s = [0] * m
    top = [0] * (m + 1)  # top[i]: colors in s[:i], the label of a new digit at i
    ltop = None if limit is None else [0, *itertools.accumulate((d + 1 for d in limit), max)]
    tight = [end is not None] * (m + 1)  # s[:i] == end[:i]
    sp = [-1 if limit is None else m] * (m + 1)  # where s[:i] first parts from limit, m if nowhere
    cnt = [0] * (m + 1)  # images below limit found through each level
    mark = [0] * m
    bucket = [[] for _ in range(m)]
    log = []  # the bucket of each push, in order
    for node in trie:
        bucket[0].append((node, 0, (-1,) * r, s, top))
    L = v = stab = 0
    while True:
        if L == m or v == r or v > (end[L] if tight[L] else top[L]):
            if L == m:
                if tight[m]:
                    return
                yield tuple(s), (1 + stab + cnt[m]) // (1 + stab)
            L -= 1
            if L < 0:
                return
            while len(log) > mark[L]:
                bucket[log.pop()].pop()
            v, first = s[L] + 1, None
            continue
        s[L] = v
        top[L + 1] = top[L] if v < top[L] else v + 1
        tight[L + 1] = tight[L] and v == end[L]
        sp[L + 1] = L if sp[L] == m and v != limit[L] else sp[L]
        split, mark[L], below, stab, pruned = sp[L + 1], len(log), cnt[L], 0, False
        todo = bucket[L][:]
        while todo and not pruned:
            node, i, rel, t, tt = todo.pop()
            p, b, kids, size = node
            while True:  # along the node's positions while both digits are set
                w = p[i]
                if w > L:
                    bucket[w].append((node, i, rel, t, tt))
                    log.append(w)
                    break
                d = s[w]
                c = rel[d]
                if c < 0:
                    c = tt[i]
                    rel = rel[:d] + (c,) + rel[d + 1 :]
                if c != t[i]:
                    if c > t[i]:
                        if t is s and i > split:
                            below += size
                        elif t is s and i == split:
                            todo.append((node, i, rel, limit, ltop))
                    elif t is s:
                        pruned = True
                    else:
                        below += size
                    break
                i += 1
                if i == b:  # go on with the first kid, the others after
                    if not kids:
                        stab += t is s
                        break
                    for nd in kids[1:]:
                        todo.append((nd, i, rel, t, tt))
                    node = kids[0]
                    p, b, kids, size = node
        if not pruned:
            cnt[L + 1] = below
            L += 1
            v = first[L] if first is not None and L < m else 0
            continue
        while len(log) > mark[L]:
            bucket[log.pop()].pop()
        v, first = v + 1, None


# -- predicates ---------------------------------------------------------------


def _require_nonnegative(op: str, **values: int) -> None:
    """Refuses a negative argument, naming the operation and the argument."""
    for name, value in values.items():
        if value < 0:
            raise ValueError(f"{op}: {name} must be >= 0, got {value}")


def _min_cover_size(G: ColoredGraph, d: int) -> int:
    """The exact minimum number of diameter-<=d components covering V, read
    off `two_piece_cover(G, (d, d))` when it finds a cover. That is exact:
    one piece means a color spans V within d, so the minimum is 1; two
    pieces come only after no color spanned V within d, so the minimum is at
    least 2. Otherwise the exact oracle decides."""
    pieces = two_piece_cover(G, (d, d))
    return len(pieces) if pieces is not None else min_cover_exact(G, d)[0]


@dataclass(frozen=True)
class HasBoundsCover:
    """Passes iff a cover with the given per-component diameter bounds
    exists; badness 1 on failure. A two-piece certificate settles it before
    the exact oracle runs."""

    bounds: tuple[int, ...]
    invariant = True  # not a field: see the module docstring

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(self.bounds))
        _require_nonnegative("has-bounds-cover", bound=min(self.bounds, default=0))

    @property
    def name(self) -> str:
        return f"has-bounds-cover({','.join(map(str, self.bounds))})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        ok = two_piece_cover(G, self.bounds) is not None or exists_bounds_cover(G, self.bounds) is not None
        return ok, 0 if ok else 1


@dataclass(frozen=True)
class MinCoverAtMost:
    """Passes iff the exact minimum diameter-<=d cover has at most k
    components; badness is the minimum itself."""

    d: int
    k: int
    invariant = True

    def __post_init__(self):
        _require_nonnegative("min-cover-atmost", d=self.d, k=self.k)

    @property
    def name(self) -> str:
        return f"min-cover-atmost(d={self.d},k={self.k})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        kmin = _min_cover_size(G, self.d)
        return kmin <= self.k, kmin


@dataclass(frozen=True)
class ConstructiveMatchesOracle:
    """Passes iff the constructive general cover uses exactly the oracle
    minimum number of components at bound d; badness is the gap. Not
    invariant: cover_general's component count can depend on vertex labels."""

    d: int = 4

    def __post_init__(self):
        _require_nonnegative("constructive-matches-oracle", d=self.d)

    @property
    def name(self) -> str:
        return f"constructive-matches-oracle(d={self.d})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        kmin = _min_cover_size(G, self.d)
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

    def __post_init__(self):
        _require_nonnegative("min-cover-distribution", d=self.d)

    @property
    def name(self) -> str:
        return f"min-cover-distribution(d={self.d})"

    def evaluate(self, G: ColoredGraph) -> tuple[bool, int]:
        return True, _min_cover_size(G, self.d)


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

def _eval_chunk(span: tuple[int, int], *, n, r, pairs, predicate, mode, collect, sample_seed, ways, trie, limit):
    """Decide the coloring ordinals lo..hi-1 of a search whose state
    enumerate_colorings builds and passes, bound once, to pool workers.
    Exhaustive mode evaluates the strings `_least_strings` yields from the
    path of ordinal lo up to that of hi, each weighted by its orbit members
    below `limit` (every string, weight 1, with no group); a string is
    ranked only to name it. A predicate fault other than LimitExceeded comes
    back as a RuntimeError that names the coloring (message only, so it
    pickles from a worker)."""
    lo, hi = span
    exhaustive = mode == "exhaustive"
    m = len(pairs)
    ok = fail = calls = 0
    hist: Counter = Counter()
    best = None  # (badness, ordinal, colors)
    if exhaustive:
        end = _rgs_unrank(hi, m, r, ways) if hi < count_canonical(m, r) else None
        strings = _least_strings(_rgs_unrank(lo, m, r, ways), end, trie, r, limit)
    else:
        rngs = (random.Random(sample_seed * (1 << 32) + ordinal) for ordinal in range(lo, hi))
        strings = ((_canonicalize([rng.randrange(r) for _ in range(m)]), 1) for rng in rngs)
    for ordinal, (digits, weight) in enumerate(strings, lo):  # ordinal: sample mode's index
        calls += 1
        colors = tuple(d + 1 for d in digits)
        G = ColoredGraph(n, r, dict(zip(pairs, colors)))
        try:
            passed, badness = predicate.evaluate(G)
        except LimitExceeded:
            raise
        except Exception as exc:
            where = _rgs_rank(digits, ways) if exhaustive else ordinal
            shown = ",".join(map(str, colors))
            raise RuntimeError(f"coloring ordinal {where}, colors {shown}: {type(exc).__name__}: {exc}") from exc
        if passed:
            ok += weight
        else:
            fail += weight
        if collect:
            hist[badness] += weight
        if best is None or badness > best[0]:
            best = (badness, _rgs_rank(digits, ways) if exhaustive else ordinal, colors)
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
    perms = _edge_automorphisms(host) if reduce else []
    job = dict(
        n=host.n,
        r=r,
        pairs=tuple(sorted(host.edge_color)),
        predicate=predicate,
        mode=mode,
        collect=collect,
        sample_seed=seed,
        ways=ways,
        trie=_trie(perms, 0, len(perms), 0),
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
        with get_context("fork").Pool(min(jobs, len(spans))) as pool:
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
        group_order=len(perms) + 1,
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
