"""Exact cover oracles at desk scale.

For each color, finds the inclusion-maximal vertex sets whose induced color
subgraph has diameter at most d. Every such set is a clique of the color
graph's d-th power (its vertices are pairwise within distance d in the whole
color graph), so only those cliques are enumerated and tested, not all 2^n
vertex sets. When a clique together with all the vertices that could extend
it already has diameter <= d, that union is recorded and the clique's
subtree skipped: every set in the subtree lies inside the union, so no
other can be maximal. One search over the resulting families answers two
exact questions: the minimum number of diameter-<=d components covering all
vertices, and whether a cover exists with at most one component per
prescribed bound. Restricting to maximal candidates is lossless because any
cover component lies inside a maximal candidate of the same color and bound.
The search visits at most MAX_SEARCH_NODES nodes per call. Candidates are
(color, vertex mask) pairs throughout; only the certificates returned hold
frozensets.

`two_piece_cover` is the cheap side door: a spanning color, or a closed
monochromatic star plus the rest, found with a few diameter tests and no
candidate families and returned as (color, vertex mask, bound) pieces.
It refuses the same inputs as the exact oracle.
"""

from __future__ import annotations

from collections import Counter

from .graph import (
    ColoredGraph,
    CoverCertificate,
    CoverComponent,
    LimitExceeded,
    _ball,
    _mask_diam_le,
    _mask_diameter,
    bits,
    vertex_set,
)

DEFAULT_MAX_N = 18

# Nodes the cover search may visit in one public call (over all of
# `min_cover_exact`'s searches) before it raises LimitExceeded.
MAX_SEARCH_NODES = 2_000_000


def _check_bounds(G: ColoredGraph, bounds, max_n: int) -> None:
    """Refuses what every oracle entry point refuses: no bounds, a negative
    bound (the least is named), a negative size limit, or a graph above it."""
    if not bounds:
        raise ValueError("bounds list must not be empty")
    if min(bounds) < 0:
        raise ValueError(f"diameter bound must be >= 0, got {min(bounds)}")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if G.n > max_n:
        raise LimitExceeded(f"n={G.n} exceeds the oracle size limit {max_n}")


def maximal_candidates(G: ColoredGraph, d: int, max_n: int = DEFAULT_MAX_N) -> list[tuple[int, int]]:
    """Exactly the maximal diameter-<=d monochromatic vertex sets per color,
    as a list of (color, vertex mask) pairs sorted by color, then mask.

    Per color, the cliques of the color graph's d-th power are enumerated by
    a depth-first search that extends a clique only by higher vertices
    within distance d of all its members (its extension). A node whose
    clique plus extension has induced diameter <= d records that union and
    skips its subtree, which lies inside the union, so no maximal set is
    lost; any other node tests its clique alone. Qualifying masks are
    scanned by decreasing size and kept unless a kept mask contains them.
    """
    _check_bounds(G, (d,), max_n)
    out: list[tuple[int, int]] = []
    for color in range(1, G.r + 1):
        rows = G.color_rows[color - 1]
        near = [_ball(rows, G.full_mask, 1 << v, d)[0] for v in range(G.n)]
        # (clique, the higher vertices near all of it); an explicit stack, so
        # that no recursive closure keeps this call's lists in a cycle
        stack = [(1 << v, near[v] >> (v + 1) << (v + 1)) for v in range(G.n)]
        qual = []
        while stack:
            m, ext = stack.pop()
            if _mask_diam_le(rows, m | ext, d):
                # the subtree's sets all lie inside m | ext: only it can be maximal
                qual.append(m | ext)
                continue
            if ext and _mask_diam_le(rows, m, d):
                qual.append(m)
            while ext:
                b = ext & -ext
                ext ^= b
                stack.append((m | b, ext & near[b.bit_length() - 1]))
        qual.sort(key=int.bit_count, reverse=True)
        kept: list[int] = []
        for m in qual:
            for k in kept:
                if m & k == m:
                    break
            else:
                kept.append(m)
        out.extend((color, m) for m in kept)
    out.sort()
    return out


def _families(G: ColoredGraph, bounds, max_n: int):
    """Per distinct bound d, the maximal candidates as (color, mask) pairs and
    the candidate indexes through each vertex; per vertex, the union of the
    largest bound's candidates through it."""
    fams: dict[int, list[tuple[int, int]]] = {}
    through: dict[int, list[list[int]]] = {}
    for d in sorted(set(bounds)):
        fams[d] = fam = maximal_candidates(G, d, max_n)
        through[d] = lists = [[] for _ in range(G.n)]
        cover_of = [0] * G.n  # kept from the last, largest bound
        for idx, (_c, m) in enumerate(fam):
            for v in bits(m):
                lists[v].append(idx)
                cover_of[v] |= m
    return fams, through, cover_of


def _search(full: int, fams, through, cover_of, slots, nodes: list[int]) -> list[tuple[int, int]] | None:
    """Picks [(bound d, index into fams[d]), ...] in search order that cover
    `full` with at most slots[d] candidates of each bound d, or None.
    nodes[0] counts the nodes visited; past MAX_SEARCH_NODES the search
    raises LimitExceeded.

    Branches on the lowest uncovered vertex v (some component of any cover
    contains it): each bound with a slot left, ascending, then its candidates
    through v. Prunes when more vertices are pairwise uncoverable than slots
    are left, read off the largest bound's family: a set of diameter <= d
    lies in a maximal set of the same color for every larger bound.
    """
    left = dict(slots)
    picks: list[tuple[int, int]] = []
    found = _dfs(full, 0, sum(left.values()), fams, through, cover_of, sorted(left), left, picks, nodes)
    return picks if found else None


def _dfs(full, cov, total, fams, through, cover_of, order, left, picks, nodes) -> bool:
    """One node of `_search`: extends `picks` (and spends `left`) until `cov`
    is `full` with at most `total` more picks. A module-level function, so
    that the recursion leaves no reference cycle behind."""
    nodes[0] += 1
    if nodes[0] > MAX_SEARCH_NODES:
        raise LimitExceeded(f"cover search exceeds {MAX_SEARCH_NODES} nodes")
    if cov == full:
        return True
    rem = full & ~cov
    v = (rem & -rem).bit_length() - 1
    k = 0
    while rem and k <= total:
        k += 1
        rem &= ~cover_of[(rem & -rem).bit_length() - 1]
    if k > total:
        return False
    for d in order:
        if left[d]:
            left[d] -= 1
            fam = fams[d]
            for idx in through[d][v]:
                picks.append((d, idx))
                if _dfs(full, cov | fam[idx][1], total - 1, fams, through, cover_of, order, left, picks, nodes):
                    return True
                picks.pop()
            left[d] += 1
    return False


def _component(G: ColoredGraph, c: int, m: int) -> CoverComponent:
    return CoverComponent(c, vertex_set(m), _mask_diameter(G.color_rows[c - 1], m))


def min_cover_exact(G: ColoredGraph, d: int, max_n: int = DEFAULT_MAX_N) -> tuple[int, CoverCertificate]:
    """The exact minimum number of monochromatic diameter-<=d components
    covering V, with a certificate attaining it.

    Starts from a greedy cover (largest gain, lowest index on ties), then asks
    the search for a cover with one component fewer until there is none.
    Component bounds record the tightest achieved diameters.
    """
    fams, through, cover_of = _families(G, [d], max_n)
    full = G.full_mask
    if full == 0:
        return 0, CoverCertificate((), (f"empty graph: zero components at diameter bound {d}",))
    cand = fams[d]
    best: list[int] = []
    covered = 0
    while covered != full:
        best.append(max(range(len(cand)), key=lambda i: (cand[i][1] & ~covered).bit_count()))
        covered |= cand[best[-1]][1]
    nodes = [0]
    while (picks := _search(full, fams, through, cover_of, {d: len(best) - 1}, nodes)) is not None:
        best = [idx for _d, idx in picks]
    comps = tuple(_component(G, *cand[idx]) for idx in best)
    log = (f"exact minimum at diameter bound {d} over {len(cand)} maximal candidates",)
    return len(best), CoverCertificate(comps, log)


def exists_bounds_cover(G: ColoredGraph, bounds: list[int], max_n: int = DEFAULT_MAX_N) -> CoverCertificate | None:
    """A cover with at most one component per entry of `bounds`, each within
    its entry's diameter bound, or None. Components are pairwise distinct and
    in the order of their entries (an unused entry gets none); their bounds
    record the achieved diameters."""
    bounds = list(bounds)
    _check_bounds(G, bounds, max_n)
    fams, through, cover_of = _families(G, bounds, max_n)
    if G.full_mask == 0:
        return CoverCertificate((), ("empty graph: nothing to cover",))
    picks = _search(G.full_mask, fams, through, cover_of, Counter(bounds), [0])
    if picks is None:
        return None
    # each pick takes the first unused entry with its bound
    free = {d: [i for i in reversed(range(len(bounds))) if bounds[i] == d] for d in fams}
    placed = sorted((free[d].pop(), fams[d][idx]) for d, idx in picks)
    comps = tuple(_component(G, c, m) for _i, (c, m) in placed)
    log = (f"cover with per-component bounds {bounds} over maximal candidates",)
    return CoverCertificate(comps, log)


def two_piece_cover(G: ColoredGraph, bounds) -> tuple[tuple[int, int, int], ...] | None:
    """A cover with at most one component per entry of `bounds` made of one
    spanning color, or of one closed monochromatic star N_c[v] plus the rest
    of V in some color, as (color, vertex mask, bound) pieces; None when
    neither exists (a cover may still). The empty graph gives no pieces.

    First each color is tested for spanning V within the largest entry.
    Failing that, with at least two entries b1 <= b2 (the two largest), each
    star in color order, then vertex order, is tried within b1 with the rest
    within b2, else within b2 with the rest within b1. A star has diameter at
    most 2 through its center, so with b1 >= 2 it fits b1 untested. A star
    that fits spans less than V, or its color would have spanned it, so the
    rest is nonempty.
    Each piece's bound is the entry it fits. Masks, not a certificate, are
    returned: the search predicates only count the pieces, and building
    frozensets for every coloring cost about 8% of a search-exhaustive
    benchmark round. Refuses the inputs that `exists_bounds_cover` refuses,
    with the same errors.
    """
    bounds = sorted(bounds)
    _check_bounds(G, bounds, DEFAULT_MAX_N)
    full = G.full_mask
    if full == 0:
        return ()
    rows_by_color = list(enumerate(G.color_rows, 1))
    for c, rows in rows_by_color:
        if _mask_diam_le(rows, full, bounds[-1]):
            return ((c, full, bounds[-1]),)
    if len(bounds) < 2:
        return None
    b1, b2 = bounds[-2:]
    for c, rows in rows_by_color:
        for v in range(G.n):
            star = rows[v] | 1 << v
            if b1 >= 2 or _mask_diam_le(rows, star, b1):
                star_bound, rest_bound = b1, b2
            elif _mask_diam_le(rows, star, b2):
                star_bound, rest_bound = b2, b1
            else:
                continue
            rest = full & ~star
            for c2, rows2 in rows_by_color:
                if _mask_diam_le(rows2, rest, rest_bound):
                    return ((c, star, star_bound), (c2, rest, rest_bound))
    return None
