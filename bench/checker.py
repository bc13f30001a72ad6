"""Independent checker for the benchmark's outputs.

Nothing here imports monocover. Graphs are read from the text format the
benchmark feeds the program ("n r" header, then "u v c" lines), and the
program's results are inspected only as data: certificate components are
read through their ``color``, ``vertices`` and ``bound`` attributes.

The algorithms are written apart from the package's: a layered BFS for
diameters, a subset table for the independence number up to 17 vertices, a
memoized branching search with component splitting above that, and a
brute-force two-component cover test over all vertex subsets.

Run ``python3 bench/checker.py`` to recompute the constants the benchmark
relies on (the 7-antihole and K6 counts) and to cross-check the two exact
independence-number methods against each other.
"""

from __future__ import annotations

import random
import sys
import time


class Graph:
    """n vertices, r colors, ``edges`` maps (u, v) with u < v to a color."""

    __slots__ = ("n", "r", "edges", "adj", "color_adj")

    def __init__(self, n: int, r: int, edges: dict):
        self.n, self.r, self.edges = n, r, edges
        self.adj = [0] * n
        self.color_adj = [[0] * n for _ in range(r + 1)]
        for (u, v), c in edges.items():
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
            self.color_adj[c][u] |= 1 << v
            self.color_adj[c][v] |= 1 << u


def read_graph(text: str) -> Graph:
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].split()
        if line:
            rows.append([int(t) for t in line])
    (n, r), body = rows[0], rows[1:]
    edges = {}
    for u, v, c in body:
        edges[(min(u, v), max(u, v))] = c
    return Graph(n, r, edges)


def edge_digest(edges: dict) -> int:
    """Order-free fingerprint of an edge-color map (same in both parsers)."""
    return hash(frozenset(edges.items()))


# -- diameters --------------------------------------------------------------


def diameter(rows: list[int], vertices) -> int | None:
    """Diameter of the subgraph induced on ``vertices`` by the adjacency
    rows; None when it is disconnected."""
    members = list(vertices)
    inside = 0
    for v in members:
        inside |= 1 << v
    worst = 0
    for s in members:
        level = 0
        seen = 1 << s
        layer = [s]
        while layer:
            nxt = []
            for u in layer:
                new = rows[u] & inside & ~seen
                seen |= new
                while new:
                    low = new & -new
                    nxt.append(low.bit_length() - 1)
                    new ^= low
            if nxt:
                level += 1
            layer = nxt
        if seen != inside:
            return None
        worst = max(worst, level)
    return worst


def check_cover(g: Graph, components, max_bound: int, max_count: int) -> str | None:
    """None if the components cover V, each within its claimed bound and
    within ``max_bound``, and there are at most ``max_count``; else a reason."""
    comps = list(components)
    if len(comps) > max_count:
        return f"{len(comps)} components, allowed {max_count}"
    covered = set()
    for i, comp in enumerate(comps):
        verts = set(comp.vertices)
        if not verts or not 1 <= comp.color <= g.r or max(verts) >= g.n or min(verts) < 0:
            return f"component {i} is malformed"
        if comp.bound > max_bound:
            return f"component {i} claims bound {comp.bound} > {max_bound}"
        d = diameter(g.color_adj[comp.color], verts)
        if d is None or d > comp.bound:
            return f"component {i} (color {comp.color}) has diameter {d}, claims {comp.bound}"
        covered |= verts
    if covered != set(range(g.n)):
        return f"uncovered vertices {sorted(set(range(g.n)) - covered)}"
    return None


# -- independence number -------------------------------------------------------


def alpha_table(g: Graph) -> int:
    """Independence number by a table over all vertex subsets (n <= 17)."""
    n = g.n
    if n > 17:
        raise ValueError("subset table limited to 17 vertices")
    indep = bytearray(1 << n)
    indep[0] = 1
    best = 0
    for m in range(1, 1 << n):
        low = m & -m
        v = low.bit_length() - 1
        rest = m ^ low
        if indep[rest] and not g.adj[v] & rest:
            indep[m] = 1
            best = max(best, m.bit_count())
    return best


def alpha_search(g: Graph) -> int:
    """Independence number by memoized branching: split into connected
    components, take vertices of degree <= 1, else branch on a vertex of
    maximum degree (leave it out, or take it and drop its neighbours)."""
    adj = g.adj
    memo: dict[int, int] = {}

    def solve(rem: int) -> int:
        if not rem:
            return 0
        if rem in memo:
            return memo[rem]
        start = rem & -rem
        comp = frontier = start
        while frontier:
            grown = 0
            for v in _members(frontier):
                grown |= adj[v]
            frontier = grown & rem & ~comp
            comp |= frontier
        if comp != rem:
            res = solve(comp) + solve(rem & ~comp)
        else:
            pick, pick_deg = -1, -1
            for v in _members(rem):
                deg = (adj[v] & rem).bit_count()
                if deg <= 1:
                    pick, pick_deg = v, deg
                    break
                if deg > pick_deg:
                    pick, pick_deg = v, deg
            take = 1 + solve(rem & ~adj[pick] & ~(1 << pick))
            res = take if pick_deg <= 1 else max(take, solve(rem & ~(1 << pick)))
        memo[rem] = res
        return res

    return solve((1 << g.n) - 1)


def alpha(g: Graph) -> int:
    return alpha_table(g) if g.n <= 17 else alpha_search(g)


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- colorings of small hosts --------------------------------------------------


def host_colorings(host: Graph):
    """Every 2-coloring of the host's edges with the first edge (in sorted
    order) in color 1: one per pair of colorings that differ by a swap."""
    pairs = sorted(host.edges)
    for code in range(1 << (len(pairs) - 1)):
        edges = {p: 1 + ((code << 1) >> i & 1) for i, p in enumerate(pairs)}
        yield Graph(host.n, 2, edges)


def _diam_at_most(rows: list[int], subset: int, d: int) -> bool:
    """Every vertex of ``subset`` reaches all of it within d steps inside it."""
    for s in _members(subset):
        seen = 1 << s
        for _ in range(d):
            grown = seen
            for u in _members(seen):
                grown |= rows[u]
            seen = grown & subset
        if seen != subset:
            return False
    return True


def has_two_cover(g: Graph, d: int) -> bool:
    """True iff two monochromatic vertex sets of diameter <= d cover V.
    Brute force over all vertex subsets; intended for n <= 8."""
    full = (1 << g.n) - 1
    ok = bytearray(full + 1)
    for subset in range(1, full + 1):
        if any(_diam_at_most(g.color_adj[c], subset, d) for c in (1, 2)):
            ok[subset] = 1
    has_superset = bytearray(ok)
    for v in range(g.n):
        bit = 1 << v
        for subset in range(full + 1):
            if not subset & bit and has_superset[subset | bit]:
                has_superset[subset] = 1
    return any(ok[a] and has_superset[full & ~a] for a in range(1, full + 1))


def count_without_two_cover(host: Graph, d: int) -> int:
    return sum(1 for g in host_colorings(host) if not has_two_cover(g, d))


def count_spanning(host: Graph, d: int) -> int:
    """Colorings (first edge fixed) with a color class spanning V at
    diameter <= d, i.e. coverable by a single component."""
    full = (1 << host.n) - 1
    return sum(
        1 for g in host_colorings(host) if any(_diam_at_most(g.color_adj[c], full, d) for c in (1, 2))
    )


def antihole_host(k: int) -> Graph:
    n = 2 * k + 1
    edges = {(u, v): 1 for u in range(n) for v in range(u + 1, n) if min(v - u, n - v + u) >= 2}
    return Graph(n, 1, edges)


def complete_host(n: int) -> Graph:
    return Graph(n, 1, {(u, v): 1 for u in range(n) for v in range(u + 1, n)})


def main() -> int:
    t = time.perf_counter()
    print(f"7-antihole colorings without a (2,2)-cover: {count_without_two_cover(antihole_host(3), 2)}")
    print(f"K6 colorings with a spanning diameter-2 color: {count_spanning(complete_host(6), 2)}")
    rng = random.Random(1)
    for i in range(60):
        n = 8 + i % 10
        p = 0.1 + 0.8 * rng.random()
        edges = {(u, v): 1 for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        g = Graph(n, 1, edges)
        a, b = alpha_table(g), alpha_search(g)
        if a != b:
            print(f"independence methods disagree on graph {i}: {a} != {b}")
            return 1
    print(f"independence number: table and search agree on 60 graphs, {time.perf_counter() - t:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
