"""Shared test helpers: independent reference implementations kept
deliberately naive so they cannot share bugs with the package code."""

import functools
import gc
import itertools
import random

from monocover.graph import ColoredGraph, _ball, _mask_diam_le, build_graph


def unreachable_after(call) -> int:
    """The objects only the cyclic collector frees after call(): 0 when
    reference counting frees everything the call allocated, that is, when no
    recursive closure or other cycle keeps its data alive."""
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        gc.enable()


def rand_colored(n: int, p_edge: float, seed: int, r: int = 2) -> ColoredGraph:
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, rng.randrange(1, r + 1)))
    return build_graph(n, r, edges)


def complete_colored(n: int, seed: int, r: int = 2) -> ColoredGraph:
    rng = random.Random(seed)
    edges = [(u, v, rng.randrange(1, r + 1)) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, r, edges)


def relabeled(G: ColoredGraph, seed: int) -> ColoredGraph:
    """The same colored graph with its vertices renamed by a random permutation."""
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return build_graph(G.n, G.r, [(perm[u], perm[v], c) for u, v, c in G.edges()])


def matching_union(n: int, seed: int, drop: float = 0.1) -> ColoredGraph:
    """Two random perfect matchings of 0..n-1, one per color, a pair in both
    kept in the first, each edge dropped with probability `drop`. Every
    vertex has at most one edge of each color, so no nonadjacent pair shares
    a monochromatic neighbor and cover_general takes its labels branch."""
    rng = random.Random(seed)
    edge_color: dict[tuple[int, int], int] = {}
    for color in (1, 2):
        order = list(range(n))
        rng.shuffle(order)
        for i in range(0, n - 1, 2):
            pair = (min(order[i], order[i + 1]), max(order[i], order[i + 1]))
            if pair not in edge_color and rng.random() >= drop:
                edge_color[pair] = color
    return build_graph(n, 2, [(u, v, c) for (u, v), c in edge_color.items()])


def fw_diameter(n: int, edge_pairs) -> float:
    """Floyd-Warshall diameter over the given vertex count; inf when
    disconnected, 0 for n <= 1."""
    INF = float("inf")
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edge_pairs:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return max((dist[i][j] for i in range(n) for j in range(n)), default=0)


def mono_edge_pairs(G: ColoredGraph, color: int, vertices) -> list[tuple[int, int]]:
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    return [
        (pos[u], pos[v])
        for (u, v), c in G.edge_color.items()
        if c == color and u in pos and v in pos
    ]


def spanning_color(G: ColoredGraph, mask: int) -> tuple[int, float]:
    """Reference for classify._spanning_mono_within: (color, diameter) of the
    color whose subgraph induced on the mask has the smaller Floyd-Warshall
    diameter, color 1 on ties."""
    verts = [v for v in range(G.n) if mask >> v & 1]
    d1 = fw_diameter(len(verts), mono_edge_pairs(G, 1, verts))
    d2 = fw_diameter(len(verts), mono_edge_pairs(G, 2, verts))
    return (2, d2) if d2 < d1 else (1, d1)


def brute_alpha(G: ColoredGraph) -> int:
    best = 0
    for k in range(G.n, 0, -1):
        for sub in itertools.combinations(range(G.n), k):
            if all(not (G.adj_rows[u] >> v) & 1 for u, v in itertools.combinations(sub, 2)):
                return k
    return best


def qualifying_masks(G: ColoredGraph, color: int, d: int) -> list[int]:
    """Reference family via Floyd-Warshall: every nonempty vertex set whose
    induced color subgraph has diameter <= d."""
    out = []
    for m in range(1, 1 << G.n):
        verts = [v for v in range(G.n) if (m >> v) & 1]
        if fw_diameter(len(verts), mono_edge_pairs(G, color, verts)) <= d:
            out.append(m)
    return out


def clique_dfs_candidates(G: ColoredGraph, d: int) -> list[tuple[int, int]]:
    """Reference for oracle.maximal_candidates without its subtree skip: per
    color, test every clique of the color graph's d-th power (a depth-first
    search extending a clique only by higher vertices within distance d of
    all its members), then keep the qualifying masks no other one contains.
    Returns sorted (color, mask) pairs."""
    out = []
    for color in range(1, G.r + 1):
        rows = G.color_rows[color - 1]
        near = [_ball(rows, G.full_mask, 1 << v, d)[0] for v in range(G.n)]
        stack = [(1 << v, near[v] >> (v + 1) << (v + 1)) for v in range(G.n)]
        qual = []
        while stack:
            m, ext = stack.pop()
            if _mask_diam_le(rows, m, d):
                qual.append(m)
            while ext:
                b = ext & -ext
                ext ^= b
                stack.append((m | b, ext & near[b.bit_length() - 1]))
        out.extend((color, m) for m in qual if not any(m != t and m & t == m for t in qual))
    return sorted(out)


@functools.lru_cache(maxsize=None)
def _qualifying_any_color(G: ColoredGraph, d: int) -> frozenset[int]:
    return frozenset(m for color in range(1, G.r + 1) for m in qualifying_masks(G, color, d))


def bounds_cover_reachable(G: ColoredGraph, bounds) -> bool:
    """Reference for oracle.exists_bounds_cover: whether V is covered by at
    most one qualifying set (of any color) per bound. Folds the bounds left
    to right over the covered-vertex masks reachable so far, each bound
    adding one of its qualifying sets or nothing."""
    reach = {0}
    for d in bounds:
        reach |= {cov | m for cov in reach for m in _qualifying_any_color(G, d)}
    return (1 << G.n) - 1 in reach


def dp_min_cover(G: ColoredGraph, d: int) -> int:
    """Independent reference: exact set cover over the unrestricted family of
    qualifying sets, breadth-first over covered-vertex masks."""
    full = (1 << G.n) - 1
    if full == 0:
        return 0
    by_vertex: list[list[int]] = [[] for _ in range(G.n)]
    for color in range(1, G.r + 1):
        for m in qualifying_masks(G, color, d):
            mm = m
            while mm:
                b = mm & -mm
                mm ^= b
                by_vertex[b.bit_length() - 1].append(m)
    dp = {0: 0}
    frontier = [0]
    steps = 0
    while frontier:
        steps += 1
        nxt = set()
        for cov in frontier:
            v = ((full & ~cov) & -(full & ~cov)).bit_length() - 1
            for m in by_vertex[v]:
                new = cov | m
                if new == full:
                    return steps
                if new not in dp:
                    dp[new] = steps
                    nxt.add(new)
        frontier = sorted(nxt)
    return G.n + 1


def odd_walk_length(comp: list[int], n: int, s: int, cap: int | None) -> int | None:
    """Reference for the walk length of graph._odd_walk_levels: vertex-at-a-
    time BFS over the bipartite double cover, nodes keyed by (vertex, parity)
    in a dict. Returns the shortest odd closed walk through s, or None when
    there is none or a node at depth >= cap is reached first."""
    dist = {(s, 0): 0}
    queue = [(s, 0)]
    head = 0
    while head < len(queue):
        u, par = queue[head]
        head += 1
        d = dist[(u, par)]
        if cap is not None and d >= cap:
            return None
        for w in range(n):
            if not comp[u] >> w & 1:
                continue
            key = (w, par ^ 1)
            if key not in dist:
                dist[key] = d + 1
                if key == (s, 1):
                    return d + 1
                queue.append(key)
    return None


def odd_cycle_through(comp: list[int], n: int, s: int) -> list[int] | None:
    """Reference for the cycle of graph.find_odd_antihole: dict-keyed BFS
    over the bipartite double cover from (s, even) with first-parent links,
    so each node's path is the lexicographically least shortest one. Returns
    the vertices of the shortest odd closed walk through s, starting at s,
    or None when there is none."""
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    seen = {(s, 0)}
    queue = [(s, 0)]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        u, par = node
        for w in range(n):
            key = (w, par ^ 1)
            if not comp[u] >> w & 1 or key in seen:
                continue
            seen.add(key)
            parent[key] = node
            if key == (s, 1):
                path = [key]
                while path[-1] != (s, 0):
                    path.append(parent[path[-1]])
                return [v for v, _ in reversed(path)][:-1]
            queue.append(key)
    return None


def bfs_distances(rows: list[int], mask: int, s: int) -> dict[int, int]:
    """Distances from vertex s to the vertices it reaches in the subgraph
    induced on `mask`, by a vertex-at-a-time BFS."""
    dist = {s: 0}
    queue = [s]
    for u in queue:
        for w in range(mask.bit_length()):
            if mask >> w & 1 and rows[u] >> w & 1 and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def complement_bipartite(G: ColoredGraph):
    """Reference for graph.is_complement_bipartite: vertex-at-a-time BFS
    two-coloring of the complement, roots taken in vertex order. Returns
    (side-0 vertices, side-1 vertices) or None on an odd cycle."""
    comp = G.complement_rows()
    side = [-1] * G.n
    for root in range(G.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for w in range(G.n):
                if not comp[u] >> w & 1:
                    continue
                if side[w] == -1:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    x = frozenset(v for v in range(G.n) if side[v] == 0)
    y = frozenset(v for v in range(G.n) if side[v] == 1)
    return x, y


def two_clique_split(G: ColoredGraph, v: int, a: int, b: int):
    """Reference for covers._two_clique_split: partition V - {v} into cliques
    (k1, k2) with a in k1 and b in k2, or None, by a dict-keyed BFS
    two-coloring of the complement of G - v. The components holding a and b
    orient by them; any others put the side of their smallest vertex first."""
    rest = [u for u in range(G.n) if u != v]
    side: dict[int, int] = {}
    k1: set[int] = set()
    k2: set[int] = set()
    for root in rest:
        if root in side:
            continue
        side[root] = 0
        members = {root}
        queue = [root]
        while queue:
            u = queue.pop()
            for w in rest:
                if w == u or G.has_edge(u, w):
                    continue
                if w not in side:
                    side[w] = side[u] ^ 1
                    members.add(w)
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
        zero = {u for u in members if side[u] == 0}
        one = members - zero
        if a in members and b in members:
            if side[a] == side[b]:
                return None
            first = zero if a in zero else one
        elif a in members:
            first = zero if a in zero else one
        elif b in members:
            first = one if b in zero else zero
        else:
            first = zero
        k1 |= first
        k2 |= members - first
    return k1, k2


def pair_partition_reference(G: ColoredGraph, x: int, y: int) -> dict[str, set[int]]:
    """Reference for covers.pair_partition on a nonadjacent pair (x, y): the
    eight parts and the side cliques kx and ky as vertex sets, by a color_of
    scan of each vertex into buckets keyed by its colors to x and to y.
    Raises ValueError as pair_partition does: at the first vertex adjacent to
    neither endpoint, else at the first side that is not a clique."""
    parts: dict[str, set[int]] = {k: set() for k in ("a11", "a22", "a12", "a21", "ax1", "ax2", "ay1", "ay2")}
    for v in range(G.n):
        if v in (x, y):
            continue
        cx = G.color_of(v, x)
        cy = G.color_of(v, y)
        if cx is None and cy is None:
            raise ValueError(f"vertex {v} is adjacent to neither {x} nor {y}: independent triple")
        if cx is not None and cy is not None:
            parts[f"a{cx}{cy}"].add(v)
        elif cx is not None:
            parts[f"ax{cx}"].add(v)
        else:
            parts[f"ay{cy}"].add(v)
    parts["kx"] = parts["ax1"] | parts["ax2"] | {x}
    parts["ky"] = parts["ay1"] | parts["ay2"] | {y}
    for name in ("x", "y"):
        if any(not G.has_edge(u, w) for u, w in itertools.combinations(parts["k" + name], 2)):
            raise ValueError(f"side clique around {name} is not complete: independence number exceeds 2")
    return parts


def near_split_centers(G: ColoredGraph) -> set[int]:
    """Reference for covers.detect_near_split, for n <= 7: the centers of all
    near-split structures, found by trying every center v, every ordered
    pair (v1, v2) of other vertices and every split of the rest into k1 with
    v1 and k2 with v2. A structure needs k1 and k2 complete, v adjacent to
    every other vertex but v1 and v2, and v1v2 an edge."""
    assert G.n <= 7

    def complete(vs):
        return all(G.has_edge(a, b) for a, b in itertools.combinations(vs, 2))

    centers = set()
    for v in range(G.n):
        rest = [u for u in range(G.n) if u != v]
        for v1, v2 in itertools.permutations(rest, 2):
            if not G.has_edge(v1, v2) or any(G.has_edge(v, u) == (u in (v1, v2)) for u in rest):
                continue
            others = [u for u in rest if u not in (v1, v2)]
            for sides in itertools.product((0, 1), repeat=len(others)):
                k1 = [v1] + [u for u, side in zip(others, sides) if side == 0]
                k2 = [v2] + [u for u, side in zip(others, sides) if side == 1]
                if complete(k1) and complete(k2):
                    centers.add(v)
    return centers
