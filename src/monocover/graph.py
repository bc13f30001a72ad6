"""Edge-colored simple graphs and the exact primitives built on them.

Vertices are dense integers 0..n-1; every edge carries one color from 1..r.
Adjacency lives in per-color bit-vector rows (plain ints), which keeps
induced-subgraph BFS, subset enumeration and verification cheap at the desk
scale this package targets (n up to the low twenties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator


# Distance of a disconnected pair: above every int, and no code does
# arithmetic on a diameter.
UNREACHABLE = math.inf


class LimitExceeded(RuntimeError):
    """Instance size beyond the configured bound for an exact computation."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def vertex_set(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class ColoredGraph:
    """Immutable simple graph whose edges carry one color in 1..r.

    ``edge_color`` maps normalized pairs (u, v) with u < v to a color.
    The constructor trusts its input; use :func:`build_graph` to validate.
    """

    __slots__ = ("n", "r", "edge_color", "color_rows", "adj_rows", "full_mask")

    def __init__(self, n: int, r: int, edge_color: dict[tuple[int, int], int]):
        self.n = n
        self.r = r
        self.edge_color = edge_color
        color_rows = [[0] * n for _ in range(r)]
        for (u, v), c in edge_color.items():
            rows = color_rows[c - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.color_rows = color_rows
        self.adj_rows = list(map(sum, zip(*color_rows)))  # one color per pair: the sum is the union
        self.full_mask = (1 << n) - 1

    # -- basic queries -------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> list[tuple[int, int, int]]:
        return [(u, v, c) for (u, v), c in sorted(self.edge_color.items())]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_rows[u] >> v & 1)

    def color_of(self, u: int, v: int) -> int | None:
        """Color of edge (u, v), or None if the pair is not adjacent."""
        if u > v:
            u, v = v, u
        return self.edge_color.get((u, v))

    def complement_rows(self) -> list[int]:
        """Adjacency rows of the complement of the underlying graph."""
        full = self.full_mask
        return [~self.adj_rows[v] & full & ~(1 << v) for v in self.vertices()]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredGraph):
            return NotImplemented
        return (self.n, self.r, self.edge_color) == (other.n, other.r, other.edge_color)

    def __hash__(self) -> int:
        return hash((self.n, self.r, frozenset(self.edge_color.items())))

    def __repr__(self) -> str:
        return f"ColoredGraph(n={self.n}, r={self.r}, m={len(self.edge_color)})"


# Largest (n + 1) * (r + 1) build_graph accepts: the graph holds r rows of n
# ints, so a larger header is refused before anything is allocated.
MAX_GRAPH_CELLS = 1 << 18


def build_graph(n: int, r: int, edges: Iterable[tuple[int, int, int]]) -> ColoredGraph:
    """Validating constructor: checks sizes, ranges, loops and color conflicts.

    Duplicate identical entries are idempotent; the same pair listed with two
    different colors is an error.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if r < 1:
        raise ValueError(f"color count must be at least 1, got {r}")
    if (n + 1) * (r + 1) > MAX_GRAPH_CELLS:
        raise ValueError(f"n={n}, r={r} exceeds the graph size limit (n+1)*(r+1) <= {MAX_GRAPH_CELLS}")
    edge_color: dict[tuple[int, int], int] = {}
    for u, v, c in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        if not (1 <= c <= r):
            raise ValueError(f"color {c} out of range 1..{r} on edge ({u},{v})")
        key = (u, v) if u < v else (v, u)
        prev = edge_color.get(key)
        if prev is None:
            edge_color[key] = c
        elif prev != c:
            raise ValueError(f"conflicting colors {prev} and {c} for edge {key}")
    return ColoredGraph(n, r, edge_color)


def _first_non_edge(G: ColoredGraph, mask: int) -> tuple[int, int] | None:
    """The first pair (v, u) of the vertex mask that is not an edge, v lowest
    and then u, or None when the mask induces a complete graph."""
    for v in bits(mask):
        missing = mask & ~G.adj_rows[v] & ~(1 << v)
        if missing:
            return v, (missing & -missing).bit_length() - 1
    return None


# -- per-color metric ----------------------------------------------------


def _ball(rows: list[int], mask: int, start: int, radius: int) -> tuple[int, int]:
    """Vertices of `mask` within distance `radius` of the vertex mask `start`
    in the subgraph induced on `mask`, and the depth at which the search
    stopped: the largest distance from `start` to a returned vertex.

    A bit-parallel BFS, one frontier mask per level; it stops at `radius`,
    when it has reached all of `mask`, or when no new vertex is reachable.
    """
    seen = frontier = start
    depth = 0
    while depth < radius and seen != mask:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= rows[b.bit_length() - 1]
        frontier = nxt & mask & ~seen
        if not frontier:
            break
        seen |= frontier
        depth += 1
    return seen, depth


def _mask_diameter(rows: list[int], mask: int):
    """Diameter of the color subgraph induced on the vertex mask."""
    worst = 0
    radius = mask.bit_count()
    rem = mask
    while rem:
        bit = rem & -rem
        rem ^= bit
        seen, ecc = _ball(rows, mask, bit, radius)
        if seen != mask:
            return UNREACHABLE
        if ecc > worst:
            worst = ecc
    return worst


def _mask_diam_le(rows: list[int], mask: int, d: int) -> bool:
    """True iff the induced color subgraph on `mask` has diameter <= d."""
    rem = mask
    while rem:
        bit = rem & -rem
        rem ^= bit
        if _ball(rows, mask, bit, d)[0] != mask:
            return False
    return True


def mono_diameter(G: ColoredGraph, color: int, vertices: Iterable[int]):
    """Exact diameter of the color-`color` subgraph induced on `vertices`.

    Returns an int, or UNREACHABLE (math.inf) when the induced subgraph is
    disconnected. A single vertex has diameter 0; the empty set is an error.
    """
    if not (1 <= color <= G.r):
        raise ValueError(f"color {color} out of range 1..{G.r}")
    vertices = frozenset(vertices)
    if not vertices:
        raise ValueError("diameter of the empty vertex set is undefined")
    if min(vertices) < 0 or max(vertices) >= G.n:
        raise ValueError("vertex out of range")
    return _mask_diameter(G.color_rows[color - 1], mask_of(vertices))


# -- independence --------------------------------------------------------


# Branch-and-bound nodes one `_max_clique` call may expand before it raises
# LimitExceeded.
MAX_CLIQUE_NODES = 200_000


def _max_clique(rows: list[int], start: int) -> tuple[int, int]:
    """Maximum clique over the adjacency rows, restricted to `start`.

    Branch and bound with a greedy-coloring upper bound; deterministic
    lowest-index-first ordering throughout. Returns (size, vertex mask).
    Raises LimitExceeded past MAX_CLIQUE_NODES nodes.
    """
    best = [0, 0, 0]  # size, vertex mask, nodes expanded
    _expand(rows, start, 0, 0, best)
    return best[0], best[1]


def _expand(rows: list[int], cand: int, cur_mask: int, cur_size: int, best: list[int]) -> None:
    """One node of `_max_clique`: extends the clique `cur_mask` by vertices of
    `cand`, recording larger cliques and the node count in `best`. A
    module-level function, so that the recursion leaves no reference cycle
    behind."""
    best[2] += 1
    if best[2] > MAX_CLIQUE_NODES:
        raise LimitExceeded(f"maximum clique search exceeds {MAX_CLIQUE_NODES} branch-and-bound nodes")
    order: list[tuple[int, int]] = []
    rest = cand
    bound = 0
    while rest:
        bound += 1
        avail = rest
        while avail:
            b = avail & -avail
            avail ^= b
            avail &= ~rows[b.bit_length() - 1]
            rest ^= b
            order.append((b, bound))
    for b, bnd in reversed(order):
        if cur_size + bnd <= best[0]:
            return
        v = b.bit_length() - 1
        ncand = cand & rows[v]
        if ncand:
            _expand(rows, ncand, cur_mask | b, cur_size + 1, best)
        elif cur_size + 1 > best[0]:
            best[0] = cur_size + 1
            best[1] = cur_mask | b
        cand ^= b


def independence_number(G: ColoredGraph) -> tuple[int, frozenset[int]]:
    """Exact independence number with a witness set.

    Computed as a maximum clique of the complement (branch and bound with a
    greedy-coloring bound). n = 0 returns (0, empty set).
    """
    size, mask = _max_clique(G.complement_rows(), G.full_mask)
    return size, vertex_set(mask)


# -- cover certificates ---------------------------------------------------


@dataclass(frozen=True)
class CoverComponent:
    """One monochromatic piece of a cover: a color, a vertex set, and the
    diameter bound claimed for the induced color subgraph."""

    color: int
    vertices: frozenset[int]
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        if not self.vertices:
            raise ValueError("cover component must be nonempty")

    def mask(self) -> int:
        return mask_of(self.vertices)


@dataclass(frozen=True)
class CoverCertificate:
    components: tuple[CoverComponent, ...]
    build_log: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "build_log", tuple(self.build_log))

    def __len__(self) -> int:
        return len(self.components)

    def bounds(self) -> tuple[int, ...]:
        return tuple(c.bound for c in self.components)


@dataclass(frozen=True)
class CoverVerdict:
    """Outcome of verify_cover; falsy on rejection, with the first offender."""

    ok: bool
    reason: str = ""
    failed_component: int | None = None
    uncovered: frozenset[int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_cover(G: ColoredGraph, cert: CoverCertificate) -> CoverVerdict:
    """Check a certificate against a graph.

    Accepts iff the component vertex sets union to V and every component's
    induced color subgraph has diameter at most its claimed bound. Components
    are checked in order; the first violation is reported. Out-of-range
    colors or vertices are contract errors, not rejections.
    """
    covered = 0
    for i, comp in enumerate(cert.components):
        if not (1 <= comp.color <= G.r):
            raise ValueError(f"component {i}: color {comp.color} out of range 1..{G.r}")
        if min(comp.vertices) < 0 or max(comp.vertices) >= G.n:
            raise ValueError(f"component {i}: vertex out of range for n={G.n}")
        m = comp.mask()
        d = _mask_diameter(G.color_rows[comp.color - 1], m)
        if d > comp.bound:
            shown = "unreachable" if d is UNREACHABLE else str(d)
            return CoverVerdict(
                False,
                reason=f"component {i} (color {comp.color}) has diameter {shown} > bound {comp.bound}",
                failed_component=i,
            )
        covered |= m
    if covered != G.full_mask:
        missing = vertex_set(G.full_mask & ~covered)
        return CoverVerdict(
            False,
            reason=f"uncovered vertices: {sorted(missing)}",
            uncovered=missing,
        )
    return CoverVerdict(True)


# -- structure of the complement ------------------------------------------


def is_complement_bipartite(G: ColoredGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-clique split of V, if one exists.

    Returns (X, Y) with G[X], G[Y] complete (a proper 2-coloring of the
    complement), or None when the complement has an odd cycle. Each
    complement component puts the side of its smallest vertex in X, so
    complete graphs yield (V, empty).
    """
    sides = _complement_sides(G, G.full_mask)
    if sides is None:
        return None
    x = y = 0
    for first, second in sides:
        x |= first
        y |= second
    return vertex_set(x), vertex_set(y)


def _complement_sides(G: ColoredGraph, rest: int) -> list[tuple[int, int]] | None:
    """Two-coloring of the complement of G[rest], one component at a time.

    For each complement component, in order of smallest vertex, the mask of
    the side holding that vertex and the mask of the other side; None when
    the complement has an odd cycle. A bit-parallel BFS: the frontier at each
    depth is one vertex mask, and a frontier with a complement neighbor on
    its own side closes an odd cycle.
    """
    comp = G.complement_rows()
    out = []
    while rest:
        root = rest & -rest
        sides = [root, 0]
        frontier = root
        parity = 0
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                nxt |= comp[b.bit_length() - 1]
            nxt &= rest
            if nxt & sides[parity]:
                return None
            parity ^= 1
            frontier = nxt & ~sides[parity]
            sides[parity] |= frontier
        out.append((sides[0], sides[1]))
        rest &= ~(sides[0] | sides[1])
    return out


def _complement_triangle(comp: list[int]) -> tuple[int, int, int] | None:
    """Lexicographically first triangle (u, v, w), u < v < w, of the graph
    with adjacency rows `comp`, or None if it is triangle-free."""
    for u, row in enumerate(comp):
        later = row >> (u + 1) << (u + 1)
        while later:
            b = later & -later
            later ^= b
            common = row & comp[b.bit_length() - 1]
            if common:
                return u, b.bit_length() - 1, (common & -common).bit_length() - 1
    return None


def find_odd_antihole(G: ColoredGraph) -> list[int] | None:
    """Shortest odd induced cycle of the complement, as a cyclic vertex list.

    Intended for graphs with independence number 2, where the complement is
    triangle-free and any shortest odd cycle of it is chordless, i.e. the
    listed vertices are pairwise adjacent in G except consecutive ones.
    Returns None when the complement is bipartite. A triangle in the
    complement (an independent triple of G) is an error naming the
    lexicographically first one, which the search below finds as its
    shortest odd walk, L = 3.

    One bit-parallel BFS over the bipartite double cover per start vertex,
    capped at the best length found so far, gives the shortest odd closed
    walk through it. The levels of the first start that attains the minimum
    L yield the cycle directly: a vertex on the walk at step k lies in
    level k and, by the parity swap of the double cover, in level L - k.
    Taking the lowest such complement neighbor at each step gives the
    lexicographically least shortest walk, listed from the start vertex and
    oriented so that its second vertex is below its last. The start is the
    cycle's lowest vertex, since every vertex on the cycle attains L.
    """
    comp = G.complement_rows()
    best: list[int] | None = None
    for s in range(G.n):
        levels = _odd_walk_levels(comp, s, None if best is None else len(best))
        if levels is not None and (best is None or len(levels) < len(best)):
            best = levels
    if best is None:
        return None
    L = len(best)
    cycle = [best[0].bit_length() - 1]
    for k in range(1, L):
        step = comp[cycle[-1]] & best[k] & best[L - k]
        cycle.append((step & -step).bit_length() - 1)
    if len(set(cycle)) != L:
        raise AssertionError("shortest odd closed walk was not simple")
    if cycle[1] > cycle[-1]:
        cycle = [cycle[0]] + cycle[:0:-1]
    if L == 3:
        u, v, w = cycle
        raise ValueError(f"complement contains triangle {{{u},{v},{w}}} (independent triple in G)")
    return cycle


def _odd_walk_levels(comp: list[int], s: int, cap: int | None) -> list[int] | None:
    """BFS levels from (s, even) in the bipartite double cover, up to the
    shortest odd closed walk through `s`: levels[k] is the vertex mask first
    reached at depth k with parity k % 2, and the walk has length
    len(levels). None when there is no odd closed walk through `s`, or when
    it is longer than `cap`.
    """
    start = 1 << s
    frontier = start
    seen = [start, 0]  # by parity of the depth
    levels = []
    while frontier:
        if cap is not None and len(levels) >= cap:
            return None
        levels.append(frontier)
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= comp[b.bit_length() - 1]
        parity = len(levels) & 1
        if parity and nxt & start:
            return levels
        frontier = nxt & ~seen[parity]
        seen[parity] |= frontier
    return None


# -- induced subgraphs -----------------------------------------------------


def induced_subgraph(G: ColoredGraph, vertices: Iterable[int]) -> tuple[ColoredGraph, list[int]]:
    """Induced subgraph on the given vertices, relabeled 0..k-1.

    Returns (subgraph, labels) where labels[i] is the original name of the
    subgraph's vertex i (sorted ascending).
    """
    labels = sorted(set(vertices))
    index = {v: i for i, v in enumerate(labels)}
    sub_edges = {(index[u], index[v]): c for (u, v), c in G.edge_color.items() if u in index and v in index}
    return ColoredGraph(len(labels), G.r, sub_edges), labels


# -- text formats ----------------------------------------------------------

COMBINED_SEPARATOR = "---"


def format_graph(G: ColoredGraph, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{G.n} {G.r}")
    lines.extend(f"{u} {v} {c}" for u, v, c in G.edges())
    return "\n".join(lines) + "\n"


def _not_integers(lineno: int, raw: str) -> ValueError:
    return ValueError(f"line {lineno}: expected integers, got {raw!r}")


def parse_graph(text: str) -> ColoredGraph:
    """Parse the graph text format: header "n r", then "u v c" lines.

    '#' starts a comment; blank lines are ignored; pair order is free.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected header 'n r', got {raw!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise _not_integers(lineno, raw) from None
            continue
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 'u v c', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise _not_integers(lineno, raw) from None
    if header is None:
        raise ValueError("empty graph document")
    pending = iter(edges)
    try:
        return build_graph(header[0], header[1], pending)
    except ValueError as exc:
        # build_graph checks the header, then reads edges in order and stops
        # at the first bad one: the data line (header first) it read last
        read = len(edges) - sum(1 for _ in pending)
        data_lines = [i for i, raw in enumerate(text.splitlines(), start=1) if raw.split("#", 1)[0].strip()]
        raise ValueError(f"line {data_lines[read]}: {exc}") from None


def format_certificate(cert: CoverCertificate) -> str:
    lines = [str(len(cert.components))]
    lines.extend(f"# log: {entry}" for entry in cert.build_log)
    for comp in cert.components:
        verts = " ".join(str(v) for v in sorted(comp.vertices))
        lines.append(f"{comp.color} {comp.bound}: {verts}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> CoverCertificate:
    """Parse the certificate format: "k", then k lines "c d: v1 ... vm"."""
    return _parse_certificate_lines(enumerate(text.splitlines(), start=1))


def _parse_certificate_lines(numbered: Iterable[tuple[int, str]]) -> CoverCertificate:
    """parse_certificate over (line number, line) pairs, so that errors name
    the line of the whole input."""
    count: int | None = None
    comps: list[CoverComponent] = []
    log: list[str] = []
    for lineno, raw in numbered:
        stripped = raw.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("log:"):
                log.append(body[4:].strip())
            continue
        if not stripped:
            continue
        if count is None:
            if len(stripped.split()) != 1:
                raise ValueError(f"line {lineno}: expected component count, got {raw!r}")
            try:
                count = int(stripped)
            except ValueError:
                raise _not_integers(lineno, raw) from None
            continue
        if ":" not in stripped:
            raise ValueError(f"line {lineno}: expected 'c d: vertices', got {raw!r}")
        head, _, tail = stripped.partition(":")
        head_parts = head.split()
        if len(head_parts) != 2:
            raise ValueError(f"line {lineno}: expected 'c d:' prefix, got {raw!r}")
        try:
            color, bound = int(head_parts[0]), int(head_parts[1])
            verts = frozenset(int(t) for t in tail.split())
        except ValueError:
            raise _not_integers(lineno, raw) from None
        if not verts:
            raise ValueError(f"line {lineno}: cover component must be nonempty, got {raw!r}")
        for what, value, low in (("color", color, 1), ("bound", bound, 0), ("vertex", min(verts), 0)):
            if value < low:
                raise ValueError(f"line {lineno}: {what} {value} below {low}, got {raw!r}")
        comps.append(CoverComponent(color, verts, bound))
    if count is None:
        raise ValueError("empty certificate document")
    if count != len(comps):
        raise ValueError(f"certificate announces {count} components, found {len(comps)}")
    return CoverCertificate(tuple(comps), tuple(log))


def format_combined(G: ColoredGraph, cert: CoverCertificate) -> str:
    return format_graph(G) + COMBINED_SEPARATOR + "\n" + format_certificate(cert)


def parse_combined(text: str) -> tuple[ColoredGraph, CoverCertificate]:
    lines = text.splitlines()
    try:
        split = lines.index(COMBINED_SEPARATOR)
    except ValueError:
        raise ValueError("no '---' separator: not a combined graph+certificate stream") from None
    G = parse_graph("\n".join(lines[:split]))
    return G, _parse_certificate_lines(enumerate(lines[split + 1 :], start=split + 2))
