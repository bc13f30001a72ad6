"""Named instances and instance families.

Everything here is deterministic given its parameters (and seed, where one
applies), so test suites and command lines can cite exact instances.
"""

from __future__ import annotations

import random

from .graph import ColoredGraph, build_graph

# the two color classes of the doubly-path-colored K4: each color forms a
# path with three edges
_P42_COLOR1 = ((0, 1), (1, 2), (3, 0))
_P42_COLOR2 = ((2, 3), (3, 1), (0, 2))


def gen_p42(copies: int) -> ColoredGraph:
    """Disjoint copies of the 2-colored K4 whose both color classes are
    3-edge paths. Independence number equals `copies`."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    edges = []
    for i in range(copies):
        base = 4 * i
        edges.extend((base + u, base + v, 1) for u, v in _P42_COLOR1)
        edges.extend((base + u, base + v, 2) for u, v in _P42_COLOR2)
    return build_graph(4 * copies, 2, edges)


def _parse_scheme(scheme: str) -> tuple[str, int | None]:
    if scheme == "distance-split":
        return "distance-split", None
    if scheme.startswith("uniform:"):
        try:
            c = int(scheme.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad uniform scheme {scheme!r}; expected uniform:COLOR") from None
        if not 1 <= c <= 2:
            raise ValueError(f"uniform color {c} out of range 1..2")
        return "uniform", c
    raise ValueError(f"unknown antihole scheme {scheme!r}; use distance-split or uniform:COLOR")


def gen_antihole(k: int, scheme: str = "distance-split") -> ColoredGraph:
    """The complement of the odd cycle on 2k+1 vertices, independence 2.

    Edges join exactly the pairs at cycle distance >= 2. Scheme
    "distance-split" colors each distance class by parity (even distance
    color 1, odd color 2); for k=3 the two classes are the red and blue
    spanning 7-cycles of the doubly-Hamiltonian coloring. Scheme
    "uniform:c" uses the single color c.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    kind, c = _parse_scheme(scheme)
    n = 2 * k + 1
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            dist = min(v - u, n - (v - u))
            if dist < 2:
                continue
            color = c if kind == "uniform" else (1 if dist % 2 == 0 else 2)
            edges.append((u, v, color))
    return build_graph(n, 2, edges)


def gen_k7_triple(copies: int) -> ColoredGraph:
    """Disjoint copies of K7 colored by circular difference: +-1, +-2, +-3
    map to colors 1, 2, 3; each class is a spanning 7-cycle."""
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    edges = []
    for i in range(copies):
        base = 7 * i
        for u in range(7):
            for v in range(u + 1, 7):
                dist = min(v - u, 7 - (v - u))
                edges.append((base + u, base + v, dist))
    return build_graph(7 * copies, 3, edges)


def gen_matching_complement(n: int) -> ColoredGraph:
    """K_n minus the perfect matching {(2i, 2i+1)}; independence number 2.

    All edges carry color 1; the instance is meant as a host whose colorings
    other tools explore.
    """
    if n < 4 or n % 2:
        raise ValueError(f"n must be even and >= 4, got {n}")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if v == u + 1 and u % 2 == 0:
                continue
            edges.append((u, v, 1))
    return build_graph(n, 2, edges)


def gen_substitution(
    base: ColoredGraph, sizes: list[int], inner: list[ColoredGraph]
) -> ColoredGraph:
    """Blow each base vertex i up into inner[i] (sizes[i] vertices, 0 deletes
    the vertex); pairs across two blocks inherit the base edge's color."""
    if len(sizes) != base.n or len(inner) != base.n:
        raise ValueError(
            f"need one size and one inner graph per base vertex ({base.n}), "
            f"got {len(sizes)} sizes and {len(inner)} graphs"
        )
    for i, (s, g) in enumerate(zip(sizes, inner)):
        if s != g.n:
            raise ValueError(f"sizes[{i}]={s} does not match inner graph order {g.n}")
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s
    edges = []
    for i, g in enumerate(inner):
        off = offsets[i]
        edges.extend((off + u, off + v, c) for u, v, c in g.edges())
    for u, v, c in base.edges():
        for a in range(sizes[u]):
            for b in range(sizes[v]):
                edges.append((offsets[u] + a, offsets[v] + b, c))
    return build_graph(total, base.r, edges)


def house_skeleton(free_color: int = 2) -> ColoredGraph:
    """The 5-vertex house-pattern complete graph (vertices x1..x5 = 0..4).

    Color 1 covers the square (0,1),(1,2),(2,3),(3,0) and the roof triangle
    (0,1),(0,4),(1,4); color 2 covers the diagonals (0,2) and (1,3). The two
    unconstrained edges (2,4) and (3,4) take `free_color`.
    """
    if not 1 <= free_color <= 2:
        raise ValueError(f"free_color {free_color} out of range 1..2")
    edges = [
        (0, 1, 1),
        (1, 2, 1),
        (2, 3, 1),
        (3, 0, 1),
        (0, 4, 1),
        (1, 4, 1),
        (0, 2, 2),
        (1, 3, 2),
        (2, 4, free_color),
        (3, 4, free_color),
    ]
    return build_graph(5, 2, edges)


def gen_random_alpha2(n: int, p: float, seed: int) -> ColoredGraph:
    """Random graph with independence number exactly 2, reproducible by seed.

    Draws a random triangle-free graph on n vertices (one uniform draw per
    vertex pair in lexicographic order; an edge is inserted when the draw is
    below p and no triangle closes), takes its complement, then colors each
    complement edge in lexicographic order (one more uniform draw each, color
    1 below one half). Passes with no triangle-free edge are rerolled on the
    same stream until one appears, which forces the independence number to 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 so the complement can miss an edge, got {n}")
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}; p=0 cannot reach independence number 2")
    rng = random.Random(seed)
    while True:
        rows = [0] * n
        any_edge = False
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p and not (rows[u] & rows[v]):
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    any_edge = True
        if any_edge:
            break
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if not (rows[u] >> v) & 1:
                edges.append((u, v, 1 if rng.random() < 0.5 else 2))
    return build_graph(n, 2, edges)

