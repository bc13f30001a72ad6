"""Diameter classification of 2-colored complete graphs.

Every 2-coloring of a complete graph on >= 2 vertices lands in exactly one of
four diameter patterns once colors are ordered so the first role has the
larger diameter:

  OVER_THREE  larger diameter exceeds 3; the other color then has diameter
              <= 2 and the graph decomposes as a blown-up house skeleton.
  BOTH_THREE  both diameters equal 3; each color has a spanning double star
              and any two base edges cross in a two-colored double path.
  THREE_TWO   diameters 3 and 2; the diameter-2 color has a spanning double
              star.
  BOTH_TWO    both diameters equal 2; no structural witness.

The covers use only `_bases_within` and `_spanning_mono_within`, not the
witnesses. In every pattern the color of smaller diameter (color 1 on ties)
spans with diameter at most 3, so it is picked from the diameters alone,
color 2's measured only when color 1's exceeds 2, and returned as a cover
component bounded by its diameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import (
    ColoredGraph,
    CoverComponent,
    _ball,
    _first_non_edge,
    _mask_diameter,
    bits,
    vertex_set,
)


class DiamPattern(Enum):
    OVER_THREE = "over-three"
    BOTH_THREE = "both-three"
    THREE_TWO = "three-two"
    BOTH_TWO = "both-two"


@dataclass(frozen=True)
class HouseDecomposition:
    """Blown-up house-skeleton presentation of a 2-colored complete graph.

    Parts are {x1}, {x2}, a3, a4, a5 partitioning V. With h the house color
    (color 2 when ``swapped_colors`` else color 1) and o the other color, the
    skeleton forces: (x1,x2), [x2,a3], [x1,a4], [a3,a4] and [{x1,x2},a5] all
    color h, while [x1,a3] and [x2,a4] are color o. Edges inside parts and
    between a3/a4 and a5 are free.
    """

    x1: int
    x2: int
    a3: frozenset[int]
    a4: frozenset[int]
    a5: frozenset[int]
    swapped_colors: bool

    @property
    def house_color(self) -> int:
        return 2 if self.swapped_colors else 1


@dataclass(frozen=True)
class ClassifierVerdict:
    case: DiamPattern
    role_swap: bool
    diameters: tuple[object, object]  # (diam in color 1, diam in color 2)
    house: HouseDecomposition | None = None
    bases: tuple[tuple[int, int], tuple[int, int]] | None = None
    double_star_base: tuple[int, int] | None = None
    double_star_color: int | None = None


def _require_two_colored_complete(G: ColoredGraph, op: str) -> None:
    if G.r != 2:
        raise ValueError(f"{op} requires exactly 2 colors, got r={G.r}")
    pair = _first_non_edge(G, G.full_mask)
    if pair is not None:
        raise ValueError(f"{op} requires a complete graph; ({pair[0]},{pair[1]}) is not an edge")


def _bases_within(G: ColoredGraph, color: int, mask: int) -> list[tuple[int, int]]:
    """Base edges of spanning double stars in `color`, inside the mask.

    An edge (u, v) of the color qualifies iff every other mask vertex has a
    same-colored edge to u or to v. Sorted lexicographically.
    """
    rows = G.color_rows[color - 1]
    out = []
    rem = mask
    while rem:
        bu = rem & -rem
        rem ^= bu
        u = bu.bit_length() - 1
        others = rows[u] & mask
        for v in bits(others):
            if v <= u:
                continue
            if (rows[u] | rows[v] | bu | (1 << v)) & mask == mask:
                out.append((u, v))
    return out


def double_star_bases(G: ColoredGraph, color: int) -> list[tuple[int, int]]:
    """All spanning double star base edges of the given color, sorted."""
    _require_two_colored_complete(G, "double_star_bases")
    if not (1 <= color <= 2):
        raise ValueError(f"color {color} out of range 1..2")
    return _bases_within(G, color, G.full_mask)


def _far_pair(rows: list[int], mask: int) -> tuple[int, int]:
    """Lexicographically least pair at color-distance > 3 inside the mask."""
    for u in bits(mask):
        far = mask & ~_ball(rows, mask, 1 << u, 3)[0]
        if far:
            return u, next(bits(far))
    raise AssertionError("no pair at distance > 3 despite diameter > 3")


def classify_complete(G: ColoredGraph) -> ClassifierVerdict:
    """Classify a 2-colored complete graph on >= 2 vertices by its color
    diameters, with a constructive witness for each pattern."""
    _require_two_colored_complete(G, "classify_complete")
    if G.n < 2:
        raise ValueError("classification needs at least 2 vertices")
    mask = G.full_mask
    d1 = _mask_diameter(G.color_rows[0], mask)
    d2 = _mask_diameter(G.color_rows[1], mask)
    role_swap = d2 > d1
    big, small = (2, 1) if role_swap else (1, 2)
    dbig, dsmall = (d2, d1) if role_swap else (d1, d2)

    if dbig > 3:
        x1, x2 = _far_pair(G.color_rows[big - 1], mask)
        bx1, bx2 = 1 << x1, 1 << x2
        a3 = G.color_rows[big - 1][x1] & mask
        a4 = G.color_rows[big - 1][x2] & mask
        a5 = mask & ~(a3 | a4 | bx1 | bx2)
        house = HouseDecomposition(
            x1, x2, vertex_set(a3), vertex_set(a4), vertex_set(a5), swapped_colors=(small == 2)
        )
        return ClassifierVerdict(DiamPattern.OVER_THREE, role_swap, (d1, d2), house=house)

    if dbig == 3 and dsmall == 3:
        b1 = _bases_within(G, 1, mask)
        b2 = _bases_within(G, 2, mask)
        if not b1 or not b2:
            raise AssertionError("diameter-3 color without a spanning double star")
        return ClassifierVerdict(DiamPattern.BOTH_THREE, role_swap, (d1, d2), bases=(b1[0], b2[0]))

    if dbig == 3:
        if dsmall != 2:
            raise AssertionError(f"impossible diameter pair ({dbig}, {dsmall})")
        bases = _bases_within(G, small, mask)
        if not bases:
            raise AssertionError("diameter-2 color without a spanning double star opposite diameter 3")
        return ClassifierVerdict(
            DiamPattern.THREE_TWO,
            role_swap,
            (d1, d2),
            double_star_base=bases[0],
            double_star_color=small,
        )

    if dbig != 2 or dsmall != 2:
        raise AssertionError(f"impossible diameter pair ({dbig}, {dsmall})")
    return ClassifierVerdict(DiamPattern.BOTH_TWO, role_swap, (d1, d2))


def _spanning_mono_within(G: ColoredGraph, mask: int) -> CoverComponent:
    """A spanning monochromatic subgraph of the complete graph induced on
    `mask`, as a cover component on the mask's vertices: the color of
    smaller diameter, color 1 on ties, bounded by that diameter (at most 3).
    Color 2 is measured only when color 1's diameter exceeds 2: to beat a
    color-1 diameter <= 2 it would need diameter <= 1, hence every edge.
    This is the color each classifier pattern spans with."""
    d1 = _mask_diameter(G.color_rows[0], mask)
    if d1 <= 2:
        return CoverComponent(1, vertex_set(mask), d1)
    d2 = _mask_diameter(G.color_rows[1], mask)
    color, achieved = (2, d2) if d2 < d1 else (1, d1)
    if achieved > 3:  # an unreachable diameter compares above every int
        raise AssertionError("spanning color exceeded diameter 3")
    return CoverComponent(color, vertex_set(mask), achieved)


def spanning_mono_small_diameter(G: ColoredGraph) -> CoverComponent:
    """A spanning monochromatic subgraph of diameter at most 3.

    Returns a CoverComponent whose vertex set is all of V, whose color is the
    smaller-diameter color, color 1 on ties, and whose bound is the achieved
    diameter.
    """
    _require_two_colored_complete(G, "spanning_mono_small_diameter")
    if G.n < 1:
        raise ValueError("spanning subgraph of the empty graph is undefined")
    return _spanning_mono_within(G, G.full_mask)


def check_house_membership(G: ColoredGraph, dec: HouseDecomposition) -> bool:
    """Verify a house decomposition against the graph.

    Checks that the five parts partition V and that every skeleton-forced
    bipartite block carries the forced color (see HouseDecomposition).
    Malformed partitions are errors; a wrong color is a False verdict.
    """
    _require_two_colored_complete(G, "check_house_membership")
    parts = [frozenset({dec.x1}), frozenset({dec.x2}), dec.a3, dec.a4, dec.a5]
    union: set[int] = set()
    total = 0
    for p in parts:
        union |= p
        total += len(p)
    if total != G.n or union != set(G.vertices()):
        raise ValueError("decomposition parts do not partition the vertex set")

    h = dec.house_color
    o = 3 - h

    def block(avs, bvs, want) -> bool:
        return all(G.color_of(a, b) == want for a in avs for b in bvs)

    x1s, x2s = (dec.x1,), (dec.x2,)
    return (
        G.color_of(dec.x1, dec.x2) == h
        and block(x2s, dec.a3, h)
        and block(x1s, dec.a3, o)
        and block(x1s, dec.a4, h)
        and block(x2s, dec.a4, o)
        and block(dec.a3, dec.a4, h)
        and block(x1s, dec.a5, h)
        and block(x2s, dec.a5, h)
    )
