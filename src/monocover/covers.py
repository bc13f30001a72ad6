"""Constructive covers of 2-colored graphs by monochromatic components of
bounded diameter.

Every cover operation returns a CoverCertificate built by _certificate, the
single check: each fixed-color piece is measured there and its diameter
becomes its bound, while every spanning clique is the component measured
once, where _spanning_mono_within picked its color; one over its limit or an
uncovered vertex raises ProofAssertionError naming the branch: a bug here.
The build log records which branch fired and which color/role swaps were
applied; the case analyses check the other proof properties the same way.

Counts are certified by what the construction exhibits, not by a second
exact computation: cover_general checks its floor(3*alpha/2) count against
an independent set built alongside the cover, so the exact independence
number (an exponential branch and bound) runs only where a construction
needs a maximum independent set itself, in cover_general's labels branch
and in cover_stars (cover_alpha2 computes it only to report bad input).

Vertex sets pass between the stages here as bit masks (bit v set for vertex
v): the parts of a PairPartition, the cliques of a NearSplitStructure and
every (color, mask, limit) piece handed to _certificate. Only cover
components hold frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import _bases_within, _spanning_mono_within
from .graph import (
    ColoredGraph,
    CoverCertificate,
    CoverComponent,
    LimitExceeded,
    _complement_sides,
    _complement_triangle,
    _first_non_edge,
    _mask_diameter,
    _max_clique,
    bits,
    independence_number,
    induced_subgraph,
    is_complement_bipartite,
    find_odd_antihole,
    mask_of,
    vertex_set,
)

CLIQUES_MAX_N = 24

# Nodes one `_exact_clique_partition` search may visit before it raises
# LimitExceeded.
MAX_PARTITION_NODES = 2_000_000


class ProofAssertionError(RuntimeError):
    """A property guaranteed by the underlying proof failed at runtime.

    Signals an implementation bug, not bad input; carries the branch name.
    """

    def __init__(self, branch: str, detail: str):
        super().__init__(f"[{branch}] {detail}")
        self.branch = branch


def _require_r2(G: ColoredGraph, op: str) -> None:
    if G.r != 2:
        raise ValueError(f"{op} requires r=2, got {G.r}")


def _certificate(G, pieces, log, branch) -> CoverCertificate:
    """The certificate of the pieces, in their order. A (color, vertex mask,
    proof limit) triple is measured here once and its diameter becomes its
    bound; empty triples are dropped. A CoverComponent was measured where it
    was built, so it is taken as it is.

    Raises ProofAssertionError naming the branch if a triple is disconnected
    or over its limit, or if the pieces leave a vertex of G uncovered.
    """
    comps = []
    covered = 0
    for piece in pieces:
        if isinstance(piece, CoverComponent):
            m = piece.mask()
        else:
            color, m, limit = piece
            if not m:
                continue
            d = _mask_diameter(G.color_rows[color - 1], m)
            if d > limit:
                raise ProofAssertionError(
                    branch,
                    f"color-{color} component {sorted(vertex_set(m))} has diameter {d}, limit {limit}",
                )
            piece = CoverComponent(color, vertex_set(m), d)
        comps.append(piece)
        covered |= m
    if covered != G.full_mask:
        missing = sorted(vertex_set(G.full_mask & ~covered))
        raise ProofAssertionError(branch, f"pieces miss vertices {missing}")
    return CoverCertificate(comps, tuple(log))


# -- pair partition --------------------------------------------------------


@dataclass(frozen=True)
class PairPartition:
    """The eight-way split of V - {x, y} around a nonadjacent pair, as
    vertex masks.

    a11/a22: adjacent to both x and y in color 1 / color 2 (homogeneous);
    a12: color 1 to x and color 2 to y; a21 the mirror image;
    ax1/ax2: adjacent only to x, in color 1 / 2; ay1/ay2: only to y.
    """

    x: int
    y: int
    a11: int
    a22: int
    a12: int
    a21: int
    ax1: int
    ax2: int
    ay1: int
    ay2: int

    @property
    def kx(self) -> int:
        return self.ax1 | self.ax2 | 1 << self.x

    @property
    def ky(self) -> int:
        return self.ay1 | self.ay2 | 1 << self.y

    def swap_colors(self) -> PairPartition:
        """The same split with colors 1 and 2 renamed into each other."""
        return PairPartition(
            self.x, self.y, self.a22, self.a11, self.a21, self.a12, self.ax2, self.ax1, self.ay2, self.ay1
        )

    def swap_roles(self) -> PairPartition:
        """The same split seen from (y, x): x and y trade places."""
        return PairPartition(
            self.y, self.x, self.a11, self.a22, self.a21, self.a12, self.ay1, self.ay2, self.ax1, self.ax2
        )


def pair_partition(G: ColoredGraph, x: int, y: int) -> PairPartition:
    """Split all other vertices by their adjacency pattern to the nonadjacent
    pair (x, y), each part an intersection of the two endpoints' color rows.
    Valid when the independence number is 2; a vertex adjacent to neither
    endpoint (the lowest one is named), or a non-complete side clique,
    witnesses alpha > 2 and is an error."""
    _require_r2(G, "pair_partition")
    if x == y or not (0 <= x < G.n and 0 <= y < G.n):
        raise ValueError(f"invalid pair ({x},{y})")
    if G.has_edge(x, y):
        raise ValueError(f"pair ({x},{y}) is adjacent; need a nonadjacent pair")
    adj = G.adj_rows
    lone = G.full_mask & ~(adj[x] | adj[y] | 1 << x | 1 << y)
    if lone:
        raise ValueError(f"vertex {next(bits(lone))} is adjacent to neither {x} nor {y}: independent triple")
    r1, r2 = G.color_rows
    part = PairPartition(
        x,
        y,
        a11=r1[x] & r1[y],
        a22=r2[x] & r2[y],
        a12=r1[x] & r2[y],
        a21=r2[x] & r1[y],
        ax1=r1[x] & ~adj[y],
        ax2=r2[x] & ~adj[y],
        ay1=r1[y] & ~adj[x],
        ay2=r2[y] & ~adj[x],
    )
    for side_name, side in (("x", part.kx), ("y", part.ky)):
        if _first_non_edge(G, side) is not None:
            raise ValueError(f"side clique around {side_name} is not complete: independence number exceeds 2")
    return part


# -- the two-component cover for independence number 2 ---------------------


def cover_alpha2(G: ColoredGraph) -> CoverCertificate:
    """Cover a 2-colored graph of independence number exactly 2 by at most
    two monochromatic components of diameter at most 4 each.

    Dispatch: a bipartite complement yields two spanning cliques; otherwise a
    shortest odd antihole supplies a nonadjacent pair with a homogeneous
    witness, and the pair-partition case analysis takes over.

    The precondition is checked without computing alpha: G has a non-edge
    (alpha >= 2) and its complement has no triangle (alpha <= 2).
    """
    _require_r2(G, "cover_alpha2")
    comp = G.complement_rows()
    if not any(comp) or _complement_triangle(comp) is not None:
        alpha, _ = independence_number(G)
        raise ValueError(f"cover_alpha2 requires independence number exactly 2, got {alpha}")
    log: list[str] = []

    split = is_complement_bipartite(G)
    if split is not None:
        log.append("complement is bipartite: two spanning cliques, one small-diameter color each")
        return _two_clique_certificate(G, split, log)

    hole = find_odd_antihole(G)
    L = len(hole)
    k = L // 2
    diag = [hole[i * k % L] for i in range(L)]  # from the hole's lowest vertex, hole[0]
    x = y = via = hom_color = None
    for j in range(L):
        p, q, s = diag[j], diag[(j + 1) % L], diag[(j + 2) % L]
        if G.color_of(p, q) == G.color_of(q, s):
            x, via, y, hom_color = p, q, s, G.color_of(p, q)
            break
    if x is None:
        raise ProofAssertionError("antihole-scan", "no two consecutive long diagonals share a color")
    log.append(
        f"odd antihole {hole}: consecutive same-colored long diagonals at {via} "
        f"give nonadjacent pair ({x},{y}) with color-{hom_color} homogeneous witness"
    )

    part = pair_partition(G, x, y)
    pair = 1 << x | 1 << y

    if part.a11 and part.a22:
        m1 = pair | part.ax1 | part.ay1 | part.a11 | part.a12 | part.a21
        m2 = pair | part.ax2 | part.ay2 | part.a22
        log.append("both homogeneous parts nonempty: one double-star component per color")
        return _certificate(G, [(1, m1, 4), (2, m2, 4)], log, "both-homogeneous")

    # From here on `part` is relabeled so that its color 1 is the original
    # color `red` and, after a role swap, its x is the original y.
    red, blue = 1, 2
    if not part.a11:
        part = part.swap_colors()
        red, blue = 2, 1
        log.append("homogeneous part sits in color 2: colors swapped for the analysis")
    if not part.a11 or part.a22:
        raise ProofAssertionError("homogeneous", "expected exactly one nonempty homogeneous part")

    red_rows = G.color_rows[red - 1]
    blue_rows = G.color_rows[blue - 1]

    d_red_kx = _mask_diameter(red_rows, part.kx)
    d_red_ky = _mask_diameter(red_rows, part.ky)

    if d_red_kx <= 3 and d_red_ky <= 3:
        m1 = part.kx | part.a11 | part.a12
        m2 = part.ky | part.a21
        log.append(f"both side cliques have color-{red} diameter <= 3: two color-{red} components")
        return _certificate(G, [(red, m1, 4), (red, m2, 4)], log, "two-red-sides")

    if d_red_ky <= 3:
        part = part.swap_roles()
        d_red_kx, d_red_ky = d_red_ky, d_red_kx
        log.append("large homogeneous-color diameter sits at the x side: x/y roles swapped")
    kx, ky = part.kx, part.ky

    if _mask_diameter(blue_rows, ky) > 2:
        raise ProofAssertionError("side-clique", f"y-side clique should have color-{blue} diameter <= 2")

    d_blue_kx = _mask_diameter(blue_rows, kx)
    if d_blue_kx <= 3:
        # x-side clique is usable in the second color
        bad, a11x = _split_across(blue_rows, part.a11, part.ax2, ky)
        if bad is None:
            m1 = kx | a11x | part.a21
            m2 = ky | (part.a11 & ~a11x) | part.a12
            log.append(
                f"every homogeneous vertex sends a color-{blue} edge across: two color-{blue} components"
            )
            return _certificate(G, [(blue, m1, 4), (blue, m2, 4)], log, "blue-split")
        pieces = _non_neighbor_clique(G, bad, part.ax2 | ky, "triple-star")
        triple = pair | part.ax1 | part.a11 | part.a12 | part.a21 | red_rows[bad]
        pieces.append((red, triple, 4))
        log.append(
            f"homogeneous vertex {bad} sends only color-{red} edges across: "
            f"color-{red} triple star plus spanning clique on its non-neighbors"
        )
        return _certificate(G, pieces, log, "triple-star")

    # x-side clique has large second-color diameter, hence small first-color one
    if d_red_kx > 2:
        raise ProofAssertionError("red-partition", f"x-side clique should have color-{red} diameter <= 2")
    ystar = 1 << part.y | part.ay1 | part.a11 | part.a21
    bad, sx = _split_across(red_rows, part.ay2, kx, ystar)
    if bad is None:
        m1 = kx | part.a12 | sx
        m2 = ystar | (part.ay2 & ~sx)
        log.append(f"every y-only color-{blue} vertex sends color-{red} across: two color-{red} components")
        return _certificate(G, [(red, m1, 4), (red, m2, 4)], log, "red-partition")
    pieces = _non_neighbor_clique(G, bad, kx | ystar, "blue-star-extension")
    ext = 1 << part.y | part.ay2 | part.a12 | blue_rows[bad]
    pieces.append((blue, ext, 3))
    log.append(
        f"y-only vertex {bad} sends only color-{blue} edges out: color-{blue} double-level star "
        f"plus spanning clique on its non-neighbors"
    )
    return _certificate(G, pieces, log, "blue-star-extension")


def _split_across(rows: list[int], s: int, a: int, b: int) -> tuple[int | None, int]:
    """The split-or-star lemma of cover_alpha2, for the part s against the
    disjoint parts a and b in the color whose rows are given: (None, sa) when
    every vertex of s has an edge of that color into a | b, sa being those
    with one into a (the rest have one into b), else (z, 0) for the lowest
    vertex z of s with none, whose non-neighbors in a | b form a clique."""
    bad = next((z for z in bits(s) if not rows[z] & (a | b)), None)
    if bad is not None:
        return bad, 0
    return None, mask_of(z for z in bits(s) if rows[z] & a)


def _non_neighbor_clique(G: ColoredGraph, z: int, within: int, branch: str) -> list:
    """The pieces for the non-neighbors of z in `within`: none if z has no
    non-neighbor there, else the measured spanning component of diameter at
    most 3 on them, which independence number 2 makes a clique."""
    rest = within & ~G.adj_rows[z]
    if not rest:
        return []
    if _first_non_edge(G, rest) is not None:
        raise ProofAssertionError(branch, f"non-neighbors of {z} do not form a clique")
    return [_spanning_mono_within(G, rest)]


# -- near-split structures --------------------------------------------------


@dataclass(frozen=True)
class NearSplitStructure:
    """A vertex v plus a two-clique split of the rest, given as vertex masks
    k1 and k2, with v adjacent to all but exactly one vertex per clique (v1
    in k1, v2 in k2, and v1v2 an edge so the independence number stays 2)."""

    v: int
    k1: int
    k2: int
    v1: int
    v2: int

    def validate(self, G: ColoredGraph) -> None:
        n = G.n
        if not (0 <= self.v < n):
            raise ValueError(f"center {self.v} out of range")
        if self.k1 & self.k2:
            raise ValueError("side cliques overlap")
        if self.k1 | self.k2 != G.full_mask & ~(1 << self.v):
            raise ValueError("side cliques do not partition the other vertices")
        for name, side in (("k1", self.k1), ("k2", self.k2)):
            if _first_non_edge(G, side) is not None:
                raise ValueError(f"{name} does not induce a complete graph")
        if self.v1 not in bits(self.k1) or self.v2 not in bits(self.k2):
            raise ValueError("missed vertices must lie in their cliques")
        for u in bits(self.k1 | self.k2):
            adjacent = G.has_edge(self.v, u)
            if u in (self.v1, self.v2):
                if adjacent:
                    raise ValueError(f"center is adjacent to supposedly missed vertex {u}")
            elif not adjacent:
                raise ValueError(f"center misses {u}, not only {self.v1} and {self.v2}")
        if not G.has_edge(self.v1, self.v2):
            raise ValueError(f"({self.v1},{self.v2}) must be an edge, else {{v,v1,v2}} is independent")


def detect_near_split(G: ColoredGraph) -> NearSplitStructure | None:
    """Find a near-split structure, scanning centers in ascending order, or
    None. The center must miss exactly two vertices, one per clique, and
    those two must be adjacent. The structure is valid by construction (the
    missed pair is checked here, and the cliques come from the complement's
    two-coloring), so it is returned without a validate call."""
    _require_r2(G, "detect_near_split")
    full = G.full_mask
    for v in G.vertices():
        nn = full & ~G.adj_rows[v] & ~(1 << v)
        if nn.bit_count() != 2:
            continue
        a = (nn & -nn).bit_length() - 1
        b = (nn & (nn - 1)).bit_length() - 1
        if not G.has_edge(a, b):
            continue
        split = _two_clique_split(G, v, a, b)
        if split is None:
            continue
        return NearSplitStructure(v, *split, a, b)
    return None


def _two_clique_split(G: ColoredGraph, v: int, a: int, b: int) -> tuple[int, int] | None:
    """Partition V - {v} into clique masks (k1, k2) with a in k1 and b in k2,
    or None. Two-colors the complement of G - v; the components holding a and
    b orient by them, any others put the side of their smallest vertex first."""
    sides = _complement_sides(G, G.full_mask & ~(1 << v))
    if sides is None:
        return None
    k1 = k2 = 0
    for first, second in sides:
        if first >> b & 1 or second >> a & 1:
            first, second = second, first
        if second >> a & 1 or first >> b & 1:
            return None  # a and b on one side
        k1 |= first
        k2 |= second
    return k1, k2


def cover_near_split(G: ColoredGraph, s: NearSplitStructure) -> CoverCertificate:
    """Cover a near-split graph by at most two monochromatic components of
    diameter at most 3 each. The structure `s` may come from outside
    detect_near_split, so it is validated first (ValueError if invalid).

    Each clique is spanned once, in its color of smaller diameter. One of
    diameter 3 in both colors is joined to the center through a base edge
    of a spanning double star; the other clique keeps its span."""
    _require_r2(G, "cover_near_split")
    s.validate(G)
    log: list[str] = [f"near-split center {s.v}, cliques miss {s.v1} and {s.v2}"]
    span1, span2 = _spanning_mono_within(G, s.k1), _spanning_mono_within(G, s.k2)
    if span1.bound <= 2 and span2.bound <= 2:
        return _near_split_small(G, s, span1, span2, log)

    if span1.bound > 2:
        vt, t_m, other = s.v1, s.k1, span2
    else:
        vt, t_m, other = s.v2, s.k2, span1
        log.append("double-diameter clique is the second one: roles swapped")
    bases = [_bases_within(G, c, t_m) for c in (1, 2)]
    if not all(bases):
        raise ProofAssertionError("double-star-clique", "a diameter-3 color has no spanning double star")
    b1, b2 = bases[0][0], bases[1][0]
    if vt not in b1:
        e, ce = b1, 1
    else:
        if vt in b2:
            raise ProofAssertionError("double-star-clique", "base edges of the two colors overlap")
        e, ce = b2, 2
    x1, x2 = e
    g = G.color_of(s.v, x1)
    h = G.color_of(s.v, x2)
    use = ce if (g == ce or h == ce) else 3 - ce
    if use == ce:
        log.append(f"center joins the color-{ce} double star at base ({x1},{x2})")
    else:
        log.append(
            f"center's edges to base ({x1},{x2}) avoid color {ce}: five-cycle closes the "
            f"color-{3 - ce} double star instead"
        )
    return _certificate(G, [(use, t_m | (1 << s.v), 3), other], log, "double-star-clique")


def _near_split_small(G, s, span1, span2, log):
    """Both cliques are spanned with diameter <= 2 (span1, span2). Tries the
    center's edges into each clique, then each missed vertex's edges into its
    own clique, naming the lowest vertex that fires; the other keeps its span."""
    branch = "small-diameter-cliques"

    def emit(pieces, note):
        log.append(note)
        return _certificate(G, pieces, log, branch)

    rows = G.color_rows
    vb = 1 << s.v
    missed = 1 << s.v1 | 1 << s.v2
    # each clique as (mask, missed vertex, small color, name, the other
    # clique's span), the first clique tried first
    sides = ((s.k1, s.v1, span1.color, "first", span2), (s.k2, s.v2, span2.color, "second", span1))
    # v misses v1 and v2, and no vertex neighbors itself, so these rows
    # already leave out the missed vertex of each clique
    for k, _w, c, name, other in sides:
        if hit := rows[c - 1][s.v] & k:
            note = f"center sends color {c} into the {name} clique at {next(bits(hit))}"
            return emit([(c, k | vb, 3), other], note)
    for k, w, c, _, other in sides:
        if hit := rows[2 - c][w] & k:  # row of color 3 - c
            note = f"missed vertex {w} sends color {3 - c} into its clique at {next(bits(hit))}"
            return emit([(3 - c, k | vb, 3), other], note)
    for k, w, c, _, _ in sides:
        if k & ~(1 << w) & ~rows[c - 1][w]:
            raise ProofAssertionError(branch, f"expected all ({w},*) edges in color {c}")
    cv = G.color_of(s.v1, s.v2)
    if span1.color == span2.color:
        return emit(
            [(3 - span1.color, G.full_mask & ~missed, 2), (cv, missed, 1)],
            f"one star from the center plus the ({s.v1},{s.v2}) edge",
        )
    # the small colors differ, so the missed edge has one clique's
    k, _w, c, _, _ = next(side for side in sides if side[2] == cv)
    note = f"missed edge has color {c}: two color-{c} stars"
    return emit([(c, k | missed, 2), (c, G.full_mask & ~(k | missed), 2)], note)


# -- the general cover ------------------------------------------------------


def cover_general(G: ColoredGraph) -> CoverCertificate:
    """Cover any 2-colored graph by at most floor(3*alpha/2) monochromatic
    components of diameter at most 4 each, alpha being the independence
    number.

    The construction exhibits an independent set I, and the component count
    is checked against floor(3*|I|/2) <= floor(3*alpha/2), which is the
    paper's induction: a complete graph exhibits one vertex, an alpha = 2
    graph (no complement triangle) its lowest non-edge, and each peel of a
    nonadjacent pair with a common monochromatic neighbor adds at most three
    components and adds the pair to the residual's set, which avoids both
    closed neighborhoods. The exact independence number is computed only in
    the labels branch, where no such pair is left; its maximum independent
    set is that branch's I. Each component's bound is measured by the
    branch that builds it.
    """
    _require_r2(G, "cover_general")
    cert, iset = _cover_general_inner(G)
    for v in bits(iset):
        if G.adj_rows[v] & iset:
            raise ProofAssertionError("general", f"vertex {v} has a neighbor in the exhibited independent set")
    limit = 3 * iset.bit_count() // 2
    if len(cert.components) > limit:
        raise ProofAssertionError("general", f"{len(cert.components)} components exceed limit {limit}")
    return cert


def _cover_general_inner(G: ColoredGraph) -> tuple[CoverCertificate, int]:
    """Cover of G and the vertex mask of the independent set it exhibits."""
    if G.n == 0:
        return CoverCertificate((), ("empty graph: nothing to cover",)), 0
    comp = G.complement_rows()
    if not any(comp):
        span = _spanning_mono_within(G, G.full_mask)
        log = [f"complete graph: spanning color-{span.color} subgraph"]
        return _certificate(G, [span], log, "complete"), 1
    if _complement_triangle(comp) is None:
        u = next(v for v, row in enumerate(comp) if row)
        return cover_alpha2(G), (1 << u) | (comp[u] & -comp[u])
    pair = _mono_p2_pair(G)
    if pair is not None:
        return _cover_general_peel(G, *pair)
    _alpha, iset = independence_number(G)
    return _cover_general_labels(G, iset), mask_of(iset)


def _mono_p2_pair(G: ColoredGraph):
    """Lexicographically first nonadjacent pair with a common monochromatic
    neighbor, as (x, y, color, witness), or None."""
    full = G.full_mask
    for x in G.vertices():
        non = full & ~G.adj_rows[x] & ~((1 << (x + 1)) - 1)
        for y in bits(non):
            for c in (1, 2):
                common = G.color_rows[c - 1][x] & G.color_rows[c - 1][y]
                if common:
                    return x, y, c, next(bits(common))
    return None


def _cover_general_peel(G, x, y, c, witness) -> tuple[CoverCertificate, int]:
    branch = "peel-pair"
    cbar = 3 - c
    rows_c = G.color_rows[c - 1]
    rows_b = G.color_rows[cbar - 1]
    main = (1 << x) | (1 << y) | rows_c[x] | rows_c[y]
    pieces = [(c, main, 4)]
    if rows_b[x]:
        pieces.append((cbar, (1 << x) | rows_b[x], 2))
    if rows_b[y]:
        pieces.append((cbar, (1 << y) | rows_b[y], 2))
    neighborhood = (1 << x) | (1 << y) | G.adj_rows[x] | G.adj_rows[y]
    log = [
        f"nonadjacent pair ({x},{y}) shares color-{c} neighbor {witness}: "
        f"one joint component plus opposite stars, then recurse on the rest"
    ]
    rest = G.full_mask & ~neighborhood
    iset = (1 << x) | (1 << y)
    if rest:
        sub, labels = induced_subgraph(G, vertex_set(rest))
        sub_cert, sub_iset = _cover_general_inner(sub)
        iset |= mask_of(labels[i] for i in bits(sub_iset))
        pieces.extend(
            CoverComponent(comp.color, frozenset(labels[i] for i in comp.vertices), comp.bound)
            for comp in sub_cert.components
        )
        log.extend("residual: " + entry for entry in sub_cert.build_log)
    return _certificate(G, pieces, log, branch), iset


def _cover_general_labels(G, iset) -> CoverCertificate:
    branch = "independent-labels"
    centers = sorted(iset)
    imask = mask_of(centers)
    rows1, rows2 = G.color_rows[0], G.color_rows[1]
    one_label: dict[int, int] = {u: 0 for u in centers}
    two_label: list[tuple[int, int, int]] = []  # (v, red endpoint, blue endpoint)
    for v in G.vertices():
        if imask >> v & 1:
            continue
        e1 = rows1[v] & imask
        e2 = rows2[v] & imask
        k = e1.bit_count() + e2.bit_count()
        if k == 0 or k > 2 or (k == 2 and (e1.bit_count() != 1 or e2.bit_count() != 1)):
            raise ProofAssertionError(branch, f"vertex {v} has {k} edges into the independent set")
        if k == 1:
            u = (e1 | e2).bit_length() - 1
            one_label[u] |= 1 << v
        else:
            two_label.append((v, e1.bit_length() - 1, e2.bit_length() - 1))

    comp_mask: dict[int, int] = {}
    comp_color: dict[int, int] = {}
    for u in centers:
        su = one_label[u] | (1 << u)
        if _first_non_edge(G, su) is not None:
            raise ProofAssertionError(branch, f"one-label class of {u} is not a clique")
        comp_mask[u] = su
        comp_color[u] = _spanning_mono_within(G, su).color  # su grows, so it is measured later

    red_centers = [u for u in centers if comp_color[u] == 1]
    blue_centers = [u for u in centers if comp_color[u] == 2]
    leftovers: list[tuple[int, int, int]] = []
    for v, ua, ub in two_label:
        if comp_color[ua] == 1:
            comp_mask[ua] |= 1 << v
        elif comp_color[ub] == 2:
            comp_mask[ub] |= 1 << v
        else:
            leftovers.append((v, ua, ub))

    if len(blue_centers) <= len(red_centers):
        star_centers, star_color = blue_centers, 1
    else:
        star_centers, star_color = red_centers, 2
    star_mask = {u: 0 for u in star_centers}
    for v, ua, ub in leftovers:
        u = ua if star_color == 1 else ub
        if u not in star_mask:
            raise ProofAssertionError(branch, f"leftover {v} misses the star center set")
        star_mask[u] |= 1 << v

    pieces = [(comp_color[u], comp_mask[u], 4) for u in centers]
    pieces.extend((star_color, m | (1 << u), 2) for u, m in star_mask.items() if m)
    log = [
        f"no nonadjacent pair shares a monochromatic neighbor: {len(centers)} labeled cliques "
        f"plus {sum(1 for m in star_mask.values() if m)} color-{star_color} rescue stars"
    ]
    return _certificate(G, pieces, log, branch)


# -- simple covers -----------------------------------------------------------


def cover_stars(G: ColoredGraph) -> CoverCertificate:
    """Cover by at most r*alpha monochromatic stars (diameter <= 2), one per
    independent-set vertex and used color; isolated centers stay singletons."""
    alpha, iset = independence_number(G)
    pieces = []
    for v in sorted(iset):
        emitted = False
        for c in range(1, G.r + 1):
            nb = G.color_rows[c - 1][v]
            if nb:
                pieces.append((c, nb | (1 << v), 2))
                emitted = True
        if not emitted:
            pieces.append((1, 1 << v, 0))
    return _certificate(G, pieces, [f"stars from a maximum independent set of size {alpha}"], "stars")


def two_clique_cover(G: ColoredGraph) -> CoverCertificate:
    """Cover a graph whose complement is bipartite by (at most) two spanning
    cliques, each taken in a color of diameter at most 3."""
    _require_r2(G, "two_clique_cover")
    split = is_complement_bipartite(G)
    if split is None:
        raise ValueError("complement is not bipartite: no two-clique split exists")
    return _two_clique_certificate(G, split, [])


def _two_clique_certificate(G: ColoredGraph, split, log: list[str]) -> CoverCertificate:
    """two_clique_cover from the two-clique split (X, Y) of frozensets
    already in hand, its notes appended to `log`."""
    pieces = []
    for side in split:
        if not side:
            continue
        span = _spanning_mono_within(G, mask_of(side))
        pieces.append(span)
        log.append(f"clique {sorted(side)} in color {span.color}")
    return _certificate(G, pieces, log, "two-cliques")


def cover_via_cliques(G: ColoredGraph, max_n: int = CLIQUES_MAX_N) -> CoverCertificate:
    """Exact minimum clique partition, then one small-diameter spanning color
    per clique; the component count equals the clique cover number."""
    _require_r2(G, "cover_via_cliques")
    if max_n < 0:
        raise ValueError(f"max_n must be >= 0, got {max_n}")
    if G.n > max_n:
        raise LimitExceeded(f"n={G.n} exceeds the clique-partition limit {max_n}")
    if G.n == 0:
        return CoverCertificate((), ("empty graph",))
    classes = _exact_clique_partition(G)
    pieces = [_spanning_mono_within(G, m) for m in classes]
    return _certificate(G, pieces, [f"minimum clique partition of size {len(classes)}"], "clique-partition")


def _exact_clique_partition(G: ColoredGraph) -> list[int]:
    """Minimum partition of V into cliques, as vertex masks ordered by their
    smallest member. Branch and bound on coloring the complement; raises
    LimitExceeded past MAX_PARTITION_NODES nodes."""
    n = G.n
    comp = G.complement_rows()
    greedy: list[int] = []
    for v in range(n):
        for i, cls in enumerate(greedy):
            if not (cls & comp[v]):
                greedy[i] = cls | (1 << v)
                break
        else:
            greedy.append(1 << v)
    lb, _ = _max_clique(comp, G.full_mask)
    best = [greedy, 0]  # smallest partition, nodes visited
    if len(greedy) > lb:
        _partition_dfs(0, comp, lb, [], best)
    return sorted(best[0], key=lambda m: m & -m)


def _partition_dfs(v: int, comp: list[int], lb: int, state: list[int], best: list) -> None:
    """One node of `_exact_clique_partition`: puts vertex v into each class
    of `state` it fits, then into a new class, keeping the smallest complete
    partition in best[0], the node count in best[1], and stopping at the
    lower bound lb. A module-level function, so that the recursion leaves no
    reference cycle behind."""
    best[1] += 1
    if best[1] > MAX_PARTITION_NODES:
        raise LimitExceeded(f"clique partition search exceeds {MAX_PARTITION_NODES} nodes")
    if len(best[0]) == lb:
        return
    if v == len(comp):
        if len(state) < len(best[0]):
            best[0] = list(state)
        return
    if len(state) >= len(best[0]):
        return
    bv = 1 << v
    for i, cls in enumerate(state):
        if not (cls & comp[v]):
            state[i] = cls | bv
            _partition_dfs(v + 1, comp, lb, state, best)
            state[i] = cls
    if len(state) + 1 < len(best[0]):
        state.append(bv)
        _partition_dfs(v + 1, comp, lb, state, best)
        state.pop()
