import itertools
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_distances,
    brute_alpha,
    complete_colored,
    fw_diameter,
    mono_edge_pairs,
    odd_cycle_through,
    odd_walk_length,
    rand_colored,
    relabeled,
    unreachable_after,
)
from monocover.graph import (
    MAX_GRAPH_CELLS,
    UNREACHABLE,
    CoverCertificate,
    CoverComponent,
    build_graph,
    find_odd_antihole,
    format_certificate,
    format_combined,
    format_graph,
    independence_number,
    induced_subgraph,
    is_complement_bipartite,
    mono_diameter,
    parse_certificate,
    parse_combined,
    parse_graph,
    verify_cover,
)
from monocover.generators import gen_antihole, gen_random_alpha2
from monocover.graph import _ball, _complement_triangle, _mask_diameter, _max_clique, _odd_walk_levels


def test_build_graph_basic():
    G = build_graph(3, 2, [(0, 1, 1), (2, 1, 2)])
    assert G.n == 3 and G.r == 2
    assert G.edges() == [(0, 1, 1), (1, 2, 2)]
    assert G.color_of(0, 1) == 1
    assert G.color_of(1, 2) == 2
    assert G.color_of(0, 2) is None


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(2, 2, [(0, 0, 1)])  # loop
    with pytest.raises(ValueError):
        build_graph(2, 2, [(0, 2, 1)])  # out of range
    with pytest.raises(ValueError):
        build_graph(2, 2, [(0, 1, 3)])  # bad color
    with pytest.raises(ValueError):
        build_graph(2, 2, [(0, 1, 1), (1, 0, 2)])  # conflicting duplicate
    # agreeing duplicate is fine
    G = build_graph(2, 2, [(0, 1, 1), (1, 0, 1)])
    assert G.edges() == [(0, 1, 1)]
    # the size limit on (n + 1) * (r + 1), checked before any row is allocated
    side = math.isqrt(MAX_GRAPH_CELLS)
    assert build_graph(side - 1, side - 1, []).n == side - 1
    for n, r in ((side, side - 1), (10**9, 2), (3, 10**9), (0, 10**9)):
        with pytest.raises(ValueError, match="graph size limit"):
            build_graph(n, r, [])


def test_adjacency_is_the_union_of_the_color_rows():
    rng = random.Random(11)
    graphs = [build_graph(0, 1, []), build_graph(1, 3, [])]
    for r in (1, 2, 3):
        graphs += [rand_colored(rng.randint(2, 12), rng.random(), seed=rng.randrange(10**6), r=r) for _ in range(20)]
    for G in graphs:
        adj = [0] * G.n
        for u, v in G.edge_color:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert G.adj_rows == adj


def test_unreachable_ordering():
    assert UNREACHABLE > 5
    assert not (UNREACHABLE <= 5)
    assert UNREACHABLE <= UNREACHABLE
    assert 10 < UNREACHABLE
    assert not (10 >= UNREACHABLE)


def test_unreachable_is_infinity():
    G = build_graph(4, 2, [(0, 1, 1), (2, 3, 1), (1, 2, 2)])
    assert mono_diameter(G, 1, range(4)) is UNREACHABLE
    assert mono_diameter(G, 1, range(4)) == math.inf
    assert pickle.loads(pickle.dumps(UNREACHABLE)) == UNREACHABLE


def test_mono_diameter_against_floyd_warshall():
    for seed in range(40):
        G = rand_colored(n=1 + seed % 9, p_edge=0.5, seed=seed)
        for color in (1, 2):
            ref = fw_diameter(G.n, mono_edge_pairs(G, color, range(G.n)))
            got = mono_diameter(G, color, range(G.n))
            if ref == float("inf"):
                assert got is UNREACHABLE
            else:
                assert got == ref


def test_mono_diameter_on_subsets():
    G = complete_colored(7, seed=3)
    for size in (1, 3, 5):
        for sub in itertools.combinations(range(7), size):
            for color in (1, 2):
                ref = fw_diameter(size, mono_edge_pairs(G, color, sub))
                got = mono_diameter(G, color, sub)
                assert (got is UNREACHABLE) == (ref == float("inf"))
                if ref != float("inf"):
                    assert got == ref


def test_independence_number_brute_force():
    for seed in range(30):
        G = rand_colored(n=2 + seed % 8, p_edge=0.4 + 0.02 * seed, seed=100 + seed)
        a, witness = independence_number(G)
        assert a == brute_alpha(G)
        assert len(witness) == a
        for u, v in itertools.combinations(sorted(witness), 2):
            assert not (G.adj_rows[u] >> v) & 1


def test_independence_number_leaves_no_reference_cycles():
    G = rand_colored(20, 0.3, seed=5)  # 8 unreachable objects per call when the search was a closure
    assert unreachable_after(lambda: independence_number(G)) == 0


def test_max_clique_brute_force():
    for seed in range(20):
        G = rand_colored(n=3 + seed % 7, p_edge=0.6, seed=200 + seed)
        size, mask = _max_clique(G.adj_rows, G.full_mask)
        assert bin(mask).count("1") == size
        members = [v for v in range(G.n) if (mask >> v) & 1]
        for u, v in itertools.combinations(members, 2):
            assert (G.adj_rows[u] >> v) & 1
        best = max(
            (
                k
                for k in range(1, G.n + 1)
                for sub in itertools.combinations(range(G.n), k)
                if all((G.adj_rows[u] >> v) & 1 for u, v in itertools.combinations(sub, 2))
            ),
            default=0,
        )
        assert size == best


def test_verify_cover_accepts_and_rejects():
    G = build_graph(4, 2, [(0, 1, 1), (1, 2, 1), (2, 3, 2)])
    good = CoverCertificate(
        (CoverComponent(1, frozenset({0, 1, 2}), 2), CoverComponent(2, frozenset({2, 3}), 1))
    )
    assert verify_cover(G, good)

    missing = CoverCertificate((CoverComponent(1, frozenset({0, 1, 2}), 2),))
    verdict = verify_cover(G, missing)
    assert not verdict
    assert "3" in verdict.reason
    assert verdict.uncovered == frozenset({3})

    too_tight = CoverCertificate(
        (CoverComponent(1, frozenset({0, 1, 2}), 1), CoverComponent(2, frozenset({2, 3}), 1))
    )
    verdict = verify_cover(G, too_tight)
    assert not verdict and verdict.failed_component == 0

    disconnected = CoverCertificate(
        (CoverComponent(2, frozenset({0, 3}), 4), CoverComponent(1, frozenset({0, 1, 2}), 2))
    )
    verdict = verify_cover(G, disconnected)
    assert not verdict and "unreachable" in verdict.reason

    with pytest.raises(ValueError):
        verify_cover(G, CoverCertificate((CoverComponent(3, frozenset({0}), 0),)))
    with pytest.raises(ValueError):
        verify_cover(G, CoverCertificate((CoverComponent(1, frozenset({9}), 0),)))


def test_vertex_range_is_checked_before_any_mask():
    # a mask holding vertex 10**9 would be a 125 MB integer
    G = build_graph(2, 1, [(0, 1, 1)])
    far = CoverCertificate((CoverComponent(1, frozenset({0}), 0), CoverComponent(1, frozenset({1, 10**9}), 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^component 1: vertex out of range for n=2$"):
            verify_cover(G, far)
        with pytest.raises(ValueError, match="^vertex out of range$"):
            mono_diameter(G, 1, [0, 10**9])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match=r"^component 0: vertex out of range for n=2$"):
        verify_cover(G, CoverCertificate((CoverComponent(1, frozenset({-1, 0}), 1),)))


def test_is_complement_bipartite():
    # union of two cliques: complement is complete bipartite
    edges = [(u, v, 1) for u in range(3) for v in range(u + 1, 3)]
    edges += [(u, v, 2) for u in range(3, 7) for v in range(u + 1, 7)]
    G = build_graph(7, 2, edges)
    sides = is_complement_bipartite(G)
    assert sides is not None
    s1, s2 = sides
    assert {frozenset(s1), frozenset(s2)} == {frozenset({0, 1, 2}), frozenset({3, 4, 5, 6})}

    # C5 complement is C5 again: odd cycle, not bipartite
    c5c = build_graph(5, 2, [(u, v, 1) for u in range(5) for v in range(u + 1, 5) if v - u not in (1, 4)])
    assert is_complement_bipartite(c5c) is None


def test_find_odd_antihole_structure():
    for k in (2, 3, 4):
        G = gen_antihole(k)
        hole = find_odd_antihole(G)
        assert hole is not None
        L = len(hole)
        assert L == 2 * k + 1
        # consecutive hole vertices are complement edges, all others are edges of G
        for i in range(L):
            for j in range(i + 1, L):
                adjacent = (G.adj_rows[hole[i]] >> hole[j]) & 1
                consecutive = j - i == 1 or (i == 0 and j == L - 1)
                assert adjacent == (not consecutive)

    two_cliques = build_graph(4, 2, [(0, 1, 1), (2, 3, 1)])
    assert find_odd_antihole(two_cliques) is None


def test_odd_walk_length_matches_reference():
    """The bit-parallel double-cover BFS gives the reference's length for
    every start vertex, uncapped and under every cap up to n + 2."""
    for seed in range(120):
        n = 1 + seed % 14
        G = rand_colored(n, 0.1 + 0.8 * (seed % 7) / 7, seed=21_000 + seed)
        for rows in (G.adj_rows, G.complement_rows()):
            for s in range(n):
                for cap in [None, *range(n + 3)]:
                    levels = _odd_walk_levels(rows, s, cap)
                    length = None if levels is None else len(levels)
                    assert length == odd_walk_length(rows, n, s, cap), (seed, s, cap)


def reference_odd_antihole(G):
    """find_odd_antihole by the reference BFS: the shortest odd closed walk
    through the smallest start that attains the minimum, second vertex
    below the last."""
    comp = G.complement_rows()
    found = [(odd_walk_length(comp, G.n, s, None), s) for s in range(G.n)]
    found = [(length, s) for length, s in found if length is not None]
    if not found:
        return None
    cycle = odd_cycle_through(comp, G.n, min(found)[1])
    if len(cycle) > 2 and cycle[1] > cycle[-1]:
        cycle = [cycle[0]] + cycle[:0:-1]
    return cycle


def twin_blowup(k, seed):
    """The antihole on 2k + 1 vertices with each vertex replaced by 1 to 3
    adjacent twins, randomly 2-colored and relabeled: its complement has
    many shortest odd cycles through each vertex."""
    rng = random.Random(seed)
    L = 2 * k + 1
    blob = [i for i in range(L) for _ in range(rng.randint(1, 3))]
    rng.shuffle(blob)
    edges = [
        (u, v, rng.randrange(1, 3))
        for u, v in itertools.combinations(range(len(blob)), 2)
        if (blob[u] - blob[v]) % L not in (1, L - 1)
    ]
    return build_graph(len(blob), 2, edges)


def test_find_odd_antihole_matches_reference():
    graphs = [gen_random_alpha2(4 + seed % 27, 0.1 + 0.8 * (seed % 9) / 9, 31_000 + seed) for seed in range(150)]
    graphs += [gen_antihole(k) for k in range(2, 9)]
    graphs += [twin_blowup(2 + seed % 5, 32_000 + seed) for seed in range(60)]
    graphs += [
        relabeled(gen_random_alpha2(5 + seed % 20, 0.1 + 0.8 * (seed % 9) / 9, 33_000 + seed), seed)
        for seed in range(150)
    ]
    holes = 0
    for i, G in enumerate(graphs):
        hole = find_odd_antihole(G)
        assert hole == reference_odd_antihole(G), i
        if hole is not None:
            # cover_alpha2 reads the long diagonals from hole[0]
            assert hole[0] == min(hole), i
            holes += i >= len(graphs) - 150
    assert sum(find_odd_antihole(G) is not None for G in graphs[:150]) > 30
    assert holes > 30


def test_ball_matches_reference():
    """Every start, every radius 0..|mask|: the ball is the set of mask
    vertices within the radius, and the depth is the largest distance in it."""
    for seed in range(60):
        n = 1 + seed % 12
        G = rand_colored(n, 0.15 + 0.7 * (seed % 5) / 5, seed=33_000 + seed)
        rng = random.Random(seed)
        mask = rng.getrandbits(n) | 1 << rng.randrange(n)
        rows = G.color_rows[seed % 2]
        for s in range(n):
            if not mask >> s & 1:
                continue
            dist = bfs_distances(rows, mask, s)
            for radius in range(mask.bit_count() + 1):
                inside = {v: d for v, d in dist.items() if d <= radius}
                seen, depth = _ball(rows, mask, 1 << s, radius)
                assert seen == sum(1 << v for v in inside), (seed, s, radius)
                assert depth == max(inside.values()), (seed, s, radius)


def test_complement_triangle_is_first_independent_triple():
    for seed in range(200):
        n = seed % 9
        G = rand_colored(n, 0.2 + 0.7 * (seed % 5) / 5, seed=23_000 + seed)
        triples = [
            t for t in itertools.combinations(range(n), 3)
            if not any(G.has_edge(u, v) for u, v in itertools.combinations(t, 2))
        ]
        assert _complement_triangle(G.complement_rows()) == (triples[0] if triples else None)
    with pytest.raises(ValueError, match=r"triangle \{0,1,2\}"):
        find_odd_antihole(build_graph(3, 2, []))
    # every graph on at most 6 vertices: find_odd_antihole fails exactly when
    # the complement has a triangle, naming the first one, and otherwise
    # returns the reference cycle
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for subset in range(1 << len(pairs)):
            G = build_graph(n, 2, [(u, v, 1) for i, (u, v) in enumerate(pairs) if subset >> i & 1])
            triangle = _complement_triangle(G.complement_rows())
            if triangle is None:
                assert find_odd_antihole(G) == reference_odd_antihole(G), (n, subset)
                continue
            with pytest.raises(ValueError) as error:
                find_odd_antihole(G)
            assert str(error.value) == "complement contains triangle {%d,%d,%d} (independent triple in G)" % triangle


def test_induced_subgraph_relabels():
    G = complete_colored(6, seed=9)
    H, labels = induced_subgraph(G, [1, 3, 4])
    assert H.n == 3 and labels == [1, 3, 4]
    for i in range(3):
        for j in range(i + 1, 3):
            assert H.color_of(i, j) == G.color_of(labels[i], labels[j])


def test_graph_format_round_trip():
    for seed in range(10):
        G = rand_colored(n=1 + seed, p_edge=0.5, seed=300 + seed, r=1 + seed % 3)
        assert parse_graph(format_graph(G)) == G
    text = "# comment\n\n3 2\n0 1 1 # trailing\n1 2 2\n"
    G = parse_graph(text)
    assert G.edges() == [(0, 1, 1), (1, 2, 2)]
    with pytest.raises(ValueError):
        parse_graph("")
    with pytest.raises(ValueError):
        parse_graph("3\n0 1 1\n")


def test_certificate_format_round_trip():
    cert = CoverCertificate(
        (CoverComponent(1, frozenset({0, 2, 5}), 3), CoverComponent(2, frozenset({1, 3, 4}), 2)),
        build_log=("step one", "step two"),
    )
    text = format_certificate(cert)
    back = parse_certificate(text)
    assert back == cert
    assert back.build_log == cert.build_log
    with pytest.raises(ValueError):
        parse_certificate("2\n1 1: 0\n")  # count mismatch
    with pytest.raises(ValueError):
        parse_certificate("")


def test_combined_round_trip():
    G = complete_colored(5, seed=4)
    cert = CoverCertificate((CoverComponent(1, frozenset(range(5)), 4),))
    text = format_combined(G, cert)
    G2, cert2 = parse_combined(text)
    assert G2 == G and cert2 == cert
    with pytest.raises(ValueError):
        parse_combined(format_graph(G))


# A log entry is one line; the format keeps it up to surrounding whitespace.
log_entry = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20).map(str.strip)


def certificates(colors, vertices, max_components=5):
    component = st.builds(CoverComponent, colors, st.frozensets(vertices, min_size=1, max_size=6), st.integers(0, 6))
    return st.builds(
        CoverCertificate,
        st.lists(component, max_size=max_components).map(tuple),
        st.lists(log_entry, max_size=3).map(tuple),
    )


@st.composite
def graphs_with_certificates(draw):
    n, r = draw(st.integers(0, 8)), draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    colors = draw(st.lists(st.integers(0, r), min_size=len(pairs), max_size=len(pairs)))
    G = build_graph(n, r, [(u, v, c) for (u, v), c in zip(pairs, colors) if c])
    vertices = st.integers(0, max(n - 1, 0))
    return G, draw(certificates(st.integers(1, r), vertices, max_components=5 if n else 0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(certificates(st.integers(1, 9), st.integers(0, 99)))
def test_certificate_round_trip_random(cert):
    back = parse_certificate(format_certificate(cert))
    assert back == cert
    assert back.build_log == cert.build_log


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs_with_certificates())
def test_combined_round_trip_random(pair):
    G, cert = pair
    G2, cert2 = parse_combined(format_combined(G, cert))
    assert G2 == G
    assert cert2 == cert and cert2.build_log == cert.build_log


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000), st.integers(1, 3))
def test_round_trip_random(n, seed, r):
    G = rand_colored(n, 0.6, seed, r=r)
    assert parse_graph(format_graph(G)) == G


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_diameter_singleton_and_complete(n, seed):
    # complete in color 1: diameter <= 1; no color-2 edges: singleton sets have diameter 0
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    G = build_graph(n, 2, edges)
    assert _mask_diameter(G.color_rows[0], G.full_mask) == (1 if n > 1 else 0)
    assert _mask_diameter(G.color_rows[1], 1) == 0
    assert independence_number(G)[0] == 1
