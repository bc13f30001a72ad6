import hashlib
import itertools
import random
from collections import Counter

import pytest

from conftest import (
    complement_bipartite,
    complete_colored,
    fw_diameter,
    matching_union,
    mono_edge_pairs,
    near_split_centers,
    pair_partition_reference,
    rand_colored,
    relabeled,
    two_clique_split,
    unreachable_after,
)
from monocover import classify, covers, graph
from monocover.covers import (
    NearSplitStructure,
    ProofAssertionError,
    cover_alpha2,
    cover_general,
    cover_near_split,
    cover_stars,
    cover_via_cliques,
    detect_near_split,
    pair_partition,
    two_clique_cover,
)
from monocover.generators import gen_antihole, gen_matching_complement, gen_random_alpha2
from monocover.graph import (
    CoverComponent,
    LimitExceeded,
    bits,
    build_graph,
    format_certificate,
    independence_number,
    is_complement_bipartite,
    mask_of,
    mono_diameter,
    verify_cover,
)


def assert_good_cover(G, cert, max_components, max_bound):
    verdict = verify_cover(G, cert)
    assert verdict, verdict.reason
    assert len(cert) <= max_components
    assert all(b <= max_bound for b in cert.bounds())


def recolor(G, seed):
    """Same adjacency, random 2-coloring."""
    rng = random.Random(seed)
    return build_graph(G.n, 2, [(u, v, rng.randrange(1, 3)) for u, v, _ in G.edges()])


def two_cliques(n1, n2, seed):
    rng = random.Random(seed)
    edges = [(u, v, rng.randrange(1, 3)) for u in range(n1) for v in range(u + 1, n1)]
    edges += [(u, v, rng.randrange(1, 3)) for u in range(n1, n1 + n2) for v in range(u + 1, n1 + n2)]
    return build_graph(n1 + n2, 2, edges)


# -- pair partition -----------------------------------------------------------


def parts(part):
    """The eight masks of a PairPartition and its two side cliques, as sets."""
    names = ("a11", "a22", "a12", "a21", "ax1", "ax2", "ay1", "ay2", "kx", "ky")
    return {name: set(bits(getattr(part, name))) for name in names}


def test_pair_partition_antihole_frozen():
    G = gen_antihole(3)
    part = pair_partition(G, 0, 1)
    assert parts(part) == {
        "a11": set(), "a22": {4}, "a12": {5}, "a21": {3},
        "ax1": {2}, "ax2": set(), "ay1": {6}, "ay2": set(),
        "kx": {0, 2}, "ky": {1, 6},
    }

    colors = part.swap_colors()
    assert (colors.x, colors.y) == (0, 1)
    assert parts(colors) == {
        "a11": {4}, "a22": set(), "a12": {3}, "a21": {5},
        "ax1": set(), "ax2": {2}, "ay1": set(), "ay2": {6},
        "kx": {0, 2}, "ky": {1, 6},
    }

    roles = part.swap_roles()
    assert (roles.x, roles.y) == (1, 0)
    assert parts(roles) == {
        "a11": set(), "a22": {4}, "a12": {3}, "a21": {5},
        "ax1": {6}, "ax2": set(), "ay1": {2}, "ay2": set(),
        "kx": {1, 6}, "ky": {0, 2},
    }
    assert roles == pair_partition(G, 1, 0)

    assert colors.swap_colors() == part and roles.swap_roles() == part
    assert colors.swap_roles() == roles.swap_colors()


def test_pair_partition_matches_reference():
    """The row intersections split every nonadjacent pair as the per-vertex
    scan does, on alpha = 2 graphs and recolored antiholes; on graphs with
    larger alpha both raise the same error, naming the lowest vertex that
    sees neither endpoint."""
    alpha2 = [gen_random_alpha2(n, 0.2 + 0.6 * (n % 4) / 4, seed=70_000 + n) for n in range(5, 21)]
    antiholes = [recolor(gen_antihole(k), 71_000 + k) for k in (2, 3, 4, 5)]
    wider = [rand_colored(n, 0.5, seed=72_000 + n) for n in range(3, 13)]
    triples = 0
    for G in alpha2 + antiholes + wider:
        for x in range(G.n):
            for y in range(G.n):
                if x == y or G.has_edge(x, y):
                    continue
                try:
                    expected = pair_partition_reference(G, x, y)
                except ValueError as exc:
                    with pytest.raises(ValueError) as info:
                        pair_partition(G, x, y)
                    assert str(info.value) == str(exc)
                    triples += "independent triple" in str(exc)
                    continue
                part = pair_partition(G, x, y)
                assert (part.x, part.y) == (x, y)
                assert parts(part) == expected, (G.edges(), x, y)
    assert triples


def test_pair_partition_rejects():
    G = gen_antihole(3)
    with pytest.raises(ValueError):
        pair_partition(G, 0, 2)  # adjacent pair
    E3 = build_graph(3, 2, [])
    with pytest.raises(ValueError, match="independent triple"):
        pair_partition(E3, 0, 1)


def _complement_corpus():
    """Seeded graphs with n <= 12: random densities, complete graphs, odd
    antiholes (an odd cycle in the complement) and two cliques joined by a
    few edges (a bipartite complement, often in several components)."""
    for seed in range(40):
        yield rand_colored(1 + seed % 12, 0.3 + 0.6 * (seed % 7) / 6, seed=90_000 + seed)
    for n in (1, 2, 5, 9, 12):
        yield complete_colored(n, seed=n)
    for k in (2, 3, 4, 5):
        yield gen_antihole(k)
    for seed in range(10):
        H = two_cliques(2 + seed % 5, 1 + seed % 6, seed)
        rng = random.Random(seed)
        extra = [
            (u, v, 1) for u in range(H.n) for v in range(u + 1, H.n) if not H.has_edge(u, v) and rng.random() < 0.3
        ]
        yield build_graph(H.n, 2, [*H.edges(), *extra])


def test_complement_two_coloring_matches_references():
    outcomes = {"bipartite": 0, "odd": 0, "split": 0, "no-split": 0}
    for G in _complement_corpus():
        sides = is_complement_bipartite(G)
        assert sides == complement_bipartite(G)
        outcomes["odd" if sides is None else "bipartite"] += 1
        for v in range(G.n):
            for a in range(G.n):
                for b in range(G.n):
                    split = covers._two_clique_split(G, v, a, b)
                    ref = two_clique_split(G, v, a, b)
                    assert split == (None if ref is None else tuple(map(mask_of, ref))), (G.edges(), v, a, b)
                    outcomes["no-split" if split is None else "split"] += 1
    assert all(outcomes.values()), outcomes


# -- alpha=2 covers -----------------------------------------------------------


def test_cover_alpha2_two_cliques():
    for seed in range(25):
        G = two_cliques(2 + seed % 5, 1 + seed % 7, seed)
        cert = cover_alpha2(G)
        assert_good_cover(G, cert, 2, 3)


def test_cover_alpha2_antiholes():
    for k in (2, 3, 4, 5):
        for scheme in ("distance-split", "uniform:1", "uniform:2"):
            G = gen_antihole(k, scheme)
            assert_good_cover(G, cover_alpha2(G), 2, 4)
        for seed in range(30):
            G = recolor(gen_antihole(k), 9000 * k + seed)
            assert_good_cover(G, cover_alpha2(G), 2, 4)


def test_cover_alpha2_random_instances():
    for seed in range(300):
        n = 5 + seed % 18
        G = gen_random_alpha2(n, 0.1 + 0.8 * (seed % 9) / 9, seed)
        assert independence_number(G)[0] <= 2
        assert_good_cover(G, cover_alpha2(G), 2, 4)


def test_cover_alpha2_rejects_alpha3():
    with pytest.raises(ValueError, match="independence number exactly 2, got 3"):
        cover_alpha2(build_graph(3, 2, []))
    with pytest.raises(ValueError, match="exactly 2, got 3"):
        cover_alpha2(build_graph(4, 2, [(0, 1, 1)]))  # {1, 2, 3} is independent
    K4 = build_graph(4, 2, [(u, v, 1 + (u + v) % 2) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(ValueError, match="exactly 2, got 1"):
        cover_alpha2(K4)


def test_cover_alpha2_logs_choices():
    G = gen_antihole(3)
    cert = cover_alpha2(G)
    assert cert.build_log, "branch decisions should be recorded"


# -- near-split covers --------------------------------------------------------


def test_detect_near_split_antihole_frozen():
    G = gen_antihole(3)
    s = detect_near_split(G)
    assert s == NearSplitStructure(v=0, k1=mask_of({1, 3, 5}), k2=mask_of({2, 4, 6}), v1=1, v2=6)
    s.validate(G)


def test_detect_near_split_negative():
    # complete graphs have no missing vertex per clique
    K5 = build_graph(5, 2, [(u, v, 1) for u in range(5) for v in range(u + 1, 5)])
    assert detect_near_split(K5) is None
    E3 = build_graph(3, 2, [])
    assert detect_near_split(E3) is None


def test_near_split_structure_validate_rejects():
    G = gen_antihole(3)
    bad = NearSplitStructure(v=0, k1=mask_of({1, 3}), k2=mask_of({2, 4, 6}), v1=1, v2=6)
    with pytest.raises(ValueError, match="do not partition"):
        bad.validate(G)
    # a structure from outside detect_near_split is validated by the cover
    with pytest.raises(ValueError, match="do not partition"):
        cover_near_split(G, bad)


def near_split_graph(n, seed):
    """A random colored near-split graph on n >= 3 vertices, relabeled: a
    center adjacent to every vertex of two cliques but one missed vertex in
    each, the two missed vertices adjacent, other edges between the cliques
    drawn at random."""
    rng = random.Random(seed)
    n1 = rng.randint(1, n - 2)
    v1, v2 = rng.randint(1, n1), rng.randint(n1 + 1, n - 1)
    pairs = [(0, u) for u in range(1, n) if u not in (v1, v2)]
    for u, v in itertools.combinations(range(1, n), 2):
        if (u <= n1) == (v <= n1) or (u, v) == (v1, v2) or rng.random() < 0.5:
            pairs.append((u, v))
    return relabeled(build_graph(n, 2, [(u, v, rng.randrange(1, 3)) for u, v in pairs]), seed)


def test_detect_near_split_matches_brute_force():
    """detect_near_split returns a structure exactly when one exists, at the
    lowest center that has one, and what it returns passes validate."""
    random_graphs = [rand_colored(3 + seed % 5, 0.5 + 0.075 * (seed % 7), seed=47000 + seed) for seed in range(600)]
    antiholes = [relabeled(recolor(gen_antihole(k), seed), seed) for k in (2, 3) for seed in range(40)]
    built = [near_split_graph(3 + seed % 5, seed) for seed in range(200)]
    found = []
    for graphs in (random_graphs, antiholes, built):
        found.append(0)
        for G in graphs:
            centers = near_split_centers(G)
            s = detect_near_split(G)
            assert (s is None) == (not centers), G.edges()
            if s is not None:
                assert s.v == min(centers), G.edges()
                s.validate(G)
                found[-1] += 1
    assert 0 < found[0] < len(random_graphs)
    assert found[1:] == [len(antiholes), len(built)]


def test_cover_near_split_antiholes():
    for k in (2, 3, 4, 5):
        G = gen_antihole(k)
        s = detect_near_split(G)
        assert s is not None
        assert_good_cover(G, cover_near_split(G, s), 2, 3)


def test_cover_near_split_all_recolorings_of_antihole():
    """Exhaustive at the smallest scale: every 2-coloring of the 5-vertex
    antihole admits a near-split (3,3)-cover."""
    G0 = gen_antihole(2)
    pairs = [(u, v) for u, v, _ in G0.edges()]
    s = detect_near_split(G0)
    for bits in range(1 << len(pairs)):
        G = build_graph(5, 2, [(u, v, 1 + ((bits >> i) & 1)) for i, (u, v) in enumerate(pairs)])
        assert_good_cover(G, cover_near_split(G, s), 2, 3)


def test_cover_near_split_random_recolorings():
    for k in (3, 4):
        G0 = gen_antihole(k)
        s = detect_near_split(G0)
        for seed in range(200):
            G = recolor(G0, 31000 * k + seed)
            assert_good_cover(G, cover_near_split(G, s), 2, 3)


def test_cover_near_split_monochromatic():
    G0 = gen_antihole(3)
    s = detect_near_split(G0)
    all_red = build_graph(7, 2, [(u, v, 1) for u, v, _ in G0.edges()])
    cert = cover_near_split(all_red, s)
    assert_good_cover(all_red, cert, 2, 3)
    # monochromatic input: center joins one clique, bounds collapse to (2, 1)
    assert cert.bounds() == (2, 1)
    assert all(c.color == 1 for c in cert.components)


def small_near_split_graphs():
    """Every near-split graph on 4 or 5 vertices with center 0, first clique
    1..a and second clique a+1..n-1: every choice of the missed vertices v1
    and v2, of the other edges between the cliques and of the 2-coloring."""
    for n in (4, 5):
        for a in range(1, n - 1):
            k1, k2 = range(1, a + 1), range(a + 1, n)
            for v1, v2 in itertools.product(k1, k2):
                fixed = [(0, u) for u in range(1, n) if u not in (v1, v2)]
                fixed += [*itertools.combinations(k1, 2), *itertools.combinations(k2, 2), (v1, v2)]
                cross = [e for e in itertools.product(k1, k2) if e != (v1, v2)]
                for picked in itertools.product((False, True), repeat=len(cross)):
                    pairs = fixed + list(itertools.compress(cross, picked[::-1]))
                    for colors in itertools.product((1, 2), repeat=len(pairs)):
                        yield build_graph(n, 2, [(u, v, c) for (u, v), c in zip(pairs, colors[::-1])])


# sha256 over the small_near_split_graphs certificates, each format_certificate
# output followed by a NUL; taken before the mirrored cases were folded
FROZEN_NEAR_SPLIT_DIGEST = "29c3f9d3ed3a92bd012597de4bccefc733beb3026496c6e702bb8dec97f08482"


def test_near_split_small_every_outcome_exhaustively():
    """Each case of cover_near_split's small-diameter branch, the mirrored
    ones for both cliques, fires on the small near-split graphs, and the
    certificates are byte-identical to the frozen digest."""
    digest = hashlib.sha256()
    outcomes = Counter()
    for G in small_near_split_graphs():
        s = detect_near_split(G)
        cert = cover_near_split(G, s)
        assert_good_cover(G, cert, 2, 3)
        digest.update(format_certificate(cert).encode())
        digest.update(b"\0")
        note = cert.build_log[-1]
        if note.startswith("center sends"):
            outcome = "center into the " + note.split()[6]
        elif note.startswith("missed vertex"):
            outcome = "missed v1" if note.split()[2] == str(s.v1) else "missed v2"
        elif note.startswith("missed edge"):
            c1 = next(c for c in (1, 2) if mono_diameter(G, c, bits(s.k1)) <= 2)
            outcome = "stars in c1" if note.split()[4] == f"{c1}:" else "stars in c2"
        else:
            outcome = note.split(" plus")[0]
        outcomes[outcome] += 1
    assert outcomes == {
        "center into the first": 4408,
        "center into the second": 824,
        "missed v1": 504,
        "missed v2": 24,
        "one star from the center": 624,
        "stars in c1": 312,
        "stars in c2": 312,
    }
    assert digest.hexdigest() == FROZEN_NEAR_SPLIT_DIGEST


# -- general covers -----------------------------------------------------------


def test_cover_general_bound_and_validity():
    for seed in range(400):
        n = 3 + seed % 16
        G = rand_colored(n, 0.15 + 0.8 * (seed % 10) / 10, seed=7000 + seed)
        alpha = independence_number(G)[0]
        cert = cover_general(G)
        assert_good_cover(G, cert, max(1, 3 * alpha // 2), 4)


def test_cover_general_edgeless():
    G = build_graph(3, 2, [])
    cert = cover_general(G)
    assert len(cert) == 3 and all(len(c.vertices) == 1 for c in cert.components)


def test_cover_general_complete_mono():
    G = build_graph(5, 2, [(u, v, 1) for u in range(5) for v in range(u + 1, 5)])
    cert = cover_general(G)
    assert len(cert) == 1 and cert.components[0].vertices == frozenset(range(5))


def test_cover_general_matches_alpha2_path():
    for seed in range(50):
        G = gen_random_alpha2(10, 0.4, seed=50_000 + seed)
        cert = cover_general(G)
        assert_good_cover(G, cert, 3, 4)


def _count_alpha_calls(monkeypatch, G):
    """cover_general(G), counting independence_number calls and recording
    the graphs _cover_general_inner handles."""
    alpha_calls = []
    inner_graphs = []
    real_alpha, real_inner = covers.independence_number, covers._cover_general_inner

    def alpha(H):
        alpha_calls.append(H)
        return real_alpha(H)

    def inner(H):
        inner_graphs.append(H)
        return real_inner(H)

    monkeypatch.setattr(covers, "independence_number", alpha)
    monkeypatch.setattr(covers, "_cover_general_inner", inner)
    cert = cover_general(G)
    return len(alpha_calls), inner_graphs, cert


def has_independent_triple(G):
    return any(
        not (G.has_edge(u, v) or G.has_edge(u, w) or G.has_edge(v, w))
        for u, v, w in itertools.combinations(range(G.n), 3)
    )


def has_mono_p2_pair(G):
    return any(
        not G.has_edge(u, v) and G.color_of(u, w) is not None and G.color_of(u, w) == G.color_of(v, w)
        for u, v in itertools.combinations(range(G.n), 2)
        for w in range(G.n)
    )


def test_cover_general_computes_alpha_once_per_graph(monkeypatch):
    # complete and alpha = 2 graphs are recognized from the complement alone
    K9 = build_graph(9, 2, [(u, v, 1 + (u * v) % 2) for u in range(9) for v in range(u + 1, 9)])
    alpha_calls, inner_graphs, _ = _count_alpha_calls(monkeypatch, K9)
    assert (alpha_calls, len(inner_graphs)) == (0, 1)
    for seed in range(10):
        alpha2 = gen_random_alpha2(12 + seed, 0.5, seed=60_000 + seed)
        for G in (alpha2, recolor(gen_antihole(2 + seed % 4), seed)):
            alpha_calls, inner_graphs, _ = _count_alpha_calls(monkeypatch, G)
            assert (alpha_calls, len(inner_graphs)) == (0, 1)
    for seed in range(5):
        G = rand_colored(40, 0.15, seed=80_000 + seed)
        alpha_calls, inner_graphs, cert = _count_alpha_calls(monkeypatch, G)
        # each peel level that leaves a residual graph prefixes its log once more
        levels = max(entry.count("residual: ") for entry in cert.build_log)
        assert levels >= 1 and len(inner_graphs) == 1 + levels
        # alpha is computed only where the peel ends in the labels branch:
        # alpha >= 3 and no nonadjacent pair with a common monochromatic neighbor
        assert alpha_calls == sum(has_independent_triple(H) and not has_mono_p2_pair(H) for H in inner_graphs)


def test_cover_general_rejects_a_dependent_exhibited_set(monkeypatch):
    # a color-1 star at 0: peeling the adjacent pair (0, 1) gives one valid
    # component, but {0, 1} is no independent set to count it against
    G = build_graph(5, 2, [(0, v, 1) for v in range(1, 5)])
    monkeypatch.setattr(covers, "_mono_p2_pair", lambda H: (0, 1, 1, 2))
    with pytest.raises(ProofAssertionError, match=r"^\[general\] vertex 0 has a neighbor") as info:
        cover_general(G)
    assert info.value.branch == "general"


def test_cover_general_rejects_an_extra_labels_component(monkeypatch):
    # alternately colored path 1-2-4-3 plus isolated 0: the labels branch
    # meets floor(3 * 3 / 2) = 4 components exactly
    G = build_graph(5, 2, [(1, 2, 2), (2, 4, 1), (3, 4, 2)])
    assert len(cover_general(G)) == 4
    real = covers._cover_general_labels

    def one_more(H, iset):
        cert = real(H, iset)
        return graph.CoverCertificate((*cert.components, cert.components[0]), cert.build_log)

    monkeypatch.setattr(covers, "_cover_general_labels", one_more)
    with pytest.raises(ProofAssertionError, match="5 components exceed limit 4"):
        cover_general(G)


def test_cover_general_sparse_n150_skips_alpha_along_the_peel(monkeypatch):
    # many peel levels, none of which computes alpha; only a labels branch
    # ending the peel may
    G = rand_colored(150, 0.05, seed=0)
    alpha_calls, inner_graphs, cert = _count_alpha_calls(monkeypatch, G)
    assert verify_cover(G, cert)
    assert len(inner_graphs) > 1 and alpha_calls <= 1


def test_cover_alpha2_skips_alpha_on_valid_input(monkeypatch):
    calls = []
    monkeypatch.setattr(covers, "independence_number", lambda G: calls.append(G))
    for k in (2, 3, 4, 5):
        cover_alpha2(recolor(gen_antihole(k), k))
    assert calls == []


# -- star covers --------------------------------------------------------------


def test_cover_stars_bound():
    for r in (2, 3):
        for seed in range(120):
            n = 2 + seed % 12
            G = rand_colored(n, 0.3 + 0.5 * (seed % 7) / 7, seed=11_000 + seed, r=r)
            alpha = independence_number(G)[0]
            cert = cover_stars(G)
            assert_good_cover(G, cert, r * alpha, 2)


def test_cover_stars_isolated_vertices():
    G = build_graph(4, 2, [(0, 1, 1)])
    cert = cover_stars(G)
    assert_good_cover(G, cert, 2 * 3, 2)
    singletons = [c for c in cert.components if len(c.vertices) == 1]
    assert {frozenset({2}), frozenset({3})} <= {c.vertices for c in singletons}


# -- two-clique and clique covers ----------------------------------------------


def test_two_clique_cover():
    for seed in range(30):
        G = two_cliques(1 + seed % 6, 2 + seed % 5, 500 + seed)
        cert = two_clique_cover(G)
        assert_good_cover(G, cert, 2, 3)
    with pytest.raises(ValueError):
        two_clique_cover(gen_antihole(2))  # complement is an odd cycle


def bipartite_complement(n1, n2, p, seed):
    """Cliques on 0..n1-1 and on the rest, with each edge between them
    missing with probability p; randomly 2-colored."""
    rng = random.Random(seed)
    n = n1 + n2
    edges = [
        (u, v, rng.randrange(1, 3))
        for u in range(n)
        for v in range(u + 1, n)
        if (u < n1) == (v < n1) or rng.random() > p
    ]
    return build_graph(n, 2, edges)


def test_cover_alpha2_two_colors_a_bipartite_complement_once(monkeypatch):
    calls = []
    original = graph._complement_sides

    def counted(G, rest):
        calls.append(rest)
        return original(G, rest)

    monkeypatch.setattr(graph, "_complement_sides", counted)
    monkeypatch.setattr(covers, "_complement_sides", counted)
    head = "complement is bipartite: two spanning cliques, one small-diameter color each"
    G = bipartite_complement(3, 4, 0.5, 1)
    assert cover_alpha2(G).build_log == (head, "clique [0, 1, 2, 6] in color 1", "clique [3, 4, 5] in color 1")
    for seed in range(30):
        G = bipartite_complement(1 + seed % 5, 1 + seed % 7, 0.2 + 0.6 * (seed % 4) / 4, 510 + seed)
        if not any(G.complement_rows()):
            continue  # alpha 1
        calls.clear()
        cert = cover_alpha2(G)
        assert len(calls) == 1, seed
        expected = two_clique_cover(G)
        assert cert.components == expected.components
        assert cert.build_log == (head, *expected.build_log)
        assert_good_cover(G, cert, 2, 3)


def _chromatic_number(n, edge_pairs):
    adj = [set() for _ in range(n)]
    for u, v in edge_pairs:
        adj[u].add(v)
        adj[v].add(u)
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n - 1):
            colors = (0,) + assign
            if all(colors[u] != colors[v] for u, v in edge_pairs):
                return k
    return n


def test_cover_via_cliques_counts():
    # disjoint cliques: one component each
    G = two_cliques(3, 4, seed=1)
    assert len(cover_via_cliques(G)) == 2

    # antihole: component count equals the complement's chromatic number
    H = gen_antihole(3)
    comp_edges = [
        (u, v)
        for u in range(7)
        for v in range(u + 1, 7)
        if not (H.adj_rows[u] >> v) & 1
    ]
    cert = cover_via_cliques(H)
    assert_good_cover(H, cert, _chromatic_number(7, comp_edges), 3)
    assert len(cert) == _chromatic_number(7, comp_edges)

    for seed in range(40):
        G = rand_colored(5 + seed % 6, 0.5, seed=600 + seed)
        comp_edges = [
            (u, v)
            for u in range(G.n)
            for v in range(u + 1, G.n)
            if not (G.adj_rows[u] >> v) & 1
        ]
        cert = cover_via_cliques(G)
        assert len(cert) == _chromatic_number(G.n, comp_edges)
        assert verify_cover(G, cert)


def test_cover_via_cliques_leaves_no_reference_cycles():
    G = rand_colored(12, 0.5, seed=0)  # the partition search runs past its greedy start here
    assert unreachable_after(lambda: cover_via_cliques(G)) == 0


def test_cover_via_cliques_limit():
    big = build_graph(25, 2, [])
    with pytest.raises(LimitExceeded):
        cover_via_cliques(big)
    assert len(cover_via_cliques(big, max_n=25)) == 25
    with pytest.raises(ValueError, match="max_n must be >= 0, got -3"):
        cover_via_cliques(build_graph(4, 2, []), max_n=-3)


def test_clique_partition_has_a_node_budget(monkeypatch):
    """The partition search is capped at covers.MAX_PARTITION_NODES nodes:
    past the cap, cover_via_cliques raises LimitExceeded instead of running
    on."""
    G = rand_colored(12, 0.5, seed=0)  # the partition search runs past its greedy start here
    assert verify_cover(G, cover_via_cliques(G))
    monkeypatch.setattr(covers, "MAX_PARTITION_NODES", 10)
    with pytest.raises(LimitExceeded, match="clique partition search exceeds 10 nodes"):
        cover_via_cliques(G)


def test_labels_branch_alpha_has_a_node_budget(monkeypatch):
    """The labels branch's exact alpha is a branch and bound capped at
    graph.MAX_CLIQUE_NODES nodes: past the cap, cover_general raises
    LimitExceeded instead of running on."""
    G = matching_union(60, seed=1)
    assert "labeled cliques" in cover_general(G).build_log[-1]
    monkeypatch.setattr(graph, "MAX_CLIQUE_NODES", 3)
    with pytest.raises(LimitExceeded, match="branch-and-bound nodes"):
        cover_general(G)
    with pytest.raises(LimitExceeded):
        independence_number(G)


def test_matching_complement_cover():
    # n/2 pairwise nonadjacent edges force one component per edge at bound 2
    for n in (4, 6, 8):
        G = gen_matching_complement(n)
        cert = cover_general(G)
        assert_good_cover(G, cert, 3 * independence_number(G)[0] // 2, 4)


# -- the single certificate check ---------------------------------------------


def test_certificate_rejects_broken_pieces():
    # color-1 path 0-1-2, color-2 edge 2-3, vertex 4 isolated
    G = build_graph(5, 2, [(0, 1, 1), (1, 2, 1), (2, 3, 2)])
    cert = covers._certificate(G, [(1, 0b00111, 2), (2, 0b01100, 1), (1, 0b10000, 0)], ["ok"], "fine")
    assert cert.bounds() == (2, 1, 0) and cert.build_log == ("ok",)
    cases = {
        "over the limit": [(1, 0b00111, 1), (2, 0b01100, 1), (1, 0b10000, 0)],
        "disconnected": [(1, 0b11111, 4)],
        "uncovered": [(1, 0b00111, 2), (2, 0b01100, 1)],
    }
    for name, pieces in cases.items():
        with pytest.raises(ProofAssertionError, match=r"^\[test-branch\] ") as info:
            covers._certificate(G, pieces, [], "test-branch")
        assert info.value.branch == "test-branch", name
    with pytest.raises(ProofAssertionError, match="miss vertices \\[4\\]"):
        covers._certificate(G, [(1, 0b00111, 2), cert.components[1]], [], "peel")
    # a component was measured where it was built: it keeps its place and its
    # bound (3, above the edge's diameter 1), and it alone covers vertex 3
    given = CoverComponent(2, {2, 3}, 3)
    mixed = covers._certificate(G, [(1, 0b00111, 2), given, (1, 0b10000, 0)], [], "mixed")
    assert mixed.components == (cert.components[0], given, cert.components[2])


def _count_measurements(monkeypatch):
    """Wrap both diameter kernels, _mask_diameter and _mask_diam_le, wherever
    graph, covers and classify hold them. Returns the list each call appends
    its (kernel name, mask) to, so its length counts the measurements."""
    calls = []

    def recording(name, original):
        def recorded(rows, mask, *rest):
            calls.append((name, mask))
            return original(rows, mask, *rest)

        return recorded

    for name in ("_mask_diameter", "_mask_diam_le"):
        wrapper = recording(name, getattr(graph, name))
        for module in (graph, covers, classify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


def _span_cost(G, vertices) -> int:
    """The measurements a spanning clique costs: color 1 alone when its
    Floyd-Warshall diameter is at most 2, else both colors."""
    verts = sorted(vertices)
    return 1 if fw_diameter(len(verts), mono_edge_pairs(G, 1, verts)) <= 2 else 2


def test_each_component_measured_once(monkeypatch):
    """A fixed-color piece costs one diameter. A spanning clique costs one
    when its color-1 diameter is at most 2, which settles the pick, and two
    otherwise: one per color, the smaller being its bound."""
    builds = [
        (cover_stars, rand_colored(12, 0.4, seed=3), False),
        (two_clique_cover, two_cliques(4, 5, seed=3), True),
        (cover_via_cliques, rand_colored(9, 0.6, seed=3), True),
        (cover_general, build_graph(6, 2, [(u, v, 1 + (u + v) % 2) for u in range(6) for v in range(u + 1, 6)]), True),
    ]
    calls = _count_measurements(monkeypatch)
    span_costs = Counter()
    for build, G, spanning in builds:
        calls.clear()
        cert = build(G)
        measured = len(calls)
        expected = [_span_cost(G, comp.vertices) if spanning else 1 for comp in cert.components]
        if spanning:
            span_costs.update(expected)
        assert len(cert) >= 1 and measured == sum(expected), build.__name__
        assert verify_cover(G, cert)
    assert span_costs[1] and span_costs[2]


def test_near_split_spans_each_clique_once(monkeypatch):
    """cover_near_split makes no _mask_diam_le call, and it measures each
    clique only where it spans it: once when color 1 settles the pick, twice
    otherwise. The recolored antiholes add cliques of diameter 3 in both
    colors, whose partner clique's span goes to the certificate as well."""
    calls = _count_measurements(monkeypatch)
    antiholes = [G for method, G in _certificate_corpus() if method == "near-split"]
    for G in itertools.chain(small_near_split_graphs(), antiholes):
        s = detect_near_split(G)
        calls.clear()
        cover_near_split(G, s)
        assert all(name == "_mask_diameter" for name, _ in calls)
        masks = Counter(mask for _, mask in calls)
        for k in (s.k1, s.k2):
            assert masks[k] == _span_cost(G, bits(k))


# -- frozen certificates --------------------------------------------------------

# sha256 over the corpus below, each format_certificate output followed by a
# NUL; taken with the earlier dict-keyed odd-walk BFS and per-call alpha
FROZEN_CERTIFICATE_DIGEST = "0cac526f38f63869a46487de2de650fc7a4a1b52250776d97c730e4091a5a720"


def _certificate_corpus():
    """Seeded corpus of (method, graph) pairs covering every cover_general
    path: the alpha = 2 dispatch through odd antiholes, the pair peel on
    sparse graphs, and cover_near_split on recolored antiholes."""
    for seed in range(40):
        n = 10 + seed % 21
        yield "general", gen_random_alpha2(n, 0.1 + 0.8 * (seed % 9) / 9, seed)
    for k in (2, 3, 4, 5):
        for seed in range(10):
            G = recolor(gen_antihole(k), 70_000 + 100 * k + seed)
            yield "general", G
            yield "near-split", G
    for seed in range(5):
        yield "general", rand_colored(40, 0.15, seed=80_000 + seed)


def test_certificates_frozen():
    """Certificates, components and build logs alike, are byte-identical to
    the frozen digest; a faster kernel must not change a single choice."""
    digest = hashlib.sha256()
    for method, G in _certificate_corpus():
        if method == "general":
            cert = cover_general(G)
        else:
            cert = cover_near_split(G, detect_near_split(G))
        digest.update(format_certificate(cert).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == FROZEN_CERTIFICATE_DIGEST
