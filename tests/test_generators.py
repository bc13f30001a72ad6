import pytest

from conftest import brute_alpha, fw_diameter, mono_edge_pairs
from monocover.classify import DiamPattern, check_house_membership, classify_complete
from monocover.generators import (
    gen_antihole,
    gen_k7_triple,
    gen_matching_complement,
    gen_p42,
    gen_random_alpha2,
    gen_substitution,
    house_skeleton,
)
from monocover.graph import build_graph, independence_number


def test_gen_p42_structure():
    G = gen_p42(1)
    assert G.n == 4 and G.r == 2
    for color in (1, 2):
        # each color class is a path on 4 vertices: degrees 1,1,2,2, diameter 3
        pairs = mono_edge_pairs(G, color, range(4))
        assert len(pairs) == 3
        assert fw_diameter(4, pairs) == 3
    assert classify_complete(G).case is DiamPattern.BOTH_THREE

    H = gen_p42(3)
    assert H.n == 12
    assert independence_number(H)[0] == 3
    # no edges across copies
    assert all(u // 4 == v // 4 for u, v, _ in H.edges())
    with pytest.raises(ValueError):
        gen_p42(0)


def test_gen_antihole_structure():
    for k in (2, 3, 4, 5):
        G = gen_antihole(k)
        n = 2 * k + 1
        assert G.n == n
        assert brute_alpha(G) == 2
        for u in range(n):
            for v in range(u + 1, n):
                dist = min(v - u, n - (v - u))
                assert ((G.adj_rows[u] >> v) & 1) == (dist >= 2)
                if dist >= 2:
                    assert G.color_of(u, v) == (1 if dist % 2 == 0 else 2)


def test_gen_antihole_doubly_hamiltonian_k3():
    # for k=3 each color class is a spanning cycle of length 7
    G = gen_antihole(3)
    for color in (1, 2):
        pairs = mono_edge_pairs(G, color, range(7))
        assert len(pairs) == 7
        deg = [0] * 7
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        assert deg == [2] * 7
        assert fw_diameter(7, pairs) == 3  # connected single cycle


def test_gen_antihole_schemes():
    G = gen_antihole(3, "uniform:2")
    assert all(c == 2 for _u, _v, c in G.edges())
    with pytest.raises(ValueError):
        gen_antihole(1)
    with pytest.raises(ValueError):
        gen_antihole(3, "uniform:7")
    with pytest.raises(ValueError):
        gen_antihole(3, "stripes")


def test_gen_k7_triple_structure():
    G = gen_k7_triple(1)
    assert G.n == 7 and G.r == 3
    assert len(G.edge_color) == 21
    for color in (1, 2, 3):
        pairs = mono_edge_pairs(G, color, range(7))
        assert len(pairs) == 7
        assert fw_diameter(7, pairs) == 3  # a 7-cycle
    H = gen_k7_triple(2)
    assert H.n == 14 and all(u // 7 == v // 7 for u, v, _ in H.edges())


def test_gen_matching_complement_structure():
    for n in (4, 6, 10):
        G = gen_matching_complement(n)
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not (G.adj_rows[u] >> v) & 1
        ]
        assert missing == [(u, u + 1) for u in range(0, n, 2)]
        assert brute_alpha(G) == 2
        assert all(c == 1 for _u, _v, c in G.edges())
    with pytest.raises(ValueError):
        gen_matching_complement(5)
    with pytest.raises(ValueError):
        gen_matching_complement(2)


def test_house_skeleton_both_free_colors():
    for free in (1, 2):
        G = house_skeleton(free_color=free)
        verdict = classify_complete(G)
        assert verdict.case is DiamPattern.OVER_THREE
        assert verdict.house.house_color == 1
        assert check_house_membership(G, verdict.house)


def test_gen_substitution_inherits_colors():
    base = house_skeleton()
    sizes = [2, 1, 3, 1, 2]
    inner = [complete_block(s) for s in sizes]
    G = gen_substitution(base, sizes, inner)
    assert G.n == sum(sizes)
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    for bu, bv, c in base.edges():
        for a in range(sizes[bu]):
            for b in range(sizes[bv]):
                assert G.color_of(*sorted((offsets[bu] + a, offsets[bv] + b))) == c
    # blow-up of a house-pattern graph still classifies as the house case
    verdict = classify_complete(G)
    assert verdict.case is DiamPattern.OVER_THREE
    assert check_house_membership(G, verdict.house)


def complete_block(s):
    return build_graph(s, 2, [(u, v, 1) for u in range(s) for v in range(u + 1, s)])


def test_gen_substitution_deleting_vertices():
    base = gen_p42(1)
    sizes = [1, 0, 1, 1]
    inner = [complete_block(s) for s in sizes]
    G = gen_substitution(base, sizes, inner)
    assert G.n == 3
    with pytest.raises(ValueError):
        gen_substitution(base, [1, 1, 1], [complete_block(1)] * 3)
    with pytest.raises(ValueError):
        gen_substitution(base, [2, 1, 1, 1], [complete_block(1)] * 4)
    with pytest.raises(ValueError, match=r"sizes\[1\]=-1 does not match inner graph order 0"):
        gen_substitution(base, [1, -1, 1, 1], [complete_block(s) for s in (1, 0, 1, 1)])


def test_gen_random_alpha2_contract():
    for seed in range(150):
        n = 2 + seed % 22
        p = 0.05 + 0.9 * (seed % 10) / 10
        G = gen_random_alpha2(n, p, seed)
        alpha = brute_alpha(G) if n <= 10 else independence_number(G)[0]
        assert alpha == 2
    # determinism
    a = gen_random_alpha2(12, 0.4, seed=77)
    b = gen_random_alpha2(12, 0.4, seed=77)
    assert a == b
    c = gen_random_alpha2(12, 0.4, seed=78)
    assert a != c
    # p = 1: the triangle-free pass greedily builds the star at vertex 0,
    # so the output is its complement, a K5 plus the isolated vertex 0
    full = gen_random_alpha2(6, 1.0, seed=1)
    assert {(u, v) for u, v, _ in full.edges()} == {
        (u, v) for u in range(1, 6) for v in range(u + 1, 6)
    }
    with pytest.raises(ValueError):
        gen_random_alpha2(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_random_alpha2(5, 0.0, seed=0)
    with pytest.raises(ValueError):
        gen_random_alpha2(5, 1.5, seed=0)

