import itertools
import random

import pytest

from conftest import complete_colored, spanning_color
from monocover.classify import (
    DiamPattern,
    _spanning_mono_within,
    check_house_membership,
    classify_complete,
    double_star_bases,
    spanning_mono_small_diameter,
)
from monocover.generators import gen_p42, house_skeleton
from monocover.graph import UNREACHABLE, build_graph, induced_subgraph, mono_diameter, vertex_set, verify_cover
from monocover.graph import CoverCertificate


def all_two_colorings(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield build_graph(
            n, 2, [(u, v, 1 + ((bits >> i) & 1)) for i, (u, v) in enumerate(pairs)]
        )


def expected_case(d1, d2):
    big, small = (d1, d2) if d1 > d2 else (d2, d1)
    if big > 3:
        return DiamPattern.OVER_THREE
    if big == 3 and small == 3:
        return DiamPattern.BOTH_THREE
    if big == 3:
        return DiamPattern.THREE_TWO
    return DiamPattern.BOTH_TWO


def is_base_pair(G, color, u, v):
    """(u,v) is a double-star base in `color`: the edge has that color and
    every other vertex sees u or v in it."""
    if G.color_of(u, v) != color:
        return False
    rows = G.color_rows[color - 1]
    reach = rows[u] | rows[v] | (1 << u) | (1 << v)
    return reach == G.full_mask


def test_exhaustive_classification_small():
    for n in (2, 3, 4, 5):
        for G in all_two_colorings(n):
            d1 = mono_diameter(G, 1, range(n))
            d2 = mono_diameter(G, 2, range(n))
            verdict = classify_complete(G)
            assert verdict.case is expected_case(d1, d2)
            assert verdict.diameters == (d1, d2)
            # exactly one case holds by construction of the partition
            if verdict.case is DiamPattern.OVER_THREE:
                h = verdict.house
                assert check_house_membership(G, h)
                # the small color spans with diameter <= 2
                assert mono_diameter(G, h.house_color, range(n)) <= 2
            elif verdict.case is DiamPattern.BOTH_THREE:
                b1, b2 = verdict.bases
                assert is_base_pair(G, 1, *b1)
                assert is_base_pair(G, 2, *b2)
                assert not set(b1) & set(b2)
            elif verdict.case is DiamPattern.THREE_TWO:
                assert is_base_pair(G, verdict.double_star_color, *verdict.double_star_base)
                assert mono_diameter(G, verdict.double_star_color, range(n)) == 2
            else:
                assert d1 <= 2 and d2 <= 2


def test_classification_rejects_bad_input():
    incomplete = build_graph(3, 2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        classify_complete(incomplete)
    three_colors = build_graph(2, 3, [(0, 1, 3)])
    with pytest.raises(ValueError):
        classify_complete(three_colors)
    single = build_graph(1, 2, [])
    with pytest.raises(ValueError):
        classify_complete(single)


def test_house_skeleton_is_over_three():
    G = house_skeleton()
    verdict = classify_complete(G)
    assert verdict.case is DiamPattern.OVER_THREE
    assert check_house_membership(G, verdict.house)
    # the house pattern lives in the small color, here color 1
    assert verdict.house.house_color == 1
    assert verdict.diameters == (2, 4)
    assert mono_diameter(G, 2, range(5)) > 3


def test_house_membership_rejects_wrong_partition():
    G = house_skeleton()
    dec = classify_complete(G).house
    import dataclasses

    broken = dataclasses.replace(dec, a5=dec.a5 | {dec.x1})
    with pytest.raises(ValueError):
        check_house_membership(G, broken)


def test_p42_is_both_three():
    G = gen_p42(1)
    verdict = classify_complete(G)
    assert verdict.case is DiamPattern.BOTH_THREE
    assert verdict.diameters == (3, 3)


def test_double_star_bases_listing():
    G = gen_p42(1)
    for color in (1, 2):
        bases = double_star_bases(G, color)
        assert bases, "a spanning double star exists in each color of this graph"
        for u, v in bases:
            assert is_base_pair(G, color, u, v)
    # complete lists: every base pair is found
    for seed in range(10):
        H = complete_colored(6, seed=400 + seed)
        for color in (1, 2):
            listed = set(double_star_bases(H, color))
            every = {
                (u, v)
                for u, v in itertools.combinations(range(6), 2)
                if is_base_pair(H, color, u, v)
            }
            assert listed == every


def test_cross_base_pairs_span_p42():
    """Base edges of the two colors are vertex-disjoint, and any color-1 base
    plus any color-2 base induces a K4 whose both color classes are paths."""
    for n in range(2, 8):
        for seed in range(60):
            G = complete_colored(n, seed=1000 * n + seed)
            b1 = double_star_bases(G, 1)
            b2 = double_star_bases(G, 2)
            for e1 in b1:
                for e2 in b2:
                    assert not set(e1) & set(e2)
                    quad = sorted(set(e1) | set(e2))
                    for color in (1, 2):
                        deg = {
                            v: sum(
                                1
                                for u in quad
                                if u != v and G.color_of(min(u, v), max(u, v)) == color
                            )
                            for v in quad
                        }
                        assert sorted(deg.values()) == [1, 1, 2, 2]


def test_spanning_mono_small_diameter_examples():
    all_red = build_graph(3, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    comp = spanning_mono_small_diameter(all_red)
    assert comp.color == 1 and comp.vertices == frozenset(range(3)) and comp.bound <= 1

    G = gen_p42(1)
    comp = spanning_mono_small_diameter(G)
    assert comp.vertices == frozenset(range(4))
    assert comp.bound == 3
    assert verify_cover(G, CoverCertificate((comp,)))

    H = house_skeleton()
    comp = spanning_mono_small_diameter(H)
    assert comp.color == 1 and comp.bound <= 2


def classifier_color(verdict):
    """The spanning color a classifier verdict implies: the house color, the
    double-star color of THREE_TWO, and color 1 when the diameters agree."""
    if verdict.case is DiamPattern.OVER_THREE:
        return verdict.house.house_color
    if verdict.case is DiamPattern.THREE_TWO:
        return verdict.double_star_color
    return 1


def spanning_pick(G, mask):
    """(color, bound) of the component _spanning_mono_within builds on the
    mask, after checking that it spans exactly the mask."""
    comp = _spanning_mono_within(G, mask)
    assert comp.vertices == vertex_set(mask)
    return comp.color, comp.bound


def test_spanning_color_is_the_smaller_diameter():
    for n in range(1, 7):
        for G in all_two_colorings(n):
            expected = spanning_color(G, G.full_mask)
            assert spanning_pick(G, G.full_mask) == expected
            if n >= 2:
                assert classifier_color(classify_complete(G)) == expected[0]
    rng = random.Random(4242)
    for n in range(8, 25):
        for _ in range(12):
            p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            G = build_graph(n, 2, [(u, v, 1 if rng.random() < p else 2) for u, v in pairs])
            mask = rng.getrandbits(n) or 1
            expected = spanning_color(G, mask)
            assert spanning_pick(G, mask) == expected, (n, mask)
            if mask & (mask - 1):
                sub, _labels = induced_subgraph(G, vertex_set(mask))
                assert classifier_color(classify_complete(sub)) == expected[0]
