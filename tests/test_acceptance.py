"""Acceptance suite: ten numbered criteria, one test each.

Every test prints a single summary line with the measured quantities; run
with `pytest -v` for the pass/fail table or `-s` to see the numbers. Time
budgets are asserted inside the tests that carry one.
"""

import itertools
import random
import statistics
import time

import pytest

from conftest import dp_min_cover, rand_colored
from monocover.classify import (
    DiamPattern,
    check_house_membership,
    classify_complete,
    spanning_mono_small_diameter,
)
from monocover.covers import cover_alpha2, cover_general, cover_near_split, cover_stars, detect_near_split
from monocover.generators import (
    gen_antihole,
    gen_k7_triple,
    gen_matching_complement,
    gen_p42,
    gen_random_alpha2,
    gen_substitution,
    house_skeleton,
)
from monocover.graph import (
    ColoredGraph,
    _mask_diameter,
    build_graph,
    independence_number,
    verify_cover,
)
from monocover.oracle import exists_bounds_cover, min_cover_exact
from monocover.search import HasBoundsCover, enumerate_colorings

K7_PAIRS = tuple((u, v) for u in range(7) for v in range(u + 1, 7))


def k7_coloring(bits):
    return ColoredGraph(7, 2, {pair: 1 + ((bits >> i) & 1) for i, pair in enumerate(K7_PAIRS)})


def all_colorings(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        yield ColoredGraph(n, 2, {p: 1 + ((bits >> i) & 1) for i, p in enumerate(pairs)})


@pytest.mark.slow
def test_criterion_01_spanning_mono_exhaustive_k7():
    """Every 2-coloring of K7 has a spanning monochromatic piece of
    diameter at most 3; checked for all 2^21 colorings within 5 minutes."""
    start = time.perf_counter()
    checked = 0
    for bits in range(1 << 21):
        G = k7_coloring(bits)
        comp = spanning_mono_small_diameter(G)
        assert len(comp.vertices) == 7
        d = _mask_diameter(G.color_rows[comp.color - 1], G.full_mask)
        assert d <= 3, f"coloring {bits}: color {comp.color} has diameter {d}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1 << 21
    assert elapsed <= 300, f"took {elapsed:.0f}s, budget 300s"
    print(f"criterion 1 PASS: {checked} colorings of K7, all diameter <= 3, {elapsed:.0f}s")


def expected_case(d1, d2):
    big, small = (d1, d2) if d1 > d2 else (d2, d1)
    if big > 3:
        return DiamPattern.OVER_THREE
    if big == 3 and small == 3:
        return DiamPattern.BOTH_THREE
    if big == 3:
        return DiamPattern.THREE_TWO
    return DiamPattern.BOTH_TWO


def base_pairs(G, color):
    rows = G.color_rows[color - 1]
    out = []
    for (u, v), c in G.edge_color.items():
        if c == color and (rows[u] | rows[v] | (1 << u) | (1 << v)) == G.full_mask:
            out.append((u, v))
    return out


@pytest.mark.slow
def test_criterion_02_classification_exhaustive():
    """The four-way diameter classification agrees with directly computed
    diameters on every 2-coloring of K_n for n = 2..7, and each case's
    witnesses check out."""
    start = time.perf_counter()
    checked = 0
    cases = {case: 0 for case in DiamPattern}
    for n in range(2, 8):
        full = (1 << n) - 1
        for G in all_colorings(n):
            d1 = _mask_diameter(G.color_rows[0], full)
            d2 = _mask_diameter(G.color_rows[1], full)
            verdict = classify_complete(G)
            assert verdict.case is expected_case(d1, d2), (n, d1, d2, verdict.case)
            cases[verdict.case] += 1
            if verdict.case is DiamPattern.OVER_THREE:
                h = verdict.house
                assert check_house_membership(G, h)
                assert _mask_diameter(G.color_rows[h.house_color - 1], full) <= 2
            elif verdict.case is DiamPattern.BOTH_THREE:
                b1, b2 = verdict.bases
                assert not set(b1) & set(b2)
                assert b1 in base_pairs(G, 1) and b2 in base_pairs(G, 2)
            elif verdict.case is DiamPattern.THREE_TWO:
                u, v = verdict.double_star_base
                color = verdict.double_star_color
                rows = G.color_rows[color - 1]
                assert G.color_of(min(u, v), max(u, v)) == color
                assert rows[u] | rows[v] | (1 << u) | (1 << v) == full
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == sum(1 << (n * (n - 1) // 2) for n in range(2, 8))
    summary = ", ".join(f"{k.value}: {v}" for k, v in cases.items())
    print(f"criterion 2 PASS: {checked} colorings classified ({summary}), {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_03_cross_base_property():
    """Base edges of the two colors use disjoint vertices, and every cross
    pair induces a K4 whose both color classes are 3-edge paths; exhaustive
    for n <= 7."""
    start = time.perf_counter()
    checked = 0
    cross_pairs = 0
    for n in range(2, 8):
        for G in all_colorings(n):
            b1 = base_pairs(G, 1)
            b2 = base_pairs(G, 2)
            checked += 1
            if not b1 or not b2:
                continue
            verts1 = set(itertools.chain.from_iterable(b1))
            verts2 = set(itertools.chain.from_iterable(b2))
            assert not verts1 & verts2, (n, b1, b2)
            for e1 in b1:
                for e2 in b2:
                    quad = sorted(set(e1) | set(e2))
                    for color in (1, 2):
                        degs = sorted(
                            sum(
                                1
                                for u in quad
                                if u != v and G.color_of(min(u, v), max(u, v)) == color
                            )
                            for v in quad
                        )
                        assert degs == [1, 1, 2, 2], (n, e1, e2, color)
                    cross_pairs += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 3 PASS: {checked} colorings, {cross_pairs} cross base pairs "
        f"all spanning the double-path K4, {elapsed:.0f}s"
    )


def test_criterion_04_alpha2_covers_at_scale():
    """cover_alpha2 emits at most 2 verified components with bounds <= 4 on
    10000 random independence-2 instances plus the small antiholes; median
    per-instance time <= 50 ms."""
    instances = []
    for k in (2, 3, 4, 5):
        G = gen_antihole(k)
        if 2 * k + 1 <= 11:
            s = detect_near_split(G)
            assert s is not None, f"antihole on {2*k+1} vertices must have the near-split shape"
        instances.append(G)
    for i in range(10_000):
        n = 5 + i % 20  # 5..24
        p = 0.1 + 0.85 * (i % 17) / 17
        instances.append(gen_random_alpha2(n, p, seed=i))
    times = []
    for G in instances:
        t = time.perf_counter()
        cert = cover_alpha2(G)
        times.append(time.perf_counter() - t)
        verdict = verify_cover(G, cert)
        assert verdict, verdict.reason
        assert len(cert) <= 2
        assert all(b <= 4 for b in cert.bounds())
    median = statistics.median(times)
    assert median <= 0.050, f"median {median*1000:.1f} ms over budget"
    print(
        f"criterion 4 PASS: {len(instances)} instances covered by <= 2 components, "
        f"median {median*1000:.2f} ms, max {max(times)*1000:.1f} ms"
    )


def test_criterion_05_near_split_cover_and_sharpness():
    """The doubly-Hamiltonian 7-vertex antihole has a verified cover with
    bounds (3,3) but no cover by two diameter-2 components."""
    G = gen_antihole(3)
    s = detect_near_split(G)
    assert s is not None
    cert = cover_near_split(G, s)
    verdict = verify_cover(G, cert)
    assert verdict, verdict.reason
    assert len(cert) == 2
    assert all(b <= 3 for b in cert.bounds())
    assert exists_bounds_cover(G, [2, 2]) is None
    print(
        f"criterion 5 PASS: (3,3)-cover found (achieved bounds {cert.bounds()}), "
        "no (2,2)-cover exists"
    )


def test_criterion_06_sharpness_values():
    """Exact minimum 2-component values on the three sharpness instances."""
    vals = []
    for G, d, expected in (
        (gen_p42(1), 2, 2),
        (gen_p42(2), 2, 4),
        (gen_k7_triple(1), 2, 3),
    ):
        k, cert = min_cover_exact(G, d)
        assert k == expected, f"expected {expected}, got {k}"
        assert verify_cover(G, cert)
        vals.append(k)
    print(f"criterion 6 PASS: minimum covers at diameter 2 are {vals} as required")


def _mixed_corpus():
    """5000+ seeded 2-colored graphs, n <= 18, across several families."""
    corpus = []
    rng = random.Random(20240817)
    for i in range(3400):
        n = 3 + i % 16  # 3..18
        corpus.append(rand_colored(n, 0.12 + 0.85 * (i % 13) / 13, seed=90_000 + i))
    for i in range(800):
        corpus.append(gen_random_alpha2(4 + i % 15, 0.2 + 0.6 * (i % 7) / 7, seed=17_000 + i))
    for i in range(400):
        k = 2 + i % 4
        base = gen_antihole(k)
        corpus.append(
            build_graph(base.n, 2, [(u, v, rng.randrange(1, 3)) for u, v, _ in base.edges()])
        )
    for i in range(200):
        corpus.append(gen_p42(1 + i % 4))
    for n in (4, 6, 8, 10, 12, 14, 16, 18):
        corpus.append(gen_matching_complement(n))
    for i in range(200):
        sizes = [1 + (i >> j) % 3 for j in range(5)]
        if sum(sizes) <= 18:
            inner = [
                build_graph(s, 2, [(a, b, 1) for a in range(s) for b in range(a + 1, s)])
                for s in sizes
            ]
            corpus.append(gen_substitution(house_skeleton(), sizes, inner))
    return corpus


def test_criterion_07_general_cover_bound():
    """cover_general stays within floor(3*alpha/2) verified components of
    diameter <= 4 on a 5000+ mixed corpus; on the n <= 12 subset the exact
    oracle confirms no smaller count was available to it."""
    corpus = _mixed_corpus()
    assert len(corpus) >= 5000
    start = time.perf_counter()
    oracle_checked = 0
    for G in corpus:
        alpha = independence_number(G)[0]
        cert = cover_general(G)
        verdict = verify_cover(G, cert)
        assert verdict, verdict.reason
        assert len(cert) <= max(1, 3 * alpha // 2), (G.n, alpha, len(cert))
        assert all(b <= 4 for b in cert.bounds())
        if G.n <= 12:
            kmin, _ = min_cover_exact(G, 4)
            assert kmin <= len(cert)
            oracle_checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7 PASS: {len(corpus)} instances within floor(3a/2), "
        f"{oracle_checked} oracle-dominance checks, {elapsed:.0f}s"
    )


def test_criterion_08_star_cover_bound():
    """cover_stars uses at most r*alpha verified diameter-<=2 components on
    the mixed corpus and on 3-colored K7-triple recolorings."""
    corpus = _mixed_corpus()
    rng = random.Random(7777)
    three_colored = []
    for i in range(300):
        host = gen_k7_triple(1 + i % 2)
        three_colored.append(
            build_graph(host.n, 3, [(u, v, rng.randrange(1, 4)) for u, v, _ in host.edges()])
        )
        three_colored.append(gen_k7_triple(1 + i % 2))
    checked = 0
    for G in corpus + three_colored:
        alpha = independence_number(G)[0]
        cert = cover_stars(G)
        verdict = verify_cover(G, cert)
        assert verdict, verdict.reason
        assert len(cert) <= G.r * alpha, (G.n, G.r, alpha, len(cert))
        assert all(b <= 2 for b in cert.bounds())
        checked += 1
    print(f"criterion 8 PASS: {checked} instances covered by <= r*alpha stars")


def test_criterion_09_oracle_self_consistency():
    """On 500 seeded random colored graphs with n <= 8, the minimum over
    maximal candidates equals the minimum over all qualifying subsets
    computed by an independent reference."""
    agreements = 0
    for i in range(500):
        n = 2 + i % 7  # 2..8
        r = 2 + i % 2
        G = rand_colored(n, 0.15 + 0.8 * (i % 11) / 11, seed=300_000 + i, r=r)
        d = 1 + i % 3
        k, cert = min_cover_exact(G, d)
        assert k == dp_min_cover(G, d), (n, r, d, i)
        assert verify_cover(G, cert)
        agreements += 1
    print(f"criterion 9 PASS: {agreements} instances, restricted and unrestricted minima agree")


def test_criterion_10_search_instrument():
    """Exhaustive search over all 8192 canonical 2-colorings of the 7-vertex
    antihole: every coloring has a (3,3)-cover, at least one has no
    (2,2)-cover, reports identical for 1 and 8 workers, within 10 minutes."""
    start = time.perf_counter()
    host = gen_antihole(3)
    r33 = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), jobs=1)
    assert r33.space == 8192 and r33.total == 8192
    assert r33.ok_count == 8192 and r33.fail_count == 0
    assert not r33.partial
    r33_par = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), jobs=8)
    assert r33 == r33_par
    r22 = enumerate_colorings(host, 2, HasBoundsCover((2, 2)), jobs=1)
    assert r22.fail_count >= 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 600, f"took {elapsed:.0f}s, budget 600s"
    print(
        f"criterion 10 PASS: 8192 colorings all (3,3)-coverable, "
        f"{r22.fail_count} lack a (2,2)-cover, worker counts agree, {elapsed:.0f}s"
    )
