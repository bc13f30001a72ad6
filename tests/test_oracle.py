import hashlib
import itertools
from collections import Counter

import pytest

from conftest import (
    bounds_cover_reachable,
    clique_dfs_candidates,
    dp_min_cover,
    qualifying_masks,
    rand_colored,
    unreachable_after,
)
from monocover import oracle
from monocover.generators import gen_antihole, gen_k7_triple, gen_p42
from monocover.graph import (
    CoverCertificate,
    CoverComponent,
    LimitExceeded,
    build_graph,
    format_certificate,
    vertex_set,
    verify_cover,
)
from monocover.oracle import exists_bounds_cover, maximal_candidates, min_cover_exact, two_piece_cover


def test_min_cover_frozen_values():
    P = gen_p42(1)
    for d, expected in ((2, 2), (3, 1), (4, 1)):
        k, cert = min_cover_exact(P, d)
        assert k == expected
        assert verify_cover(P, cert)
        assert len(cert) == k

    k, cert = min_cover_exact(gen_p42(2), 2)
    assert k == 4 and verify_cover(gen_p42(2), cert)

    T = gen_k7_triple(1)
    k, cert = min_cover_exact(T, 2)
    assert k == 3 and verify_cover(T, cert)


def test_min_cover_agrees_with_reference():
    for seed in range(60):
        n = 2 + seed % 7
        r = 2 + seed % 2
        G = rand_colored(n, 0.2 + 0.7 * (seed % 8) / 8, seed=4000 + seed, r=r)
        for d in (1, 2, 3):
            k, cert = min_cover_exact(G, d)
            assert k == dp_min_cover(G, d), (n, r, d, seed)
            assert verify_cover(G, cert)
            assert len(cert) == k
            assert all(c.bound <= d for c in cert.components)


FROZEN_MIN_COVER_DIGEST = "fa8617418a8bf4748ddbaf70410abc85bc57333138d17bce0519b1cf5699143c"


def test_min_cover_certificates_frozen():
    """min_cover_exact's certificates (which minimum cover, in which order)
    are byte-identical to the frozen digest over a seeded corpus."""
    digest = hashlib.sha256()
    for seed in range(400):
        G = rand_colored(1 + seed % 10, 0.2 + 0.8 * (seed % 5) / 4, seed=7700 + seed, r=2 + seed % 3 // 2)
        for d in range(5):
            k, cert = min_cover_exact(G, d)
            digest.update(f"{k}\n{format_certificate(cert)}\0".encode())
    assert digest.hexdigest() == FROZEN_MIN_COVER_DIGEST


def test_min_cover_monotone_in_d():
    for seed in range(20):
        G = rand_colored(7, 0.5, seed=8800 + seed)
        values = [min_cover_exact(G, d)[0] for d in range(5)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_min_cover_degenerate():
    empty = build_graph(0, 2, [])
    assert min_cover_exact(empty, 3) == (0, min_cover_exact(empty, 3)[1])
    single = build_graph(1, 2, [])
    k, cert = min_cover_exact(single, 0)
    assert k == 1 and verify_cover(single, cert)
    # d = 0 forces singletons
    K4 = build_graph(4, 2, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)])
    assert min_cover_exact(K4, 0)[0] == 4


def test_maximal_candidates_properties():
    """The family is exactly the inclusion-maximal qualifying masks of each
    color, by the Floyd-Warshall reference, as (color, mask) pairs sorted
    without repeats, for n = 0..7, r = 1..3 and d = 0..4: empty at n = 0,
    the singletons of every color at d = 0."""
    for n in range(8):
        for r in (1, 2, 3):
            for k, p in enumerate((0.3, 0.6, 0.9)):
                G = rand_colored(n, p, seed=2000 + 100 * n + 10 * r + k, r=r)
                for d in range(5):
                    listed = maximal_candidates(G, d)
                    expected = set()
                    for color in range(1, r + 1):
                        qual = qualifying_masks(G, color, d)
                        expected |= {(color, m) for m in qual if not any(m != t and m & t == m for t in qual)}
                    assert listed == sorted(expected), (n, r, p, d)
                    if n == 0:
                        assert listed == []
                    if d == 0:
                        assert listed == [(c, 1 << v) for c in range(1, r + 1) for v in range(n)]


def test_maximal_candidates_match_unpruned_dfs():
    """Skipping every subtree whose whole extension is already a d-club loses
    no maximal set: the families equal the unpruned clique search's on random
    graphs with n <= 11, r = 1..3 and d = 0..4, and on the sharpness
    instances at d = 1..4."""
    for seed in range(120):
        n = seed % 12
        r = 1 + seed % 3
        G = rand_colored(n, 0.15 + 0.85 * (seed % 7) / 6, seed=5100 + seed, r=r)
        for d in range(5):
            assert maximal_candidates(G, d) == clique_dfs_candidates(G, d), (seed, n, r, d)
    for G in (gen_p42(4), gen_k7_triple(2)):
        for d in range(1, 5):
            assert maximal_candidates(G, d) == clique_dfs_candidates(G, d), (G.n, d)


def test_maximal_candidates_skip_club_subtrees(monkeypatch):
    """On a complete 2-colored K16 at d = 3 and d = 4 nearly every vertex set
    is a clique of each color's d-th power (the unpruned search tests 131,070
    of them), but few DFS nodes have an extension that is not a d-club:
    fewer than 2,000 diameter tests per call."""
    calls = [0]
    test = oracle._mask_diam_le

    def counted(*args):
        calls[0] += 1
        return test(*args)

    monkeypatch.setattr(oracle, "_mask_diam_le", counted)
    for seed in (1, 2, 3):
        G = rand_colored(16, 1.0, seed=seed)
        for d in (3, 4):
            calls[0] = 0
            maximal_candidates(G, d)
            assert 0 < calls[0] < 2000, (seed, d, calls[0])


def test_oracle_search_node_budget(monkeypatch):
    """The cover search counts its nodes over all of min_cover_exact's
    searches, and past MAX_SEARCH_NODES raises LimitExceeded."""
    G = rand_colored(10, 0.4, seed=31)
    per_search = []
    search = oracle._search

    def counted(*args):
        try:
            return search(*args)
        finally:
            per_search.append(args[-1][0] - sum(per_search))

    monkeypatch.setattr(oracle, "_search", counted)
    expected = min_cover_exact(G, 1)
    total = sum(per_search)
    assert len(per_search) > 1 and max(per_search) < total
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", total)
    assert min_cover_exact(G, 1) == expected
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", total - 1)
    with pytest.raises(LimitExceeded, match="cover search exceeds"):
        min_cover_exact(G, 1)
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", 1)
    with pytest.raises(LimitExceeded, match="cover search exceeds 1 nodes"):
        exists_bounds_cover(G, [1] * expected[0])


def test_oracle_calls_leave_no_reference_cycles():
    """Everything an oracle call allocates is freed by reference counting: no
    recursive closure keeps its lists alive."""
    G = rand_colored(12, 0.4, seed=12)
    calls = ((maximal_candidates, 2), (min_cover_exact, 2), (exists_bounds_cover, [2, 2, 2]))
    for fn, arg in calls:
        assert unreachable_after(lambda: fn(G, arg)) == 0, fn.__name__


def test_exists_bounds_cover_basics():
    A = gen_antihole(3)
    assert exists_bounds_cover(A, [2, 2]) is None
    cert = exists_bounds_cover(A, [3, 3])
    assert cert is not None and verify_cover(A, cert)
    # color 1 spans the 7-antihole with diameter 3: one component, no repeats
    assert len(cert) == 1
    cert = exists_bounds_cover(A, [4, 4, 4])
    assert len(cert) == 1 and cert.components[0].vertices == frozenset(range(7))
    # order of bounds does not change existence
    got = exists_bounds_cover(A, [2, 3])
    same = exists_bounds_cover(A, [3, 2])
    assert (got is None) == (same is None)

    P = gen_p42(1)
    assert exists_bounds_cover(P, [2]) is None
    cert = exists_bounds_cover(P, [2, 2])
    assert cert is not None and len(cert) == 2
    for comp, d in zip(cert.components, (2, 2)):
        assert comp.bound <= d

    with pytest.raises(ValueError):
        exists_bounds_cover(P, [])


def test_exists_bounds_cover_matches_reference():
    lists = [list(t) for k in (1, 2, 3) for t in itertools.product(range(4), repeat=k)]
    answers = set()
    for seed in range(150):
        n = seed % 8
        G = rand_colored(n, 0.3 + 0.6 * (seed % 5) / 4, seed=6100 + seed, r=2 + seed % 3 // 2)
        for bounds in lists:
            cert = exists_bounds_cover(G, bounds)
            answers.add(cert is not None)
            assert (cert is not None) == bounds_cover_reachable(G, bounds), (seed, bounds)
            if cert is None:
                continue
            assert verify_cover(G, cert)
            assert len({(c.color, c.vertices) for c in cert.components}) == len(cert) <= len(bounds)
            # the achieved diameters fit distinct entries of bounds
            got = sorted(cert.bounds(), reverse=True)
            assert all(b <= d for b, d in zip(got, sorted(bounds, reverse=True))), (seed, bounds)
    assert answers == {True, False}


def test_exists_bounds_cover_matches_min_cover():
    for seed in range(40):
        G = rand_colored(2 + seed % 6, 0.5, seed=3000 + seed)
        for d in (1, 2, 3):
            k, _ = min_cover_exact(G, d)
            assert exists_bounds_cover(G, [d] * k) is not None
            if k > 1:
                assert exists_bounds_cover(G, [d] * (k - 1)) is None


def test_oracle_size_limit():
    big = build_graph(19, 2, [])
    with pytest.raises(LimitExceeded):
        min_cover_exact(big, 2)
    with pytest.raises(LimitExceeded):
        maximal_candidates(big, 2)
    with pytest.raises(LimitExceeded):
        exists_bounds_cover(big, [2])
    assert min_cover_exact(big, 2, max_n=19)[0] == 19


def test_negative_size_limit_is_refused():
    G = gen_p42(1)
    for call in (min_cover_exact, maximal_candidates):
        with pytest.raises(ValueError, match="max_n must be >= 0, got -1"):
            call(G, 2, max_n=-1)
    with pytest.raises(ValueError, match="max_n must be >= 0, got -2"):
        exists_bounds_cover(G, [2, 2], max_n=-2)


def all_two_colored(n):
    """Every 2-colored graph on n vertices: each pair absent, color 1 or color 2."""
    pairs = list(itertools.combinations(range(n), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        yield build_graph(n, 2, [(u, v, c) for (u, v), c in zip(pairs, states) if c])


def test_two_piece_cover_is_a_certificate_the_oracle_agrees_with():
    graphs = [G for n in range(5) for G in all_two_colored(n)]
    graphs += [rand_colored(5 + s % 5, 0.3 + 0.1 * (s % 7), seed=7700 + s, r=2 + s % 2) for s in range(500)]
    lists = [(1, 2), (2, 3), (1, 1, 1), (3,)] + [b for d in range(5) for b in ((d,), (d, d), (d, d + 1))]
    fired = Counter()
    for G in graphs:
        for bounds in lists:
            pieces = two_piece_cover(G, bounds)
            fired[len(pieces) if pieces is not None else None] += 1
            if len(bounds) == 1:
                # one entry: a spanning color is the only possible cover
                assert (pieces is None) == (exists_bounds_cover(G, bounds) is None), (G, bounds)
            if pieces is None:
                continue
            cert = CoverCertificate(tuple(CoverComponent(c, vertex_set(m), b) for c, m, b in pieces))
            assert verify_cover(G, cert), (G, bounds)
            assert Counter(cert.bounds()) <= Counter(bounds), (G, bounds)
            assert exists_bounds_cover(G, bounds) is not None, (G, bounds)
            if len(bounds) == 2 and bounds[0] == bounds[1]:
                assert len(cert) == min_cover_exact(G, bounds[0])[0], (G, bounds)
    assert fired[0] and fired[1] and fired[2] and fired[None]


def test_two_piece_cover_refuses_what_the_oracle_refuses():
    one, big = build_graph(1, 2, []), build_graph(19, 2, [])
    for G, bounds, error in (
        (one, [], ValueError),
        (one, [-1], ValueError),
        (one, [2, -1, -3], ValueError),
        (big, [2, 2], LimitExceeded),
    ):
        with pytest.raises(error) as expected:
            exists_bounds_cover(G, bounds)
        with pytest.raises(error) as got:
            two_piece_cover(G, bounds)
        assert str(got.value) == str(expected.value), bounds
    with pytest.raises(ValueError, match="diameter bound must be >= 0, got -1"):
        two_piece_cover(one, [-1])
    # n = 0 gives no pieces, as the oracle gives an empty certificate
    empty = build_graph(0, 2, [])
    assert len(two_piece_cover(empty, [0])) == len(exists_bounds_cover(empty, [0])) == 0
