import hashlib
import io
import itertools
import math
import multiprocessing
import random

import pytest

from conftest import unreachable_after
from monocover import cli, search
from monocover.generators import gen_antihole, gen_matching_complement, gen_p42
from monocover.graph import LimitExceeded, build_graph, format_graph
from monocover.oracle import exists_bounds_cover, min_cover_exact
from monocover.search import (
    ConstructiveMatchesOracle,
    HasBoundsCover,
    MinCoverAtMost,
    MinCoverDistribution,
    apply_coloring,
    count_canonical,
    enumerate_colorings,
    format_report,
    min_cover_distribution,
)
from monocover.search import _edge_automorphisms, _least_strings, _rgs_rank, _rgs_unrank, _rgs_ways, _trie


def complete_host(n):
    return build_graph(n, 2, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


def brute_canonical(m, r):
    """All canonical color strings by exhaustive relabeling, lexicographically."""
    seen = set()
    for raw in itertools.product(range(r), repeat=m):
        relabel = {}
        canon = []
        for d in raw:
            if d not in relabel:
                relabel[d] = len(relabel)
            canon.append(relabel[d])
        seen.add(tuple(canon))
    return sorted(seen)


def test_count_canonical_values():
    assert count_canonical(0, 2) == 1
    assert count_canonical(6, 2) == 32
    assert count_canonical(14, 2) == 8192
    assert count_canonical(5, 1) == 1
    assert count_canonical(3, 3) == 5  # set-partition count of 3 items
    for m in range(0, 7):
        for r in (0, 1, 2, 3):
            assert count_canonical(m, r) == len(brute_canonical(m, r))
    with pytest.raises(ValueError, match="^count_canonical: m must be >= 0, got -1$"):
        count_canonical(-1, 2)
    with pytest.raises(ValueError, match="^count_canonical: r must be >= 0, got -2$"):
        count_canonical(3, -2)


def test_unrank_and_successor_agree():
    for m, r in ((0, 2), (3, 2), (5, 2), (4, 3), (3, 4)):
        ways = _rgs_ways(m, r)
        ref = brute_canonical(m, r)
        # with no group, the walk yields every string, in order, weight 1
        assert list(_least_strings(_rgs_unrank(0, m, r, ways), None, (), r, None)) == [(s, 1) for s in ref]
        for i, want in enumerate(ref):
            assert tuple(_rgs_unrank(i, m, r, ways)) == want
            assert _rgs_rank(list(want), ways) == i
        with pytest.raises(ValueError):
            _rgs_unrank(len(ref), m, r, ways)


def test_exhaustive_k4_min_cover_counts():
    host = complete_host(4)
    report = enumerate_colorings(host, 2, MinCoverAtMost(2, 1))
    assert report.space == 32 and report.total == 32
    assert not report.partial
    assert report.ok_count + report.fail_count == 32
    assert report.worst_badness == 2

    # independent recount over all 64 colorings; swap symmetry halves exactly
    pairs = sorted(host.edge_color)
    fails = 0
    for raw in itertools.product((1, 2), repeat=6):
        G = build_graph(4, 2, [(u, v, c) for (u, v), c in zip(pairs, raw)])
        if min_cover_exact(G, 2)[0] > 1:
            fails += 1
    assert fails == 2 * report.fail_count


def test_min_cover_distribution_k4_and_single_vertex():
    host = complete_host(4)
    hist, report = min_cover_distribution(host, 2, 2)
    assert hist == {1: 26, 2: 6}
    assert max(hist) == 2
    assert report.histogram == ((1, 26), (2, 6))
    assert report.ok_count == 32

    single = build_graph(1, 2, [])
    hist, report = min_cover_distribution(single, 2, 0)
    assert hist == {1: 1}
    assert report.space == 1


def test_parallel_reports_identical():
    host = gen_matching_complement(4)  # 4 edges -> 8 canonical colorings
    a = enumerate_colorings(host, 2, HasBoundsCover((2, 2)), jobs=1)
    b = enumerate_colorings(host, 2, HasBoundsCover((2, 2)), jobs=3)
    assert a == b
    host2 = complete_host(5)
    c = enumerate_colorings(host2, 2, MinCoverAtMost(2, 1), jobs=1)
    d = enumerate_colorings(host2, 2, MinCoverAtMost(2, 1), jobs=4)
    assert c == d
    h1, r1 = min_cover_distribution(host2, 2, 2, jobs=1)
    h2, r2 = min_cover_distribution(host2, 2, 2, jobs=4)
    assert h1 == h2 and r1 == r2


def test_chunks_through_a_spawn_pool_match_serial(monkeypatch):
    # a spawned worker inherits no memory: it gets its state with each chunk
    spawn = multiprocessing.get_context("spawn")

    class OneSpawnWorker:
        def Pool(self, _jobs):
            return spawn.Pool(1)

    monkeypatch.setattr(search, "get_context", lambda _method: OneSpawnWorker())
    host = complete_host(5)
    h1, serial = min_cover_distribution(host, 2, 2, jobs=1)
    h2, pooled = min_cover_distribution(host, 2, 2, jobs=3)
    assert h1 == h2 and pooled == serial and pooled.jobs == 3
    assert pooled == enumerate_colorings(host, 2, Plain(MinCoverDistribution(2)))
    assert pooled.group_order == 120 and pooled.evaluations == serial.evaluations < pooled.total


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    started = []

    class InProcess:  # records each pool's worker count and maps in this process
        def Pool(self, workers):
            started.append(workers)
            return self

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, spans):
            return list(map(fn, spans))

    monkeypatch.setattr(search, "get_context", lambda _method: InProcess())
    two = build_graph(3, 2, [(0, 1, 1), (1, 2, 1)])  # 2 canonical colorings, 2 chunks
    for host, jobs in ((two, 8), (complete_host(5), 3)):
        for predicate in (HasBoundsCover((2, 2)), MinCoverDistribution(2)):
            serial = enumerate_colorings(host, 2, predicate, jobs=1)
            assert enumerate_colorings(host, 2, predicate, jobs=jobs) == serial
    assert started == [2, 2, 3, 3]


class FailsOnOneColoring:
    """Raises on the coloring 1,2,2,1 of a 4-edge host; module level, so a
    pool worker can unpickle it."""

    name = "fails-on-one-coloring"

    def evaluate(self, G):
        if tuple(c for _e, c in sorted(G.edge_color.items())) == (1, 2, 2, 1):
            raise ZeroDivisionError("boom")
        return True, 0


def test_predicate_fault_names_the_coloring(capsys, monkeypatch):
    host = gen_matching_complement(4)
    ordinal = brute_canonical(4, 2).index((0, 1, 1, 0))
    expected = f"coloring ordinal {ordinal}, colors 1,2,2,1: ZeroDivisionError: boom"
    for jobs in (1, 2):
        with pytest.raises(RuntimeError) as info:
            enumerate_colorings(host, 2, FailsOnOneColoring(), jobs=jobs)
        assert str(info.value) == expected, jobs

    # a size limit is not a fault: it passes unchanged and still exits 3
    big = build_graph(19, 2, [(0, 1, 1)])
    with pytest.raises(LimitExceeded):
        enumerate_colorings(big, 2, MinCoverAtMost(2, 1))
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(big)))
    assert cli.run(["search", "--colors", "2", "--predicate", "min-cover-atmost:2,1"]) == 3
    assert capsys.readouterr().err == "error: n=19 exceeds the oracle size limit 18\n"

    monkeypatch.setattr(cli, "_parse_predicate", lambda _text: FailsOnOneColoring())
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(host)))
    assert cli.run(["search", "--colors", "2", "--predicate", "any"]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_budget_cuts_run_partial():
    host = complete_host(5)  # 512 canonical colorings
    report = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), budget=100)
    assert report.partial and report.total == 100 and report.space == 512
    assert report.ok_count + report.fail_count == 100
    zero = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), budget=0)
    assert zero.partial and zero.total == 0 and zero.witness_ordinal is None


def test_sample_mode_deterministic():
    host = gen_antihole(3)
    a = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="sample", samples=50, seed=5)
    b = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="sample", samples=50, seed=5)
    assert a == b
    c = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="sample", samples=50, seed=6)
    assert c.mode == "sample" and c.total == 50
    assert a.ok_count + a.fail_count == 50
    par = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="sample", samples=50, seed=5, jobs=2)
    assert par == a
    with pytest.raises(ValueError):
        enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="sample", samples=0)
    with pytest.raises(ValueError):
        enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="nope")
    with pytest.raises(ValueError, match="only to sample mode"):
        enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="exhaustive", samples=5)


def test_witness_reverifies():
    host = complete_host(4)
    report = enumerate_colorings(host, 2, MinCoverAtMost(2, 1))
    G = apply_coloring(host, report.witness_colors)
    ok, badness = MinCoverAtMost(2, 1).evaluate(G)
    assert not ok and badness == report.worst_badness
    with pytest.raises(ValueError):
        apply_coloring(host, (1, 2))


def test_swap_symmetry_of_predicates():
    rng = random.Random(31)
    host = gen_antihole(2)
    pairs = sorted(host.edge_color)
    predicates = [HasBoundsCover((3, 3)), MinCoverAtMost(2, 2), ConstructiveMatchesOracle(4)]
    for _ in range(25):
        colors = tuple(rng.randrange(1, 3) for _ in pairs)
        swapped = tuple(3 - c for c in colors)
        G1 = apply_coloring(host, colors)
        G2 = apply_coloring(host, swapped)
        for pred in predicates:
            assert pred.evaluate(G1)[0] == pred.evaluate(G2)[0]


def test_constructive_matches_oracle_runs():
    host = complete_host(4)
    report = enumerate_colorings(host, 2, ConstructiveMatchesOracle(4))
    assert report.total == 32
    assert report.worst_badness >= 0
    if report.fail_count:
        G = apply_coloring(host, report.witness_colors)
        built = ConstructiveMatchesOracle(4).evaluate(G)
        assert built[1] == report.worst_badness


def test_has_bounds_cover_matches_oracle_directly():
    host = gen_matching_complement(6)
    report = enumerate_colorings(host, 2, HasBoundsCover((2, 2)))
    recount = 0
    pairs = sorted(host.edge_color)
    from monocover.search import _rgs_ways as ways_of

    ways = ways_of(len(pairs), 2)
    for i in range(report.space):
        digits = _rgs_unrank(i, len(pairs), 2, ways)
        G = apply_coloring(host, tuple(d + 1 for d in digits))
        if exists_bounds_cover(G, [2, 2]) is not None:
            recount += 1
    assert recount == report.ok_count


def key_value_block(report):
    """The key = value block of format_report, after its blank line."""
    return format_report(report).split("\n\n", 1)[1].splitlines()


def test_format_report_round_values():
    host = complete_host(4)
    report = enumerate_colorings(host, 2, MinCoverAtMost(2, 1))
    text = format_report(report)
    assert "ok_count = 26" in text
    assert "fail_count = 6" in text
    assert "worst_badness = 2" in text
    assert "symmetry_factor = 2" in text
    hist_text = format_report(min_cover_distribution(host, 2, 2)[1])
    assert "histogram = 1:26,2:6" in hist_text
    # the whole block, pinned for a report with a histogram, a partial one
    # with a witness, and one that decided nothing
    assert key_value_block(min_cover_distribution(host, 2, 2)[1]) == [
        "host = n=4 m=6", "r = 2", "predicate = min-cover-distribution(d=2)", "mode = exhaustive",
        "space = 32", "total = 32", "symmetry_factor = 2", "ok_count = 32", "fail_count = 0", "partial = 0",
        "budget = 67108864", "worst_badness = 2", "witness_ordinal = 13", "witness_colors = 1,1,2,2,1,2",
        "histogram = 1:26,2:6",
    ]  # fmt: skip
    assert key_value_block(enumerate_colorings(host, 2, MinCoverAtMost(2, 1), budget=20)) == [
        "host = n=4 m=6", "r = 2", "predicate = min-cover-atmost(d=2,k=1)", "mode = exhaustive",
        "space = 32", "total = 20", "symmetry_factor = 2", "ok_count = 17", "fail_count = 3", "partial = 1",
        "budget = 20", "worst_badness = 2", "witness_ordinal = 13", "witness_colors = 1,1,2,2,1,2",
    ]  # fmt: skip
    assert key_value_block(enumerate_colorings(host, 3, HasBoundsCover((2, 2)), budget=0)) == [
        "host = n=4 m=6", "r = 3", "predicate = has-bounds-cover(2,2)", "mode = exhaustive",
        "space = 122", "total = 0", "symmetry_factor = 6", "ok_count = 0", "fail_count = 0", "partial = 1",
        "budget = 0", "worst_badness = 0", "witness_ordinal = ", "witness_colors = ",
    ]  # fmt: skip


# -- orbit reduction ------------------------------------------------------------


class Plain:
    """Forwards a predicate without its `invariant` attribute, so the search
    evaluates every coloring: the reference for orbit-reduced reports."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.histogram = getattr(inner, "histogram", False)

    def evaluate(self, G):
        return self.inner.evaluate(G)


def random_host(rng, n):
    p = rng.choice((0.2, 0.5, 0.8, 1.0))
    return build_graph(n, 2, [(u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def brute_edge_automorphisms(host):
    pairs = sorted(host.edge_color)
    index = {e: i for i, e in enumerate(pairs)}
    perms = set()
    for s in itertools.permutations(range(host.n)):
        images = [tuple(sorted((s[u], s[v]))) for u, v in pairs]
        if all(e in index for e in images):
            perms.add(tuple(index[e] for e in images))
    perms.discard(tuple(range(len(pairs))))
    return sorted(perms)


def test_edge_automorphisms_match_brute_force():
    rng = random.Random(8)
    for _ in range(50):
        host = random_host(rng, rng.randint(0, 7))
        assert _edge_automorphisms(host) == brute_edge_automorphisms(host), format_graph(host)


def test_edge_automorphisms_leave_no_reference_cycles():
    host = gen_antihole(3)
    assert unreachable_after(lambda: _edge_automorphisms(host)) == 0


def test_edge_automorphism_group_orders():
    for k, order in ((2, 10), (3, 14), (4, 18)):
        assert len(_edge_automorphisms(gen_antihole(k))) + 1 == order
    for n in range(3, 8):
        assert len(_edge_automorphisms(complete_host(n))) + 1 == math.factorial(n)
    assert _edge_automorphisms(complete_host(2)) == []  # swapping the ends moves no edge
    assert len(_edge_automorphisms(gen_matching_complement(8))) + 1 == 384
    # the edges of a perfect matching permute freely; swapping the ends of an
    # edge moves none, so it must not count against the cap
    for n, order in ((8, 24), (12, 720), (16, 40320)):
        matching = build_graph(n, 2, [(2 * i, 2 * i + 1, 1) for i in range(n // 2)])
        assert len(_edge_automorphisms(matching)) + 1 == order


# Over-cap hosts and the SHA-256 of their sorted listings, one comma-joined
# permutation a line: the pointwise stabilizer of the fewest leading vertices
# whose order is within the cap
OVER_CAP_GROUPS = {
    "K9": (complete_host(9), "de1d50940beb93be1a4328542f510d3dcd69d47cd1750cacf22cb84c7fd0bc13"),
    "K10": (complete_host(10), "0ecbfa13c197d747d7f677d8d3ac78ce4e9104b39fdf8711ef3c3c2cb8bdd023"),
    "K10 minus (0,1)": (
        build_graph(10, 2, [(u, v, 1) for u in range(10) for v in range(u + 1, 10) if (u, v) != (0, 1)]),
        "16b4b92658afdf58bca091b8e1f91c373f52fef0733e97b86943f75260f79f68",
    ),
}


@pytest.mark.parametrize("name", OVER_CAP_GROUPS)
def test_over_cap_groups_are_pointwise_stabilizers(name):
    # K9 keeps the stabilizer of vertex 0 (t = 0), K10 that of 0 and 1 (t = 1)
    # and K10 minus (0,1) that of vertex 0, which fixes 1 too: 8! each
    host, digest = OVER_CAP_GROUPS[name]
    perms = _edge_automorphisms(host)
    assert len(perms) + 1 == 40320
    text = "\n".join(",".join(map(str, p)) for p in perms)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if name == "K10":
        assert all(p[0] == 0 for p in perms)  # edge (0,1) is position 0
    group = set(perms) | {tuple(range(len(host.edge_color)))}
    rng = random.Random(10)
    elements = sorted(group)
    for _ in range(500):
        p, q = rng.choice(elements), rng.choice(elements)
        assert tuple(p[i] for i in q) in group


def test_group_is_listed_in_one_pass(monkeypatch):
    # the backtracking starts from vertex 0 once, also when the group passes the cap
    entered = []
    extend = search._extend

    def counted(v, *rest):
        entered.append(v)
        return extend(v, *rest)

    monkeypatch.setattr(search, "_extend", counted)
    for host in (complete_host(9), complete_host(10), gen_antihole(3), complete_host(0)):
        entered.clear()
        _edge_automorphisms(host)
        assert entered.count(0) == 1


INVARIANT_INSTANCES = {
    HasBoundsCover: [HasBoundsCover((2, 2)), HasBoundsCover((1, 3)), HasBoundsCover((2, 2, 2))],
    MinCoverAtMost: [MinCoverAtMost(2, 1), MinCoverAtMost(3, 2), MinCoverAtMost(2, 0)],  # k = 0 settles failing
    MinCoverDistribution: [MinCoverDistribution(1), MinCoverDistribution(2)],
}


def test_invariant_predicates_ignore_relabeling():
    """What orbit reduction relies on: an `invariant` predicate gives the
    same verdict and badness on a relabeled, recolored copy."""
    declared = {v for v in vars(search).values() if isinstance(v, type) and getattr(v, "invariant", False)}
    assert declared == set(INVARIANT_INSTANCES)
    assert not hasattr(ConstructiveMatchesOracle, "invariant")
    rng = random.Random(10)
    hosts = [gen_antihole(2), gen_antihole(3), complete_host(5), gen_p42(1)]
    hosts += [random_host(rng, rng.randint(2, 7)) for _ in range(6)]
    for trial in range(200):
        host = hosts[trial % len(hosts)]
        r = rng.choice((2, 3))
        colors = [rng.randrange(1, r + 1) for _ in host.edge_color]
        G = build_graph(host.n, r, [(u, v, c) for (u, v), c in zip(sorted(host.edge_color), colors)])
        sigma = list(range(host.n))
        rng.shuffle(sigma)
        tau = list(range(1, r + 1))
        rng.shuffle(tau)
        H = build_graph(host.n, r, [(sigma[u], sigma[v], tau[c - 1]) for u, v, c in G.edges()])
        for predicate in itertools.chain.from_iterable(INVARIANT_INSTANCES.values()):
            assert predicate.evaluate(G) == predicate.evaluate(H), (predicate, G.edges(), sigma, tau)


ORBIT_CASES = [
    ("antihole7", 2, HasBoundsCover((3, 3)), [{}]),
    (
        "antihole7",
        2,
        HasBoundsCover((2, 2)),
        [{}, {"jobs": 3}, {"budget": 100}, {"budget": 3000}, {"budget": 3000, "jobs": 2}, {"budget": 1001, "jobs": 3}],
    ),
    ("antihole7", 2, HasBoundsCover((2, 3)), [{}]),
    ("k6", 2, MinCoverDistribution(2), [{}, {"jobs": 2}]),
    ("k5", 3, MinCoverDistribution(1), [{}]),
    ("k5", 3, HasBoundsCover((1, 2)), [{"jobs": 3}]),
    ("p42", 2, MinCoverAtMost(2, 1), [{}]),
    ("k7", 2, MinCoverDistribution(2), [{"budget": 5000}]),
    ("k9", 2, MinCoverDistribution(2), [{"budget": 5000}]),
    # every coloring passes, so the witness comes from a settled subtree
    ("k6", 2, HasBoundsCover((3, 3)), [{"budget": 1001, "jobs": 3}]),
]
ORBIT_HOSTS = {
    "antihole7": lambda: gen_antihole(3),
    "k5": lambda: complete_host(5),
    "k6": lambda: complete_host(6),
    "k7": lambda: complete_host(7),
    "k9": lambda: complete_host(9),
    "p42": lambda: gen_p42(1),
}


@pytest.mark.parametrize(
    "host_name,r,predicate,runs",
    ORBIT_CASES,
    ids=[f"{h}-r{r}-{p.name}" for h, r, p, _runs in ORBIT_CASES],
)
def test_orbit_reduction_equals_plain(host_name, r, predicate, runs):
    host = ORBIT_HOSTS[host_name]()
    plain = {}
    for options in runs:
        budget = options.get("budget", search.DEFAULT_BUDGET)
        if budget not in plain:
            plain[budget] = enumerate_colorings(host, r, Plain(predicate), budget=budget)
        reference = plain[budget]
        reduced = enumerate_colorings(host, r, predicate, **options)
        assert reduced == reference, options
        assert format_report(reduced).split("\n\n")[1] == format_report(reference).split("\n\n")[1]
        assert reference.group_order == 1 and reference.evaluations == reference.total
        assert 1 < reduced.group_order and reduced.evaluations < reduced.total


def test_budget_ends_inside_an_orbit():
    # the coloring at ordinal 1001 of the 7-antihole is not the least of its
    # orbit, so ORBIT_CASES' budget 1001 splits that orbit across the limit
    strings, orbit_of = orbit_table(gen_antihole(3), 2)
    assert min(orbit_of[strings[1001]]) < strings[1001]


def orbit_table(host, r):
    """Every canonical string of the host's r-colorings, and for each the
    set of canonical strings in its orbit, by brute force over all vertex
    permutations (no _edge_automorphisms, no _least_strings)."""
    m = len(host.edge_color)
    group = brute_edge_automorphisms(host) + [tuple(range(m))]
    ways = _rgs_ways(m, r)
    strings = [tuple(_rgs_unrank(i, m, r, ways)) for i in range(count_canonical(m, r))]
    orbit_of = {}
    for s in strings:
        if s not in orbit_of:
            orbit = {tuple(search._canonicalize([s[q] for q in p])) for p in group}
            orbit_of.update(dict.fromkeys(orbit, orbit))
    return strings, orbit_of


def test_least_strings_match_brute_force():
    rng = random.Random(19)
    isolated_edges = build_graph(7, 2, [(0, 1, 1), (2, 3, 1), (4, 5, 1), (4, 6, 1), (5, 6, 1)])
    hosts = [(gen_antihole(2), 2), (complete_host(4), 2), (complete_host(4), 3), (complete_host(5), 3)]
    hosts += [(gen_p42(1), 2), (gen_p42(1), 3), (isolated_edges, 2), (isolated_edges, 3)]
    while len(hosts) < 20:
        host, r = random_host(rng, rng.randint(2, 6)), rng.choice((2, 3))
        if count_canonical(len(host.edge_color), r) <= 3000:
            hosts.append((host, r))
    for host, r in hosts:
        perms = _edge_automorphisms(host)
        trie = _trie(perms, 0, len(perms), 0)
        strings, orbit_of = orbit_table(host, r)
        limits = [None] + [rng.choice(strings[1:]) for _ in range(3) if len(strings) > 1]
        for limit in limits:
            # the whole range below the limit, then 3 random chunks of it
            bound = len(strings) if limit is None else strings.index(limit)
            spans = [(0, bound)] + [sorted(rng.sample(range(bound + 1), 2)) for _ in range(3) if bound > 1]
            for lo, hi in spans:
                end = strings[hi] if hi < len(strings) else None
                want = [
                    (s, sum(limit is None or t < limit for t in orbit_of[s]))
                    for s in strings[lo:hi]
                    if min(orbit_of[s]) == s
                ]
                got = list(_least_strings(strings[lo], end, trie, r, limit))
                assert got == want, (lo, hi, limit, format_graph(host))


class CountedPerm(tuple):
    """A permutation that counts the reads of its positions."""

    reads = 0

    def __getitem__(self, i):
        CountedPerm.reads += 1
        return tuple.__getitem__(self, i)


def test_orbit_walk_comparisons_are_pinned():
    # least strings and reads of the trie's permutations in the walks of five
    # serial searches: one read per comparison of a node with the string and
    # one per node sent to wait for a later position. A change to the walk
    # that prunes more or less shows.
    for host, r, budget, want in (
        (gen_antihole(3), 2, search.DEFAULT_BUDGET, (650, 14723)),
        (complete_host(6), 2, search.DEFAULT_BUDGET, (78, 49355)),
        (complete_host(5), 3, search.DEFAULT_BUDGET, (142, 14979)),
        (gen_antihole(3), 2, 1001, (402, 10057)),
        (complete_host(7), 2, 5000, (137, 331737)),
    ):
        m = len(host.edge_color)
        limit = _rgs_unrank(budget, m, r, _rgs_ways(m, r)) if budget < count_canonical(m, r) else None
        perms = [CountedPerm(p) for p in _edge_automorphisms(host)]
        trie = _trie(perms, 0, len(perms), 0)
        CountedPerm.reads = 0
        least = sum(1 for _ in _least_strings([0] * m, limit, trie, r, limit))
        assert (least, CountedPerm.reads) == want, (m, r, budget)


class Trivial:
    """Passes every coloring; invariant, so the search walks one string per orbit."""

    name = "trivial"
    invariant = True

    def evaluate(self, G):
        return True, 0


def burnside_orbits(host, r):
    """Orbits of Aut(host) x S_r on the r^m colorings: the mean over (g, tau)
    of the colorings they fix, the product over the cycles C of g of the
    colors x with tau^|C|(x) = x."""
    m = len(host.edge_color)
    group = brute_edge_automorphisms(host) + [tuple(range(m))]
    taus = list(itertools.permutations(range(r)))
    fixed = 0
    for g in group:
        cycles, seen = [], set()
        for i in range(m):
            length = 0
            while i not in seen:
                seen.add(i)
                i, length = g[i], length + 1
            if length:
                cycles.append(length)
        for tau in taus:
            fixed += math.prod(sum(power(tau, x, k) == x for x in range(r)) for k in cycles)
    assert fixed % (len(group) * len(taus)) == 0
    return fixed // (len(group) * len(taus))


def power(tau, x, k):
    """tau^k(x)."""
    for _ in range(k):
        x = tau[x]
    return x


def test_orbit_counts_match_burnside():
    k8_minus_an_edge = build_graph(8, 2, [(u, v, 1) for u in range(8) for v in range(u + 1, 8) if (u, v) != (0, 1)])
    for host, r, orbits in (
        (complete_host(6), 2, 78),
        (complete_host(7), 2, 522),
        (gen_matching_complement(8), 2, 24607),
        (k8_minus_an_edge, 2, 62560),
        (complete_host(5), 3, 142),
    ):
        assert burnside_orbits(host, r) == orbits
        report = enumerate_colorings(host, r, Trivial())
        assert report.evaluations == orbits and report.ok_count == report.space, (host.n, r)


def test_chunks_partition_the_walk(monkeypatch):
    # any partition of the decided range into chunks, each starting and
    # stopping mid-walk, merges to the result of one chunk
    jobs = []
    chunk = search._eval_chunk

    def capture(span, **job):
        jobs.append(job)
        return chunk(span, **job)

    monkeypatch.setattr(search, "_eval_chunk", capture)
    rng = random.Random(2020)
    predicates = list(itertools.chain.from_iterable(INVARIANT_INSTANCES.values()))
    cut_orbits = 0
    for case in range(40):
        host = random_host(rng, rng.randint(4, 6))
        r = rng.choice((2, 3))
        space = count_canonical(len(host.edge_color), r)
        budget = rng.randint(2, min(space, 400)) if space > 1 else search.DEFAULT_BUDGET
        predicate = rng.choice(predicates)
        if case % 8 == 5:
            predicate = Plain(predicate)
        jobs.clear()
        report = enumerate_colorings(host, r, predicate, budget=budget)
        total = report.total
        whole = chunk((0, total), **jobs[0])
        cuts = sorted(rng.sample(range(1, total), min(total - 1, rng.randint(1, 6))))
        if case % 4 == 0:  # one chunk per ordinal: many hold no least string at all
            cuts = list(range(1, total))
        spans = list(zip([0, *cuts], [*cuts, total]))
        parts = [chunk(span, **jobs[0]) for span in spans]
        assert search._merge(parts) == whole, (case, format_graph(host))
        for (lo, hi), part in zip(spans, parts):  # each chunk's witness lies in its own span
            assert part[2] is None or lo <= part[2][1] < hi, (case, lo, hi, part[2])
        limit = jobs[0]["limit"]
        if limit is not None:  # the budget cuts an orbit when limit is not its least string
            group = brute_edge_automorphisms(host)
            cut_orbits += any(tuple(search._canonicalize([limit[q] for q in p])) < limit for p in group)
    assert cut_orbits >= 10


def test_orbit_reduction_equals_plain_on_random_hosts():
    rng = random.Random(1919)
    predicates = list(itertools.chain.from_iterable(INVARIANT_INSTANCES.values()))
    for case in range(150):
        n = rng.randint(4, 6)
        host = build_graph(n, 2, []) if case % 25 == 0 else random_host(rng, n)
        r = rng.choice((2, 3))
        space = count_canonical(len(host.edge_color), r)
        budget = 0 if case % 30 == 1 else rng.randint(1, min(space, 300))
        if budget >= space:
            budget = search.DEFAULT_BUDGET
        predicate = rng.choice(predicates)
        jobs = 2 if case % 10 == 3 else 1
        reduced = enumerate_colorings(host, r, predicate, budget=budget, jobs=jobs)
        assert reduced == enumerate_colorings(host, r, Plain(predicate), budget=budget), (case, format_graph(host))


# -- certificate-first predicates ------------------------------------------------

# (ok_count, fail_count, worst_badness, witness_ordinal, histogram, evaluations)
# per host and predicate; all but evaluations as the oracle-only predicates
# reported them
FROZEN_REPORTS = {
    ("antihole7", "has-bounds-cover(3,3)"): (8192, 0, 0, 0, None, 0),
    ("antihole7", "has-bounds-cover(2,2)"): (8184, 8, 1, 3692, None, 19),
    ("antihole7", "has-bounds-cover(1,2)"): (7232, 960, 1, 1111, None, 161),
    ("antihole7", "has-bounds-cover(2)"): (449, 7743, 1, 9, None, 619),
    ("antihole7", "has-bounds-cover(1,1,1)"): (7099, 1093, 1, 55, None, 650),
    ("antihole7", "min-cover-distribution(d=1)"): (8192, 0, 4, 55, ((3, 7099), (4, 1093)), 650),
    ("antihole7", "min-cover-distribution(d=2)"): (8192, 0, 3, 3692, ((1, 449), (2, 7735), (3, 8)), 619),
    ("antihole7", "min-cover-distribution(d=3)"): (8192, 0, 2, 59, ((1, 4615), (2, 3577)), 350),
    ("antihole7", "min-cover-atmost(d=2,k=1)"): (449, 7743, 3, 3692, None, 619),
    ("k6", "has-bounds-cover(3,3)"): (16384, 0, 0, 0, None, 0),
    ("k6", "has-bounds-cover(2,2)"): (16384, 0, 0, 0, None, 0),
    ("k6", "has-bounds-cover(1,2)"): (16384, 0, 0, 0, None, 0),
    ("k6", "has-bounds-cover(2)"): (10744, 5640, 1, 1101, None, 33),
    ("k6", "has-bounds-cover(1,1,1)"): (16384, 0, 0, 0, None, 50),
    ("k6", "min-cover-distribution(d=1)"): (16384, 0, 3, 116, ((1, 1), (2, 9081), (3, 7302)), 78),
    ("k6", "min-cover-distribution(d=2)"): (16384, 0, 2, 1101, ((1, 10744), (2, 5640)), 33),
    ("k6", "min-cover-distribution(d=3)"): (16384, 0, 1, 0, ((1, 16384),), 0),
    ("k6", "min-cover-atmost(d=2,k=1)"): (10744, 5640, 2, 1101, None, 33),
    ("c5", "has-bounds-cover(3,3)"): (16, 0, 0, 0, None, 0),
    ("c5", "has-bounds-cover(2,2)"): (16, 0, 0, 0, None, 0),
    ("c5", "has-bounds-cover(1,2)"): (16, 0, 0, 0, None, 0),
    ("c5", "has-bounds-cover(2)"): (1, 15, 1, 1, None, 4),
    ("c5", "has-bounds-cover(1,1,1)"): (16, 0, 0, 0, None, 4),
    ("c5", "min-cover-distribution(d=1)"): (16, 0, 3, 0, ((3, 16),), 4),
    ("c5", "min-cover-distribution(d=2)"): (16, 0, 2, 1, ((1, 1), (2, 15)), 4),
    ("c5", "min-cover-distribution(d=3)"): (16, 0, 2, 1, ((1, 1), (2, 15)), 4),
    ("c5", "min-cover-atmost(d=2,k=1)"): (1, 15, 2, 1, None, 4),
}


def test_frozen_search_reports():
    hosts = {"antihole7": gen_antihole(3), "k6": complete_host(6), "c5": gen_antihole(2)}
    predicates = [HasBoundsCover(b) for b in ((3, 3), (2, 2), (1, 2), (2,), (1, 1, 1))]
    predicates += [MinCoverDistribution(d) for d in (1, 2, 3)] + [MinCoverAtMost(2, 1)]
    got = {}
    for host_name, host in hosts.items():
        for predicate in predicates:
            r = enumerate_colorings(host, 2, predicate)
            fields = (r.ok_count, r.fail_count, r.worst_badness, r.witness_ordinal, r.histogram, r.evaluations)
            got[host_name, predicate.name] = fields
    assert got == FROZEN_REPORTS


def test_predicate_arguments_are_checked():
    for make, message in (
        (lambda: HasBoundsCover((3, -1)), "has-bounds-cover: bound must be >= 0, got -1"),
        (lambda: HasBoundsCover(()), "has-bounds-cover: bounds must not be empty"),
        (lambda: MinCoverAtMost(-1, 2), "min-cover-atmost: d must be >= 0, got -1"),
        (lambda: MinCoverAtMost(2, -1), "min-cover-atmost: k must be >= 0, got -1"),
        (lambda: ConstructiveMatchesOracle(-2), "constructive-matches-oracle: d must be >= 0, got -2"),
        (lambda: MinCoverDistribution(-1), "min-cover-distribution: d must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message
    assert MinCoverAtMost(0, 0).evaluate(build_graph(1, 2, [])) == (False, 1)


CERTIFICATE_HOSTS = {
    "c5": lambda: gen_antihole(2),
    "k4": lambda: complete_host(4),
    "k5": lambda: complete_host(5),
    "p42": lambda: gen_p42(1),
}


@pytest.mark.parametrize("host_name", CERTIFICATE_HOSTS)
def test_settled_prefixes_hold_on_every_completion(host_name):
    # exhaustively over the 2-colorings: a prefix that a certificate settles
    # has the certificate's verdict on each coloring that extends it
    host = CERTIFICATE_HOSTS[host_name]()
    pairs = sorted(host.edge_color)
    m = len(pairs)
    colorings = list(itertools.product((1, 2), repeat=m))
    settled = 0
    for predicate in itertools.chain.from_iterable(INVARIANT_INSTANCES.values()):
        value = {colors: predicate.evaluate(apply_coloring(host, colors)) for colors in colorings}
        for length in range(1, m):
            for prefix in itertools.product((1, 2), repeat=length):
                rows = build_graph(host.n, 2, [(u, v, c) for (u, v), c in zip(pairs, prefix)]).color_rows
                verdict = predicate.settled(host.n, rows)
                if verdict is not None:
                    settled += 1
                    for colors in colorings:
                        if colors[:length] == prefix:
                            assert value[colors] == verdict, (predicate.name, colors)
    assert settled


def test_only_certificates_settle():
    # predicates without a certificate, and sample mode, evaluate every string
    # they count: all 16 canonical 2-colorings of C5, or its 4 orbits
    host = gen_antihole(2)
    assert enumerate_colorings(host, 2, HasBoundsCover((3, 3))).settled > 0
    for predicate, calls in ((Plain(HasBoundsCover((3, 3))), 16), (ConstructiveMatchesOracle(4), 16), (Trivial(), 4)):
        report = enumerate_colorings(host, 2, predicate)
        assert (report.settled, report.evaluations) == (0, calls), predicate.name
    report = enumerate_colorings(host, 2, HasBoundsCover((3, 3)), mode="sample", samples=20)
    assert report.settled == 0 and report.evaluations == 20


def test_size_limit_fires_where_a_cheap_cover_exists(capsys, monkeypatch):
    # color 1 spans the all-color-1 path on 19 vertices within 18: the fast
    # path would answer, but the oracle's size limit comes first
    path = build_graph(19, 2, [(v, v + 1, 1) for v in range(18)])
    with pytest.raises(LimitExceeded, match="n=19 exceeds the oracle size limit 18"):
        enumerate_colorings(path, 2, MinCoverDistribution(18), budget=1)
    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(path)))
    argv = ["search", "--colors", "2", "--predicate", "min-cover-distribution:18", "--budget", "1"]
    assert cli.run(argv) == 3
    assert capsys.readouterr().err == "error: n=19 exceeds the oracle size limit 18\n"
