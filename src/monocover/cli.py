"""Command-line interface: generate, classify, cover, verify, oracle, search.

Commands read a graph from stdin (or --in FILE) and compose through pipes:
`cover` emits the graph, a separator line, and the certificate on stdout, and
`verify` accepts that combined stream. Exit codes: 0 success or accept,
1 verification reject or predicate counterexample, 2 usage or input error
(or a predicate fault, named by its coloring), 3 budget or size limit
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .classify import DiamPattern, classify_complete
from .covers import (
    CLIQUES_MAX_N,
    cover_alpha2,
    cover_general,
    cover_stars,
    cover_via_cliques,
    detect_near_split,
    cover_near_split,
    two_clique_cover,
)
from .generators import (
    gen_antihole,
    gen_k7_triple,
    gen_matching_complement,
    gen_p42,
    gen_random_alpha2,
    gen_substitution,
    house_skeleton,
)
from .graph import (
    ColoredGraph,
    CoverCertificate,
    LimitExceeded,
    UNREACHABLE,
    build_graph,
    format_certificate,
    format_combined,
    format_graph,
    parse_certificate,
    parse_combined,
    parse_graph,
    verify_cover,
)
from .oracle import DEFAULT_MAX_N, exists_bounds_cover, min_cover_exact
from .search import (
    DEFAULT_BUDGET,
    ConstructiveMatchesOracle,
    HasBoundsCover,
    MinCoverAtMost,
    MinCoverDistribution,
    enumerate_colorings,
    format_report,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems via exception, not sys.exit."""

    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_graph(path: str | None) -> ColoredGraph:
    return parse_graph(_read_text(path))


def _fmt_set(vertices) -> str:
    return ",".join(map(str, sorted(vertices)))


# -- gen ------------------------------------------------------------------


def _house_substitution(sizes: list[int], free_color: int) -> ColoredGraph:
    """The house skeleton with vertex i blown up into a color-1 clique on
    sizes[i] vertices."""
    inner = [build_graph(s, 2, [(u, v, 1) for u in range(s) for v in range(u + 1, s)]) for s in sizes]
    return gen_substitution(house_skeleton(free_color), sizes, inner)


# family -> (generator, the gen options it takes, in parameter order)
_GENERATORS = {
    "p42": (gen_p42, ("copies",)),
    "antihole": (gen_antihole, ("k", "scheme")),
    "k7triple": (gen_k7_triple, ("copies",)),
    "matching-complement": (gen_matching_complement, ("n",)),
    "random-alpha2": (gen_random_alpha2, ("n", "p", "seed")),
    "substitution": (_house_substitution, ("sizes", "free_color")),
}


def _cmd_gen(args) -> int:
    family = args.family
    generate, names = _GENERATORS[family]
    params = {name: getattr(args, name) for name in names}
    if family == "random-alpha2":
        print(f"seed = {args.seed}", file=sys.stderr)
    elif family == "substitution":
        params["sizes"] = _parse_int_list(args.sizes, "--sizes")
    G = generate(*params.values())
    detail = " ".join(f"{k}={v}" for k, v in params.items())
    _write_text(args.out, format_graph(G, comments=[f"gen {family} {detail}".rstrip()]))
    return EXIT_OK


# -- classify ----------------------------------------------------------------


def _cmd_classify(args) -> int:
    G = _load_graph(getattr(args, "in"))
    verdict = classify_complete(G)
    lines = [
        f"case = {verdict.case.value}",
        "diameters = " + ",".join("unreachable" if d == UNREACHABLE else str(d) for d in verdict.diameters),
        f"role_swap = {int(verdict.role_swap)}",
    ]
    if verdict.case is DiamPattern.OVER_THREE:
        h = verdict.house
        lines += [
            f"house_color = {h.house_color}",
            f"house_x1 = {h.x1}",
            f"house_x2 = {h.x2}",
            f"house_a3 = {_fmt_set(h.a3)}",
            f"house_a4 = {_fmt_set(h.a4)}",
            f"house_a5 = {_fmt_set(h.a5)}",
        ]
    elif verdict.case is DiamPattern.BOTH_THREE:
        b1, b2 = verdict.bases
        lines += [f"base_color1 = {b1[0]},{b1[1]}", f"base_color2 = {b2[0]},{b2[1]}"]
    elif verdict.case is DiamPattern.THREE_TWO:
        u, v = verdict.double_star_base
        lines += [
            f"double_star_color = {verdict.double_star_color}",
            f"double_star_base = {u},{v}",
        ]
    print("\n".join(lines))
    return EXIT_OK


# -- cover --------------------------------------------------------------------


def _cover_near_split(G: ColoredGraph) -> CoverCertificate:
    s = detect_near_split(G)
    if s is None:
        raise ValueError("no near-split structure found in the input graph")
    return cover_near_split(G, s)


# method -> its cover of G, given the --max-n limit
_COVER_METHODS = {
    "alpha2": lambda G, max_n: cover_alpha2(G),
    "near-split": lambda G, max_n: _cover_near_split(G),
    "general": lambda G, max_n: cover_general(G),
    "stars": lambda G, max_n: cover_stars(G),
    "cliques": lambda G, max_n: cover_via_cliques(G, max_n=max_n),
    "two-clique": lambda G, max_n: two_clique_cover(G),
}


def _cmd_cover(args) -> int:
    G = _load_graph(getattr(args, "in"))
    cert = _COVER_METHODS[args.method](G, args.max_n)
    bounds = ",".join(map(str, cert.bounds()))
    print(f"components = {len(cert)}; bounds = {bounds}", file=sys.stderr)
    if args.out:
        _write_text(args.out, format_certificate(cert))
    else:
        sys.stdout.write(format_combined(G, cert))
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def _cmd_verify(args) -> int:
    source = getattr(args, "in")
    if args.cert:
        if args.cert == "-" and source in (None, "-"):
            raise ValueError("--in and --cert cannot both come from stdin")
        G = _load_graph(source)
        cert = parse_certificate(_read_text(args.cert))
    else:
        G, cert = parse_combined(_read_text(source))
    verdict = verify_cover(G, cert)
    if verdict:
        bounds = ",".join(map(str, cert.bounds()))
        print(f"accepted: {len(cert)} components, bounds {bounds}")
        return EXIT_OK
    print(f"rejected: {verdict.reason}", file=sys.stderr)
    return EXIT_REJECT


# -- oracle ----------------------------------------------------------------


def _cmd_oracle(args) -> int:
    G = _load_graph(getattr(args, "in"))
    if args.min_cover is not None:
        k, cert = min_cover_exact(G, args.min_cover, max_n=args.max_n)
        print(k)
        if args.out:
            _write_text(args.out, format_certificate(cert))
        return EXIT_OK
    bounds = _parse_int_list(args.bounds, "--bounds")
    cert = exists_bounds_cover(G, bounds, max_n=args.max_n)
    if cert is None:
        print(f"no cover with bounds {args.bounds}", file=sys.stderr)
        return EXIT_REJECT
    _write_text(args.out, format_certificate(cert))
    return EXIT_OK


# -- search ----------------------------------------------------------------


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; an empty text is the empty list, an empty
    item is an error."""
    try:
        return [int(part) for part in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated integer list, got {text!r}")


_PREDICATE_SYNTAX = {
    "has-bounds-cover": "has-bounds-cover:D1,..,Dk",
    "min-cover-atmost": "min-cover-atmost:D,K",
    "constructive-matches-oracle": "constructive-matches-oracle[:D]",
    "min-cover-distribution": "min-cover-distribution:D",
}


def _parse_predicate(text: str):
    """Predicate syntax: name[:comma-separated-args]."""
    name, _, arg = text.partition(":")
    if name not in _PREDICATE_SYNTAX:
        raise ValueError(f"unknown predicate {name!r}; use {', '.join(_PREDICATE_SYNTAX.values())}")
    vals = _parse_int_list(arg, "--predicate")
    if name == "has-bounds-cover" and vals:
        return HasBoundsCover(tuple(vals))
    if name == "min-cover-atmost" and len(vals) == 2:
        return MinCoverAtMost(*vals)
    if name == "constructive-matches-oracle" and len(vals) <= 1:
        return ConstructiveMatchesOracle(*vals)
    if name == "min-cover-distribution" and len(vals) == 1:
        return MinCoverDistribution(*vals)
    raise ValueError(f"predicate {name} takes {_PREDICATE_SYNTAX[name]}, got {text!r}")


def _cmd_search(args) -> int:
    if args.mode == "exhaustive" and (args.samples is not None or args.seed is not None):
        raise ValueError("--samples and --seed apply only to --mode sample")
    report = enumerate_colorings(
        _load_graph(args.host),
        args.colors,
        _parse_predicate(args.predicate),
        mode=args.mode,
        samples=args.samples or 0,
        seed=args.seed or 0,
        budget=args.budget,
        jobs=args.jobs,
    )
    print(format_report(report))
    if report.partial:
        return EXIT_LIMIT
    if report.fail_count > 0:
        return EXIT_REJECT
    return EXIT_OK


# -- wiring ---------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="monocover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named instance family")
    gen.add_argument(
        "--family",
        required=True,
        choices=list(_GENERATORS),
    )
    gen.add_argument("--copies", type=int, default=1, help="disjoint copies (p42, k7triple)")
    gen.add_argument("--k", type=int, default=3, help="antihole parameter: 2k+1 vertices")
    gen.add_argument(
        "--scheme",
        default="distance-split",
        help="antihole coloring: distance-split or uniform:C",
    )
    gen.add_argument("--n", type=int, default=8, help="vertex count (matching-complement, random-alpha2)")
    gen.add_argument("--p", type=float, default=0.3, help="non-edge density target (random-alpha2)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed; the value used is printed")
    gen.add_argument("--sizes", default="1,1,1,1,1", help="block sizes per base vertex (substitution)")
    gen.add_argument("--free-color", type=int, default=2, help="color for the free house edges (substitution)")
    gen.add_argument("--out", help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    classify = sub.add_parser("classify", help="diameter classification of a 2-colored complete graph")
    classify.add_argument("--in", help="graph file (default: stdin)")
    classify.set_defaults(func=_cmd_classify)

    cover = sub.add_parser("cover", help="build a monochromatic-component cover certificate")
    cover.add_argument(
        "--method",
        required=True,
        choices=list(_COVER_METHODS),
    )
    cover.add_argument("--in", help="graph file (default: stdin)")
    cover.add_argument(
        "--out",
        help="write the bare certificate here instead of the combined stream on stdout",
    )
    cover.add_argument("--max-n", type=int, default=CLIQUES_MAX_N, help="size limit for --method cliques")
    cover.set_defaults(func=_cmd_cover)

    verify = sub.add_parser("verify", help="check a certificate against a graph")
    verify.add_argument("--in", help="combined stream or graph file (default: stdin)")
    verify.add_argument("--cert", help="certificate file when --in holds a bare graph ('-' for stdin)")
    verify.set_defaults(func=_cmd_verify)

    oracle = sub.add_parser("oracle", help="exact brute-force cover questions")
    group = oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-cover", type=int, metavar="D", help="minimum cover size at diameter bound D")
    group.add_argument(
        "--bounds",
        metavar="D1,D2,...",
        help="find a cover with at most one component per bound, each within its bound",
    )
    oracle.add_argument("--in", help="graph file (default: stdin)")
    oracle.add_argument("--out", help="certificate output file")
    oracle.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="exact-solver size limit")
    oracle.set_defaults(func=_cmd_oracle)

    search = sub.add_parser("search", help="evaluate a predicate over the colorings of a host graph")
    search.add_argument("--host", default="-", help="host graph file (default: stdin)")
    search.add_argument("--colors", type=int, required=True, metavar="R", help="number of colors")
    search.add_argument("--predicate", required=True, help="one of " + ", ".join(_PREDICATE_SYNTAX.values()))
    search.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    search.add_argument("--samples", type=int, help="sample count for --mode sample")
    search.add_argument("--seed", type=int, help="sampling seed for --mode sample (default 0)")
    search.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="max colorings decided (ordinal range)"
    )
    search.add_argument("--jobs", type=int, default=1, help="worker processes")
    search.set_defaults(func=_cmd_search)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
