import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matching_union, rand_colored
import monocover
from monocover import covers, graph, oracle, search
from monocover.cli import _PREDICATE_SYNTAX, run
from monocover.covers import cover_near_split, detect_near_split
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
    build_graph,
    format_certificate,
    format_graph,
    parse_certificate,
    parse_combined,
    parse_graph,
)
from monocover.oracle import min_cover_exact


def invoke(capsys, monkeypatch, argv, stdin_text=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_round_trip(capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["gen", "--family", "antihole", "--k", "3"])
    assert code == 0
    assert parse_graph(out) == gen_antihole(3)


def test_gen_out_file(tmp_path, capsys, monkeypatch):
    target = tmp_path / "g.txt"
    code, out, _ = invoke(
        capsys, monkeypatch, ["gen", "--family", "p42", "--copies", "2", "--out", str(target)]
    )
    assert code == 0 and out == ""
    assert parse_graph(target.read_text()) == gen_p42(2)


def test_gen_seed_is_printed_and_deterministic(capsys, monkeypatch):
    argv = ["gen", "--family", "random-alpha2", "--n", "10", "--p", "0.4", "--seed", "5"]
    code1, out1, err1 = invoke(capsys, monkeypatch, argv)
    code2, out2, _ = invoke(capsys, monkeypatch, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed = 5" in err1
    _, out3, err3 = invoke(capsys, monkeypatch, ["gen", "--family", "random-alpha2"])
    assert "seed = 0" in err3


def test_gen_families_match_generators(capsys, monkeypatch):
    blocks = [build_graph(s, 2, [(u, v, 1) for u in range(s) for v in range(u + 1, s)]) for s in (2, 1, 3, 1, 2)]
    cases = [
        (["p42", "--copies", "2"], gen_p42(2)),
        (["antihole", "--k", "4", "--scheme", "uniform:2"], gen_antihole(4, "uniform:2")),
        (["k7triple", "--copies", "2"], gen_k7_triple(2)),
        (["matching-complement"], gen_matching_complement(8)),  # the CLI default n
        (["random-alpha2", "--n", "9", "--p", "0.5", "--seed", "3"], gen_random_alpha2(9, 0.5, 3)),
        (
            ["substitution", "--sizes", "2,1,3,1,2", "--free-color", "1"],
            gen_substitution(house_skeleton(1), [2, 1, 3, 1, 2], blocks),
        ),
    ]
    for argv, expected in cases:
        code, out, _ = invoke(capsys, monkeypatch, ["gen", "--family", *argv])
        assert code == 0 and parse_graph(out) == expected, argv
    assert invoke(capsys, monkeypatch, ["gen", "--family", "mystery"])[0] == 2


def test_pipeline_gen_cover_verify(capsys, monkeypatch):
    code, graph_text, _ = invoke(capsys, monkeypatch, ["gen", "--family", "antihole", "--k", "3"])
    assert code == 0
    code, combined, err = invoke(
        capsys, monkeypatch, ["cover", "--method", "near-split"], stdin_text=graph_text
    )
    assert code == 0
    assert "components = 2" in err
    G, cert = parse_combined(combined)
    assert G == gen_antihole(3) and len(cert) == 2
    code, out, _ = invoke(capsys, monkeypatch, ["verify"], stdin_text=combined)
    assert code == 0
    assert out.startswith("accepted: 2 components")


def test_every_cover_method_through_cli(capsys, monkeypatch):
    graph_text = format_graph(gen_antihole(3))
    for method in ("alpha2", "near-split", "general", "stars", "cliques"):
        code, combined, _ = invoke(
            capsys, monkeypatch, ["cover", "--method", method], stdin_text=graph_text
        )
        assert code == 0, method
        code, _, _ = invoke(capsys, monkeypatch, ["verify"], stdin_text=combined)
        assert code == 0, method


def test_cover_two_clique_and_out_file(tmp_path, capsys, monkeypatch):
    edges = [(0, 1, 1), (2, 3, 2), (2, 4, 1), (3, 4, 2)]
    text = "5 2\n" + "\n".join(f"{u} {v} {c}" for u, v, c in edges) + "\n"
    cert_file = tmp_path / "cert.txt"
    code, out, err = invoke(
        capsys,
        monkeypatch,
        ["cover", "--method", "two-clique", "--out", str(cert_file)],
        stdin_text=text,
    )
    assert code == 0 and out == ""
    cert = parse_certificate(cert_file.read_text())
    assert len(cert) == 2
    code, _, _ = invoke(
        capsys,
        monkeypatch,
        ["verify", "--cert", str(cert_file)],
        stdin_text=text,
    )
    assert code == 0
    # `--cert -` reads the certificate from stdin; the graph then comes from a file
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(text)
    code, out, _ = invoke(
        capsys, monkeypatch, ["verify", "--in", str(graph_file), "--cert", "-"], stdin_text=cert_file.read_text()
    )
    assert code == 0 and out.startswith("accepted: 2 components")


def test_out_dash_is_stdout(tmp_path, capsys, monkeypatch):
    """`--out -` writes the bare certificate to stdout for cover and for
    oracle --min-cover alike, and creates no file."""
    monkeypatch.chdir(tmp_path)
    G = gen_antihole(3)
    text = format_graph(G)
    code, out, _ = invoke(capsys, monkeypatch, ["cover", "--method", "near-split", "--out", "-"], stdin_text=text)
    assert code == 0 and out == format_certificate(cover_near_split(G, detect_near_split(G)))
    code, out, _ = invoke(capsys, monkeypatch, ["oracle", "--min-cover", "3", "--out", "-"], stdin_text=text)
    k, cert = min_cover_exact(G, 3)
    assert code == 0 and out == f"{k}\n" + format_certificate(cert)
    assert list(tmp_path.iterdir()) == []


def test_oversized_header_is_an_input_error(capsys, monkeypatch):
    """A header past the graph size limit exits 2 naming line 1, long before
    its rows could be allocated."""
    for header in ("1000000000 2", "3 1000000000", "0 1000000000"):
        start = time.perf_counter()
        code, out, err = invoke(capsys, monkeypatch, ["classify"], stdin_text=header + "\n")
        assert time.perf_counter() - start < 0.5, header
        assert code == 2 and out == "", header
        assert err.startswith("error: line 1: ") and "graph size limit" in err, err


def test_verify_rejects_and_names_vertex(capsys, monkeypatch):
    bad = "3 2\n0 1 1\n1 2 1\n---\n1\n1 1: 0 1\n"
    code, _, err = invoke(capsys, monkeypatch, ["verify"], stdin_text=bad)
    assert code == 1
    assert "2" in err  # the uncovered vertex


def test_cover_near_split_without_structure(capsys, monkeypatch):
    code, _, err = invoke(
        capsys, monkeypatch, ["cover", "--method", "near-split"], stdin_text="3 2\n"
    )
    assert code == 2
    assert "error:" in err


def test_cover_cliques_limit_exit_code(capsys, monkeypatch):
    text = "25 2\n"
    code, _, err = invoke(capsys, monkeypatch, ["cover", "--method", "cliques"], stdin_text=text)
    assert code == 3
    assert "error:" in err


def test_cover_cliques_partition_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(covers, "MAX_PARTITION_NODES", 10)
    text = format_graph(rand_colored(12, 0.5, seed=0))
    code, out, err = invoke(capsys, monkeypatch, ["cover", "--method", "cliques"], stdin_text=text)
    assert code == 3 and out == ""
    assert "clique partition search exceeds 10 nodes" in err


def test_cover_node_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(graph, "MAX_CLIQUE_NODES", 3)
    text = format_graph(matching_union(60, seed=1))
    code, out, err = invoke(capsys, monkeypatch, ["cover", "--method", "general"], stdin_text=text)
    assert code == 3 and out == ""
    assert "branch-and-bound nodes" in err


def test_classify_output(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys, monkeypatch, ["classify"], stdin_text=format_graph(gen_p42(1))
    )
    assert code == 0
    assert "case = both-three" in out
    assert "base_color1" in out

    from monocover.generators import house_skeleton

    code, out, _ = invoke(
        capsys, monkeypatch, ["classify"], stdin_text=format_graph(house_skeleton())
    )
    assert code == 0
    assert "case = over-three" in out and "house_color = 1" in out

    # a color with no edge has no finite diameter, and the word says so
    K3_red = build_graph(3, 2, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    code, out, _ = invoke(capsys, monkeypatch, ["classify"], stdin_text=format_graph(K3_red))
    assert code == 0
    assert "diameters = 1,unreachable\n" in out


def test_oracle_min_cover_prints_value(capsys, monkeypatch):
    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["oracle", "--min-cover", "2"],
        stdin_text=format_graph(gen_p42(1)),
    )
    assert code == 0 and out.strip() == "2"


def test_oracle_bounds_exit_codes(capsys, monkeypatch):
    antihole = format_graph(gen_antihole(3))
    code, out, _ = invoke(
        capsys, monkeypatch, ["oracle", "--bounds", "3,3"], stdin_text=antihole
    )
    assert code == 0
    assert len(parse_certificate(out)) == 1  # color 1 spans with diameter 3
    code, _, err = invoke(
        capsys, monkeypatch, ["oracle", "--bounds", "2,2"], stdin_text=antihole
    )
    assert code == 1
    assert "no cover" in err


def test_negative_max_n_is_a_usage_error(capsys, monkeypatch):
    text = format_graph(gen_p42(1))
    for argv, shown in (
        (["oracle", "--min-cover", "2", "--max-n", "-1"], -1),
        (["oracle", "--bounds", "2,2", "--max-n", "-1"], -1),
        (["cover", "--method", "cliques", "--max-n", "-3"], -3),
    ):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin_text=text)
        assert code == 2 and out == ""
        assert err == f"error: max_n must be >= 0, got {shown}\n"


def test_oracle_node_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_SEARCH_NODES", 3)
    code, out, err = invoke(capsys, monkeypatch, ["oracle", "--min-cover", "1"], stdin_text=format_graph(gen_p42(2)))
    assert code == 3 and out == ""
    assert "cover search exceeds 3 nodes" in err


def test_search_exit_codes(capsys, monkeypatch):
    host = format_graph(gen_p42(1))
    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", "2", "--predicate", "has-bounds-cover:3,3"],
        stdin_text=host,
    )
    assert code == 0
    assert "ok_count = 32" in out

    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", "2", "--predicate", "min-cover-atmost:2,1"],
        stdin_text=host,
    )
    assert code == 1  # counterexamples exist

    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", "2", "--predicate", "has-bounds-cover:3,3", "--budget", "5"],
        stdin_text=host,
    )
    assert code == 3
    assert "partial = 1" in out

    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", "2", "--predicate", "min-cover-distribution:2"],
        stdin_text=host,
    )
    assert code == 0
    assert "histogram = 1:26,2:6" in out


def test_search_colors_are_bounded(capsys, monkeypatch):
    """A color count past search.MAX_COLORS exits 2 before any search, naming
    the bound; the bound itself runs and prints r!."""
    host = "2 1\n0 1 1\n"
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, monkeypatch, ["search", "--colors", "2000", "--predicate", "min-cover-atmost:1,1"], stdin_text=host
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: r must be in 1..{search.MAX_COLORS}, got 2000\n"
    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", str(search.MAX_COLORS), "--predicate", "min-cover-atmost:1,1"],
        stdin_text=host,
    )
    assert code == 0 and f"symmetry_factor = {math.factorial(search.MAX_COLORS)}" in out


def test_search_predicate_arguments_are_usage_errors(capsys, monkeypatch):
    """A bad predicate argument exits 2 before any coloring is decided, and
    names the argument, not a coloring."""
    host = format_graph(gen_antihole(2))
    for text, message in (
        ("has-bounds-cover:-1", "has-bounds-cover: bound must be >= 0, got -1"),
        ("has-bounds-cover:3,-2", "has-bounds-cover: bound must be >= 0, got -2"),
        ("min-cover-atmost:2,-1", "min-cover-atmost: k must be >= 0, got -1"),
        ("min-cover-atmost:-1,2", "min-cover-atmost: d must be >= 0, got -1"),
        ("constructive-matches-oracle:-1", "constructive-matches-oracle: d must be >= 0, got -1"),
        ("min-cover-distribution:-3", "min-cover-distribution: d must be >= 0, got -3"),
    ):
        code, out, err = invoke(
            capsys, monkeypatch, ["search", "--colors", "2", "--predicate", text], stdin_text=host
        )
        assert (code, out, err) == (2, "", f"error: {message}\n"), text


def test_search_help_lists_every_predicate_form(capsys, monkeypatch):
    code, out, _ = invoke(capsys, monkeypatch, ["search", "--help"])
    assert code == 0
    flat = "".join(out.split())  # argparse wraps help lines, also at hyphens
    for form in _PREDICATE_SYNTAX.values():
        assert form in flat, form


def test_usage_errors(capsys, monkeypatch):
    assert invoke(capsys, monkeypatch, ["bogus"])[0] == 2
    assert invoke(capsys, monkeypatch, ["cover"])[0] == 2  # missing --method
    assert invoke(capsys, monkeypatch, ["gen", "--family", "p42", "--copies", "0"])[0] == 2
    code, out, err = invoke(capsys, monkeypatch, ["gen", "--family", "substitution", "--sizes", "1,x,1,1,1"])
    assert code == 2 and out == ""
    assert err == "error: --sizes expects a comma-separated integer list, got '1,x,1,1,1'\n"
    # an empty list item is an error, not skipped
    for argv, flag, text in (
        (["oracle", "--bounds", "3,,3"], "--bounds", "3,,3"),
        (["oracle", "--bounds", ",3"], "--bounds", ",3"),
        (["oracle", "--bounds", "3,"], "--bounds", "3,"),
        (["gen", "--family", "substitution", "--sizes", ",1,,1,1,1,1,"], "--sizes", ",1,,1,1,1,1,"),
        (["search", "--colors", "2", "--predicate", "has-bounds-cover:3,,3"], "--predicate", "3,,3"),
    ):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin_text=format_graph(gen_p42(1)))
        assert code == 2 and out == "", argv
        assert err == f"error: {flag} expects a comma-separated integer list, got {text!r}\n", argv
    # an empty argument is the empty list: the predicate's default bound
    code, out, _ = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", "2", "--predicate", "constructive-matches-oracle"],
        stdin_text=format_graph(gen_p42(1)),
    )
    assert code == 0 and "predicate = constructive-matches-oracle(d=4)" in out
    code, _, err = invoke(
        capsys,
        monkeypatch,
        ["search", "--colors", "2", "--predicate", "sorcery:1"],
        stdin_text=format_graph(gen_p42(1)),
    )
    assert code == 2 and "unknown predicate" in err
    for text, syntax in [
        ("min-cover-distribution:", "min-cover-distribution:D"),
        ("min-cover-distribution:1,2", "min-cover-distribution:D"),
        ("constructive-matches-oracle:1,2", "constructive-matches-oracle[:D]"),
        ("min-cover-atmost:2", "min-cover-atmost:D,K"),
        ("has-bounds-cover", "has-bounds-cover:D1,..,Dk"),
    ]:
        code, _, err = invoke(
            capsys,
            monkeypatch,
            ["search", "--colors", "2", "--predicate", text],
            stdin_text=format_graph(gen_p42(1)),
        )
        assert code == 2 and f"error: predicate {text.partition(':')[0]} takes {syntax}" in err, (text, err)
    # malformed graph input
    assert invoke(capsys, monkeypatch, ["classify"], stdin_text="oops\n")[0] == 2
    # graph and certificate cannot both come from stdin
    for argv in (["verify", "--cert", "-"], ["verify", "--in", "-", "--cert", "-"]):
        code, out, err = invoke(capsys, monkeypatch, argv, stdin_text=format_graph(gen_p42(1)))
        assert code == 2 and out == "" and err == "error: --in and --cert cannot both come from stdin\n", argv
    # oracle has no --jobs flag: the exact solver is single-threaded
    code, _, err = invoke(
        capsys, monkeypatch, ["oracle", "--min-cover", "2", "--jobs", "4"], stdin_text=format_graph(gen_p42(1))
    )
    assert code == 2 and "--jobs" in err
    for jobs in ("0", "-3"):
        code, out, err = invoke(
            capsys,
            monkeypatch,
            ["search", "--colors", "2", "--predicate", "has-bounds-cover:3,3", "--jobs", jobs],
            stdin_text=format_graph(gen_p42(1)),
        )
        assert code == 2 and out == "" and "error: jobs must be >= 1" in err
    # exhaustive mode takes neither flag, even at the sample-mode defaults
    for extra in (["--samples", "5", "--seed", "9"], ["--samples", "0"], ["--seed", "0"]):
        code, out, err = invoke(
            capsys,
            monkeypatch,
            ["search", "--colors", "2", "--predicate", "min-cover-atmost:2,1", *extra],
            stdin_text=format_graph(gen_p42(1)),
        )
        assert code == 2 and out == "" and err == "error: --samples and --seed apply only to --mode sample\n", extra


def test_non_integer_token_names_its_line(tmp_path, capsys, monkeypatch):
    code, out, err = invoke(capsys, monkeypatch, ["classify"], stdin_text="3 2\n0 1 x\n")
    assert code == 2 and out == ""
    assert "line 2" in err and "0 1 x" in err

    combined = "3 2\n0 1 x\n---\n1\n1 1: 0 1 2\n"
    code, _, err = invoke(capsys, monkeypatch, ["verify"], stdin_text=combined)
    assert code == 2 and "line 2" in err

    cert = tmp_path / "cert.txt"
    cert.write_text("1\n1 x: 0 1 2\n")
    code, _, err = invoke(
        capsys, monkeypatch, ["verify", "--cert", str(cert)], stdin_text="3 2\n0 1 1\n1 2 1\n"
    )
    assert code == 2 and "line 2" in err and "1 x: 0 1 2" in err


def test_input_errors_name_the_input_line(capsys, monkeypatch):
    cases = [
        (["verify"], "3 2\n0 1 1\n---\n1\n1 x: 0\n", "line 5: expected integers"),
        (["verify"], "3 2\n0 1 1\n---\n1\n1 2:\n", "line 5: cover component must be nonempty"),
        (["verify"], "# g\n3 2\n\n0 1 1\n---\n\n1\n2 x: 0 1 2\n", "line 8: expected integers"),
        (["classify"], "3 2\n0 1 1\n1 0 2\n", "line 3: conflicting colors 1 and 2"),
        (["classify"], "3 2\n0 1 1\n# comment\n\n0 3 1\n", "line 5: edge (0,3) out of range"),
        (["classify"], "3 2\n0 1 1\n2 2 1\n", "line 3: loop at vertex 2"),
        (["classify"], "3 2\n0 1 3\n", "line 2: color 3 out of range"),
        (["classify"], "# header next\n-1 2\n", "line 2: vertex count must be nonnegative"),
        (["verify"], "3 2\n0 1 1\n0 1 2\n---\n1\n1 1: 0 1 2\n", "line 3: conflicting colors"),
        (["verify"], "2 1\n0 1 1\n---\n1\n1 1: -1 0\n", "line 5: vertex -1 below 0"),
        (["verify"], "2 1\n0 1 1\n---\n1\n0 1: 0 1\n", "line 5: color 0 below 1"),
        (["verify"], "2 1\n0 1 1\n---\n# log: x\n1\n1 -1: 0 1\n", "line 6: bound -1 below 0"),
    ]
    for argv, text, message in cases:
        code, out, err = invoke(capsys, monkeypatch, argv, stdin_text=text)
        assert code == 2 and out == "", text
        assert f"error: {message}" in err, (text, err)


def _run_quietly(argv, stdin_text):
    """cli.run(argv) on the given stdin: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


def _names_a_line_or(message, whole_document):
    return re.match(r"error: line \d+: ", message) or any(
        message.startswith(f"error: {prefix}") for prefix in whole_document
    )


small_int = st.integers(-2, 4).map(str)
component_line = st.builds(
    lambda c, d, vs: f"{c} {d}: {' '.join(vs)}", small_int, small_int, st.lists(small_int, max_size=4)
)
junk_line = st.one_of(
    small_int,
    st.sampled_from(["", "# log: note", "1 1 0 1", "x 1: 0", "1 1: y", "1 2 3: 0", ":"]),
    st.text(max_size=8),
)
# errors about the certificate as a whole, or about one component against
# the graph (verify_cover's range checks), rather than about one input line
WHOLE_DOCUMENT = ("empty certificate document", "certificate announces", "component ")


fuzzed_certificate = given(
    st.lists(component_line, max_size=4),
    st.one_of(st.none(), small_int),
    st.lists(st.tuples(st.integers(0, 5), junk_line), max_size=2),
)


def _certificate_text(components, count, junk):
    # the count is right unless drawn, so most documents reach verify_cover
    lines = [str(len(components)) if count is None else count, *components]
    for at, line in junk:
        lines.insert(at, line)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@fuzzed_certificate
def test_verify_fuzzed_certificates_exit_cleanly(components, count, junk):
    text = "3 2\n0 1 1\n1 2 2\n---\n" + _certificate_text(components, count, junk)
    code, message = _run_quietly(["verify"], text)
    assert code in (0, 1, 2), text
    if code == 2:
        assert _names_a_line_or(message, WHOLE_DOCUMENT), (text, message)


graph_token = st.one_of(st.integers(-2, 9).map(str), st.sampled_from(["x", "1.5", "-0", "2#c", "1e3", "+1"]))
graph_line = st.one_of(
    st.lists(graph_token, min_size=3, max_size=3).map(" ".join),
    st.lists(graph_token, max_size=5).map(" ".join),
    st.sampled_from(["", "   ", "# comment", "0 1 1 # trailing", "#"]),
)
# errors about the graph as a whole rather than about one input line
GRAPH_WHOLE_DOCUMENT = ("empty graph document", "classify_complete requires", "classification needs")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.tuples(st.integers(-1, 64), st.integers(-1, 3)).map(lambda h: f"{h[0]} {h[1]}"),
        graph_line,
    ),
    st.lists(graph_line, max_size=8),
    st.lists(st.tuples(st.integers(0, 8), st.sampled_from(["", "# note", "  # x"])), max_size=2),
)
def test_classify_fuzzed_graphs_exit_cleanly(header, lines, junk):
    # the header is "n r" with n <= 64 unless drawn as an arbitrary line
    lines = [header, *lines]
    for at, line in junk:
        lines.insert(at, line)
    text = "\n".join(lines) + "\n"
    code, message = _run_quietly(["classify"], text)
    assert code in (0, 1, 2), text
    if code == 2:
        assert _names_a_line_or(message, GRAPH_WHOLE_DOCUMENT), (text, message)


@settings(max_examples=200, deadline=None, derandomize=True)
@fuzzed_certificate
def test_verify_fuzzed_certificate_files_exit_cleanly(components, count, junk):
    # a bare certificate file, its lines numbered from the top of the file
    text = _certificate_text(components, count, junk)
    with tempfile.TemporaryDirectory() as tmp:
        cert = Path(tmp) / "cert.txt"
        cert.write_text(text)
        code, message = _run_quietly(["verify", "--cert", str(cert)], "3 2\n0 1 1\n1 2 2\n")
    assert code in (0, 1, 2), text
    if code == 2:
        assert _names_a_line_or(message, WHOLE_DOCUMENT), (text, message)


def test_search_distribution_samples(capsys, monkeypatch):
    """min-cover-distribution is a normal predicate: sample mode draws
    --samples colorings and its histogram does not depend on --jobs."""
    argv = ["search", "--colors", "2", "--predicate", "min-cover-distribution:2",
            "--mode", "sample", "--samples", "7", "--seed", "3"]
    histograms = []
    for jobs in ("1", "2"):
        code, out, _ = invoke(capsys, monkeypatch, argv + ["--jobs", jobs], stdin_text=format_graph(gen_p42(1)))
        assert code == 0 and "over sample colorings" in out
        (line,) = [ln for ln in out.splitlines() if ln.startswith("histogram = ")]
        histograms.append(line)
    counts = [int(pair.split(":")[1]) for pair in histograms[0].split(" = ")[1].split(",")]
    assert sum(counts) == 7
    assert histograms[0] == histograms[1]


def test_module_entry_point():
    # the child must import the same package, also when pytest put src on
    # sys.path itself rather than through PYTHONPATH
    src = str(Path(monocover.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "monocover", "gen", "--family", "p42"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert parse_graph(proc.stdout) == gen_p42(1)
