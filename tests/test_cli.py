import json
import os
import random
import subprocess
import sys
import time

import jsonschema
import pytest

from pathcenters import (
    Algebra,
    COHN,
    Graph,
    LEAVITT,
    PATH,
    ParseError,
    PrimeField,
    QQ,
    element_to_text,
    parse_graph,
)
from pathcenters.cli import main
from pathcenters.errors import InvariantViolation
from pathcenters import graph_algebra
from pathcenters.graph_algebra import check_window_cap, enumerate_ga_monomials
from pathcenters.linalg import sparse_nullspace
from pathcenters.report import load_schema

from conftest import (
    count_witness_kernels,
    emit_graph,
    fixture_path,
    parse_element,
    record_algebra_builds,
    rose_graph,
    toeplitz_graph,
)


# --- graph file parsing ------------------------------------------------------


def test_parse_graph_examples():
    g = parse_graph("vertices: v\nedge e: v -> v\n")
    assert g.edge_triples() == [("e", "v", "v")]
    g = parse_graph("vertices: u v\nedge e: u -> u\nedge f: u -> v\n")
    assert g == toeplitz_graph().__class__.build(
        ["u", "v"], [("e", "u", "u"), ("f", "u", "v")])


def test_parse_graph_comments_and_blanks():
    text = "# a comment\n\nvertices: u v  # trailing\nedge e: u -> v\n"
    g = parse_graph(text)
    assert g.vertices == ("u", "v")


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_graph("edge e: u -> v\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_graph("vertices: u\nedge e: u -> w\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_graph("vertices: u u\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_graph("vertices: u\nedge e: u -> u\nedge e: u -> u\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_graph("vertices: u\nwhatever\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_parse_graph_is_linear_in_the_edges():
    # a quadratic endpoint check takes seconds on this many edges
    n = 20_000
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}", vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    text = emit_graph(Graph.build(vertices, edges))
    t0 = time.perf_counter()
    g = parse_graph(text)
    assert time.perf_counter() - t0 < 2.0
    assert g == Graph.build(vertices, edges)


def test_graph_round_trip():
    for name in ("toeplitz", "rose_2", "cycle_3", "fork_sink_loop"):
        text = fixture_path(name).read_text()
        g = parse_graph(text)
        assert parse_graph(emit_graph(g)) == g


# --- element text ------------------------------------------------------------


def test_element_text_spec_shape():
    g = parse_graph("vertices: u v\nedge e1: u -> v\nedge e2: v -> v\n"
                    "edge e3: v -> v\n")
    el = parse_element("3/2 e1.e2|e3 + -1 @u", Algebra(COHN, g))
    assert element_to_text(el) == "-1 @u + 3/2 e1.e2|e3"
    again = parse_element(element_to_text(el), Algebra(COHN, g))
    assert again == el


def test_element_text_round_trip_random():
    rng = random.Random(31)
    g = toeplitz_graph()
    monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)
    for _ in range(50):
        el = Algebra(LEAVITT, g).zero()
        for _ in range(rng.randint(0, 4)):
            el = el + Algebra(LEAVITT, g).monomial(
                rng.choice(monos), rng.choice([1, -1, 3, -2]))
        text = element_to_text(el)
        assert parse_element(text, Algebra(LEAVITT, g)) == el
        assert element_to_text(parse_element(text, Algebra(LEAVITT, g))) == text


def test_element_text_ke_and_zero():
    ke = Algebra(PATH, rose_graph(1))
    assert element_to_text(ke.zero()) == "0"
    assert parse_element("0", ke) == ke.zero()
    el = parse_element("2 f1.f1 + 1/3 @v", ke)
    assert element_to_text(el) == "1/3 @v + 2 f1.f1"
    with pytest.raises(ParseError):
        parse_element("1 f1|f1", ke)  # no ghosts in KE
    with pytest.raises(ParseError):
        parse_element("1 zz", ke)
    with pytest.raises(ParseError):
        parse_element("f1", ke)  # scalar is required


def test_parse_element_normalizes_leavitt_junction():
    r1 = rose_graph(1)
    el = parse_element("1 f1|f1", Algebra(LEAVITT, r1))
    assert element_to_text(el) == "1 @v"


# --- CLI surface ----------------------------------------------------------------


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_analyze_exit_zero_and_sections():
    code, out, _ = run_cli("analyze", str(fixture_path("toeplitz")))
    assert code == 0
    assert "[graph-predicates]" in out and "downward_directed: True" in out


def test_center_commands_and_exit_codes():
    code, out, _ = run_cli("center", str(fixture_path("cycle_3")),
                           "--algebra", "path")
    assert code == 0 and "K[x]" in out

    code, out, _ = run_cli("center", str(fixture_path("rose_2")),
                           "--algebra", "leavitt")
    assert code == 0 and "structure: K" in out

    code, out, _ = run_cli("center", str(fixture_path("rose_2")),
                           "--algebra", "cohn")
    assert code == 0 and "structure: K" in out

    # hypothesis-not-met: non-prime targets report structurally and exit 2
    code, out, _ = run_cli("center", str(fixture_path("two_loops")),
                           "--algebra", "leavitt")
    assert code == 2
    assert "[bounds]" in out and "K[x,x^-1] x K[x,x^-1]" in out

    code, out, _ = run_cli("center", str(fixture_path("line_2")),
                           "--algebra", "cohn")
    assert code == 2


def test_parse_and_usage_exit_codes(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("edge e: u -> v\n")
    code, _, err = run_cli("analyze", str(bad))
    assert code == 1 and "line 1" in err

    code, _, _ = run_cli("analyze", str(tmp_path / "missing.graph"))
    assert code == 1

    code, _, _ = run_cli("oracle", str(fixture_path("rose_1")),
                         "--algebra", "leavitt", "--max-len", "2",
                         "--deg", "1", "--deg-window", "0", "1")
    assert code == 1  # mutually exclusive flags

    code, _, _ = run_cli("oracle", str(fixture_path("rose_1")),
                         "--algebra", "leavitt", "--max-len", "2",
                         "--deg", "5")
    assert code == 1  # degree filter inconsistent with the bound


def test_resource_cap_exit_code(monkeypatch):
    monkeypatch.setenv("PATHCENTERS_MAX_MONOMIALS", "10")
    code, _, err = run_cli("oracle", str(fixture_path("rose_2")),
                           "--algebra", "leavitt", "--max-len", "3")
    assert code == 3 and "cap" in err


@pytest.mark.parametrize("cap, code", [("40", 0), ("39", 3), ("0", 3)])
def test_the_cap_admits_a_window_of_exactly_its_size(monkeypatch, cap, code):
    assert check_window_cap(Algebra(LEAVITT, rose_graph(2)), 2, None) == 40
    monkeypatch.setenv("PATHCENTERS_MAX_MONOMIALS", cap)
    got, out, err = run_cli("oracle", str(fixture_path("rose_2")),
                            "--algebra", "leavitt", "--max-len", "2")
    assert got == code
    assert (f"window holds 40 candidate monomials; cap is {cap}" in err) == (code == 3)


@pytest.mark.parametrize("fixture, max_len", [("toeplitz", "3"), ("cycle_2", "2")])
def test_an_oracle_verify_computes_each_verdict_once(monkeypatch, fixture, max_len):
    import importlib

    built = count_witness_kernels(monkeypatch)
    calls = []
    witness = graph_algebra.centrality_witness

    def recorded(a):
        calls.append((a.algebra, frozenset(a.coeffs.items())))
        return witness(a)

    for name in ("graph_algebra", "oracle", "center_theory"):
        module = importlib.import_module(f"pathcenters.{name}")
        if getattr(module, "centrality_witness", None) is witness:
            monkeypatch.setattr(module, "centrality_witness", recorded)
    code, out, _ = run_cli("oracle", str(fixture_path(fixture)), "--algebra",
                           "leavitt", "--max-len", max_len, "--verify")
    assert code == 0 and "ok: True" in out
    distinct = {(id(alg), element) for alg, element in calls}
    assert len(built) == len(distinct) < len(calls)


def test_oracle_verify_and_gprimes():
    code, out, _ = run_cli("oracle", str(fixture_path("rose_1")),
                           "--algebra", "leavitt", "--max-len", "3",
                           "--deg-window", "-3", "3", "--verify")
    assert code == 0 and "ok: True" in out

    code, out, _ = run_cli("gprimes", str(fixture_path("toeplitz")))
    assert code == 0
    assert "upper_description: K x K[x,x^-1]" in out
    assert "lower_description: 0" in out


def test_json_reports_validate_and_round_trip():
    schema = load_schema()
    jobs = [
        ("analyze", str(fixture_path("toeplitz")), "--format", "json"),
        ("center", str(fixture_path("cycle_2")), "--algebra", "path",
         "--format", "json"),
        ("gprimes", str(fixture_path("two_loops")), "--format", "json"),
        ("oracle", str(fixture_path("rose_1")), "--algebra", "leavitt",
         "--max-len", "2", "--verify", "--format", "json"),
    ]
    for argv in jobs:
        code, out, _ = run_cli(*argv)
        assert code == 0, argv
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert json.loads(json.dumps(doc)) == doc


def test_reports_are_deterministic():
    argv = ("gprimes", str(fixture_path("fork_sink_loop")), "--format", "json")
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second


def test_console_entry_point_runs():
    # the child imports the package from wherever this process found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "pathcenters.cli", "center",
         str(fixture_path("rose_1")), "--algebra", "leavitt"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "K[x,x^-1]" in proc.stdout


def test_center_nonprime_cohn_char_flag():
    code, out, _ = run_cli("center", str(fixture_path("rose_3")),
                           "--algebra", "cohn", "--char", "5")
    assert code == 0 and "structure: K" in out


def test_oracle_single_degree_flag():
    code, out, _ = run_cli("oracle", str(fixture_path("rose_1")),
                           "--algebra", "leavitt", "--max-len", "2",
                           "--deg", "1")
    assert code == 0 and "1 f1" in out and "dimension: 1" in out


def test_gprimes_json_with_infinite_count_validates():
    schema = load_schema()
    code, out, _ = run_cli("gprimes", str(fixture_path("cycle_feeds_loop")),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    counts = [r.get("path_count") for r in doc["sections"]["graded-primes"]]
    assert "infinite" in counts


def test_large_prime_characteristic_exits_zero():
    code, out, _ = run_cli("center", str(fixture_path("rose_1")),
                           "--algebra", "leavitt", "--char", "2305843009213693951")
    assert code == 0 and "K[x,x^-1]" in out
    code, _, err = run_cli("center", str(fixture_path("rose_1")),
                           "--algebra", "leavitt", "--char", "3215031751")
    assert code == 1 and "prime" in err


@pytest.mark.parametrize("module, name, broken, argv", [
    ("oracle", "centrality_witness", lambda a: ("@v", a),
     ("oracle", "rose_1", "--algebra", "leavitt", "--max-len", "2")),
    ("center_theory", "check_central", lambda a: False,
     ("center", "rose_1", "--algebra", "leavitt")),
])
def test_invariant_violation_exits_four_without_traceback(monkeypatch, module,
                                                          name, broken, argv):
    import importlib

    monkeypatch.setattr(importlib.import_module(f"pathcenters.{module}"),
                        name, broken)
    command, fixture, *rest = argv
    code, out, err = run_cli(command, str(fixture_path(fixture)), *rest)
    assert code == 4 and out == ""
    assert err.startswith("pathcenters: internal invariant violated:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("isometry, ghost", [("e", False), ("e*", True)])
def test_a_generator_unitary_on_one_side_only_exits_four(monkeypatch, tmp_path,
                                                        isometry, ghost):
    # the Toeplitz loop e beside an exit-free loop d: e*e = u but ee* != u,
    # so z = e fails only z·z* = u and z = e* fails only z*·z = u
    from pathcenters import center_theory

    def isometry_sum(alg, feeding, c=None):
        return alg.vertex("u") if c is None else alg.edge("e", ghost=ghost)

    monkeypatch.setattr(center_theory, "check_central", lambda a: True)
    monkeypatch.setattr(center_theory, "_corner_sum", isometry_sum)
    path = tmp_path / "toeplitz_beside_loop.graph"
    path.write_text("vertices: u v w\nedge e: u -> u\nedge f: u -> v\n"
                    "edge d: w -> w\n")
    code, out, err = run_cli("center", str(path), "--algebra", "leavitt")
    assert code == 4 and out == ""
    assert err == ("pathcenters: internal invariant violated: "
                   "constructed generator is not unitary\n")


def corrupted_nullspace(rows, ncols, field):
    """A wrong solve: the true nullspace basis, its first vector (the unit)
    plus a live column it leaves out, a monomial that is not central."""
    first, *rest = sparse_nullspace(rows, ncols, field)
    column = min(set(range(ncols)) - set(first))
    return [{**first, column: field.one}, *rest]


@pytest.mark.parametrize("char", [None, 65521], ids=["QQ", "F65521"])
def test_a_wrong_solve_is_caught_by_the_recheck_and_exits_four(monkeypatch, char):
    from pathcenters import oracle

    monkeypatch.setattr(oracle, "sparse_nullspace", corrupted_nullspace)
    field = QQ if char is None else PrimeField(char)
    with pytest.raises(InvariantViolation, match=r"non-central vector \(witness \S+\)"):
        oracle.central_subspace(toeplitz_graph(), oracle.OracleWindow(LEAVITT, 3),
                                field=field)
    prime = () if char is None else ("--char", str(char))
    code, out, err = run_cli("oracle", str(fixture_path("toeplitz")), "--algebra",
                             "leavitt", "--max-len", "3", "--verify", *prime)
    assert code == 4 and out == ""
    assert err.startswith("pathcenters: internal invariant violated:")
    assert "(witness " in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_empty_graph_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="at least one vertex") as exc:
        parse_graph("# nothing\nvertices:\n")
    assert exc.value.line == 2
    empty = tmp_path / "empty.graph"
    empty.write_text("vertices:\n")
    for argv in (("analyze",), ("center", "--algebra", "leavitt"),
                 ("center", "--algebra", "path")):
        code, out, err = run_cli(argv[0], str(empty), *argv[1:])
        assert code == 1 and out == "" and "at least one vertex" in err


@pytest.mark.parametrize("value", ["-5", "abc"])
def test_invalid_monomial_cap_is_a_usage_error(monkeypatch, value):
    from pathcenters.graph_algebra import monomial_cap

    monkeypatch.setenv("PATHCENTERS_MAX_MONOMIALS", value)
    with pytest.raises(ValueError, match="PATHCENTERS_MAX_MONOMIALS"):
        monomial_cap()
    code, out, err = run_cli("oracle", str(fixture_path("rose_1")),
                             "--algebra", "leavitt", "--max-len", "2")
    assert code == 1 and out == ""
    assert "PATHCENTERS_MAX_MONOMIALS" in err and repr(value) in err


@pytest.mark.parametrize("fixture, algebra, max_len, degrees", [
    ("rose_2", "leavitt", 3, None),          # scalar claim
    ("cycle_3", "path", 3, None),            # K[x] claim
    ("two_loops", "leavitt", 2, (-2, 2)),    # not prime: the bounds check
    ("rose_1", "leavitt", 3, (-3, 3)),       # Laurent claim
    ("feeder_loop", "leavitt", 3, None),     # Laurent claim over two paths
])
def test_oracle_verify_solves_the_requested_window_once(monkeypatch, fixture,
                                                        algebra, max_len,
                                                        degrees):
    import collections
    import importlib

    from pathcenters import OracleWindow, oracle

    solves = collections.Counter()
    solve = oracle.central_subspace

    def counted(g, window, **kwargs):
        solves[window] += 1
        return solve(g, window, **kwargs)

    for name in ("oracle", "cli", "center_theory"):
        module = importlib.import_module(f"pathcenters.{name}")
        if getattr(module, "central_subspace", None) is solve:
            monkeypatch.setattr(module, "central_subspace", counted)
    argv = ["oracle", str(fixture_path(fixture)), "--algebra", algebra,
            "--max-len", str(max_len), "--verify"]
    if degrees is not None:
        argv += ["--deg-window", *map(str, degrees)]
    code, out, _ = run_cli(*argv)
    assert code == 0 and "ok: True" in out
    assert solves == {OracleWindow(algebra, max_len, degrees): 1}


def _write_graph(path, vertices, edges):
    path.write_text(emit_graph(Graph.build(vertices, edges)))
    return str(path)


def _loops(tmp_path, k):
    """`k` disjoint loops."""
    vs = [f"u{i}" for i in range(k)]
    return _write_graph(tmp_path / f"loops_{k}.graph", vs,
                        [(f"c{i}", f"u{i}", f"u{i}") for i in range(k)])


def _ladder(tmp_path, rungs, name=None, vertices=(), edges=()):
    """Double-edge ladder of `rungs` rungs into an exit-free loop, plus the
    given extra vertices and edges."""
    vs = [f"x{i}" for i in range(rungs + 1)] + list(vertices)
    es = [(f"{a}{i}", f"x{i}", f"x{i + 1}")
          for i in range(rungs) for a in "ab"]
    return _write_graph(tmp_path / f"{name or f'ladder_{rungs}'}.graph", vs,
                        es + [("c", f"x{rungs}", f"x{rungs}")] + list(edges))


def test_theory_builds_its_answers_without_the_oracle_solver(tmp_path,
                                                              monkeypatch):
    import importlib
    import pkgutil

    import pathcenters
    from pathcenters import oracle

    runs = [("center", str(fixture_path(name)), "--algebra", "leavitt")
            for name in ("feeder_loop", "cycle_3")]
    runs += [("center", _ladder(tmp_path, 4), "--algebra", "leavitt"),
             ("gprimes", str(fixture_path("feeder_loop"))),
             ("gprimes", str(fixture_path("two_loops")))]
    expected = {argv: run_cli(*argv) for argv in runs}

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle solver was called")

    solve = oracle.central_subspace
    for info in pkgutil.iter_modules(pathcenters.__path__):
        module = importlib.import_module(f"pathcenters.{info.name}")
        if getattr(module, "central_subspace", None) is solve:
            monkeypatch.setattr(module, "central_subspace", refuse)
    for argv in runs:
        got = run_cli(*argv)
        assert got[0] == 0 and "K[x,x^-1]" in got[1], argv
        assert got == expected[argv], argv


def test_each_graph_is_classified_once_per_request(monkeypatch):
    # graded primes carry their quotient's classification, so neither the
    # bounds check nor the whole-center piece classifies a graph again
    from pathcenters import center_theory

    seen = []
    classify = center_theory.classify_prime_leavitt

    def counted(g):
        seen.append(g)
        return classify(g)

    monkeypatch.setattr(center_theory, "classify_prime_leavitt", counted)
    runs = [("oracle", str(fixture_path(name)), "--algebra", "leavitt",
             "--max-len", "2", "--verify")
            for name in ("toeplitz", "fork_sink_loop")]
    runs += [("gprimes", str(fixture_path(name)))
             for name in ("rose_1", "two_loops", "cycle2_plus_vertex")]
    for argv in runs:
        seen.clear()
        assert run_cli(*argv)[0] == 0, argv
        assert seen and all(seen.count(g) == 1 for g in seen), argv


@pytest.mark.parametrize("fixture, algebras", [
    ("rose_2", 1), ("toeplitz", 1),  # scalar claims: the solve's algebra only
    ("rose_1", 2), ("feeder_loop", 2), ("cycle_3", 2),  # + the generator's cap count
])
def test_a_prime_leavitt_verify_builds_one_generator_table(monkeypatch, fixture,
                                                           algebras):
    # the claim lives in the solve's algebra, so its checks reuse the
    # solve's symbol table, and no labelled table is built
    built = record_algebra_builds(monkeypatch)
    code, out, _ = run_cli("oracle", str(fixture_path(fixture)), "--algebra",
                           "leavitt", "--max-len", "3", "--verify")
    assert code == 0 and "ok: True" in out
    assert len(built["algebras"]) == algebras
    assert built["generator_symbols"] == built["algebras"][:1]
    assert not built["generators"]


@pytest.mark.parametrize("fixture", ["two_loops", "fork_sink_loop",
                                     "cycle2_plus_vertex"])
def test_a_bounds_verify_builds_one_table_per_quotient(monkeypatch, fixture):
    from pathcenters.center_theory import graded_prime_ideals

    g = parse_graph(fixture_path(fixture).read_text())
    records = graded_prime_ideals(g)
    built = record_algebra_builds(monkeypatch)
    code, out, _ = run_cli("oracle", str(fixture_path(fixture)), "--algebra",
                           "leavitt", "--max-len", "3", "--verify")
    assert code == 0 and "ok: True" in out
    assert len(built["generator_symbols"]) <= 1 + len(records)
    assert not built["generators"]


def test_analyze_walks_the_cycles_once(monkeypatch):
    from pathcenters import graph, report

    calls = []
    find_cycles = graph.find_cycles

    def counted(g):
        calls.append(g)
        return find_cycles(g)

    monkeypatch.setattr(report, "find_cycles", counted)
    monkeypatch.setattr(graph, "find_cycles", counted)
    code, out, _ = run_cli("analyze", str(fixture_path("toeplitz")))
    assert code == 0 and "condition_L: True" in out
    assert len(calls) == 1


def test_long_graphs_end_in_a_resource_cap_without_traceback(tmp_path):
    n = 1200
    vs = [f"u{i}" for i in range(1, n + 1)]
    line = [(f"f{i}", f"u{i}", f"u{i + 1}") for i in range(1, n)]
    cycle = _write_graph(tmp_path / "cycle.graph", vs,
                         line + [(f"f{n}", f"u{n}", "u1")])
    line_loop = _write_graph(tmp_path / "line_loop.graph", vs,
                             line + [("c", f"u{n}", f"u{n}")])
    # graded primes need no vertex cap, but `gprimes` and the non-prime
    # `center` keep refusing 17 vertices until the benchmark reference
    # (exit 3 for `gprimes line_17`) is re-recorded
    line_17 = _write_graph(tmp_path / "line_17.graph", vs[:17], line[:16])
    loops_16, loops_17 = _loops(tmp_path, 16), _loops(tmp_path, 17)
    complete_9 = _write_graph(tmp_path / "complete_9.graph", vs[:9],
                              [(f"e{i}_{j}", f"u{i}", f"u{j}")
                               for i in range(1, 10) for j in range(1, 10)
                               if i != j])
    for argv, needle in (
        (("analyze", cycle), "cap is 16 vertices"),
        (("analyze", line_loop), "cap is 16 vertices"),
        (("center", line_loop, "--algebra", "leavitt"), "cap is 20000"),
        (("gprimes", line_17), "cap is 16 vertices"),
        (("gprimes", loops_17), "cap is 16 vertices"),
        (("center", loops_17, "--algebra", "leavitt"), "cap is 16 vertices"),
        (("analyze", complete_9), "more than 20000 cycles; cap is 20000 cycles"),
        # 2^16 hereditary saturated sets
        (("analyze", loops_16), "more than 20000 sets; cap is 20000 sets"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 3 and out == ""
        assert needle in err and "Traceback" not in err


def test_leavitt_center_of_a_long_cycle_exits_zero_without_traceback(tmp_path):
    # the unitary check z·z* strips a 1,000-edge special suffix per term
    n = 1000
    cycle = _write_graph(tmp_path / "cycle_1000.graph",
                         [f"u{i}" for i in range(1, n + 1)],
                         [(f"f{i}", f"u{i}", f"u{i % n + 1}")
                          for i in range(1, n + 1)])
    code, out, err = run_cli("center", cycle, "--algebra", "leavitt")
    assert code == 0 and "structure: K[x,x^-1]" in out
    assert "Traceback" not in err


def test_parser_is_built_once_and_keeps_no_state_between_calls():
    from pathcenters import cli

    assert cli.build_parser() is cli.build_parser()
    rose, cycle = str(fixture_path("rose_1")), str(fixture_path("cycle_3"))
    runs = [
        ("oracle", rose, "--algebra", "leavitt", "--max-len", "2", "--deg", "1"),
        ("oracle", rose, "--algebra", "leavitt", "--max-len", "2"),
        ("center", cycle, "--algebra", "path", "--char", "65521"),
        ("center", cycle, "--algebra", "path"),
        ("gprimes", rose, "--format", "json"),
        ("gprimes", rose),
    ]
    first = {}
    for argv in runs:
        cli.build_parser.cache_clear()
        first[argv] = run_cli(*argv)
    for argv in runs + runs[::-1]:
        assert run_cli(*argv) == first[argv]


def test_ladder_window_is_refused_on_its_count_before_any_monomial(
        tmp_path, monkeypatch):
    import importlib
    import pkgutil

    import pathcenters

    def refuse(*args, **kwargs):
        raise AssertionError("window monomials built")

    for info in pkgutil.iter_modules(pathcenters.__path__):
        module = importlib.import_module(f"pathcenters.{info.name}")
        if hasattr(module, "enumerate_ga_monomials"):
            monkeypatch.setattr(module, "enumerate_ga_monomials", refuse)
    # the prime ladder refuses its generator; with an isolated vertex the
    # same generator is a component piece of the lower bound, and with the
    # ladder fed from x0, which also feeds a sink, it is a matrix-corner piece
    ladder = _ladder(tmp_path, 8)
    apart = _ladder(tmp_path, 8, "ladder_8_y", ["y"])
    corner = _ladder(tmp_path, 9, "corner_9", ["s"], [("d", "x0", "s")])
    for graph, needed in ((ladder, "261121"), (apart, "261121"),
                          (corner, "1046529")):
        for argv in (("center", graph, "--algebra", "leavitt"),
                     ("gprimes", graph)):
            code, out, err = run_cli(*argv)
            assert code == 3 and out == "", argv
            assert needed in err and "20000" in err, argv
    # only the vertices that reach the cycle count: a dense component
    # beside a 4-rung ladder leaves its 31-term generator under the cap
    dense = [(f"k{i}{j}", f"k{i}", f"k{j}")
             for i in range(5) for j in range(5) if i != j]
    beside = _ladder(tmp_path, 4, "ladder_4_k5",
                     [f"k{i}" for i in range(5)], dense)
    code, out, _ = run_cli("gprimes", beside)
    assert code == 0 and "exit-free cycle fed by 31 paths" in out


def test_structure_comes_from_the_scc_pass_without_listing(tmp_path,
                                                           monkeypatch):
    # no cycle and no path is listed: K_10 has no exit-free cycle, and the
    # ladder generator and the sink corner are refused on their counts
    import importlib
    import pkgutil

    import pathcenters
    from pathcenters import graph

    def refuse(*args, **kwargs):
        raise AssertionError("cycles or paths listed")

    for info in pkgutil.iter_modules(pathcenters.__path__):
        module = importlib.import_module(f"pathcenters.{info.name}")
        for name in ("find_cycles", "paths_into"):
            if getattr(module, name, None) is getattr(graph, name):
                monkeypatch.setattr(module, name, refuse)

    def complete(n):
        vs = [f"u{i}" for i in range(n)]
        return _write_graph(tmp_path / f"complete_{n}.graph", vs,
                            [(f"e{i}_{j}", f"u{i}", f"u{j}")
                             for i in range(n) for j in range(n) if i != j])

    k10 = complete(10)
    code, out, _ = run_cli("center", k10, "--algebra", "leavitt")
    assert code == 0 and "structure: K\n" in out
    code, out, _ = run_cli("gprimes", k10)
    assert code == 0 and "witness: condition_L" in out
    assert "upper_description: K\n" in out and "lower_description: K\n" in out
    code, out, err = run_cli("center", _ladder(tmp_path, 16), "--algebra",
                             "leavitt")
    assert code == 3 and out == ""
    assert "window holds 17179607041 candidate monomials; cap is 20000" in err
    # a 10-rung ladder whose top feeds two sinks: each sink is a matrix
    # corner of the lower bound, fed by 2^11 paths
    vs = [f"x{i}" for i in range(11)] + ["s", "t"]
    es = [(f"{a}{i}", f"x{i}", f"x{i + 1}") for i in range(10) for a in "ab"]
    sinks = _write_graph(tmp_path / "sink_ladder_10.graph", vs,
                         es + [("d", "x10", "s"), ("e", "x10", "t")])
    for argv in (("center", sinks, "--algebra", "leavitt"), ("gprimes", sinks)):
        code, out, err = run_cli(*argv)
        assert code == 3 and out == "", argv
        assert "1398102" in err and "cap is 20000" in err, argv
    code, out, err = run_cli("analyze", complete(17))
    assert code == 3 and out == "" and "cap is 16 vertices" in err


def test_graded_primes_come_from_maximal_tails_without_listing_sets(
        tmp_path, monkeypatch):
    # one graded prime per loop: 12 quotients, not one per each of the
    # 4,096 hereditary saturated sets
    import importlib
    import pkgutil

    import pathcenters
    from pathcenters import center_theory, graph

    def refuse(*args, **kwargs):
        raise AssertionError("hereditary saturated sets listed")

    for info in pkgutil.iter_modules(pathcenters.__path__):
        module = importlib.import_module(f"pathcenters.{info.name}")
        if getattr(module, "enumerate_hereditary_saturated", None) is \
                graph.enumerate_hereditary_saturated:
            monkeypatch.setattr(module, "enumerate_hereditary_saturated", refuse)
    loops = _loops(tmp_path, 12)
    code, out, _ = run_cli("gprimes", loops, "--format", "json")
    assert code == 0
    records = json.loads(out)["sections"]["graded-primes"]
    assert len(records) == 12
    assert all(r["flavor"] == "J" and len(r["H"]) == 11 for r in records)
    code, out, _ = run_cli("center", loops, "--algebra", "leavitt")
    assert code == 2 and "[bounds]" in out
    assert "upper_description: " + " x ".join(["K[x,x^-1]"] * 12) in out

    quotients = []
    quotient_graph = center_theory.quotient_graph

    def counted(g, h):
        quotients.append(h)
        return quotient_graph(g, h)

    monkeypatch.setattr(center_theory, "quotient_graph", counted)
    g = parse_graph((tmp_path / "loops_12.graph").read_text())
    assert len(center_theory.graded_prime_ideals(g)) == 12
    assert len(quotients) == 12


def test_window_stops_at_the_longest_path_the_graph_has():
    # line_2 has no path longer than 1: the bound must not cost 4M steps
    import time

    start = time.perf_counter()
    code, out, _ = run_cli("oracle", str(fixture_path("line_2")),
                           "--algebra", "cohn", "--max-len", "4000000")
    assert code == 0 and "candidates: 5" in out
    assert time.perf_counter() - start < 1.0


def test_path_window_builds_no_path_longer_than_its_top_degree(monkeypatch):
    # a path-algebra monomial's degree is its real length, so degree 0
    # needs the trivial paths only, not the 2^15 - 1 paths of R_2 up to 14
    from pathcenters import graph_algebra

    built = []
    paths_up_to = graph_algebra.all_paths_up_to

    def counted(g, max_len):
        paths = paths_up_to(g, max_len)
        built.extend(paths)
        return paths

    monkeypatch.setattr(graph_algebra, "all_paths_up_to", counted)
    code, out, _ = run_cli("oracle", str(fixture_path("rose_2")), "--algebra",
                           "path", "--max-len", "14", "--deg", "0")
    assert code == 0 and "candidates: 1" in out
    assert len(built) == 1


def test_window_count_too_long_to_print_is_refused_as_a_cap():
    code, out, err = run_cli("oracle", str(fixture_path("rose_2")),
                             "--algebra", "cohn", "--max-len", "20000")
    assert code == 3 and out == ""
    assert "at least 2^40001 candidate monomials; cap is 20000" in err
    assert err.count("\n") == 1 and "Traceback" not in err
