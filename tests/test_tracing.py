"""The benchmark's tracer still reaches the package's hot paths.

`perfbench/tracing.py` wraps module attributes from outside the package, so
a refactor that stops looking a traced name up at call time would silently
drop it from the per-layer metrics.  This test only reads `perfbench/`."""

import contextlib
import importlib.util
import io
import pathlib

from pathcenters import cli
from pathcenters.graph import enumerate_hereditary_saturated, find_cycles
from pathcenters.graph_algebra import LEAVITT
from pathcenters.oracle import OracleWindow
from pathcenters.scalars import QQ
from pathcenters.textio import parse_graph

from conftest import fixture_path, solver_calls

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(tracing, argv):
    """Run one request under a fresh tracer: (exit code, stdout, tracer)."""
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.begin_request(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        uninstall()
    return code, out.getvalue(), tracer


def test_tracer_installs_over_the_package_and_sees_an_oracle_request():
    tracing = _load_tracing()
    argv = ["oracle", str(fixture_path("rose_2")), "--algebra", "leavitt",
            "--max-len", "2", "--verify"]
    code, out, tracer = _traced(tracing, argv)
    assert code == 0 and "ok: True" in out
    metrics = tracing.per_layer(tracer)
    assert metrics["oracle.centrality_witness.calls"]["value"] > 0
    assert metrics["oracle.central_subspace.calls"]["value"] == 1
    # rose_2's claim is a scalar, so its check multiplies no two elements
    # and the commutator kernel forms every product; cycle_2's Laurent
    # powers and unitary check multiply elements through `mul_monomials`
    argv = ["oracle", str(fixture_path("cycle_2")), "--algebra", "leavitt",
            "--max-len", "2", "--verify"]
    code, out, tracer = _traced(tracing, argv)
    assert code == 0 and "ok: True" in out
    assert tracer.calls["graph_algebra.GAElement.mul"] > 0
    metrics = tracing.per_layer(tracer)
    assert metrics["graph_algebra.mul_monomials.calls"]["value"] > 0


def test_tracer_sees_graded_primes_without_hereditary_sets():
    # two_loops is not prime: two graded primes, found from the maximal
    # tails; `install` looks up every traced name, so none has gone
    tracing = _load_tracing()
    argv = ["gprimes", str(fixture_path("two_loops"))]
    code, out, tracer = _traced(tracing, argv)
    assert code == 0 and "[graded-primes]" in out
    metrics = tracing.per_layer(tracer)
    assert metrics["center_theory.graded_primes"]["value"] == 2
    assert tracer.calls["center_theory.graded_prime_ideals"] == 1
    assert metrics["graph.hereditary_sets"]["value"] == 0
    assert tracer.calls["graph.enumerate_hereditary_saturated"] == 0


def test_tracer_sees_the_sets_and_cycles_of_an_analyze_request():
    # `report.predicates_section` looks both listings up at call time, so
    # the tracer counts every set and cycle the report lists
    tracing = _load_tracing()
    path = fixture_path("cycle_feeds_loop")
    code, out, tracer = _traced(tracing, ["analyze", str(path)])
    assert code == 0 and "[graph-predicates]" in out
    metrics = tracing.per_layer(tracer)
    g = parse_graph(path.read_text())
    assert metrics["graph.hereditary_sets"]["value"] == \
        len(enumerate_hereditary_saturated(g)) == 3
    assert metrics["graph.cycles"]["value"] == len(find_cycles(g)) == 2
    assert tracer.calls["graph.enumerate_hereditary_saturated"] == 1


def test_tracer_sees_the_live_solve():
    # the solver gets only the live columns, and the tracer counts its rows
    # and columns: rose_2's one live column (the vertex) leaves no row,
    # toeplitz keeps a few
    tracing = _load_tracing()
    traced_rows = {}
    for name, max_len in (("rose_2", 2), ("toeplitz", 3)):
        argv = ["oracle", str(fixture_path(name)), "--algebra", "leavitt",
                "--max-len", str(max_len), "--verify"]
        code, out, tracer = _traced(tracing, argv)
        assert code == 0 and "ok: True" in out
        metrics = tracing.per_layer(tracer)
        g = parse_graph(fixture_path(name).read_text())
        _, ((rows, ncols),) = solver_calls(g, OracleWindow(LEAVITT, max_len), QQ)
        assert metrics["linalg.cols"]["value"] == ncols
        assert metrics["linalg.rows"]["value"] == len(rows)
        traced_rows[name] = len(rows)
    assert traced_rows == {"rose_2": 0, "toeplitz": 6}
