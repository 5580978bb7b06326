"""An exhaustive census: every graph with at most 3 vertices and 4 edges,
loops and parallel edges included, once per isomorphism class.

On each graph the structure theorems are checked against the oracle's
window-3 solve, over QQ and over F_2, wherever they make a claim: Z(KE)
always, the prime Cohn and prime Leavitt centers when the algebra is prime,
and the center bounds of every non-prime Leavitt algebra.  Every CLI
command is run on each graph too and must end in a documented exit code."""

from itertools import combinations_with_replacement, permutations, product

import pytest

from pathcenters import cli
from pathcenters.center_theory import (
    center_prime_cohn,
    center_prime_leavitt,
    center_structure_KE,
    is_prime_cohn,
    is_prime_leavitt,
    verify_bounds,
)
from pathcenters.graph import Graph
from pathcenters.graph_algebra import COHN, LEAVITT, PATH
from pathcenters.oracle import OracleWindow, central_subspace, verify_structure
from pathcenters.scalars import QQ, PrimeField

MAX_VERTICES, MAX_EDGES, WINDOW = 3, 4, 3


def canonical_form(n, edges):
    """The least sorted edge list over all relabellings of the n vertices:
    two edge multisets get the same form exactly when they are isomorphic."""
    return min(tuple(sorted((p[s], p[r]) for s, r in edges))
               for p in permutations(range(n)))


def census_graphs(max_vertices=MAX_VERTICES, max_edges=MAX_EDGES):
    """One graph per isomorphism class, vertices v0.. and edges e0..,
    listed by vertex count, edge count and canonical form."""
    forms = []
    for n in range(1, max_vertices + 1):
        pairs = list(product(range(n), repeat=2))
        for m in range(max_edges + 1):
            found = {canonical_form(n, edges)
                     for edges in combinations_with_replacement(pairs, m)}
            forms += [(n, form) for form in sorted(found)]
    return [Graph.build([f"v{i}" for i in range(n)],
                        [(f"e{k}", f"v{s}", f"v{r}") for k, (s, r) in enumerate(form)])
            for n, form in forms]


CENSUS = census_graphs()


def graph_text(g):
    return "\n".join([f"vertices: {' '.join(g.vertices)}"]
                     + [f"edge {e}: {s} -> {r}" for e, s, r in g.edge_triples()]) + "\n"


def test_census_lists_each_isomorphism_class_once():
    # 5 classes on one vertex; on two, Burnside over the swap gives
    # 1 + 2 + 6 + 10 + 19 = 38 for 0..4 edges; 134 on three
    assert len(CENSUS) == 177
    assert [sum(len(g.vertices) == n for g in CENSUS) for n in (1, 2, 3)] == [5, 38, 134]
    forms = {(len(g.vertices), canonical_form(
        len(g.vertices), [(int(s[1:]), int(r[1:])) for _, s, r in g.edge_triples()]))
        for g in CENSUS}
    assert len(forms) == len(CENSUS)


def _claims(alg):
    """The theory's center claim in this algebra, or None."""
    if alg.kind == PATH:
        return center_structure_KE(alg)
    if alg.kind == COHN:
        return center_prime_cohn(alg) if is_prime_cohn(alg.graph) else None
    return center_prime_leavitt(alg) if is_prime_leavitt(alg.graph) else None


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "F2"])
def test_census_theory_agrees_with_the_oracle(field):
    failures, structure_checks, bounds_checks = [], 0, 0
    for g in CENSUS:
        for kind in (PATH, COHN, LEAVITT):
            sub = central_subspace(g, OracleWindow(kind, WINDOW), field=field)
            claim = _claims(sub.algebra)
            if claim is not None:
                structure_checks += 1
                report = verify_structure(claim, sub)
                if not report.ok:
                    failures.append((kind, graph_text(g), report))
            elif kind == LEAVITT:
                bounds_checks += 1
                result = verify_bounds(sub)
                if not result.ok:
                    failures.append((kind, graph_text(g), result))
    assert not failures, failures[:3]
    assert (structure_checks, bounds_checks) == (278, 81)


COMMANDS = [
    ["analyze"],
    ["analyze", "--format", "json"],
    ["center", "--algebra", PATH],
    ["center", "--algebra", COHN, "--format", "json"],
    ["center", "--algebra", LEAVITT, "--format", "json"],
    ["gprimes"],
    ["gprimes", "--format", "json", "--char", "2"],
    ["oracle", "--algebra", PATH, "--max-len", "2", "--verify"],
    ["oracle", "--algebra", COHN, "--max-len", "2", "--verify", "--format", "json"],
    ["oracle", "--algebra", LEAVITT, "--max-len", "2", "--deg-window", "-1", "1",
     "--verify", "--format", "json", "--char", "2"],
]


def test_census_cli_commands_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "census.graph"
    bad = []
    for g in CENSUS:
        path.write_text(graph_text(g))
        for command in COMMANDS:
            argv = [command[0], str(path)] + command[1:]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            if code not in (0, 2, 3) or "Traceback" in err or (code == 0 and not out):
                bad.append((argv, graph_text(g), code, err))
    assert not bad, bad[:3]
