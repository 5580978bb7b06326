"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (tolerance 0): the arithmetic is exact rational.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

from pathcenters import (
    Algebra,
    COHN,
    CenterStructure,
    LEAVITT,
    OracleWindow,
    PATH,
    Path,
    center_bounds,
    center_prime_cohn,
    center_prime_leavitt,
    center_structure_KE,
    central_subspace,
    classify_prime_leavitt,
    graded_prime_ideals,
    is_prime_cohn,
    normal_form,
    parse_graph,
    verify_bounds,
    verify_structure,
)
from pathcenters.center_theory import LAURENT, POLY, SCALAR, cycle_rotation_sum
from pathcenters.cli import main as cli_main
from pathcenters.graph import find_cycles
from pathcenters.linalg import LinearSpan
from pathcenters.oracle import element_vector
from pathcenters.scalars import QQ

from conftest import (
    cycle_feeds_loop,
    cycle_graph,
    feeder_loop,
    fixture_path,
    graded_center_component,
    is_symmetric,
    line_graph,
    peirce_component,
    rose_graph,
    toeplitz_graph,
    two_loops,
    uniqueness_check_exit_free,
    word_element,
)


def _finish(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {label}")
    assert not problems, problems


def _same_span(a_elements, b_elements, field=QQ):
    left = LinearSpan(field)
    for el in a_elements:
        left.add(element_vector(el))
    right = LinearSpan(field)
    for el in b_elements:
        right.add(element_vector(el))
    if left.dim != right.dim:
        return False
    return all(left.contains(element_vector(el)) for el in b_elements)


def test_criterion_01_cycle_centers():
    problems = []
    for n in (1, 2, 3, 4):
        g = cycle_graph(n)
        alg = Algebra(PATH, g)
        cs = center_structure_KE(alg)
        cyc = find_cycles(g)[0]
        gen = cycle_rotation_sum(alg, cyc)
        if cs.kind != POLY or cs.generators[1] != gen:
            problems.append(f"n={n}: structural center is not K[x] on the "
                            f"rotation sum")
        sub = central_subspace(g, OracleWindow(PATH, 2 * n))
        expected = [alg.one(), gen, gen * gen]
        if sub.dim != 3 or not _same_span(sub.basis, expected):
            problems.append(f"n={n}: oracle window L={2*n} is not exactly "
                            f"span(1, sum c_i, sum c_i^2)")
    _finish(1, "cycle path algebras have center K[x] on the rotation sum",
            problems)


def test_criterion_02_noncycle_ke_centers():
    problems = []
    graphs = [line_graph(1), line_graph(2), line_graph(3),
              rose_graph(2), rose_graph(3)]
    for g in graphs:
        cs = center_structure_KE(Algebra(PATH, g))
        if cs.kind != SCALAR or cs.generators != (Algebra(PATH, g).one(),):
            problems.append(f"{g.vertices}: structural KE center is not K.1")
        sub = central_subspace(g, OracleWindow(PATH, 3))
        if sub.dim != 1 or not _same_span(sub.basis, [Algebra(PATH, g).one()]):
            problems.append(f"{g.vertices}: oracle L=3 found more than span(1)")
    _finish(2, "non-cycle path algebras have center K.1", problems)


def test_criterion_03_prime_cohn():
    problems = []
    fixture_set = ["rose_0", "rose_1", "rose_2", "rose_3", "rose_5",
                   "line_2", "line_3", "cycle_2", "cycle_3", "toeplitz",
                   "two_loops", "feeder_loop"]
    assert len(fixture_set) >= 8
    for name in fixture_set:
        g = parse_graph(fixture_path(name).read_text())
        if is_prime_cohn(g) != (len(g.vertices) == 1):
            problems.append(f"{name}: primeness disagrees with |E^0| == 1")
    for m in (1, 2, 3):
        cs = center_prime_cohn(Algebra(COHN, rose_graph(m)))
        if cs.kind != SCALAR:
            problems.append(f"R_{m}: prime Cohn center is not K")
    sub = central_subspace(rose_graph(1), OracleWindow(COHN, 4, (1, 3)))
    if sub.dim != 0:
        problems.append("C_K(R_1) positive-degree window is not empty")
    _finish(3, "Cohn primeness = one vertex; prime Cohn centers are K",
            problems)


def test_criterion_04_prime_leavitt_classification():
    problems = []
    window = OracleWindow(LEAVITT, 4, (-4, 4))
    cases = [
        ("rose_1", rose_graph(1), LAURENT, 9),
        ("rose_2", rose_graph(2), SCALAR, 1),
        ("rose_3", rose_graph(3), SCALAR, 1),
        ("line_2", line_graph(2), SCALAR, 1),
        ("line_3", line_graph(3), SCALAR, 1),
        ("feeder_loop", feeder_loop(), LAURENT, 7),
        ("cycle_feeds_loop", cycle_feeds_loop(), SCALAR, 1),
    ]
    for name, g, expected_kind, expected_dim in cases:
        cs = center_prime_leavitt(Algebra(LEAVITT, g))
        if cs.kind != expected_kind:
            problems.append(f"{name}: structural center is {cs.describe()}")
        rep = verify_structure(cs, central_subspace(g, window))
        if not rep.ok:
            problems.append(f"{name}: oracle disagrees with the claim")
        if rep.oracle_dim != expected_dim or rep.span_dim != expected_dim:
            problems.append(
                f"{name}: window dimension {rep.oracle_dim} (span "
                f"{rep.span_dim}), expected {expected_dim}")
    n = classify_prime_leavitt(feeder_loop()).path_count
    if n != 2:
        problems.append(f"feeder loop path count {n}, expected 2")
    _finish(4, "prime Leavitt centers are K or K[x,x^-1] per the exit-free "
               "cycle test", problems)


def test_criterion_05_degree_zero_facts():
    problems = []
    prime_leavitt = [
        ("rose_1", rose_graph(1)), ("rose_2", rose_graph(2)),
        ("rose_3", rose_graph(3)), ("line_2", line_graph(2)),
        ("line_3", line_graph(3)), ("cycle_2", cycle_graph(2)),
        ("toeplitz", toeplitz_graph()), ("feeder_loop", feeder_loop()),
        ("cycle_feeds_loop", cycle_feeds_loop()),
    ]
    jobs = [(name, g, LEAVITT) for name, g in prime_leavitt]
    jobs += [(f"cohn_rose_{m}", rose_graph(m), COHN) for m in (1, 2, 3)]
    for name, g, kind in jobs:
        comp = graded_center_component(g, kind, 0, 4)
        if comp.dim != 1:
            problems.append(f"{name}: Z_0 window dimension {comp.dim}")
            continue
        for z in comp.basis:
            if not is_symmetric(z):
                problems.append(f"{name}: degree-zero vector not symmetric")
            diag = Algebra(kind, g).zero()
            for u in g.vertices:
                diag = diag + peirce_component(z, u, u)
            if diag != z:
                problems.append(f"{name}: degree-zero vector not Peirce-diagonal")
    _finish(5, "degree-zero centers are 1-dimensional, symmetric, "
               "Peirce-diagonal", problems)


def test_criterion_06_orthogonality_of_exit_free_cycles():
    problems = []
    rep = uniqueness_check_exit_free(Algebra(LEAVITT, two_loops()), max_len=4)
    if len(rep.exit_free_cycles) != 2:
        problems.append("two-loops fixture should have two exit-free cycles")
    if rep.cross_products_zero is not True:
        problems.append("a cross product of the two exit-free ideals was nonzero")
    if rep.pairs_checked == 0:
        problems.append("no products were checked")
    _finish(6, f"I(c)I(d) = 0 on {rep.pairs_checked} bounded products",
            problems)


def test_criterion_07_graded_baer_radical():
    problems = []
    fixtures = ["rose_0", "rose_1", "rose_2", "rose_3", "rose_5", "line_1",
                "line_2", "line_3", "cycle_2", "cycle_3", "cycle_4",
                "toeplitz", "two_loops", "feeder_loop", "cycle_feeds_loop",
                "cycle2_plus_vertex", "fork_sink_loop"]
    for name in fixtures:
        g = parse_graph(fixture_path(name).read_text())
        records = graded_prime_ideals(g)
        if not records:
            problems.append(f"{name}: no graded primes enumerated")
            continue
        meet = frozenset.intersection(*(r.H for r in records))
        if meet:
            problems.append(f"{name}: radical vertices {sorted(meet)}")
    _finish(7, "intersection of graded-prime H's is empty on every fixture",
            problems)


def test_criterion_08_center_bounds():
    problems = []
    tb = center_bounds(Algebra(LEAVITT, toeplitz_graph()))
    if sorted(tb.upper) != ["K", "K[x,x^-1]"]:
        problems.append(f"toeplitz upper bound {tb.upper}")
    if tb.describe_lower() != "0":
        problems.append(f"toeplitz lower bound {tb.describe_lower()}")
    lb = center_bounds(Algebra(LEAVITT, two_loops()))
    if list(lb.upper) != ["K[x,x^-1]", "K[x,x^-1]"]:
        problems.append(f"two-loops upper bound {lb.upper}")
    if lb.describe_lower() != "K[x,x^-1] (+) K[x,x^-1]":
        problems.append(f"two-loops lower bound {lb.describe_lower()}")
    for name, g in (("toeplitz", toeplitz_graph()), ("two_loops", two_loops())):
        res = verify_bounds(central_subspace(g, OracleWindow(LEAVITT, 4, (-4, 4))))
        if not res.ok:
            problems.append(f"{name}: oracle window inconsistent: {res.notes}")
    _finish(8, "molecula bounds with window-exact oracle consistency",
            problems)


def test_criterion_09_rewriting_integrity():
    from test_fast_paths import rewrite_words
    from test_graph_algebra import random_word

    started = time.monotonic()
    problems = []
    fixtures = [
        ("rose_1", rose_graph(1)), ("rose_2", rose_graph(2)),
        ("toeplitz", toeplitz_graph()), ("cycle_2", cycle_graph(2)),
        ("feeder_loop", feeder_loop()),
    ]
    for name, g in fixtures:
        rng = random.Random(name)
        for i in range(1000):
            word = random_word(g, rng, max_len=8)
            det = normal_form(Algebra(LEAVITT, g), [(1, word)])
            rnd = rewrite_words(Algebra(LEAVITT, g), [(1, word)], random.Random(i))
            if det != rnd:
                problems.append(f"{name}: word {word} reduced differently")
                break
        for e in g.edges:
            for f in g.edges:
                rel = (Algebra(LEAVITT, g).edge(e, ghost=True)
                       * Algebra(LEAVITT, g).edge(f))
                expect = (word_element(Algebra(LEAVITT, g), [g.rng[e]]) if e == f
                          else Algebra(LEAVITT, g).zero())
                if rel != expect:
                    problems.append(f"{name}: CK1 failed on {e}, {f}")
        for v in g.vertices:
            if not g.is_regular(v):
                continue
            acc = word_element(Algebra(LEAVITT, g), [v])
            for e in g.out_edges(v):
                acc = acc - word_element(Algebra(LEAVITT, g), [e, f"{e}*"])
            if acc:
                problems.append(f"{name}: CK2 relation nonzero at {v}")
    # associativity on 1000 randomized bounded triples
    from pathcenters.graph_algebra import enumerate_ga_monomials

    for name, g in fixtures:
        rng = random.Random("assoc" + name)
        monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)

        def rand_el():
            out = Algebra(LEAVITT, g).zero()
            for _ in range(rng.randint(1, 2)):
                out = out + Algebra(LEAVITT, g).monomial(
                    rng.choice(monos), rng.choice([1, -1, 2]))
            return out

        for _ in range(200):
            a, b, c = rand_el(), rand_el(), rand_el()
            if (a * b) * c != a * (b * c):
                problems.append(f"{name}: associativity failed")
                break
    elapsed = time.monotonic() - started
    if elapsed > 120:
        problems.append(f"took {elapsed:.1f}s, budget is 120s")
    _finish(9, f"rewriting is order-invariant and associative "
               f"({elapsed:.1f}s)", problems)


def test_criterion_10_negative_controls(tmp_path, monkeypatch):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    def silent_cli(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return cli_main(argv)

    problems = []
    g = rose_graph(2)
    bogus = CenterStructure(SCALAR, (word_element(Algebra(LEAVITT, g), ["f1"]),))
    rep = verify_structure(
        bogus, central_subspace(g, OracleWindow(LEAVITT, 2, (-2, 2))))
    if rep.ok:
        problems.append("corrupted claim was accepted")
    if not rep.generator_failures or rep.generator_failures[0][1] != "f2":
        problems.append("no witness reported for the corrupted generator")

    bad = tmp_path / "bad.graph"
    bad.write_text("edge e: u -> v\n")
    if silent_cli(["analyze", str(bad)]) != 1:
        problems.append("parse error did not exit 1")
    if silent_cli(["center", str(fixture_path("two_loops")),
                   "--algebra", "leavitt"]) != 2:
        problems.append("hypothesis failure did not exit 2")
    monkeypatch.setenv("PATHCENTERS_MAX_MONOMIALS", "5")
    if silent_cli(["oracle", str(fixture_path("rose_2")),
                   "--algebra", "leavitt", "--max-len", "3"]) != 3:
        problems.append("resource cap did not exit 3")
    monkeypatch.delenv("PATHCENTERS_MAX_MONOMIALS")
    _finish(10, "negative controls fail loudly with their designated exit "
                "codes", problems)
