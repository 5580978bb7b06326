import math
import random

import pytest

from pathcenters import (
    Algebra,
    AmbientError,
    COHN,
    Graph,
    HypothesisNotMet,
    LEAVITT,
    OracleWindow,
    PATH,
    center_bounds,
    center_prime_cohn,
    center_prime_leavitt,
    center_structure_KE,
    central_subspace,
    check_central,
    classify_prime_leavitt,
    cycle_center_evaluate,
    cycle_graph,
    disjoint_union,
    graded_prime_ideals,
    is_prime_cohn,
    is_prime_leavitt,
    line_graph,
    PrimeField,
    QQ,
    quotient_graph,
    rose_graph,
    toeplitz_graph,
    uniqueness_check_exit_free,
    verify_bounds,
    word_element,
)
from pathcenters.center_theory import LAURENT, SCALAR, cycle_rotation_sum
from pathcenters.graph_algebra import ALGEBRA_KINDS
from pathcenters.graph import (
    cycles_without_exits,
    paths_into,
)

from conftest import cycle_feeds_loop, feeder_loop, fork_sink_loop, two_loops

BOUNDS_WINDOW = OracleWindow(LEAVITT, 4, (-4, 4))

ALL_FIXTURES = [
    ("rose_0", rose_graph(0)),
    ("rose_1", rose_graph(1)),
    ("rose_2", rose_graph(2)),
    ("rose_3", rose_graph(3)),
    ("line_2", line_graph(2)),
    ("line_3", line_graph(3)),
    ("cycle_2", cycle_graph(2)),
    ("toeplitz", toeplitz_graph()),
    ("two_loops", two_loops()),
    ("feeder_loop", feeder_loop()),
    ("cycle_feeds_loop", cycle_feeds_loop()),
    ("fork_sink_loop", fork_sink_loop()),
]


# --- the theory takes its caller's algebra ----------------------------------------


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["QQ", "F3"])
def test_the_theory_builds_its_elements_in_the_callers_algebra(field):
    ke = Algebra(PATH, cycle_graph(3), field=field)
    cyc = cycles_without_exits(ke.graph)[0]
    mixed = Algebra(PATH, disjoint_union(cycle_graph(2), rose_graph(0)), field=field)
    cohn = Algebra(COHN, rose_graph(2), field=field)
    leavitt = Algebra(LEAVITT, feeder_loop(), field=field)
    bounded = Algebra(LEAVITT, fork_sink_loop(), field=field)
    built = [(ke, cycle_rotation_sum(ke, cyc, 2)),
             (ke, cycle_center_evaluate(ke, [1, 2]))]
    for alg, theorem in ((ke, center_structure_KE), (mixed, center_structure_KE),
                         (cohn, center_prime_cohn), (leavitt, center_prime_leavitt)):
        cs = theorem(alg)
        built += [(alg, gen) for piece in cs.components or (cs,)
                  for gen in piece.generators]
    built += [(bounded, p.generator) for s in center_bounds(bounded).lower
              for p in s.pieces if p.generator is not None]
    assert {alg.kind for alg, _ in built} == set(ALGEBRA_KINDS)
    assert all(el and el.algebra is alg for alg, el in built)
    rep = uniqueness_check_exit_free(Algebra(LEAVITT, two_loops(), field=field))
    assert rep.cross_products_zero


ROSE_1_CYCLE = cycles_without_exits(rose_graph(1))[0]


@pytest.mark.parametrize("theorem, kind", [
    (center_structure_KE, PATH),
    (lambda alg: cycle_rotation_sum(alg, ROSE_1_CYCLE), PATH),
    (lambda alg: cycle_center_evaluate(alg, [1, 1]), PATH),
    (center_prime_cohn, COHN),
    (center_prime_leavitt, LEAVITT),
    (uniqueness_check_exit_free, LEAVITT),
    (center_bounds, LEAVITT),
])
def test_the_theory_refuses_an_algebra_of_another_kind(theorem, kind):
    for other in ALGEBRA_KINDS:
        alg = Algebra(other, rose_graph(1))
        if other == kind:
            theorem(alg)
        else:
            with pytest.raises(AmbientError, match=f"needs a {kind} algebra"):
                theorem(alg)


# --- primeness -----------------------------------------------------------------


def test_prime_cohn_iff_one_vertex():
    for name, g in ALL_FIXTURES:
        assert is_prime_cohn(g) == (len(g.vertices) == 1), name


def test_prime_leavitt_examples():
    assert is_prime_leavitt(rose_graph(3))
    assert not is_prime_leavitt(two_loops())
    assert is_prime_leavitt(toeplitz_graph())
    assert not is_prime_leavitt(fork_sink_loop())


# --- prime Cohn centers -----------------------------------------------------------


def test_center_prime_cohn():
    r0 = center_prime_cohn(Algebra(COHN, rose_graph(0)))
    assert r0.kind == SCALAR
    assert r0.generators == (Algebra(COHN, rose_graph(0)).one(),)
    for m in (1, 2, 3, 5):
        cs = center_prime_cohn(Algebra(COHN, rose_graph(m)))
        assert cs.kind == SCALAR
        assert cs.describe() == "K"
    with pytest.raises(HypothesisNotMet):
        center_prime_cohn(Algebra(COHN, line_graph(2)))


# --- prime Leavitt centers ---------------------------------------------------------


def test_center_prime_leavitt_scalar_cases():
    for g in (rose_graph(2), rose_graph(3), line_graph(1), line_graph(2),
              line_graph(3), toeplitz_graph(), cycle_feeds_loop()):
        cs = center_prime_leavitt(Algebra(LEAVITT, g))
        assert cs.kind == SCALAR
        assert cs.generators == (Algebra(LEAVITT, g).one(),)


def test_center_prime_leavitt_laurent_cases():
    r1 = rose_graph(1)
    cs = center_prime_leavitt(Algebra(LEAVITT, r1))
    assert cs.kind == LAURENT
    assert cs.generators[1] == word_element(Algebra(LEAVITT, r1), ["f1"])

    fl = feeder_loop()
    cs = center_prime_leavitt(Algebra(LEAVITT, fl))
    assert cs.kind == LAURENT
    z = cs.generators[1]
    alg = Algebra(LEAVITT, fl)
    assert z == word_element(alg, ["c"]) + word_element(alg, ["f", "c", "f*"])
    assert check_central(z)
    one = Algebra(LEAVITT, fl).one()
    assert z * z.involution() == one
    assert z.involution() * z == one


def test_center_prime_leavitt_multivertex_cycle():
    g = cycle_graph(2)
    cs = center_prime_leavitt(Algebra(LEAVITT, g))
    assert cs.kind == LAURENT
    z = cs.generators[1]
    assert z.degree() == 2
    assert check_central(z)
    assert z * z.involution() == Algebra(LEAVITT, g).one()


def test_classification_witnesses():
    cls = classify_prime_leavitt(rose_graph(1))
    assert not cls.scalar and cls.path_count == 1

    cls = classify_prime_leavitt(feeder_loop())
    assert not cls.scalar and cls.path_count == 2 and cls.base_count == 2

    cls = classify_prime_leavitt(cycle_feeds_loop())
    assert cls.scalar and cls.reason == "infinite_feeding"
    assert cls.path_count == math.inf

    cls = classify_prime_leavitt(rose_graph(2))
    assert cls.scalar and cls.reason == "condition_L"

    with pytest.raises(HypothesisNotMet):
        center_prime_leavitt(Algebra(LEAVITT, two_loops()))


# --- orthogonality of exit-free cycles ------------------------------------------------


def test_uniqueness_check_on_prime_graphs():
    rep = uniqueness_check_exit_free(Algebra(LEAVITT, toeplitz_graph()))
    assert rep.prime and rep.unique_for_prime
    assert rep.exit_free_cycles == ()

    rep = uniqueness_check_exit_free(Algebra(LEAVITT, rose_graph(1)))
    assert rep.prime and rep.unique_for_prime
    assert len(rep.exit_free_cycles) == 1


def test_cross_products_of_exit_free_ideals_vanish():
    rep = uniqueness_check_exit_free(Algebra(LEAVITT, two_loops()), max_len=3)
    assert len(rep.exit_free_cycles) == 2
    assert rep.cross_products_zero is True
    assert rep.pairs_checked > 0


# --- graded prime ideals ---------------------------------------------------------------


def test_graded_primes_toeplitz():
    recs = graded_prime_ideals(toeplitz_graph())
    assert [(sorted(r.H), r.flavor, r.cls.reason) for r in recs] == [
        ([], "I", "condition_L"),
        (["v"], "J", "finite_cycle"),
    ]
    assert recs[1].cls.path_count == 1
    assert recs[1].quotient.edge_triples() == [("e", "u", "u")]


def test_graded_primes_r1():
    recs = graded_prime_ideals(rose_graph(1))
    assert [(sorted(r.H), r.flavor) for r in recs] == [([], "J")]
    assert recs[0].cls.path_count == 1


def test_graded_primes_two_loops_excludes_empty_set():
    recs = graded_prime_ideals(two_loops())
    assert [(sorted(r.H), r.flavor) for r in recs] == [
        (["u1"], "J"),
        (["u2"], "J"),
    ]


def test_graded_prime_path_counts_recount_independently():
    # the recorded n must match a direct enumeration in the quotient
    for name, g in ALL_FIXTURES:
        for r in graded_prime_ideals(g):
            if r.flavor != "J":
                continue
            q = r.quotient
            c = cycles_without_exits(q)[0]
            feeding = paths_into(q, c.vertex_set(q))
            assert feeding is not None, name
            assert r.cls.path_count == c.length * len(feeding), name


def test_flavor_classification_is_relabeling_invariant():
    rng = random.Random(17)
    for name, g in ALL_FIXTURES:
        base = sorted((r.flavor, len(r.H)) for r in graded_prime_ideals(g))
        for _ in range(3):
            vperm = list(g.vertices)
            eperm = list(g.edges)
            rng.shuffle(vperm)
            rng.shuffle(eperm)
            vmap = {v: f"x{i}_{vperm[i]}" for i, v in enumerate(g.vertices)}
            emap = {e: f"y{i}_{eperm[i]}" for i, e in enumerate(g.edges)}
            h = Graph.build(
                [vmap[v] for v in g.vertices],
                [(emap[e], vmap[g.src[e]], vmap[g.rng[e]]) for e in g.edges],
            )
            assert sorted((r.flavor, len(r.H)) for r in graded_prime_ideals(h)) \
                == base, name


def test_graded_baer_radical_is_zero_on_every_fixture():
    for name, g in ALL_FIXTURES:
        recs = graded_prime_ideals(g)
        assert recs, name
        assert frozenset.intersection(*(r.H for r in recs)) == frozenset(), name


# --- center bounds -----------------------------------------------------------------------


def test_bounds_toeplitz():
    b = center_bounds(Algebra(LEAVITT, toeplitz_graph()))
    assert sorted(b.upper) == ["K", "K[x,x^-1]"]
    assert b.describe_upper() == "K x K[x,x^-1]"
    assert b.describe_lower() == "0"
    by_index = {s.record_index: s for s in b.lower}
    # W for the condition-L record is I({v}): infinitely many paths end at
    # the sink, the infinite-matrix pattern, so its center contributes 0
    assert by_index[0].ideal_vertices == frozenset({"v"})
    assert [p.kind for p in by_index[0].pieces] == ["zero"]
    assert by_index[1].ideal_vertices == frozenset()
    assert [p.kind for p in by_index[1].pieces] == ["zero"]
    assert b.radical_vertices == frozenset()


def test_bounds_two_loops_lower_equals_upper():
    b = center_bounds(Algebra(LEAVITT, two_loops()))
    assert list(b.upper) == ["K[x,x^-1]", "K[x,x^-1]"]
    kinds = [[p.kind for p in s.pieces] for s in b.lower]
    assert kinds == [["laurent"], ["laurent"]]
    gens = {repr(p.generator) for s in b.lower for p in s.pieces}
    assert gens == {"1 c", "1 d"}
    assert b.describe_lower() == "K[x,x^-1] (+) K[x,x^-1]"


def test_bounds_r1_improper_convention():
    b = center_bounds(Algebra(LEAVITT, rose_graph(1)))
    assert list(b.upper) == ["K[x,x^-1]"]
    assert len(b.lower) == 1 and b.lower[0].improper
    assert [p.kind for p in b.lower[0].pieces] == ["laurent"]
    assert b.describe_lower() == "K[x,x^-1]"


def test_bounds_fork_mixed_patterns():
    b = center_bounds(Algebra(LEAVITT, fork_sink_loop()))
    flavors = {tuple(sorted(r.H)): u for r, u in zip(b.records, b.upper)}
    # {v,w} is not saturated (u feeds only into it), so exactly two records
    assert flavors == {
        ("v",): "K",
        ("w",): "K[x,x^-1]",
    }
    pieces = {s.record_index: [p.kind for p in s.pieces] for s in b.lower}
    by_h = {tuple(sorted(b.records[i].H)): k for i, k in pieces.items()}
    # W for the {v}-record is I({w}): a finite matrix corner over K;
    # W for the {w}-record is I({v}): a finite matrix corner over Laurents
    assert by_h[("v",)] == ["scalar"]
    assert by_h[("w",)] == ["laurent"]
    for s in b.lower:
        for p in s.pieces:
            if p.generator is not None:
                assert check_central(p.generator)


def test_verify_bounds_on_fixtures():
    for name, g in ALL_FIXTURES:
        res = verify_bounds(central_subspace(g, BOUNDS_WINDOW))
        assert res.ok, (name, res.notes)


def test_verify_bounds_fails_on_the_upper_containment_alone():
    # L(R_1)'s window-2 basis read as a window-1 solve: f1^2 and f1*^2 are
    # central but escape the window-1 upper span, while the lower powers
    # f1, f1* and the unit are all in the basis
    sub = central_subspace(rose_graph(1), OracleWindow(LEAVITT, 2))
    res = verify_bounds(sub._replace(window=OracleWindow(LEAVITT, 1)))
    assert not res.ok and not res.upper_ok and res.lower_ok
    assert res.notes == ("projection of a central element escapes the upper "
                         "bound at H=[]",) * 2


def test_verify_bounds_fails_on_the_lower_containment_alone():
    # L(R_1)'s window-2 basis without f1^2: every remaining vector still
    # projects into the upper span, but the Laurent power f1^2 is missing
    sub = central_subspace(rose_graph(1), OracleWindow(LEAVITT, 2))
    basis = tuple(z for z in sub.basis if z.degree() != 2)
    res = verify_bounds(sub._replace(basis=basis))
    assert len(basis) == 4
    assert not res.ok and res.upper_ok and not res.lower_ok
    assert res.notes == ("lower-bound generator power missing from the "
                         "oracle span (record 0)",)


def test_verify_bounds_refuses_a_subspace_of_another_algebra():
    # a path-algebra solve said nothing about the Leavitt bounds, yet it
    # used to pass as a check of them
    g = two_loops()
    with pytest.raises(AmbientError):
        verify_bounds(central_subspace(g, OracleWindow(PATH, 2, (0, 2))))
    with pytest.raises(AmbientError):
        verify_bounds(central_subspace(g, OracleWindow(COHN, 2, (0, 2))))
    assert verify_bounds(central_subspace(g, OracleWindow(LEAVITT, 2, (0, 2)))).ok


def test_quotients_of_records_are_downward_directed():
    for name, g in ALL_FIXTURES:
        for r in graded_prime_ideals(g):
            assert is_prime_leavitt(r.quotient), name
            assert quotient_graph(g, r.H) == r.quotient, name


def test_quotient_projection_is_a_homomorphism():
    import itertools

    from pathcenters.center_theory import project_to_quotient
    from pathcenters.graph_algebra import enumerate_ga_monomials

    g = toeplitz_graph()
    h = frozenset({"v"})
    q = quotient_graph(g, h)
    monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)
    els = [Algebra(LEAVITT, g).monomial(m) for m in monos]
    qalg = Algebra(LEAVITT, q)
    for x, y in itertools.islice(itertools.product(els, els), 0, None, 7):
        assert (project_to_quotient(x * y, h, qalg)
                == project_to_quotient(x, h, qalg) * project_to_quotient(y, h, qalg))


def test_verify_bounds_on_disconnected_mixed_fixture():
    from pathcenters import disjoint_union, rose_graph

    g = disjoint_union(cycle_graph(2), rose_graph(0))
    b = center_bounds(Algebra(LEAVITT, g))
    by_h = {tuple(sorted(r.H)): u for r, u in zip(b.records, b.upper)}
    assert by_h == {("v",): "K[x,x^-1]", ("u1", "u2"): "K"}
    assert verify_bounds(central_subspace(g, BOUNDS_WINDOW)).ok


def test_undecidable_ideal_pattern_is_tagged_for_the_oracle():
    # u feeds a sink s and a vertex w with two loops: W_P for the tail
    # {u, w} is the ideal on {w}, whose component has Condition (L) but is
    # no whole graph component, so no decidable corner describes it
    g = Graph.build(
        ["u", "w", "s"],
        [("f", "u", "w"), ("c", "w", "w"), ("d", "w", "w"), ("g", "u", "s")],
    )
    bounds = center_bounds(Algebra(LEAVITT, g))
    by_h = {r.H: s for r, s in zip(bounds.records, bounds.lower)}
    loops = by_h[frozenset({"s"})]
    assert not loops.improper and loops.ideal_vertices == frozenset({"w"})
    assert [p.kind for p in loops.pieces] == ["unknown"]
    assert "oracle-bounded" in loops.pieces[0].detail
    sink = by_h[frozenset({"w"})]
    assert sink.ideal_vertices == frozenset({"s"})
    assert [p.detail for p in sink.pieces] == ["matrix corner over K on 2 paths"]


def test_theory_uses_the_oracle_only_to_verify_its_bounds():
    # the closed-form generators are checked by direct products, so every
    # name the theory takes from the oracle serves `verify_bounds` alone
    import ast
    import inspect

    from pathcenters import center_theory

    tree = ast.parse(inspect.getsource(center_theory))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.level == 1]
    assert not any(node.module is None and alias.name == "oracle"
                   for node in imports for alias in node.names)
    from_oracle = {alias.asname or alias.name for node in imports
                   if node.module == "oracle" for alias in node.names}
    (verify,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name == "verify_bounds"]
    inside = {id(node) for node in ast.walk(verify)}
    used_outside = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and id(node) not in inside}
    assert from_oracle == {"element_vector", "structural_truncation"}
    assert not from_oracle & used_outside
