import pytest

from pathcenters import (
    Algebra,
    AmbientError,
    CenterStructure,
    COHN,
    LEAVITT,
    OracleWindow,
    PATH,
    PrimeField,
    ResourceCapExceeded,
    central_subspace,
    centrality_witness,
    check_central,
    center_prime_leavitt,
    center_structure_KE,
    verify_structure,
)
from pathcenters.center_theory import SCALAR, center_prime_cohn
from pathcenters.graph import find_cycles
from pathcenters.linalg import LinearSpan
from pathcenters.graph_algebra import enumerate_ga_monomials
from pathcenters.oracle import element_vector
from pathcenters.scalars import QQ
from pathcenters.textio import parse_graph

from conftest import (
    count_witness_kernels,
    cycle_feeds_loop,
    cycle_graph,
    disjoint_union,
    feeder_loop,
    fixture_path,
    formed_only_nonzero_products,
    graded_center_component,
    is_symmetric,
    is_vertex,
    line_graph,
    peirce_component,
    record_algebra_builds,
    record_kernel_products,
    rose_graph,
    toeplitz_graph,
    two_loops,
    word_element,
)

PRIME_LEAVITT_FIXTURES = [
    ("rose_1", rose_graph(1)),
    ("rose_2", rose_graph(2)),
    ("rose_3", rose_graph(3)),
    ("line_2", line_graph(2)),
    ("line_3", line_graph(3)),
    ("cycle_2", cycle_graph(2)),
    ("toeplitz", toeplitz_graph()),
    ("feeder_loop", feeder_loop()),
    ("cycle_feeds_loop", cycle_feeds_loop()),
]


def test_window_validation():
    with pytest.raises(AmbientError):
        OracleWindow("weird", 2)
    with pytest.raises(AmbientError):
        OracleWindow(PATH, -1)
    with pytest.raises(AmbientError):
        OracleWindow(LEAVITT, 2, (3, 1))
    with pytest.raises(AmbientError):
        OracleWindow(LEAVITT, 2, (-5, 0))  # degree filter must satisfy |n| <= L


def test_check_central_examples():
    r1 = rose_graph(1)
    assert check_central(Algebra(LEAVITT, r1).one())
    # L(R_1) is commutative
    assert check_central(word_element(Algebra(LEAVITT, r1), ["f1"]))
    r2 = rose_graph(2)
    e = word_element(Algebra(LEAVITT, r2), ["f1"])
    assert not check_central(e)
    label, _ = centrality_witness(e)
    assert label == "f2"
    tg = toeplitz_graph()
    assert check_central(Algebra(PATH, tg).one())
    assert not check_central(Algebra(PATH, tg).vertex("u"))


def test_central_subspace_ke_cycle():
    g = cycle_graph(2)
    sub = central_subspace(g, OracleWindow(PATH, 4, (0, 4)))
    ke = Algebra(PATH, g)
    c1 = ke.edge("f1") * ke.edge("f2")
    c2 = ke.edge("f2") * ke.edge("f1")
    expected = [ke.one(), c1 + c2, c1 * c1 + c2 * c2]
    assert sub.dim == 3
    span = LinearSpan(sub.basis[0].field)
    for el in sub.basis:
        span.add(element_vector(el))
    for el in expected:
        assert span.contains(element_vector(el))
    back = LinearSpan(sub.basis[0].field)
    for el in expected:
        back.add(element_vector(el))
    for el in sub.basis:
        assert back.contains(element_vector(el))


def test_central_subspace_leavitt_r2_is_scalars():
    sub = central_subspace(rose_graph(2), OracleWindow(LEAVITT, 3, (-3, 3)))
    assert sub.dim == 1
    assert sub.basis[0] == Algebra(LEAVITT, rose_graph(2)).one()


def test_central_subspace_isolated_vertex():
    g = rose_graph(0)
    sub = central_subspace(g, OracleWindow(LEAVITT, 2))
    assert [repr(b) for b in sub.basis] == ["1 @v"]


def test_laurent_powers_in_window_r1():
    sub = central_subspace(rose_graph(1), OracleWindow(LEAVITT, 4, (-4, 4)))
    assert sub.dim == 9
    degs = sorted(b.degree() for b in sub.basis)
    assert degs == [-4, -3, -2, -1, 0, 1, 2, 3, 4]


def test_vertex_span_meets_center_in_scalars():
    # length-0 window = the span of the vertices; for connected graphs the
    # only central combinations are the multiples of 1
    for kind in (PATH, COHN, LEAVITT):
        for g in (toeplitz_graph(), line_graph(3), cycle_graph(2), rose_graph(2)):
            sub = central_subspace(g, OracleWindow(kind, 0))
            assert sub.dim == 1
            ones = {c for c in sub.basis[0].coeffs.values()}
            assert len(ones) == 1


def test_graded_component_examples():
    comp = graded_center_component(rose_graph(1), LEAVITT, 1, 2)
    assert [repr(b) for b in comp.basis] == ["1 f1"]
    comp = graded_center_component(rose_graph(2), LEAVITT, 0, 2)
    assert comp.dim == 1 and comp.basis[0] == Algebra(LEAVITT, rose_graph(2)).one()
    comp = graded_center_component(rose_graph(1), COHN, 1, 3)
    assert comp.dim == 0
    sub = central_subspace(rose_graph(1), OracleWindow(COHN, 4, (1, 3)))
    assert sub.dim == 0


def test_degree_zero_vectors_are_symmetric_and_peirce_diagonal():
    for name, g in PRIME_LEAVITT_FIXTURES:
        comp = graded_center_component(g, LEAVITT, 0, 3)
        assert comp.dim == 1, name
        for z in comp.basis:
            assert is_symmetric(z), name
            diag = Algebra(LEAVITT, g).zero()
            for u in g.vertices:
                diag = diag + peirce_component(z, u, u)
            assert diag == z, name


def test_scalar_components_on_vertices_with_closed_paths():
    # u z u is a multiple of u whenever a closed path runs through u
    for name, g in PRIME_LEAVITT_FIXTURES:
        on_cycles = set()
        for c in find_cycles(g):
            on_cycles |= c.vertex_set(g)
        sub = central_subspace(g, OracleWindow(LEAVITT, 3, (-3, 3)))
        for z in sub.basis:
            zz = z if z.degree() == 0 else None
            if zz is None:
                continue
            for u in sorted(on_cycles):
                part = peirce_component(zz, u, u)
                assert all(is_vertex(m) for m in part.coeffs), (name, u)


def test_window_monotonicity():
    for g in (rose_graph(1), toeplitz_graph(), two_loops()):
        small = central_subspace(g, OracleWindow(LEAVITT, 2, (-2, 2)))
        large = central_subspace(g, OracleWindow(LEAVITT, 3, (-3, 3)))
        span = LinearSpan(small.basis[0].field if small.basis else None)
        for el in large.basis:
            span.add(element_vector(el))
        for el in small.basis:
            assert span.contains(element_vector(el))


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("PATHCENTERS_MAX_MONOMIALS", "50")
    with pytest.raises(ResourceCapExceeded):
        central_subspace(rose_graph(3), OracleWindow(LEAVITT, 3))


def test_prime_field_mode():
    f7 = PrimeField(7)
    sub = central_subspace(rose_graph(1), OracleWindow(LEAVITT, 3, (-3, 3)),
                           field=f7)
    assert sub.dim == 7
    sub = central_subspace(rose_graph(2), OracleWindow(LEAVITT, 2, (-2, 2)),
                           field=f7)
    assert sub.dim == 1
    assert set(sub.basis[0].coeffs.values()) == {1}


# --- verify_structure -------------------------------------------------------------


def test_verify_teoro_claim_on_cycle():
    g = cycle_graph(3)
    claim = center_structure_KE(Algebra(PATH, g))
    rep = verify_structure(claim, central_subspace(g, OracleWindow(PATH, 6, (0, 6))))
    assert rep.ok
    assert rep.oracle_dim == 3  # 1, the rotation sum, and its square


def test_verify_atomo_claim_on_roses():
    rep = verify_structure(
        center_prime_leavitt(Algebra(LEAVITT, rose_graph(2))),
        central_subspace(rose_graph(2), OracleWindow(LEAVITT, 3, (-3, 3))))
    assert rep.ok and rep.oracle_dim == 1
    rep = verify_structure(
        center_prime_leavitt(Algebra(LEAVITT, rose_graph(1))),
        central_subspace(rose_graph(1), OracleWindow(LEAVITT, 4, (-4, 4))))
    assert rep.ok and rep.oracle_dim == 9


def test_verify_cohn_claim():
    rep = verify_structure(center_prime_cohn(Algebra(COHN, rose_graph(2))),
                           central_subspace(rose_graph(2), OracleWindow(COHN, 2, (-2, 2))))
    assert rep.ok and rep.oracle_dim == 1


def test_verify_rejects_corrupted_claim():
    g = rose_graph(2)
    bogus = CenterStructure(SCALAR, (word_element(Algebra(LEAVITT, g), ["f1"]),))
    rep = verify_structure(
        bogus, central_subspace(g, OracleWindow(LEAVITT, 2, (-2, 2))))
    assert not rep.ok
    assert rep.generator_failures and rep.generator_failures[0][1] == "f2"
    assert rep.outside_span  # the true center escapes the corrupted span


def test_verify_structure_fails_on_centrality_alone():
    # L(R_2) has center K: a sum claim whose second piece is f1 still spans
    # the window's center, but f1 fails against f2
    sub = central_subspace(rose_graph(2), OracleWindow(LEAVITT, 2))
    f1 = word_element(sub.algebra, ["f1"])
    claim = CenterStructure("sum", (), (CenterStructure(SCALAR, (sub.algebra.one(),)),
                                        CenterStructure(SCALAR, (f1,))))
    rep = verify_structure(claim, sub)
    assert not rep.ok and not rep.outside_span
    assert rep.generator_failures == ((repr(f1), "f2"),)


def test_verify_structure_fails_on_the_span_alone():
    # L(R_1) = K[x, x^-1]: the claim K is central, and f1 escapes its span
    sub = central_subspace(rose_graph(1), OracleWindow(LEAVITT, 2))
    rep = verify_structure(CenterStructure(SCALAR, (sub.algebra.one(),)), sub)
    assert not rep.ok and not rep.generator_failures
    assert len(rep.outside_span) == 4 and (rep.span_dim, rep.oracle_dim) == (1, 5)


def test_a_verdict_is_computed_once_per_element(monkeypatch):
    # the Toeplitz algebra C(R_1): the unit v is central, f1 fails against f1*
    built = count_witness_kernels(monkeypatch)
    alg = Algebra(COHN, rose_graph(1))
    verdicts = [centrality_witness(x) for x in (
        alg.one(), word_element(alg, ["f1"]), alg.one(), word_element(alg, ["f1"]))]
    assert [w and w[0] for w in verdicts] == [None, "f1*", None, "f1*"]
    assert len(built) == 2


@pytest.mark.parametrize("kinds", [(LEAVITT, COHN), (COHN, LEAVITT)])
def test_a_verdict_does_not_carry_across_algebras(kinds):
    # f1 is central in L(R_1) = K[x, x^-1], and not in C(R_1)
    expected = {LEAVITT: None, COHN: "f1*"}
    for kind in kinds:
        witness = centrality_witness(word_element(Algebra(kind, rose_graph(1)), ["f1"]))
        assert (witness and witness[0]) == expected[kind], kind


def test_only_a_failing_witness_builds_the_labelled_generators(monkeypatch):
    built = record_algebra_builds(monkeypatch)
    sub = central_subspace(rose_graph(2), OracleWindow(LEAVITT, 2, (-2, 2)))
    assert verify_structure(center_prime_leavitt(sub.algebra), sub).ok
    assert not built["generators"]
    bogus = CenterStructure(SCALAR, (word_element(sub.algebra, ["f1"]),))
    assert verify_structure(bogus, sub).generator_failures[0][1] == "f2"
    assert built["generators"] == [sub.algebra]


def test_verify_structure_on_disconnected_sum():
    g = two_loops()
    # the center is K[c,c^-1] (+) K[d,d^-1]; describe it as a sum claim
    alg = Algebra(LEAVITT, g)
    c, d = word_element(alg, ["c"]), word_element(alg, ["d"])
    u1, u2 = word_element(alg, ["u1"]), word_element(alg, ["u2"])
    claim = CenterStructure("sum", (), (
        CenterStructure("laurent", (u1, c)),
        CenterStructure("laurent", (u2, d)),
    ))
    rep = verify_structure(
        claim, central_subspace(g, OracleWindow(LEAVITT, 3, (-3, 3))))
    assert rep.ok and rep.oracle_dim == 14


def test_ke_structural_generators_are_central():
    from pathcenters import center_structure_KE

    for g in (cycle_graph(2), cycle_graph(3), line_graph(3),
              disjoint_union(cycle_graph(2), rose_graph(0))):
        cs = center_structure_KE(Algebra(PATH, g))
        pieces = cs.components if cs.kind == "sum" else (cs,)
        for piece in pieces:
            for gen in piece.generators:
                assert check_central(gen)


def test_all_central_vectors_are_peirce_diagonal():
    for g in (toeplitz_graph(), cycle_graph(2), two_loops()):
        sub = central_subspace(g, OracleWindow(LEAVITT, 3, (-3, 3)))
        for z in sub.basis:
            diag = Algebra(LEAVITT, g).zero()
            for u in g.vertices:
                diag = diag + peirce_component(z, u, u)
            assert diag == z


def test_prime_field_center_construction():
    from pathcenters import center_prime_leavitt
    from conftest import feeder_loop

    f5 = PrimeField(5)
    g = feeder_loop()
    cs = center_prime_leavitt(Algebra(LEAVITT, g, field=f5))
    assert cs.kind == "laurent"
    z = cs.generators[1]
    assert z.field == f5 and check_central(z)
    assert z * z.involution() == Algebra(LEAVITT, g, field=f5).one()


def test_verify_ke_sum_claim_on_disconnected():
    from pathcenters import center_structure_KE

    g = disjoint_union(cycle_graph(2), rose_graph(0))
    claim = center_structure_KE(Algebra(PATH, g))
    rep = verify_structure(claim, central_subspace(g, OracleWindow(PATH, 4, (0, 4))))
    assert rep.ok
    assert rep.oracle_dim == 4  # 1, x, x^2 on the cycle block plus K on v


def test_verify_structure_refuses_a_claim_in_another_algebra():
    # a path-algebra solve said nothing about the Leavitt claim, yet it
    # used to pass as a check of it
    g = rose_graph(1)
    claim = center_prime_leavitt(Algebra(LEAVITT, g))
    with pytest.raises(AmbientError):
        verify_structure(claim, central_subspace(g, OracleWindow(PATH, 3, (0, 3))))
    with pytest.raises(AmbientError):  # same kind and graph, another field
        verify_structure(claim, central_subspace(
            g, OracleWindow(LEAVITT, 3, (0, 3)), field=PrimeField(7)))
    rep = verify_structure(claim, central_subspace(g, OracleWindow(LEAVITT, 3, (0, 3))))
    assert rep.ok and rep.oracle_dim == 4


def test_one_solve_and_its_recheck_build_the_generators_once(monkeypatch):
    built = record_algebra_builds(monkeypatch)
    sub = central_subspace(rose_graph(1), OracleWindow(LEAVITT, 3))
    assert sub.dim == 7  # f1^k for |k| <= 3, each rechecked after the solve
    assert len(built["generator_symbols"]) == 1
    assert all(check_central(z) for z in sub.basis)
    assert len(built["generator_symbols"]) == 1


@pytest.mark.parametrize("kind", [LEAVITT, COHN])
@pytest.mark.parametrize("name, g", [("toeplitz", toeplitz_graph()),
                                     ("cycle_feeds_loop", cycle_feeds_loop()),
                                     ("rose_2", rose_graph(2))])
def test_assembly_forms_no_zero_product(monkeypatch, name, g, kind):
    from pathcenters import oracle

    products = record_kernel_products(monkeypatch, oracle)
    sub = central_subspace(g, OracleWindow(kind, 3))
    all_pairs = 2 * sub.candidate_count * len(Algebra(kind, g).generators)
    assert products and formed_only_nonzero_products(products), name
    assert len(products) < all_pairs, name


def junction_bucket_size(g, window):
    """How many products the junction buckets hold: each diagonal candidate
    m = λμ* against each edge and ghost edge whose junction it meets."""
    candidates = enumerate_ga_monomials(Algebra(window.kind, g), window.max_len,
                                        degrees=window.degrees)
    diagonal = [m for m in candidates if m.source == m.target]

    def meets(part, e):  # the part starts with e or is trivial at s(e)
        return part.edges[:1] == (e,) or (part.is_trivial and part.source == g.src[e])

    return sum(
        meets(m.ghost, e) + meets(m.real, e)  # m·e, e*·m
        + 2 * (m.source == g.rng[e])  # e·m, m·e*
        for e in g.edges for m in diagonal
    )


@pytest.mark.parametrize("name, kind", [("rose_2", LEAVITT), ("rose_2", COHN),
                                        ("toeplitz", LEAVITT)])
def test_assembly_skips_columns_forced_to_zero(monkeypatch, name, kind):
    from pathcenters import oracle
    from test_fast_paths import central_subspace_by_all_pairs

    g = {"rose_2": rose_graph(2), "toeplitz": toeplitz_graph()}[name]
    window = OracleWindow(kind, 3)
    products = record_kernel_products(monkeypatch, oracle)
    sub = central_subspace(g, window)
    assert 0 < len(products) < junction_bucket_size(g, window), name
    assert sub.basis == central_subspace_by_all_pairs(g, window, QQ).basis


@pytest.mark.parametrize("name, max_len, calls", [("rose_2", 3, 345),
                                                  ("toeplitz", 4, 101)])
def test_a_solve_forms_a_fixed_number_of_products(monkeypatch, name, max_len, calls):
    """The monomial products one Leavitt solve forms, one per (column, side)
    of a generator, the post-solve recheck included.  A speed-up must make
    each product cheaper: one that skips products changes this count."""
    from pathcenters import graph_algebra, oracle

    formed = record_kernel_products(monkeypatch, oracle, graph_algebra)
    g = parse_graph(fixture_path(name).read_text())
    sub = central_subspace(g, OracleWindow(LEAVITT, max_len))
    assert sub.dim == 1 and len(formed) == calls
