import random

import pytest
from hypothesis import given, settings, strategies as st

from pathcenters import (
    Algebra,
    AmbientError,
    Graph,
    GMonomial,
    GraphError,
    PATH,
    Path,
    T_operator,
    WordError,
    center_structure_KE,
    cycle_center_evaluate,
    cycle_graph,
    disjoint_union,
    left_annihilator_test,
    line_graph,
    normal_form,
    rose_graph,
)
from pathcenters.center_theory import POLY, SCALAR, SUM, cycle_rotation_sum
from pathcenters.graph import all_paths_up_to, find_cycles
from pathcenters.graph_algebra import COHN, enumerate_ga_monomials


def ke_monomial(g, path, coeff=1):
    """coeff·path in KE, the algebra `Algebra(PATH, g)`."""
    m = GMonomial(path, Path.vertex(g, path.target))
    return Algebra(PATH, g).monomial(m, coeff)


def ke_path(g, *edges):
    return ke_monomial(g, Path.from_edges(g, edges))


def ke_vertex(g, v):
    return Algebra(PATH, g).vertex(v)


def test_vertices_are_orthogonal_idempotents():
    g = line_graph(2)
    u, v = ke_vertex(g, "u1"), ke_vertex(g, "u2")
    assert u * u == u
    assert not (u * v)


def test_edge_concatenation():
    g = line_graph(3)
    e, f = ke_path(g, "f1"), ke_path(g, "f2")
    assert e * f == ke_path(g, "f1", "f2")
    assert not (f * e)


def test_cycle_power_has_doubled_degree():
    g = cycle_graph(3)
    c1 = ke_path(g, "f1", "f2", "f3")
    sq = c1 * c1
    assert sq == ke_path(g, "f1", "f2", "f3", "f1", "f2", "f3")
    assert sq.degree() == 6


def test_degree_mixed_reports_none():
    g = rose_graph(1)
    el = ke_vertex(g, "v") + ke_path(g, "f1")
    assert el.degree() is None
    assert ke_vertex(g, "v").degree() == 0


def test_peirce_components():
    g = line_graph(2)
    u = ke_vertex(g, "u1")
    e = ke_path(g, "f1")
    assert u.peirce_component("u1", "u1") == u
    assert e.peirce_component("u1", "u2") == e
    assert not e.peirce_component("u2", "u1")
    mixed = u + e
    total = Algebra(PATH, g).zero()
    for a in g.vertices:
        for b in g.vertices:
            total = total + mixed.peirce_component(a, b)
    assert total == mixed


def test_ambient_mismatch_raises():
    a = ke_vertex(rose_graph(1), "v")
    b = ke_vertex(rose_graph(2), "v")
    with pytest.raises(AmbientError):
        a * b


def test_associativity_on_random_bounded_triples():
    rng = random.Random(7)
    g = rose_graph(2)
    paths = all_paths_up_to(g, 3)

    def rand_el():
        out = Algebra(PATH, g).zero()
        for _ in range(rng.randint(1, 3)):
            out = out + ke_monomial(g, rng.choice(paths),
                                    rng.choice([1, -1, 2]))
        return out

    for _ in range(200):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)


def test_product_of_homogeneous_is_homogeneous():
    g = cycle_graph(2)
    a = ke_path(g, "f1") + ke_path(g, "f2")
    b = ke_path(g, "f1", "f2") + ke_path(g, "f2", "f1")
    prod = a * b
    assert prod.degree() == 3


def test_left_annihilator_lemma_everywhere():
    g = cycle_graph(3)
    mu = Path.from_edges(g, ("f1", "f2"))
    assert left_annihilator_test(g, mu, "u3", "u1", 3)
    assert left_annihilator_test(g, Path.vertex(g, "u1"), "u1", "u2", 3)
    r2 = rose_graph(2)
    assert left_annihilator_test(r2, Path.from_edges(r2, ("f1",)), "v", "v", 2)
    with pytest.raises(GraphError):
        left_annihilator_test(g, mu, "u1", "u2", 3)


# --- the KE center theorem -----------------------------------------------------


def test_center_of_cycle_graph_is_polynomial_on_rotation_sum():
    g = cycle_graph(3)
    cs = center_structure_KE(Algebra(PATH, g))
    assert cs.kind == POLY
    expected = (
        ke_path(g, "f1", "f2", "f3")
        + ke_path(g, "f2", "f3", "f1")
        + ke_path(g, "f3", "f1", "f2")
    )
    assert cs.generators[1] == expected
    assert cs.generators[0] == Algebra(PATH, g).one()


def test_center_of_non_cycle_graphs_is_scalar():
    for g in (line_graph(1), line_graph(2), line_graph(3),
              rose_graph(2), rose_graph(3)):
        cs = center_structure_KE(Algebra(PATH, g))
        assert cs.kind == SCALAR
        assert cs.generators == (Algebra(PATH, g).one(),)


def test_center_of_disconnected_graph_is_direct_sum():
    g = disjoint_union(cycle_graph(2), rose_graph(0))
    cs = center_structure_KE(Algebra(PATH, g))
    assert cs.kind == SUM
    kinds = sorted(c.kind for c in cs.components)
    assert kinds == [POLY, SCALAR]
    poly = next(c for c in cs.components if c.kind == POLY)
    assert poly.generators[1] == ke_path(g, "f1", "f2") + ke_path(g, "f2", "f1")
    scalar = next(c for c in cs.components if c.kind == SCALAR)
    assert scalar.generators[0] == ke_vertex(g, "v")


def test_cycle_center_evaluate():
    g = cycle_graph(2)
    alg = Algebra(PATH, g)
    assert cycle_center_evaluate(alg, [1]) == alg.one()
    c1, c2 = ke_path(g, "f1", "f2"), ke_path(g, "f2", "f1")
    assert cycle_center_evaluate(alg, [0, 1]) == c1 + c2
    assert cycle_center_evaluate(alg, [0, 0, 1]) == c1 * c1 + c2 * c2
    with pytest.raises(GraphError):
        cycle_center_evaluate(Algebra(PATH, line_graph(2)), [1])
    with pytest.raises(GraphError):
        cycle_center_evaluate(
            Algebra(PATH, disjoint_union(cycle_graph(2), rose_graph(0))), [1])


def test_evaluate_is_multiplicative_on_monomials():
    alg = Algebra(PATH, cycle_graph(3))
    x2 = cycle_center_evaluate(alg, [0, 0, 1])
    x = cycle_center_evaluate(alg, [0, 1])
    assert x * x == x2


def test_rotation_sum_powers_match_evaluate():
    g = cycle_graph(4)
    alg = Algebra(PATH, g)
    cyc = find_cycles(g)[0]
    assert cycle_rotation_sum(alg, cyc, 2) == cycle_center_evaluate(alg, [0, 0, 1])


# --- the shared engine against plain path concatenation ------------------------


def concat_product(a, b):
    """Reference product of KE: bilinear path concatenation, zero on a
    range/source mismatch (the product of the former KE-only ring)."""
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            if p.target != q.source:
                continue
            r = Path(p.source, q.target, p.edges + q.edges)
            out[r] = out.get(r, 0) + x * y
    return {r: c for r, c in out.items() if c}


@st.composite
def graph_and_two_combinations(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    vs = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=6))
    es = [(f"e{j}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
          for j in range(m)]
    g = Graph.build(vs, es)
    paths = all_paths_up_to(g, 3)

    def combination():
        out = {}
        terms = draw(st.lists(st.tuples(st.sampled_from(paths),
                                        st.integers(min_value=-3, max_value=3)),
                              max_size=4))
        for p, c in terms:
            out[p] = out.get(p, 0) + c
        return out

    return g, combination(), combination()


@settings(max_examples=150, deadline=None)
@given(data=graph_and_two_combinations())
def test_shared_engine_product_matches_path_concatenation(data):
    g, a, b = data

    def element(combo):
        out = Algebra(PATH, g).zero()
        for p, c in combo.items():
            out = out + ke_monomial(g, p, c)
        return out

    prod = element(a) * element(b)
    assert prod.kind == PATH
    assert all(m.ghost.is_trivial for m in prod.coeffs)
    assert {m.real: c for m, c in prod.coeffs.items()} == concat_product(a, b)


def test_path_kind_has_no_ghosts_and_no_involution():
    g = rose_graph(1)
    with pytest.raises(WordError):
        normal_form(Algebra(PATH, g), [(1, ["f1*"])])
    with pytest.raises(WordError):
        normal_form(Algebra(PATH, g), [(1, ["f1*", "f1"])])  # CK1 would erase the ghost
    with pytest.raises(GraphError):
        Algebra(PATH, g).edge("f1", ghost=True)
    with pytest.raises(AmbientError):
        ke_path(g, "f1").involution()
    with pytest.raises(AmbientError):
        T_operator(ke_path(g, "f1"), ke_vertex(g, "v"))


def test_path_monomials_are_the_ghost_free_cohn_monomials():
    for g in (rose_graph(2), cycle_graph(3), line_graph(3)):
        for kwargs in ({}, {"degrees": (1, 2)}, {"source": g.vertices[0]}):
            cohn = enumerate_ga_monomials(Algebra(COHN, g), 3, **kwargs)
            assert enumerate_ga_monomials(Algebra(PATH, g), 3, **kwargs) == [
                m for m in cohn if m.ghost.is_trivial]
