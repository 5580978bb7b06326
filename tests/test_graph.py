import math

import pytest
from hypothesis import given, settings, strategies as st

from pathcenters import (
    Cycle,
    Graph,
    GraphError,
    Path,
    ResourceCapExceeded,
    classify_prime_leavitt,
    classify_vertex,
    condition_L,
    connected_components,
    cycle_has_exit,
    cycles_without_exits,
    enumerate_hereditary_saturated,
    exit_free_cycle_vertices,
    find_cycles,
    hereditary_saturated_closure,
    is_downward_directed,
    quotient_graph,
)
from pathcenters.graph import all_paths_up_to, count_paths_into, paths_into

from conftest import (
    cycle_feeds_loop,
    cycle_graph,
    disjoint_union,
    extended_graph,
    feeder_loop,
    line_graph,
    opposite_graph,
    rose_graph,
    toeplitz_graph,
    two_loops,
)
from test_fast_paths import is_hereditary, is_saturated, reachable_from


@st.composite
def graphs(draw, max_vertices=5, max_edges=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vs = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=max_edges))
    es = [
        (f"e{j}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
        for j in range(m)
    ]
    return Graph.build(vs, es)


def vertex_subsets(g):
    return st.sets(st.sampled_from(list(g.vertices)), max_size=len(g.vertices))


# --- construction -----------------------------------------------------------


def test_build_rejects_duplicates_and_bad_endpoints():
    with pytest.raises(GraphError):
        Graph.build(["u", "u"], [])
    with pytest.raises(GraphError):
        Graph.build(["u"], [("e", "u", "u"), ("e", "u", "u")])
    with pytest.raises(GraphError):
        Graph.build(["u"], [("e", "u", "w")])
    with pytest.raises(GraphError):
        Graph.build(["u"], [("u", "u", "u")])  # edge id shadows a vertex


def test_path_composability_enforced():
    g = line_graph(3)
    p = Path.from_edges(g, ("f1", "f2"))
    assert p.source == "u1" and p.target == "u3" and p.length == 2
    with pytest.raises(GraphError):
        Path.from_edges(g, ("f2", "f1"))
    with pytest.raises(GraphError):
        Path.vertex(g, "nope")
    assert Path.vertex(g, "u1").length == 0


def test_cycle_canonical_rotation_leads_with_least_edge():
    g = cycle_graph(3)
    c1 = Cycle.from_edges(g, ("f2", "f3", "f1"))
    c2 = Cycle.from_edges(g, ("f1", "f2", "f3"))
    assert c1 == c2
    assert c1.edges == ("f1", "f2", "f3")
    assert c1.vertex_set(g) == frozenset({"u1", "u2", "u3"})


def test_cycle_rejects_repeated_sources():
    g = rose_graph(2)
    with pytest.raises(GraphError):
        Cycle.from_edges(g, ("f1", "f2"))  # closed but both start at v


# --- components --------------------------------------------------------------


def test_connected_components_examples():
    assert connected_components(rose_graph(0)) == [frozenset({"v"})]
    assert connected_components(two_loops()) == [
        frozenset({"u1"}),
        frozenset({"u2"}),
    ]
    assert connected_components(feeder_loop()) == [frozenset({"u", "v"})]


def test_classify_vertex_examples():
    g = line_graph(2)
    assert classify_vertex(g, "u2").sink and not classify_vertex(g, "u2").regular
    assert classify_vertex(g, "u1").source and classify_vertex(g, "u1").regular
    rose = rose_graph(3)
    cl = classify_vertex(rose, "v")
    assert cl.regular and not cl.sink and not cl.source
    iso = classify_vertex(rose_graph(0), "v")
    assert iso.sink and iso.source


# --- cycles and exits ----------------------------------------------------------


def test_find_cycles_examples():
    assert find_cycles(line_graph(3)) == []
    r1 = rose_graph(1)
    assert [c.edges for c in find_cycles(r1)] == [("f1",)]
    # in a rose, closed paths of length 2 repeat the source, so only petals count
    r2 = rose_graph(2)
    assert [c.edges for c in find_cycles(r2)] == [("f1",), ("f2",)]


def test_find_cycles_multigraph_parallel_edges():
    g = Graph.build(["u", "v"],
                    [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "u")])
    assert [cy.edges for cy in find_cycles(g)] == [("a", "c"), ("b", "c")]


def test_cycle_has_exit_examples():
    r1 = rose_graph(1)
    assert not cycle_has_exit(r1, find_cycles(r1)[0])
    tg = toeplitz_graph()
    assert cycle_has_exit(tg, find_cycles(tg)[0])
    r2 = rose_graph(2)
    assert all(cycle_has_exit(r2, c) for c in find_cycles(r2))


def test_condition_L_examples():
    assert condition_L(rose_graph(2))
    assert not condition_L(rose_graph(1))
    assert condition_L(line_graph(3))  # vacuous


def test_cycles_without_exits_and_Pc():
    assert cycles_without_exits(rose_graph(2)) == []
    r1 = rose_graph(1)
    assert [c.edges for c in cycles_without_exits(r1)] == [("f1",)]
    assert exit_free_cycle_vertices(r1) == frozenset({"v"})
    fl = feeder_loop()
    assert [c.edges for c in cycles_without_exits(fl)] == [("c",)]
    assert exit_free_cycle_vertices(fl) == frozenset({"v"})


def test_is_downward_directed_examples():
    assert is_downward_directed(rose_graph(1))
    assert not is_downward_directed(two_loops())
    assert is_downward_directed(feeder_loop())


# --- hereditary saturated machinery --------------------------------------------


def test_closure_examples():
    tg = toeplitz_graph()
    assert hereditary_saturated_closure(tg, set()) == frozenset()
    assert hereditary_saturated_closure(tg, {"v"}) == frozenset({"v"})
    assert hereditary_saturated_closure(tg, {"u"}) == frozenset({"u", "v"})
    with pytest.raises(GraphError):
        hereditary_saturated_closure(tg, {"zz"})


def test_enumerate_hereditary_saturated_examples():
    assert enumerate_hereditary_saturated(toeplitz_graph()) == [
        frozenset(),
        frozenset({"v"}),
        frozenset({"u", "v"}),
    ]
    assert enumerate_hereditary_saturated(rose_graph(0)) == [
        frozenset(),
        frozenset({"v"}),
    ]
    for m in (1, 2, 3):
        assert enumerate_hereditary_saturated(rose_graph(m)) == [
            frozenset(),
            frozenset({"v"}),
        ]


def test_enumerate_matches_direct_predicate_filter():
    # independent oracle: test every subset against the two definitions
    for g in (toeplitz_graph(), two_loops(), feeder_loop(), line_graph(3)):
        vs = list(g.vertices)
        direct = []
        for mask in range(1 << len(vs)):
            s = frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
            if is_hereditary(g, s) and is_saturated(g, s):
                direct.append(s)
        assert sorted(direct, key=lambda s: (len(s), sorted(s))) == \
            enumerate_hereditary_saturated(g)


def test_enumeration_cap():
    with pytest.raises(ResourceCapExceeded):
        enumerate_hereditary_saturated(line_graph(17))


def test_quotient_graph_examples():
    tg = toeplitz_graph()
    q = quotient_graph(tg, {"v"})
    assert q.vertices == ("u",) and q.edge_triples() == [("e", "u", "u")]
    assert quotient_graph(tg, frozenset()) == tg
    line = line_graph(2)
    q2 = quotient_graph(line, {"u2"})
    assert q2.vertices == ("u1",) and q2.edges == ()
    with pytest.raises(GraphError):
        quotient_graph(tg, {"u", "v"})


def test_opposite_and_extended():
    g = line_graph(2)
    op = opposite_graph(g)
    assert op.edge_triples() == [("f1", "u2", "u1")]
    assert opposite_graph(op) == g
    ext = extended_graph(g)
    assert len(ext.graph.edges) == 2 * len(g.edges)
    assert ext.ghost_of == {"f1*": "f1"}
    assert ext.graph.src["f1*"] == "u2" and ext.graph.rng["f1*"] == "u1"


# --- path counting at exit-free cycles ------------------------------------------


def test_count_paths_examples():
    r1 = rose_graph(1)
    assert count_paths_into(r1, frozenset({"v"})) == (1, 0, frozenset({"v"}))
    cls = classify_prime_leavitt(r1)
    assert (cls.path_count, cls.base_count) == (1, 1)

    fl = feeder_loop()
    c = cycles_without_exits(fl)[0]
    assert count_paths_into(fl, c.vertex_set(fl)) == (2, 1, frozenset({"u", "v"}))
    assert classify_prime_leavitt(fl).path_count == 2
    feeding = paths_into(fl, c.vertex_set(fl))
    assert [repr(p) for p in feeding] == ["@v", "f"]

    cfl = cycle_feeds_loop()
    c = cycles_without_exits(cfl)[0]
    assert count_paths_into(cfl, c.vertex_set(cfl)) is None
    assert classify_prime_leavitt(cfl).path_count == math.inf


def test_count_paths_requires_exit_free():
    # the loop at u has an exit, so its vertex set is not closed
    tg = toeplitz_graph()
    with pytest.raises(GraphError):
        count_paths_into(tg, find_cycles(tg)[0].vertex_set(tg))


def test_count_on_multivertex_cycle():
    g = cycle_graph(2)
    c = find_cycles(g)[0]
    # two trivial feeding paths, extended by 0 or 1 of the 2 cycle edges
    assert count_paths_into(g, c.vertex_set(g)) == (2, 0, c.vertex_set(g))
    cls = classify_prime_leavitt(g)
    assert (cls.path_count, cls.base_count) == (4, 2)


def test_infinite_count_agrees_with_independent_cycle_reachability():
    for g in (rose_graph(1), feeder_loop(), cycle_feeds_loop(), two_loops(),
              cycle_graph(3)):
        for c in cycles_without_exits(g):
            cv = c.vertex_set(g)
            other_reaches = any(
                d.edges != c.edges
                and any(reachable_from(g, v) & cv for v in d.vertex_set(g))
                for d in find_cycles(g)
            )
            got = count_paths_into(g, cv)
            assert (got is None) == other_reaches


# --- constructors ---------------------------------------------------------------


def test_builders():
    assert rose_graph(0).vertices == ("v",) and rose_graph(0).edges == ()
    assert cycle_graph(1).edge_triples() == [("f1", "u1", "u1")]
    assert line_graph(2).edge_triples() == [("f1", "u1", "u2")]
    with pytest.raises(GraphError):
        rose_graph(-1)
    with pytest.raises(GraphError):
        line_graph(0)
    with pytest.raises(GraphError):
        cycle_graph(0)
    both = disjoint_union(cycle_graph(2), rose_graph(0))
    assert set(both.vertices) == {"u1", "u2", "v"}
    with pytest.raises(GraphError):
        disjoint_union(rose_graph(1), rose_graph(2))


def test_all_paths_up_to_counts():
    # rose R_2: 2^k paths of length k
    got = all_paths_up_to(rose_graph(2), 3)
    assert len(got) == 1 + 2 + 4 + 8


# --- property tests --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(data=st.data(), g=graphs())
def test_closure_is_idempotent_and_monotone(data, g):
    s = data.draw(vertex_subsets(g))
    t = data.draw(vertex_subsets(g))
    cs = hereditary_saturated_closure(g, s)
    assert hereditary_saturated_closure(g, cs) == cs
    assert is_hereditary(g, cs) and is_saturated(g, cs)
    if s <= t:
        assert cs <= hereditary_saturated_closure(g, t)


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_vertices=4, max_edges=6))
def test_enumerated_sets_pass_definitions(g):
    for h in enumerate_hereditary_saturated(g):
        assert is_hereditary(g, h)
        assert is_saturated(g, h)
        if h != frozenset(g.vertices):
            assert not (set(quotient_graph(g, h).vertices) & h)


@settings(max_examples=60, deadline=None)
@given(g=graphs(max_vertices=4, max_edges=6))
def test_opposite_is_involutive_and_preserves_cycle_count(g):
    assert opposite_graph(opposite_graph(g)) == g
    assert len(find_cycles(opposite_graph(g))) == len(find_cycles(g))
