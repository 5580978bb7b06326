import hashlib
import operator
import random

import pytest

from pathcenters import (
    Algebra,
    AmbientError,
    COHN,
    GMonomial,
    GraphError,
    Graph,
    LEAVITT,
    Path,
    PrimeField,
    SpecialEdgeChoice,
    T_operator,
    WordError,
    cohn_to_leavitt_graph,
    cycle_graph,
    fixed_point_subspace,
    line_graph,
    normal_form,
    rose_graph,
    toeplitz_graph,
    word_element,
)
from pathcenters.graph import all_paths_up_to
from pathcenters.graph_algebra import (
    ALGEBRA_KINDS,
    PATH,
    _E,
    _G,
    _V,
    enumerate_ga_monomials,
    parse_word,
)
from pathcenters.scalars import QQ
from pathcenters.textio import parse_graph

from conftest import FIXTURES, feeder_loop
from test_fast_paths import rewrite_words


def we(g, kind, *word):
    return word_element(Algebra(kind, g), word)


# --- CK1 and CK2 ---------------------------------------------------------------


def test_ck1_examples():
    r2 = rose_graph(2)
    for kind in (COHN, LEAVITT):
        assert we(r2, kind, "f1*", "f1") == we(r2, kind, "v")
        assert not we(r2, kind, "f1*", "f2")


def test_ck2_eliminates_special_pair_in_leavitt():
    r2 = rose_graph(2)  # special edge at v is f1 (lexicographically least)
    got = we(r2, LEAVITT, "f1", "f1*")
    assert got == we(r2, LEAVITT, "v") - we(r2, LEAVITT, "f2", "f2*")
    # the non-special pair stays a basis monomial
    other = we(r2, LEAVITT, "f2", "f2*")
    assert list(other.coeffs) == [GMonomial(Path.from_edges(r2, ("f2",)),
                                            Path.from_edges(r2, ("f2",)))]


def test_cohn_keeps_ee_star():
    r2 = rose_graph(2)
    el = we(r2, COHN, "f1", "f1*")
    assert len(el.coeffs) == 1


def test_r1_loop_relations():
    r1 = rose_graph(1)
    c, cstar, v = (we(r1, LEAVITT, "f1"), we(r1, LEAVITT, "f1*"),
                   we(r1, LEAVITT, "v"))
    assert cstar * c == v
    assert c * cstar == v  # CK2 with a single petal
    assert we(r1, COHN, "f1") * we(r1, COHN, "f1*") != we(r1, COHN, "v")


def test_ck_relations_normalize_to_zero():
    for g in (rose_graph(2), toeplitz_graph(), cycle_graph(2)):
        for e in g.edges:
            for f in g.edges:
                rel = (Algebra(LEAVITT, g).edge(e, ghost=True)
                       * Algebra(LEAVITT, g).edge(f))
                expect = (we(g, LEAVITT, g.rng[e])
                          if e == f else Algebra(LEAVITT, g).zero())
                assert rel == expect
        for v in g.vertices:
            if not g.is_regular(v):
                continue
            acc = we(g, LEAVITT, v)
            for e in g.out_edges(v):
                acc = acc - we(g, LEAVITT, e, f"{e}*")
            assert not acc  # CK2 holds
            cohn_acc = we(g, COHN, v)
            for e in g.out_edges(v):
                cohn_acc = cohn_acc - we(g, COHN, e, f"{e}*")
            assert cohn_acc  # but stays nonzero in the Cohn algebra


def test_cohn_idempotent_display():
    # (u - sum ff*) A (u - sum ff*) = K (u - sum ff*) on bounded monomials
    g = rose_graph(2)
    q = we(g, COHN, "v") - we(g, COHN, "f1", "f1*") - we(g, COHN, "f2", "f2*")
    assert q * q == q
    for m in enumerate_ga_monomials(Algebra(COHN, g), 2):
        mid = Algebra(COHN, g).monomial(m)
        prod = q * mid * q
        if prod:
            assert list(prod.coeffs) == list(q.coeffs)


def test_cohn_primeness_obstruction_kaw1():
    # distinct non-sink vertices: (u - sum ff*) m (v - sum gg*) == 0
    g = cycle_graph(2)
    qu = we(g, COHN, "u1") - we(g, COHN, "f1", "f1*")
    qv = we(g, COHN, "u2") - we(g, COHN, "f2", "f2*")
    for m in enumerate_ga_monomials(Algebra(COHN, g), 3):
        mid = Algebra(COHN, g).monomial(m)
        assert not (qu * mid * qv)


# --- multiplication, involution, grading ------------------------------------------


def test_vertex_multiplication():
    g = line_graph(2)
    u, v = we(g, LEAVITT, "u1"), we(g, LEAVITT, "u2")
    assert u * u == u
    assert not (u * v)


def test_ck2_sum_acts_like_vertex():
    g = toeplitz_graph()
    s = we(g, LEAVITT, "e", "e*") + we(g, LEAVITT, "f", "f*")
    for m in enumerate_ga_monomials(Algebra(LEAVITT, g), 2):
        if m.source != "u":
            continue
        el = Algebra(LEAVITT, g).monomial(m)
        assert s * el == el


def test_involution_examples():
    g = rose_graph(2)
    v = we(g, LEAVITT, "v")
    assert v.involution() == v
    e = we(g, LEAVITT, "f1")
    estar = e.involution()
    assert list(estar.coeffs)[0].ghost.edges == ("f1",)
    assert estar.involution() == e
    assert estar.degree() == -1


def test_involution_is_antimultiplicative():
    rng = random.Random(3)
    g = toeplitz_graph()
    monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)

    def rand_el():
        out = Algebra(LEAVITT, g).zero()
        for _ in range(rng.randint(1, 3)):
            out = out + Algebra(LEAVITT, g).monomial(
                rng.choice(monos), rng.choice([1, -1, 2]))
        return out

    for _ in range(100):
        x, y = rand_el(), rand_el()
        assert (x * y).involution() == y.involution() * x.involution()
        hx = x.degree()
        if hx is not None:
            assert x.involution().degree() == -hx


def test_degree_of_homogeneous_and_mixed_elements():
    g = rose_graph(2)
    v = we(g, LEAVITT, "v")
    assert v.degree() == 0
    m = we(g, COHN, "f1", "f2*", "f1*")  # lambda = f1, mu = f1.f2
    assert m.degree() == -1
    homog = we(g, COHN, "f1", "f1", "f1*") + we(g, COHN, "f1")
    assert homog.degree() == 1
    mixed = homog + we(g, COHN, "v")
    assert mixed.degree() is None


def test_is_symmetric():
    g = rose_graph(2)
    assert we(g, LEAVITT, "v").is_symmetric()
    assert we(g, COHN, "f1", "f1*").is_symmetric()
    assert not we(g, LEAVITT, "f1").is_symmetric()


# --- T operators and fixed points ---------------------------------------------------


def test_T_vertex_is_corner_projection():
    g = toeplitz_graph()
    u = we(g, LEAVITT, "u")
    x = we(g, LEAVITT, "e") + we(g, LEAVITT, "f") + we(g, LEAVITT, "u")
    assert T_operator(u, x) == u * x * u


def test_T_composition_rule():
    rng = random.Random(11)
    g = rose_graph(2)
    monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)
    for _ in range(50):
        a = Algebra(LEAVITT, g).monomial(rng.choice(monos))
        b = Algebra(LEAVITT, g).monomial(rng.choice(monos))
        x = Algebra(LEAVITT, g).monomial(rng.choice(monos))
        assert T_operator(a, T_operator(b, x)) == T_operator(b * a, x)


def test_T_c_collapses_symmetric_powers_in_leavitt_r1():
    r1 = rose_graph(1)
    c = we(r1, LEAVITT, "f1")
    v = we(r1, LEAVITT, "v")
    for n in range(1, 4):
        power = we(r1, LEAVITT, *(["f1"] * n + ["f1*"] * n))
        assert power == v  # normal form collapses c^n (c*)^n
        assert T_operator(c, power) == v


def test_T_c_on_cohn_r1_matches_hand_reduction():
    r1 = rose_graph(1)
    c = we(r1, COHN, "f1")
    cc = we(r1, COHN, "f1", "f1*")
    assert T_operator(c, cc) == we(r1, COHN, "v")


def test_fixed_point_subspace_examples():
    r1 = rose_graph(1)
    loop = Path.from_edges(r1, ("f1",))
    for kind in (COHN, LEAVITT):
        fp = fixed_point_subspace(Algebra(kind, r1), loop, 3)
        assert len(fp) == 1
        assert fp[0] == we(r1, kind, "v")
    g = cycle_graph(2)
    fp = fixed_point_subspace(Algebra(COHN, g), Path.from_edges(g, ("f1", "f2")),
                              4)
    assert [repr(b) for b in fp] == ["1 @u1"]
    fp0 = fixed_point_subspace(Algebra(COHN, r1), loop, 0)
    assert [repr(b) for b in fp0] == ["1 @v"]
    with pytest.raises(GraphError):
        fixed_point_subspace(Algebra(COHN, line_graph(2)),
                             Path.from_edges(line_graph(2), ("f1",)), 2)


# --- raw words: the rewrite rules in any order, and errors ------------------------


def random_word(g, rng, max_len=8):
    ext_syms = []
    for e in g.edges:
        ext_syms.append((e, g.src[e], g.rng[e]))
        ext_syms.append((e + "*", g.rng[e], g.src[e]))
    for v in g.vertices:
        ext_syms.append((v, v, v))
    word = []
    sym = rng.choice(ext_syms)
    word.append(sym)
    for _ in range(rng.randrange(max_len - 1)):
        options = [s for s in ext_syms if s[1] == sym[2]]
        if not options:
            break
        sym = rng.choice(options)
        word.append(sym)
    return [s[0] for s in word]


@pytest.mark.parametrize("maker", [
    lambda: rose_graph(1),
    lambda: rose_graph(2),
    toeplitz_graph,
    lambda: cycle_graph(2),
    feeder_loop,
])
def test_normal_form_invariant_under_rule_order(maker):
    g = maker()
    rng = random.Random(str(sorted(g.edges)))
    for _ in range(150):
        word = random_word(g, rng)
        for kind in (COHN, LEAVITT):
            det = normal_form(Algebra(kind, g), [(1, word)])
            for seed in (1, 2):
                rnd = rewrite_words(Algebra(kind, g), [(1, word)],
                                    random.Random(seed))
                assert rnd == det


def test_normal_form_is_idempotent():
    g = toeplitz_graph()
    rng = random.Random(5)
    for _ in range(100):
        el = normal_form(Algebra(LEAVITT, g), [(1, random_word(g, rng))])
        for m in el.coeffs:
            word = list(m.real.edges) + [e + "*" for e in reversed(m.ghost.edges)]
            again = normal_form(Algebra(LEAVITT, g),
                                [(1, word or [m.real.source])])
            assert list(again.coeffs) == [m]
            assert again.coeffs[m] == QQ.one


def test_monomial_products_agree_with_word_reduction():
    g = toeplitz_graph()
    rng = random.Random(11)
    monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)
    for m1 in monos:
        for m2 in monos:
            via_mul = (Algebra(LEAVITT, g).monomial(m1)
                       * Algebra(LEAVITT, g).monomial(m2))
            w1 = list(m1.real.edges) + [e + "*" for e in reversed(m1.ghost.edges)]
            w2 = list(m2.real.edges) + [e + "*" for e in reversed(m2.ghost.edges)]
            word = (w1 or [m1.real.source]) + (w2 or [m2.real.source])
            try:
                via_word = rewrite_words(Algebra(LEAVITT, g), [(1, word)], rng)
            except WordError:
                via_word = Algebra(LEAVITT, g).zero()
            assert via_mul == via_word


def test_word_errors():
    g = line_graph(2)
    with pytest.raises(WordError):
        parse_word(g, ["f1", "f1"])  # ranges do not match
    with pytest.raises(WordError):
        parse_word(g, ["u1", "u2"])
    with pytest.raises(WordError):
        parse_word(g, ["zz"])
    with pytest.raises(WordError):
        parse_word(g, ["zz*"])
    with pytest.raises(WordError):
        parse_word(g, ["u1*"])  # a vertex has no ghost
    with pytest.raises(WordError):
        parse_word(g, [])


def test_associativity_on_random_bounded_triples():
    rng = random.Random(23)
    g = toeplitz_graph()
    monos = enumerate_ga_monomials(Algebra(LEAVITT, g), 2)

    def rand_el():
        out = Algebra(LEAVITT, g).zero()
        for _ in range(rng.randint(1, 2)):
            out = out + Algebra(LEAVITT, g).monomial(
                rng.choice(monos), rng.choice([1, -1, 2]))
        return out

    for _ in range(150):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)


# --- presentation bookkeeping ----------------------------------------------------


def test_special_edge_choice_is_part_of_the_element():
    g = rose_graph(2)
    alt = SpecialEdgeChoice.from_mapping(g, {"v": "f2"})
    a = Algebra(LEAVITT, g).one()
    b = Algebra(LEAVITT, g, special=alt).one()
    with pytest.raises(AmbientError):
        a * b
    # the basis really differs: f2 f2* collapses under the alternative choice
    alt_alg = Algebra(LEAVITT, g, special=alt)
    el = word_element(alt_alg, ["f2", "f2*"])
    assert el == (word_element(alt_alg, ["v"])
                  - word_element(alt_alg, ["f1", "f1*"]))


def test_special_edge_choice_validation():
    g = toeplitz_graph()
    with pytest.raises(GraphError):
        SpecialEdgeChoice.from_mapping(g, {})
    with pytest.raises(GraphError):
        SpecialEdgeChoice.from_mapping(g, {"u": "nope"})
    assert SpecialEdgeChoice.lex_default(g).edge_at("u") == "e"
    assert SpecialEdgeChoice.lex_default(g).edge_at("v") is None


def test_normal_monomial_recognition():
    g = rose_graph(2)
    special = SpecialEdgeChoice.lex_default(g)
    f1 = Path.from_edges(g, ("f1",))
    f2 = Path.from_edges(g, ("f2",))
    leavitt = Algebra(LEAVITT, g, special)
    assert not leavitt.is_normal(GMonomial(f1, f1))
    assert leavitt.is_normal(GMonomial(f2, f2))
    assert leavitt.is_normal(GMonomial(f1, f2))
    assert Algebra(COHN, g).is_normal(GMonomial(f1, f1))
    with pytest.raises(GraphError):
        Algebra(LEAVITT, g).monomial(GMonomial(f1, f1))


def test_cohn_to_leavitt_graph_shapes():
    f = cohn_to_leavitt_graph(rose_graph(3))
    assert set(f.vertices) == {"v", "v_prime"}
    new_edges = [t for t in f.edge_triples() if t[2] == "v_prime"]
    assert len(new_edges) == 3 and all(t[1] == "v" for t in new_edges)

    sinks_only = line_graph(1)
    assert cohn_to_leavitt_graph(sinks_only) == sinks_only

    t = cohn_to_leavitt_graph(toeplitz_graph())
    assert set(t.vertices) == {"u", "v", "u_prime"}
    added = [e for e in t.edge_triples() if e[2] == "u_prime"]
    assert len(added) == 2 and all(s == "u" for _, s, _ in added)


def test_reduce_word_respects_scalars():
    g = rose_graph(1)
    el = normal_form(Algebra(LEAVITT, g), [(2, ["f1", "f1*"]), (-1, ["v"])])
    assert el == word_element(Algebra(LEAVITT, g), ["v"])  # 2v - v


# --- one algebra value per element ---------------------------------------------


@pytest.mark.parametrize("other", [
    lambda g: Algebra(COHN, g).one(),
    lambda g: Algebra(LEAVITT, rose_graph(3)).one(),
    lambda g: Algebra(
        LEAVITT, g, special=SpecialEdgeChoice.from_mapping(g, {"v": "f2"})).one(),
    lambda g: Algebra(LEAVITT, g, field=PrimeField(5)).one(),
], ids=["kind", "graph", "special", "field"])
@pytest.mark.parametrize("op", [operator.mul, operator.add], ids=["mul", "add"])
def test_elements_of_different_algebras_do_not_mix(other, op):
    g = rose_graph(2)
    a, b = Algebra(LEAVITT, g).one(), other(g)
    assert a.algebra != b.algebra and a != b
    with pytest.raises(AmbientError):
        op(a, b)
    with pytest.raises(AmbientError):
        op(b, a)


def test_equal_algebras_built_apart_mix():
    g = rose_graph(2)
    alg = Algebra(LEAVITT, g)
    assert alg == Algebra(LEAVITT, rose_graph(2),
                          SpecialEdgeChoice.lex_default(g), QQ)
    assert alg.special == SpecialEdgeChoice.lex_default(g)
    assert Algebra(COHN, g).special is None
    with pytest.raises(AmbientError):
        Algebra("weird", g)
    f1 = Algebra(LEAVITT, g).edge("f1")
    assert alg.one() * f1 == f1 == f1 + Algebra(LEAVITT, g).zero()
    assert (f1.kind, f1.field) == (LEAVITT, QQ)


def test_only_the_algebra_constructor_takes_a_special_edge_choice():
    # the special edges travel inside an `Algebra` value, never beside it
    import importlib
    import inspect
    import pkgutil

    import pathcenters

    seen, threading = set(), []
    for info in pkgutil.iter_modules(pathcenters.__path__):
        module = importlib.import_module(f"pathcenters.{info.name}")
        for name, obj in vars(module).items():
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not defined_here:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", getattr(obj, attr))
                           for attr in vars(obj)
                           if not attr.startswith("_") or attr == "__new__"]
            for label, fn in members:
                if inspect.isfunction(fn) or inspect.ismethod(fn):
                    seen.add(label)
                    if "special" in inspect.signature(fn).parameters:
                        threading.append(f"{module.__name__}.{label}")
    assert {"Algebra.__new__", "normal_form", "GAElement.scale"} <= seen
    assert threading == ["pathcenters.graph_algebra.Algebra.__new__"]


def test_long_special_suffix_straightens_without_recursion():
    # every edge of the cycle is special, so p·p* strips all 1,200 of them
    g = cycle_graph(1200)
    alg = Algebra(LEAVITT, g)
    p = Path.from_edges(g, tuple(f"f{i}" for i in range(1, 1201)))
    assert alg.sum_of([(1, p, p)]) == alg.vertex("u1")


# --- paths and monomials are values ---------------------------------------------


def test_paths_and_monomials_cannot_be_assigned_to():
    g = toeplitz_graph()
    p = Path.from_edges(g, ("e", "f"))
    m = GMonomial(p, Path.vertex(g, "v"))
    with pytest.raises(AttributeError):
        p.edges = ("e",)
    with pytest.raises(AttributeError):
        m.real = Path.vertex(g, "v")
    assert p.edges == ("e", "f") and m.real == p


def test_monomial_parts_must_share_their_range():
    g = toeplitz_graph()
    with pytest.raises(GraphError):
        GMonomial(Path.from_edges(g, ("f",)), Path.vertex(g, "u"))
    with pytest.raises(GraphError):
        GMonomial(Path.vertex(g, "u"), Path.vertex(g, "v"))


def test_a_path_is_its_source_target_and_edges():
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        for p in all_paths_up_to(g, 3):
            q = Path(p.source, p.target, p.edges)
            assert q == p and hash(q) == hash(p)
            if p.edges:
                built = Path.from_edges(g, p.edges)
                assert built == q and hash(built) == hash(q)


def test_monomial_text_and_order_are_unchanged_on_the_fixtures():
    g = toeplitz_graph()
    e, f = Path.from_edges(g, ("e",)), Path.from_edges(g, ("f",))
    u, v = Path.vertex(g, "u"), Path.vertex(g, "v")
    ef = Path.from_edges(g, ("e", "f"))
    assert [repr(m) for m in (GMonomial(u, u), GMonomial(e, u), GMonomial(v, f),
                              GMonomial(f, ef))] == ["@u", "e", "@v|f", "f|e.f"]
    assert GMonomial(f, ef).sort_key() == ((1, "u", ("f",)), (2, "u", ("e", "f")))
    # every window monomial of length <= 2 of every fixture, each kind: the
    # digest was taken when paths and monomials were frozen dataclasses
    lines = []
    for path in sorted(FIXTURES.glob("*.graph")):
        fixture = parse_graph(path.read_text())
        for kind in ALGEBRA_KINDS:
            for m in enumerate_ga_monomials(Algebra(kind, fixture), 2):
                lines.append(f"{path.stem} {kind} {m!r} {m.sort_key()!r}")
    assert len(lines) == 2866
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "aa8cc282d57ee6f0ab206d74cf7cccc782b3c49cd39bef695ada08bca7a7d3fb")


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_generator_symbols_are_the_symbols_of_the_generators(kind):
    # the symbols come from the graph, the labelled elements from the
    # symbols; reading each element's one monomial back gives the symbols
    for path in sorted(FIXTURES.glob("*.graph")):
        alg = Algebra(kind, parse_graph(path.read_text()))
        read_off = tuple((_G, ghost.edges[0]) if ghost.edges
                         else (_E, real.edges[0]) if real.edges else (_V, real.source)
                         for _, gel in alg.generators for real, ghost in gel.coeffs)
        assert alg.generator_symbols == read_off, path.stem
        assert [label for label, _ in alg.generators] == (
            [f"@{v}" for v in alg.graph.vertices] + list(alg.graph.edges)
            + ([] if kind == PATH else [f"{e}*" for e in alg.graph.edges]))
