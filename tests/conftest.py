import pathlib
import re
from collections import deque, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from unittest.mock import patch

import pytest

from pathcenters import Graph, graph_algebra, oracle
from pathcenters.center_theory import _require_kind, is_prime_leavitt
from pathcenters.errors import GraphError, ParseError, WordError
from pathcenters.graph import Path, all_paths_up_to, cycles_without_exits
from pathcenters.graph_algebra import (
    LEAVITT,
    PATH,
    Algebra,
    CommutatorKernel,
    GAElement,
    GMonomial,
    SpecialEdgeChoice,
    enumerate_ga_monomials,
    key_monomial,
    mul_monomials,
    normal_form,
)
from pathcenters.linalg import sparse_nullspace
from pathcenters.oracle import OracleWindow, central_subspace
from pathcenters.scalars import QQ

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.graph"


def two_loops() -> Graph:
    return Graph.build(["u1", "u2"], [("c", "u1", "u1"), ("d", "u2", "u2")])


def feeder_loop() -> Graph:
    # u -> v plus an exit-free loop at v
    return Graph.build(["u", "v"], [("f", "u", "v"), ("c", "v", "v")])


def cycle_feeds_loop() -> Graph:
    # loop-with-exit d at u feeding the exit-free loop c at v
    return Graph.build(
        ["u", "v"],
        [("d", "u", "u"), ("g", "u", "v"), ("c", "v", "v")],
    )


def fork_sink_loop() -> Graph:
    # u feeds both a sink w and an exit-free loop at v
    return Graph.build(
        ["u", "v", "w"],
        [("f", "u", "v"), ("g", "u", "w"), ("c", "v", "v")],
    )


def solver_calls(g, window, field):
    """`oracle.central_subspace`'s result and the (rows, ncols) of every
    system its solver received."""
    calls = []

    def recording(rows, ncols, field):
        rows = list(rows)
        calls.append((rows, ncols))
        return sparse_nullspace(rows, ncols, field)

    with patch.object(oracle, "sparse_nullspace", recording):
        sub = oracle.central_subspace(g, window, field=field)
    return sub, calls


def raw_key(m):
    """A monomial as the commutator kernel's raw key."""
    return (m.real.source, m.real.edges, m.ghost.source, m.ghost.edges)


def product_by_mul_monomials(alg, m, symbol, side):
    """m·g ("right") or -g·m ("left") for the generator with this raw
    symbol, formed by `mul_monomials` and read as raw keys.  A ghost edge
    e* acts through the involution, so its terms come starred: its right
    side is the star of -e*·m and its left side the star of m·e*."""
    (_, gel), = [gen for gen, s in zip(alg.generators, alg.generator_symbols)
                 if s == symbol]
    (gmon,) = gel.coeffs
    one = alg.field.one
    ghost = symbol[0] == graph_algebra._G
    if ghost:
        side = "left" if side == "right" else "right"
    out = (mul_monomials(alg, m, gmon, one) if side == "right"
           else mul_monomials(alg, gmon, m, alg.field.neg(one)))
    return {raw_key(rm.star() if ghost else rm): c for rm, c in out.items()}


def record_kernel_products(monkeypatch, *modules):
    """Swap a recording commutator kernel into `modules`.  Every product it
    forms, one per (column, side) of a generator, is appended to the
    returned list as (algebra, column monomial, symbol, side, terms), the
    terms a dict of raw keys to coefficients."""
    products = []

    class Recording(CommutatorKernel):
        __slots__ = ()

        def _recorded(self, terms, symbol, side):
            terms = list(terms)
            by_column = {}
            for j, key, c in terms:
                by_column.setdefault(j, {})[key] = c
            for j, got in by_column.items():
                m = key_monomial(self.alg.graph, self.raw[j])
                products.append((self.alg, m, symbol, side, got))
            return iter(terms)

        def right(self, symbol, skip=()):
            return self._recorded(super().right(symbol, skip), symbol, "right")

        def left(self, symbol, skip=()):
            return self._recorded(super().left(symbol, skip), symbol, "left")

    for module in modules:
        monkeypatch.setattr(module, "CommutatorKernel", Recording)
    return products


def count_witness_kernels(monkeypatch):
    """Swap a counting commutator kernel into `graph_algebra`, where only
    `centrality_witness` builds one: the list of the algebras it was built
    in, one entry per verdict computed."""
    built = []

    class Counting(graph_algebra.CommutatorKernel):
        __slots__ = ()

        def __init__(self, alg, cols):
            built.append(alg)
            super().__init__(alg, cols)

    monkeypatch.setattr(graph_algebra, "CommutatorKernel", Counting)
    return built


def formed_only_nonzero_products(products):
    """Each recorded product is the nonzero one `mul_monomials` forms."""
    return all(terms and terms == product_by_mul_monomials(alg, m, symbol, side)
               for alg, m, symbol, side, terms in products)


def record_algebra_builds(monkeypatch):
    """Record every `Algebra` constructed and every generator table built:
    the returned dict lists the algebras under "algebras", and the ones that
    built their tables under "generator_symbols" and "generators"."""
    built = {"algebras": [], "generator_symbols": [], "generators": []}
    new = Algebra.__new__

    def counted_new(cls, *args, **kwargs):
        alg = new(cls, *args, **kwargs)
        built["algebras"].append(alg)
        return alg

    monkeypatch.setattr(Algebra, "__new__", counted_new)
    for name in ("generator_symbols", "generators"):
        def counted(alg, build=vars(Algebra)[name].func, name=name):
            built[name].append(alg)
            return build(alg)

        prop = cached_property(counted)
        prop.__set_name__(Algebra, name)
        monkeypatch.setattr(Algebra, name, prop)
    return built


# --- constructions and lemma checkers that no command runs ---------------------
# The tests' own reference code: named graphs, graph constructions, element
# text parsing and the lemma checks of the paper, each checked by the suite.


def rose_graph(m: int) -> Graph:
    """The rose R_m: a single vertex with m loops (R_0 is an isolated vertex)."""
    if m < 0:
        raise GraphError("rose needs m >= 0 petals")
    return Graph.build(["v"], [(f"f{i}", "v", "v") for i in range(1, m + 1)])


def line_graph(n: int) -> Graph:
    """n vertices in a directed line u1 -> u2 -> ... -> un."""
    if n < 1:
        raise GraphError("line needs n >= 1 vertices")
    vs = [f"u{i}" for i in range(1, n + 1)]
    es = [(f"f{i}", f"u{i}", f"u{i+1}") for i in range(1, n)]
    return Graph.build(vs, es)


def cycle_graph(n: int) -> Graph:
    """The n-cycle with edges f_i: u_i -> u_{i+1} and f_n closing back to u_1."""
    if n < 1:
        raise GraphError("cycle needs n >= 1 vertices")
    vs = [f"u{i}" for i in range(1, n + 1)]
    es = [(f"f{i}", f"u{i}", f"u{i+1}") for i in range(1, n)]
    es.append((f"f{n}", f"u{n}", "u1"))
    return Graph.build(vs, es)


def toeplitz_graph() -> Graph:
    """One loop e at u plus an exit edge f: u -> v."""
    return Graph.build(["u", "v"], [("e", "u", "u"), ("f", "u", "v")])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; the id sets of the two graphs must not collide."""
    ids1 = set(g1.vertices) | set(g1.edges)
    ids2 = set(g2.vertices) | set(g2.edges)
    if ids1 & ids2:
        raise GraphError(f"id collision in disjoint union: {sorted(ids1 & ids2)}")
    return Graph.build(
        list(g1.vertices) + list(g2.vertices),
        g1.edge_triples() + g2.edge_triples(),
    )


def connected_components_by_bfs(g: Graph):
    """Partition of the vertices under undirected reachability, by one
    breadth-first search per block over an undirected adjacency: the test
    oracle for `connected_components`."""
    adj = {v: set() for v in g.vertices}
    for e in g.edges:
        adj[g.src[e]].add(g.rng[e])
        adj[g.rng[e]].add(g.src[e])
    seen = set()
    blocks = []
    for v in g.vertices:
        if v in seen:
            continue
        block = {v}
        queue = deque([v])
        seen.add(v)
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    block.add(y)
                    queue.append(y)
        blocks.append(frozenset(block))
    return sorted(blocks, key=lambda b: sorted(b))


def opposite_graph(g: Graph) -> Graph:
    return Graph.build(g.vertices, [(e, g.rng[e], g.src[e]) for e in g.edges])


# the extended graph: one ghost edge e* reversing each edge e
ExtendedGraph = namedtuple("ExtendedGraph", "graph ghost_of")


def extended_graph(g: Graph) -> ExtendedGraph:
    triples = g.edge_triples()
    ghost_of = {}
    for e, s, r in list(triples):
        ghost = e + "*"
        triples.append((ghost, r, s))
        ghost_of[ghost] = e
    return ExtendedGraph(Graph.build(g.vertices, triples), ghost_of)


def cohn_to_leavitt_graph(g: Graph) -> Graph:
    """The graph F with C_K(E) isomorphic to L_K(F): every non-sink vertex v
    gains a fresh sink v' receiving one new parallel edge per edge at v."""
    vs = list(g.vertices)
    es = g.edge_triples()
    taken = set(vs) | {e for e, _, _ in es}

    def fresh(base):
        name = base + "_prime"
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    for v in g.vertices:
        if g.is_sink(v):
            continue
        nv = fresh(v)
        vs.append(nv)
        for e in g.out_edges(v):
            es.append((fresh(e), v, nv))
    return Graph.build(vs, es)


def special_edges_from_mapping(g: Graph, mapping) -> SpecialEdgeChoice:
    """The special-edge choice `mapping` names, one edge per regular vertex."""
    pairs = []
    for v in g.vertices:
        if not g.is_regular(v):
            continue
        if v not in mapping:
            raise GraphError(f"no special edge chosen at regular vertex {v!r}")
        e = mapping[v]
        if e not in g.out_edges(v):
            raise GraphError(f"edge {e!r} is not emitted by {v!r}")
        pairs.append((v, e))
    return SpecialEdgeChoice(tuple(pairs))


def is_vertex(m: GMonomial) -> bool:
    return m.real.is_trivial and m.ghost.is_trivial


def is_symmetric(el: GAElement) -> bool:
    return all(m.real == m.ghost for m in el.coeffs)


def peirce_component(el: GAElement, u, v) -> GAElement:
    """The terms of `el` running from u to v."""
    el.algebra.graph.check_vertex(u)
    el.algebra.graph.check_vertex(v)
    return GAElement(el.algebra, {m: c for m, c in el.coeffs.items()
                                  if m.source == u and m.target == v})


def word_element(alg, word, coeff=1) -> GAElement:
    return normal_form(alg, [(coeff, word)])


def T_operator(a: GAElement, x: GAElement) -> GAElement:
    """T_a(x) = a* x a; satisfies T_a T_b = T_{ba}."""
    a._check_ambient(x)
    return a.involution() * x * a


def fixed_point_subspace(alg, c: Path, max_len):
    """Exact basis of the degree-zero fixed points of T_c in a bounded span.

    c must be a closed path based at some vertex u; candidates are the
    degree-zero normal monomials starting and ending at u with real length
    at most `max_len`.  The fixed-point equations are assembled in the full
    algebra, so no spurious solutions arise from clipped products.
    """
    if c.source != c.target:
        raise GraphError("T_c needs a closed path")
    u = c.source
    candidates = [m for m in enumerate_ga_monomials(alg, max_len, degrees=(0, 0))
                  if m.real.source == m.ghost.source == u]
    c_el = alg.monomial(GMonomial(c, Path.vertex(alg.graph, u)))
    rows = {}
    for j, m in enumerate(candidates):
        m_el = alg.monomial(m)
        image = T_operator(c_el, m_el) - m_el
        for rm, coeff in image.coeffs.items():
            rows.setdefault(rm, {})[j] = coeff
    basis = sparse_nullspace(rows.values(), len(candidates), alg.field)
    out = []
    for vec in basis:
        coeffs = {candidates[j]: c for j, c in vec.items()}
        out.append(GAElement(alg, coeffs))
    return out


def left_annihilator_test(g: Graph, mu: Path, v, w, max_len: int, field=QQ) -> bool:
    """Decide whether mu·x = 0 forces x = 0 on the span of v-to-w paths of
    bounded length.  Always true in a path algebra: concatenation with a
    fixed path keeps distinct paths distinct."""
    g.check_vertex(v)
    g.check_vertex(w)
    if mu.target != v:
        raise GraphError("range of the path must equal the left vertex")
    basis = [p for p in all_paths_up_to(g, max_len)
             if p.source == v and p.target == w]
    rows = {}
    for j, x in enumerate(basis):
        prod = mu.concat(x)
        rows.setdefault(prod, {})[j] = field.one
    kernel = sparse_nullspace(rows.values(), len(basis), field)
    return not kernel


def cycle_center_evaluate(alg: Algebra, poly_coeffs) -> GAElement:
    """Evaluate sum_i p(c_i) on a cycle graph; p is a dense coefficient list,
    low degree first.  The map p -> sum_i p(c_i) is onto the center; the
    rotation sums of power 0 sum to the identity."""
    _require_kind(alg, PATH, "the cycle center")
    g = alg.graph
    # a cycle graph is one exit-free cycle through every vertex
    cycles = cycles_without_exits(g)
    if not cycles or cycles[0].vertex_set(g) != frozenset(g.vertices):
        raise GraphError("not a cycle graph")
    cyc = cycles[0]

    def rotation_sum(k):
        # the sum over the cycle's vertices of the k-th power of the rotation
        return GAElement(alg, {
            GMonomial(Path(v, v, cyc.rotation_based_at(g, v).edges * k),
                      Path.vertex(g, v)): alg.field.one
            for v in sorted(cyc.vertex_set(g))})

    return sum((rotation_sum(k).scale(a)
                for k, a in enumerate(poly_coeffs)), alg.zero())


# unique_for_prime: bool, or None when not prime; cross_products_zero:
# bool, or None when there are fewer than two exit-free cycles
ExitFreeUniquenessReport = namedtuple(
    "ExitFreeUniquenessReport",
    "exit_free_cycles prime unique_for_prime pairs_checked cross_products_zero")


def _ideal_monomials(alg, vertex_set, max_len):
    """The nonzero a·b* for paths a, b of bounded length ending together
    in `vertex_set`: a spanning set of the bounded part of the ideal."""
    paths = [p for p in all_paths_up_to(alg.graph, max_len)
             if p.target in vertex_set]
    one = alg.field.one
    els = (alg.sum_of([(one, a, b)])
           for a in paths for b in paths if a.target == b.target)
    return [el for el in els if el]


def uniqueness_check_exit_free(alg: Algebra, max_len: int = 3) -> ExitFreeUniquenessReport:
    """For prime graphs, confirm there is at most one exit-free cycle; for
    graphs with several, verify computationally that the bounded spanning
    monomials of their ideals annihilate each other."""
    _require_kind(alg, LEAVITT, "the exit-free uniqueness check")
    g = alg.graph
    exit_free = tuple(cycles_without_exits(g))
    prime = is_prime_leavitt(g)
    unique = (len(exit_free) <= 1) if prime else None
    pairs = 0
    cross_zero = None
    if len(exit_free) >= 2:
        cross_zero = True
        spans = [_ideal_monomials(alg, c.vertex_set(g), max_len)
                 for c in exit_free]
        for left, right in permutations(spans, 2):
            for a in left:
                for b in right:
                    pairs += 1
                    if a * b:
                        cross_zero = False
    return ExitFreeUniquenessReport(exit_free, prime, unique, pairs, cross_zero)


def graded_center_component(g: Graph, kind, n: int, max_len: int, *,
                            field=QQ):
    """The bounded view of the degree-n homogeneous component of the center."""
    window = OracleWindow(kind, max_len, (n, n))
    return central_subspace(g, window, field=field)


def emit_graph(g: Graph) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    for e in g.edges:
        lines.append(f"edge {e}: {g.src[e]} -> {g.rng[e]}")
    return "\n".join(lines) + "\n"


def _parse_path_part(g: Graph, text: str) -> Path:
    text = text.strip()
    if not text:
        raise ParseError("empty path in monomial")
    if text.startswith("@"):
        v = text[1:]
        if v not in g._out:
            raise ParseError(f"unknown vertex {v!r}")
        return Path.vertex(g, v)
    edges = text.split(".")
    for e in edges:
        if e not in g.src:
            raise ParseError(f"unknown edge {e!r}")
    try:
        return Path.from_edges(g, edges)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc


_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_scalar(field, text):
    """An exact scalar of `field` (QQ or a PrimeField) from an integer or
    n/d; ValueError for anything else, decimals included."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact scalar: {text!r}")
    if field == QQ:
        return Fraction(text)
    num, _, den = text.partition("/")
    return field.div(int(num) % field.p, int(den or 1) % field.p)


def parse_element(text: str, alg: Algebra):
    """Parse element text, as `element_to_text` writes it, into a
    `GAElement` of `alg`."""
    text = text.strip()
    g, field = alg.graph, alg.field
    terms = []
    for term in [] if text == "0" else text.split("+"):
        term = term.strip()
        if not term:
            raise ParseError("empty term in element")
        parts = term.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"term {term!r} needs a scalar and a monomial")
        try:
            coeff = parse_scalar(field, parts[0])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        mono = parts[1].strip()
        if "|" in mono:
            real_text, ghost_text = mono.split("|", 1)
        else:
            real_text, ghost_text = mono, None
        real = _parse_path_part(g, real_text)
        if ghost_text is None:
            ghost = Path.vertex(g, real.target)
        else:
            ghost = _parse_path_part(g, ghost_text)
        if real.target != ghost.target:
            raise ParseError(
                f"monomial {mono!r}: real and ghost parts end at different vertices"
            )
        terms.append((coeff, real, ghost))
    try:
        return alg.sum_of(terms)
    except WordError as exc:  # a ghost part in the path algebra
        raise ParseError(str(exc)) from exc
