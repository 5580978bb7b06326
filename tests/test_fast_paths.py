"""The fast graph and window routines against the brute-force versions they
replaced.  Those versions follow the definitions directly and are kept here
only as test oracles."""

from collections import deque
from itertools import chain, combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from pathcenters import Graph, graph, graph_algebra, oracle
from pathcenters.center_theory import (
    POLY,
    SCALAR,
    SUM,
    GradedPrimeRecord,
    PieceContribution,
    _corner_generator,
    _corner_sum,
    _lower_pieces,
    center_bounds,
    center_structure_KE,
    classify_prime_leavitt,
    cycle_rotation_sum,
    graded_prime_ideals,
    laurent_generator,
    project_to_quotient,
)
from pathcenters.errors import GraphError, HypothesisNotMet, ResourceCapExceeded
from pathcenters.graph import (
    Cycle,
    Path,
    all_paths_up_to,
    connected_components,
    count_paths_into,
    cycle_graph,
    cycle_has_exit,
    cycles_without_exits,
    enumerate_hereditary_saturated,
    find_cycles,
    hereditary_saturated_closure,
    is_downward_directed,
    paths_into,
    quotient_graph,
    reaching,
    rose_graph,
    strongly_connected_components,
)
from pathcenters.graph_algebra import (
    ALGEBRA_KINDS,
    COHN,
    LEAVITT,
    PATH,
    Algebra,
    CommutatorKernel,
    GAElement,
    GMonomial,
    SpecialEdgeChoice,
    _E,
    _G,
    _V,
    check_central,
    count_ga_monomials,
    enumerate_ga_monomials,
    key_monomial,
    mul_monomials,
    normal_form,
    parse_word,
)
from pathcenters.linalg import sparse_nullspace
from pathcenters.oracle import (
    CentralSubspace,
    OracleWindow,
    central_subspace,
    centrality_witness,
    enumerate_candidates,
    graded_center_component,
)
from pathcenters.scalars import QQ, PrimeField
from pathcenters.textio import element_to_text, parse_element, parse_graph

from conftest import (
    FIXTURES,
    fixture_path,
    formed_only_nonzero_products,
    product_by_mul_monomials,
    raw_key,
    record_kernel_products,
    solver_calls,
)

FIELDS = [QQ, PrimeField(65521)]


def reachable_from(g, v):
    """Vertices reachable from v along directed paths (v included)."""
    g.check_vertex(v)
    seen = {v}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for e in g.out_edges(x):
            w = g.rng[e]
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def is_hereditary(g, s):
    return all(g.rng[e] in s for e in g.edges if g.src[e] in s)


def is_saturated(g, s):
    for v in g.vertices:
        if v in s or not g.is_regular(v):
            continue
        if all(g.rng[e] in s for e in g.out_edges(v)):
            return False
    return True


def closure_by_fixed_point(g, seed):
    """Add edge ranges and saturated vertices until nothing changes."""
    h = set(seed)
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if g.src[e] in h and g.rng[e] not in h:
                h.add(g.rng[e])
                changed = True
        for v in g.vertices:
            if v in h or not g.is_regular(v):
                continue
            if all(g.rng[e] in h for e in g.out_edges(v)):
                h.add(v)
                changed = True
    return frozenset(h)


def hereditary_saturated_by_subsets(g):
    """Close every one of the 2^n vertex subsets and keep the distinct results."""
    vs = list(g.vertices)
    out = set()
    for mask in range(1 << len(vs)):
        subset = frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
        out.add(closure_by_fixed_point(g, subset))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def hereditary_saturated_by_closure_search(g):
    """Breadth-first search from closure(empty set) over the one-vertex
    steps H -> closure(H | {v}).  Every hereditary saturated H is the end
    of such a chain inside it, so the search reaches each one."""
    start = hereditary_saturated_closure(g, ())
    seen = {start}
    queue = deque([start])
    while queue:
        h = queue.popleft()
        for v in g.vertices:
            if v not in h:
                nxt = hereditary_saturated_closure(g, h | {v})
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def downward_directed_by_pairs(g):
    """Every pair of vertices has a common vertex in their reachable sets."""
    reach = {v: reachable_from(g, v) for v in g.vertices}
    return all(reach[u] & reach[v] for u, v in combinations(g.vertices, 2))


def graded_primes_by_enumeration(g):
    """All proper hereditary saturated H with downward-directed quotient,
    classified into flavor I (a K factor) or J (a K[x,x^-1] factor)."""
    records = []
    everything = frozenset(g.vertices)
    for h in hereditary_saturated_by_closure_search(g):
        if h == everything:
            continue
        q = quotient_graph(g, h)
        try:
            cls = classify_prime_leavitt(q)
        except HypothesisNotMet:  # the quotient is not downward directed
            continue
        records.append(GradedPrimeRecord(h, q, "I" if cls.scalar else "J", cls))
    return records


def reaching_by_forward_walks(g, targets):
    """The vertices whose forward reachable set meets `targets`."""
    return frozenset(v for v in g.vertices if reachable_from(g, v) & targets)


def paths_into_by_length(g, targets):
    """Paths touching `targets` only at their range, from all short paths.

    Such a path of length L passes L vertices outside `targets` (its edge
    sources); once L exceeds their number one repeats, so there are
    infinitely many exactly when one that long exists (None)."""
    outside = len(g.vertices) - len(targets)
    found = [p for p in all_paths_up_to(g, outside + 1)
             if p.target in targets
             and not any(g.src[e] in targets for e in p.edges)]
    if any(p.length > outside for p in found):
        return None
    return found


def exit_free_by_listing(g):
    """Every cycle, kept when no vertex on it emits a second edge."""
    return [c for c in find_cycles(g) if not cycle_has_exit(g, c)]


def cycle_by_two_passes(g, edges):
    """`Cycle.from_edges` as it was: validate the path, rotate its least
    edge to the front, and validate the rotation again."""
    p = Path.from_edges(g, edges)
    if p.source != p.target:
        raise GraphError("cycle must be a closed path")
    sources = [g.src[e] for e in p.edges]
    if len(set(sources)) != len(sources):
        raise GraphError("closed path repeats an edge source; not a cycle")
    k = min(range(len(edges)), key=lambda i: p.edges[i])
    return Cycle(Path.from_edges(g, p.edges[k:] + p.edges[:k]))


def components_by_recursion(g):
    """Tarjan's walk as published, recursive: the strongly connected
    components in the order they complete."""
    index, low, stack, out = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for e in g.out_edges(v):
            w = g.rng[e]
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while v not in comp:
                comp.add(stack.pop())
            out.append(frozenset(comp))

    for v in g.vertices:
        if v not in index:
            visit(v)
    return tuple(out)


def hereditary_by_member_sort(g):
    """The listing in its old order: by size, then by the sorted members."""
    return sorted(set(enumerate_hereditary_saturated(g)),
                  key=lambda s: (len(s), sorted(s)))


def path_stats_by_listing(g, targets):
    """Count, longest length and sources of the listed paths into `targets`."""
    paths = paths_into(g, targets)
    if paths is None:
        return None
    return (len(paths), max(t.length for t in paths),
            frozenset(t.source for t in paths))


def component_cycle_by_walk(g, comp):
    """The unique cycle when the component is a cycle graph (every vertex of
    in- and out-degree 1, one closed walk through all of them), else None."""
    for v in comp:
        if len(g.out_edges(v)) != 1 or len(g.in_edges(v)) != 1:
            return None
    start = min(comp)
    edges = []
    v = start
    for _ in range(len(comp)):
        e = g.out_edges(v)[0]
        edges.append(e)
        v = g.rng[e]
    if v != start:
        return None
    return Cycle.from_edges(g, edges)


def monomials_by_all_pairs(g, kind, max_len, *, degrees=None, source=None):
    """Pair every real part with every ghost part at a target, then filter."""
    alg = Algebra(kind, g)
    by_target = {}
    for p in all_paths_up_to(g, max_len):
        by_target.setdefault(p.target, []).append(p)
    out = []
    for target, group in by_target.items():
        ghosts = [Path.vertex(g, target)] if kind == PATH else group
        for real in group:
            for ghost in ghosts:
                if source is not None and (real.source,
                                           ghost.source) != (source, source):
                    continue
                d = real.length - ghost.length
                if degrees is not None and not degrees[0] <= d <= degrees[1]:
                    continue
                m = GMonomial(real, ghost)
                if alg.is_normal(m):
                    out.append(m)
    return sorted(out, key=GMonomial.sort_key)


def solved_laurent_generator(g, cls, field):
    """The degree-l(c) central component solved in the window of real length
    l(c) + the longest feeding path, its one basis vector scaled to leading
    coefficient 1."""
    c = cls.cycle
    max_len = c.length + count_paths_into(g, c.vertex_set(g))[1]
    comp = graded_center_component(g, LEAVITT, c.length, max_len, field=field)
    assert comp.dim == 1
    z = comp.basis[0]
    lead = min(z.coeffs, key=GMonomial.sort_key)
    return z.scale(field.inv(z.coeffs[lead]))


def component_pieces_by_pattern(alg, comp):
    """Decidable description of the center of the ideal on a full component."""
    g = alg.graph
    sub = quotient_graph(g, frozenset(g.vertices) - comp)
    try:
        cls = classify_prime_leavitt(sub)
    except HypothesisNotMet:
        return [PieceContribution("unknown",
                                  "non-prime component; oracle-bounded evidence only")]
    if cls.scalar:
        gen = GAElement(alg, {GMonomial.at_vertex(g, v): alg.field.one
                              for v in sorted(comp)})
        return [PieceContribution("scalar", f"component identity ({cls.reason})", gen)]
    z = laurent_generator(alg, cls.cycle)
    return [PieceContribution(
        "laurent", f"prime component, exit-free cycle fed by {cls.base_count} paths", z)]


def lower_pieces_by_pattern(alg, h):
    """Structural center of I(H) in the decidable patterns, else `unknown`,
    for any hereditary saturated H: the search over components, exit-free
    cycles and sinks that `_lower_pieces` replaced.

    Decidable: the zero ideal; whole components carrying a prime Leavitt
    algebra; the closure of a single exit-free cycle (a matrix algebra over
    Laurent polynomials: K[x,x^-1] when finitely many paths end at the
    cycle, zero center when the matrix size is infinite); the closure of a
    single sink (a matrix algebra over K).
    """
    if not h:
        return [PieceContribution("zero", "zero ideal")]
    g = alg.graph
    pieces = []
    for comp in connected_components(g):
        part = h & comp
        if not part:
            continue
        if part == comp:
            pieces.extend(component_pieces_by_pattern(alg, comp))
            continue
        cycles = [c for c in cycles_without_exits(g)
                  if c.vertex_set(g) <= part]
        sinks = [v for v in sorted(part) if g.is_sink(v)]
        if (len(cycles) == 1 and not sinks
                and hereditary_saturated_closure(g, cycles[0].vertex_set(g)) == part):
            counted = count_paths_into(g, cycles[0].vertex_set(g))
            if counted is None:
                pieces.append(PieceContribution(
                    "zero", "matrix size infinite: a cycle feeds the corner"))
            else:
                pieces.append(PieceContribution(
                    "laurent", f"matrix corner over {counted[0]} paths",
                    laurent_generator(alg, cycles[0])))
        elif (len(sinks) == 1 and not cycles
                and hereditary_saturated_closure(g, {sinks[0]}) == part):
            counted = count_paths_into(g, frozenset(sinks))
            if counted is None:
                pieces.append(PieceContribution(
                    "zero", "matrix size infinite: a cycle feeds the sink"))
            else:
                pieces.append(PieceContribution(
                    "scalar", f"matrix corner over K on {counted[0]} paths",
                    _corner_generator(alg, frozenset(sinks))))
        else:
            pieces.append(PieceContribution(
                "unknown", "no decidable pattern; oracle-bounded evidence only"))
    return pieces


def central_subspace_by_all_pairs(g, window, field):
    """Multiply every candidate by every generator on both sides and solve
    over every candidate column."""
    alg = Algebra(window.kind, g, field=field)
    candidates = enumerate_ga_monomials(alg, window.max_len, degrees=window.degrees)
    gen_monomials = [next(iter(gel.coeffs)) for _, gel in alg.generators]

    rows = {}
    one = field.one
    for gi, gmon in enumerate(gen_monomials):
        for j, m in enumerate(candidates):
            for rm, c in mul_monomials(alg, m, gmon, one).items():
                row = rows.setdefault((gi, rm), {})
                old = row.get(j)
                row[j] = c if old is None else field.add(old, c)
            for rm, c in mul_monomials(alg, gmon, m, one).items():
                row = rows.setdefault((gi, rm), {})
                old = row.get(j)
                row[j] = field.neg(c) if old is None else field.sub(old, c)
    cleaned = (
        {j: c for j, c in row.items() if c} for row in rows.values()
    )
    vectors = sparse_nullspace((r for r in cleaned if r), len(candidates), field)
    basis = tuple(GAElement(alg, {candidates[j]: c for j, c in vec.items()})
                  for vec in vectors)
    return CentralSubspace(basis, window, alg, len(candidates))


def product_by_all_pairs(x, y):
    """Multiply every term of x by every term of y."""
    alg, field = x.algebra, x.field
    out = {}
    for m1, a in x.coeffs.items():
        for m2, b in y.coeffs.items():
            for m, c in mul_monomials(alg, m1, m2, field.mul(a, b)).items():
                old = out.get(m)
                out[m] = c if old is None else field.add(old, c)
    return GAElement(alg, out)


def _chop(g: Graph, p: Path) -> Path:
    last = p.edges[-1]
    return Path(p.source, g.src[last], p.edges[:-1])


def straighten_by_recursion(alg, real, ghost, coeff):
    """coeff * real·ghost* in normal form, as a dict of normal monomials.

    Only the junction can be off-basis, and the CK2 elimination shortens it,
    so the recursion terminates after at most min(len, len) steps.  The
    terms it adds are one edge longer than any the recursion returns, so no
    two terms share a monomial and nothing cancels.
    """
    special = alg.special  # None unless the algebra is Leavitt
    if special is not None and real.edges and ghost.edges:
        e = real.edges[-1]
        if e == ghost.edges[-1]:
            g = alg.graph
            v = g.src[e]
            if special.edge_at(v) == e:
                lam, mu = _chop(g, real), _chop(g, ghost)
                out = straighten_by_recursion(alg, lam, mu, coeff)
                minus = alg.field.neg(coeff)
                for f in g.out_edges(v):
                    if f != e:
                        out[GMonomial(
                            Path(lam.source, g.rng[f], lam.edges + (f,)),
                            Path(mu.source, g.rng[f], mu.edges + (f,)),
                        )] = minus
                return out
    return {GMonomial(real, ghost): coeff}


def centrality_witness_by_all_generators(a):
    """The first generator g with a·g != g·a, both products formed over all
    pairs of terms, or None."""
    for label, gel in a.algebra.generators:
        if product_by_all_pairs(a, gel) != product_by_all_pairs(gel, a):
            return label, gel
    return None


def centrality_witness_by_every_kernel_row(a):
    """The first generator whose commutator-kernel terms, weighted by a's
    coefficients, do not cancel, or None: every generator is visited."""
    alg = a.algebra
    field = alg.field
    kernel = CommutatorKernel(alg, [raw_key(m) for m in a.coeffs])
    coeffs = list(a.coeffs.values())
    for gen, symbol in zip(alg.generators, alg.generator_symbols):
        total = {}
        for j, key, c in kernel.commutator(symbol):
            c = coeffs[j] if c == field.one else field.neg(coeffs[j])
            total[key] = field.add(total.get(key, field.zero), c)
        if any(total.values()):
            return gen
    return None


REWRITE_STEP_BOUND = 200_000


def _redexes(alg, word):
    """(rule, i) for each rule that applies to the parsed word at position i:
    absorb a vertex beside another symbol, CK1 on e*·f and, for Leavitt,
    CK2 on e·e* with e special."""
    g, special = alg.graph, alg.special  # special is None unless Leavitt
    out = [("absorb", i) for i, (tag, _) in enumerate(word)
           if tag == _V and len(word) > 1]
    for i, ((ta, a), (tb, b)) in enumerate(zip(word, word[1:])):
        if ta == _G and tb == _E:
            out.append(("ck1", i))
        elif (ta == _E and tb == _G and a == b
              and special is not None and special.edge_at(g.src[a]) == a):
            out.append(("ck2", i))
    return out


def _apply_redex(alg, word, redex, coeff):
    """The (coeff, word) terms that replace the redex."""
    g = alg.graph
    rule, i = redex
    if rule == "absorb":
        return [(coeff, word[:i] + word[i + 1:])]
    e = word[i][1]
    if rule == "ck1":  # e*·f -> delta_{e,f} r(e)
        if e != word[i + 1][1]:
            return []
        return [(coeff, word[:i] + ((_V, g.rng[e]),) + word[i + 2:])]
    # ck2: e·e* -> v - sum of f·f* over the other edges f at v = s(e)
    v = g.src[e]
    minus = alg.field.neg(coeff)
    return [(coeff, word[:i] + ((_V, v),) + word[i + 2:])] + [
        (minus, word[:i] + ((_E, f), (_G, f)) + word[i + 2:])
        for f in g.out_edges(v) if f != e]


def _finished_monomial(g, word):
    """The basis monomial of a word no rule applies to: one vertex, or real
    edges followed by ghost edges."""
    tag, x = word[0]
    if tag == _V:
        return GMonomial.at_vertex(g, x)
    reals = tuple(x for tag, x in word if tag == _E)
    ghosts = tuple(x for tag, x in reversed(word) if tag == _G)
    real = Path.from_edges(g, reals) if reals else Path.vertex(g, g.rng[ghosts[-1]])
    ghost = Path.from_edges(g, ghosts) if ghosts else Path.vertex(g, real.target)
    return GMonomial(real, ghost)


def rewrite_words(alg, terms, rng):
    """Σ coeff·word over raw words, in normal form by the rewrite rules
    alone, each step applying a redex picked by `rng`.  The rules are
    confluent, so every order gives the same element; the step bound makes
    a runaway rewrite fail quickly."""
    field = alg.field
    work = [(field.coerce(c), parse_word(alg.graph, w)) for c, w in terms]
    out = {}
    steps = 0
    while work:
        c, w = work.pop()
        redexes = _redexes(alg, w)
        if not redexes:
            m = _finished_monomial(alg.graph, w)
            out[m] = field.add(out.get(m, field.zero), c)
            continue
        work.extend(_apply_redex(alg, w, rng.choice(redexes), c))
        steps += 1
        assert steps <= REWRITE_STEP_BOUND, "the rewrite ran past its step bound"
    return GAElement(alg, out)


def word_of(real, ghost):
    """The raw word real·ghost* that the rewriter reads."""
    return list(real.edges) + [e + "*" for e in reversed(ghost.edges)] or [real.source]


@st.composite
def raw_words(draw, g, ghosts=True, max_len=8):
    """A composable raw word: a walk in the extended graph of vertex, edge
    and (with `ghosts`) ghost-edge symbols."""
    syms = [(v, v, v) for v in g.vertices]
    syms += [(e, g.src[e], g.rng[e]) for e in g.edges]
    if ghosts:
        syms += [(f"{e}*", g.rng[e], g.src[e]) for e in g.edges]
    word = [draw(st.sampled_from(syms))]
    for _ in range(draw(st.integers(0, max_len - 1))):
        word.append(draw(st.sampled_from([s for s in syms if s[1] == word[-1][2]])))
    return [name for name, _, _ in word]


@st.composite
def graphs(draw, max_vertices=6, max_edges=10):
    # random endpoints give sinks, sources, parallel edges and loops
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vs = [f"v{i}" for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=max_edges))
    es = [(f"e{j}", draw(st.sampled_from(vs)), draw(st.sampled_from(vs)))
          for j in range(m)]
    return Graph.build(vs, es)


@st.composite
def fed_cycles(draw, max_feeders=4, max_cycle=3, min_feeders=0, min_cycle=1):
    """Downward-directed graphs with an exit-free cycle fed finitely: an
    acyclic set of feeders, each with edges (parallel ones too) only to
    later feeders or onto the cycle, so every vertex reaches the cycle."""
    k = draw(st.integers(min_cycle, max_cycle))
    m = draw(st.integers(min_feeders, max_feeders))
    cyc = [f"c{i}" for i in range(k)]
    feeders = [f"u{i}" for i in range(m)]
    es = [(f"z{i}", cyc[i], cyc[(i + 1) % k]) for i in range(k)]
    for i, u in enumerate(feeders):
        later = feeders[i + 1:] + cyc
        for w in draw(st.lists(st.sampled_from(later), min_size=1, max_size=2)):
            es.append((f"e{len(es)}", u, w))
    return Graph.build(feeders + cyc, es)


@st.composite
def fed_cycle_beside_terminal(draw):
    """A finitely fed exit-free cycle of length >= 2 beside a second
    terminal component (a sink, a loop or a 2-cycle) that some feeders
    also reach, so the cycle's lower piece is a matrix corner over its
    feeding paths, not a whole component."""
    g = draw(fed_cycles(max_feeders=3, min_feeders=1, min_cycle=2))
    size = draw(st.integers(0, 2))
    ts = [f"t{i}" for i in range(max(size, 1))]
    es = [(f"y{i}", t, ts[(i + 1) % size]) for i, t in enumerate(ts[:size])]
    feeders = [v for v in g.vertices if v.startswith("u")]
    for u in draw(st.lists(st.sampled_from(feeders), min_size=1, max_size=2)):
        es.append((f"x{len(es)}", u, ts[0]))
    return Graph.build(g.vertices + tuple(ts), g.edge_triples() + es)


@st.composite
def special_suffix_pairs(draw, alg):
    """(real, ghost): two paths of length <= 3 into one vertex x, followed
    by one shared walk from x that mostly takes the special edges."""
    g = alg.graph
    x = v = draw(st.sampled_from(g.vertices))
    walk = []
    for _ in range(draw(st.integers(0, 8))):
        if not g.is_regular(v):
            break
        special = draw(st.integers(0, 3)) > 0
        e = alg.special.edge_at(v) if special else draw(st.sampled_from(g.out_edges(v)))
        walk.append(e)
        v = g.rng[e]
    into_x = [p for p in all_paths_up_to(g, 3) if p.target == x]
    shared = Path(x, v, tuple(walk))
    return tuple(draw(st.sampled_from(into_x)).concat(shared) for _ in range(2))


@st.composite
def normal_monomials(draw, alg, sources):
    """A normal monomial with parts of length <= 3 whose real part starts
    at one of `sources`."""
    paths = all_paths_up_to(alg.graph, 3)
    real = draw(st.sampled_from([p for p in paths if p.source in sources]))
    ghosts = [GMonomial(real, p) for p in paths if p.target == real.target]
    return draw(st.sampled_from([m for m in ghosts if alg.is_normal(m)]))


@st.composite
def windows(draw, max_len):
    """None, or a degree window (a, b) inside [-max_len, max_len]."""
    if draw(st.booleans()):
        return None
    a, b = sorted(draw(st.integers(-max_len, max_len)) for _ in range(2))
    return a, b


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_hereditary_saturated_search_matches_subset_sweep(g):
    assert enumerate_hereditary_saturated(g) == hereditary_saturated_by_subsets(g)


def ladder_graph(rungs):
    """A line of doubled edges into an exit-free loop."""
    vs = [f"x{i}" for i in range(rungs + 1)]
    es = [(f"{a}{i}", f"x{i}", f"x{i + 1}") for i in range(rungs) for a in "ab"]
    return Graph.build(vs, es + [("c", f"x{rungs}", f"x{rungs}")])


def listing_graphs():
    """The fixtures, 12 disjoint loops, K_6 and the ladders."""
    out = {p.stem: parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))}
    vs = [f"u{i}" for i in range(12)]
    out["loops_12"] = Graph.build(vs, [(f"c{v}", v, v) for v in vs])
    vs = vs[:6]
    out["complete_6"] = Graph.build(vs, [(f"e{u}{v}", u, v) for u in vs for v in vs
                                         if u != v])
    out.update((f"ladder_{r}", ladder_graph(r)) for r in (2, 3, 4, 8))
    return out


def test_anchor_listing_matches_closure_search_on_fixtures_and_families():
    sizes = {}
    for name, g in listing_graphs().items():
        listed = enumerate_hereditary_saturated(g)
        assert listed == hereditary_saturated_by_closure_search(g), name
        sizes[name] = len(listed)
    assert sizes["loops_12"] == 4096 and sizes["complete_6"] == 2


@settings(max_examples=300, deadline=None)
@given(g=graphs(max_vertices=8, max_edges=14))
def test_anchor_listing_matches_closure_search(g):
    assert enumerate_hereditary_saturated(g) == hereditary_saturated_by_closure_search(g)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs())
def test_worklist_closure_matches_fixed_point(data, g):
    seed = data.draw(st.sets(st.sampled_from(g.vertices)))
    assert hereditary_saturated_closure(g, seed) == \
        closure_by_fixed_point(g, seed)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs())
def test_iterative_paths_into_matches_short_paths(data, g):
    targets = frozenset(data.draw(st.sets(st.sampled_from(g.vertices),
                                          min_size=1)))
    assert paths_into(g, targets) == paths_into_by_length(g, targets)


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_downward_directed_matches_pairwise_reachability(g):
    assert is_downward_directed(g) == downward_directed_by_pairs(g)
    comps = list(strongly_connected_components(g))
    assert sorted(v for c in comps for v in c) == sorted(g.vertices)
    assert all(g.rng[e] in comps[0] for v in comps[0] for e in g.out_edges(v))
    for c in comps:
        for u in c:
            reach = reachable_from(g, u)
            assert {v for v in reach if u in reachable_from(g, v)} == c


def loops_graph(k):
    vs = [f"u{i}" for i in range(1, k + 1)]
    return Graph.build(vs, [(f"c{i}", v, v) for i, v in enumerate(vs, 1)])


def check_structure_against_old_paths(g):
    """The cached components are a fresh Tarjan walk, the first one
    terminal; the bitmask listing keeps the member order; a cycle built in
    one pass equals the two-pass one from every rotation."""
    assert g.components == components_by_recursion(g)
    assert g.components is g.components
    first = g.components[0]
    assert all(g.rng[e] in first for v in first for e in g.out_edges(v))
    assert g.exit_free_cycles == tuple(exit_free_by_listing(g))
    assert enumerate_hereditary_saturated(g) == hereditary_by_member_sort(g)
    for c in find_cycles(g):
        for k in range(c.length):
            edges = c.edges[k:] + c.edges[:k]
            assert Cycle.from_edges(g, edges) == cycle_by_two_passes(g, edges) == c


def test_structure_matches_old_paths_on_fixtures_and_loops():
    for path in sorted(FIXTURES.glob("*.graph")):
        check_structure_against_old_paths(parse_graph(path.read_text()))
    for k in range(1, 13):
        check_structure_against_old_paths(loops_graph(k))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=8, max_edges=14))
def test_structure_matches_old_paths(data, g):
    check_structure_against_old_paths(g)
    # any edge sequence: a cycle, or a GraphError, either way
    edges = data.draw(st.lists(st.sampled_from(g.edges), max_size=4)) if g.edges else []
    try:
        expected = cycle_by_two_passes(g, edges)
    except GraphError:
        with pytest.raises(GraphError):
            Cycle.from_edges(g, edges)
    else:
        assert Cycle.from_edges(g, edges) == expected


def test_each_graph_walks_its_components_once(monkeypatch):
    walks = []
    walk = strongly_connected_components
    monkeypatch.setattr(graph, "strongly_connected_components",
                        lambda g: walks.append(g) or walk(g))
    g = parse_graph(fixture_path("cycle_feeds_loop").read_text())
    is_downward_directed(g)
    cycles_without_exits(g).clear()  # a copy: the cached tuple stays
    count_paths_into(g, frozenset({"v"}))
    enumerate_hereditary_saturated(g)
    assert walks == [g] and len(cycles_without_exits(g)) == 1
    # an equal graph built anew, and a quotient, each get their own walk
    same = Graph.build(g.vertices, g.edge_triples())
    q = quotient_graph(g, {"v"})
    assert same == g and is_downward_directed(same) and is_downward_directed(q)
    assert walks == [g, same, q] and walks[1] is same
    assert q.components == components_by_recursion(q) == (frozenset({"u"}),)


def check_scc_answers_against_listing(g, seed):
    """The SCC-pass answers equal the listed ones: the exit-free cycles, the
    feeding counts into the forward closure of `seed` (a set that is not
    closed is refused), and the cycle components of KE."""
    assert cycles_without_exits(g) == exit_free_by_listing(g)
    closed = frozenset().union(*(reachable_from(g, v) for v in seed))
    assert count_paths_into(g, closed) == path_stats_by_listing(g, closed)
    if frozenset(seed) != closed:
        with pytest.raises(GraphError):
            count_paths_into(g, frozenset(seed))
    cs = center_structure_KE(Algebra(PATH, g))
    pieces = cs.components if cs.kind == SUM else (cs,)
    comps = connected_components(g)
    assert len(pieces) == len(comps)
    for comp, piece in zip(comps, pieces):
        cyc = component_cycle_by_walk(g, comp)
        if cyc is None:
            assert piece.kind == SCALAR
        else:
            assert piece.kind == POLY
            assert piece.generators[1] == cycle_rotation_sum(Algebra(PATH, g), cyc)


def test_scc_answers_match_listing_on_fixtures():
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        for v in g.vertices:
            check_scc_answers_against_listing(g, {v})


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs())
def test_scc_answers_match_listing(data, g):
    seed = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
    check_scc_answers_against_listing(g, seed)


def check_graded_primes_against_enumeration(g):
    """The maximal-tail records equal the enumerated ones in order, H,
    flavor, classification and quotient vertices and edges."""
    fast, slow = graded_prime_ideals(g), graded_primes_by_enumeration(g)
    assert [r.H for r in fast] == [r.H for r in slow]
    for a, b in zip(fast, slow):
        assert (a.flavor, a.cls) == (b.flavor, b.cls)
        assert a.quotient.vertices == b.quotient.vertices
        assert a.quotient.edge_triples() == b.quotient.edge_triples()
    assert fast == slow


def test_graded_primes_match_enumeration_on_fixtures():
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        check_graded_primes_against_enumeration(g)
        for v in g.vertices:
            targets = frozenset({v})
            assert reaching(g, targets) == reaching_by_forward_walks(g, targets)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=7, max_edges=12))
def test_graded_primes_match_enumeration(data, g):
    check_graded_primes_against_enumeration(g)
    targets = frozenset(data.draw(st.sets(st.sampled_from(g.vertices))))
    assert reaching(g, targets) == reaching_by_forward_walks(g, targets)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_windowed_enumeration_matches_all_pairs_on_fixtures(kind):
    # the enumeration emits in (real, ghost) order without sorting, so its
    # list must equal the sorted listing element for element
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        for max_len in range(4):
            for degrees in (None, (0, 0), (-max_len, 0), (1, max_len)):
                if degrees is not None and degrees[0] > degrees[1]:
                    continue
                for source in (None, *g.vertices):
                    assert enumerate_ga_monomials(
                        Algebra(kind, g), max_len, degrees=degrees, source=source
                    ) == monomials_by_all_pairs(
                        g, kind, max_len, degrees=degrees, source=source
                    ), (path.name, max_len, degrees, source)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=5))
def test_windowed_enumeration_matches_all_pairs(data, g):
    kind = data.draw(st.sampled_from(ALGEBRA_KINDS))
    max_len = data.draw(st.integers(0, 3))
    degrees = data.draw(windows(max_len))
    source = data.draw(st.none() | st.sampled_from(g.vertices))
    assert enumerate_ga_monomials(Algebra(kind, g), max_len, degrees=degrees,
                                  source=source) == \
        monomials_by_all_pairs(g, kind, max_len, degrees=degrees,
                               source=source)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=5, max_edges=7))
def test_count_matches_enumeration(data, g):
    kind = data.draw(st.sampled_from(ALGEBRA_KINDS))
    max_len = data.draw(st.integers(0, 3))
    degrees = data.draw(windows(max_len))
    alg = Algebra(kind, g)
    assert count_ga_monomials(alg, max_len, degrees=degrees) == \
        len(enumerate_ga_monomials(alg, max_len, degrees=degrees))


def check_diagonal_candidates(alg, window):
    """`enumerate_candidates` counts the whole window and lists its
    Peirce-diagonal monomials as kernel keys, in the full listing's order."""
    full = enumerate_ga_monomials(alg, window.max_len, degrees=window.degrees)
    diagonal = [m for m in full if m.source == m.target]
    count, keys = enumerate_candidates(alg, window)
    assert keys == [raw_key(m) for m in diagonal]
    assert [key_monomial(alg.graph, key) for key in keys] == diagonal
    assert count == len(full)


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_diagonal_candidates_match_the_full_listing_on_fixtures(kind):
    checked = 0
    for path in sorted(FIXTURES.glob("*.graph")):
        alg = Algebra(kind, parse_graph(path.read_text()))
        for max_len in range(5):
            for degrees in (None, (0, 0), (-max_len, 0), (1, max_len)):
                if degrees is not None and degrees[0] > degrees[1]:
                    continue
                if count_ga_monomials(alg, max_len, degrees=degrees) <= 4000:
                    check_diagonal_candidates(alg, OracleWindow(kind, max_len, degrees))
                    checked += 1
    assert checked > 200


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=5))
def test_diagonal_candidates_match_the_full_listing(data, g):
    kind = data.draw(st.sampled_from(ALGEBRA_KINDS))
    alg = Algebra(kind, g)
    max_len = data.draw(st.integers(0, 4))
    while max_len and count_ga_monomials(alg, max_len) > 2000:
        max_len -= 1
    window = OracleWindow(kind, max_len, data.draw(windows(max_len)))
    check_diagonal_candidates(alg, window)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=6))
def test_direct_straightening_matches_the_word_rewriter(data, g):
    """parse_element, project_to_quotient and the corner sums straighten
    real·ghost* directly; rewriting the same words gives the same elements."""
    kind = data.draw(st.sampled_from(ALGEBRA_KINDS))
    paths = all_paths_up_to(g, 2)
    pairs = [(a, Path.vertex(g, a.target)) if kind == PATH else (a, b)
             for a in paths for b in paths if a.target == b.target]
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 3),
                                         st.sampled_from(pairs)), max_size=5))
    alg = Algebra(kind, g)
    rng = data.draw(st.randoms(use_true_random=False))
    expected = rewrite_words(alg, [(c, word_of(a, b)) for c, (a, b) in terms], rng)
    assert alg.sum_of((QQ.coerce(c), a, b) for c, (a, b) in terms) == expected
    text = " + ".join(f"{c} {a!r}|{b!r}" for c, (a, b) in terms) or "0"
    assert parse_element(text, alg) == expected

    h = data.draw(st.sampled_from(enumerate_hereditary_saturated(g)[:-1]))
    q = quotient_graph(g, h)
    kept = [(c, word_of(m.real, m.ghost)) for m, c in expected.coeffs.items()
            if m.real.target not in h]
    assert (project_to_quotient(expected, h, Algebra(kind, q))
            == rewrite_words(Algebra(kind, q), kept, rng))

    leavitt = Algebra(LEAVITT, g)
    for c in cycles_without_exits(g):
        feeding = paths_into(g, c.vertex_set(g))
        if feeding is not None:
            words = [(1, word_of(t.concat(c.rotation_based_at(g, t.target)), t))
                     for t in feeding]
            assert _corner_sum(leavitt, feeding, c) == \
                rewrite_words(leavitt, words, rng)
    for v in g.vertices:
        feeding = paths_into(g, frozenset({v})) if g.is_sink(v) else None
        if feeding is not None:
            assert _corner_sum(leavitt, feeding) == \
                rewrite_words(leavitt, [(1, word_of(t, t)) for t in feeding], rng)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=7),
       kind=st.sampled_from(ALGEBRA_KINDS), field=st.sampled_from([QQ, PrimeField(3)]))
def test_normal_form_matches_the_word_rewriter(data, g, kind, field):
    """normal_form multiplies each word's symbols out; rewriting the words
    in a random rule order gives the same element under any special-edge
    choice and over any field."""
    special = SpecialEdgeChoice.from_mapping(g, {
        v: data.draw(st.sampled_from(g.out_edges(v)))
        for v in g.vertices if g.is_regular(v)}) if kind == LEAVITT else None
    alg = Algebra(kind, g, special, field)
    terms = data.draw(st.lists(st.tuples(st.integers(-3, 3),
                                         raw_words(g, ghosts=kind != PATH)),
                               max_size=4))
    rng = data.draw(st.randoms(use_true_random=False))
    assert normal_form(alg, terms) == rewrite_words(alg, terms, rng)


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       g=graphs(max_vertices=4, max_edges=7)
       | st.builds(cycle_graph, st.integers(1, 4))
       | st.builds(rose_graph, st.integers(1, 3)),
       field=st.sampled_from([QQ, PrimeField(3)]))
def test_one_pass_straightening_matches_the_recursion(data, g, field):
    """The same terms in the same order: the stripped monomial, then each
    level's other-edge terms, innermost level first."""
    special = SpecialEdgeChoice.from_mapping(g, {
        v: data.draw(st.sampled_from(g.out_edges(v)))
        for v in g.vertices if g.is_regular(v)})
    alg = Algebra(LEAVITT, g, special, field)
    c = field.coerce(data.draw(st.sampled_from([1, -1, 2, -2, 4])))
    real, ghost = data.draw(special_suffix_pairs(alg))
    assert list(graph_algebra._straighten(alg, real, ghost, c).items()) == \
        list(straighten_by_recursion(alg, real, ghost, c).items())
    m1 = data.draw(normal_monomials(alg, g.vertices))
    m2 = data.draw(normal_monomials(alg, [m1.target]))
    with patch.object(graph_algebra, "_straighten", straighten_by_recursion):
        expected = mul_monomials(alg, m1, m2, c)
    assert list(mul_monomials(alg, m1, m2, c).items()) == list(expected.items())


def _laurent_fixtures():
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        if is_downward_directed(g) and not classify_prime_leavitt(g).scalar:
            yield path.stem, g


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "F65521"])
def test_closed_form_laurent_generator_matches_the_solve_on_fixtures(field):
    names = []
    for name, g in _laurent_fixtures():
        cls = classify_prime_leavitt(g)
        assert laurent_generator(Algebra(LEAVITT, g, field=field), cls.cycle) == \
            solved_laurent_generator(g, cls, field), name
        names.append(name)
    assert len(names) >= 5, names


@settings(max_examples=100, deadline=None)
@given(g=fed_cycles(), field=st.sampled_from(FIELDS))
def test_closed_form_laurent_generator_matches_the_solve(g, field):
    assert is_downward_directed(g)
    cls = classify_prime_leavitt(g)
    assert cls.reason == "finite_cycle"
    assert laurent_generator(Algebra(LEAVITT, g, field=field), cls.cycle) == \
        solved_laurent_generator(g, cls, field)


def piece_texts(pieces):
    """(kind, detail, generator text) for each piece the thunk returns, or
    "cap" when it is refused."""
    try:
        return [(p.kind, p.detail,
                 None if p.generator is None else element_to_text(p.generator))
                for p in pieces()]
    except ResourceCapExceeded:
        return "cap"


def check_lower_pieces_against_pattern(g, field):
    """Every non-improper lower summand of `center_bounds` equals the
    pattern search on its vertices.  A refused corner stops `center_bounds`,
    so then each W_P is read through `_lower_pieces` on its own.  Returns
    the piece kinds compared, "cap" standing for a refused W_P."""
    alg = Algebra(LEAVITT, g, field=field)
    pairs = []
    try:
        for s in center_bounds(Algebra(LEAVITT, g, field=field)).lower:
            if not s.improper:
                pairs.append((piece_texts(lambda: s.pieces), s.ideal_vertices))
    except ResourceCapExceeded:
        records = graded_prime_ideals(g)
        for r in records if len(records) > 1 else ():
            hw = frozenset.intersection(*(q.H for q in records if q is not r))
            pairs.append((piece_texts(lambda: _lower_pieces(alg, r, hw)), hw))
    kinds = set()
    for fast, hw in pairs:
        assert fast == piece_texts(lambda: lower_pieces_by_pattern(alg, hw)), sorted(hw)
        kinds.update(["cap"] if fast == "cap" else (kind for kind, _, _ in fast))
    return kinds


LOWER_FIELDS = [QQ, PrimeField(3)]
LOWER_GRAPHS = [
    # a vertex with two loops fed beside a sink: the undecidable piece
    Graph.build(["u", "w", "s"], [("f", "u", "w"), ("c", "w", "w"),
                                  ("d", "w", "w"), ("g", "u", "s")]),
    # a 2-cycle fed beside a sink: a Laurent corner over 3 paths
    Graph.build(["u", "c1", "c2", "s"], [("f", "u", "c1"), ("z1", "c1", "c2"),
                                         ("z2", "c2", "c1"), ("g", "u", "s")]),
]


def lower_kinds_on_fixtures(field):
    graphs = [parse_graph(p.read_text()) for p in sorted(FIXTURES.glob("*.graph"))]
    kinds = set()
    for g in graphs + LOWER_GRAPHS:
        kinds |= check_lower_pieces_against_pattern(g, field)
    return kinds


@pytest.mark.parametrize("field", LOWER_FIELDS, ids=["QQ", "F3"])
def test_lower_pieces_match_the_pattern_search_on_fixtures(field):
    assert lower_kinds_on_fixtures(field) == {"zero", "scalar", "laurent", "unknown"}


def test_refused_lower_pieces_match_the_pattern_search(monkeypatch):
    # a cap of 2 candidates refuses some corner windows and admits others
    monkeypatch.setenv("PATHCENTERS_MAX_MONOMIALS", "2")
    kinds = lower_kinds_on_fixtures(QQ)
    assert "cap" in kinds and len(kinds) > 1


@settings(max_examples=200, deadline=None)
@given(g=graphs(max_vertices=7, max_edges=12) | fed_cycle_beside_terminal(),
       field=st.sampled_from(LOWER_FIELDS))
def test_lower_pieces_match_the_pattern_search(g, field):
    check_lower_pieces_against_pattern(g, field)


def check_central_subspace_against_all_pairs(g, window, field):
    fast = central_subspace(g, window, field=field)
    slow = central_subspace_by_all_pairs(g, window, field)
    assert fast.candidate_count == slow.candidate_count
    assert fast.basis == slow.basis
    return fast


# F_2 and F_3 too: there the two products of a row entry can cancel
ASSEMBLY_FIELDS = FIELDS + [PrimeField(2), PrimeField(3)]


@pytest.mark.parametrize("field", ASSEMBLY_FIELDS, ids=["QQ", "F65521", "F2", "F3"])
@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_junction_assembly_matches_all_pairs_on_fixtures(kind, field):
    dims = []
    for path in sorted(FIXTURES.glob("*.graph")):
        g = parse_graph(path.read_text())
        for degrees in (None, (0, 0), (1, 2)):
            window = OracleWindow(kind, 2, degrees)
            dims.append(check_central_subspace_against_all_pairs(g, window, field).dim)
    assert any(dims)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=6),
       kind=st.sampled_from(ALGEBRA_KINDS), field=st.sampled_from(ASSEMBLY_FIELDS))
def test_junction_assembly_matches_all_pairs(data, g, kind, field):
    max_len = data.draw(st.integers(0, 3))
    while max_len and count_ga_monomials(Algebra(kind, g), max_len) > 400:
        max_len -= 1
    window = OracleWindow(kind, max_len, data.draw(windows(max_len)))
    check_central_subspace_against_all_pairs(g, window, field)


def dead_columns_by_all_pairs(g, window, field):
    """The Peirce-diagonal candidates and the columns their edge and ghost
    edge generators kill, in generator order: a generator's row that keeps
    one entry once the columns killed by earlier generators are struck out
    kills that entry's column.  Every product is formed."""
    alg = Algebra(window.kind, g, field=field)
    diagonal = [m for m in enumerate_ga_monomials(alg, window.max_len,
                                                  degrees=window.degrees)
                if m.source == m.target]
    minus_one = field.neg(field.one)
    dead = set()
    for _, gel in alg.generators:
        (gmon,) = gel.coeffs
        if gmon.is_vertex:
            continue
        rows = {}
        for j, m in enumerate(diagonal):
            for rm, c in chain(mul_monomials(alg, m, gmon, field.one).items(),
                               mul_monomials(alg, gmon, m, minus_one).items()):
                row = rows.setdefault(rm, {})
                row[j] = field.add(row.get(j, field.zero), c)
        killed = set()
        for row in rows.values():
            left = [j for j, c in row.items() if c and j not in dead]
            if len(left) == 1:
                killed.update(left)
        dead |= killed
    return diagonal, dead


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "F65521"])
@pytest.mark.parametrize("name,kind", [("rose_2", LEAVITT), ("rose_2", COHN),
                                       ("rose_3", COHN), ("toeplitz", LEAVITT)])
def test_solver_sees_only_the_live_columns(name, kind, field):
    g = parse_graph(fixture_path(name).read_text())
    window = OracleWindow(kind, 3)
    diagonal, dead = dead_columns_by_all_pairs(g, window, field)
    sub, calls = solver_calls(g, window, field)
    ((rows, ncols),) = calls
    # the solver's columns are the live ones, so no row carries a dead one
    assert dead and ncols == len(diagonal) - len(dead)
    assert all(row and max(row) < ncols for row in rows)
    assert sub.basis == central_subspace_by_all_pairs(g, window, field).basis


@st.composite
def window_sums(draw, g, kind, field, central):
    """A random sum of monomials of the length-2 window, plus a random
    combination of the window's central basis."""
    alg = Algebra(kind, g, field=field)
    window = OracleWindow(kind, 2)
    out = alg.zero()
    for m in draw(st.lists(st.sampled_from(enumerate_ga_monomials(alg, window.max_len)),
                           max_size=4)):
        out = out + alg.monomial(m, draw(st.integers(-2, 2)))
    for z in central:
        out = out + z.scale(draw(st.integers(-2, 2)))
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=5),
       kind=st.sampled_from(ALGEBRA_KINDS), field=st.sampled_from(LOWER_FIELDS))
def test_junction_products_match_all_pairs(data, g, kind, field):
    central = central_subspace(g, OracleWindow(kind, 2), field=field).basis
    a = data.draw(window_sums(g, kind, field, central))
    b = data.draw(window_sums(g, kind, field, ()))
    expected = centrality_witness_by_all_generators(a)
    witness = centrality_witness(a)
    assert (witness and witness[0]) == (expected and expected[0])
    assert a * b == product_by_all_pairs(a, b)
    assert b * a == product_by_all_pairs(b, a)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=6),
       kind=st.sampled_from(ALGEBRA_KINDS), field=st.sampled_from(LOWER_FIELDS))
def test_touched_generator_witness_matches_every_generator(data, g, kind, field):
    central = central_subspace(g, OracleWindow(kind, 2), field=field).basis
    a = data.draw(window_sums(g, kind, field, central))
    assert centrality_witness(a) is centrality_witness_by_every_kernel_row(a)


def test_centrality_checks_form_no_zero_product(monkeypatch):
    products = record_kernel_products(monkeypatch, oracle, graph_algebra)
    ladder = ladder_graph(4)
    cycles = [parse_graph(fixture_path(f"cycle_{n}").read_text()) for n in (2, 3, 4)]
    for g in [ladder] + cycles:
        products.clear()  # the theory checks its generator as it builds it
        z = laurent_generator(Algebra(LEAVITT, g), classify_prime_leavitt(g).cycle)
        assert check_central(z)
        assert products and formed_only_nonzero_products(products)


def kernel_pairs_match_products(alg, cols):
    """The kernel's terms for every column and every generator, on both
    sides, against `mul_monomials`; the number of products CK2 straightened
    (the ones with more than one term)."""
    kernel = CommutatorKernel(alg, [raw_key(m) for m in cols])
    straightened = 0
    for symbol in alg.generator_symbols:
        for side in ("right", "left"):
            got = [{} for _ in cols]
            for j, key, c in getattr(kernel, side)(symbol):
                assert key not in got[j]
                got[j][key] = c
            assert got == [product_by_mul_monomials(alg, m, symbol, side)
                           for m in cols], (symbol, side)
            straightened += sum(len(terms) > 1 for terms in got)
    return straightened


def kernel_window(alg, max_len=3, cap=400):
    """The normal monomials of the longest window up to `max_len` that
    holds at most `cap` of them."""
    while max_len and count_ga_monomials(alg, max_len) > cap:
        max_len -= 1
    return enumerate_ga_monomials(alg, max_len)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), g=graphs(max_vertices=4, max_edges=5),
       kind=st.sampled_from(ALGEBRA_KINDS), field=st.sampled_from([QQ, PrimeField(2)]))
def test_commutator_kernel_matches_mul_monomials(data, g, kind, field):
    """Every window-3 normal monomial against every generator, a random
    special-edge choice deciding where CK2 applies; over F_2, -1 == 1."""
    special = SpecialEdgeChoice.from_mapping(g, {
        v: data.draw(st.sampled_from(g.out_edges(v)))
        for v in g.vertices if g.is_regular(v)}) if kind == LEAVITT else None
    alg = Algebra(kind, g, special, field)
    kernel_pairs_match_products(alg, kernel_window(alg))


@pytest.mark.parametrize("kind", ALGEBRA_KINDS)
def test_commutator_kernel_matches_mul_monomials_on_fixtures(kind):
    straightened = 0
    for path in sorted(FIXTURES.glob("*.graph")):
        alg = Algebra(kind, parse_graph(path.read_text()))
        straightened += kernel_pairs_match_products(alg, kernel_window(alg, cap=2000))
    assert bool(straightened) == (kind == LEAVITT)


def test_element_products_form_no_zero_product(monkeypatch):
    """GAElement.__mul__ pairs a term only with the partners whose real
    part meets its ghost part: one a prefix of the other."""
    products = []

    def recorded(*args):
        products.append(mul_monomials(*args))
        return products[-1]

    monkeypatch.setattr(graph_algebra, "mul_monomials", recorded)
    cycles = [parse_graph(fixture_path(f"cycle_{n}").read_text()) for n in (2, 3, 4)]
    for g in [ladder_graph(4)] + cycles:
        z = laurent_generator(Algebra(LEAVITT, g), classify_prime_leavitt(g).cycle)
        zi = z.involution()
        for a, b in ((z, zi), (zi, z)):
            products.clear()
            assert a * b == product_by_all_pairs(a, b)
            assert products and all(products)


def test_the_element_product_holds_one_key_per_monomial():
    """z·z* on a 300-vertex line into a loop: the ghost parts of z have
    every length below 300, so an index of each partner's prefixes at
    those lengths held about n³/6 edge slots (44 MiB); one key per
    monomial holds a few hundred."""
    import tracemalloc

    n = 300
    vs = [f"x{i:03d}" for i in range(n)]
    g = Graph.build(vs, [(f"a{i:03d}", vs[i], vs[i + 1]) for i in range(n - 1)]
                    + [("c", vs[-1], vs[-1])])
    alg = Algebra(LEAVITT, g)
    feeding = paths_into(g, {vs[-1]})
    z = _corner_sum(alg, feeding, classify_prime_leavitt(g).cycle)
    zi = z.involution()
    tracemalloc.start()
    try:
        product = z * zi
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert product == _corner_sum(alg, feeding)
    assert peak <= 4 * 2**20
