"""Finite directed multigraphs and the graph predicates the theorems consume.

Graphs are immutable after construction and every operation here is a pure
function, so shared instances are safe under concurrent use.  Edges carry
their own identity: parallel edges and loops are fully supported.

The records are `namedtuple`s; one with derived state (a `Graph`'s edge
maps, components and exit-free cycles) or a validating constructor is `Frozen`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain

from .errors import GraphError, ResourceCapExceeded

DEFAULT_VERTEX_CAP = 16
# the most cycles, and the most hereditary saturated sets, `analyze` lists
CYCLE_CAP = 20_000


class Frozen:
    """Mixin for a tuple record: any assignment raises AttributeError, so
    derived state in a `__dict__` is set with object.__setattr__, or by a
    `cached_property` (a `Graph`'s components and exit-free cycles), and
    `_make` (so `_replace` too) builds through the record's constructor,
    which validates, instead of `tuple.__new__`."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Graph(Frozen, namedtuple("Graph", "vertices edges src rng")):
    """A finite directed multigraph (vertices, edges, source map, range map);
    `build` adds the edge maps `_out` and `_in`.  Unhashable: maps are dicts."""

    __hash__ = None

    @classmethod
    def build(cls, vertices, edges):
        """Construct from vertex ids and (edge_id, source, range) triples."""
        vs = sorted(vertices)
        if len(vs) != len(set(vs)):
            raise GraphError("duplicate vertex id")
        vset = set(vs)
        src, rng = {}, {}
        for eid, s, r in edges:
            if eid in src:
                raise GraphError(f"duplicate edge id {eid!r}")
            if eid in vset:
                raise GraphError(f"id {eid!r} used for both a vertex and an edge")
            if s not in vset:
                raise GraphError(f"edge {eid!r}: unknown source {s!r}")
            if r not in vset:
                raise GraphError(f"edge {eid!r}: unknown range {r!r}")
            src[eid] = s
            rng[eid] = r
        g = cls(tuple(vs), tuple(sorted(src)), src, rng)
        out = {v: [] for v in vs}
        inc = {v: [] for v in vs}
        for eid in g.edges:
            out[src[eid]].append(eid)
            inc[rng[eid]].append(eid)
        object.__setattr__(g, "_out", {v: tuple(es) for v, es in out.items()})
        object.__setattr__(g, "_in", {v: tuple(es) for v, es in inc.items()})
        return g

    def check_vertex(self, v):
        if v not in self._out:
            raise GraphError(f"unknown vertex {v!r}")

    def check_edge(self, e):
        if e not in self.src:
            raise GraphError(f"unknown edge {e!r}")

    def out_edges(self, v):
        self.check_vertex(v)
        return self._out[v]

    def in_edges(self, v):
        self.check_vertex(v)
        return self._in[v]

    def is_sink(self, v):
        return not self.out_edges(v)

    def is_source(self, v):
        return not self.in_edges(v)

    def is_regular(self, v):
        # finite graphs have no infinite emitters, so regular == not a sink
        return bool(self.out_edges(v))

    def edge_triples(self):
        return [(e, self.src[e], self.rng[e]) for e in self.edges]

    # `strongly_connected_components`, walked once per graph
    components = cached_property(lambda g: strongly_connected_components(g))

    @cached_property
    def exit_free_cycles(self):
        """Each exit-free cycle is a component whose vertices each emit just
        one edge, into it; the walk from its least vertex reads the cycle."""
        found = []
        for comp in self.components:
            if all(len(self._out[v]) == 1 and self.rng[self._out[v][0]] in comp
                   for v in comp):
                edges, v = [], min(comp)
                for _ in comp:
                    edges.append(self._out[v][0])
                    v = self.rng[edges[-1]]
                found.append(Cycle.from_edges(self, edges))
        return tuple(sorted(found, key=lambda c: c.edges))


class Path(namedtuple("Path", "source target edges")):
    """A composable edge sequence, or a trivial path sitting at a vertex.

    An immutable tuple (source, target, edges): fields are read by C
    getters, and hash and equality are the tuple's."""

    __slots__ = ()

    @classmethod
    def vertex(cls, g: Graph, v) -> "Path":
        g.check_vertex(v)
        return cls(v, v, ())

    @classmethod
    def from_edges(cls, g: Graph, edges) -> "Path":
        edges = tuple(edges)
        if not edges:
            raise GraphError("edge path needs at least one edge")
        for e in edges:
            g.check_edge(e)
        for a, b in zip(edges, edges[1:]):
            if g.rng[a] != g.src[b]:
                raise GraphError(f"edges {a!r}, {b!r} do not compose")
        return cls(g.src[edges[0]], g.rng[edges[-1]], edges)

    @property
    def length(self):
        return len(self.edges)

    @property
    def is_trivial(self):
        return not self.edges

    def concat(self, other: "Path") -> "Path":
        if self.target != other.source:
            raise GraphError("paths do not compose")
        return Path(self.source, other.target, self.edges + other.edges)

    def sort_key(self):
        return (len(self.edges), self.source, self.edges)

    def __repr__(self):
        if self.is_trivial:
            return f"@{self.source}"
        return ".".join(self.edges)


class Cycle(namedtuple("Cycle", "path")):
    """A closed path with pairwise distinct edge sources, in canonical rotation.

    Canonical form rotates the edge list so the lexicographically least edge
    id leads; that gives a unique representative per rotation class.
    """

    __slots__ = ()

    @classmethod
    def from_edges(cls, g: Graph, edges) -> "Cycle":
        edges = tuple(edges)  # rotated first, as a rotation of a cycle is one
        k = edges.index(min(edges)) if edges else 0
        p = Path.from_edges(g, edges[k:] + edges[:k])
        if p.source != p.target:
            raise GraphError("cycle must be a closed path")
        sources = [g.src[e] for e in p.edges]
        if len(set(sources)) != len(sources):
            raise GraphError("closed path repeats an edge source; not a cycle")
        return cls(p)

    @property
    def edges(self):
        return self.path.edges

    @property
    def base(self):
        return self.path.source

    @property
    def length(self):
        return self.path.length

    def vertex_set(self, g: Graph) -> frozenset:
        return frozenset(g.src[e] for e in self.edges)

    def rotation_based_at(self, g: Graph, v) -> Path:
        for i, e in enumerate(self.edges):
            if g.src[e] == v:
                return Path.from_edges(g, self.edges[i:] + self.edges[:i])
        raise GraphError(f"vertex {v!r} is not on the cycle")

    def __repr__(self):
        return f"Cycle({'.'.join(self.edges)})"


VertexClassification = namedtuple("VertexClassification", "sink source regular")


def classify_vertex(g: Graph, v) -> VertexClassification:
    g.check_vertex(v)
    return VertexClassification(g.is_sink(v), g.is_source(v), g.is_regular(v))


def connected_components(g: Graph):
    """Partition of the vertices under undirected reachability: each edge
    merges the blocks of its two endpoints, the smaller into the larger."""
    block = {v: {v} for v in g.vertices}
    for e in g.edges:
        a, b = block[g.src[e]], block[g.rng[e]]
        if a is not b:
            if len(a) < len(b):
                a, b = b, a
            a |= b
            for v in b:
                block[v] = a
    blocks = {id(b): b for b in block.values()}.values()
    return sorted((frozenset(b) for b in blocks), key=sorted)


def find_cycles(g: Graph):
    """All cycles up to rotation, canonical, sorted by their edge lists.

    A cycle is a closed path whose edges have pairwise distinct sources, so
    it is determined by a simple directed vertex cycle plus one edge choice
    per step.  Each is discovered exactly once, rooted at its least vertex;
    ResourceCapExceeded as soon as more than CYCLE_CAP are found.
    """
    order = {v: i for i, v in enumerate(g.vertices)}
    found = []
    for root in g.vertices:
        # iterative depth-first walk: one out-edge iterator per open vertex
        acc, visited = [], {root}
        stack = [iter(g._out[root])]
        while stack:
            for e in stack[-1]:
                w = g.rng[e]
                if w == root:
                    found.append(acc + [e])
                    if len(found) > CYCLE_CAP:
                        raise ResourceCapExceeded(
                            f"cycle listing found more than {CYCLE_CAP} "
                            f"cycles; cap is {CYCLE_CAP} cycles",
                            needed=len(found), cap=CYCLE_CAP)
                elif w not in visited and order[w] > order[root]:
                    visited.add(w)
                    acc.append(e)
                    stack.append(iter(g._out[w]))
                    break
            else:
                stack.pop()
                if acc:
                    visited.discard(g.rng[acc.pop()])
    cycles = [Cycle.from_edges(g, edges) for edges in found]
    return sorted(cycles, key=lambda c: c.edges)


def cycle_has_exit(g: Graph, c: Cycle) -> bool:
    """True when some vertex on the cycle emits an edge other than its cycle edge."""
    for e in c.edges:
        g.check_edge(e)
        if any(f != e for f in g.out_edges(g.src[e])):
            return True
    return False


def cycles_without_exits(g: Graph):
    """The exit-free cycles, canonical, sorted by their edge lists, from the
    graph's components in O(V + E): a list of its `exit_free_cycles`."""
    return list(g.exit_free_cycles)


def condition_L(g: Graph) -> bool:
    return not g.exit_free_cycles


def exit_free_cycle_vertices(g: Graph) -> frozenset:
    """P_c: the union of the vertex sets of all exit-free cycles."""
    return frozenset().union(*(c.vertex_set(g) for c in g.exit_free_cycles))


def strongly_connected_components(g: Graph):
    """The strongly connected components, each a frozenset, by a fresh Tarjan
    walk in O(V + E); callers read the cached `Graph.components`.  No longer a
    generator: a tuple, in completion order, so the first one is terminal."""
    index, low = {}, {}
    comps = []
    on_stack, stack = set(), []
    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g._out[root]))]
        while work:
            v, edges = work[-1]
            for e in edges:
                w = g.rng[e]
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g._out[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    comps.append(frozenset(comp))
    return tuple(comps)


def reaching(g: Graph, targets) -> frozenset:
    """The vertices with a directed path into `targets` (targets included)."""
    seen = set(targets)
    work = list(seen)
    while work:
        for e in g._in[work.pop()]:
            s = g.src[e]
            if s not in seen:
                seen.add(s)
                work.append(s)
    return frozenset(seen)


def is_downward_directed(g: Graph) -> bool:
    """Every pair of vertices flows to a common vertex via directed paths.

    In a finite graph every vertex reaches a terminal strongly connected
    component, so this holds exactly when there is only one: when every
    vertex reaches the first terminal component found."""
    terminal = g.components[0] if g.components else ()
    return len(reaching(g, terminal)) == len(g.vertices)


def hereditary_saturated_closure(g: Graph, seed) -> frozenset:
    """Least hereditary and saturated superset of `seed`.

    Worklist: each vertex that joins pulls in the ranges of its out-edges
    (hereditary) and re-checks the sources of its in-edges, which join once
    all their out-edges land inside (saturated)."""
    h = set(seed)
    for v in h:
        g.check_vertex(v)
    work = list(h)
    while work:
        x = work.pop()
        for e in g._out[x]:
            w = g.rng[e]
            if w not in h:
                h.add(w)
                work.append(w)
        for e in g._in[x]:
            s = g.src[e]
            if s not in h and all(g.rng[f] in h for f in g._out[s]):
                h.add(s)
                work.append(s)
    return frozenset(h)


def check_vertex_cap(g: Graph, what: str):
    """ResourceCapExceeded, saying `what`, when g has more vertices than the cap."""
    n, cap = len(g.vertices), DEFAULT_VERTEX_CAP
    if n > cap:
        raise ResourceCapExceeded(f"{what}; cap is {cap} vertices", needed=n, cap=cap)


def anchor_components(g: Graph):
    """The strongly connected components that hold an edge or are a sink,
    in Tarjan order: each after every component it reaches."""
    return [comp for comp in g.components
            if g.is_sink(next(iter(comp)))
            or any(g.rng[e] in comp for v in comp for e in g._out[v])]


def enumerate_hereditary_saturated(g: Graph):
    """All hereditary saturated subsets, sorted by size then members.

    H is hereditary saturated exactly when E^0 - H = reaching(U) for a set
    U of anchors (`anchor_components`) that holds every anchor reaching one
    in U: a walk inside E^0 - H, closed under in-edges and with an out-edge
    at each non-sink, ends in an anchor.  U is the set of anchors inside
    reaching(U), so distinct U give distinct H.  The anchors are walked
    sources first on an explicit stack, each kept only when no dropped one
    reaches it, so every branch yields one set.  The sets can number 2^n
    (n disjoint loops): the vertex cap (16) guards the listing, and
    ResourceCapExceeded is raised as soon as more than CYCLE_CAP are found.
    """
    check_vertex_cap(g, "hereditary-saturated enumeration needs "
                        f"2^{len(g.vertices)} subsets")
    anchors = anchor_components(g)[::-1]
    # vertex k of n is bit n-1-k, so of two kept-vertex masks of one size
    # the larger holds the least vertex they differ in: it sorts first
    n = len(g.vertices)
    bit = {v: 1 << (n - 1 - k) for k, v in enumerate(g.vertices)}
    reach = [sum(bit[v] for v in reaching(g, comp)) for comp in anchors]
    full, found = (1 << n) - 1, []  # found: the kept-vertex masks
    stack = [(0, 0, 0)]  # (next anchor, dropped anchors' vertices, removed vertices)
    while stack:
        i, dropped, removed = stack.pop()
        if i == len(anchors):
            found.append(full ^ removed)
            if len(found) > CYCLE_CAP:
                raise ResourceCapExceeded(
                    f"hereditary-saturated listing found more than "
                    f"{CYCLE_CAP} sets; cap is {CYCLE_CAP} sets",
                    needed=len(found), cap=CYCLE_CAP)
            continue
        stack.append((i + 1, dropped | bit[min(anchors[i])], removed))
        if not reach[i] & dropped:
            stack.append((i + 1, dropped, removed | reach[i]))
    found.sort(key=lambda m: (m.bit_count(), -m))
    # through a set, so each frozenset's table is sized to its members
    return [frozenset({v for v, b in bit.items() if m & b}) for m in found]


def quotient_graph(g: Graph, h) -> Graph:
    """E/H: drop the vertices of H and every edge with range inside H."""
    h = frozenset(h)
    for v in h:
        g.check_vertex(v)
    if h == frozenset(g.vertices):
        raise GraphError("quotient by the full vertex set is rejected")
    vs = [v for v in g.vertices if v not in h]
    es = [(e, g.src[e], g.rng[e]) for e in g.edges if g.rng[e] not in h]
    for e, s, _ in es:
        if s in h:
            raise GraphError(f"set is not hereditary: edge {e!r} leaves it")
    return Graph.build(vs, es)


def paths_into(g: Graph, targets: frozenset):
    """Paths whose only vertex inside `targets` is their range, sorted, or
    None when `count_paths_into` finds infinitely many (`targets` must be
    closed under out-edges).  Each target has its trivial path; in Tarjan
    order, each other vertex's paths are its out-edges followed by the
    paths at their ranges (none on a cycle, as the count is finite)."""
    if count_paths_into(g, targets) is None:
        return None
    paths = {}
    for v in chain.from_iterable(g.components):
        paths[v] = [Path(v, v, ())] if v in targets else [
            Path(v, p.target, (e,) + p.edges)
            for e in g._out[v] for p in paths.get(g.rng[e], ())]
    return sorted(chain.from_iterable(paths.values()), key=Path.sort_key)


def count_paths_into(g: Graph, targets: frozenset):
    """The number of `paths_into(g, targets)`, their longest length and the
    set of their sources, or None when there are infinitely many; no path
    is built.

    `targets` must be closed under out-edges (an exit-free cycle, or sinks),
    so each strongly connected component lies inside or outside it.  Tarjan
    yields every component after all the ones it reaches, so one pass
    counts each vertex's paths from the counts at the ranges of its edges;
    a cycle outside `targets` that reaches them makes the count infinite."""
    for v in targets:
        if any(g.rng[e] not in targets for e in g.out_edges(v)):
            raise GraphError(f"targets are not closed under out-edges at {v!r}")
    count, longest = {}, {}
    for comp in g.components:
        if comp <= targets:
            count.update(dict.fromkeys(comp, 1))
            longest.update(dict.fromkeys(comp, 0))
            continue
        v = next(iter(comp))
        ranges = [g.rng[e] for u in comp for e in g._out[u]]
        if v in ranges:  # an edge inside the component enters v: a cycle
            if any(count.get(w) for w in ranges):
                return None
            count.update(dict.fromkeys(comp, 0))
            continue
        fed = [w for w in ranges if count[w]]
        count[v] = sum(count[w] for w in fed)
        if fed:
            longest[v] = 1 + max(longest[w] for w in fed)
    return sum(count.values()), max(longest.values(), default=0), frozenset(longest)


def all_paths_up_to(g: Graph, max_len: int):
    """Every path of length <= max_len, trivial paths included, sorted.

    Stops at the first length no path reaches."""
    if max_len < 0:
        raise GraphError("path length bound must be >= 0")
    frontier = [Path.vertex(g, v) for v in g.vertices]
    out = list(frontier)
    for _ in range(max_len):
        frontier = [Path(p.source, g.rng[e], p.edges + (e,))
                    for p in frontier for e in g.out_edges(p.target)]
        if not frontier:
            break
        out.extend(frontier)
    return sorted(out, key=Path.sort_key)

