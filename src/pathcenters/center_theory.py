"""The structure theorems as executable classifiers.

Covers: the center of the path algebra KE (scalars except on cycle graphs,
where it is a polynomial ring on the rotation sum), primeness and centers of
prime Cohn and Leavitt path algebras, the graded prime ideals (one per
maximal tail) with their I/J flavors, and the upper/lower center bounds for
a general Leavitt path algebra, each lower piece read off its prime's
record.  Every generator is a closed form checked central by direct
products, never solved for, and this module imports nothing from the oracle
that cross-checks it, so the two stay independent.  A claim states its own
window truncation (`CenterStructure.truncation`, and its `span`), which both
verifiers read: `oracle.verify_structure` and `verify_bounds` here.
The theorems take the caller's `Algebra` (AmbientError for another kind)
and build their elements in it, so a claim checked against an oracle solve
lives in the solve's algebra; the graph predicates take graphs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import AmbientError, HypothesisNotMet, InvariantViolation
from .graph import (
    Cycle,
    Graph,
    Path,
    anchor_components,
    check_vertex_cap,
    connected_components,
    count_paths_into,
    cycles_without_exits,
    is_downward_directed,
    paths_into,
    quotient_graph,
    reaching,
)
from .graph_algebra import (
    COHN,
    LEAVITT,
    PATH,
    Algebra,
    GAElement,
    check_central,
    check_window_cap,
    element_vector,
)
from .linalg import LinearSpan

ZERO = "zero"
SCALAR = "scalar"
POLY = "poly"
LAURENT = "laurent"
SUM = "sum"

_KIND_NAMES = {
    ZERO: "0",
    SCALAR: "K",
    POLY: "K[x]",
    LAURENT: "K[x,x^-1]",
}


class CenterStructure(namedtuple("CenterStructure", "kind generators components",
                                 defaults=((), ()))):
    """Structural description of a center: 0, K, K[x] or K[x,x^-1], with
    explicit generators when constructible, or a direct sum of such pieces.

    For scalar pieces `generators` holds the identity; for polynomial and
    Laurent pieces it holds the identity followed by the ring generator.
    """

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == SUM:
            return " (+) ".join(c.describe() for c in self.components)
        return _KIND_NAMES[self.kind]

    def truncation(self, window):
        """Spanning elements of this center that `window` admits.

        Scalar pieces contribute their identity; polynomial and Laurent
        pieces contribute every power of their generator that stays inside
        the window (negative powers through the involution, which inverts
        the generator).
        """
        out = []
        for piece in self.components or (self,):
            if piece.kind == ZERO or not piece.generators:
                continue
            one = piece.generators[0]
            if window.admits(one):
                out.append(one)
            if piece.kind in (POLY, LAURENT):
                z = piece.generators[1]
                for step in (z, z.involution()) if piece.kind == LAURENT else (z,):
                    acc = step
                    for _ in range(4 * window.max_len + 4):
                        if not window.admits(acc):
                            break
                        out.append(acc)
                        acc = acc * step
        return out

    def span(self, window, field) -> LinearSpan:
        """The span of `truncation(window)`, over `field`."""
        span = LinearSpan(field)
        for el in self.truncation(window):
            span.add(element_vector(el))
        return span


def _require_kind(alg: Algebra, kind, name):
    if alg.kind != kind:
        raise AmbientError(f"{name} needs a {kind} algebra, "
                           f"not a {alg.kind} algebra")


# --- the path algebra KE -----------------------------------------------------


def cycle_rotation_sum(alg: Algebra, cyc: Cycle) -> GAElement:
    """Sum over the cycle's vertices of the rotation based there: the
    generator of Z(KE) for a cycle graph."""
    _require_kind(alg, PATH, "the rotation sum")
    g = alg.graph
    return _corner_sum(alg, [Path.vertex(g, v) for v in sorted(cyc.vertex_set(g))], cyc)


def center_structure_KE(alg: Algebra) -> CenterStructure:
    """Z(KE): the direct sum over connected components of K on the component
    identity, except that a cycle component contributes K[x] generated by
    the sum of its based rotations."""
    _require_kind(alg, PATH, "Z(KE)")
    g = alg.graph
    # a component is a cycle graph exactly when it is an exit-free cycle
    cycles = {c.vertex_set(g): c for c in cycles_without_exits(g)}
    pieces = []
    for comp in connected_components(g):
        one_comp = alg.vertex_sum(comp)
        cyc = cycles.get(comp)
        if cyc is None:
            pieces.append(CenterStructure(SCALAR, (one_comp,)))
        else:
            gen = cycle_rotation_sum(alg, cyc)
            pieces.append(CenterStructure(POLY, (one_comp, gen)))
    if len(pieces) == 1:
        return pieces[0]
    return CenterStructure(SUM, (), tuple(pieces))


# --- prime Cohn and prime Leavitt algebras ----------------------------------


def is_prime_leavitt(g: Graph) -> bool:
    """L_K(E) is prime exactly when the graph is downward directed."""
    return is_downward_directed(g)


def is_prime_cohn(g: Graph) -> bool:
    """C_K(E) is prime exactly when the graph has a single vertex."""
    return len(g.vertices) == 1


def center_prime_cohn(alg: Algebra) -> CenterStructure:
    """Z(C_K(E)) = K for a prime Cohn path algebra (the one-vertex rose)."""
    _require_kind(alg, COHN, "the prime Cohn center")
    if not is_prime_cohn(alg.graph):
        raise HypothesisNotMet("Cohn path algebra is not prime: |E^0| != 1")
    return CenterStructure(SCALAR, (alg.one(),))


# reason: "condition_L" | "infinite_feeding" | "finite_cycle"; cycle: the
# exit-free Cycle or None; path_count, base_count: int, math.inf or None
PrimeLeavittClassification = namedtuple(
    "PrimeLeavittClassification", "scalar reason cycle path_count base_count",
    defaults=(None, None, None))


def classify_prime_leavitt(g: Graph) -> PrimeLeavittClassification:
    if not is_prime_leavitt(g):
        raise HypothesisNotMet("Leavitt path algebra is not prime: "
                               "graph is not downward directed")
    exit_free = cycles_without_exits(g)
    if not exit_free:
        return PrimeLeavittClassification(scalar=True, reason="condition_L")
    if len(exit_free) > 1:
        raise InvariantViolation("prime graph with two exit-free cycles; "
                                 "orthogonality theorem violated")
    c = exit_free[0]
    counted = count_paths_into(g, c.vertex_set(g))
    if counted is None:
        return PrimeLeavittClassification(
            scalar=True, reason="infinite_feeding", cycle=c,
            path_count=math.inf, base_count=math.inf,
        )
    # each feeding path ends l(c) paths on the cycle that do not traverse
    # every cycle edge, one of them at the base
    return PrimeLeavittClassification(
        scalar=False, reason="finite_cycle", cycle=c,
        path_count=c.length * counted[0], base_count=counted[0],
    )


def laurent_generator(alg: Algebra, c: Cycle) -> GAElement:
    """The degree-l(c) generator of a Laurent center on the exit-free cycle
    c, finitely fed: the sum over the feeding paths t of t·c_t·t*, c_t the
    cycle rotated to enter at r(t) (Aranda Pino-Crow, Rev. Mat. Iberoam.
    27, 2011), built and checked by `_corner_generator`."""
    return _corner_generator(alg, c.vertex_set(alg.graph), c)


def center_prime_leavitt(alg: Algebra, cls=None) -> CenterStructure:
    """Z(L_K(E)) for prime L_K(E): K under Condition (L) or an infinitely-fed
    exit-free cycle; K[x,x^-1] for a finitely-fed exit-free cycle, with the
    degree-l(c) generator constructed explicitly.  `cls` is the graph's
    classification when the caller already has it."""
    _require_kind(alg, LEAVITT, "the prime Leavitt center")
    cls = cls or classify_prime_leavitt(alg.graph)
    if cls.scalar:
        return CenterStructure(SCALAR, (alg.one(),))
    return CenterStructure(LAURENT, (alg.one(), laurent_generator(alg, cls.cycle)))


# --- graded prime ideals and the center bounds -------------------------------


# a graded prime ideal I(H), flavor "I" or "J", with its quotient E/H and
# the quotient's PrimeLeavittClassification
GradedPrimeRecord = namedtuple("GradedPrimeRecord", "H quotient flavor cls")


def graded_prime_ideals(g: Graph):
    """The graded prime ideals I(H), sorted by |H| then H, of flavor I (a K
    factor) or J (a K[x,x^-1] factor).  E^0 - H is a maximal tail: the
    vertices reaching one anchor, a strongly connected component that holds
    an edge or is a sink (Rangaswamy, J. Algebra 375, 2013)."""
    # perfbench/reference.json records this refusal for `gprimes line_17`;
    # the change that re-records that entry deletes this check
    check_vertex_cap(g, "graded-prime listing refused")
    records = []
    for comp in anchor_components(g):
        h = frozenset(g.vertices) - reaching(g, comp)
        q = quotient_graph(g, h)
        cls = classify_prime_leavitt(q)
        records.append(GradedPrimeRecord(h, q, "I" if cls.scalar else "J", cls))
    return sorted(records, key=lambda r: (len(r.H), sorted(r.H)))


# kind: ZERO | SCALAR | LAURENT | "unknown"; generator: a GAElement or None
PieceContribution = namedtuple("PieceContribution", "kind detail generator",
                               defaults=(None,))


class LowerSummand(namedtuple("LowerSummand",
                              "record_index ideal_vertices improper piece")):
    """Z(W_P) for W_P the intersection of the other graded primes, one
    PieceContribution."""

    __slots__ = ()

    def describe(self) -> str:
        return _KIND_NAMES.get(self.piece.kind, "oracle-bounded")


class CenterBounds(namedtuple("CenterBounds",
                              "records upper lower radical_vertices")):
    """Per graded-prime record, the upper factor ("K" or "K[x,x^-1]") and the
    LowerSummand; `radical_vertices`, the meet of all H_P, is empty iff B_gr = 0."""

    __slots__ = ()

    def describe_upper(self) -> str:
        return " x ".join(self.upper) if self.upper else "(no graded primes)"

    def describe_lower(self) -> str:
        parts = [d for d in (s.describe() for s in self.lower) if d != "0"]
        return " (+) ".join(parts) if parts else "0"


def _corner_sum(alg, feeding, c: Cycle = None):
    """The sum over feeding paths t of t·t* (the corner unit), or with a
    cycle c of t·(c rotated to enter at r(t))·t* (the Laurent generator)."""
    one = alg.field.one
    return alg.sum_of(
        (one, t if c is None else t.concat(c.rotation_based_at(alg.graph, t.target)), t)
        for t in feeding)


def _corner_generator(alg, targets, c: Cycle = None):
    """`_corner_sum` over the finitely many paths into `targets`, a sink or
    the vertex set of c, checked: it must be central, and z·z* = z*·z must
    be the corner unit sum t·t* (1 on a whole prime graph).

    ResourceCapExceeded, before any path is listed, when the window of
    degree d = 0 (a sink) or l(c), real length d + the longest path, holds
    more candidate monomials than the cap on the paths' sources (on a prime
    graph, all vertices: the window `oracle --verify` checks it in)."""
    g = alg.graph
    _, longest, near = count_paths_into(g, targets)
    fed = quotient_graph(g, frozenset(g.vertices) - near)
    degree = 0 if c is None else c.length
    check_window_cap(Algebra(LEAVITT, fed), degree + longest, (degree, degree))
    feeding = paths_into(g, targets)
    z = _corner_sum(alg, feeding, c)
    unit = z if c is None else _corner_sum(alg, feeding)
    zi = z.involution()
    if not check_central(z):
        raise InvariantViolation("constructed generator is not central")
    if z * zi != unit or zi * z != unit:
        raise InvariantViolation("constructed generator is not unitary")
    return z


def _lower_piece(alg, record, hw):
    """Z(W_P) for the graded prime `record`, W_P on the vertices `hw`.

    A vertex of hw reaches no other record's component, so hw is empty
    unless P's component C is terminal, and then it is the hereditary
    saturated closure of C.  Decidable: the zero ideal; hw the whole
    connected component E^0 - H, whose prime Leavitt algebra `record.cls`
    classifies (the whole center when hw = E^0, which only the improper
    summand of a lone graded prime, H = 0, has); the closure of an
    exit-free cycle (a matrix algebra over Laurent polynomials: K[x,x^-1]
    when finitely many paths end at the cycle, zero center when the matrix
    size is infinite); the closure of a sink (a matrix algebra over K).  A
    terminal C with Condition (L) is `unknown`."""
    if not hw:
        return PieceContribution(ZERO, "zero ideal")
    g, cls = alg.graph, record.cls
    everything = frozenset(g.vertices)
    if hw | record.H == everything:
        whole = hw == everything
        if cls.scalar:
            name = "whole center" if whole else "component identity"
            return PieceContribution(SCALAR, f"{name} ({cls.reason})",
                                     alg.vertex_sum(hw))
        return PieceContribution(
            LAURENT, "whole center" if whole else
            f"prime component, exit-free cycle fed by {cls.base_count} paths",
            laurent_generator(alg, cls.cycle))
    if cls.cycle is not None:
        if cls.reason == "infinite_feeding":
            return PieceContribution(
                ZERO, "matrix size infinite: a cycle feeds the corner")
        return PieceContribution(
            LAURENT, f"matrix corner over {cls.base_count} paths",
            laurent_generator(alg, cls.cycle))
    sinks = frozenset(v for v in hw if g.is_sink(v))
    if not sinks:
        return PieceContribution(
            "unknown", "no decidable pattern; oracle-bounded evidence only")
    counted = count_paths_into(g, sinks)
    if counted is None:
        return PieceContribution(ZERO, "matrix size infinite: a cycle feeds the sink")
    return PieceContribution(SCALAR, f"matrix corner over K on {counted[0]} paths",
                             _corner_generator(alg, sinks))


def center_bounds(alg: Algebra) -> CenterBounds:
    """Theorem-level bounds: the upper bound is one K per I-record and one
    K[x,x^-1] per J-record; the lower bound collects Z(W_P) for W_P the
    intersection of the other graded primes, E^0 when there are none, read
    off P's record by `_lower_piece`.  A lone graded prime makes W_P
    improper: its lower entry is the whole center and is flagged as such."""
    _require_kind(alg, LEAVITT, "bounding the center")
    everything = frozenset(alg.graph.vertices)
    records = tuple(graded_prime_ideals(alg.graph))
    upper = tuple("K" if r.flavor == "I" else "K[x,x^-1]" for r in records)
    lower = []
    for i, r in enumerate(records):
        hw = everything.intersection(*(q.H for q in records if q is not r))
        lower.append(LowerSummand(i, hw, len(records) == 1, _lower_piece(alg, r, hw)))
    radical = everything.intersection(*(r.H for r in records))
    return CenterBounds(records, upper, tuple(lower), radical)


BoundsVerification = namedtuple(
    "BoundsVerification", "ok oracle_dim upper_ok lower_ok radical_empty notes",
    defaults=((),))


def project_to_quotient(el: GAElement, h, qalg: Algebra):
    """Image of an element under L_K(E) -> L_K(E/H), with `qalg` the
    quotient's algebra: monomials landing in H die, the rest are
    renormalized in the quotient's basis.  A surviving monomial's paths
    avoid H, so they are paths of the quotient too."""
    return qalg.sum_of(
        (c, m.real, m.ghost) for m, c in el.coeffs.items() if m.real.target not in h)


def verify_bounds(subspace) -> BoundsVerification:
    """Window-exact consistency of the bounds against the oracle's solved
    Leavitt `subspace`: the bounded center basis must project into each
    quotient's structural truncation (upper containment) and must span
    every decidable lower generator's truncated powers (lower containment).

    AmbientError when `subspace` was solved in another kind of algebra."""
    alg, window = subspace.algebra, subspace.window
    field = alg.field
    bounds = center_bounds(alg)
    notes = []

    upper_ok = True
    for r in bounds.records:
        qalg = Algebra(LEAVITT, r.quotient, field=field)
        span = center_prime_leavitt(qalg, r.cls).span(window, field)
        for z in subspace.basis:
            zq = project_to_quotient(z, r.H, qalg)
            if not check_central(zq) or not span.contains(element_vector(zq)):
                upper_ok = False
                notes.append(
                    f"projection of a central element escapes the upper bound "
                    f"at H={sorted(r.H)}")

    oracle_span = LinearSpan(field)
    for z in subspace.basis:
        oracle_span.add(element_vector(z))
    lower_ok = True
    for summand in bounds.lower:
        z = summand.piece.generator
        if z is None:
            continue
        if summand.piece.kind == LAURENT:
            claim = CenterStructure(LAURENT, (z * z.involution(), z))
        else:
            claim = CenterStructure(SCALAR, (z,))
        for el in claim.truncation(window):
            if not oracle_span.contains(element_vector(el)):
                lower_ok = False
                notes.append(
                    f"lower-bound generator power missing from the oracle "
                    f"span (record {summand.record_index})")

    radical_empty = not bounds.radical_vertices
    return BoundsVerification(
        ok=upper_ok and lower_ok and radical_empty,
        oracle_dim=subspace.dim,
        upper_ok=upper_ok,
        lower_ok=lower_ok,
        radical_empty=radical_empty,
        notes=tuple(notes),
    )
