"""Exact arithmetic in path, Cohn and Leavitt path algebras.

An `Algebra` value names one algebra: its kind (path, Cohn or Leavitt), its
graph, its scalar field and, for Leavitt, the special-edge choice that fixes
the basis.  Every element holds one, and products, generators and
straightening read everything they need from it.

Products land in the canonical basis of monomials (real path)·(ghost path)*,
and a raw word over the extended graph is read into it by multiplying its
symbols out (`normal_form`).  The path algebra KE is the span of the
monomials with a trivial ghost part, closed under the same product, so one
engine serves all three kinds.  Two rules do all the work:

  CK1   e* e'          ->  delta_{e,e'} r(e)                  (Cohn and Leavitt)
  CK2-  e_v e_v*       ->  v - sum of f f* over other f at v  (Leavitt only)

where e_v is the designated special edge at the regular vertex v.  CK2 is
oriented as an elimination of the special pair, never as an expansion of a
vertex, which is what makes straightening terminate.  In the Leavitt basis a
monomial is in normal form exactly when its real and ghost parts do not both
end with the same special edge.
"""

from __future__ import annotations

import operator
import os
from collections import namedtuple
from functools import cached_property, reduce
from itertools import accumulate, chain

from .errors import (
    AmbientError,
    GraphError,
    ResourceCapExceeded,
    WordError,
)
from .graph import Frozen, Graph, Path, all_paths_up_to
from .linalg import sparse_nullspace
from .scalars import QQ

PATH = "path"
COHN = "cohn"
LEAVITT = "leavitt"
ALGEBRA_KINDS = (PATH, COHN, LEAVITT)

DEFAULT_MONOMIAL_CAP = 20_000
MONOMIAL_CAP_ENV = "PATHCENTERS_MAX_MONOMIALS"

# raw generator symbols: (_V, v), (_E, e), or (_G, e) for e*; their labels
_V, _E, _G = "v", "e", "g"
_LABELS = {_V: "@{}", _E: "{}", _G: "{}*"}


class GMonomial(Frozen, namedtuple("GMonomial", "real ghost")):
    """A basis monomial: real part times the star of the ghost part.

    An immutable tuple (real, ghost) of paths; hash and equality are the
    tuple's."""

    __slots__ = ()

    def __new__(cls, real: Path, ghost: Path):
        if real.target != ghost.target:
            raise GraphError("real and ghost parts must share their range")
        return tuple.__new__(cls, (real, ghost))

    @classmethod
    def at_vertex(cls, g: Graph, v) -> "GMonomial":
        p = Path.vertex(g, v)
        return cls(p, p)

    @property
    def source(self):
        return self.real.source

    @property
    def target(self):
        # the vertex the monomial maps out of on the right
        return self.ghost.source

    @property
    def degree(self):
        return self.real.length - self.ghost.length

    @property
    def is_vertex(self):
        return self.real.is_trivial and self.ghost.is_trivial

    def star(self) -> "GMonomial":
        return GMonomial(self.ghost, self.real)

    def sort_key(self):
        return (self.real.sort_key(), self.ghost.sort_key())

    def __repr__(self):
        if self.ghost.is_trivial:
            return repr(self.real)
        return f"{self.real!r}|{self.ghost!r}"


class SpecialEdgeChoice(Frozen, namedtuple("SpecialEdgeChoice", "pairs")):
    """One chosen edge per regular vertex; fixes the Leavitt basis."""

    def __new__(cls, pairs):
        self = tuple.__new__(cls, (pairs,))
        object.__setattr__(self, "_edge", dict(pairs))
        return self

    @classmethod
    def lex_default(cls, g: Graph) -> "SpecialEdgeChoice":
        return cls(tuple(
            (v, min(g.out_edges(v))) for v in g.vertices if g.is_regular(v)
        ))

    @classmethod
    def from_mapping(cls, g: Graph, mapping) -> "SpecialEdgeChoice":
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
        return cls(tuple(pairs))

    def edge_at(self, v):
        return self._edge.get(v)


class Algebra(Frozen, namedtuple("Algebra", "kind graph special field")):
    """The path, Cohn or Leavitt path algebra of a graph over a field.

    For Leavitt, `special` (default: the least edge at each regular vertex)
    fixes the normal-form basis, so it is part of the value; for the other
    kinds it is None.  The generator tables are cached in its `__dict__`.
    """

    def __new__(cls, kind, graph, special=None, field=QQ):
        if kind not in ALGEBRA_KINDS:
            raise AmbientError(f"unknown algebra kind {kind!r}")
        special = (special or SpecialEdgeChoice.lex_default(graph)
                   if kind == LEAVITT else None)
        return tuple.__new__(cls, (kind, graph, special, field))

    def is_normal(self, m: GMonomial) -> bool:
        """Whether m is a basis monomial of this algebra."""
        if self.kind == PATH:
            return m.ghost.is_trivial
        lam, mu = m.real.edges, m.ghost.edges
        return not (lam and mu and lam[-1] == mu[-1] in self.specials)

    def monomial(self, m: GMonomial, coeff=1) -> "GAElement":
        if not self.is_normal(m):
            raise GraphError(f"monomial {m!r} is not in normal form")
        return GAElement(self, {m: self.field.coerce(coeff)})

    def vertex(self, v) -> "GAElement":
        return self.monomial(GMonomial.at_vertex(self.graph, v))

    def edge(self, e, ghost=False) -> "GAElement":
        """The generator e, or e* when `ghost` is set."""
        p = Path.from_edges(self.graph, (e,))
        r = Path.vertex(self.graph, p.target)
        return self.monomial(GMonomial(r, p) if ghost else GMonomial(p, r))

    def zero(self) -> "GAElement":
        return GAElement(self, {})

    def one(self) -> "GAElement":
        return GAElement(self, {GMonomial.at_vertex(self.graph, v): self.field.one
                                for v in self.graph.vertices})

    def sum_of(self, terms) -> "GAElement":
        """Σ coeff·real·ghost* over (coeff, real, ghost) triples of paths that
        share their range, in normal form.  Only the junction real·ghost* can
        leave the basis, so straightening it is all the rewriting needed."""
        out = {}
        for coeff, real, ghost in terms:
            if self.kind == PATH and ghost.edges:
                raise WordError("path algebra elements have no ghost part")
            _add_into(out, _straighten(self, real, ghost, coeff), self.field)
        return GAElement(self, out)

    def generator(self, symbol) -> "GAElement":
        """The generator a raw symbol names: v, e, or e* for (_G, e)."""
        tag, x = symbol
        return self.vertex(x) if tag == _V else self.edge(x, ghost=tag == _G)

    @cached_property
    def generator_symbols(self):
        """The generating set as raw symbols: vertices, edges, then ghost edges
        unless the algebra is KE.  Sound and complete for centrality checks."""
        g = self.graph
        return (tuple((_V, v) for v in g.vertices) + tuple((_E, e) for e in g.edges)
                + (() if self.kind == PATH else tuple((_G, e) for e in g.edges)))

    @cached_property
    def generators(self):
        """`generator_symbols` as labelled elements: (@v, v), (e, e), (e*, e*)."""
        return tuple((_LABELS[tag].format(x), self.generator((tag, x)))
                     for tag, x in self.generator_symbols)

    @cached_property
    def generators_meeting(self):
        """(starting, ending): the positions in `generator_symbols` of those that
        start, and that end, at each vertex, as extended-graph paths.  A
        monomial λμ* runs from s(λ) to s(μ), so λμ*·g = 0 unless g starts at
        s(μ), and g·λμ* = 0 unless g ends at s(λ)."""
        starting, ending = {}, {}
        for i, symbol in enumerate(self.generator_symbols):
            s, r = _sym_endpoints(self.graph, symbol)
            starting.setdefault(s, []).append(i)
            ending.setdefault(r, []).append(i)
        return starting, ending

    @cached_property
    def specials(self):
        """The special edges (none unless Leavitt), each chosen at its source."""
        return frozenset(e for _, e in (self.special.pairs if self.special else ()))

    @cached_property
    def verdicts(self):
        """`centrality_witness` results, keyed by frozenset(a.coeffs.items())."""
        return {}


def _straighten(alg, real, ghost, coeff):
    """coeff * real·ghost* in normal form, as a dict of normal monomials.

    Only the junction can be off-basis.  One backward scan counts the
    special edges e the two parts end in together; CK2 strips each of them
    and adds -coeff·(λf)(μf)* for every other edge f at s(e), λ and μ the
    parts before e.  The stripped monomial comes first, then each level's
    terms, innermost first.  Terms of different levels differ in length, so
    no two share a monomial and nothing cancels.
    """
    specials, g = alg.specials, alg.graph  # no specials unless Leavitt
    lam, mu = real.edges, ghost.edges
    k = 0
    while k < len(lam) and k < len(mu) and lam[-1 - k] == mu[-1 - k] in specials:
        k += 1
    if not k:
        return {GMonomial(real, ghost): coeff}
    a, b = len(lam) - k, len(mu) - k
    v = g.src[lam[a]]
    out = {GMonomial(Path(real.source, v, lam[:a]),
                     Path(ghost.source, v, mu[:b])): coeff}
    minus = alg.field.neg(coeff)
    for i, j in zip(range(a, len(lam)), range(b, len(mu))):
        for f in g._out[g.src[lam[i]]]:
            if f != lam[i]:
                out[GMonomial(Path(real.source, g.rng[f], lam[:i] + (f,)),
                              Path(ghost.source, g.rng[f], mu[:j] + (f,)))] = minus
    return out


def _add_into(out, terms, field):
    """out += terms, both dicts of normal monomials to nonzero scalars; a
    sum that cancels leaves `out`."""
    for m, c in terms.items():
        old = out.get(m)
        if old is None:
            out[m] = c
            continue
        c = field.add(old, c)
        if c:
            out[m] = c
        else:
            del out[m]


def mul_monomials(alg, m1: GMonomial, m2: GMonomial, coeff):
    """coeff·m1·m2 for normal monomials and a nonzero coeff, as a dict of
    normal monomials.  By CK1 it is nonzero exactly when ghost(m1) and
    real(m2) start at one vertex and one is a prefix of the other."""
    real1, mu1 = m1
    lam2, ghost2 = m2
    if mu1.source != lam2.source:
        return {}
    mu, lam = mu1.edges, lam2.edges
    if lam[:len(mu)] == mu:
        real = Path(real1.source, lam2.target, real1.edges + lam[len(mu):])
        return _straighten(alg, real, ghost2, coeff)
    if mu[:len(lam)] == lam:
        ghost = Path(ghost2.source, mu1.target, ghost2.edges + mu[len(lam):])
        return _straighten(alg, real1, ghost, coeff)
    return {}


class CommutatorKernel:
    """The terms of cols[j]·g and -g·cols[j] for normal monomials `cols`,
    as raw keys (s(λ), λ, s(μ), μ), and a generator symbol g, by CK1:

      λμ*·e  = (λe, r(e)) if μ is trivial at s(e), (λ, μ') if μ = eμ'
      e·λμ*  = (eλ, μ) if s(λ) = r(e);     λμ*·e* = (λ, eμ) if s(μ) = r(e)
      e*·λμ* = (r(e), μe) if λ is trivial at s(e), (λ', μ) if λ = eλ'
      λμ*·v  = λμ* if s(μ) = v;            v·λμ*  = λμ* if s(λ) = v

    Each key is indexed by the head (first edge, or vertex of a trivial
    part; edge and vertex ids never coincide) and the source of each part,
    so each side forms one nonzero product per column it meets and builds
    no Path, GMonomial or dict.  Only e·(r(e))μ* with μ ending in e, and
    λ·e* with λ ending in e, can leave the basis (e special); those go
    through `_straighten`, the one home of CK2.
    """

    __slots__ = ("alg", "raw", "real_heads", "ghost_heads", "real_sources",
                 "ghost_sources")

    def __init__(self, alg, cols):
        self.alg = alg
        self.raw = cols
        self.real_heads, self.ghost_heads = {}, {}
        self.real_sources, self.ghost_sources = {}, {}
        for j, (rs, lam, gs, mu) in enumerate(self.raw):
            self.real_heads.setdefault(lam[0] if lam else rs, []).append(j)
            self.ghost_heads.setdefault(mu[0] if mu else gs, []).append(j)
            self.real_sources.setdefault(rs, []).append(j)
            self.ghost_sources.setdefault(gs, []).append(j)

    def commutator(self, symbol, skip=()):
        """(j, key, c) for the terms of cols[j]·g - g·cols[j], c = ±1, the
        columns in `skip` left out."""
        return chain(self.right(symbol, skip), self.left(symbol, skip))

    def right(self, symbol, skip=()):
        """(j, key, c) for the terms of cols[j]·g."""
        raw, g, c = self.raw, self.alg.graph, self.alg.field.one
        tag, x = symbol
        if tag == _V:
            return [(j, raw[j], c) for j in self.ghost_sources.get(x, ())
                    if j not in skip]
        s, r, e = g.src[x], g.rng[x], (x,)
        if tag == _E:
            return [(j, (rs, lam + e, r, ()), c)
                    for j in self.ghost_heads.get(s, ()) if j not in skip
                    for rs, lam, _, _ in [raw[j]]] + \
                   [(j, (rs, lam, r, mu[1:]), c)
                    for j in self.ghost_heads.get(x, ()) if j not in skip
                    for rs, lam, _, mu in [raw[j]]]
        out = []
        for j in self.ghost_sources.get(r, ()):
            if j not in skip:
                rs, lam, _, mu = raw[j]
                if not mu and lam[-1:] == e and x in self.alg.specials:
                    out += self._straightened(j, Path(rs, r, lam), Path(s, r, e), c)
                else:
                    out.append((j, (rs, lam, s, e + mu), c))
        return out

    def left(self, symbol, skip=()):
        """(j, key, c) for the terms of -g·cols[j]."""
        raw, g, field = self.raw, self.alg.graph, self.alg.field
        c = field.neg(field.one)
        tag, x = symbol
        if tag == _V:
            return [(j, raw[j], c) for j in self.real_sources.get(x, ())
                    if j not in skip]
        s, r, e = g.src[x], g.rng[x], (x,)
        if tag == _G:
            return [(j, (r, (), gs, mu + e), c)
                    for j in self.real_heads.get(s, ()) if j not in skip
                    for _, _, gs, mu in [raw[j]]] + \
                   [(j, (r, lam[1:], gs, mu), c)
                    for j in self.real_heads.get(x, ()) if j not in skip
                    for _, lam, gs, mu in [raw[j]]]
        out = []
        for j in self.real_sources.get(r, ()):
            if j not in skip:
                _, lam, gs, mu = raw[j]
                if not lam and mu[-1:] == e and x in self.alg.specials:
                    out += self._straightened(j, Path(s, r, e), Path(gs, r, mu), c)
                else:
                    out.append((j, (s, e + lam, gs, mu), c))
        return out

    def _straightened(self, j, real, ghost, c):
        return [(j, (lam.source, lam.edges, mu.source, mu.edges), k)
                for (lam, mu), k in _straighten(self.alg, real, ghost, c).items()]


def check_central(a) -> bool:
    return centrality_witness(a) is None


def centrality_witness(a):
    """The first generator, in `a.algebra.generator_symbols` order, that
    fails to commute with `a`, as its (label, element) entry of
    `generators`, or None: the commutator kernel's terms, weighted by
    a's coefficients, summed per monomial, over the generators that can
    meet one of a's monomials (`Algebra.generators_meeting`).  Each
    verdict is computed once per algebra (`Algebra.verdicts`)."""
    alg = a.algebra
    memo, element = alg.verdicts, frozenset(a.coeffs.items())
    if element in memo:
        return memo[element]
    field = alg.field
    one = field.one
    kernel = CommutatorKernel(alg, [(lam.source, lam.edges, mu.source, mu.edges)
                                    for lam, mu in a.coeffs])
    coeffs = list(a.coeffs.values())
    starting, ending = alg.generators_meeting
    touched = set()
    for rs, _, gs, _ in kernel.raw:
        touched.update(starting[gs], ending[rs])
    for i in sorted(touched):
        total = {}
        for j, key, c in kernel.commutator(alg.generator_symbols[i]):
            c = coeffs[j] if c == one else field.neg(coeffs[j])
            total[key] = field.add(total[key], c) if key in total else c
        if any(total.values()):
            memo[element] = witness = alg.generators[i]
            return witness
    memo[element] = None
    return None


# --- raw words ---------------------------------------------------------------


def _classify_symbol(g: Graph, sym: str):
    if sym.endswith("*") and sym[:-1] in g.src:
        return (_G, sym[:-1])
    if sym in g.src:
        return (_E, sym)
    if sym in g._out:
        return (_V, sym)
    raise WordError(f"unknown symbol {sym!r}")


def _sym_endpoints(g: Graph, sym):
    tag, x = sym
    if tag == _V:
        return x, x
    if tag == _E:
        return g.src[x], g.rng[x]
    return g.rng[x], g.src[x]


def parse_word(g: Graph, word):
    """Symbols -> internal word, checking composability in the extended graph."""
    syms = [_classify_symbol(g, s) for s in word]
    if not syms:
        raise WordError("empty word")
    for a, b in zip(syms, syms[1:]):
        if _sym_endpoints(g, a)[1] != _sym_endpoints(g, b)[0]:
            raise WordError(
                f"symbols {a[1]!r} and {b[1]!r} do not compose in the extended graph"
            )
    return tuple(syms)


class GAElement:
    """An element of a path, Cohn or Leavitt path algebra in the normal-form
    basis.

    Every element records the `Algebra` its basis was built in, so
    arithmetic across mismatched presentations is impossible.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {m: c for m, c in coeffs.items() if c}

    @property
    def kind(self):
        return self.algebra.kind

    @property
    def field(self):
        return self.algebra.field

    # -- ring structure ---------------------------------------------------

    def _check_ambient(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AmbientError("elements of different algebras: kind, graph, "
                               "special edges or scalar field differ")

    def _make(self, coeffs):
        return GAElement(self.algebra, coeffs)

    def __add__(self, other):
        self._check_ambient(other)
        field = self.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = field.add(out.get(m, field.zero), c)
        return self._make(out)

    def __neg__(self):
        return self._make({m: self.field.neg(c) for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        k = self.field.coerce(k)
        return self._make({m: self.field.mul(k, c) for m, c in self.coeffs.items()})

    def __rmul__(self, k):
        return self.scale(k)

    def __mul__(self, other):
        if not isinstance(other, GAElement):
            return NotImplemented
        self._check_ambient(other)
        alg = self.algebra
        field = alg.field
        one = field.one
        # m1·m2 needs ghost(m1) and real(m2) to start at one vertex, one a
        # prefix of the other.  Both are indexed whole, one key per monomial,
        # and each looks up its own prefixes at the lengths the other side
        # has at its source: a ghost finds the real parts that are its
        # prefixes, itself included, and a real part its proper prefixes.
        left, right = list(self.coeffs.items()), list(other.coeffs.items())
        ghosts, reals = {}, {}
        for i, (m1, _) in enumerate(left):
            ghosts.setdefault((m1.ghost.source, m1.ghost.edges), []).append(i)
        for j, (m2, _) in enumerate(right):
            reals.setdefault((m2.real.source, m2.real.edges), []).append(j)
        pairs = []
        for index, others, proper in ((ghosts, reals, False), (reals, ghosts, True)):
            lengths = {}
            for s, edges in others:
                lengths.setdefault(s, set()).add(len(edges))
            lengths = {s: sorted(ks) for s, ks in lengths.items()}
            for (s, edges), mine in index.items():
                for k in lengths.get(s, ()):
                    if k > len(edges) or proper and k == len(edges):
                        break
                    for n in others.get((s, edges[:k]), ()):
                        pairs += ((n, m) if proper else (m, n) for m in mine)
        pairs.sort()
        out = {}
        for i, j in pairs:
            (m1, a), (m2, b) = left[i], right[j]
            # generators have coefficient 1; skip field.mul for them
            ab = b if a == one else a if b == one else field.mul(a, b)
            _add_into(out, mul_monomials(alg, m1, m2, ab), field)
        return self._make(out)

    def __eq__(self, other):
        return (
            isinstance(other, GAElement)
            and (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.coeffs == other.coeffs
        )

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        from .textio import element_to_text

        return element_to_text(self)

    # -- involution, grading, shape ----------------------------------------

    def involution(self):
        """(real·ghost*)* = ghost·real*, extended linearly over the scalars."""
        if self.kind == PATH:
            raise AmbientError("the path algebra has no involution")
        return self._make({m.star(): c for m, c in self.coeffs.items()})

    def support(self):
        return sorted(self.coeffs, key=GMonomial.sort_key)

    def degree(self):
        """Common degree of the support, or None when the element is mixed."""
        degs = {m.degree for m in self.coeffs}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_symmetric(self):
        return all(m.real == m.ghost for m in self.coeffs)

    def peirce_component(self, u, v):
        self.algebra.graph.check_vertex(u)
        self.algebra.graph.check_vertex(v)
        return self._make({m: c for m, c in self.coeffs.items()
                           if m.source == u and m.target == v})


def normal_form(alg, terms) -> GAElement:
    """Σ coeff·word over scalar-weighted raw words of the extended graph, in
    basis form: each word's symbols are multiplied out by the product."""
    out = alg.zero()
    for coeff, word in terms:
        parsed = parse_word(alg.graph, word)
        if alg.kind == PATH and any(tag == _G for tag, _ in parsed):
            raise WordError("path algebra elements have no ghost part")
        factors = [alg.generator(symbol) for symbol in parsed]
        out = out + reduce(operator.mul, factors).scale(coeff)
    return out


def word_element(alg, word, coeff=1) -> GAElement:
    return normal_form(alg, [(coeff, word)])


def T_operator(a: GAElement, x: GAElement) -> GAElement:
    """T_a(x) = a* x a; satisfies T_a T_b = T_{ba}."""
    a._check_ambient(x)
    return a.involution() * x * a


def _window_lengths(max_len, degrees):
    """Degree bounds (lo, hi) of a window; no filter admits every degree."""
    return (-max_len, max_len) if degrees is None else degrees


def _longest_real(kind, max_len, hi):
    """The longest real part a window can use: a path-algebra monomial has
    a trivial ghost part, so its real length is its degree, at most hi."""
    return max(0, min(max_len, hi)) if kind == PATH else max_len


def window_pairs(alg, max_len, degrees, source=None, diagonal=False):
    """(real, ghost) paths of the window's normal monomials, sorted.

    `degrees` restricts the degree to an inclusive window (a, b); `source`
    pins both parts to start at one vertex, `diagonal` the ghost part to
    start where the real part does.  A path-algebra ghost is trivial.
    Sorted paths are bucketed by (source if `diagonal`, target, length),
    and each real part of length a is paired with the buckets of lengths b
    that put a - b inside the window, b ascending, so pairs come out sorted.
    """
    graph, kind = alg.graph, alg.kind
    lo, hi = _window_lengths(max_len, degrees)
    paths = all_paths_up_to(graph, _longest_real(kind, max_len, hi))
    longest_ghost = 0 if kind == PATH else paths[-1].length  # sorted by length
    if source is not None:
        paths = [p for p in paths if p.source == source]
    buckets, specials = {}, alg.specials
    for p in paths:
        key = (p.source if diagonal else None, p.target, len(p.edges))
        buckets.setdefault(key, []).append(p)
    for real in paths:
        s, t, lam = real
        for b in range(max(0, len(lam) - hi), min(longest_ghost, len(lam) - lo) + 1):
            for ghost in buckets.get((s if diagonal else None, t, b), ()):
                mu = ghost.edges  # normal unless both end in one special edge
                if not (lam and mu and lam[-1] == mu[-1] in specials):
                    yield real, ghost


def enumerate_ga_monomials(alg, max_len, *, degrees=None, source=None):
    """Normal-form monomials with both parts of length <= max_len, sorted."""
    return [GMonomial(real, ghost)
            for real, ghost in window_pairs(alg, max_len, degrees, source)]


def key_monomial(g, key):
    """The monomial of a raw key (s(λ), λ, s(μ), μ)."""
    rs, lam, gs, mu = key
    r = g.rng[lam[-1]] if lam else rs
    return GMonomial(Path(rs, r, lam), Path(gs, r, mu))


def count_ga_monomials(alg, max_len, *, degrees=None):
    """len(enumerate_ga_monomials(...)), computed without building a monomial.

    counts[v][L], the number of paths of length L ending at v, comes from a
    dynamic program over the edges.  A Cohn monomial is a pair of paths
    ending at one vertex, a path-algebra monomial such a pair with a
    trivial ghost part; a Leavitt monomial is such a pair unless both
    parts end in the same special edge, and those pairs are prefixes ending
    at the edge's source, one step shorter.  Prefix sums over the ghost
    length make the count O(E·L + V·L); the program stops at the first
    length no path reaches.
    """
    graph, kind = alg.graph, alg.kind
    lo, hi = _window_lengths(max_len, degrees)
    counts = {v: [1] for v in graph.vertices}
    arrows = [(counts[graph.src[e]], graph.rng[e]) for e in graph.edges]
    for _ in range(_longest_real(kind, max_len, hi)):
        step = dict.fromkeys(graph.vertices, 0)
        for into_src, r in arrows:
            step[r] += into_src[-1]
        if not any(step.values()):
            break
        for v, n in counts.items():
            n.append(step[v])

    def pairs(n, longest, longest_ghost):
        # pairs of a real length a <= longest and a ghost length
        # b <= longest_ghost with lo <= a - b <= hi, weighted n[a]·n[b]
        prefix = [0, *accumulate(n[:longest_ghost + 1])]
        total = 0
        for a, x in enumerate(n[:longest + 1]):
            if x:
                b0, b1 = max(0, a - hi), min(len(prefix) - 2, a - lo)
                if b0 <= b1:
                    total += x * (prefix[b1 + 1] - prefix[b0])
        return total

    longest_ghost = 0 if kind == PATH else max_len
    total = sum(pairs(n, max_len, longest_ghost) for n in counts.values())
    if kind == LEAVITT:
        # both parts end in the special edge at v: drop that last edge
        total -= sum(pairs(counts[v], max_len - 1, max_len - 1)
                     for v, _ in alg.special.pairs)
    return total


def monomial_cap():
    """The candidate cap: the environment, else the default.

    A set environment value must be a non-negative integer (ValueError)."""
    env = os.environ.get(MONOMIAL_CAP_ENV)
    if not env:
        return DEFAULT_MONOMIAL_CAP
    message = f"{MONOMIAL_CAP_ENV} must be a non-negative integer, got {env!r}"
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(message) from None
    if cap < 0:
        raise ValueError(message)
    return cap


def check_window_cap(alg, max_len, degrees):
    """The window's candidate monomials, counted exactly without building
    one; ResourceCapExceeded when the count passes the cap."""
    cap = monomial_cap()
    needed = count_ga_monomials(alg, max_len, degrees=degrees)
    if needed > cap:
        try:
            text = str(needed)
        except ValueError:  # more digits than int-to-text conversion allows
            text = f"at least 2^{needed.bit_length() - 1}"
        raise ResourceCapExceeded(
            f"window holds {text} candidate monomials; cap is {cap}",
            needed=needed,
            cap=cap,
        )
    return needed


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
    candidates = enumerate_ga_monomials(alg, max_len, degrees=(0, 0), source=u)
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
