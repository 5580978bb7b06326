"""Brute-force centrality oracle over exact scalars.

Independent of the structure theorems: it enumerates every normal-form
monomial inside a bounded window, assembles the exact commutation
constraints [z, g] = 0 against all algebra generators, and solves them by
sparse exact elimination.  Products are normalized in the full algebra, so
the constraints are exact even when they leave the window; "complete within
window" therefore means complete for the candidate span, with no spurious
solutions from clipped products.

Three exact shortcuts trim the assembly: the first two keep it to the
products that can be nonzero, the third keeps both the assembly and the
solve to the columns still alive.

* Peirce restriction.  v·z = z·v for every vertex v exactly when z is
  Peirce-diagonal, so the vertex constraints force every candidate λμ* with
  s(λ) != s(μ) to zero: each such column is a pivot whose reduced row is
  its unit vector, so it is never free and the reduced-echelon nullspace
  basis is the one of the diagonal columns alone.  Only those are listed,
  as kernel keys in window order straight from the window walk, and the
  vertex rows, which cancel on them, are not formed; monomial objects are
  built only for the support of the solved basis.
* Commutator kernel.  λμ*·g and g·λμ* can be nonzero only when the parts
  meet at the junction, and then each appends or strips one edge, so
  `graph_algebra.CommutatorKernel` indexes the candidates by the head and
  the source of each part and reads the row terms of each generator off
  its one-edge rules: λμ*·e needs μ to start with e or to be trivial at
  s(e), and e·λμ* needs s(λ) = r(e).  A ghost edge e* acts through the
  involution: its row terms are those of e on the starred candidates,
  negated, with starred keys, the same rows under another name.  No
  product object is built; the one product that can leave the Leavitt
  basis, e·(r(e))μ* with μ ending in e, goes through `_straighten`.
  `centrality_witness` reads the same kernel, vertices included:
  λμ*·v needs s(μ) = v, and v·λμ* needs s(λ) = v.  It visits only the
  generators that can meet the element's monomials, and records each
  verdict on the element's algebra, so the post-solve recheck, the
  theory's checks and the verifiers compute it once per algebra.
* Dead columns.  The rows are assembled one generator at a time; a row of
  that generator with exactly one nonzero entry {j: c} forces x_j = 0 in
  every solution, so later generators skip column j (no product, no row
  entry).  A column dies only once the whole generator's rows are summed
  and cleaned: the two products of one row entry, m·g and -g·m, can
  cancel.  The unit rows are not kept, and once assembled every other row
  loses its dead entries, earlier generators' rows included; rows left
  empty are dropped, and the solver sees only the live columns, renumbered
  in window order.  That is exact: the unit rows put every e_dead in the
  row space, so the row space is span(e_dead) ⊕ R', R' spanned by the
  stripped rows, and its reduced echelon form is the stripped system's
  form plus those unit rows.  Every dead column is a pivot, the free
  columns are the stripped system's, and the canonical nullspace basis is
  the stripped system's read back through the live list.

`CentralSubspace.candidate_count` is the exact count that `check_window_cap`
(in `graph_algebra`) checks against the cap: every candidate of the window,
diagonal or not.

One solve builds one `Algebra`: the candidate listing and the cap count
take it, and the `CentralSubspace` records it beside its window.  The
verifiers take that subspace and read graph, field and window from it, so
a claim about another algebra raises AmbientError instead of passing.  A
claim built in `subspace.algebra` shares the solve's generator tables.
This module imports nothing from the theory it checks: a claim brings its
own window truncation, which it reads through `OracleWindow.admits`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import AmbientError, InvariantViolation
from .graph import Frozen, Graph
from .graph_algebra import (
    ALGEBRA_KINDS,
    Algebra,
    CommutatorKernel,
    GAElement,
    _V,
    centrality_witness,
    check_window_cap,
    degree_bounds,
    element_vector,
    key_monomial,
    window_pairs,
)
from .linalg import sparse_nullspace
from .scalars import QQ


class OracleWindow(Frozen, namedtuple("OracleWindow", "kind max_len degrees")):
    """Bounded search space: both monomial parts of length <= max_len,
    optionally filtered to a degree window (a pair, or None)."""

    __slots__ = ()

    def __new__(cls, kind, max_len, degrees=None):
        if kind not in ALGEBRA_KINDS:
            raise AmbientError(f"unknown algebra kind {kind!r}")
        if max_len < 0:
            raise AmbientError("window length bound must be >= 0")
        if degrees is not None:
            a, b = degrees
            if a > b:
                raise AmbientError("empty degree window")
            if max(abs(a), abs(b)) > max_len:
                raise AmbientError(
                    "degree filter inconsistent with the length bound"
                )
        return tuple.__new__(cls, (kind, max_len, degrees))

    def admits(self, el) -> bool:
        """Whether every monomial of `el` lies inside the window."""
        lo, hi = degree_bounds(self.max_len, self.degrees)
        return all(m.real.length <= self.max_len and m.ghost.length <= self.max_len
                   and lo <= m.degree <= hi for m in el.coeffs)


class CentralSubspace(namedtuple("CentralSubspace", "basis window algebra "
                                 "candidate_count", defaults=(0,))):
    """The exact central basis of `window`, solved in `algebra`."""

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)


def enumerate_candidates(alg: Algebra, window: OracleWindow):
    """(count, diagonal): the number of the window's candidates in `alg`,
    checked against the resource cap before any is listed, and the
    Peirce-diagonal ones as kernel keys, in window order."""
    count = check_window_cap(alg, window.max_len, window.degrees)
    return count, [(rs, lam, gs, mu) for (rs, _, lam), (gs, _, mu)
                   in window_pairs(alg, window.max_len, window.degrees, diagonal=True)]


def central_subspace(g: Graph, window: OracleWindow, *, field=QQ) -> CentralSubspace:
    """Exact basis of all window elements commuting with every generator."""
    alg = Algebra(window.kind, g, field=field)
    # only Peirce-diagonal candidates can carry weight (see module docstring)
    count, diagonal = enumerate_candidates(alg, window)
    kernel = CommutatorKernel(alg, diagonal)
    rows, dead = [], set()
    for tag, x in alg.generator_symbols:
        if tag == _V:
            continue  # its rows cancel on Peirce-diagonal columns
        # the row of a monomial holds its coefficient in m·g - g·m
        gen_rows = {}
        for j, key, c in kernel.commutator((tag, x), dead):
            row = gen_rows.get(key)
            if row is None:
                gen_rows[key] = {j: c}
                continue
            old = row.get(j)
            row[j] = c if old is None else field.add(old, c)
        # kill columns only once this generator's rows are summed and cleaned
        for row in gen_rows.values():
            if len(row) > 1:
                row = {j: c for j, c in row.items() if c}
            if len(row) > 1:
                rows.append(row)
            elif all(row.values()):
                dead.update(row)
    del kernel
    # solve on the live columns only, renumbered in window order
    live = [j for j in range(len(diagonal)) if j not in dead]
    renumber = {j: i for i, j in enumerate(live)}
    stripped = ({renumber[j]: c for j, c in row.items() if j not in dead}
                for row in rows)
    vectors = sparse_nullspace([row for row in stripped if row], len(live), field)

    basis = tuple(GAElement(alg, {key_monomial(g, diagonal[live[i]]): c
                                  for i, c in vec.items()}) for vec in vectors)
    for el in basis:  # soundness re-check, post-solve
        witness = centrality_witness(el)
        if witness is not None:
            raise InvariantViolation(
                f"oracle solver produced a non-central vector (witness {witness[0]})"
            )
    return CentralSubspace(basis, window, alg, count)


# --- verification of structural claims --------------------------------------


VerificationReport = namedtuple(
    "VerificationReport",
    "ok generator_failures outside_span oracle_dim span_dim notes",
    defaults=((), (), 0, 0, ()))


def verify_structure(claim, subspace: CentralSubspace) -> VerificationReport:
    """Cross-check a structural center claim against the oracle's solved
    `subspace`, in its algebra and window.

    (a) every claimed generator must commute with every algebra generator;
    (b) the oracle's window basis must lie in the span of the claim's
        truncated powers; mismatches are reported with the offending data.

    AmbientError when a claimed generator lives in another algebra.
    """
    alg = subspace.algebra
    failures = []
    for piece in claim.components or (claim,):
        for gen in piece.generators:
            if gen.algebra != alg:
                raise AmbientError("the claim and the oracle's solve are in "
                                   "different algebras")
            witness = centrality_witness(gen)
            if witness is not None:
                failures.append((repr(gen), witness[0]))

    span = claim.span(subspace.window, alg.field)
    outside = []
    for el in subspace.basis:
        if not span.contains(element_vector(el)):
            outside.append(repr(el))
    ok = not failures and not outside
    return VerificationReport(
        ok=ok,
        generator_failures=tuple(failures),
        outside_span=tuple(outside),
        oracle_dim=subspace.dim,
        span_dim=span.dim,
    )
