"""Sparse exact Gaussian elimination over an abstract field.

Rows are dicts mapping a column key to a nonzero scalar.  Pivoting always
selects the minimal remaining key, so echelon forms, nullspace bases and
span membership are deterministic and canonical.  One subtraction step and
one insert serve both `LinearSpan` and `sparse_nullspace`; an insert only
reduces the new row, and the solver back-substitutes once at the end.
"""

from __future__ import annotations


def _subtract(row, k, pivot_row, j, field):
    """row -= k·pivot_row on every column but the pivot j (already popped)."""
    for c, v in pivot_row.items():
        if c != j:
            nv = field.sub(row.get(c, field.zero), field.mul(k, v))
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)


def _reduce_against(row, pivots, field):
    """Reduce `row` (mutated copy expected) against normalized pivot rows."""
    while row:
        j = min(row)
        pivot_row = pivots.get(j)
        if pivot_row is None:
            return row, j
        _subtract(row, row.pop(j), pivot_row, j, field)
    return row, None


def _insert(pivots, vec, field):
    """Reduce `vec` against `pivots` and store it, normalized, under its
    leading column; returns True when it was independent of them."""
    row, j = _reduce_against(dict(vec), pivots, field)
    if not row:
        return False
    lead = row[j]
    if lead != field.one:
        inv = field.inv(lead)
        for c in row:
            row[c] = field.mul(row[c], inv)
    pivots[j] = row
    return True


class LinearSpan:
    """Incrementally built subspace with exact membership queries."""

    def __init__(self, field):
        self.field = field
        self._pivots = {}

    @property
    def dim(self):
        return len(self._pivots)

    def residue(self, vec):
        row, _ = _reduce_against(dict(vec), self._pivots, self.field)
        return row

    def contains(self, vec):
        return not self.residue(vec)

    def add(self, vec):
        """Insert a vector; returns True when it enlarged the span."""
        return _insert(self._pivots, vec, self.field)


def sparse_nullspace(rows, ncols, field):
    """Canonical basis of the solution space of the homogeneous system.

    `rows` is an iterable of sparse rows over integer columns 0..ncols-1.
    The returned basis vectors are the reduced-echelon ones: each has a 1 at
    its free column and is supported on that column plus pivot columns.
    """
    pivots = {}
    for raw in rows:
        _insert(pivots, raw, field)

    # Back-substitute in descending pivot order.  A later pivot row is then
    # supported on its pivot and free columns only, so clearing one pivot
    # column from a row never brings back another.
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        for c in sorted(k for k in row if k != j and k in pivots):
            _subtract(row, row.pop(c), pivots[c], c, field)

    basis = {c: {c: field.one} for c in range(ncols) if c not in pivots}
    for j, row in pivots.items():
        for c, v in row.items():
            if c != j:
                basis[c][j] = field.neg(v)
    return list(basis.values())
