"""Sparse exact Gaussian elimination over an abstract field.

Rows are dicts mapping a column key to a nonzero scalar.  Pivoting always
selects the minimal remaining key, so echelon forms, nullspace bases and
span membership are deterministic and canonical.
"""

from __future__ import annotations


def _reduce_against(row, pivots, field):
    """Reduce `row` (mutated copy expected) against normalized pivot rows."""
    while row:
        j = min(row)
        pivot_row = pivots.get(j)
        if pivot_row is None:
            return row, j
        k = row.pop(j)
        for c, v in pivot_row.items():
            if c == j:
                continue
            nv = field.sub(row.get(c, field.zero), field.mul(k, v))
            if not nv:
                row.pop(c, None)
            else:
                row[c] = nv
    return row, None


def _normalize(row, j, field):
    lead = row[j]
    if lead != field.one:
        inv = field.inv(lead)
        for c in list(row):
            row[c] = field.mul(row[c], inv)
    return row


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
        row, j = _reduce_against(dict(vec), self._pivots, self.field)
        if not row:
            return False
        self._pivots[j] = _normalize(row, j, self.field)
        return True


def sparse_nullspace(rows, ncols, field):
    """Canonical basis of the solution space of the homogeneous system.

    `rows` is an iterable of sparse rows over integer columns 0..ncols-1.
    The returned basis vectors are the reduced-echelon ones: each has a 1 at
    its free column and is supported on that column plus pivot columns.
    """
    pivots = {}
    for raw in rows:
        row, j = _reduce_against(dict(raw), pivots, field)
        if row:
            pivots[j] = _normalize(row, j, field)

    # Back-substitute in descending pivot order; afterwards every pivot row
    # is supported on its pivot and free columns only.
    for j in sorted(pivots, reverse=True):
        row = pivots[j]
        for c in sorted(k for k in row if k != j and k in pivots):
            k = row.pop(c, None)
            if k is None:
                continue
            for cc, vv in pivots[c].items():
                if cc == c:
                    continue
                nv = field.sub(row.get(cc, field.zero), field.mul(k, vv))
                if not nv:
                    row.pop(cc, None)
                else:
                    row[cc] = nv

    free_cols = [c for c in range(ncols) if c not in pivots]
    entries_at = {c: [] for c in free_cols}
    for j, row in pivots.items():
        for c, v in row.items():
            if c != j:
                entries_at[c].append((j, v))

    basis = []
    for f in free_cols:
        vec = {f: field.one}
        for j, v in entries_at[f]:
            vec[j] = field.neg(v)
        basis.append(vec)
    return basis
