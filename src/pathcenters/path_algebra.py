"""The path algebra KE with its natural grading.

KE is the span of the real paths inside the Cohn path algebra: the monomials
p·r(p)* with a trivial ghost part.  Its elements are therefore `GAElement`s
of kind PATH, and the product is the shared normal-form engine of
`graph_algebra`, which never leaves that span.
"""

from __future__ import annotations

from .errors import GraphError
from .graph import Graph, Path, all_paths_up_to
from .graph_algebra import GAElement
from .linalg import sparse_nullspace
from .scalars import QQ


class KEElement:
    """A stub: KE elements are `GAElement`s of `Algebra(PATH, graph)`."""

    # perfbench/tracing.py wraps this name; the benchmark change that drops
    # its always-zero metric deletes both
    __mul__ = GAElement.__mul__


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
