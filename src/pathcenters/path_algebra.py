"""The path algebra KE with its natural grading.

KE is the span of the real paths inside the Cohn path algebra: the monomials
p·r(p)* with a trivial ghost part.  Its elements are therefore `GAElement`s
of kind PATH, and the product is the shared normal-form engine of
`graph_algebra`, which never leaves that span.
"""

from __future__ import annotations

from .errors import GraphError
from .graph import Graph, Path, all_paths_up_to
from .graph_algebra import PATH, Algebra, GAElement, GMonomial
from .linalg import sparse_nullspace
from .scalars import QQ


class KEElement:
    """Constructors of KE elements, each a `GAElement` of kind PATH."""

    # KE has no product of its own; the name stays on this class for code
    # that looks the KE product up here.
    __mul__ = GAElement.__mul__

    @staticmethod
    def zero(graph, field=QQ):
        return Algebra(PATH, graph, field=field).zero()

    @staticmethod
    def from_path(graph, path: Path, coeff=1, field=QQ):
        m = GMonomial(path, Path.vertex(graph, path.target))
        return Algebra(PATH, graph, field=field).monomial(m, coeff)

    @staticmethod
    def vertex(graph, v, coeff=1, field=QQ):
        return KEElement.from_path(graph, Path.vertex(graph, v), coeff, field)

    @staticmethod
    def one(graph, field=QQ):
        return Algebra(PATH, graph, field=field).one()


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
