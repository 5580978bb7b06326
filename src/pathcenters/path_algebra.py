"""The path algebra KE with its natural grading.

KE is the span of the real paths inside the Cohn path algebra: the monomials
p·r(p)* with a trivial ghost part.  Its elements are therefore `GAElement`s
of kind PATH, and the product is the shared normal-form engine of
`graph_algebra`, which never leaves that span.
"""

from __future__ import annotations

from .graph_algebra import GAElement


class KEElement:
    """A stub: KE elements are `GAElement`s of `Algebra(PATH, graph)`."""

    # perfbench/tracing.py wraps this name; the benchmark change that drops
    # its always-zero metric deletes both
    __mul__ = GAElement.__mul__

