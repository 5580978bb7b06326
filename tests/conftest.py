import pathlib
from functools import cached_property
from unittest.mock import patch

import pytest

from pathcenters import Graph, graph_algebra, oracle
from pathcenters.graph_algebra import (
    Algebra,
    CommutatorKernel,
    key_monomial,
    mul_monomials,
)
from pathcenters.linalg import sparse_nullspace

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / f"{name}.graph"


def two_loops() -> Graph:
    return Graph.build(["u1", "u2"], [("c", "u1", "u1"), ("d", "u2", "u2")])


def feeder_loop() -> Graph:
    # u -> v plus an exit-free loop at v
    return Graph.build(["u", "v"], [("f", "u", "v"), ("c", "v", "v")])


def cycle_feeds_loop() -> Graph:
    # loop-with-exit d at u feeding the exit-free loop c at v
    return Graph.build(
        ["u", "v"],
        [("d", "u", "u"), ("g", "u", "v"), ("c", "v", "v")],
    )


def fork_sink_loop() -> Graph:
    # u feeds both a sink w and an exit-free loop at v
    return Graph.build(
        ["u", "v", "w"],
        [("f", "u", "v"), ("g", "u", "w"), ("c", "v", "v")],
    )


def solver_calls(g, window, field):
    """`oracle.central_subspace`'s result and the (rows, ncols) of every
    system its solver received."""
    calls = []

    def recording(rows, ncols, field):
        rows = list(rows)
        calls.append((rows, ncols))
        return sparse_nullspace(rows, ncols, field)

    with patch.object(oracle, "sparse_nullspace", recording):
        sub = oracle.central_subspace(g, window, field=field)
    return sub, calls


def raw_key(m):
    """A monomial as the commutator kernel's raw key."""
    return (m.real.source, m.real.edges, m.ghost.source, m.ghost.edges)


def product_by_mul_monomials(alg, m, symbol, side):
    """m·g ("right") or -g·m ("left") for the generator with this raw
    symbol, formed by `mul_monomials` and read as raw keys."""
    (_, gel), = [gen for gen, s in zip(alg.generators, alg.generator_symbols)
                 if s == symbol]
    (gmon,) = gel.coeffs
    one = alg.field.one
    out = (mul_monomials(alg, m, gmon, one) if side == "right"
           else mul_monomials(alg, gmon, m, alg.field.neg(one)))
    return {raw_key(rm): c for rm, c in out.items()}


def record_kernel_products(monkeypatch, *modules):
    """Swap a recording commutator kernel into `modules`.  Every product it
    forms, one per (column, side) of a generator, is appended to the
    returned list as (algebra, column monomial, symbol, side, terms), the
    terms a dict of raw keys to coefficients."""
    products = []

    class Recording(CommutatorKernel):
        __slots__ = ()

        def _recorded(self, terms, symbol, side):
            terms = list(terms)
            by_column = {}
            for j, key, c in terms:
                by_column.setdefault(j, {})[key] = c
            for j, got in by_column.items():
                m = key_monomial(self.alg.graph, self.raw[j])
                products.append((self.alg, m, symbol, side, got))
            return iter(terms)

        def right(self, symbol, skip=()):
            return self._recorded(super().right(symbol, skip), symbol, "right")

        def left(self, symbol, skip=()):
            return self._recorded(super().left(symbol, skip), symbol, "left")

    for module in modules:
        monkeypatch.setattr(module, "CommutatorKernel", Recording)
    return products


def count_witness_kernels(monkeypatch):
    """Swap a counting commutator kernel into `graph_algebra`, where only
    `centrality_witness` builds one: the list of the algebras it was built
    in, one entry per verdict computed."""
    built = []

    class Counting(graph_algebra.CommutatorKernel):
        __slots__ = ()

        def __init__(self, alg, cols):
            built.append(alg)
            super().__init__(alg, cols)

    monkeypatch.setattr(graph_algebra, "CommutatorKernel", Counting)
    return built


def formed_only_nonzero_products(products):
    """Each recorded product is the nonzero one `mul_monomials` forms."""
    return all(terms and terms == product_by_mul_monomials(alg, m, symbol, side)
               for alg, m, symbol, side, terms in products)


def record_algebra_builds(monkeypatch):
    """Record every `Algebra` constructed and every generator table built:
    the returned dict lists the algebras under "algebras", and the ones that
    built their tables under "generator_symbols" and "generators"."""
    built = {"algebras": [], "generator_symbols": [], "generators": []}
    new = Algebra.__new__

    def counted_new(cls, *args, **kwargs):
        alg = new(cls, *args, **kwargs)
        built["algebras"].append(alg)
        return alg

    monkeypatch.setattr(Algebra, "__new__", counted_new)
    for name in ("generator_symbols", "generators"):
        def counted(alg, build=vars(Algebra)[name].func, name=name):
            built[name].append(alg)
            return build(alg)

        prop = cached_property(counted)
        prop.__set_name__(Algebra, name)
        monkeypatch.setattr(Algebra, name, prop)
    return built
