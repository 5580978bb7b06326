from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathcenters.linalg import LinearSpan, sparse_nullspace
from pathcenters.scalars import QQ, PrimeField, field_from_characteristic


def test_rational_field_basics():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-1") == Fraction(-1)
    assert QQ.text(Fraction(-7, 3)) == "-7/3"
    assert QQ.coerce(2) == Fraction(2)
    with pytest.raises(ValueError):
        QQ.parse("1.5")  # decimals are never accepted


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.add(5, 4) == 2
    assert f7.inv(3) == 5
    assert f7.div(1, 2) == 4
    assert f7.parse("3/2") == f7.div(3, 2)
    assert f7.coerce(Fraction(1, 2)) == 4
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


def test_field_from_characteristic():
    assert field_from_characteristic(0) == QQ
    assert field_from_characteristic(5) == PrimeField(5)


def test_nullspace_simple():
    # x0 - x1 = 0, x1 - x2 = 0  ->  one-dimensional kernel (1,1,1)
    rows = [{0: QQ.one, 1: -QQ.one}, {1: QQ.one, 2: -QQ.one}]
    basis = sparse_nullspace(rows, 3, QQ)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == vec[1] == vec[2]


def test_nullspace_trivial_and_full():
    rows = [{0: QQ.one}, {1: QQ.one}]
    assert sparse_nullspace(rows, 2, QQ) == []
    assert len(sparse_nullspace([], 3, QQ)) == 3


def test_nullspace_solutions_satisfy_rows():
    rows = [
        {0: Fraction(2), 1: Fraction(1), 3: Fraction(-1)},
        {1: Fraction(3), 2: Fraction(1)},
        {0: Fraction(2), 1: Fraction(4), 2: Fraction(1), 3: Fraction(-1)},
    ]
    basis = sparse_nullspace([dict(r) for r in rows], 4, QQ)
    assert len(basis) == 2
    for vec in basis:
        for row in rows:
            assert sum(row[c] * vec.get(c, Fraction(0)) for c in row) == 0


def test_nullspace_over_prime_field():
    f5 = PrimeField(5)
    rows = [{0: 2, 1: 3}]
    basis = sparse_nullspace(rows, 2, f5)
    assert len(basis) == 1
    vec = basis[0]
    assert (2 * vec.get(0, 0) + 3 * vec.get(1, 0)) % 5 == 0


def test_linear_span_membership():
    span = LinearSpan(QQ)
    assert span.add({0: QQ.one, 1: QQ.one})
    assert not span.add({0: Fraction(2), 1: Fraction(2)})
    assert span.add({1: QQ.one})
    assert span.dim == 2
    assert span.contains({0: Fraction(5)})
    assert not span.contains({2: QQ.one})


def test_prime_field_decides_primality_by_miller_rabin():
    from pathcenters.scalars import _is_prime

    PrimeField(2**61 - 1)  # trial division up to sqrt(p) takes minutes
    # two strong pseudoprimes (to bases 2..7 and 2..23) and a multiple of 3
    for n in (3215031751, 3825123056546413051, 2**61 + 1):
        with pytest.raises(ValueError):
            PrimeField(n)
    with pytest.raises(ValueError):
        PrimeField(318665857834031151167461)  # strong pseudoprime to all twelve bases
    composite = set()
    for d in range(2, 71):
        composite.update(range(d * d, 5000, d))
    assert [n for n in range(2, 5000) if _is_prime(n)] == [
        n for n in range(2, 5000) if n not in composite]


def _exact(values):
    return all(type(v) in (int, Fraction) for v in values)


def test_integral_rationals_are_ints_and_inverses_fractions():
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    assert QQ.coerce(True) == 1 and type(QQ.coerce(True)) is int
    assert QQ.text(QQ.coerce(True)) == "1"
    for value in (QQ.inv(2), QQ.div(1, 2)):
        assert value == Fraction(1, 2) and type(value) is Fraction
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.text(QQ.mul(3, 2)) == QQ.text(Fraction(6)) == "6"
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


MIXED_SCALARS = st.integers(-3, 3) | st.builds(Fraction, st.integers(-3, 3),
                                               st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.dictionaries(st.integers(0, 4), MIXED_SCALARS, max_size=4),
                     max_size=5))
def test_mixed_int_and_fraction_systems_solve_exactly(rows):
    """Rows mixing ints and Fractions give no float and the same answers as
    the all-Fraction system."""
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    as_fractions = [{c: Fraction(v) for c, v in row.items()} for row in rows]
    basis = sparse_nullspace([dict(r) for r in rows], 5, QQ)
    assert basis == sparse_nullspace(as_fractions, 5, QQ)
    assert _exact(v for vec in basis for v in vec.values())
    span, fraction_span = LinearSpan(QQ), LinearSpan(QQ)
    for row, fractions in zip(rows, as_fractions):
        assert span.add(row) == fraction_span.add(fractions)
    assert span.dim == fraction_span.dim
    assert _exact(v for row in span._pivots.values() for v in row.values())
    for vec in basis:
        residue = span.residue(vec)
        assert residue == fraction_span.residue(vec) and _exact(residue.values())
