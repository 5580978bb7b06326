"""Exact scalar arithmetic: rationals by default, a prime field on request.

All equalities between scalars are decidable and exact; nothing in this
package ever touches floating point.  A field object bundles the operations;
the scalar values themselves are plain hashable Python objects so they can
live in coefficient dicts: a rational is an int when it is integral (the
field's zero, one and coerced ints, and the sums and products of ints),
otherwise a Fraction, and inversion and division always build a Fraction,
so no value is ever a float; an element of F_p is a small int.  Either way
a scalar is zero exactly when it is falsy, and the hot loops test it that
way.
"""

from __future__ import annotations

from fractions import Fraction

# The first twelve primes as Miller-Rabin bases decide primality exactly for
# every n below the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n < _MR_LIMIT."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of exact rationals with arbitrary-precision arithmetic."""

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)  # a bool becomes 0 or 1
        if isinstance(x, Fraction):
            return x
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1, a)

    def div(self, a, b):
        return Fraction(a, b)

    def text(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """The prime field F_p; elements are canonical ints in [0, p)."""

    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise ValueError(f"modulus {p} is too large to prove prime; "
                             f"the limit is {_MR_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def text(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_from_characteristic(char: int):
    """Field for a session: characteristic 0 gives the rationals."""
    return QQ if char == 0 else PrimeField(char)
