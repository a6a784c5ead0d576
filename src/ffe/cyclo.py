"""Exact arithmetic in Z[omega_d] and Q(omega_d) for conductors d <= 12.

Elements are integer polynomials in omega reduced modulo the d-th cyclotomic
polynomial, so equality is exact and hashing is well defined.  CyclotomicRat
is a CyclotomicInt over a positive integer denominator, with addition and
multiplication only: nothing in the package divides by a cyclotomic element.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .ring import Value

# d-th cyclotomic polynomial, ascending coefficients, monic of degree phi(d).
CYCLOTOMIC_POLY = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    11: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    12: (1, 0, -1, 0, 1),
}


class ConductorError(ValueError):
    """Conductor outside the supported table."""


def phi_degree(d):
    if d not in CYCLOTOMIC_POLY:
        raise ConductorError(f"unsupported conductor {d}")
    return len(CYCLOTOMIC_POLY[d]) - 1


@lru_cache(maxsize=None)
def _power_table(d):
    """Reduced coefficient vectors of omega^k for k = 0 .. max(d-1, 2*phi-2)."""
    phi = phi_degree(d)
    poly = CYCLOTOMIC_POLY[d]
    top = max(d - 1, 2 * phi - 2)
    rows = []
    for k in range(top + 1):
        if k < phi:
            rows.append(tuple(1 if j == k else 0 for j in range(phi)))
        else:
            # omega^k = omega * omega^(k-1); shift then fold the overflow term
            # using omega^phi = -(poly[0] + poly[1] omega + ...).
            prev = rows[k - 1]
            shifted = [0] + list(prev[:-1])
            carry = prev[-1]
            rows.append(
                tuple(shifted[j] - carry * poly[j] for j in range(phi))
            )
    return tuple(rows)


def mul_coeffs(d, a, b):
    """Product of two reduced Z[omega_d] coefficient sequences, as a list."""
    phi = len(a)
    raw = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
    table = _power_table(d)
    out = raw[:phi]
    for k in range(phi, 2 * phi - 1):
        c = raw[k]
        if c:
            row = table[k]
            for j in range(phi):
                out[j] += c * row[j]
    return out


class CyclotomicInt(Value):
    """Element of Z[omega_d] as a reduced integer coefficient vector."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs):
        phi = phi_degree(d)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"expected {phi} coefficients, got {len(coeffs)}")
        self._set(d, coeffs)

    @classmethod
    def zero(cls, d):
        return cls(d, (0,) * phi_degree(d))

    @classmethod
    def from_int(cls, d, value):
        return cls(d, (value,) + (0,) * (phi_degree(d) - 1))

    @classmethod
    def root_power(cls, d, k):
        return cls(d, _power_table(d)[k % d])

    @classmethod
    def from_exponent_counts(cls, d, counts):
        """Sum_e counts[e] * omega^e for a length-d count vector."""
        table = _power_table(d)
        phi = phi_degree(d)
        out = [0] * phi
        for e, c in enumerate(counts):
            if c:
                row = table[e % d]
                for j in range(phi):
                    out[j] += c * row[j]
        return cls(d, out)

    def _check(self, other):
        if self.d != other.d:
            raise ValueError("conductor mismatch")

    def __add__(self, other):
        self._check(other)
        return CyclotomicInt(self.d, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CyclotomicInt(self.d, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicInt(self.d, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.d, [other * a for a in self.coeffs])
        self._check(other)
        return CyclotomicInt(self.d, mul_coeffs(self.d, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def conjugate(self):
        """Image under omega -> omega^(-1) (complex conjugation)."""
        out = CyclotomicInt.zero(self.d)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + c * CyclotomicInt.root_power(self.d, -j)
        return out

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_integer(self):
        return all(c == 0 for c in self.coeffs[1:])

    def integer_value(self):
        if not self.is_integer():
            raise ValueError(f"not a rational integer: {self}")
        return self.coeffs[0]

    def to_complex(self):
        omega = cmath.exp(2j * cmath.pi / self.d)
        return sum(c * omega**j for j, c in enumerate(self.coeffs))


def cyclotomic_reduce(d, raw_coeffs):
    """Reduce an arbitrary-degree integer polynomial in omega_d.

    Exponents are folded mod d first (omega^d = 1), then reduced modulo the
    cyclotomic polynomial.
    """
    counts = [0] * d
    for e, c in enumerate(raw_coeffs):
        counts[e % d] += c
    return CyclotomicInt.from_exponent_counts(d, counts)


class CyclotomicRat(Value):
    """Element of Q(omega_d): CyclotomicInt numerator over a positive int."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            raise TypeError("numerator must be a CyclotomicInt")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(den, *[abs(c) for c in num.coeffs]) or 1
        self._set(CyclotomicInt(num.d, [c // g for c in num.coeffs]), den // g)

    @property
    def d(self):
        return self.num.d

    @classmethod
    def zero(cls, d):
        return cls(CyclotomicInt.zero(d))

    @classmethod
    def one(cls, d):
        return cls(CyclotomicInt.from_int(d, 1))

    @classmethod
    def from_fraction(cls, d, frac):
        frac = Fraction(frac)
        return cls(CyclotomicInt.from_int(d, frac.numerator), frac.denominator)

    def __add__(self, other):
        return CyclotomicRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return CyclotomicRat(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return CyclotomicRat(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicRat(self.num * other, self.den)
        return CyclotomicRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self):
        return self.num.is_zero()

    def as_fraction(self):
        return Fraction(self.num.integer_value(), self.den)

    def to_complex(self):
        return self.num.to_complex() / self.den

    def __repr__(self):
        return f"CyclotomicRat({self.num!r}, {self.den})"
