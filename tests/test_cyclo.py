"""Exact cyclotomic integer and rational arithmetic."""
import cmath
import math
import random
from fractions import Fraction

import pytest

from ffe.cyclo import (
    ConductorError,
    CyclotomicInt,
    CyclotomicRat,
    cyclotomic_reduce,
    phi_degree,
)

from exact_oracles import regular_matrix


def random_int(d, rng, span=9):
    return CyclotomicInt(d, [rng.randrange(-span, span + 1) for _ in range(phi_degree(d))])


class TestReduction:
    def test_root_of_unity_sum_vanishes(self):
        assert cyclotomic_reduce(3, [1, 1, 1]).is_zero()
        assert cyclotomic_reduce(5, [1, 1, 1, 1, 1]).is_zero()

    def test_primitive_sixth_root_cube(self):
        # omega_6^3 = -1
        assert cyclotomic_reduce(6, [0, 0, 0, 1]) == CyclotomicInt.from_int(6, -1)

    def test_exponent_folding(self):
        for d in (3, 4, 6, 12):
            assert CyclotomicInt.root_power(d, d + 2) == CyclotomicInt.root_power(d, 2)

    def test_unsupported_conductor(self):
        with pytest.raises(ConductorError):
            CyclotomicInt.zero(13)

    def test_numeric_embedding(self):
        rng = random.Random(0)
        for d in range(2, 13):
            omega = cmath.exp(2j * cmath.pi / d)
            for _ in range(20):
                raw = [rng.randrange(-5, 6) for _ in range(2 * d)]
                exact = cyclotomic_reduce(d, raw).to_complex()
                direct = sum(c * omega**e for e, c in enumerate(raw))
                assert abs(exact - direct) < 1e-9


class TestIntArithmetic:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 12])
    def test_ring_laws_match_numeric(self, d):
        rng = random.Random(d)
        omega = cmath.exp(2j * cmath.pi / d)
        for _ in range(25):
            a, b = random_int(d, rng), random_int(d, rng)
            for exact, numeric in [
                (a + b, a.to_complex() + b.to_complex()),
                (a - b, a.to_complex() - b.to_complex()),
                (a * b, a.to_complex() * b.to_complex()),
                (-a, -a.to_complex()),
            ]:
                assert abs(exact.to_complex() - numeric) < 1e-8

    def test_conjugation(self):
        rng = random.Random(1)
        for d in (3, 5, 6, 8, 12):
            for _ in range(10):
                a = random_int(d, rng)
                assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9

    def test_integer_detection(self):
        assert CyclotomicInt.from_int(5, 7).integer_value() == 7
        root = CyclotomicInt.root_power(5, 1)
        assert not root.is_integer()
        with pytest.raises(ValueError):
            root.integer_value()

    def test_scalar_multiplication(self):
        a = CyclotomicInt.root_power(7, 3)
        assert 3 * a == a + a + a

    def test_exponent_counts(self):
        counts = [2, 0, 1, 0, 0, 1]
        a = CyclotomicInt.from_exponent_counts(6, counts)
        expect = (
            2 * CyclotomicInt.root_power(6, 0)
            + CyclotomicInt.root_power(6, 2)
            + CyclotomicInt.root_power(6, 5)
        )
        assert a == expect


def solve_fractions(matrix, rhs):
    """Solution of a nonsingular rational system by Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


class TestRatField:
    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 12])
    def test_inverse(self, d):
        # every nonzero element is invertible in Q(omega_d): the inverse
        # solved from the test-side regular representation (the one the
        # exact rank oracle expands into) is one under the library product
        rng = random.Random(d)
        one = CyclotomicRat.one(d)
        for _ in range(15):
            a = CyclotomicRat(random_int(d, rng), rng.randrange(1, 7))
            if a.is_zero():
                continue
            matrix = regular_matrix(d, dict(enumerate(a.num.coeffs)))
            u = solve_fractions(matrix, [1] + [0] * (phi_degree(d) - 1))
            den = math.lcm(*(c.denominator for c in u))
            inv = CyclotomicRat(CyclotomicInt(d, [int(c * den) for c in u]) * a.den, den)
            assert a * inv == one

    def test_normalization(self):
        a = CyclotomicRat(CyclotomicInt.from_int(6, 4), 6)
        assert a == CyclotomicRat(CyclotomicInt.from_int(6, 2), 3)
        assert a.as_fraction().numerator == 2 and a.as_fraction().denominator == 3

    def test_field_laws_numeric(self):
        rng = random.Random(2)
        d = 5
        for _ in range(20):
            a = CyclotomicRat(random_int(d, rng), rng.randrange(1, 5))
            b = CyclotomicRat(random_int(d, rng), rng.randrange(1, 5))
            assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9
            assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-8

    def test_from_fraction(self):
        a = CyclotomicRat.from_fraction(4, Fraction(3, 8))
        assert a.as_fraction() == Fraction(3, 8)
