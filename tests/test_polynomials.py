"""Polynomial normal forms, enumeration, decision procedure, hypergraphs."""
import itertools
import math
import random

import numpy as np
import pytest

from ffe.classify import special_function
from ffe.polynomials import (
    EnumerationTooLarge,
    Polynomial,
    PolynomialParseError,
    admissible_monomials,
    composite_degree,
    count_polynomial_functions,
    enumerate_polynomial_blocks,
    enumerate_polynomial_functions,
    is_polynomial,
    monomial_gate_list,
    parse_polynomial,
    poly_to_teh,
    teh_to_poly,
)
from ffe.ring import ArityError, FiniteFunction, prime_power_factors

import exact_oracles


class TestCompositeDegree:
    def test_small_exponents_are_free(self):
        assert composite_degree(2, 2, 0) == 0
        assert composite_degree(2, 2, 1) == 0

    def test_first_factorial_step(self):
        assert composite_degree(2, 2, 2) == 1
        assert composite_degree(2, 2, 3) == 1

    def test_e4_excluded_at_d4(self):
        # nu_2(4!) = nu_2(24) = 3 >= m = 2, so x^4 is inadmissible
        assert composite_degree(2, 2, 4) == 3
        exps = {e for (e,), _ in admissible_monomials(2, 2, 1)}
        assert 4 not in exps and exps == {0, 1, 2, 3}

    def test_prime_case_degree_cap(self):
        exps = {e for (e,), _ in admissible_monomials(3, 1, 1)}
        assert exps == {0, 1, 2}


class TestAdmissibleMonomials:
    def test_d4_bivariate_counts(self):
        mods = {}
        for exps, modulus in admissible_monomials(2, 2, 2):
            mods.setdefault(modulus, []).append(exps)
        assert len(mods[4]) == 4  # exponents in {0,1}^2
        assert all(max(e) <= 1 for e in mods[4])
        assert len(mods[2]) == 8
        assert 4**4 * 2**8 == 65536

    def test_d3_bivariate(self):
        entries = admissible_monomials(3, 1, 2)
        assert len(entries) == 9
        assert all(modulus == 3 for _, modulus in entries)

    def test_d2_bivariate(self):
        entries = admissible_monomials(2, 1, 2)
        assert len(entries) == 4


class TestEnumeration:
    @pytest.mark.parametrize("d,n,count", [(2, 1, 4), (2, 2, 16), (3, 2, 19683), (4, 2, 65536)])
    def test_counts_and_distinctness(self, d, n, count):
        seen = set()
        for poly, func in enumerate_polynomial_functions(d, n):
            assert poly.to_function() == func
            seen.add(func.values)
        assert len(seen) == count
        assert count_polynomial_functions(d, n) == count

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 1), (4, 1), (6, 1), (12, 1), (2, 3)])
    def test_pairs_equal_validated_construction(self, d, n):
        # the enumeration builds both without the public constructors' checks
        for poly, func in enumerate_polynomial_functions(d, n):
            rebuilt = Polynomial(d, n, poly.terms)
            assert poly == rebuilt and hash(poly) == hash(rebuilt)
            assert poly.to_text() == rebuilt.to_text()
            assert func == FiniteFunction(d, n, func.values)

    def test_d2_n1_functions(self):
        images = {f.values for _, f in enumerate_polynomial_functions(2, 1)}
        assert images == {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_budget_rejected(self):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_polynomial_functions(8, 2))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_constant_free_blocks_are_the_zero_constant_rows(self, d):
        # the constant varies slowest, so the rows split into d equal runs,
        # one per constant c: the zero-constant run with its constant set to
        # c and its images shifted by c.  The dephased index lists only the
        # constant-free forms for this reason.
        blocks = list(enumerate_polynomial_blocks(d, 2, chunk=5000))
        assert all(len(coeffs) <= 5000 for _, coeffs, _ in blocks)
        coeffs, images = (np.concatenate([b[i] for b in blocks]) for i in (1, 2))
        assert len(coeffs) == count_polynomial_functions(d, 2)
        coeffs, images = coeffs.reshape(d, -1, coeffs.shape[1]), images.reshape(d, -1, d * d)
        constants = coeffs[:, 0, 0]
        assert constants[0] == 0 and sorted(constants.tolist()) == list(range(d))
        for run, c in zip(range(d), constants):
            assert (coeffs[run, :, 0] == c).all()
            assert np.array_equal(coeffs[run, :, 1:], coeffs[0, :, 1:])
            assert np.array_equal(images[run], (images[0] + c) % d)

    @pytest.mark.parametrize("d", [4, 6])
    def test_block_texts_match_to_text(self, d):
        # the rendering of the block-dephasing oracle for the polynomial index
        monomials, coeffs, _ = next(enumerate_polynomial_blocks(d, 2, chunk=3000))
        expected = [
            Polynomial(d, 2, dict(zip(monomials, row))).to_text()
            for row in coeffs.tolist()
        ]
        assert exact_oracles.block_texts(d, monomials, coeffs) == expected
        assert expected[0] == "0"

    def test_d6_count(self):
        assert count_polynomial_functions(6, 2) == 2**4 * 3**9 == 314928


class TestParse:
    def test_simple(self):
        p = parse_polynomial("x^2*y + 3*x*y", 4, 2)
        assert p.terms == {(2, 1): 1, (1, 1): 3}

    def test_whitespace_and_merge(self):
        p = parse_polynomial(" x*y + x * y ", 3, 2)
        assert p.terms == {(1, 1): 2}

    def test_numbered_variables(self):
        p = parse_polynomial("x1*x2^2", 3, 2)
        assert p.terms == {(1, 2): 1}

    def test_errors(self):
        for bad in ["", "x+", "z*y", "x^y", "x^"]:
            with pytest.raises(PolynomialParseError):
                parse_polynomial(bad, 3, 2)

    def test_numbers_past_the_int_digit_limit(self):
        # int() refuses more than 4300 digits; a coefficient is read mod d
        # and an exponent exactly
        p = parse_polynomial("9" * 5000 + "*x + x^" + "1" * 5000, 7, 1)
        assert p.terms == {(1,): (pow(10, 5000, 7) - 1) % 7, ((10**5000 - 1) // 9,): 1}

    def test_non_decimal_digits_are_not_numbers(self):
        # '²' is a digit to str.isdigit, but int() does not read it
        for bad in ["2²*x", "x^²"]:
            with pytest.raises(PolynomialParseError):
                parse_polynomial(bad, 3, 1)

    @pytest.mark.parametrize("d, n", [(0, 2), (1, 2), (-2, 2), (13, 2), (3, 0), (3, 5)])
    def test_shape_checked_before_parsing(self, d, n):
        # the shape is checked before any coefficient is reduced mod d
        with pytest.raises(ArityError):
            parse_polynomial("x", d, n)

    def test_text_round_trip(self):
        rng = random.Random(7)
        for _ in range(30):
            terms = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(1, 5)
                for _ in range(rng.randrange(1, 4))
            }
            p = Polynomial(5, 2, terms)
            assert parse_polynomial(p.to_text(), 5, 2) == p


class TestIsPolynomial:
    def test_monomial(self):
        f = FiniteFunction.from_callable(6, 2, lambda x: x[0] * x[1] % 6)
        p = is_polynomial(f)
        assert p is not None and p.constant_free().to_text() == "x*y"

    def test_s6_not_polynomial(self):
        assert is_polynomial(special_function("s6_fixture", 6)) is None

    def test_f32_not_polynomial(self):
        assert is_polynomial(special_function("f32_fixture", 6)) is None

    def test_d4_n1_against_enumeration_oracle(self):
        poly_images = {f.values for _, f in enumerate_polynomial_functions(4, 1)}
        for vals in itertools.product(range(4), repeat=4):
            f = FiniteFunction(4, 1, vals)
            decided = is_polynomial(f)
            assert (decided is not None) == (vals in poly_images)
            if decided is not None:
                assert decided.to_function() == f

    def test_normal_form_is_canonical_d6(self):
        # the recovered polynomial of an enumerated image must be the
        # enumerated normal form itself; every 1024th of the 314,928 rows
        offset = 0
        for monomials, coeffs, images in enumerate_polynomial_blocks(6, 2):
            for k in range(-offset % 1024, len(coeffs), 1024):
                poly = Polynomial(6, 2, dict(zip(monomials, coeffs[k].tolist())))
                assert is_polynomial(FiniteFunction(6, 2, images[k].tolist())) == poly
            offset += len(coeffs)
        assert offset == 314928

    def test_prime_d_every_function_is_polynomial(self):
        for vals in itertools.product(range(2), repeat=4):
            assert is_polynomial(FiniteFunction(2, 2, vals)) is not None
        rng = random.Random(9)
        for _ in range(50):
            f = FiniteFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            p = is_polynomial(f)
            assert p is not None and p.to_function() == f


def _enumerated_normal_forms(d, n):
    """Image values -> (monomials, coefficients) of the normal form, from the
    enumeration alone."""
    forms = {}
    for monomials, coeffs, images in enumerate_polynomial_blocks(d, n):
        for row, image in zip(coeffs.tolist(), images.tolist()):
            forms[tuple(image)] = (monomials, row)
    return forms


class TestDecisionAgainstEnumeration:
    """is_polynomial against the enumerated images and normal forms, which
    share no code with the finite-difference decision."""

    def _check(self, forms, d, n, values):
        decided = is_polynomial(FiniteFunction(d, n, values))
        assert (decided is not None) == (tuple(values) in forms)
        if decided is not None:
            monomials, row = forms[tuple(values)]
            assert decided == Polynomial(d, n, dict(zip(monomials, row)))

    def test_every_function_d2_n3(self):
        forms = _enumerated_normal_forms(2, 3)
        assert len(forms) == 256
        for values in itertools.product(range(2), repeat=8):
            self._check(forms, 2, 3, values)

    @pytest.mark.parametrize("d,n", [(6, 1), (8, 1), (9, 1), (4, 2)])
    def test_sampled_images_and_one_point_perturbations(self, d, n):
        forms = _enumerated_normal_forms(d, n)
        assert len(forms) == count_polynomial_functions(d, n)
        rng = random.Random(d * 10 + n)
        images = rng.sample(sorted(forms), 60)
        perturbed = 0
        for image in images:
            self._check(forms, d, n, list(image))
            moved = list(image)
            at = rng.randrange(len(moved))
            moved[at] = (moved[at] + rng.randrange(1, d)) % d
            perturbed += tuple(moved) not in forms
            self._check(forms, d, n, moved)
        assert perturbed > 0

    @pytest.mark.parametrize("d,n", [(2, 3), (5, 2), (6, 2), (8, 1), (12, 2), (7, 3)])
    def test_to_function_matches_scalar_evaluate(self, d, n):
        # exponents run past d, where x^e mod d repeats with a preperiod
        rng = random.Random(d + n)
        for _ in range(20):
            terms = {
                tuple(rng.randrange(3 * d) for _ in range(n)): rng.randrange(d)
                for _ in range(rng.randrange(0, 12))
            }
            poly = Polynomial(d, n, terms)
            assert poly.to_function() == FiniteFunction.from_callable(d, n, poly.evaluate)


def _within_bounds(poly):
    """Whether every coefficient, read mod each prime power q = p^m of d, is
    below the modulus admissible_monomials gives its exponents (1, so zero,
    where they are not admissible mod q)."""
    for p, m in prime_power_factors(poly.d):
        moduli = dict(admissible_monomials(p, m, poly.n))
        if any(c % p**m >= moduli.get(e, 1) for e, c in poly.terms.items()):
            return False
    return True


class TestNormalFormBeyondEnumeration:
    """Past the enumeration budget: a polynomial that evaluates to f with
    every coefficient within its admissible_monomials bounds is the unique
    normal form of f, an oracle that shares no code with the decision.  The
    shapes hold every prime power p^m <= 12 with m >= 2."""

    @pytest.mark.parametrize("d,n", [(8, 2), (9, 2), (12, 2), (8, 3), (9, 3), (4, 4)])
    def test_random_polynomials_and_unit_perturbations(self, d, n):
        rng = random.Random(100 * d + n)
        units = [u for u in range(1, d) if math.gcd(u, d) == 1]
        for _ in range(15):
            terms = {
                tuple(rng.randrange(3 * d + 1) for _ in range(n)): rng.randrange(d)
                for _ in range(rng.randrange(1, 16))
            }
            f = Polynomial(d, n, terms).to_function()
            decided = is_polynomial(f)
            assert decided is not None and decided.to_function() == f
            assert _within_bounds(decided)
            # u * 1_{x0} is no polynomial function: for a prime p | d, p < d,
            # a polynomial keeps its value mod p under x -> x + p e_1, where
            # the indicator goes from u, a unit, to 0
            moved = list(f.values)
            moved[rng.randrange(len(moved))] += rng.choice(units)
            assert is_polynomial(FiniteFunction(d, n, moved)) is None


class TestHypergraph:
    def test_single_edge(self):
        p = parse_polynomial("x*y", 3, 2)
        teh = poly_to_teh(p)
        assert set(teh.edges) == {(0, 1)}
        assert teh.edges[(0, 1)] == {(1, 1): 1}

    def test_support_grouping_four_sites(self):
        p = parse_polynomial("x1 + 2*x1^2 + 2*x2^2*x3*x4 + x2*x3*x4^2", 3, 4)
        teh = poly_to_teh(p)
        assert set(teh.edges) == {(0,), (1, 2, 3)}
        assert teh.edges[(0,)] == {(1,): 1, (2,): 2}
        assert teh.edges[(1, 2, 3)] == {(2, 1, 1): 2, (1, 1, 2): 1}

    def test_round_trip(self):
        rng = random.Random(10)
        for _ in range(30):
            terms = {
                (rng.randrange(3), rng.randrange(3)): rng.randrange(1, 4)
                for _ in range(rng.randrange(1, 5))
            }
            p = Polynomial(4, 2, terms).constant_free()
            assert teh_to_poly(poly_to_teh(p)) == p


class TestGateList:
    def test_single_monomial(self):
        p = parse_polynomial("2*x*y", 3, 2)
        assert monomial_gate_list(p) == [((1, 1), 2)]

    def test_rebuild_matches_evaluation(self):
        rng = random.Random(11)
        for _ in range(20):
            terms = {
                (rng.randrange(1, 3), rng.randrange(1, 3)): rng.randrange(1, 6)
                for _ in range(rng.randrange(1, 4))
            }
            p = Polynomial(6, 2, terms)
            rebuilt = FiniteFunction.zero(6, 2)
            for exps, mult in monomial_gate_list(p):
                gate = FiniteFunction.from_callable(
                    6, 2,
                    lambda x, e=exps: pow(x[0], e[0], 6) * pow(x[1], e[1], 6) % 6,
                )
                rebuilt = rebuilt + gate.scale(mult)
            assert rebuilt == p.to_function()
