"""Polynomial normal forms, enumeration, decision procedure, hypergraphs."""
import itertools
import random

import numpy as np
import pytest

from ffe.classify import special_function
from ffe.polynomials import (
    EnumerationTooLarge,
    Polynomial,
    PolynomialParseError,
    admissible_monomials,
    block_texts,
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
from ffe.ring import FiniteFunction


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

    def test_d2_n1_functions(self):
        images = {f.values for _, f in enumerate_polynomial_functions(2, 1)}
        assert images == {(0, 0), (1, 1), (0, 1), (1, 0)}

    def test_budget_rejected(self):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_polynomial_functions(8, 2))

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_constant_free_blocks_are_the_zero_constant_rows(self, d):
        def stacked(**kw):
            blocks = list(enumerate_polynomial_blocks(d, 2, chunk=5000, **kw))
            assert all(len(coeffs) <= 5000 for _, coeffs, _ in blocks)
            return [np.concatenate([b[i] for b in blocks]) for i in (1, 2)]

        coeffs, images = stacked()
        free_coeffs, free_images = stacked(constant_free=True)
        assert len(coeffs) == count_polynomial_functions(d, 2) == d * len(free_coeffs)
        zero = coeffs[:, 0] == 0
        assert np.array_equal(free_coeffs, coeffs[zero])
        assert np.array_equal(free_images, images[zero])

    @pytest.mark.parametrize("d", [4, 6])
    def test_block_texts_match_to_text(self, d):
        monomials, coeffs, _ = next(enumerate_polynomial_blocks(d, 2, chunk=3000))
        expected = [
            Polynomial(d, 2, dict(zip(monomials, row))).to_text()
            for row in coeffs.tolist()
        ]
        assert block_texts(d, 2, monomials, coeffs) == expected
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
        # enumerated normal form itself
        rng = random.Random(8)
        sample = []
        for i, pair in enumerate(enumerate_polynomial_functions(6, 2)):
            if i % 4096 == 0:
                sample.append(pair)
        for poly, func in sample:
            assert is_polynomial(func) == poly

    def test_prime_d_every_function_is_polynomial(self):
        for vals in itertools.product(range(2), repeat=4):
            assert is_polynomial(FiniteFunction(2, 2, vals)) is not None
        rng = random.Random(9)
        for _ in range(50):
            f = FiniteFunction(3, 2, [rng.randrange(3) for _ in range(9)])
            p = is_polynomial(f)
            assert p is not None and p.to_function() == f


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
