"""Gram matrices, trace powers, Schmidt data, and the closed-form checks."""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ffe.classify import special_function
from ffe.cyclo import CyclotomicInt
from ffe.linalg import (
    _MODULI,
    _embeddings,
    _jacobi_eigenvalues_stack,
    char_poly_coeffs,
    gram,
    is_butson_hadamard,
    normalized_trace_powers,
    schmidt_rank,
    singular_values,
    singular_values_stack,
    subspace_maximally_entangled,
    trace_power_coeffs,
    trace_powers,
)
from ffe.ring import ArityError, FiniteFunction

import exact_oracles as oracle
from exact_oracles import (
    f_two_by_two,
    kummer_check,
    rank2_trace_formula,
    state_vector,
    verify_lu_map_f4_f22,
)
from scaffolding import key_to_function


def random_function(d, rng):
    return FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)])


def oracle_cases(d, rng):
    """Zero, Fourier, two random states, and states of rank 1..3 whose rows
    repeat a few random rows."""
    cases = [FiniteFunction.zero(d, 2), special_function("fourier", d)]
    cases += [random_function(d, rng) for _ in range(2)]
    for r in range(1, min(d, 3) + 1):
        rows = [[rng.randrange(d) for _ in range(d)] for _ in range(r)]
        cases.append(FiniteFunction.from_matrix(d, rows + [rng.choice(rows) for _ in range(d - r)]))
    return cases


def numeric_gram(f):
    d = f.d
    omega = np.exp(2j * np.pi / d)
    a = omega ** np.array(f.as_matrix(), dtype=float)
    return a.T @ a.conj()


class TestGram:
    def test_zero_function(self):
        g = gram(FiniteFunction.zero(3, 2))
        assert all(e == CyclotomicInt.from_int(3, 3) for row in g for e in row)

    def test_fourier_is_diagonal(self):
        for d in (2, 3, 4, 6):
            f = special_function("fourier", d)
            g = gram(f)
            for i in range(d):
                for j in range(d):
                    assert g[i][j] == CyclotomicInt.from_int(d, d if i == j else 0)

    def test_matches_numeric(self):
        rng = random.Random(0)
        for d in (3, 4, 6):
            for _ in range(10):
                f = random_function(d, rng)
                exact = gram(f)
                numeric = numeric_gram(f)
                for i in range(d):
                    for j in range(d):
                        assert abs(exact[i][j].to_complex() - numeric[i, j]) < 1e-9

    def test_hermitian(self):
        rng = random.Random(1)
        for _ in range(10):
            f = random_function(5, rng)
            g = gram(f)
            for i in range(5):
                for j in range(5):
                    assert g[i][j] == g[j][i].conjugate()

    def test_arity_guard(self):
        with pytest.raises(ArityError):
            gram(FiniteFunction.zero(3, 1))


class TestTracePowers:
    def test_separable_and_maximally_entangled(self):
        d = 4
        zero = FiniteFunction.zero(d, 2)
        for k, t in enumerate(normalized_trace_powers(zero), start=2):
            assert t.as_fraction() == 1  # rank-1 projector
        fourier = special_function("fourier", d)
        for k, t in enumerate(normalized_trace_powers(fourier), start=2):
            assert t.as_fraction() == Fraction(1, d ** (k - 1))

    def test_matches_numeric_eigen_sums(self):
        rng = random.Random(2)
        for d in (3, 4):
            for _ in range(10):
                f = random_function(d, rng)
                eig = np.linalg.eigvalsh(numeric_gram(f))
                for k, t in enumerate(trace_powers(f), start=2):
                    assert abs(t.to_complex() - np.sum(eig**k)) < 1e-6

    def test_trace_power_values_are_real(self):
        rng = random.Random(3)
        for _ in range(10):
            f = random_function(6, rng)
            for t in trace_powers(f):
                assert t == t.conjugate()


def is_prime(n):
    """Deterministic Miller-Rabin: the first twelve primes as bases decide
    every n below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    odd, s = n - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    for a in bases:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestTracePowerOracle:
    """The float64 kernel against entry-by-entry CyclotomicInt products; at
    k_max = d, d <= 8 runs unreduced, d = 9..11 through two moduli and the
    CRT, and d = 12 through three."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_single_states(self, d):
        rng = random.Random(100 + d)
        for f in oracle_cases(d, rng):
            g = oracle.gram(f)
            assert gram(f) == g
            assert is_butson_hadamard(f) == all(
                g[i][j] == CyclotomicInt.from_int(d, d if i == j else 0)
                for i in range(d) for j in range(d)
            )
            assert trace_powers(f) == oracle.trace_powers(f)
        assert trace_powers(f, 1) == () == oracle.trace_powers(f, 1)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_mixed_stack(self, d):
        # one stack of several states, so the products and the CRT lift run
        # batched at every d
        cases = oracle_cases(d, random.Random(400 + d))
        stack = np.array([f.values for f in cases]).reshape(-1, d, d)
        got = trace_power_coeffs(stack, d).tolist()
        assert got == [[list(t.coeffs) for t in oracle.trace_powers(f)] for f in cases]

    def test_is_prime(self):
        sieve = [n for n in range(2, 5000) if all(n % p for p in range(2, math.isqrt(n) + 1))]
        assert [n for n in range(5000) if is_prime(n)] == sieve
        # the least strong pseudoprimes to the first one to four prime bases,
        # and a Carmichael number
        assert not any(map(is_prime, [2047, 1373653, 25326001, 3215031751, 561]))

    def test_moduli(self):
        assert len(set(_MODULI)) == len(_MODULI)
        for p in _MODULI:
            assert is_prime(p)
            # a product entry sums d^2 terms, each a residue times a count <= d
            assert all(d**3 * p < 2**53 for d in range(2, 13))
        assert math.prod(_MODULI) > 12**24

    @pytest.mark.parametrize("d,k_max,moduli", [(8, 8, 0), (9, 9, 2), (12, 12, 3)])
    def test_regime_boundaries(self, d, k_max, moduli):
        # 8^16 = 2^48 is the largest bound at k_max = d that runs unreduced,
        # d = 9 is the first to need moduli, and 12^24 needs all three
        bound = d ** (2 * k_max)
        assert (bound < 2**53) == (moduli == 0)
        assert moduli == 0 or math.prod(_MODULI[:moduli - 1]) <= bound < math.prod(_MODULI[:moduli])
        rng = random.Random(700 + d)
        row = [rng.randrange(d) for _ in range(d)]
        cases = [FiniteFunction.zero(d, 2), FiniteFunction.from_matrix(d, [row] * d)]
        cases += [random_function(d, rng) for _ in range(2)]
        want = [oracle.trace_powers(f, k_max) for f in cases]
        assert [trace_powers(f, k_max) for f in cases] == want
        stack = np.array([f.values for f in cases]).reshape(-1, d, d)
        assert trace_power_coeffs(stack, k_max).tolist() == [[list(t.coeffs) for t in w] for w in want]

    @pytest.mark.parametrize("d", range(2, 13))
    def test_exact_up_to_the_moduli_limit(self, d):
        # the zero state and f(x, y) = h(y) have G = d v v^dagger with
        # |v|^2 = d, so tr G^k = d^(2k), the largest count tr G^k can hold
        limit = max(k for k in range(1, 100) if d ** (2 * k) < math.prod(_MODULI))
        assert limit >= 17
        h = [random.Random(800 + d).randrange(d) for _ in range(d)]
        cases = [FiniteFunction.zero(d, 2), FiniteFunction.from_matrix(d, [h] * d)]
        for f in cases:
            for k_max in range(2, limit + 1):
                assert trace_powers(f, k_max) == tuple(
                    CyclotomicInt.from_int(d, d ** (2 * k)) for k in range(2, k_max + 1)
                )
        past = rf"\bd={d}\b.*\bk_max={limit + 1}\b"
        for f in cases:
            with pytest.raises(ValueError, match=past):
                trace_powers(f, limit + 1)
        with pytest.raises(ValueError, match=past):
            normalized_trace_powers(cases[0], limit + 1)
        with pytest.raises(ValueError, match=past):
            trace_power_coeffs(np.array([f.image() for f in cases]), limit + 1)

    @pytest.mark.parametrize("name", ["cat3_all", "cat4_full", "cat6_teh"])
    def test_catalogue_signatures(self, request, name):
        cat = request.getfixturevalue(name)
        reps = [key_to_function(cat.d, rec.representative) for rec in cat.orbits]
        sigs = [tuple(t.coeffs for t in oracle.trace_powers(f)) for f in reps]
        stack = np.array([f.values for f in reps]).reshape(-1, cat.d, cat.d)
        got = trace_power_coeffs(stack, cat.d).tolist()
        assert [tuple(map(tuple, s)) for s in got] == sigs
        groups = {}
        for rec, sig in zip(cat.orbits, sigs):
            groups.setdefault(sig, []).append(rec.lfp_class_id)
        assert sorted(groups.values()) == sorted(
            rec.member_lfp_class_ids for rec in cat.lu_classes
        )


class TestSchmidt:
    def test_zero_rank_one(self):
        assert schmidt_rank(FiniteFunction.zero(4, 2)) == 1

    def test_fourier_full_rank(self):
        for d in (2, 3, 4, 6):
            assert schmidt_rank(special_function("fourier", d)) == d

    def test_m_over_r(self):
        assert schmidt_rank(special_function("m_over_r", 6, {"r": 3})) == 3
        assert schmidt_rank(special_function("m_over_r", 6, {"r": 2})) == 2

    @pytest.mark.parametrize("d", range(2, 13))
    def test_matches_exact_rank_oracle(self, d):
        rng = random.Random(200 + d)
        for f in oracle_cases(d, rng):
            assert schmidt_rank(f) == oracle.schmidt_rank(f)

    def test_matches_numeric_rank(self):
        rng = random.Random(4)
        for d in (3, 4, 6):
            for _ in range(10):
                f = random_function(d, rng)
                sv = singular_values(f)
                assert schmidt_rank(f) == sum(1 for v in sv if v > 1e-8)


class TestHadamard:
    def test_fourier(self):
        assert is_butson_hadamard(special_function("fourier", 4))

    def test_zero_is_not(self):
        assert not is_butson_hadamard(FiniteFunction.zero(4, 2))

    def test_d6_fixture_matrices(self):
        assert is_butson_hadamard(special_function("s6_fixture", 6))
        assert is_butson_hadamard(special_function("f32_fixture", 6))

    def test_hadamard_implies_flat_singular_values(self):
        for name, d in [("fourier", 6), ("s6_fixture", 6), ("f32_fixture", 6)]:
            f = special_function(name, d)
            for v in singular_values(f):
                assert abs(v - 1 / math.sqrt(d)) < 1e-9


class TestSingularValues:
    def test_zero_function(self):
        sv = singular_values(FiniteFunction.zero(3, 2))
        assert abs(sv[0] - 1.0) < 1e-9 and all(abs(v) < 1e-9 for v in sv[1:])

    def test_matches_numpy_svd(self):
        rng = random.Random(5)
        for d in (3, 4, 6):
            for _ in range(10):
                f = random_function(d, rng)
                omega = np.exp(2j * np.pi / d)
                a = omega ** np.array(f.as_matrix(), dtype=float) / d
                reference = np.linalg.svd(a, compute_uv=False)
                ours = singular_values(f)
                assert np.allclose(ours, reference, atol=1e-7)

    def test_descending(self):
        rng = random.Random(6)
        f = random_function(5, rng)
        sv = singular_values(f)
        assert sv == sorted(sv, reverse=True)


class TestSingularValuesOracle:
    """The lockstep Jacobi, on one state and over a stack, against Jacobi on
    numpy row slices: every value must be the same float,
    down to the sign of zero, since the catalogue JSON prints their
    round-off."""

    @staticmethod
    def same_floats(got, want):
        return [repr(v) for v in got] == [repr(v) for v in want]

    @pytest.mark.parametrize("d", range(2, 13))
    def test_single_states(self, d):
        rng = random.Random(200 + d)
        cases = oracle_cases(d, rng) + [random_function(d, rng) for _ in range(4)]
        for f in cases:
            assert self.same_floats(singular_values_stack(f.image()[None])[0], oracle.singular_values(f)), f

    @pytest.mark.parametrize("name", ["cat3_all", "cat4_full", "cat6_teh"])
    def test_catalogue_classes(self, request, name):
        cat = request.getfixturevalue(name)
        for rec, values in zip(cat.orbits, cat.singular_values):
            f = key_to_function(cat.d, rec.representative)
            assert self.same_floats(values, oracle.singular_values(f)), f

    @staticmethod
    def mixed_stack(d):
        """Zero, Fourier, random and rank 1..3 states in one stack, so that
        matrices leave the lockstep Jacobi at different sweeps."""
        rng = random.Random(300 + d)
        cases = oracle_cases(d, rng) + [random_function(d, rng) for _ in range(4)]
        return cases, np.array([f.values for f in cases]).reshape(-1, d, d)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_stack(self, d):
        cases, images = self.mixed_stack(d)
        got = singular_values_stack(images)
        assert len(got) == len(cases)
        for f, values in zip(cases, got):
            assert self.same_floats(values, oracle.singular_values(f)), f

    @pytest.mark.parametrize("d", range(2, 13))
    def test_stack_of_one(self, d):
        cases, images = self.mixed_stack(d)
        for f, image in zip(cases, images):
            (values,) = singular_values_stack(image[None])
            assert self.same_floats(values, oracle.singular_values(f)), f

    def test_empty_stack(self):
        assert singular_values_stack([]) == []
        assert singular_values_stack(np.zeros((0, 4, 4), dtype=np.int64)) == []

    @pytest.mark.parametrize("name", ["cat3_all", "cat4_full", "cat4_teh", "cat6_teh"])
    def test_stack_catalogue_classes(self, request, name):
        cat = request.getfixturevalue(name)
        images = np.array([list(rec.representative) for rec in cat.orbits]).reshape(-1, cat.d, cat.d)
        for rec, values in zip(cat.orbits, singular_values_stack(images)):
            f = key_to_function(cat.d, rec.representative)
            assert self.same_floats(values, oracle.singular_values(f)), f

    @pytest.mark.parametrize("size", range(2, 9))
    def test_jacobi_stack_bitwise_on_random_symmetric(self, size):
        # random real symmetric matrices, with a diagonal one that leaves
        # before any rotation, against one-matrix Jacobi on numpy rows
        g = np.random.default_rng(size).standard_normal((12, size, size))
        stack = np.concatenate([g + g.transpose(0, 2, 1), np.diag(np.arange(float(size)))[None]])
        for m, got in zip(stack, _jacobi_eigenvalues_stack(stack)):
            assert got.tobytes() == oracle.jacobi_eigenvalues(m).tobytes()

    @pytest.mark.parametrize("d", range(2, 13))
    def test_embeddings_bitwise(self, d):
        cases, images = self.mixed_stack(d)
        for f, emb in zip(cases, _embeddings(images)):
            assert np.array_equal(emb.view(np.uint64), oracle.embedding(f).view(np.uint64)), f


def named_states(d):
    """Every named state of classify.special_function that exists at d."""
    states = [special_function("fourier", d)]
    states += [special_function("m_over_r", d, {"r": r}) for r in range(1, d + 1) if d % r == 0]
    states += [special_function(name, d, {"k": k})
               for name in ("rank2_f", "rank2_g", "rank2_h") for k in range(1, d)]
    for p, m in itertools.product((2, 3, 5, 7, 11), range(1, 4)):
        if p**m == d:
            states += [special_function(name, d, {"p": p, "m": m}) for name in ("p_power", "p_power_T")]
    names = {4: ("f22", "h4"), 6: ("f32_fixture", "s6_fixture")}.get(d, ())
    return states + [special_function(name, d) for name in names]


def random_polynomial_state(d, rng):
    """The function of a random polynomial of up to four terms over Z_d."""
    terms = [(rng.randrange(1, d), rng.randrange(d), rng.randrange(d))
             for _ in range(rng.randrange(1, 5))]
    return FiniteFunction.from_callable(
        d, 2, lambda x: sum(c * x[0] ** a * x[1] ** b for c, a, b in terms) % d)


class TestSingleStateSingularValues:
    """LAPACK's values for one state against the catalogue's lockstep Jacobi,
    at the 6 decimals that `ffe query --ops sv` prints."""

    @staticmethod
    def assert_same_printed(states):
        stack = singular_values_stack(np.array([f.image() for f in states]))
        for f, want in zip(states, stack):
            assert [round(v, 6) for v in singular_values(f)] == [round(v, 6) for v in want], f

    @pytest.mark.parametrize("name", ["cat3_all", "cat4_full"])
    def test_catalogue_representatives(self, request, name):
        cat = request.getfixturevalue(name)
        self.assert_same_printed([key_to_function(cat.d, rec.representative) for rec in cat.orbits])

    @pytest.mark.parametrize("d", range(2, 13))
    def test_named_random_and_polynomial_states(self, d):
        rng = random.Random(500 + d)
        cases = named_states(d) + oracle_cases(d, rng)
        cases += [random_function(d, rng) for _ in range(20)]
        cases += [random_polynomial_state(d, rng) for _ in range(20)]
        self.assert_same_printed(cases)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_zero_coefficients_beyond_the_rank(self, d):
        for f in oracle_cases(d, random.Random(600 + d)) + named_states(d):
            values = singular_values(f)
            assert len(values) == d and values == sorted(values, reverse=True)
            assert all(v < 1e-12 for v in values[schmidt_rank(f):]), f


class TestSubspaceMaximallyEntangled:
    def test_m_over_r_cases(self):
        f = special_function("m_over_r", 6, {"r": 2})  # 3xy
        assert subspace_maximally_entangled(f, 2)
        assert not subspace_maximally_entangled(f, 3)
        g = special_function("m_over_r", 6, {"r": 3})  # 2xy
        assert subspace_maximally_entangled(g, 3)

    def test_prime_power(self):
        f = special_function("p_power", 4, {"p": 2, "m": 2})  # x^2 y
        assert subspace_maximally_entangled(f, 2)

    def test_zero_only_r1(self):
        zero = FiniteFunction.zero(4, 2)
        assert subspace_maximally_entangled(zero, 1)
        for r in (2, 3, 4):
            assert not subspace_maximally_entangled(zero, r)


def newton_cases(d, rng):
    """oracle_cases plus every m_over_r state at d: rank r for each divisor r."""
    return oracle_cases(d, rng) + [
        special_function("m_over_r", d, {"r": r}) for r in range(1, d + 1) if d % r == 0
    ]


class TestCharPoly:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_matches_newton_oracle(self, d):
        # the integer recurrence against Newton's identities run in
        # CyclotomicRat on the oracle's entry-by-entry trace powers
        rng = random.Random(300 + d)
        for f in newton_cases(d, rng):
            want = oracle.char_poly_coeffs(f)
            assert char_poly_coeffs(f) == want
            assert schmidt_rank(f) == max(k for k, c in enumerate(want, start=1) if not c.is_zero())

    def test_c1_is_minus_one(self):
        rng = random.Random(7)
        for d in (3, 4, 5):
            for _ in range(5):
                c = char_poly_coeffs(random_function(d, rng))
                assert c[0].as_fraction() == -1

    def test_matches_numpy_char_poly(self):
        rng = random.Random(8)
        for d in (3, 4):
            for _ in range(5):
                f = random_function(d, rng)
                rho = numeric_gram(f) / d**2
                reference = np.poly(np.linalg.eigvalsh(rho))
                ours = [c.to_complex() for c in char_poly_coeffs(f)]
                assert np.allclose(ours, reference[1:], atol=1e-8)

    def test_h_family_c2_closed_form(self):
        for d in (5, 7):
            for k in range(1, d):
                f = special_function("rank2_h", d, {"k": k})
                c2 = char_poly_coeffs(f)[1].to_complex()
                expect = 2 * (d - 1) ** 2 / d**4 * (1 - math.cos(2 * math.pi * k / d))
                assert abs(c2 - expect) < 1e-9


class TestRank2Formula:
    def test_worked_values(self):
        # tr(rho^2) collapses to (n1^2 + n2^2) / d^2
        assert rank2_trace_formula(3, 1, 2) == Fraction(5, 9)
        assert rank2_trace_formula(5, 1, 4) == Fraction(17, 25)
        for d in (3, 4, 5, 6, 7):
            for n1 in range(1, d):
                assert rank2_trace_formula(d, n1, d - n1) == Fraction(
                    n1**2 + (d - n1) ** 2, d**2
                )

    def test_balanced_minimizes_even_d(self):
        d = 6
        values = [rank2_trace_formula(d, n1, d - n1) for n1 in range(1, d)]
        assert min(values) == rank2_trace_formula(d, 3, 3)

    def test_matches_exact_traces_all_two_output_rows(self):
        # f(x, y) = x * g(y) for every g with exactly two distinct outputs
        for d in (3, 5):
            for outputs in itertools.combinations(range(d), 2):
                for mask in range(1, 2**d - 1):
                    g = [outputs[(mask >> i) & 1] for i in range(d)]
                    n1 = g.count(outputs[0])
                    f = FiniteFunction.from_callable(d, 2, lambda x: x[0] * g[x[1]] % d)
                    t2 = normalized_trace_powers(f, 2)[0]
                    assert t2.as_fraction() == rank2_trace_formula(d, n1, d - n1)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            rank2_trace_formula(4, 0, 4)
        with pytest.raises(ValueError):
            rank2_trace_formula(4, 1, 2)


class TestKummer:
    def test_worked_values(self):
        assert kummer_check(2, 2, 1)  # 2*2 = 4 = 0 mod 4
        assert kummer_check(3, 3, 2)  # 36*9 = 324 = 0 mod 27

    def test_exhaustive_small_prime_powers(self):
        for p in (2, 3, 5):
            for m in range(1, 6):
                for k in range(1, p ** (m - 1) + 1):
                    assert kummer_check(p, m, k)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            kummer_check(2, 2, 3)


class TestLUMapFixture:
    def test_holds(self):
        assert verify_lu_map_f4_f22()

    def test_f22_matrix_is_tensor_square(self):
        f = f_two_by_two()
        h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        target = np.kron(h2, h2)
        omega = np.exp(2j * np.pi / 4)
        ours = omega ** np.array(f.as_matrix(), dtype=float) / 2
        assert np.allclose(ours, target, atol=1e-12)

    def test_tensor_square_state_in_f22_class(self):
        from ffe.classify import membership_check

        poly = special_function("f22", 4)
        assert membership_check(poly, f_two_by_two())

    def test_identity_map_fixes_fourier(self):
        f4 = special_function("fourier", 4)
        v = state_vector(f4)
        assert abs(abs(np.vdot(v, np.eye(16) @ v)) - 1.0) < 1e-12
