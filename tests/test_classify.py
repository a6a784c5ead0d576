"""Orbit enumeration, invariants, catalogues, special states, lower bounds."""
import itertools
import json
import math
import random

import numpy as np
import pytest

from ffe import classify
from ffe.classify import (
    BudgetError,
    classify_lfp,
    classify_lu,
    dephased_polynomial_index,
    haagerup_histogram,
    invariant_It,
    invariant_row_signature,
    invariants_fingerprint,
    key_to_function,
    lfp_orbit,
    lfp_orbit_keys,
    lower_bound,
    membership_check,
    special_function,
)
from ffe.fpops import dephase, image_matrix_row_col_ops, is_dephased, random_lfp
from ffe.linalg import is_butson_hadamard, singular_values
from ffe.polynomials import (
    count_polynomial_functions,
    enumerate_polynomial_functions,
    is_polynomial,
    parse_polynomial,
)
from ffe.ring import ArityError, FiniteFunction


@pytest.fixture(scope="module")
def cat3():
    return classify_lu(classify_lfp(3, "all"))


def orbit_by_closure(f):
    """Independent oracle: one round of dephase(P M Q) over all row/column
    permutation pairs (closed in one step since re-dephasing absorbs the
    phase corrections)."""
    d = f.d
    out = set()
    for rp in itertools.permutations(range(d)):
        for cp in itertools.permutations(range(d)):
            moved = image_matrix_row_col_ops(f, row_perm=rp, col_perm=cp)
            out.add(dephase(moved).representative)
    return out


class TestOrbits:
    def test_zero_orbit_is_singleton(self):
        assert lfp_orbit(FiniteFunction.zero(3, 2)) == {FiniteFunction.zero(3, 2)}

    def test_single_core_entry_orbit_size_9(self):
        f = FiniteFunction.from_matrix(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert len(lfp_orbit(f)) == 9

    def test_fourier_orbit_is_pair(self):
        f = special_function("fourier", 3)
        orbit = lfp_orbit(f)
        two_xy = FiniteFunction.from_callable(3, 2, lambda x: 2 * x[0] * x[1] % 3)
        assert orbit == {dephase(f).representative, dephase(two_xy).representative}

    def test_matches_closure_oracle_d3_exhaustive(self):
        seen = set()
        for vals in itertools.product(range(3), repeat=4):
            f = FiniteFunction.from_matrix(
                3, [[0, 0, 0], [0, vals[0], vals[1]], [0, vals[2], vals[3]]]
            )
            if f in seen:
                continue
            orbit = lfp_orbit(f)
            assert orbit == orbit_by_closure(f)
            seen |= orbit

    def test_matches_closure_oracle_d4_random(self):
        rng = random.Random(0)
        for _ in range(5):
            f = FiniteFunction(4, 2, [rng.randrange(4) for _ in range(16)])
            assert lfp_orbit(f) == orbit_by_closure(f)

    def test_matches_closure_oracle_d5_random(self):
        rng = random.Random(5)
        for _ in range(2):
            f = FiniteFunction(5, 2, [rng.randrange(5) for _ in range(25)])
            assert lfp_orbit(f) == orbit_by_closure(f)

    def test_blocks_that_split_a_row_permutation(self, monkeypatch):
        # 7 images per block is fewer than the 4! column permutations that
        # share one row permutation, so most blocks start or end inside one
        monkeypatch.setattr(classify, "ORBIT_CHUNK", 7)
        seed = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 3, 0, 1], [0, 2, 2, 0]], dtype=np.uint8)
        sizes = [len(block) for block in classify._orbit_blocks(seed)]
        assert sizes == [7] * 82 + [2]
        f = FiniteFunction(4, 2, seed.ravel().tolist())
        assert lfp_orbit(f) == orbit_by_closure(f)
        cat = classify_lfp(3, "all")
        monkeypatch.undo()
        assert cat.to_json() == classify_lfp(3, "all").to_json()

    def test_d7_budget_raised_before_any_image(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the orbit scan started")

        monkeypatch.setattr(classify, "_permutations", no_scan)
        monkeypatch.setattr(classify, "_dephase_arrays", no_scan)
        f = special_function("fourier", 7)
        # membership compares canonical forms, which enumerate no orbit
        assert membership_check(f, f)
        with pytest.raises(BudgetError):
            lfp_orbit_keys(f)


def closure_form(mat):
    """Oracle for lfp_canonical: the lexmin and size of the orbit closure."""
    keys = classify._orbit(np.asarray(mat, dtype=np.uint8))
    return keys[0].tobytes(), len(keys)


def dephased(d, mat):
    f = FiniteFunction(d, 2, np.asarray(mat).ravel().tolist())
    return np.array(dephase(f).representative.values, dtype=np.uint8).reshape(d, d)


def random_matrix(d, seed, repeated_rows=False):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, d, (d, d))
    if repeated_rows:
        # an equal row and one that differs by a constant
        mat[2], mat[3] = mat[1], (mat[1] + 1) % d
    return mat


class TestCanonicalForm:
    def test_all_dephased_d3(self):
        for vals in itertools.product(range(3), repeat=4):
            mat = np.zeros((3, 3), dtype=np.uint8)
            mat[1:, 1:] = np.reshape(vals, (2, 2))
            assert classify.lfp_canonical(mat, 3) == closure_form(mat)

    @pytest.mark.parametrize("d", [4, 6])
    def test_every_polynomial_index_key(self, d):
        # one closure per orbit: each index key it holds shares its form
        index = b"".join(dephased_polynomial_index(d))
        mats = np.frombuffer(index, dtype=np.uint8).reshape(-1, d, d)
        keys = classify._void_keys(mats)
        todo = set(range(len(keys)))
        while todo:
            orbit = classify._orbit(mats[min(todo)])
            expected = orbit[0].tobytes(), len(orbit)
            held = orbit[np.minimum(np.searchsorted(orbit, keys), len(orbit) - 1)] == keys
            members = [i for i in todo if held[i]]
            for i in members:
                assert classify.lfp_canonical(mats[i], d) == expected
            todo -= set(members)

    @pytest.mark.parametrize("d", [4, 5, 6])
    @pytest.mark.parametrize("repeated_rows", [False, True])
    def test_random_matrices(self, d, repeated_rows):
        for seed in range(2):
            mat = dephased(d, random_matrix(d, seed, repeated_rows))
            assert classify.lfp_canonical(mat, d) == closure_form(mat)

    @pytest.mark.parametrize(
        "name,d",
        [("fourier", 4), ("fourier", 5), ("fourier", 6), ("s6_fixture", 6), ("f32_fixture", 6)],
    )
    def test_special_matrices(self, name, d):
        mat = dephased(d, special_function(name, d).values)
        assert classify.lfp_canonical(mat, d) == closure_form(mat)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_zero_matrix(self, d):
        mat = np.zeros((d, d), dtype=np.uint8)
        assert classify.lfp_canonical(mat, d) == closure_form(mat) == (bytes(d * d), 1)

    @pytest.mark.parametrize("d", range(7, 13))
    def test_invariant_under_lfp_operations(self, d):
        mats = [
            random_matrix(d, d),
            random_matrix(d, d, repeated_rows=True),
            special_function("fourier", d).values,
            np.zeros(d * d, dtype=int),
        ]
        for i, mat in enumerate(mats):
            f = FiniteFunction(d, 2, np.asarray(mat).ravel().tolist())
            g, _ = random_lfp(d, 2, i).lift().apply(f)
            form = classify.lfp_canonical(mat, d)
            assert classify.lfp_canonical(g.values, d) == form
            key, size = form
            assert math.factorial(d) ** 2 % size == 0
            assert FiniteFunction(d, 2, list(key)) == dephase(key_to_function(d, key)).representative

    def test_state_budget(self, monkeypatch):
        # x^2 y at d = 7 holds between 50 and 100 states at its widest step
        f = parse_polynomial("x^2*y", 7, 2).to_function()
        monkeypatch.setattr(classify, "CANONICAL_STATE_BUDGET", 10)
        with pytest.raises(BudgetError):
            classify.lfp_canonical(f.values, 7)
        with pytest.raises(BudgetError):
            membership_check(f, f)
        monkeypatch.undo()
        assert membership_check(f, f)


def index_by_dephasing(d):
    """Independent oracle for the dephased polynomial index: one Polynomial,
    FiniteFunction and scalar dephase() per enumerated normal form, listed
    under the text of its constant-free part."""
    index = {}
    for poly, func in enumerate_polynomial_functions(d, 2):
        key = np.array(dephase(func).representative.values, dtype=np.uint8).tobytes()
        index.setdefault(key, set()).add(poly.constant_free().to_text())
    return {key: sorted(texts) for key, texts in index.items()}


class TestPolynomialIndex:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_oracle(self, d):
        assert dephased_polynomial_index(d) == index_by_dephasing(d)

    def test_d4_structure(self):
        index = dephased_polynomial_index(4)
        assert len(index) == 64
        texts = [text for listed in index.values() for text in listed]
        assert len(texts) == count_polynomial_functions(4, 2) // 4 == 16384
        assert len(set(texts)) == len(texts)
        for key, listed in index.items():
            assert is_dephased(FiniteFunction(4, 2, key))
            assert listed == sorted(listed)
            for text in listed:
                func = parse_polynomial(text, 4, 2).to_function()
                assert bytes(dephase(func).representative.values) == key


class TestClassifyD3:
    def test_counts(self, cat3):
        assert len(cat3.orbits) == 9
        assert len(cat3.lu_classes) == 6

    def test_partition_and_sizes(self, cat3):
        sizes = sorted(rec.orbit_size for rec in cat3.orbits)
        assert sizes == [1, 2, 6, 6, 9, 9, 12, 18, 18]
        assert sum(sizes) == 81

    def test_every_class_contains_polynomial(self, cat3):
        # prime d: every function is polynomial
        assert all(rec.contains_polynomial for rec in cat3.orbits)

    def test_orbit_size_bound(self, cat3):
        assert all(rec.orbit_size <= 36 for rec in cat3.orbits)

    def test_lu_members_share_singular_values(self, cat3):
        for lu in cat3.lu_classes:
            svs = [
                singular_values(key_to_function(3, cat3.orbits[cid].representative))
                for cid in lu.member_lfp_class_ids
            ]
            for sv in svs[1:]:
                # square roots near zero amplify the Jacobi tolerance
                assert np.allclose(sv, svs[0], atol=1e-7)

    def test_representative_is_lexmin_member(self, cat3):
        for rec in cat3.orbits:
            rep = key_to_function(3, rec.representative)
            orbit = lfp_orbit(rep)
            assert rep in orbit
            assert rec.representative == min(
                bytes(bytearray(f.values)) for f in orbit
            )

    def test_json_and_csv_shapes(self, cat3):
        doc = json.loads(cat3.to_json())
        assert doc["d"] == 3 and doc["scope"] == "all"
        assert len(doc["classes"]) == 9 and len(doc["lu_classes"]) == 6
        assert {c["lu_class"] for c in doc["classes"]} == set(range(6))
        csv_text = cat3.to_csv()
        assert len(csv_text.strip().splitlines()) == 10


class TestClassifyD2:
    def test_two_classes(self):
        cat = classify_lu(classify_lfp(2, "all"))
        assert len(cat.orbits) == 2
        assert len(cat.lu_classes) == 2

    def test_teh_scope_same_at_prime_d(self):
        cat = classify_lfp(2, "teh")
        assert len(cat.orbits) == 2
        assert all(rec.contains_polynomial for rec in cat.orbits)


class TestBudget:
    def test_all_scope_budget(self):
        with pytest.raises(BudgetError):
            classify_lfp(5, "all")

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            classify_lfp(3, "everything")


class TestInvariants:
    def test_It_examples(self):
        assert invariant_It(FiniteFunction.zero(5, 2)) == 0
        for d in (3, 5):
            for k in range(1, d):
                f = special_function("rank2_h", d, {"k": k})
                assert invariant_It(f) == k

    def test_row_signature_examples(self):
        # for 2 x^4 y at d = 5 every row sums to 2 a^4 * (0+1+2+3+4) = 0 mod 5,
        # so the rows collapse into a single group
        g = special_function("rank2_f", 5, {"k": 2})
        assert invariant_row_signature(g, 0) == (5,)
        assert invariant_row_signature(FiniteFunction.zero(3, 2), 0) == (3,)
        # pairwise distinct row sums (mod d) give all-singleton groups,
        # while the column sums of the same matrix all vanish
        h = FiniteFunction.from_matrix(3, [[0, 0, 0], [0, 0, 1], [0, 0, 2]])
        assert invariant_row_signature(h, 0) == (1, 1, 1)
        assert invariant_row_signature(h, 1) == (3,)

    def test_haagerup_zero_function(self):
        assert haagerup_histogram(FiniteFunction.zero(3, 2)) == (81, 0, 0)

    def test_haagerup_separates_s6_from_fourier(self):
        s6 = special_function("s6_fixture", 6)
        xy = special_function("fourier", 6)
        assert haagerup_histogram(dephase(s6).representative) != haagerup_histogram(
            dephase(xy).representative
        )

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_invariance_under_random_lfp(self, d):
        rng = random.Random(d)
        f = FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)])
        base = (
            invariant_It(f),
            invariant_row_signature(f, 0),
            invariant_row_signature(f, 1),
            haagerup_histogram(f),
        )
        for seed in range(100):
            g, _ = random_lfp(d, 2, seed).lift().apply(f)
            assert invariant_It(g) == base[0]
            assert invariant_row_signature(g, 0) == base[1]
            assert invariant_row_signature(g, 1) == base[2]
            assert haagerup_histogram(g) == base[3]


class TestLowerBound:
    def test_paper_values(self):
        assert lower_bound(3, 2) == 3
        assert lower_bound(4, 2) == 456
        assert lower_bound(5, 2) == 10596382
        assert lower_bound(3, 3) == 16142521

    def test_out_of_range_rejected(self):
        for d, n in [(1, 2), (13, 2), (3, 0), (3, 5)]:
            with pytest.raises(ArityError):
                lower_bound(d, n)

    def test_formula_direct(self):
        import math

        assert lower_bound(7, 2) == -(-(7 ** (49 - 2 * 6 - 1)) // math.factorial(7) ** 2)


class TestSpecialFunctions:
    def test_fourier_and_m_over_r(self):
        assert special_function("fourier", 2) == FiniteFunction.from_matrix(2, [[0, 0], [0, 1]])
        three_xy = FiniteFunction.from_callable(6, 2, lambda x: 3 * x[0] * x[1] % 6)
        assert special_function("m_over_r", 6, {"r": 2}) == three_xy

    def test_s6_rows(self):
        s6 = special_function("s6_fixture", 6)
        assert s6.as_matrix()[1] == [0, 0, 2, 2, 4, 4]

    def test_fixture_matrices_are_hadamard_but_not_polynomial(self):
        for name in ("s6_fixture", "f32_fixture"):
            f = special_function(name, 6)
            assert is_butson_hadamard(f)
            assert is_polynomial(f) is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            special_function("m_over_r", 6, {"r": 4})
        with pytest.raises(ValueError):
            special_function("f22", 6)
        with pytest.raises(ValueError):
            special_function("nope", 3)


class TestMembership:
    def test_self_membership(self):
        f = special_function("fourier", 3)
        assert membership_check(f, f)

    def test_f32_equivalent_to_fourier_d6(self):
        assert membership_check(
            special_function("f32_fixture", 6), special_function("fourier", 6)
        )

    def test_s6_not_equivalent_to_fourier_d6(self):
        assert not membership_check(
            special_function("s6_fixture", 6), special_function("fourier", 6)
        )

    def test_d6_random_matrix_and_moved_copy(self):
        rng = random.Random(6)
        f = FiniteFunction(6, 2, [rng.randrange(6) for _ in range(36)])
        g, _ = random_lfp(6, 2, 1).lift().apply(f)
        assert membership_check(g, f)
        assert membership_check(f, g)

    def test_d6_differing_fingerprints_scan_whole_orbit(self):
        rng = random.Random(7)
        f, g = (FiniteFunction(6, 2, [rng.randrange(6) for _ in range(36)]) for _ in range(2))
        assert invariants_fingerprint(f) != invariants_fingerprint(g)
        assert not membership_check(g, f)
