"""Orbit enumeration, invariants, catalogues, special states, lower bounds."""
import functools
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from ffe import classify, cli
from ffe.classify import (
    BudgetError,
    LUClassRecord,
    OrbitRecord,
    classify_lfp,
    classify_lu,
    dephased_polynomial_index,
    haagerup_histogram,
    invariant_It,
    invariant_row_signature,
    invariants_fingerprint,
    lfp_orbit_keys,
    lower_bound,
    membership_check,
    special_function,
)
from ffe.fpops import dephase, random_lfp
from ffe.linalg import is_butson_hadamard, singular_values
from ffe.polynomials import (
    EnumerationTooLarge,
    count_polynomial_functions,
    enumerate_polynomial_functions,
    is_polynomial,
    normal_form_basis,
    parse_polynomial,
)
from ffe.ring import ArityError, FiniteFunction, prime_power_factors
from ffe.verify import verify_appendix

import exact_oracles
from exact_oracles import lfp_orbit
from scaffolding import image_matrix_row_col_ops, is_dephased, key_to_function


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
        f = special_function("fourier", 7)
        # membership compares canonical forms, which enumerate no orbit
        assert membership_check(f, f)
        with pytest.raises(BudgetError):
            lfp_orbit_keys(f)


@functools.cache
def closure_by_seed(d):
    index = dephased_polynomial_index(d)
    keys = sorted(index)
    mats = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, d, d)
    return list(exact_oracles.close_orbits_by_seed(d, mats, [index[k] for k in keys]))


def closed_orbits(d):
    cat = classify_lfp(d)
    return [(r.representative, r.orbit_size, texts) for r, texts in zip(cat.orbits, cat.polynomials)]


class TestCloseOrbits:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_seed_oracle(self, d):
        assert closed_orbits(d) == closure_by_seed(d)

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("d", [3, 4])
    def test_batch_boundaries(self, monkeypatch, d, batch):
        # a batch of 1 holds only the least unclaimed code, always a seed;
        # in a batch of 5 some candidates fall into the orbit of an earlier
        # candidate of the same batch (at d = 3, code 3 into that of 1)
        monkeypatch.setattr(classify, "ORBIT_BATCH", batch)
        assert closed_orbits(d) == closure_by_seed(d)


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


def repeated_distinct_rows(d, seed):
    """Rows drawn from three rows of distinct values and the zero row, each
    shifted by a constant.  The cells can all split while equal rows are
    still unplaced, so that the orderings of those rows count."""
    rng = np.random.default_rng(seed)
    pool = np.array([rng.permutation(d) for _ in range(3)] + [np.zeros(d, dtype=int)])
    return (pool[rng.integers(0, 4, d)] + rng.integers(0, d, (d, 1))) % d


def search_matrices(d):
    """Inputs of the canonical-form search at one d: random matrices, with
    repeated and shifted rows, permuted c*x*y, Fourier, the zero matrix and
    two column classes (cells that never all split), repeated rows of
    distinct values, and x^2*y at d = 7."""
    rng = np.random.default_rng(100 + d)
    c = int(rng.integers(1, d))
    bilinear = c * np.outer(np.arange(d), np.arange(d)) % d
    mats = [
        random_matrix(d, d),
        random_matrix(d, d + 1),
        bilinear[rng.permutation(d)][:, rng.permutation(d)],
        np.reshape(special_function("fourier", d).values, (d, d)),
        np.zeros((d, d), dtype=int),
        np.outer(rng.integers(0, d, d), np.arange(d) % 2) % d,
        repeated_distinct_rows(d, d),
        repeated_distinct_rows(d, d + 1),
    ]
    if d >= 4:
        mats.append(random_matrix(d, d, repeated_rows=True))
    if d == 7:
        mats.append(np.reshape(parse_polynomial("x^2*y", 7, 2).to_function().values, (7, 7)))
    return np.array(mats)


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

    # at d = 6, seeds 0 and 5 finish with two equal rows unplaced
    @pytest.mark.parametrize("d,seed", [(4, 0), (5, 0), (6, 0), (6, 5)])
    def test_repeated_rows_of_distinct_values(self, d, seed):
        mat = repeated_distinct_rows(d, seed)
        assert classify.lfp_canonical(mat, d) == closure_form(mat.astype(np.uint8))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_matches_row_by_row_oracle(self, d):
        # past d = 6 no closure exists; the oracle places rows one at a
        # time in Python, sharing only the pivot tables with the library
        mats = search_matrices(d)
        for mat in mats:
            assert classify.lfp_canonical(mat, d) == exact_oracles.canonical_forms_by_rows(mat[None])[0]

    @pytest.mark.parametrize("d", range(2, 13))
    def test_stack_matches_single(self, d):
        # the matrices of one stack finish at different steps: after one or
        # two rows, or only when every row is placed
        mats = search_matrices(d)
        stack = np.concatenate([mats, mats[::-1]])
        singles = [classify.lfp_canonical(mat, d) for mat in mats]
        assert classify._canonical_forms(stack) == singles + singles[::-1]

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

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_matches_block_dephasing_oracle(self, d):
        assert dephased_polynomial_index(d) == exact_oracles.index_by_block_dephasing(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_keys_in_key_stack_order(self, d):
        keys = classify._polynomial_keys(d)[0]
        assert list(dephased_polynomial_index(d)) == [key.tobytes() for key in keys]

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_builds_the_basis_once(self, d, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return normal_form_basis(*args)

        monkeypatch.setattr(classify, "normal_form_basis", counted)
        dephased_polynomial_index(d)
        assert calls == [(d, 2)]

    @pytest.mark.parametrize("d", [5, 8, 12])
    def test_budget(self, d):
        # the enumeration budget stops the index before it builds anything
        start = time.perf_counter()
        with pytest.raises(EnumerationTooLarge):
            dephased_polynomial_index(d)
        assert time.perf_counter() - start < 1.0

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


class TestCatalogueColumns:
    """The records keep what the orbit search found; everything derived from
    the representatives is a catalogue column, computed once."""

    CATALOGUES = ["cat3_all", "cat4_full", "cat4_teh", "cat6_teh"]

    def test_columns_computed_once(self, monkeypatch):
        calls = {"singular_values_stack": 0, "_fingerprint_stack": 0, "dephased_polynomial_index": 0}

        def counted(name):
            fn = getattr(classify, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(classify, name, wrapper)

        for name in calls:
            counted(name)
        cat = classify_lu(classify_lfp(3, "all"))
        assert set(calls.values()) == {0}
        cat.to_json()
        cat.to_csv()
        cat.to_json()
        assert set(calls.values()) == {1}
        # verify reads the singular values of its own catalogue, never the
        # fingerprints or the polynomial texts
        calls.update(dict.fromkeys(calls, 0))
        assert verify_appendix(3)["ok"]
        assert calls == {"singular_values_stack": 1, "_fingerprint_stack": 0,
                         "dephased_polynomial_index": 0}

    @pytest.mark.parametrize("scope", ["all", "teh"])
    def test_key_stack_rebuilt_once_for_texts(self, scope, monkeypatch):
        # classify_lfp builds the key stack, the first to_json builds it once
        # more for the polynomial texts, and to_csv and a second to_json none
        calls = []

        def counted(*args):
            calls.append(args)
            return normal_form_basis(*args)

        monkeypatch.setattr(classify, "normal_form_basis", counted)
        cat = classify_lu(classify_lfp(4, scope))
        assert calls == [(4, 2)]
        cat.to_json()
        assert calls == [(4, 2)] * 2
        cat.to_csv()
        cat.to_json()
        assert calls == [(4, 2)] * 2

    @pytest.mark.parametrize("name", ["cat3_all", "cat4_teh", "cat6_teh"])
    def test_catalogue_is_its_records(self, request, name):
        cat = request.getfixturevalue(name)
        rebuilt = classify.Catalogue(cat.d, cat.scope, cat.orbits, cat.lu_classes, cat.provenance)
        assert rebuilt.to_json() == cat.to_json()
        assert rebuilt.to_csv() == cat.to_csv()

    @pytest.mark.parametrize("name", CATALOGUES)
    def test_columns_match_representatives(self, request, name):
        cat = request.getfixturevalue(name)
        assert len(cat.images) == len(cat.fingerprints) == len(cat.orbits)
        for i, rec in enumerate(cat.orbits):
            assert rec.lfp_class_id == i
            assert cat.images[i].tobytes() == rec.representative
            f = key_to_function(cat.d, rec.representative)
            assert cat.fingerprints[i] == invariants_fingerprint(f)

    @pytest.mark.parametrize("name", CATALOGUES)
    def test_contains_polynomial_is_derived(self, request, name):
        cat = request.getfixturevalue(name)
        for rec, texts in zip(cat.orbits, cat.polynomials):
            assert rec.contains_polynomial == bool(rec.polynomial_keys) == bool(texts)
        with pytest.raises(AttributeError):
            cat.orbits[0].contains_polynomial = False

    @pytest.mark.parametrize("name", CATALOGUES)
    def test_polynomials_from_keys(self, request, name):
        # each class lists the texts of the index keys it holds, sorted
        cat = request.getfixturevalue(name)
        index = dephased_polynomial_index(cat.d)
        held = [key for rec in cat.orbits for key in rec.polynomial_keys]
        assert sorted(held) == sorted(index)
        for rec, texts in zip(cat.orbits, cat.polynomials):
            assert texts == sorted(t for key in rec.polynomial_keys for t in index[key])
            assert all(classify.lfp_canonical(np.frombuffer(key, dtype=np.uint8), cat.d)[0]
                       == rec.representative for key in rec.polynomial_keys)

    def test_no_polynomial_text_without_json(self, monkeypatch, tmp_path, capsys):
        # verify-appendix, and classify without a JSON --out, never list a
        # polynomial text
        def no_index(d):
            raise AssertionError("the polynomial texts were built")

        monkeypatch.setattr(classify, "dephased_polynomial_index", no_index)
        for d in (3, 4, 6):
            assert verify_appendix(d)["ok"]
        out = tmp_path / "cat.csv"
        for argv in [[], ["--format", "csv", "--out", str(out)]]:
            assert cli.main(["classify", "--d", "4", "--scope", "teh", "--lu", *argv]) == 0
        assert capsys.readouterr().out.startswith("d=4 scope=teh lfp_classes=17")
        assert out.read_text().count("\n") == 18

    def test_records_keep_search_results_only(self, cat3_all):
        assert OrbitRecord._fields == (
            "lfp_class_id", "representative", "orbit_size", "polynomial_keys"
        )
        assert LUClassRecord._fields == ("lu_class_id", "member_lfp_class_ids")
        with pytest.raises(AttributeError):
            cat3_all.lu_classes[0].member_lfp_class_ids = []
        doc = json.loads(cat3_all.to_json())
        for lu in doc["lu_classes"]:
            values = cat3_all.singular_values[min(lu["members"])]
            assert lu["singular_values"] == [round(v, 10) for v in values]


class TestCatalogueJson:
    """The schema emitter of Catalogue.to_json against the stdlib's
    json.dumps(indent=1, sort_keys=True) of the catalogue's dict."""

    @staticmethod
    def assert_same_json(cat):
        text = cat.to_json()
        assert text == exact_oracles.catalogue_json(cat)
        return json.loads(text)

    @pytest.mark.parametrize("name", TestCatalogueColumns.CATALOGUES)
    def test_golden_catalogues(self, request, name):
        self.assert_same_json(request.getfixturevalue(name))

    def test_d2_with_and_without_lu(self):
        cat = classify_lfp(2, "all")
        doc = self.assert_same_json(cat)
        assert doc["lu_classes"] == [] and all("lu_class" not in c for c in doc["classes"])
        doc = self.assert_same_json(classify_lu(cat))
        assert [c["lu_class"] for c in doc["classes"]] == [0, 1]

    def test_no_orbits(self):
        empty = classify.Catalogue(3, "teh", [])
        assert self.assert_same_json(empty) == {
            "classes": [], "d": 3, "lu_classes": [], "provenance": {}, "scope": "teh"}

    def test_provenance_keeps_seed_count_and_version(self):
        cat = classify_lfp(3, "all")
        for provenance in [{"version": 1}, {"seed_count": 7, "runtime_seconds": 0.5}]:
            moved = classify.Catalogue(3, "all", cat.orbits, provenance=provenance)
            kept = {k: v for k, v in provenance.items() if k != "runtime_seconds"}
            assert self.assert_same_json(moved)["provenance"] == kept


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

    @pytest.mark.parametrize("d", range(2, 13))
    def test_row_signature_matches_point_oracle(self, d):
        rng = random.Random(d)
        for n in (1, 2, 3):
            for values in (
                [rng.randrange(d) for _ in range(d**n)],
                [rng.randrange(2) * (d // 2) for _ in range(d**n)],
            ):
                f = FiniteFunction(d, n, values)
                for axis in range(n):
                    got = invariant_row_signature(f, axis)
                    assert got == exact_oracles.row_signature(f, axis)
                    assert all(type(size) is int for size in got)

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

    @pytest.mark.parametrize("d", range(2, 13))
    def test_fingerprint_stack_matches_per_state(self, d):
        # random states, states of few values (repeated row and column sums)
        # and the zero state, as one stack
        rng = np.random.default_rng(d)
        mats = np.concatenate([
            rng.integers(0, d, (6, d, d)),
            rng.integers(0, 2, (6, d, d)) * (d // 2),
            np.zeros((1, d, d), dtype=np.int64),
        ]).astype(np.uint8)
        stack = classify._fingerprint_stack(mats)
        assert len(stack) == len(mats)
        for mat, got in zip(mats, stack):
            f = FiniteFunction(d, 2, mat.ravel().tolist())
            expected = (
                invariant_It(f),
                invariant_row_signature(f, 0),
                invariant_row_signature(f, 1),
                haagerup_histogram(f),
            )
            assert got == expected == invariants_fingerprint(f)
            assert all(type(v) is int for v in (got[0], *got[1], *got[2], *got[3]))

    def test_fingerprint_rejects_n_other_than_2(self):
        with pytest.raises(ArityError):
            invariants_fingerprint(FiniteFunction.zero(3, 3))


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

    @staticmethod
    def closed_forms(d):
        """(name, params, f) of every named polynomial state valid at d, each
        built from its formula, with the parameters special_function accepts."""
        def state(fn):
            return FiniteFunction.from_callable(d, 2, lambda x: fn(*x) % d)

        cases = [("fourier", None, state(lambda x, y: x * y))]
        cases += [("m_over_r", {"r": r}, state(lambda x, y, r=r: d // r * x * y))
                  for r in range(1, d + 1) if d % r == 0]
        if len(prime_power_factors(d)) == 1:
            (p, m), = prime_power_factors(d)
            e = p ** (m - 1)
            cases += [("p_power", {"p": p, "m": m}, state(lambda x, y: pow(x, e, d) * y)),
                      ("p_power_T", {"p": p, "m": m}, state(lambda x, y: x * pow(y, e, d)))]
        if d == 4:
            cases += [("f22", None, state(lambda x, y: x * y * (x + y + 2))),
                      ("h4", None, state(lambda x, y: x * y * (x + y + 3)))]
        one = functools.partial(pow, exp=d - 1, mod=d)  # 1 for x > 0, 0 at 0
        for k in (None, *range(-1, d + 1)):
            c = 1 if k is None else k
            params = None if k is None else {"k": k}
            cases += [("rank2_f", params, state(lambda x, y, c=c: c * one(x) * y)),
                      ("rank2_g", params, state(lambda x, y, c=c: c * x * one(y))),
                      ("rank2_h", params, state(lambda x, y, c=c: c * one(x) * one(y)))]
        return cases

    @pytest.mark.parametrize("d", range(2, 13))
    def test_table_matches_closed_forms(self, d):
        for name, params, f in self.closed_forms(d):
            assert special_function(name, d, params) == f, (name, params)

    def test_every_entry_has_a_closed_form(self):
        names = {name for d in range(2, 13) for name, _, _ in self.closed_forms(d)}
        assert names == set(classify.NAMED_POLYNOMIALS)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_wrong_d_and_parameters_raise(self, d):
        for name, params in [("m_over_r", {"r": r}) for r in range(1, 13) if d % r] + [
            (name, {"p": p, "m": m}) for name in ("p_power", "p_power_T")
            for p in (2, 3, 5, 7, 11) for m in (1, 2, 3) if p**m != d
        ] + [(name, None) for name in ("f22", "h4") if d != 4] + [
            (name, None) for name in ("f32_fixture", "s6_fixture") if d != 6
        ]:
            with pytest.raises(ValueError):
                special_function(name, d, params)

    @pytest.mark.parametrize("alias, d", [("s6", 4), ("f32", 5), ("f22", 6), ("h4", 3)])
    def test_cli_named_state_at_wrong_d_exits_1(self, alias, d, capsys):
        assert cli.main(["query", "--d", str(d), "--f", alias, "--ops", "it"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")

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
