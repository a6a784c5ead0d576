"""Finite functions: indexing, modular arithmetic, composition, serialization;
the shared immutable value type."""
import ast
import copy
import itertools
import json
import pathlib
import pickle
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffe
from ffe import classify, linalg
from ffe.cyclo import CyclotomicInt, CyclotomicRat
from ffe.fpops import DephasedForm, FPElement, LFPElement
from ffe.polynomials import Polynomial, TensorEdgeHypergraph
from ffe.ring import (
    ArityError,
    FiniteFunction,
    PermutationError,
    ResidueError,
    check_permutation,
    compose_index_maps,
    function_from_json,
    invert_permutation,
    parse_function,
    prime_power_factors,
    read_json,
    site_permutation_as_global,
)
from ffe.stabilizer import CycleSpec, StabilizerSet

from scaffolding import emit_function, image_matrix_row_col_ops


def random_function(d, n, rng):
    return FiniteFunction(d, n, [rng.randrange(d) for _ in range(d**n)])


def random_perm(size, rng):
    perm = list(range(size))
    rng.shuffle(perm)
    return tuple(perm)


functions = st.integers(2, 5).flatmap(
    lambda d: st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.integers(0, d - 1), min_size=d**n, max_size=d**n
        ).map(lambda vals: FiniteFunction(d, n, vals))
    )
)


class TestConstruction:
    def test_zero(self):
        f = FiniteFunction.zero(3, 2)
        assert f.eval((1, 2)) == 0
        assert f.values == (0,) * 9

    def test_values_reduced_mod_d(self):
        f = FiniteFunction(3, 1, [4, -1, 3])
        assert f.values == (1, 2, 0)

    def test_wrong_length(self):
        with pytest.raises(ArityError):
            FiniteFunction(3, 2, [0] * 8)

    def test_d_out_of_range(self):
        with pytest.raises(ArityError):
            FiniteFunction(1, 1, [0])
        with pytest.raises(ArityError):
            FiniteFunction(13, 1, [0] * 13)

    def test_immutable(self):
        f = FiniteFunction.zero(2, 1)
        with pytest.raises(AttributeError):
            f.d = 3

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", None, np.bool_(True)])
    def test_non_integer_values_rejected(self, bad):
        with pytest.raises(ResidueError):
            FiniteFunction(3, 2, [0] * 8 + [bad])
        with pytest.raises(ResidueError):
            FiniteFunction(3, 2, [bad] * 9)

    def test_numpy_integers_accepted_as_ints(self):
        for values in (np.arange(9), np.arange(9, dtype=np.uint8), [np.int64(4)] * 9):
            f = FiniteFunction(3, 2, values)
            assert f == FiniteFunction(3, 2, [int(v) for v in values])
            assert {type(v) for v in f.values} == {int}

    def test_from_matrix_row_is_first_argument(self):
        f = FiniteFunction.from_matrix(2, [[0, 1], [2, 3]])
        assert f.eval((1, 0)) == 2 % 2
        assert f.as_matrix() == [[0, 1], [0, 1]]


# Every entry that reads the image matrix of a bipartite function
BIPARTITE_ENTRIES = {
    "image": lambda f: f.image(),
    "as_matrix": lambda f: f.as_matrix(),
    "gram": linalg.gram,
    "trace_powers": linalg.trace_powers,
    "schmidt_rank": linalg.schmidt_rank,
    "char_poly_coeffs": linalg.char_poly_coeffs,
    "singular_values": linalg.singular_values,
    "is_butson_hadamard": linalg.is_butson_hadamard,
    "subspace_maximally_entangled": lambda f: linalg.subspace_maximally_entangled(f, 1),
    "haagerup_histogram": classify.haagerup_histogram,
    "invariants_fingerprint": classify.invariants_fingerprint,
    "lfp_orbit_keys": classify.lfp_orbit_keys,
    "membership_check": lambda f: classify.membership_check(f, f),
    "membership_check_of_bipartite": lambda f: classify.membership_check(
        FiniteFunction.zero(f.d, 2), f),
    "membership_check_against_bipartite": lambda f: classify.membership_check(
        f, FiniteFunction.zero(f.d, 2)),
    "image_matrix_row_col_ops": image_matrix_row_col_ops,
}


class TestImage:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_row_is_first_argument(self, d):
        f = random_function(d, 2, random.Random(d))
        m = f.image()
        assert m.dtype == np.int64 and m.shape == (d, d)
        assert all(m[x, y] == f.values[x * d + y] for x in range(d) for y in range(d))
        assert f.as_matrix() == m.tolist()

    @pytest.mark.parametrize("name", BIPARTITE_ENTRIES)
    @pytest.mark.parametrize("n", [1, 3])
    def test_only_bipartite_functions(self, name, n):
        f = random_function(3, n, random.Random(n))
        with pytest.raises(ArityError, match="^image matrix defined for n=2 only$"):
            BIPARTITE_ENTRIES[name](f)

    def test_image_is_the_one_view(self):
        """n != 2 and reshapes of .values to any shape but (d,) * n appear
        only in ring.py, and no module imports a private name of classify
        but _canonical_forms."""
        views = {}
        for path in sorted(pathlib.Path(ffe.__file__).parent.glob("*.py")):
            text = path.read_text()
            tree = ast.parse(text)
            views[path.name] = _bipartite_views(tree)
            if path.name != "ring.py":
                assert not re.search(r"\bn != 2\b", text), path.name
                assert not views[path.name], path.name
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module in ("classify", "ffe.classify"):
                    names = {alias.name for alias in node.names if alias.name.startswith("_")}
                    assert names <= {"_canonical_forms"}, path.name
        assert len(views["ring.py"]) == 1


def _bipartite_views(tree):
    """Line numbers of the reshapes of a .values attribute in tree whose
    shape is not one (d,) * n product."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reshape"):
            continue
        if isinstance(node.func.value, ast.Name) and node.func.value.id == "np":
            array, shape = node.args[0], node.args[1:]
        else:
            array, shape = node.func.value, node.args
        if any(isinstance(n, ast.Attribute) and n.attr == "values" for n in ast.walk(array)) and not (
            len(shape) == 1 and isinstance(shape[0], ast.BinOp) and isinstance(shape[0].op, ast.Mult)
        ):
            lines.append(node.lineno)
    return lines


class TestEval:
    def test_image_matrix_entry_of_2xy(self):
        f = FiniteFunction.from_callable(3, 2, lambda x: 2 * x[0] * x[1] % 3)
        assert f.eval((1, 1)) == 2

    def test_eval_matches_independent_table(self):
        rng = random.Random(0)
        for _ in range(20):
            f = random_function(3, 2, rng)
            table = {
                x: f.values[x[0] * 3 + x[1]]
                for x in itertools.product(range(3), repeat=2)
            }
            for x, v in table.items():
                assert f.eval(x) == v

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            FiniteFunction.zero(3, 2).eval((1,))


class TestArithmetic:
    @given(functions)
    def test_additive_inverse(self, f):
        assert f + (-f) == FiniteFunction.zero(f.d, f.n)

    @given(functions)
    def test_scale_by_zero_and_d(self, f):
        zero = FiniteFunction.zero(f.d, f.n)
        assert f.scale(0) == zero
        assert f.scale(f.d) == zero

    @given(functions, functions)
    def test_add_commutes(self, f, g):
        if (f.d, f.n) != (g.d, g.n):
            with pytest.raises(ArityError):
                _ = f + g
        else:
            assert f + g == g + f

    def test_scale_2xy_d6(self):
        xy = FiniteFunction.from_callable(6, 2, lambda x: x[0] * x[1] % 6)
        two_xy = FiniteFunction.from_callable(6, 2, lambda x: 2 * x[0] * x[1] % 6)
        assert xy.scale(2) == two_xy


class TestComposition:
    def test_site_identity(self):
        rng = random.Random(1)
        f = random_function(4, 2, rng)
        assert f.compose_site_permutation(0, range(4)) == f

    def test_site_shift_on_xy(self):
        d = 3
        f = FiniteFunction.from_callable(d, 2, lambda x: x[0] * x[1] % d)
        shifted = f.compose_site_permutation(0, [(k + 1) % d for k in range(d)])
        expect = FiniteFunction.from_callable(d, 2, lambda x: (x[0] + 1) * x[1] % d)
        assert shifted == expect

    def test_site_round_trip(self):
        rng = random.Random(2)
        for _ in range(25):
            f = random_function(3, 2, rng)
            perm = random_perm(3, rng)
            inv = invert_permutation(perm)
            assert f.compose_site_permutation(0, perm).compose_site_permutation(0, inv) == f

    def test_non_bijective_rejected(self):
        with pytest.raises(PermutationError):
            FiniteFunction.zero(3, 2).compose_site_permutation(0, [0, 0, 1])

    @pytest.mark.parametrize("perm", [5, None, "012", [1.0, 2, 0], [True, 2, False], [[0], 1, 2]])
    def test_non_integer_sequence_rejected(self, perm):
        # [1.0, 2, 0] and [True, 2, False] sort to [0, 1, 2], so only the
        # type check rejects them
        with pytest.raises(PermutationError):
            check_permutation(perm, 3)

    def test_integer_sequences_accepted(self):
        assert check_permutation([1, 2, 0], 3) == (1, 2, 0)
        assert check_permutation((1, 2, 0), 3) == (1, 2, 0)
        assert check_permutation(range(3), 3) == (0, 1, 2)

    @pytest.mark.parametrize("perm,ok", [
        (range(3), True),
        ([2, 0, 1], True),
        ((2, 0, 1), True),
        ([0, 1, True], False),
        ((0.0, 1.0, 2.0), False),
        ([np.int64(1), 2, 0], False),
        (tuple(np.arange(3)), False),
        (np.arange(3), False),
        ([1, 2, 0, 3], False),
        ([0, 0, 1], False),
    ])
    def test_type_pass_keeps_answers(self, perm, ok):
        # ints pass through the one type-set test; every other element type
        # is decided element by element, as before
        if ok:
            assert check_permutation(perm, 3) == tuple(perm)
        else:
            with pytest.raises(PermutationError):
                check_permutation(perm, 3)

    def test_global_identity(self):
        rng = random.Random(3)
        f = random_function(3, 2, rng)
        assert f.compose_global_permutation(range(9)) == f

    def test_site_lift_matches_global(self):
        rng = random.Random(4)
        for _ in range(10):
            f = random_function(3, 2, rng)
            perm = random_perm(3, rng)
            lifted = site_permutation_as_global(3, 2, 0, perm)
            assert f.compose_global_permutation(lifted) == f.compose_site_permutation(0, perm)

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_site_out_of_range(self, i):
        with pytest.raises(ArityError):
            site_permutation_as_global(3, 2, i, (1, 2, 0))
        with pytest.raises(ArityError):
            FiniteFunction.zero(3, 2).compose_site_permutation(i, (1, 2, 0))

    def test_global_composition_exhaustive_d2(self):
        # (f o sigma) o pi = f o (sigma o pi) over all index maps of Z_2^2
        fs = [FiniteFunction(2, 2, vals) for vals in itertools.product(range(2), repeat=4)]
        perms = list(itertools.permutations(range(4)))
        rng = random.Random(5)
        for _ in range(200):
            f = rng.choice(fs)
            sig, pi = rng.choice(perms), rng.choice(perms)
            lhs = f.compose_global_permutation(sig).compose_global_permutation(pi)
            rhs = f.compose_global_permutation(compose_index_maps(sig, pi))
            assert lhs == rhs


class TestDifference:
    def test_constant_gives_zero(self):
        f = FiniteFunction.zero(3, 2).add_constant(2)
        assert f.difference(0) == FiniteFunction.zero(3, 2)

    def test_xy_difference_is_y(self):
        d = 3
        f = FiniteFunction.from_callable(d, 2, lambda x: x[0] * x[1] % d)
        expect = FiniteFunction.from_callable(d, 2, lambda x: x[1])
        assert f.difference(0) == expect

    def test_telescoping(self):
        rng = random.Random(6)
        for _ in range(10):
            f = random_function(4, 2, rng)
            shift = tuple((k + 1) % 4 for k in range(4))
            total = FiniteFunction.zero(4, 2)
            g = f
            for _ in range(4):
                nxt = g.compose_site_permutation(0, shift)
                total = total + (nxt - g)
                g = nxt
            assert total == FiniteFunction.zero(4, 2)


class TestSerialization:
    @given(functions)
    @settings(max_examples=50)
    def test_round_trip(self, f):
        assert parse_function(emit_function(f)) == f

    def test_nested_format(self):
        f = parse_function('{"d":3,"n":2,"values":[[0,0,0],[0,1,2],[0,2,1]]}')
        assert f.eval((2, 2)) == 1

    def test_flat_requires_n(self):
        with pytest.raises(ArityError):
            parse_function('{"d":2,"values":[0,1,0,1]}')

    def test_out_of_range_residue(self):
        with pytest.raises(ArityError):
            parse_function('{"d":2,"n":1,"values":[0,3]}')

    @pytest.mark.parametrize("bad", ["true", "1.0", '"1"', "-1", "3", "[1]"])
    def test_non_residue_in_flat_values(self, bad):
        with pytest.raises(ArityError):
            parse_function(f'{{"d":3,"n":1,"values":[0,{bad},2]}}')

    def test_flat_and_nested_ints_parse(self):
        flat = parse_function('{"d":3,"n":2,"values":[0,0,0,0,1,2,0,2,1]}')
        assert flat == parse_function('{"d":3,"values":[[0,0,0],[0,1,2],[0,2,1]]}')
        assert flat.values == (0, 0, 0, 0, 1, 2, 0, 2, 1)

    def test_malformed_json(self):
        with pytest.raises(ArityError):
            parse_function("{not json")

    @pytest.mark.parametrize("d", [1, 2])
    def test_ragged_nesting_rejected(self, d):
        with pytest.raises(ArityError, match="ragged"):
            parse_function(f'{{"d":{d},"values":[[[0]],[0]]}}')

    def test_deep_singleton_nesting_reads_without_recursion(self):
        # d = 1 passes every level's length check, so the values are read
        # level by level to the bottom before the shape is checked
        depth = 5 * sys.getrecursionlimit()
        obj = {"d": 1, "values": 0}
        for _ in range(depth):
            obj["values"] = [obj["values"]]
        with pytest.raises(ArityError, match="outside supported range"):
            function_from_json(obj)


class TestReadJson:
    def test_reads_json(self):
        assert read_json('{"a": [1, 2]}', "x") == {"a": [1, 2]}

    def test_decode_error_passes_through(self):
        with pytest.raises(json.JSONDecodeError):
            read_json("[1,", "x")

    def test_nested_too_deeply(self):
        with pytest.raises(ArityError, match="^x is nested too deeply$"):
            read_json("[" * 100_000 + "]" * 100_000, "x")

    def test_integer_past_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ArityError, match=f"^x holds an integer of more than {limit} digits$"):
            read_json("[" + "7" * (limit + 1) + "]", "x")
        assert read_json("[" + "7" * limit + "]", "x")[0] % 10 == 7


def test_prime_power_factors():
    assert prime_power_factors(6) == ((2, 1), (3, 1))
    assert prime_power_factors(4) == ((2, 2),)
    assert prime_power_factors(12) == ((2, 2), (3, 1))
    assert prime_power_factors(7) == ((7, 1),)


def _value_instances():
    """(make, fields in slot order, repr), one per value class.  The reprs
    of DephasedForm, CycleSpec and StabilizerSet are Value's default; the
    others are those the classes printed before they shared it."""
    f = FiniteFunction(3, 1, (0, 1, 2))
    fp = FPElement(1, (1, 0, 2), f)
    lfp = LFPElement(3, [((0, 1, 2), (0, 0, 0))])
    sites = (((1, 2, 0), (0, 1, 2)), ((0, 1, 2), (2, 0, 0)))
    return [
        (lambda: FiniteFunction(3, 2, range(9)), (3, 2, (0, 1, 2) * 3),
         "FiniteFunction(d=3, n=2, values=(0, 1, 2, 0, 1, 2, 0, 1, 2))"),
        (lambda: Polynomial(3, 2, {(1, 1): 2, (2, 0): 1, (0, 0): 4}),
         (3, 2, (((0, 0), 1), ((1, 1), 2), ((2, 0), 1))),
         "Polynomial(d=3, n=2, '1 + 2*x*y + x^2')"),
        (lambda: TensorEdgeHypergraph(3, 2, {(0, 1): {(1, 1): 5}}),
         (3, 2, {(0, 1): {(1, 1): 2}}),
         "TensorEdgeHypergraph(d=3, n=2, edges={(0, 1): {(1, 1): 2}})"),
        (lambda: FPElement(4, (1, 0, 2), FiniteFunction(3, 1, (0, 1, 2))), (1, (1, 0, 2), f),
         "FPElement(phase=1, perm=(1, 0, 2), "
         "phase_fn=FiniteFunction(d=3, n=1, values=(0, 1, 2)))"),
        (lambda: LFPElement(3, [((1, 2, 0), (0, 1, 2)), ((0, 1, 2), (2, 0, 3))], 5),
         (3, sites, 2),
         "LFPElement(d=3, sites=(((1, 2, 0), (0, 1, 2)), ((0, 1, 2), (2, 0, 0))), "
         "global_phase=2)"),
        (lambda: DephasedForm(f, lfp), (f, lfp),
         "DephasedForm(representative=FiniteFunction(d=3, n=1, values=(0, 1, 2)), "
         "correction=LFPElement(d=3, sites=(((0, 1, 2), (0, 0, 0)),), global_phase=0))"),
        (lambda: CycleSpec(3, [(1, 2, 0)], [(0, 1, 2)]), (3, ((1, 2, 0),), ((0, 1, 2),)),
         "CycleSpec(d=3, cycles=((1, 2, 0),), witnesses=((0, 1, 2),))"),
        (lambda: StabilizerSet(f, CycleSpec(3, [(1, 2, 0)]), [fp]),
         (f, CycleSpec(3, [(1, 2, 0)]), (fp,)),
         "StabilizerSet(base=FiniteFunction(d=3, n=1, values=(0, 1, 2)), "
         "cycles=CycleSpec(d=3, cycles=((1, 2, 0),), witnesses=None), "
         "elements=(FPElement(phase=1, perm=(1, 0, 2), "
         "phase_fn=FiniteFunction(d=3, n=1, values=(0, 1, 2))),))"),
        (lambda: CyclotomicInt(4, (1, -2)), (4, (1, -2)),
         "CyclotomicInt(d=4, coeffs=(1, -2))"),
        (lambda: CyclotomicRat(CyclotomicInt(4, (2, 4)), -6),
         (CyclotomicInt(4, (-1, -2)), 3),
         "CyclotomicRat(CyclotomicInt(d=4, coeffs=(-1, -2)), 3)"),
    ]


VALUES = _value_instances()
NAMES = [type(make()).__name__ for make, _, _ in VALUES]


def _is_object_setattr(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


class TestValueTypes:
    """ring.Value's policy, for each class that shares it."""

    @pytest.mark.parametrize("make, fields, text", VALUES, ids=NAMES)
    def test_fields_can_be_neither_assigned_nor_deleted(self, make, fields, text):
        x = make()
        message = f"^{type(x).__name__} is immutable$"
        for slot in (*type(x).__slots__, "other"):
            with pytest.raises(AttributeError, match=message):
                setattr(x, slot, None)
            with pytest.raises(AttributeError, match=message):
                delattr(x, slot)
        assert tuple(getattr(x, slot) for slot in type(x).__slots__) == fields

    @pytest.mark.parametrize("make, fields, text", VALUES, ids=NAMES)
    def test_equal_fields_give_equal_values(self, make, fields, text):
        x, y = make(), make()
        assert x is not y and x == y and not x != y
        if isinstance(x, TensorEdgeHypergraph):  # its edges are a dict
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(y) == hash(fields)

    @pytest.mark.parametrize("make, fields, text", VALUES, ids=NAMES)
    def test_no_equality_across_types(self, make, fields, text):
        x = make()
        assert x != fields and x != object()
        assert all(x != other() for other, _, _ in VALUES if other is not make)

    def test_cyclotomic_int_is_not_the_equal_rational(self):
        one = CyclotomicInt.from_int(3, 1)
        assert one != CyclotomicRat(one) and CyclotomicRat(one) != one

    @pytest.mark.parametrize("make, fields, text", VALUES, ids=NAMES)
    def test_copy_and_pickle(self, make, fields, text):
        x = make()
        pickled = [pickle.loads(pickle.dumps(x, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (copy.copy(x), copy.deepcopy(x), *pickled):
            assert type(y) is type(x) and y == x
            assert tuple(getattr(y, slot) for slot in type(x).__slots__) == fields
            if not isinstance(x, TensorEdgeHypergraph):  # its edges are a dict
                assert hash(y) == hash(x)

    @pytest.mark.parametrize("make, fields, text", VALUES, ids=NAMES)
    def test_repr(self, make, fields, text):
        assert repr(make()) == text

    def test_policy_is_written_once(self):
        """Only ring.Value defines the policy and calls object.__setattr__;
        only it, Polynomial and CyclotomicRat define __repr__."""
        policy = {"__setattr__", "__delattr__", "__eq__", "__hash__"}
        bases = 0
        for path in sorted(pathlib.Path(ffe.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            setattrs = sum(map(_is_object_setattr, ast.walk(tree)))
            for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
                defined = {s.name for s in cls.body if isinstance(s, ast.FunctionDef)} | {
                    t.id for s in cls.body if isinstance(s, ast.Assign)
                    for t in s.targets if isinstance(t, ast.Name)
                }
                where = f"{path.name}: {cls.name}"
                if (path.name, cls.name) == ("ring.py", "Value"):
                    bases += 1
                    setattrs -= sum(map(_is_object_setattr, ast.walk(cls)))
                else:
                    assert not defined & policy, where
                    assert "__repr__" not in defined or cls.name in {
                        "Polynomial", "CyclotomicRat"
                    }, where
            assert setattrs == 0, path.name
        assert bases == 1
