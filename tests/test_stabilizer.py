"""Stabilizer construction, fixed-space dimension, commutativity criteria."""
import itertools
import random

import numpy as np
import pytest

from ffe.fpops import FPElement
from ffe.ring import ArityError, FiniteFunction, PermutationError, site_permutation_as_global
from ffe.stabilizer import (
    CycleSpec,
    StabilizerSet,
    complete_set,
    continuous_symmetry_predicate,
    internally_commutes,
    is_full_cycle,
    make_stabilizer,
    plus_cycle,
    unique_fixed_space_dim,
)

import exact_oracles as oracle
from scaffolding import internally_commuting_set_exists_for


def random_function(d, n, rng):
    return FiniteFunction(d, n, [rng.randrange(d) for _ in range(d**n)])


def random_global_perm(d, n, rng):
    perm = list(range(d**n))
    rng.shuffle(perm)
    return tuple(perm)


def numeric_fixed_space_dim(stab_set):
    """Independent oracle: nullspace dimension of the stacked (S - I) as
    complex matrices, via numpy SVD."""
    base = stab_set.base
    d = base.d
    size = d**base.n
    omega = np.exp(2j * np.pi / d)
    blocks = []
    for el in stab_set.elements:
        s = np.zeros((size, size), dtype=complex)
        for x in range(size):
            s[el.perm[x], x] = omega ** el.phase_fn.values[x]
        blocks.append(s - np.eye(size))
    stacked = np.vstack(blocks)
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv < 1e-9))


class TestCycleSpec:
    def test_plus_cycle(self):
        assert plus_cycle(4) == (1, 2, 3, 0)
        assert is_full_cycle(plus_cycle(5))
        assert not is_full_cycle((1, 0, 2))

    def test_rejects_non_cycle(self):
        with pytest.raises(PermutationError):
            CycleSpec(3, [(0, 1, 2)])

    def test_witness_verified(self):
        from ffe.ring import invert_permutation

        d = 4
        rng = random.Random(0)
        w = list(range(d))
        rng.shuffle(w)
        plus = plus_cycle(d)
        kappa = tuple(invert_permutation(w)[plus[w[k]]] for k in range(d))
        CycleSpec(d, [kappa], witnesses=[tuple(w)])

    def test_witness_mismatch_rejected(self):
        # 0 -> 2 -> 1 -> 3 -> 0 is a 4-cycle, but the identity witness
        # conjugates the +1 cycle to itself, not to this one
        with pytest.raises(PermutationError):
            CycleSpec(4, [(2, 3, 1, 0)], witnesses=[(0, 1, 2, 3)])


class TestMakeStabilizer:
    def test_zero_function_gives_pure_x(self):
        from ffe.ring import site_permutation_as_global

        f = FiniteFunction.zero(3, 2)
        perm = site_permutation_as_global(3, 2, 0, plus_cycle(3))
        s = make_stabilizer(f, perm)
        assert s.phase_fn == FiniteFunction.zero(3, 2)

    def test_xy_phase_function_is_y(self):
        from ffe.ring import site_permutation_as_global

        f = FiniteFunction.from_callable(3, 2, lambda x: x[0] * x[1] % 3)
        perm = site_permutation_as_global(3, 2, 0, plus_cycle(3))
        s = make_stabilizer(f, perm)
        assert s.phase_fn == FiniteFunction.from_callable(3, 2, lambda x: x[1])

    def test_stabilizes_randomized(self):
        rng = random.Random(1)
        for _ in range(1000):
            f = random_function(3, 2, rng)
            s = make_stabilizer(f, random_global_perm(3, 2, rng))
            out, phase = s.apply(f)
            assert out == f and phase == 0

    @pytest.mark.parametrize("d, n", [(2, 1), (3, 2), (4, 4), (5, 3), (6, 2), (7, 3), (12, 4)])
    def test_phase_function_is_the_difference(self, d, n):
        rng = random.Random(d * 10 + n)
        for _ in range(3):
            f = random_function(d, n, rng)
            perm = random_global_perm(d, n, rng)
            s = make_stabilizer(f, perm)
            assert s.phase_fn == f.compose_global_permutation(perm) - f
            assert {type(v) for v in s.phase_fn.values} == {int}

    @pytest.mark.parametrize("perm", [(0, 0, 1, 2, 3, 4, 5, 6, 7), tuple(range(8)), tuple(range(10))])
    def test_rejects_a_map_that_is_not_a_permutation(self, perm):
        with pytest.raises(PermutationError):
            make_stabilizer(FiniteFunction.zero(3, 2), perm)

    def test_stabilizes_exhaustive_global_perms_d2(self):
        rng = random.Random(2)
        f = random_function(2, 2, rng)
        for perm in itertools.permutations(range(4)):
            out, phase = make_stabilizer(f, perm).apply(f)
            assert out == f and phase == 0


class TestFixedSpace:
    def test_unique_for_complete_sets_small(self):
        for f in [
            FiniteFunction.from_callable(2, 2, lambda x: x[0] * x[1] % 2),
            FiniteFunction.from_callable(3, 2, lambda x: 2 * x[0] * x[1] % 3),
        ]:
            sset = complete_set(f, CycleSpec.plus_cycles(f.d, 2))
            assert unique_fixed_space_dim(sset) == 1

    def test_matches_numeric_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_function(3, 2, rng)
            sset = complete_set(f, CycleSpec.plus_cycles(3, 2))
            assert unique_fixed_space_dim(sset) == numeric_fixed_space_dim(sset)

    def test_dropping_one_stabilizer_frees_one_site(self):
        rng = random.Random(4)
        f = random_function(3, 2, rng)
        sset = complete_set(f, CycleSpec.plus_cycles(3, 2))
        partial = StabilizerSet(f, sset.cycles, sset.elements[:1])
        assert unique_fixed_space_dim(partial) == 3
        assert numeric_fixed_space_dim(partial) == 3

    @pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (6, 2)])
    def test_matches_exact_oracle(self, d, n):
        rng = random.Random(10 * d + n)
        cycles = CycleSpec.plus_cycles(d, n)
        swap = (1, 0) + tuple(range(2, d))  # fixes every point whose last x >= 2
        for _ in range(3):
            f = random_function(d, n, rng)
            full = complete_set(f, cycles)
            perms = [el.perm for el in full.elements]
            perms.append(site_permutation_as_global(d, n, n - 1, swap))
            sets = [
                full,
                StabilizerSet(f, cycles, full.elements[1:]),
                # random phase functions: mostly not stabilizers of anything
                StabilizerSet(f, cycles, [
                    FPElement(0, p, random_function(d, n, rng)) for p in perms[:2]
                ]),
                # self-loops: a fixed point x is consistent only if h(x) = 0
                StabilizerSet(f, cycles, [make_stabilizer(f, perms[-1])]),
                StabilizerSet(f, cycles, [FPElement(0, perms[-1], random_function(d, n, rng))]),
                StabilizerSet(f, cycles, [FPElement.z_element(random_function(d, n, rng))]),
            ]
            for sset in sets:
                dim = unique_fixed_space_dim(sset)
                assert dim == oracle.fixed_space_dim(sset) == numeric_fixed_space_dim(sset)

    def test_nonzero_global_phase_rejected(self):
        f = FiniteFunction.zero(3, 2)
        el = complete_set(f, CycleSpec.plus_cycles(3, 2)).elements[0]
        sset = StabilizerSet(f, None, [FPElement(1, el.perm, el.phase_fn)])
        with pytest.raises(ArityError):
            unique_fixed_space_dim(sset)

    @pytest.mark.parametrize("base_shape, el_shape", [((3, 2), (2, 2)), ((2, 2), (3, 2))])
    def test_elements_of_another_shape_rejected(self, base_shape, el_shape):
        g = FiniteFunction.zero(*el_shape)
        elements = complete_set(g, CycleSpec.plus_cycles(*el_shape)).elements
        sset = StabilizerSet(FiniteFunction.zero(*base_shape), None, elements)
        with pytest.raises(ArityError):
            unique_fixed_space_dim(sset)

    def test_one_inconsistent_row_by_hand(self):
        # pi cycles the second argument, so its orbits are the three rows;
        # the exponents along row 0 sum to 1 != 0 mod 3, so only rows 1, 2
        # leave a free amplitude
        f = FiniteFunction.zero(3, 2)
        perm = site_permutation_as_global(3, 2, 1, plus_cycle(3))
        h = FiniteFunction(3, 2, [1] + [0] * 8)
        sset = StabilizerSet(f, None, [FPElement(0, perm, h)])
        assert unique_fixed_space_dim(sset) == 2
        assert oracle.fixed_space_dim(sset) == numeric_fixed_space_dim(sset) == 2

    def test_largest_shape(self):
        f = random_function(12, 4, random.Random(12))
        sset = complete_set(f, CycleSpec.plus_cycles(12, 4))
        assert unique_fixed_space_dim(sset) == 1
        assert unique_fixed_space_dim(StabilizerSet(f, sset.cycles, sset.elements[1:])) == 12


class TestInternalCommutativity:
    def test_multilinear_pass_exhaustive(self):
        # all multilinear dephased cores at d=2 and d=3
        for d in (2, 3):
            for a in range(d):
                f = FiniteFunction.from_callable(d, 2, lambda x, a=a: a * x[0] * x[1] % d)
                for i in (0, 1):
                    assert internally_commutes(f, i, plus_cycle(d))

    def test_x2y_fails_at_site_1(self):
        f = FiniteFunction.from_callable(3, 2, lambda x: x[0] ** 2 * x[1] % 3)
        assert not internally_commutes(f, 0, plus_cycle(3))

    def test_constant_passes(self):
        f = FiniteFunction.zero(4, 2).add_constant(3)
        assert internally_commutes(f, 0, plus_cycle(4))

    def test_x2y_fails_for_every_witness(self):
        f = FiniteFunction.from_callable(3, 2, lambda x: x[0] ** 2 * x[1] % 3)
        for w1 in itertools.permutations(range(3)):
            for w2 in itertools.permutations(range(3)):
                assert not internally_commuting_set_exists_for(f, [w1, w2])

    def test_identity_witness_on_multilinear(self):
        f = FiniteFunction.from_callable(3, 2, lambda x: (x[0] * x[1] + 2 * x[0]) % 3)
        ident = tuple(range(3))
        assert internally_commuting_set_exists_for(f, [ident, ident])

    def test_zero_function(self):
        ident = tuple(range(4))
        assert internally_commuting_set_exists_for(FiniteFunction.zero(4, 2), [ident, ident])


class TestCommutingStabilizers:
    def test_commute_when_permutations_commute(self):
        from ffe.ring import compose_index_maps, site_permutation_as_global

        rng = random.Random(5)
        for _ in range(30):
            f = random_function(3, 2, rng)
            p1 = site_permutation_as_global(3, 2, 0, plus_cycle(3))
            p2 = site_permutation_as_global(3, 2, 1, plus_cycle(3))
            assert compose_index_maps(p1, p2) == compose_index_maps(p2, p1)
            s1, s2 = make_stabilizer(f, p1), make_stabilizer(f, p2)
            assert s1.multiply(s2) == s2.multiply(s1)


class TestContinuousSymmetry:
    def test_sum_form_passes(self):
        d = 3
        f = FiniteFunction.from_callable(
            d, 3, lambda x: (x[0] + x[1]) * x[2] % d
        )
        assert continuous_symmetry_predicate(f, plus_cycle(d))

    def test_product_fails(self):
        f = FiniteFunction.from_callable(3, 2, lambda x: x[0] * x[1] % 3)
        assert not continuous_symmetry_predicate(f, plus_cycle(3))

    def test_constant_passes(self):
        f = FiniteFunction.zero(3, 2).add_constant(1)
        for sigma in itertools.permutations(range(3)):
            assert continuous_symmetry_predicate(f, sigma)

    @pytest.mark.parametrize("sites", [(0, 0), (0, 5), (-1, 0), (0,), (0, 1, 2), (True, 0), (0.0, 1)])
    def test_sites_validated(self, sites):
        # (0, 0) used to hold trivially, (0, 5) raised IndexError and
        # (-1, 0) read the last site
        f = FiniteFunction.from_callable(3, 2, lambda x: x[0] * x[1] % 3)
        with pytest.raises(ArityError):
            continuous_symmetry_predicate(f, plus_cycle(3), sites)
