"""FP group algebra, local elements, dephasing, row/column operations."""
import itertools
import random

import numpy as np
import pytest

from ffe.fpops import (
    DephasedForm,
    FPElement,
    LFPElement,
    dephase,
    random_lfp,
)
from ffe.ring import ArityError, FiniteFunction, ResidueError

from scaffolding import image_matrix_row_col_ops, is_dephased


def random_function(d, n, rng):
    return FiniteFunction(d, n, [rng.randrange(d) for _ in range(d**n)])


def random_fp(d, n, rng):
    perm = list(range(d**n))
    rng.shuffle(perm)
    return FPElement(rng.randrange(d), perm, random_function(d, n, rng))


def all_fp_elements(d, n):
    size = d**n
    for phase in range(d):
        for perm in itertools.permutations(range(size)):
            for vals in itertools.product(range(d), repeat=size):
                yield FPElement(phase, perm, FiniteFunction(d, n, vals))


class TestFPAction:
    def test_identity(self):
        rng = random.Random(0)
        g = random_function(3, 2, rng)
        out, phase = FPElement.identity(3, 2).apply(g)
        assert out == g and phase == 0

    def test_z_adds_phase_function(self):
        rng = random.Random(1)
        f, g = random_function(3, 2, rng), random_function(3, 2, rng)
        out, phase = FPElement.z_element(f).apply(g)
        assert out == f + g and phase == 0

    def test_action_is_homomorphism_exhaustive_d2_n1(self):
        gs = [FiniteFunction(2, 1, vals) for vals in itertools.product(range(2), repeat=2)]
        elements = list(all_fp_elements(2, 1))
        for a in elements:
            for b in elements:
                ab = a.multiply(b)
                for g in gs:
                    via_b, pb = b.apply(g)
                    via_a, pa = a.apply(via_b)
                    direct, pd = ab.apply(g)
                    assert direct == via_a
                    assert pd == (pa + pb) % 2

    def test_action_homomorphism_random_d4(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b = random_fp(4, 2, rng), random_fp(4, 2, rng)
            g = random_function(4, 2, rng)
            via_b, pb = b.apply(g)
            via_a, pa = a.apply(via_b)
            direct, pd = a.multiply(b).apply(g)
            assert direct == via_a and pd == (pa + pb) % 4


class TestFPGroup:
    def test_z_multiplication(self):
        rng = random.Random(3)
        f, g = random_function(3, 2, rng), random_function(3, 2, rng)
        assert FPElement.z_element(f).multiply(FPElement.z_element(g)) == FPElement.z_element(f + g)

    def test_z_elements_commute_exhaustive_d3_n1(self):
        fs = [FiniteFunction(3, 1, vals) for vals in itertools.product(range(3), repeat=3)]
        for f in fs:
            for g in fs:
                zf, zg = FPElement.z_element(f), FPElement.z_element(g)
                assert zf.multiply(zg) == zg.multiply(zf)

    def test_inverse(self):
        rng = random.Random(4)
        for _ in range(50):
            a = random_fp(3, 2, rng)
            assert a.multiply(a.inverse()) == FPElement.identity(3, 2)
            assert a.inverse().multiply(a) == FPElement.identity(3, 2)

    def test_associativity_random(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (random_fp(3, 2, rng) for _ in range(3))
            assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))

    def test_commutation_relation(self):
        # X_pi Z_h and Z_h X_pi differ by the phase-function substitution:
        # Z_h X_pi = X_pi Z_{h o pi}
        rng = random.Random(6)
        for _ in range(30):
            h = random_function(3, 2, rng)
            perm = list(range(9))
            rng.shuffle(perm)
            x = FPElement.x_element(3, 2, perm)
            z = FPElement.z_element(h)
            assert z.multiply(x) == x.multiply(
                FPElement.z_element(h.compose_global_permutation(perm))
            )

    def test_plus_cycle_order_d(self):
        d = 5
        shift = [(k + 1) % d for k in range(d)]
        x = FPElement.x_element(d, 1, shift)
        acc = FPElement.identity(d, 1)
        for _ in range(d):
            acc = acc.multiply(x)
        assert acc == FPElement.identity(d, 1)


class TestLFP:
    def test_lift_identity(self):
        assert LFPElement.identity(3, 2).lift() == FPElement.identity(3, 2)

    def test_lift_site_shift(self):
        d = 3
        shift = tuple((k + 1) % d for k in range(d))
        ident = tuple(range(d))
        el = LFPElement(d, [(shift, (0,) * d), (ident, (0,) * d)])
        lifted = el.lift()
        g = FiniteFunction.from_callable(d, 2, lambda x: x[0] * x[1] % d)
        out, _ = lifted.apply(g)
        # X_pi |g> = |g o pi^{-1}>: the first argument is shifted down
        expect = FiniteFunction.from_callable(d, 2, lambda x: (x[0] - 1) * x[1] % d)
        assert out == expect

    def test_lift_is_homomorphism(self):
        rng = random.Random(7)
        for seed in range(30):
            a = random_lfp(3, 2, 2 * seed)
            b = random_lfp(3, 2, 2 * seed + 1)
            assert a.multiply(b).lift() == a.lift().multiply(b.lift())

    def test_json_round_trip(self):
        el = random_lfp(4, 2, 99)
        assert LFPElement.from_json(el.to_json()) == el

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
    def test_non_integer_phases_rejected(self, bad):
        ident = (0, 1, 2)
        with pytest.raises(ResidueError):
            LFPElement(3, [((1, 2, 0), (bad, 0, 0)), (ident, (0, 0, 0))])
        with pytest.raises(ResidueError):
            LFPElement(3, [(ident, (0, 0, 0))], global_phase=bad)
        with pytest.raises(ResidueError):
            FPElement(bad, range(3), FiniteFunction.zero(3, 1))

    def test_float_and_bool_phases_of_one_site_rejected(self):
        with pytest.raises(ResidueError):
            LFPElement(3, [((1, 2, 0), (1.5, True, 0)), ((0, 1, 2), (0, 0, 0))])

    def test_numpy_integer_phases_accepted(self):
        el = LFPElement(3, [((1, 2, 0), np.array([4, 0, 2])), ((0, 1, 2), (0, 0, 0))], np.int64(5))
        assert el == LFPElement(3, [((1, 2, 0), (1, 0, 2)), ((0, 1, 2), (0, 0, 0))], 2)
        assert FPElement(np.int64(4), range(3), FiniteFunction.zero(3, 1)).phase == 1

    @pytest.mark.parametrize("d,sites", [
        (3, []),
        (1, [((0,), (0,))]),
        (13, [(tuple(range(13)), (0,) * 13)]),
        (2, [((0, 1), (0, 0))] * 5),
    ])
    def test_shape_checked(self, d, sites):
        with pytest.raises(ArityError):
            LFPElement(d, sites)

    @pytest.mark.parametrize("text", ['{"sites": []}', '{"global_phase": 1}', '[]', '{"sites": 3}'])
    def test_from_json_requires_sites(self, text):
        with pytest.raises(ArityError):
            LFPElement.from_json(text)

    def test_product_shape_mismatch(self):
        with pytest.raises(ArityError):
            random_lfp(3, 2, 0).multiply(random_lfp(3, 1, 0))
        with pytest.raises(ArityError):
            random_lfp(3, 2, 0).multiply(random_lfp(4, 2, 0))

    def test_seed_stability_and_coverage(self):
        assert random_lfp(3, 2, 42) == random_lfp(3, 2, 42)
        perms = {random_lfp(2, 1, s).sites[0][0] for s in range(50)}
        assert perms == {(0, 1), (1, 0)}


class TestDephase:
    def test_already_dephased(self):
        f = FiniteFunction.from_matrix(3, [[0, 0, 0], [0, 1, 2], [0, 2, 1]])
        form = dephase(f)
        assert form.representative == f
        assert form.correction.lift().apply(f)[0] == f

    def test_axis_terms_removed(self):
        f = FiniteFunction.from_callable(2, 2, lambda x: (x[0] + x[1] + x[0] * x[1]) % 2)
        xy = FiniteFunction.from_callable(2, 2, lambda x: x[0] * x[1] % 2)
        assert dephase(f).representative == xy

    def test_idempotent_and_correction_reaches_rep(self):
        rng = random.Random(8)
        for _ in range(50):
            f = random_function(4, 2, rng)
            form = dephase(f)
            assert is_dephased(form.representative)
            assert dephase(form.representative).representative == form.representative
            out, phase = form.correction.lift().apply(f)
            assert out == form.representative and phase == 0

    def test_correction_unique_among_local_z_d3(self):
        # exactly one local Z element (phases only) maps f to a dephased form
        rng = random.Random(9)
        f = random_function(3, 2, rng)
        ident = tuple(range(3))
        outputs = set()
        totals = set()
        hits = 0
        for h1 in itertools.product(range(3), repeat=3):
            for h2 in itertools.product(range(3), repeat=3):
                el = LFPElement(3, [(ident, h1), (ident, h2)])
                out, _ = el.lift().apply(f)
                if is_dephased(out):
                    hits += 1
                    outputs.add(tuple(out.as_matrix()[x][y] for x in range(3) for y in range(3)))
                    totals.add(
                        tuple((h1[x] + h2[y]) % 3 for x in range(3) for y in range(3))
                    )
        # the overall constant can sit on either site, so d phase pairs work,
        # but they share a single total phase function and a single output
        assert hits == 3
        assert len(outputs) == 1
        assert len(totals) == 1

    def test_n3_axes_zeroed(self):
        rng = random.Random(10)
        f = random_function(3, 3, rng)
        rep = dephase(f).representative
        for i in range(3):
            for k in range(3):
                x = tuple(k if j == i else 0 for j in range(3))
                assert rep.eval(x) == 0

    def test_n1(self):
        f = FiniteFunction(3, 1, [2, 1, 0])
        assert dephase(f).representative == FiniteFunction(3, 1, [0, 2, 1])


class TestRowColOps:
    def test_identity(self):
        rng = random.Random(11)
        f = random_function(3, 2, rng)
        assert image_matrix_row_col_ops(f) == f

    def test_agrees_with_lifted_action(self):
        from ffe.ring import invert_permutation

        rng = random.Random(12)
        d = 3
        for _ in range(30):
            f = random_function(d, 2, rng)
            el = random_lfp(d, 2, rng.randrange(10**6))
            (p1, h1), (p2, h2) = el.sites
            out, _ = el.lift().apply(f)
            # X_pi Z_h |f> = |(f+h) o pi^{-1}>: add the per-site phases as
            # row/column constants, then permute rows/columns by pi^{-1}
            with_phases = image_matrix_row_col_ops(f, row_phases=h1, col_phases=h2)
            direct = image_matrix_row_col_ops(
                with_phases,
                row_perm=invert_permutation(p1),
                col_perm=invert_permutation(p2),
            )
            assert out == direct

    def test_arity_guard(self):
        with pytest.raises(ArityError):
            image_matrix_row_col_ops(FiniteFunction.zero(3, 1))

    def test_row_swap_then_dephase_stays_in_orbit(self):
        from exact_oracles import lfp_orbit

        f = FiniteFunction.from_matrix(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        orbit = lfp_orbit(f)
        swapped = image_matrix_row_col_ops(f, row_perm=(1, 0, 2))
        assert dephase(swapped).representative in orbit
