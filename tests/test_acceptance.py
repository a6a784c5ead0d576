"""End-to-end acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail line in `pytest -v`. Timing checks use
generous multiples of the intended targets so they stay meaningful without
flaking on slow machines; the measured times are printed on failure.
"""
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from ffe import classify
from ffe.classify import (
    classify_lfp,
    classify_lu,
    dephased_polynomial_index,
    haagerup_histogram,
    invariant_It,
    invariant_row_signature,
    lower_bound,
    special_function,
)
from ffe.fpops import dephase, random_lfp
from ffe.linalg import (
    char_poly_coeffs,
    is_butson_hadamard,
    normalized_trace_powers,
    subspace_maximally_entangled,
)
from ffe.polynomials import (
    enumerate_polynomial_functions,
    is_polynomial,
    parse_polynomial,
)
from ffe.ring import FiniteFunction
from ffe.stabilizer import (
    CycleSpec,
    complete_set,
    internally_commutes,
    make_stabilizer,
    plus_cycle,
    unique_fixed_space_dim,
)
from ffe.verify import verify_appendix

from exact_oracles import kummer_check, rank2_trace_formula, verify_lu_map_f4_f22
from scaffolding import key_to_function


def _class_id_of(cat, f):
    # the lexmin comes from the orbit closure, which shares no code with the
    # canonical form that grouped the polynomial-scope catalogue
    seed = dephase(f).representative.image().astype(np.uint8)
    best = classify._orbit(seed)[0].tobytes()
    for rec in cat.orbits:
        if rec.representative == best:
            return rec.lfp_class_id
    raise AssertionError(f"state not found in the d={cat.d} {cat.scope} catalogue")


def _cycle_type(perm):
    seen, lengths = set(), []
    for start in perm:
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


@functools.lru_cache(maxsize=None)
def _burnside_terms(d):
    """Burnside's-lemma terms of the number of LFP classes at d (two sites).

    Oracle independent of the orbit closure: a pair (sigma, tau) in S_d x S_d
    acts on dephased matrices by permuting rows and columns and dephasing
    again, so the class count is the mean number of fixed dephased matrices.
    That number depends only on the cycle types, which key the returned
    shares |class(sigma)| |class(tau)| |Fix| / (d!)^2; the identity's share
    is d^((d-1)^2) / (d!)^2.
    """
    cores = itertools.product(range(d), repeat=(d - 1) ** 2)
    mats = np.zeros((d ** ((d - 1) ** 2), d, d), dtype=np.int64)
    mats[:, 1:, 1:] = np.array(list(cores)).reshape(-1, d - 1, d - 1)
    classes = {}
    for perm in itertools.permutations(range(d)):
        ctype = _cycle_type(perm)
        size, rep = classes.get(ctype, (0, perm))
        classes[ctype] = (size + 1, rep)
    terms = {}
    for (ts, (ns, s)), (tt, (nt, t)) in itertools.product(classes.items(), repeat=2):
        moved = mats[:, s][:, :, t]
        moved = (moved - moved[:, :, :1] - moved[:, :1, :] + moved[:, :1, :1]) % d
        fixed = int(np.all(moved == mats, axis=(1, 2)).sum())
        terms[ts, tt] = Fraction(ns * nt * fixed, math.factorial(d) ** 2)
    return terms


def test_burnside_oracle_matches_orbit_closure_small_d():
    for d, count in ((2, 2), (3, 9)):
        assert sum(_burnside_terms(d).values()) == count
        assert len(classify_lfp(d, "all").orbits) == count


def test_burnside_identity_term_is_lower_bound():
    for d, bound in ((3, 3), (4, 456)):
        identity = (1,) * d
        assert math.ceil(_burnside_terms(d)[identity, identity]) == bound
        assert lower_bound(d, 2) == bound


def _dephased_cores_d3():
    for vals in itertools.product(range(3), repeat=4):
        a, b, c, dd = vals
        yield FiniteFunction.from_matrix(3, [[0, 0, 0], [0, a, b], [0, c, dd]])


def test_criterion_01_d2_two_classes():
    start = time.monotonic()
    cat = classify_lu(classify_lfp(2, "all"))
    elapsed = time.monotonic() - start
    assert len(cat.orbits) == 2
    assert len(cat.lu_classes) == 2
    assert elapsed < 10, f"d=2 classification took {elapsed:.1f}s"


def test_criterion_02_d3_class_table():
    start = time.monotonic()
    cat = classify_lu(classify_lfp(3, "all"))
    elapsed = time.monotonic() - start
    sizes = sorted(rec.orbit_size for rec in cat.orbits)
    assert sizes == sorted([1, 9, 9, 6, 6, 18, 18, 12, 2])
    assert sum(sizes) == 81
    assert len(cat.lu_classes) == 6
    report = verify_appendix(3)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    assert elapsed < 10, f"d=3 classification took {elapsed:.1f}s"


def test_criterion_03_d4_all_states_classes(request):
    start = time.monotonic()
    cat = request.getfixturevalue("cat4_full")
    elapsed = time.monotonic() - start
    assert len(cat.lu_classes) == 127
    hadamard_ids = [
        rec.lfp_class_id
        for rec in cat.orbits
        if is_butson_hadamard(key_to_function(4, rec.representative))
    ]
    assert len(hadamard_ids) == 2
    xy = special_function("fourier", 4)
    other = parse_polynomial("x*y^2 + x^2*y + 2*x*y", 4, 2).to_function()
    assert {_class_id_of(cat, xy), _class_id_of(cat, other)} == set(hadamard_ids)
    assert elapsed < 3000, f"d=4 classification took {elapsed:.1f}s"
    # the reference material states 807; Burnside's lemma refutes it (see
    # "Notes on reference-table conformance" in the README)
    assert sum(_burnside_terms(4).values()) == 682
    assert len(cat.orbits) == 682, (
        f"computed {len(cat.orbits)} LFP classes at d=4 (all states); "
        "Burnside's lemma over S_4 x S_4 gives 682"
    )


def test_criterion_04_d4_polynomial_scope_tables():
    start = time.monotonic()
    report = verify_appendix(4)
    elapsed = time.monotonic() - start
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    assert elapsed < 600, f"d=4 polynomial-scope check took {elapsed:.1f}s"


def test_criterion_05_d6_polynomial_scope_tables(request):
    start = time.monotonic()
    report = verify_appendix(6)
    cat = request.getfixturevalue("cat6_teh")
    elapsed = time.monotonic() - start
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    assert len(cat.lu_classes) == 12
    print(
        f"d=6 polynomial scope: {len(cat.orbits)} LFP classes computed; "
        f"{report['merged_listing_pairs']} transpose-pair listings merged"
    )
    sv_checks = [c for c in report["checks"] if c["check"].endswith("singular_values")]
    assert len(sv_checks) >= 5 and all(c["ok"] for c in sv_checks)
    two_xy = special_function("m_over_r", 6, {"r": 3})  # 2xy
    three_xy = special_function("m_over_r", 6, {"r": 2})  # 3xy
    rep2 = key_to_function(6, cat.orbits[_class_id_of(cat, two_xy)].representative)
    rep3 = key_to_function(6, cat.orbits[_class_id_of(cat, three_xy)].representative)
    assert subspace_maximally_entangled(rep2, 3)
    assert subspace_maximally_entangled(rep3, 2)
    xy = special_function("fourier", 6)
    f32 = special_function("f32_fixture", 6)
    s6 = special_function("s6_fixture", 6)
    assert _class_id_of(cat, xy) == _class_id_of(cat, f32)
    # s6 is not polynomial and its whole orbit misses the polynomial images,
    # so it forms its own class outside the polynomial-scope catalogue
    assert is_polynomial(s6) is None
    s6_orbit = classify._orbit(dephase(s6).representative.image().astype(np.uint8))
    index = b"".join(dephased_polynomial_index(6))
    index_keys = classify._void_keys(np.frombuffer(index, dtype=np.uint8).reshape(-1, 6, 6))
    pos = np.minimum(np.searchsorted(s6_orbit, index_keys), len(s6_orbit) - 1)
    assert not (s6_orbit[pos] == index_keys).any()
    assert elapsed < 6000, f"d=6 polynomial-scope check took {elapsed:.1f}s"


def test_criterion_06_lower_bounds():
    start = time.monotonic()
    assert lower_bound(3, 2) == 3
    assert lower_bound(4, 2) == 456
    assert lower_bound(5, 2) == 10596382
    assert lower_bound(3, 3) == 16142521
    assert time.monotonic() - start < 10


def test_criterion_07_polynomial_counts():
    start = time.monotonic()
    expected = {3: 19683, 4: 65536, 6: 314928}
    for d, count in expected.items():
        seen = set()
        total = 0
        for _, func in enumerate_polynomial_functions(d, 2):
            seen.add(func.values)
            total += 1
        assert total == count, f"d={d}: enumerated {total}, expected {count}"
        assert len(seen) == count, f"d={d}: only {len(seen)} distinct images"
    assert is_polynomial(special_function("s6_fixture", 6)) is None
    assert is_polynomial(special_function("f32_fixture", 6)) is None
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"polynomial enumeration took {elapsed:.1f}s"


def test_criterion_08_stabilizer_suite():
    start = time.monotonic()
    rng = random.Random(2026)
    for d in (2, 3, 4):
        size = d * d
        for _ in range(3334):
            f = FiniteFunction(d, 2, [rng.randrange(d) for _ in range(size)])
            perm = tuple(rng.sample(range(size), size))
            out, phase = make_stabilizer(f, perm).apply(f)
            assert out == f and phase == 0
    for d in (2, 3):
        cycles = CycleSpec(d, [plus_cycle(d)] * 2)
        for core in itertools.product(range(d), repeat=(d - 1) ** 2):
            mat = [[0] * d for _ in range(d)]
            for idx, v in enumerate(core):
                mat[1 + idx // (d - 1)][1 + idx % (d - 1)] = v
            f = FiniteFunction.from_matrix(d, mat)
            assert unique_fixed_space_dim(complete_set(f, cycles)) == 1
    plus = plus_cycle(3)
    for coeffs in itertools.product(range(3), repeat=4):
        a, b, c, e = coeffs
        f = FiniteFunction.from_callable(
            3, 2, lambda x: (a * x[0] * x[1] + b * x[0] + c * x[1] + e) % 3
        )
        assert internally_commutes(f, 0, plus)
        assert internally_commutes(f, 1, plus)
    x2y = FiniteFunction.from_callable(3, 2, lambda x: x[0] * x[0] * x[1] % 3)
    assert not internally_commutes(x2y, 0, plus)
    elapsed = time.monotonic() - start
    assert elapsed < 1200, f"stabilizer suite took {elapsed:.1f}s"


def test_criterion_09_closed_form_checks():
    failures = []

    # exact tr(rho^2) and tr(rho^3) for every dephased d=3 core, against the
    # trigonometric closed forms in the core entries a, b, c, d'
    def cos3(x):
        return math.cos(2 * math.pi * (x % 3) / 3)

    for f in _dephased_cores_d3():
        m = f.as_matrix()
        a, b, c, dd = m[1][1], m[1][2], m[2][1], m[2][2]
        nine = (
            cos3(a) + cos3(b) + cos3(c) + cos3(dd)
            + cos3(a - b) + cos3(a - c) + cos3(b - dd) + cos3(c - dd)
            + cos3(a - b - c + dd)
        )
        six = (
            cos3(a - dd) + cos3(b - c) + cos3(a - b - c)
            + cos3(a - b + dd) + cos3(a - c + dd) + cos3(b + c - dd)
        )
        t2, t3 = (t.to_complex().real for t in normalized_trace_powers(f, 3))
        if abs(t2 - (5 / 9 + 4 / 81 * nine)) > 1e-9:
            failures.append(f"tr rho^2 closed form off for core {(a, b, c, dd)}")
        if abs(t3 - (29 / 81 + 16 / 243 * nine + 2 / 243 * six)) > 1e-9:
            failures.append(f"tr rho^3 closed form off for core {(a, b, c, dd)}")

    # rank-2 two-output formula against exact trace powers, exhaustively
    for d in (3, 5):
        for outputs in itertools.combinations(range(d), 2):
            for mask in range(1, 2**d - 1):
                g = [outputs[(mask >> i) & 1] for i in range(d)]
                n1 = g.count(outputs[0])
                f = FiniteFunction.from_callable(d, 2, lambda x: x[0] * g[x[1]] % d)
                exact = normalized_trace_powers(f, 2)[0].as_fraction()
                if exact != rank2_trace_formula(d, n1, d - n1):
                    failures.append(f"rank-2 formula off for d={d}, g={g}")

    # c2 coefficient for h = k x^(d-1) y^(d-1) against its closed form. For
    # prime d, h is k off the zero row and column, so the amplitude matrix has
    # two distinct rows, (1, ..., 1)/d and (1, w^k, ..., w^k)/d with w = e^(2 pi
    # i/d), and rho_A is rank 2. Direct summation of |<row, row'>|^2 gives
    # tr rho^2 = 1 - 4(d-1)^2 (1 - cos(2 pi k/d)) / d^4. Newton's identity
    # c2 = e2 = ((tr rho)^2 - tr rho^2) / 2 then yields the form below, which
    # is >= 0 as e2 of a positive semidefinite matrix must be (the reference
    # form 2(d-1)^2/d^4 cos(2 pi k/d) is negative at d=5, k=2)
    for d in (5, 7):
        for k in range(1, d):
            f = special_function("rank2_h", d, {"k": k})
            c2 = char_poly_coeffs(f)[1].to_complex().real
            derived = 2 * (d - 1) ** 2 / d**4 * (1 - math.cos(2 * math.pi * k / d))
            if abs(c2 - derived) > 1e-9:
                failures.append(
                    f"c2 closed form off for d={d}, k={k}: exact {c2:.9f} vs "
                    f"2(d-1)^2/d^4 (1 - cos(2 pi k/d)) = {derived:.9f}"
                )

    for p in (2, 3, 5):
        for m in range(1, 6):
            for k in range(1, p ** (m - 1) + 1):
                if not kummer_check(p, m, k):
                    failures.append(f"kummer check false at p={p}, m={m}, k={k}")

    assert not failures, "\n".join(failures[:12])


def test_criterion_10_lu_map_fixture():
    assert verify_lu_map_f4_f22(tol=1e-9)


def test_criterion_11_invariance_under_lfp():
    for d in (3, 4, 6):
        rng = random.Random(d)
        tested = [
            special_function("fourier", d),
            FiniteFunction(d, 2, [rng.randrange(d) for _ in range(d * d)]),
        ]
        if d == 6:
            tested.append(special_function("s6_fixture", 6))
        for f in tested:
            base = (
                invariant_It(f),
                invariant_row_signature(f, 0),
                invariant_row_signature(f, 1),
                haagerup_histogram(f),
            )
            for seed in range(1000):
                g, _ = random_lfp(d, 2, seed).lift().apply(f)
                now = (
                    invariant_It(g),
                    invariant_row_signature(g, 0),
                    invariant_row_signature(g, 1),
                    haagerup_histogram(g),
                )
                assert now == base, f"invariant drift at d={d}, seed={seed}"


def test_criterion_12_thread_determinism():
    one = classify_lfp(4, "all", threads=1).to_json()
    eight = classify_lfp(4, "all", threads=8).to_json()
    assert one == eight
