"""The benchmark's own oracles, and that its checks catch wrong outputs.

Run with: python3 -m pytest perfbench/tests
"""
import json
import random

import numpy as np
import pytest

import oracles
import workloads
from ffe.classify import classify_lfp, classify_lu
from ffe.polynomials import is_polynomial
from ffe.ring import FiniteFunction


@pytest.mark.parametrize("d, count", [(2, 2), (3, 9), (4, 682)])
def test_burnside_count(d, count):
    assert oracles.burnside_lfp_classes(d) == count


def test_spectrum_grouping_gives_six_lu_classes_at_d3():
    mats = [np.array([[0, 0, 0], [0, a, b], [0, c, e]])
            for a in range(3) for b in range(3) for c in range(3) for e in range(3)]
    spectra = [oracles.rho_spectrum(m, 3) for m in mats]
    assert len(oracles.lu_groups(spectra)) == 6


def test_normal_form_counts_follow_legendre():
    assert oracles.constant_free_normal_forms(3) == 3**8
    assert oracles.constant_free_normal_forms(4) == 16384


@pytest.mark.parametrize("d", [4, 6])
def test_non_polynomial_generator_never_yields_a_polynomial(d):
    rng = random.Random(d)
    for _ in range(100):
        m = oracles.non_polynomial(d, rng)
        assert oracles.breaks_mod_p(m, d)
        assert is_polynomial(FiniteFunction.from_matrix(d, m)) is None
        # the necessary condition holds on polynomials, so it is no blanket test
        poly = oracles.evaluate_poly(oracles.random_polynomial(d, rng), d)
        assert not oracles.breaks_mod_p(poly, d)


@pytest.fixture(scope="module")
def catalogue_d3():
    cat = classify_lu(classify_lfp(3, "all"))
    return cat.to_json(), cat.to_csv()


def test_catalogue_check_passes_on_ffe_output(catalogue_d3):
    assert workloads.check_catalogue(3, *catalogue_d3) == []


def test_catalogue_check_catches_a_corrupted_representative(catalogue_d3):
    text, csv_text = catalogue_d3
    data = json.loads(text)
    rep = data["classes"][4]["representative"]
    rep[2][2] = (rep[2][2] + 1) % 3
    assert workloads.check_catalogue(3, json.dumps(data), csv_text)


def test_catalogue_check_catches_a_missing_csv_row(catalogue_d3):
    text, csv_text = catalogue_d3
    assert workloads.check_catalogue(3, text, csv_text.rsplit("\n", 2)[0] + "\n")


def test_query_check_catches_a_wrong_schmidt_rank():
    q = workloads._make_query("query", 4, 2, random.Random(7))
    code, out, _ = workloads._cli(q["argv"])
    assert code == 0
    assert workloads.check_answer(q, out) is None
    ans = json.loads(out)
    ans["schmidt"] += 1
    assert "schmidt" in workloads.check_answer(q, json.dumps(ans))


def test_query_mix_round_is_fixed_and_seeded():
    mix = workloads.QueryMix()
    a, b = mix.make_inputs(3), mix.make_inputs(3)
    assert [q["argv"] for q in a] == [q["argv"] for q in b]
    assert len(a) == 250
    assert [q["argv"] for q in mix.make_inputs(4)] != [q["argv"] for q in a]
    failing = [q for q in a if (q["kind"], q["d"], q["n"]) in
               {("lower-bound", d, n) for d, n in workloads.FAILING_LOWER_BOUNDS}]
    assert len(failing) == 2
