"""The FP group's site actions against the point-by-point oracles, at every
supported shape with at most 4,096 points."""
import itertools
import random

import pytest

from ffe.fpops import LFPElement
from ffe.ring import FiniteFunction, site_permutation_as_global
from ffe.stabilizer import continuous_symmetry_predicate, internally_commutes

import exact_oracles as oracle

SHAPES = [(d, n) for n in range(1, 5) for d in range(2, 13) if d**n <= 4096]


def random_perm(d, rng):
    perm = list(range(d))
    rng.shuffle(perm)
    return tuple(perm)


def random_function(d, n, rng):
    return FiniteFunction(d, n, [rng.randrange(d) for _ in range(d**n)])


def random_sites(d, n, rng):
    """Sites whose phases are nonzero at 0, so the product's constants move."""
    return [
        (random_perm(d, rng), (rng.randrange(1, d),) + tuple(rng.randrange(d) for _ in range(d - 1)))
        for _ in range(n)
    ]


def commuting_function(d, n, i, w, rng):
    """w(x_i) g(rest) + h(rest): internally commuting for kappa = w^-1 o (+1) o w."""
    g = [rng.randrange(d) for _ in range(d**n)]
    h = [rng.randrange(d) for _ in range(d**n)]

    def fn(x):
        rest = oracle.flat_index(x[:i] + (0,) + x[i + 1:], d)
        return w[x[i]] * g[rest] + h[rest]

    return FiniteFunction.from_callable(d, n, fn)


def symmetric_function(d, n, sites, sigma, rng):
    """f(u, v, tail) = S(sigma^-1(u), sigma(v), tail) with S symmetric in its
    first two arguments, so the predicate holds on sites (i, j)."""
    i, j = sites
    sigma_inv = [sigma.index(k) for k in range(d)]
    table = {}

    def fn(x):
        a, b = sigma_inv[x[i]], sigma[x[j]]
        tail = tuple(c for k, c in enumerate(x) if k not in sites)
        return table.setdefault((min(a, b), max(a, b), tail), rng.randrange(d))

    return FiniteFunction.from_callable(d, n, fn)


@pytest.mark.parametrize("d,n", SHAPES)
def test_site_maps_match_oracle(d, n):
    rng = random.Random(1000 * d + n)
    f = random_function(d, n, rng)
    for i in range(n):
        perm = random_perm(d, rng)
        assert site_permutation_as_global(d, n, i, perm) == oracle.site_permutation_as_global(d, n, i, perm)
        assert f.compose_site_permutation(i, perm).values == oracle.compose_site_permutation(f, i, perm)


@pytest.mark.parametrize("d,n", SHAPES)
def test_lift_and_product_match_oracle(d, n):
    rng = random.Random(2000 * d + n)
    a_sites, b_sites = random_sites(d, n, rng), random_sites(d, n, rng)
    a_phase, b_phase = rng.randrange(d), rng.randrange(d)
    a, b = LFPElement(d, a_sites, a_phase), LFPElement(d, b_sites, b_phase)
    lifted = a.lift()
    assert (lifted.phase, lifted.perm, lifted.phase_fn.values) == oracle.lift(d, a_sites, a_phase)
    ab = a.multiply(b)
    assert (ab.sites, ab.global_phase) == oracle.lfp_product(d, a_sites, a_phase, b_sites, b_phase)


@pytest.mark.parametrize("d,n", SHAPES)
def test_internally_commutes_matches_oracle(d, n):
    rng = random.Random(3000 * d + n)
    for i in range(n):
        w = random_perm(d, rng)
        kappa = tuple(w.index((w[k] + 1) % d) for k in range(d))
        for f in (random_function(d, n, rng), commuting_function(d, n, i, w, rng)):
            assert internally_commutes(f, i, kappa) == oracle.internally_commutes(f, i, kappa)
        assert internally_commutes(f, i, kappa)


@pytest.mark.parametrize("d,n", [s for s in SHAPES if s[1] >= 2])
def test_continuous_symmetry_matches_oracle(d, n):
    rng = random.Random(4000 * d + n)
    sigma = random_perm(d, rng)
    f = random_function(d, n, rng)
    for sites in itertools.permutations(range(n), 2):
        assert continuous_symmetry_predicate(f, sigma, sites) == oracle.continuous_symmetry_predicate(f, sigma, sites)
    sites = tuple(rng.sample(range(n), 2))
    g = symmetric_function(d, n, sites, sigma, rng)
    assert continuous_symmetry_predicate(g, sigma, sites)
    # a single changed value breaks the symmetry unless it sits on a = b
    broken = list(g.values)
    broken[rng.randrange(d**n)] += 1
    broken = FiniteFunction(d, n, broken)
    for s in (sites, sites[::-1]):
        assert continuous_symmetry_predicate(g, sigma, s) == oracle.continuous_symmetry_predicate(g, sigma, s)
        assert continuous_symmetry_predicate(broken, sigma, s) == oracle.continuous_symmetry_predicate(broken, sigma, s)
