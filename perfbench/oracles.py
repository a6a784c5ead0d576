"""Computations made apart from ffe, which the workloads check its outputs against.

Nothing here imports ffe. Exact counts come from Burnside's lemma and
Legendre's formula; spectra, ranks and singular values come from numpy on the
numeric coefficient matrix A with A[x, y] = omega^f(x, y).
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Butson Hadamard H(d, d) classes among the dephased d x d phase matrices under
# row and column permutations: the Fourier matrix alone at d = 2, 3, and the
# Fourier matrix and F_2 (x) F_2 at d = 4.
HADAMARD_CLASSES = {2: 1, 3: 1, 4: 2}

TOL = 1e-9


def coefficient_matrix(m, d):
    return np.exp(2j * np.pi * np.asarray(m, dtype=float) / d)


def rho_spectrum(m, d):
    """Ascending eigenvalues of the reduced state rho_A = A A^dagger / d^2."""
    a = coefficient_matrix(m, d)
    return np.linalg.eigvalsh(a @ a.conj().T / d**2)


def schmidt_coefficients(m, d):
    """Descending singular values of A / d."""
    return np.linalg.svd(coefficient_matrix(m, d) / d, compute_uv=False)


def numeric_rank(m, d):
    return int(np.linalg.matrix_rank(coefficient_matrix(m, d)))


def is_hadamard(m, d):
    a = coefficient_matrix(m, d)
    return float(np.abs(a @ a.conj().T - d * np.eye(d)).max()) < TOL


def lu_groups(spectra, tol=1e-8):
    """Indices of the spectra grouped so that spectra within tol of a group's first share it."""
    heads, groups = [], []
    for i, s in enumerate(spectra):
        gaps = np.abs(np.array(heads) - s).max(axis=1) if heads else np.array([np.inf])
        j = int(gaps.argmin())
        if gaps[j] <= tol:
            groups[j].append(i)
        else:
            heads.append(s)
            groups.append([i])
    return groups


def spectra_differ(m1, m2, d, tol=1e-6):
    return float(np.abs(rho_spectrum(m1, d) - rho_spectrum(m2, d)).max()) > tol


def image_sum(m, d):
    return int(np.sum(m)) % d


def axis_signature(m, d, axis):
    """Sorted sizes of the groups of equal row sums (axis 0) or column sums (axis 1) mod d."""
    sums = np.asarray(m).sum(axis=1 - axis) % d
    return sorted(np.unique(sums, return_counts=True)[1].tolist())


def haagerup_counts(m, d):
    """Counts of f(a,b) - f(c,b) + f(c,e) - f(a,e) mod d over all (a, b, c, e)."""
    m = np.asarray(m, dtype=np.int64)
    t = (
        m[:, :, None, None]      # f(a, b), axes (a, b, c, e)
        - m.T[None, :, :, None]  # f(c, b)
        + m[None, None, :, :]    # f(c, e)
        - m[:, None, None, :]    # f(a, e)
    ) % d
    return np.bincount(t.ravel(), minlength=d).tolist()


def lfp_transform(m, d, rng):
    """A random row/column permutation plus row and column phases of m."""
    rows, cols = list(range(d)), list(range(d))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rp = [rng.randrange(d) for _ in range(d)]
    cp = [rng.randrange(d) for _ in range(d)]
    return [[(m[rows[x]][cols[y]] + rp[x] + cp[y]) % d for y in range(d)] for x in range(d)]


def is_dephased(m):
    m = np.asarray(m)
    return not m[0, :].any() and not m[:, 0].any()


def _cycle_type(perm):
    seen, lengths = set(), []
    for start in range(len(perm)):
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def burnside_lfp_classes(d):
    """Number of LFP classes of two-site states at d, by Burnside's lemma.

    S_d x S_d acts on dephased matrices by permuting rows and columns and
    dephasing again; the class count is the mean number of fixed dephased
    matrices. That number depends only on the two cycle types, so one
    representative pair per type pair is enough.
    """
    k = (d - 1) ** 2
    codes = np.arange(d**k, dtype=np.int64)
    digits = (codes[:, None] // d ** np.arange(k, dtype=np.int64)) % d
    mats = np.zeros((d**k, d, d), dtype=np.int16)
    mats[:, 1:, 1:] = digits.reshape(-1, d - 1, d - 1)
    types = {}
    for perm in itertools.permutations(range(d)):
        size, rep = types.get(_cycle_type(perm), (0, perm))
        types[_cycle_type(perm)] = (size + 1, rep)
    total = 0
    for (n_s, s), (n_t, t) in itertools.product(types.values(), repeat=2):
        moved = mats[:, list(s)][:, :, list(t)]
        moved = (moved - moved[:, :, :1] - moved[:, :1, :] + moved[:, :1, :1]) % d
        total += n_s * n_t * int(np.all(moved == mats, axis=(1, 2)).sum())
    count, rest = divmod(total, math.factorial(d) ** 2)
    if rest:
        raise ArithmeticError("Burnside sum is not a multiple of the group order")
    return count


def prime_powers(d):
    out, p = [], 2
    while d > 1:
        m = 0
        while d % p == 0:
            d //= p
            m += 1
        if m:
            out.append((p, m))
        p += 1
    return out


def legendre(p, e):
    """nu_p(e!), the exponent of p in e! (Legendre's formula)."""
    total, power = 0, p
    while power <= e:
        total += e // power
        power *= p
    return total


def normal_form_bounds(p, m, n=2):
    """{exponent vector: coefficient modulus p^(m - c)} of the normal form over Z_(p^m).

    c = sum_i nu_p(e_i!); the monomial is admissible while c < m.
    """
    single = list(itertools.takewhile(lambda e: legendre(p, e) < m, itertools.count()))
    out = {}
    for exps in itertools.product(single, repeat=n):
        c = sum(legendre(p, e) for e in exps)
        if c < m:
            out[exps] = p ** (m - c)
    return out


def constant_free_normal_forms(d, n=2):
    """Number of distinct polynomial functions Z_d^n -> Z_d with f(0) = 0."""
    total = 1
    for p, m in prime_powers(d):
        total *= math.prod(normal_form_bounds(p, m, n).values())
    return total // d


def parse_poly(text, d):
    """{(a, b): coefficient} of a two-variable polynomial printed as 'c*x^a*y^b + ...'."""
    terms = {}
    if text == "0":
        return terms
    for term in text.split(" + "):
        coeff, exps = 1, [0, 0]
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in ("x", "y"):
                exps["xy".index(name)] += int(power) if power else 1
            elif name.isdigit() and not power:
                coeff *= int(name)
            else:
                raise ValueError(f"unreadable factor {factor!r} in {text!r}")
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"repeated monomial in {text!r}")
        terms[key] = coeff
    return terms


def evaluate_poly(terms, d):
    """Image matrix of a two-variable polynomial over Z_d."""
    x = np.arange(d, dtype=object)[:, None]
    y = np.arange(d, dtype=object)[None, :]
    out = np.zeros((d, d), dtype=object)
    for (a, b), c in terms.items():
        out = out + c * x**a * y**b
    return (out % d).astype(np.int64)


def breaks_mod_p(m, d):
    """True iff f(x + p, y) != f(x, y) (mod p) somewhere, for a prime p < d dividing d.

    A polynomial function satisfies f(x + p, y) == f(x, y) (mod p) because
    (x + p)^k == x^k (mod p), so a matrix that breaks it is not polynomial.
    """
    m = np.asarray(m, dtype=np.int64)
    for p, _ in prime_powers(d):
        if p < d and np.any((m[p:, :] - m[:-p, :]) % p):
            return True
    return False


def non_polynomial(d, rng):
    """A random image matrix at composite d that breaks f(x + p, y) == f(x, y) (mod p)."""
    p = prime_powers(d)[0][0]
    if p == d:
        raise ValueError(f"every function is polynomial at prime d={d}")
    m = [[rng.randrange(d) for _ in range(d)] for _ in range(d)]
    x0, y0 = rng.randrange(d - p), rng.randrange(d)
    m[x0 + p][y0] = (m[x0][y0] + 1 + p * rng.randrange(d // p)) % d
    return m


def random_polynomial(d, rng, max_exp=3):
    """{(a, b): coefficient} with random coefficients on x^a y^b, a, b <= max_exp."""
    return {
        (a, b): rng.randrange(d)
        for a in range(max_exp + 1)
        for b in range(max_exp + 1)
        if rng.random() < 0.5
    }


def poly_text(terms):
    parts = []
    for (a, b), c in sorted(terms.items()):
        factors = [str(c)] + [f"{v}^{e}" for v, e in (("x", a), ("y", b)) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def lower_bound(d, n):
    """ceil(d^(d^n - n(d-1) - 1) / (d!)^n)."""
    return -(-(d ** (d**n - n * (d - 1) - 1)) // math.factorial(d) ** n)


def parse_big_int(text):
    """int(text) in chunks, so that no single conversion passes the interpreter's digit limit."""
    value = 0
    for i in range(0, len(text), 4000):
        chunk = text[i:i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def site_permutation(d, n, site, cycle):
    """Index map of the point permutation x -> x with x_site replaced by cycle[x_site]."""
    out = []
    for x in itertools.product(range(d), repeat=n):
        y = list(x)
        y[site] = cycle[x[site]]
        out.append(sum(c * d ** (n - 1 - i) for i, c in enumerate(y)))
    return np.array(out)


def stabilizer_fixes_state(values, d, perm, phase_fn):
    """|| S psi - psi || < TOL for S |x> = omega^h(x) |perm(x)> and psi_x = omega^f(x)."""
    psi = np.exp(2j * np.pi * np.asarray(values, dtype=float) / d)
    out = np.zeros_like(psi)
    out[perm] = np.exp(2j * np.pi * np.asarray(phase_fn, dtype=float) / d) * psi
    return float(np.abs(out - psi).max()) < TOL
