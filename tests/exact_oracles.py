"""Exact oracles for the tests, sharing no code with the library paths they
check.

- `trace_powers` builds the Gram matrix entry by entry and multiplies it with
  CyclotomicInt arithmetic, one entry at a time.
- `char_poly_coeffs` runs Newton's identities in CyclotomicRat arithmetic on
  this module's trace powers, one exact rational power sum at a time.
- `exact_rank` finds the rank over Q(omega_d) through the regular
  representation: each element becomes the phi x phi integer matrix of
  multiplication by it, with the cyclotomic polynomial found here by
  dividing x^d - 1 by the cyclotomic polynomials of the proper divisors of d.
  The Q-rank of the expanded integer matrix is phi times the rank over
  Q(omega_d), and fraction-free elimination finds it.
- `singular_values` is the reference for bit-identical floats: cyclic Jacobi
  rotating numpy row and column slices of the 2d x 2d real embedding, which
  is built from this module's Gram matrix through CyclotomicInt.to_complex.
- The site actions of the FP group run point by point over Z_d^n:
  `site_permutation_as_global`, `compose_site_permutation`, `lift` (the
  product of the site index maps and the summed site phases), `lfp_product`
  (the product of two lifts split back into sites by probing the unit
  points), `internally_commutes` and `continuous_symmetry_predicate`.
- `row_signature` sums the image tensor along one axis point by point and
  counts equal sums with a dict.
- `index_by_block_dephasing` is the dephased polynomial index built the way
  the library once built it: every constant-free normal form enumerated in
  coefficient blocks, each image dephased and each row rendered by
  `block_texts`, a table of term texts, then grouped by key.  It shares the
  coefficient choices (`normal_form_basis`) and the term texts with the
  index; tests/test_classify.py's `index_by_dephasing` checks those at
  d = 2 and 3 through one Polynomial and a scalar dephase per form.
- `lfp_orbit` is `classify.lfp_orbit_keys` as a set of FiniteFunctions.
- `close_orbits_by_seed` is the all-states orbit closure the way the library
  once ran it: the least unclaimed core code seeds an orbit, one `_orbit`
  call per seed closes it, and a searchsorted finds the index matrices it
  holds.  It shares `classify._orbit` (the pivot tables and their offsets)
  with the batched closure; tests/test_classify.py checks `_orbit` against
  a permutation-by-permutation closure.
- `canonical_forms_by_rows` is the LFP canonical-form search the way the
  library once ran it: the first row of every pivot placed in numpy, every
  later row by `_next_rows` over a dict of (cell sizes, rows) tuples.  It
  shares only `classify._pivot_tables` with the library's array-state search,
  which tests/test_classify.py checks against it at d = 2..12 and against
  the orbit closure at d <= 6.
- `catalogue_json` is `Catalogue.to_json` the way the library once wrote
  it: the catalogue as a dict of lists and dicts, written by the stdlib's
  `json.dumps(..., indent=1, sort_keys=True)`.  It reads the catalogue's
  columns and records only, never its JSON emitter.
- The paper's closed forms that no library path computes: `rank2_trace_formula`
  (tr rho^2 of a two-output row function), `kummer_check`, and
  `verify_lu_map_f4_f22`, the explicit local unitary from F_2 tensor F_2
  (`f_two_by_two`) to |xy> at d = 4, checked on numeric `state_vector`s.
"""
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ffe import classify
from ffe.cyclo import CyclotomicInt, CyclotomicRat
from ffe.polynomials import _term_text, _text_order, enumerate_polynomial_blocks
from ffe.ring import FiniteFunction
from scaffolding import key_to_function


def gram(f):
    """Column Gram matrix of the coefficient matrix, entry by entry."""
    d, vals = f.d, f.values
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            counts = [0] * d
            for k in range(d):
                counts[(vals[k * d + i] - vals[k * d + j]) % d] += 1
            row.append(CyclotomicInt.from_exponent_counts(d, counts))
        out.append(row)
    return out


def _mat_mul(a, b, d):
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = CyclotomicInt.zero(d)
            for k in range(size):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _trace(m, d):
    acc = CyclotomicInt.zero(d)
    for i in range(len(m)):
        acc = acc + m[i][i]
    return acc


def trace_powers(f, k_max=None):
    """(tr G^2, ..., tr G^k_max) by repeated exact matrix products."""
    d = f.d
    k_max = d if k_max is None else k_max
    g = gram(f)
    power, out = g, []
    for _ in range(2, k_max + 1):
        power = _mat_mul(power, g, d)
        out.append(_trace(power, d))
    return tuple(out)


def char_poly_coeffs(f):
    """(c_1, ..., c_d) of det(x I - rho), rho = G / d^2, by Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) p_i over Q(omega_d), p_i = tr rho^i."""
    d = f.d
    raw = (CyclotomicInt.from_int(d, d * d),) + trace_powers(f, d)
    p = [None] + [CyclotomicRat(t, d ** (2 * k)) for k, t in enumerate(raw, start=1)]
    e = [CyclotomicRat.one(d)]
    for k in range(1, d + 1):
        acc = CyclotomicRat.zero(d)
        sign = 1
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        e.append(acc * CyclotomicRat.from_fraction(d, Fraction(1, k)))
    return [(-e[k] if k % 2 == 1 else e[k]) for k in range(1, d + 1)]


def jacobi_eigenvalues(m, eps=1e-12, max_sweeps=100):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(m, dtype=float)
    size = a.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(size - 1):
            for q in range(p + 1, size):
                off = max(off, abs(a[p, q]))
        if off < eps:
            return np.sort(np.diag(a))[::-1]
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = a[p, q]
                if abs(apq) < eps:
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
    raise ArithmeticError("Jacobi iteration failed to converge")


def embedding(f):
    """The real embedding [[Re, -Im], [Im, Re]] of G / d^2, entry by entry
    through CyclotomicInt.to_complex."""
    d = f.d
    gc = np.array([[e.to_complex() for e in row] for row in gram(f)]) / d**2
    re, im = gc.real, gc.imag
    return np.block([[re, -im], [im, re]])


def singular_values(f):
    """Square roots of the eigenvalues of G / d^2, each taken once from the
    doubled spectrum of the embedding."""
    eig = jacobi_eigenvalues(embedding(f))
    return [math.sqrt(max(v, 0.0)) for v in eig[::2]]


@lru_cache(maxsize=None)
def cyclotomic_poly(d):
    """Ascending integer coefficients of the d-th cyclotomic polynomial."""
    num = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            den = cyclotomic_poly(e)  # monic, so the division stays integral
            quot = [0] * (len(num) - len(den) + 1)
            for shift in range(len(quot) - 1, -1, -1):
                c = num[shift + len(den) - 1]
                quot[shift] = c
                for j, b in enumerate(den):
                    num[shift + j] -= c * b
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _omega_powers(d):
    """Matrices of multiplication by omega^e, e = 0..d-1, on the basis
    1, omega, ..., omega^(phi-1): powers of the companion matrix."""
    poly = cyclotomic_poly(d)
    phi = len(poly) - 1
    companion = [[0] * phi for _ in range(phi)]
    for i in range(phi):
        if i + 1 < phi:
            companion[i + 1][i] = 1
        companion[i][phi - 1] = -poly[i]
    power = [[int(i == j) for j in range(phi)] for i in range(phi)]
    out = []
    for _ in range(d):
        out.append(power)
        power = [
            [sum(power[i][k] * companion[k][j] for k in range(phi)) for j in range(phi)]
            for i in range(phi)
        ]
    return out


def regular_matrix(d, entry):
    """Integer matrix of multiplication by sum_e c_e omega^e, for an
    {exponent: coefficient} dict."""
    powers = _omega_powers(d)
    phi = len(powers[0])
    return [
        [sum(c * powers[e % d][i][j] for e, c in entry.items()) for j in range(phi)]
        for i in range(phi)
    ]


def integer_rank(rows):
    """Rank over Q of an integer matrix by fraction-free (Bareiss)
    elimination: every entry stays a minor of the input, so each division
    is exact."""
    rows = [list(row) for row in rows]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            rows[r] = [(top[col] * a - c * b) // prev for a, b in zip(rows[r], top)]
        prev = top[col]
        rank += 1
    return rank


def exact_rank(d, matrix):
    """Rank over Q(omega_d) of a matrix whose entries are {exponent: integer
    coefficient} dicts, each standing for sum_e c_e omega^e."""
    phi = len(cyclotomic_poly(d)) - 1
    expanded = []
    for row in matrix:
        blocks = [regular_matrix(d, entry) for entry in row]
        for i in range(phi):
            expanded.append([v for block in blocks for v in block[i]])
    return integer_rank(expanded) // phi


def schmidt_rank(f):
    """Rank of the coefficient matrix A_xy = omega^f(x, y)."""
    d = f.d
    return exact_rank(d, [[{f.values[x * d + y]: 1} for y in range(d)] for x in range(d)])


def fixed_space_dim(stab_set):
    """Nullity of the stacked S - I, one row per basis state x and element:
    omega^h(x) at column x and -1 at column pi(x)."""
    base = stab_set.base
    d, size = base.d, base.d**base.n
    rows = []
    for el in stab_set.elements:
        for x in range(size):
            row = [{} for _ in range(size)]
            row[x][el.phase_fn.values[x]] = 1
            y = el.perm[x]
            row[y][0] = row[y].get(0, 0) - 1
            rows.append(row)
    return size - exact_rank(d, rows)


def flat_index(x, d):
    idx = 0
    for c in x:
        idx = idx * d + c
    return idx


def site_permutation_as_global(d, n, i, perm):
    """Index map on Z_d^n of perm on the i-th argument, point by point."""
    return tuple(
        flat_index(x[:i] + (perm[x[i]],) + x[i + 1:], d)
        for x in itertools.product(range(d), repeat=n)
    )


def compose_site_permutation(f, i, perm):
    """Values of f o perm_i, point by point."""
    return tuple(f.values[k] for k in site_permutation_as_global(f.d, f.n, i, perm))


def lift(d, sites, global_phase):
    """(global phase, index map, phase values) of a local element given as
    (perm, phases) per site: the product of the site index maps, applied
    one after another, and the sum of the site phases at every point."""
    n = len(sites)
    perm = tuple(range(d**n))
    for i, (site_perm, _) in enumerate(sites):
        site_map = site_permutation_as_global(d, n, i, site_perm)
        perm = tuple(perm[site_map[k]] for k in range(d**n))
    values = tuple(
        sum(sites[i][1][x[i]] for i in range(n)) % d
        for x in itertools.product(range(d), repeat=n)
    )
    return global_phase % d, perm, values


def lfp_product(d, a_sites, a_phase, b_sites, b_phase):
    """(sites, global phase) of the product of two local elements: the
    product X_pi Z_h X_sigma Z_g = X_(pi o sigma) Z_(h o sigma + g) of the
    lifts, split back into sites. Each site permutation is read off the
    images of the unit points k e_i; each site phase is h(k e_i) - h(0), and
    site 0 also carries the constant h(0)."""
    n = len(a_sites)
    phase_a, perm_a, h = lift(d, a_sites, a_phase)
    phase_b, perm_b, g = lift(d, b_sites, b_phase)
    perm = [perm_a[perm_b[k]] for k in range(d**n)]
    values = [(h[perm_b[k]] + g[k]) % d for k in range(d**n)]

    def unit(i, k):
        return flat_index(tuple(k if j == i else 0 for j in range(n)), d)

    sites = []
    for i in range(n):
        site_perm = tuple(perm[unit(i, k)] // d ** (n - 1 - i) % d for k in range(d))
        site_phases = [(values[unit(i, k)] - values[0]) % d for k in range(d)]
        sites.append((site_perm, site_phases))
    sites[0] = (sites[0][0], [(v + values[0]) % d for v in sites[0][1]])
    return tuple((p, tuple(h)) for p, h in sites), (phase_a + phase_b) % d


def internally_commutes(f, i, kappa):
    """True iff f o kappa_i - f takes one value along every line in x_i."""
    d, n = f.d, f.n
    moved = compose_site_permutation(f, i, kappa)
    diff = [(a - b) % d for a, b in zip(moved, f.values)]
    for x in itertools.product(range(d), repeat=n):
        base = diff[flat_index(x, d)]
        for k in range(d):
            if diff[flat_index(x[:i] + (k,) + x[i + 1:], d)] != base:
                return False
    return True


def continuous_symmetry_predicate(f, sigma, sites):
    """True iff f(sigma(a), sigma^-1(b), tail) = f(sigma(b), sigma^-1(a), tail)
    on sites (i, j) for all a, b and tails, point by point."""
    d, n = f.d, f.n
    i, j = sites
    sigma_inv = [0] * d
    for k, s in enumerate(sigma):
        sigma_inv[s] = k
    other = [k for k in range(n) if k not in (i, j)]
    for tail in itertools.product(range(d), repeat=n - 2):
        for a in range(d):
            for b in range(d):
                x = [0] * n
                for k, t in zip(other, tail):
                    x[k] = t
                x[i], x[j] = sigma[a], sigma_inv[b]
                lhs = f.values[flat_index(x, d)]
                x[i], x[j] = sigma[b], sigma_inv[a]
                if f.values[flat_index(x, d)] != lhs:
                    return False
    return True


def catalogue_json(cat):
    classes, sv = [], cat.singular_values
    columns = zip(cat.orbits, cat.images.tolist(), cat.fingerprints, sv, cat.polynomials)
    for rec, rep, (it, rowsig, colsig, haag), values, texts in columns:
        entry = {
            "id": rec.lfp_class_id,
            "representative": rep,
            "orbit_size": rec.orbit_size,
            "contains_polynomial": rec.contains_polynomial,
            "polynomials": texts,
            "I_t": it,
            "row_signature": list(rowsig),
            "col_signature": list(colsig),
            "haagerup": list(haag),
            "singular_values": [round(v, 10) for v in values],
        }
        if rec.lfp_class_id in cat.lu_of_lfp:
            entry["lu_class"] = cat.lu_of_lfp[rec.lfp_class_id]
        classes.append(entry)
    lu_classes = [
        {
            "id": rec.lu_class_id,
            "members": list(rec.member_lfp_class_ids),
            "singular_values": [round(v, 10) for v in sv[min(rec.member_lfp_class_ids)]],
        }
        for rec in cat.lu_classes
    ]
    provenance = {k: v for k, v in cat.provenance.items() if k in ("seed_count", "version")}
    doc = {"d": cat.d, "scope": cat.scope, "classes": classes, "lu_classes": lu_classes,
           "provenance": provenance}
    return json.dumps(doc, indent=1, sort_keys=True)


def block_texts(d, monomials, coeffs):
    """Polynomial(d, 2, dict(zip(monomials, row))).to_text() for every row of
    a coefficient block, from a table of term texts."""
    order = sorted(range(len(monomials)), key=lambda k: _text_order(monomials[k]))
    table = [[_term_text(("x", "y"), monomials[k], c) for c in range(d)] for k in order]
    return [
        " + ".join([terms[c] for terms, c in zip(table, row) if c]) or "0"
        for row in coeffs[:, order].tolist()
    ]


def index_by_block_dephasing(d):
    """Dephased image key -> sorted texts of the constant-free normal forms:
    the rows of every normal-form block whose constant coefficient (column 0,
    the constant monomial) is 0, dephased by subtracting row 0 and column 0."""
    index = {}
    for monomials, coeffs, images in enumerate_polynomial_blocks(d, 2):
        free = coeffs[:, 0] == 0
        mats = images[free].reshape(-1, d, d)
        keys = (mats - mats[:, :, :1] - mats[:, :1, :] + mats[:, :1, :1]) % d
        texts = block_texts(d, monomials, coeffs[free])
        for key, text in zip(keys.astype(np.uint8), texts):
            index.setdefault(key.tobytes(), []).append(text)
    return {key: sorted(texts) for key, texts in index.items()}


def lfp_orbit(f):
    """The orbit of dephased image matrices of f, as FiniteFunctions."""
    return {key_to_function(f.d, key) for key in classify.lfp_orbit_keys(f)}


def _positions(sorted_keys, keys):
    """Positions in sorted_keys of those of keys that it holds."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos[sorted_keys[pos] == keys]


def close_orbits_by_seed(d, index_mats, index_texts):
    """(lexmin bytes, size, sorted texts) of every LFP orbit of dephased
    d x d matrices, one `_orbit` call per seed, in order of the lexmins.
    index_mats is a sorted stack of dephased matrices with index_texts listed
    under them."""
    core = (d - 1) ** 2
    weights = d ** np.arange(core - 1, -1, -1, dtype=np.int64)
    index_codes = index_mats[:, 1:, 1:].reshape(-1, core) @ weights
    claimed = np.zeros(d**core, dtype=bool)
    seed = np.zeros((d, d), dtype=np.uint8)
    for code in range(d**core):
        if claimed[code]:
            continue
        seed[1:, 1:] = (code // weights % d).reshape(d - 1, d - 1)
        orbit = np.frombuffer(classify._orbit(seed).tobytes(), dtype=np.uint8)
        codes = orbit.reshape(-1, d, d)[:, 1:, 1:].reshape(-1, core) @ weights
        claimed[codes] = True
        hits = _positions(index_codes, codes)
        texts = sorted(itertools.chain.from_iterable(index_texts[j] for j in hits))
        yield seed.tobytes(), len(codes), texts


def _next_rows(states):
    """Place one more row in every state and keep the least placements.

    states maps (cell sizes, remaining rows) to a count of labellings.  The
    remaining rows hold their columns in cell order, so the best next row of
    an image is a remaining row sorted within each cell; every placement of a
    least such row is kept, its cells split by that row's values.  States
    that end up equal are merged, adding their counts.
    """
    best, placed = None, []
    for (sizes, rows), count in states.items():
        for k, row in enumerate(rows):
            value, at = [], 0
            for size in sizes:
                value += sorted(row[at:at + size])
                at += size
            value = tuple(value)
            if best is None or value < best:
                best, placed = value, []
            if value == best:
                placed.append((sizes, rows, k, count))
    merged = {}
    for sizes, rows, k, count in placed:
        row, order, split, at = rows[k], [], [], 0
        for size in sizes:
            cell = sorted(range(at, at + size), key=row.__getitem__)
            order += cell
            split += [len(list(g)) for _, g in itertools.groupby(cell, key=row.__getitem__)]
            at += size
        rest = sorted(tuple(r[j] for j in order) for r in rows[:k] + rows[k + 1:])
        key = (tuple(split), tuple(rest))
        merged[key] = merged.get(key, 0) + count
    return best, merged


def canonical_forms_by_rows(mats):
    """(lexmin key, orbit size) of the LFP orbit of each of an (n, d, d)
    stack of matrices: the first row over all pivots in numpy, then one
    `_next_rows` call per later row and matrix, and the orbit size (d!)^2
    over the sum of each final count times the orderings of its cells."""
    n, d, _ = mats.shape
    tables = classify._pivot_tables(mats)
    # the first row for every (pivot (r, c), row i): row i of table (r, c),
    # sorted, read as a base-d number; row r, all zeros, is never a candidate
    first = np.sort(tables, axis=-1) @ d ** np.arange(d - 1, -1, -1, dtype=np.int64)
    first[:, np.arange(d), :, np.arange(d)] = d**d
    ks, rs, cs, picks = np.nonzero(first == first.min(axis=(1, 2, 3), keepdims=True))
    # the state after that row: the columns but c in order of their values
    # in row i, and the rows but r and i
    pivot_tables = tables[ks, rs, cs]
    each = np.arange(len(ks))[:, None]
    cols = np.arange(d - 1) + (np.arange(d - 1) >= cs[:, None])
    values = pivot_tables[each, picks[:, None], cols]
    order = np.argsort(values, axis=1)
    cols, values = np.take_along_axis(cols, order, 1), np.take_along_axis(values, order, 1)
    used = (np.arange(d) == rs[:, None]) | (np.arange(d) == picks[:, None])
    unused = np.argsort(used, axis=1)[:, :d - 2]
    rest = pivot_tables[each[:, :, None], unused[:, :, None], cols[:, None, :]]
    # equal states merge here already: sort each state's rows, read as
    # base-d numbers, and count the distinct (k, rows)
    codes = rest @ d ** np.arange(d - 2, -1, -1, dtype=np.int64)
    order = np.argsort(codes, axis=1)
    rest = np.take_along_axis(rest, order[:, :, None], 1)
    codes = np.take_along_axis(codes, order, 1)
    _, unique, counts = np.unique(np.column_stack([ks, codes]), axis=0,
                                  return_index=True, return_counts=True)
    images = [None] * n
    starts = [{} for _ in range(n)]
    for k, value, rows, count in zip(ks[unique].tolist(), values[unique].tolist(),
                                     rest[unique].tolist(), counts.tolist()):
        images[k] = [(0,) * d, (0,) + tuple(value)]
        sizes = tuple(len(list(g)) for _, g in itertools.groupby(value))
        starts[k][sizes, tuple(map(tuple, rows))] = count
    forms = []
    for image, states in zip(images, starts):
        for _ in range(d - 2):
            best, states = _next_rows(states)
            image.append((0,) + best)
        aut = sum(
            count * math.prod(math.factorial(size) for size in sizes)
            for (sizes, _), count in states.items()
        )
        forms.append((bytes(itertools.chain.from_iterable(image)),
                      math.factorial(d) ** 2 // aut))
    return forms


def row_signature(f, axis):
    """Sorted sizes of the groups of equal axis sums mod d, point by point."""
    sums = [0] * f.d
    for x in itertools.product(range(f.d), repeat=f.n):
        sums[x[axis]] += f.values[flat_index(x, f.d)]
    counts = {}
    for total in sums:
        counts[total % f.d] = counts.get(total % f.d, 0) + 1
    return tuple(sorted(counts.values()))


def rank2_trace_formula(d, n1, n2):
    """Exact tr(rho^2) for a two-output row function hit n1 and n2 times."""
    if n1 < 1 or n2 < 1 or n1 + n2 != d:
        raise ValueError(f"invalid output counts ({n1}, {n2}) for d={d}")
    # Splitting the off-diagonal double sum by whether the two row values
    # agree: equal pairs contribute d(d-1) each, unequal pairs -d each.
    return (
        Fraction(2 * d - 1, d**2)
        + Fraction(d - 1, d**3) * (n1**2 - n1 + n2**2 - n2)
        - Fraction(2 * n1 * n2, d**3)
    )


def kummer_check(p, m, k):
    """binom(p^(m-1), k) * p^k == 0 mod p^m, via exact big integers."""
    if not (0 < k <= p ** (m - 1)):
        raise ValueError(f"k={k} out of range for p^(m-1)={p**(m-1)}")
    return (math.comb(p ** (m - 1), k) * p**k) % p**m == 0


def _fourier(d):
    omega = np.exp(2j * np.pi / d)
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return omega ** (j * k) / np.sqrt(d)


def state_vector(f):
    """Normalized complex state vector of |f> (for numeric cross-checks)."""
    omega = np.exp(2j * np.pi / f.d)
    vec = omega ** np.array(f.values, dtype=float)
    return vec / np.sqrt(len(vec))


def f_two_by_two():
    """The d=4 state whose coefficient matrix is exactly F_2 tensor F_2:
    phase 2(x_1 y_1 + x_2 y_2) under the big-endian pairing x = 2 x_1 + x_2.
    Its class representative polynomial is x y^2 + x^2 y + 2xy."""
    def phase(x):
        x1, x2 = divmod(x[0], 2)
        y1, y2 = divmod(x[1], 2)
        return 2 * (x1 * y1 + x2 * y2) % 4

    return FiniteFunction.from_callable(4, 2, phase)


def verify_lu_map_f4_f22(tol=1e-9):
    """Check the explicit local unitary mapping the F_2 tensor F_2 state to
    |xy> at d=4: the site-2 operator F_4^T (F_2 tensor F_2)^*, identity on
    site 1, compared up to global phase."""
    f4 = FiniteFunction.from_callable(4, 2, lambda x: (x[0] * x[1]) % 4)
    b = _fourier(4).T @ np.conj(np.kron(_fourier(2), _fourier(2)))
    mapped = np.kron(np.eye(4), b) @ state_vector(f_two_by_two())
    overlap = abs(np.vdot(state_vector(f4), mapped))
    return abs(overlap - 1.0) < tol
