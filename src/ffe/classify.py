"""Classification of bipartite encodings.

Local-Pauli (LFP) classes are orbits of dephased image matrices under local
phases and row and column permutations.  Dephasing absorbs every phase, so
the orbit of a dephased matrix M is exactly {dephase(M[σ][:, τ]) : σ, τ ∈ S_d}.
Two routines work on these orbits:
- the canonical form (lfp_canonical) finds an orbit's lexmin and size by a
  partition-refinement search, without enumerating the orbit.  Membership,
  the polynomial-scope catalogue and the reference-table lookups use it, at
  every d up to ring.MAX_D;
- the orbit closure (_orbit) gathers all (d!)^2 images, in blocks of a fixed
  number of images.  The all-states catalogue closes its orbits with it, and
  the tests use it as the canonical form's oracle.
Local-unitary (LU) classes group LFP classes by the exact trace-power
signature of the Gram matrix of a representative.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import time

import numpy as np

from .fpops import dephase
from .linalg import singular_values, trace_power_coeffs
from .polynomials import block_texts, enumerate_polynomial_blocks
from .ring import ArityError, FiniteFunction, check_shape

ALL_SCOPE_BUDGET = 10**7


class BudgetError(ValueError):
    pass


def _as_array(f):
    d = f.d
    return np.array(f.values, dtype=np.int16).reshape(d, d)


def _dephase_arrays(mats, d):
    """Vectorized dephasing of a stack of image matrices."""
    out = mats - mats[:, :, 0:1] - mats[:, 0:1, :] + mats[:, 0:1, 0:1]
    return out % d


# Images per block of _orbit_blocks.  A block is one int64 gather index and
# its uint8 images, 4096 * 36 * (8 + 1) bytes = 1.3 MB at d = 6.  _orbit
# keeps the keys of all (d!)^2 images (18.7 MB at d = 6), sorts them in place
# (np.unique would copy them once more) and copies out the distinct ones.
ORBIT_CHUNK = 1 << 12
# The most images, (d!)^2, that one orbit closure may enumerate: d <= 6
# (518,400) runs, and d = 7 (25,401,600) raises BudgetError before any work.
# Only the closure paths (scope="all", lfp_orbit_keys, lfp_orbit) need it.
ORBIT_BUDGET = math.factorial(6) ** 2
# The most states (placements of a row) one step of the canonical-form search
# may hold.  Merging equal states kept it at 240 or fewer on every matrix
# tried up to d = 12; the bound stops a matrix whose symmetries the merging
# misses.
CANONICAL_STATE_BUDGET = 10**6


@functools.cache
def _permutations(d):
    perms = np.array(list(itertools.permutations(range(d))), dtype=np.int64)
    perms.flags.writeable = False
    return perms


def _pivot_tables(mats):
    """D[k, r, c] = mats[k] dephased against row r and column c, for every
    pivot (r, c) of every matrix of an (n, d, d) stack: (n, d, d, d, d) int64.

    dephase(M[σ][:, τ]) is the pivot table of M at (σ0, τ0) read at rows σ
    and columns τ, and M and dephase(M) have the same tables.
    """
    d = mats.shape[-1]
    m = mats.astype(np.int64)
    tables = (
        m[:, None, None, :, :]
        - np.swapaxes(m, 1, 2)[:, None, :, :, None]
        - m[:, :, None, None, :]
        + m[:, :, :, None, None]
    )
    return tables % d


def _orbit_blocks(seed):
    """Yield dephase(seed[σ][:, τ]) for all (σ, τ) ∈ S_d × S_d, σ-major, as
    uint8 (n, d, d) blocks of at most ORBIT_CHUNK images.

    For a dephased seed these images are its whole LFP orbit, with repeats.
    """
    d = seed.shape[0]
    total = math.factorial(d) ** 2
    if total > ORBIT_BUDGET:
        raise BudgetError(f"an orbit at d={d} needs {total} images > {ORBIT_BUDGET}")
    # each block is a single gather from the pivot tables
    table = _pivot_tables(seed[None])[0].astype(np.uint8).ravel()
    perms = _permutations(d)
    rows = perms[:, :1] * d**3 + perms * d  # table offset of (σ0, ·, σ_i, ·)
    cols = perms[:, :1] * d**2 + perms  # table offset of (·, τ0, ·, τ_j)
    for start in range(0, total, ORBIT_CHUNK):
        sigma, tau = np.divmod(np.arange(start, min(start + ORBIT_CHUNK, total)), len(perms))
        yield np.take(table, rows[sigma][:, :, None] + cols[tau][:, None, :])


def _void_keys(blocks):
    """One d²-byte key per matrix; keys sort as the matrices' bytes do."""
    n, d, _ = blocks.shape
    return blocks.reshape(n, d * d).view(np.dtype((np.void, d * d))).ravel()


def _orbit(seed, encode=_void_keys):
    """Sorted distinct keys, under encode, of the orbit of a dephased seed."""
    keys = np.concatenate([encode(b) for b in _orbit_blocks(seed)])
    keys.sort()
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _next_rows(states):
    """Place one more row in every state and keep the least placements.

    states maps (cell sizes, remaining rows) to a count of labellings.  The
    remaining rows hold their columns in cell order, so the best next row of
    an image is a remaining row sorted within each cell; every placement of a
    least such row is kept, its cells split by that row's values.  States
    that end up equal are merged, adding their counts: identical rows and
    symmetric pivots then cost one state, not one per labelling.
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
        if len(placed) > CANONICAL_STATE_BUDGET:
            raise BudgetError(
                f"the canonical form search needs more than {CANONICAL_STATE_BUDGET} states"
            )
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


def _canonical_forms(mats):
    """(lexmin key, orbit size) of the LFP orbit of each of an (n, d, d)
    stack of matrices, without enumerating the orbits.

    The search places the image rows one at a time over all pivots at once
    (McKay and Piperno's partition refinement, without automorphism
    pruning).  The lexmin is the rows it places.  The (σ, τ) that reach the
    lexmin are counted by the final states: each count of labellings times
    the orderings of columns that no row tells apart.  The orbit size is
    (d!)^2 over that count.
    """
    n, d, _ = mats.shape
    tables = _pivot_tables(mats)
    # The first row, for every (pivot (r, c), row i) pair at once: row i of
    # pivot table (r, c), sorted, read as a base-d number.  Row r, all zeros,
    # is the pivot itself and never a candidate.
    first = np.sort(tables, axis=-1) @ d ** np.arange(d - 1, -1, -1, dtype=np.int64)
    first[:, np.arange(d), :, np.arange(d)] = d**d
    ks, rs, cs, picks = np.nonzero(first == first.min(axis=(1, 2, 3), keepdims=True))
    # The state after that row, for every least (k, r, c, i): the columns but
    # c in order of their values in row i, and the rows but r and i.
    pivot_tables = tables[ks, rs, cs]
    each = np.arange(len(ks))[:, None]
    cols = np.arange(d - 1) + (np.arange(d - 1) >= cs[:, None])  # j != c
    values = pivot_tables[each, picks[:, None], cols]
    order = np.argsort(values, axis=1)
    cols, values = np.take_along_axis(cols, order, 1), np.take_along_axis(values, order, 1)
    used = (np.arange(d) == rs[:, None]) | (np.arange(d) == picks[:, None])
    unused = np.argsort(used, axis=1)[:, :d - 2]
    rest = pivot_tables[each[:, :, None], unused[:, :, None], cols[:, None, :]]
    # Equal states merge here already: sort each state's rows, read as
    # base-d numbers, and count the distinct (k, rows).  Row i is the same
    # least row for every state of one k, and so are the cells it splits.
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


def lfp_canonical(mat, d):
    """(lexmin key, orbit size) of the LFP orbit of the d×d image matrix mat.

    The key is the bytes of the least dephase(M[σ][:, τ]) over σ, τ ∈ S_d;
    two matrices lie in one orbit exactly when their keys are equal.
    """
    return _canonical_forms(np.asarray(mat).reshape(1, d, d))[0]


def lfp_orbit_keys(f):
    """The orbit of dephase(f) as a set of byte keys of dephased matrices."""
    if f.n != 2:
        raise ArityError("orbit enumeration defined for n=2")
    seed = _as_array(dephase(f).representative).astype(np.uint8)
    return set(_orbit(seed).tolist())


def lfp_orbit(f):
    """The orbit of dephased image matrices of f, as FiniteFunctions."""
    return {key_to_function(f.d, key) for key in lfp_orbit_keys(f)}


def key_to_function(d, key):
    return FiniteFunction(d, 2, list(key))


class OrbitRecord:
    __slots__ = (
        "lfp_class_id",
        "representative",
        "orbit_size",
        "contains_polynomial",
        "polynomial_reps",
        "invariants_fingerprint",
        "singular_values",
    )

    def __init__(self, lfp_class_id, representative, orbit_size,
                 contains_polynomial, polynomial_reps, invariants_fingerprint):
        self.lfp_class_id = lfp_class_id
        self.representative = representative
        self.orbit_size = orbit_size
        self.contains_polynomial = contains_polynomial
        self.polynomial_reps = polynomial_reps
        self.invariants_fingerprint = invariants_fingerprint
        self.singular_values = None  # filled by Catalogue.class_singular_values


class LUClassRecord:
    __slots__ = ("lu_class_id", "signature", "member_lfp_class_ids", "singular_values")

    def __init__(self, lu_class_id, signature, member_lfp_class_ids, sv):
        self.lu_class_id = lu_class_id
        self.signature = signature
        self.member_lfp_class_ids = member_lfp_class_ids
        self.singular_values = sv


class Catalogue:
    def __init__(self, d, scope, orbits, lu_classes=None, provenance=None):
        self.d = d
        self.scope = scope
        self.orbits = orbits
        self.lu_classes = lu_classes or []
        self.provenance = provenance or {}
        self.lu_of_lfp = {}
        for rec in self.lu_classes:
            for cid in rec.member_lfp_class_ids:
                self.lu_of_lfp[cid] = rec.lu_class_id

    def class_singular_values(self, rec):
        """Singular values of an LFP class's representative, computed once."""
        if rec.singular_values is None:
            rep = key_to_function(self.d, rec.representative)
            rec.singular_values = singular_values(rep)
        return rec.singular_values

    def to_json(self):
        classes = []
        for rec in self.orbits:
            rep = key_to_function(self.d, rec.representative)
            it, rowsig, colsig, haag = rec.invariants_fingerprint
            entry = {
                "id": rec.lfp_class_id,
                "representative": rep.as_matrix(),
                "orbit_size": rec.orbit_size,
                "contains_polynomial": rec.contains_polynomial,
                "polynomials": rec.polynomial_reps,
                "I_t": it,
                "row_signature": list(rowsig),
                "col_signature": list(colsig),
                "haagerup": list(haag),
                "singular_values": [
                    round(v, 10) for v in self.class_singular_values(rec)
                ],
            }
            if rec.lfp_class_id in self.lu_of_lfp:
                entry["lu_class"] = self.lu_of_lfp[rec.lfp_class_id]
            classes.append(entry)
        return json.dumps(
            {
                "d": self.d,
                "scope": self.scope,
                "classes": classes,
                "lu_classes": [
                    {
                        "id": rec.lu_class_id,
                        "members": list(rec.member_lfp_class_ids),
                        "singular_values": [round(v, 10) for v in rec.singular_values],
                    }
                    for rec in self.lu_classes
                ],
                # run-dependent fields stay out so output is
                # byte-identical across runs
                "provenance": {
                    k: v
                    for k, v in self.provenance.items()
                    if k in ("seed_count", "version")
                },
            },
            indent=1,
            sort_keys=True,
        )

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "lfp_class", "orbit_size", "contains_polynomial", "lu_class",
                "I_t", "singular_values", "representative",
            ]
        )
        for rec in self.orbits:
            rep = key_to_function(self.d, rec.representative)
            writer.writerow(
                [
                    rec.lfp_class_id,
                    rec.orbit_size,
                    int(rec.contains_polynomial),
                    self.lu_of_lfp.get(rec.lfp_class_id, ""),
                    rec.invariants_fingerprint[0],
                    " ".join(f"{v:.5f}" for v in self.class_singular_values(rec)),
                    json.dumps(rep.as_matrix()),
                ]
            )
        return buf.getvalue()


def invariant_It(f):
    """Sum of all image-tensor entries mod d; LFP-invariant."""
    return sum(f.values) % f.d


def _signature_of_sums(sums, d):
    counts = {}
    for s in sums:
        counts[s % d] = counts.get(s % d, 0) + 1
    return tuple(sorted(counts.values()))


def invariant_row_signature(f, axis=0):
    """Sorted multiset of group sizes of equal axis sums of the image tensor."""
    d, n = f.d, f.n
    sums = [0] * d
    for x in f.points():
        sums[x[axis]] += f.eval(x)
    return _signature_of_sums(sums, d)


def haagerup_histogram(f):
    """Histogram over all d^4 quadruples of f(a,b) - f(c,b) + f(c,e) - f(a,e)."""
    if f.n != 2:
        raise ArityError("defined for n=2")
    d = f.d
    m = _as_array(f).astype(np.int64)
    r = m[:, :, None] - m[:, None, :]  # (a, b, e)
    t = (r[:, None, :, :] - r[None, :, :, :]) % d  # (a, c, b, e)
    return tuple(int(v) for v in np.bincount(t.ravel(), minlength=d))


def invariants_fingerprint(f):
    return (
        invariant_It(f),
        invariant_row_signature(f, 0),
        invariant_row_signature(f, 1),
        haagerup_histogram(f),
    )


def lower_bound(d, n):
    """ceil(d^(d^n - n(d-1) - 1) / (d!)^n): LFP class-count lower bound."""
    check_shape(d, n)
    num = d ** (d**n - n * (d - 1) - 1)
    den = math.factorial(d) ** n
    return -(-num // den)


def dephased_polynomial_index(d):
    """Map byte key of each dephased polynomial image -> sorted normal forms.

    The listed forms are constant-free.  A constant term shifts the image by
    a constant, which dephasing removes, so only the constant-free normal
    forms are enumerated: each is distinct, keyed by its dephased image and
    rendered as text once.
    """
    index = {}
    blocks = enumerate_polynomial_blocks(d, 2, constant_free=True)
    for monomials, coeffs, images in blocks:
        keys = _dephase_arrays(images.reshape(-1, d, d), d).astype(np.uint8)
        for key, text in zip(keys, block_texts(d, 2, monomials, coeffs)):
            index.setdefault(key.tobytes(), []).append(text)
    for texts in index.values():
        texts.sort()
    return index


def _positions(sorted_keys, keys):
    """Positions in sorted_keys of those of keys that it holds."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos[sorted_keys[pos] == keys]


def _close_orbits(seeds, decode, encode, index_keys, index_texts):
    """Close the orbit of each seed that no earlier orbit holds, in order.

    seeds and index_keys are sorted arrays of keys under encode, which maps a
    block of dephased matrices to keys; decode maps a key back to its matrix.
    Yields the bytes of each orbit's lexmin matrix, its size and the sorted
    texts listed under the index keys it holds.
    """
    claimed = np.zeros(len(seeds), dtype=bool)
    for i, seed in enumerate(seeds):
        if claimed[i]:
            continue
        keys = _orbit(decode(seed), encode)
        claimed[_positions(seeds, keys)] = True
        hits = _positions(index_keys, keys)
        texts = sorted(itertools.chain.from_iterable(index_texts[j] for j in hits))
        yield decode(keys[0]).tobytes(), len(keys), texts


def classify_lfp(d, scope="all", threads=None):
    """Partition the scope into LFP orbits (Catalogue without LU grouping).

    scope="all": every dephased matrix (budget d^((d-1)^2) <= 10^7).
    scope="teh": orbits seeded from dephased polynomial images; classes are
    additionally annotated with every normal-form polynomial they contain.
    threads is accepted for compatibility and has no effect.
    """
    start = time.time()
    if scope not in ("all", "teh"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "all" and d ** ((d - 1) ** 2) > ALL_SCOPE_BUDGET:
        raise BudgetError(
            f"scope=all at d={d} needs {d ** ((d - 1) ** 2)} matrices > {ALL_SCOPE_BUDGET}"
        )
    poly_index = dephased_polynomial_index(d)
    index_keys = sorted(poly_index)
    index_mats = np.frombuffer(b"".join(index_keys), dtype=np.uint8).reshape(-1, d, d)
    index_texts = [poly_index[k] for k in index_keys]
    if scope == "all":
        # a dephased matrix is keyed by its core read as a base-d number,
        # most significant digit first, so codes sort as the matrices' bytes
        weights = d ** np.arange((d - 1) ** 2 - 1, -1, -1, dtype=np.int64)

        def encode(blocks):
            return blocks[:, 1:, 1:].reshape(len(blocks), -1) @ weights

        def decode(code):
            mat = np.zeros((d, d), dtype=np.uint8)
            mat[1:, 1:] = (code // weights % d).reshape(d - 1, d - 1)
            return mat

        seed_count = d ** ((d - 1) ** 2)
        seeds = np.arange(seed_count, dtype=np.int64)
        found = sorted(_close_orbits(seeds, decode, encode, encode(index_mats), index_texts))
    else:
        # the index keys fall into orbits by canonical form; the polynomial
        # enumeration budget leaves at most 162 keys (d = 6) to search
        seed_count = len(index_keys)
        groups = {}
        for (best, size), texts in zip(_canonical_forms(index_mats), index_texts):
            groups.setdefault((best, size), []).extend(texts)
        found = sorted((best, size, sorted(texts)) for (best, size), texts in groups.items())
    orbits = [
        OrbitRecord(
            cid, best, size, bool(texts), texts,
            invariants_fingerprint(key_to_function(d, best)),
        )
        for cid, (best, size, texts) in enumerate(found)
    ]
    provenance = {
        "seed_count": seed_count,
        "runtime_seconds": round(time.time() - start, 3),
        "version": 1,
    }
    return Catalogue(d, scope, orbits, provenance=provenance)


def classify_lu(cat):
    """Group LFP classes by the exact trace-power signature of representatives."""
    d = cat.d
    reps = b"".join(rec.representative for rec in cat.orbits)
    sigs = trace_power_coeffs(np.frombuffer(reps, dtype=np.uint8).reshape(-1, d, d), d)
    groups = {}
    for rec, sig in zip(cat.orbits, sigs.tolist()):
        groups.setdefault(tuple(map(tuple, sig)), []).append(rec.lfp_class_id)
    lu_classes = []
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    for lu_id, (sig, members) in enumerate(ordered):
        sv = cat.class_singular_values(cat.orbits[min(members)])
        lu_classes.append(LUClassRecord(lu_id, sig, sorted(members), sv))
    return Catalogue(cat.d, cat.scope, cat.orbits, lu_classes, cat.provenance)


def special_function(name, d, params=None):
    """Named constructions used throughout the classification examples."""
    params = params or {}

    def bilinear(c):
        return FiniteFunction.from_callable(d, 2, lambda x: c * x[0] * x[1] % d)

    if name == "fourier":
        return bilinear(1)
    if name == "m_over_r":
        r = params["r"]
        if d % r:
            raise ValueError(f"r={r} must divide d={d}")
        return bilinear(d // r)
    if name in ("p_power", "p_power_T"):
        p, m = params["p"], params["m"]
        if p**m != d:
            raise ValueError(f"({p},{m}) is not a prime-power factorization of {d}")
        e = p ** (m - 1)
        if name == "p_power":
            return FiniteFunction.from_callable(
                d, 2, lambda x: pow(x[0], e, d) * x[1] % d
            )
        return FiniteFunction.from_callable(
            d, 2, lambda x: x[0] * pow(x[1], e, d) % d
        )
    if name == "f22":
        if d != 4:
            raise ValueError("f22 is a d=4 construction")
        return FiniteFunction.from_callable(
            4, 2, lambda x: (x[0] * x[1] ** 2 + x[0] ** 2 * x[1] + 2 * x[0] * x[1]) % 4
        )
    if name == "h4":
        if d != 4:
            raise ValueError("h4 is a d=4 construction")
        return FiniteFunction.from_callable(
            4, 2, lambda x: (x[0] ** 2 * x[1] + x[0] * x[1] ** 2 + 3 * x[0] * x[1]) % 4
        )
    if name == "f32_fixture":
        if d != 6:
            raise ValueError("f32_fixture is a d=6 matrix")
        return FiniteFunction.from_matrix(6, F32_MATRIX)
    if name == "s6_fixture":
        if d != 6:
            raise ValueError("s6_fixture is a d=6 matrix")
        return FiniteFunction.from_matrix(6, S6_MATRIX)
    if name in ("rank2_f", "rank2_g", "rank2_h"):
        # two-output constructions built from x^(d-1): 1 for x > 0, else 0
        k = params.get("k", 1)
        if name == "rank2_f":
            return FiniteFunction.from_callable(
                d, 2, lambda x: k * pow(x[0], d - 1, d) * x[1] % d
            )
        if name == "rank2_g":
            return FiniteFunction.from_callable(
                d, 2, lambda x: k * x[0] * pow(x[1], d - 1, d) % d
            )
        return FiniteFunction.from_callable(
            d, 2, lambda x: k * pow(x[0], d - 1, d) * pow(x[1], d - 1, d) % d
        )
    raise ValueError(f"unknown special function {name!r}")


# phase matrix of F_3 tensor F_2: entry 2 x_1 y_1 + 3 x_2 y_2 mod 6 with the
# pairing x = 2 x_1 + x_2 (the printed reference table has a typo in row 2,
# which would break the Hadamard property)
F32_MATRIX = [
    [0, 0, 0, 0, 0, 0],
    [0, 3, 0, 3, 0, 3],
    [0, 0, 2, 2, 4, 4],
    [0, 3, 2, 5, 4, 1],
    [0, 0, 4, 4, 2, 2],
    [0, 3, 4, 1, 2, 5],
]

S6_MATRIX = [
    [0, 0, 0, 0, 0, 0],
    [0, 0, 2, 2, 4, 4],
    [0, 2, 0, 4, 4, 2],
    [0, 2, 4, 0, 2, 4],
    [0, 4, 4, 2, 0, 2],
    [0, 4, 2, 4, 2, 0],
]


def membership_check(f, class_rep):
    """True iff f and class_rep lie in the same LFP orbit, that is, iff their
    canonical forms (lfp_canonical) have the same lexmin.  No orbit is
    enumerated, so every d up to ring.MAX_D is answered."""
    if f.n != 2 or class_rep.n != 2:
        raise ArityError("membership defined for n=2")
    if f.d != class_rep.d:
        raise ArityError("mismatched d")
    (key_f, _), (key_rep, _) = _canonical_forms(np.stack([_as_array(f), _as_array(class_rep)]))
    return key_f == key_rep
