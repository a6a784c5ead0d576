"""Classification of bipartite encodings.

Local-Pauli (LFP) classes are orbits of dephased image matrices under local
phases and row and column permutations.  Dephasing absorbs every phase, so
the orbit of a dephased matrix M is exactly {dephase(M[σ][:, τ]) : σ, τ ∈ S_d}.
Two routines work on these orbits:
- the canonical form (lfp_canonical) finds an orbit's lexmin and size by a
  partition-refinement search over arrays of states, without enumerating
  the orbit.  One numpy step places the next image row in every state of a
  stack of matrices, splits the cells of columns and merges equal states; a
  matrix is done once every column is a cell of its own.  Membership, the
  polynomial-scope catalogue and the reference-table lookups use it, at
  every d up to ring.MAX_D: a random pair takes 0.2-0.35 ms at d = 3 and
  2.5-3.4 ms at d = 12, the 162 keys of the d = 6 polynomial index 16-26 ms;
- the orbit closure gathers all (d!)^2 images at _image_offsets: for a batch
  of seeds at a time in the all-states catalogue (_close_orbits), and for
  one seed in blocks (_orbit), the canonical form's oracle in the tests.
Local-unitary (LU) classes group LFP classes by the exact trace-power
signature of the Gram matrix of a representative.

A Catalogue holds the classes.  Its immutable records keep what the
searches found: an LFP class's id, representative key, orbit size and
polynomial index keys, an LU class's id and members.  What derives from
them, polynomial texts too, is a catalogue column (see Catalogue).
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import time
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .linalg import singular_values_stack, trace_power_coeffs
from .polynomials import _term_text, _text_order, normal_form_basis, parse_polynomial
from .ring import ArityError, FiniteFunction, check_shape

ALL_SCOPE_BUDGET = 10**7


class BudgetError(ValueError):
    pass


# Images per block of _orbit_blocks.  A block is one int64 gather index and
# its uint8 images, 4096 * 36 * (8 + 1) bytes = 1.3 MB at d = 6.  _orbit
# keeps the keys of all (d!)^2 images (18.7 MB at d = 6), sorts them in place
# (np.unique would copy them once more) and copies out the distinct ones.
ORBIT_CHUNK = 1 << 12
# Codes per batch of _close_orbits, found among the next ORBIT_CHUNK codes.
ORBIT_BATCH = 32
# The most images, (d!)^2, that one orbit closure may enumerate: d <= 6
# (518,400) runs, and d = 7 (25,401,600) raises BudgetError before any work.
ORBIT_BUDGET = math.factorial(6) ** 2
# The most candidates (a state and a row it places) one step of the
# canonical-form search may hold for one matrix.  The first step holds at
# most d^2 (d - 1), 1,584 at d = 12, and merging equal states kept every
# later step below that on every matrix tried up to d = 12; the bound stops
# a matrix whose symmetries the merging misses.
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


def _image_offsets(d, pairs):
    """(len(pairs), d, d) offsets in a raveled pivot table of the images
    dephase(M[σ][:, τ]) of the pairs numbered σ-major over S_d × S_d."""
    perms = _permutations(d)
    sigma, tau = perms[pairs // len(perms)], perms[pairs % len(perms)]
    rows = sigma[:, :1] * d**3 + sigma * d  # offset of (σ0, ·, σ_i, ·)
    cols = tau[:, :1] * d**2 + tau  # offset of (·, τ0, ·, τ_j)
    return rows[:, :, None] + cols[:, None, :]


def _orbit_blocks(seed):
    """Yield dephase(seed[σ][:, τ]) for all (σ, τ) ∈ S_d × S_d, σ-major, as
    uint8 (n, d, d) blocks of at most ORBIT_CHUNK images.

    These images are the whole LFP orbit of the seed, with repeats.
    """
    d = seed.shape[0]
    total = math.factorial(d) ** 2
    if total > ORBIT_BUDGET:
        raise BudgetError(f"an orbit at d={d} needs {total} images > {ORBIT_BUDGET}")
    # each block is a single gather from the pivot tables
    table = _pivot_tables(seed[None])[0].astype(np.uint8).ravel()
    for start in range(0, total, ORBIT_CHUNK):
        yield np.take(table, _image_offsets(d, np.arange(start, min(start + ORBIT_CHUNK, total))))


def _void_keys(blocks):
    """One d²-byte key per matrix; keys sort as the matrices' bytes do."""
    n, d, _ = blocks.shape
    return blocks.reshape(n, d * d).view(np.dtype((np.void, d * d))).ravel()


def _orbit(seed):
    """Sorted distinct byte keys of the LFP orbit of seed."""
    keys = np.concatenate([_void_keys(b) for b in _orbit_blocks(seed)])
    keys.sort()
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


def _canonical_forms(mats):
    """(lexmin key, orbit size) of the LFP orbit of each of an (n, d, d)
    stack of matrices, by McKay and Piperno's partition refinement without
    automorphism pruning.  A state is a partial labelling of one pivot
    (r, c): its matrix ks, the cells of the columns but c in cell order (a
    column's cell is its values in the placed rows, in base d), its unplaced
    rows and its count of labellings.  The orbit size is (d!)^2 over the
    count of (σ, τ) that reach the lexmin.
    """
    n, d, _ = mats.shape
    weights = d ** np.arange(d - 2, -1, -1, dtype=np.int64)
    # one state per (matrix, pivot (r, c)): the pivot table's rows but r on
    # its columns but c, all in one cell
    others = np.arange(d - 1) + (np.arange(d - 1) >= np.arange(d)[:, None])
    rows = _pivot_tables(mats)[
        :, np.arange(d)[:, None, None, None], np.arange(d)[:, None, None],
        others[:, None, :, None], others[:, None, :],
    ].reshape(n * d * d, d - 1, d - 1)
    ks = np.repeat(np.arange(n), d * d)
    cells = np.zeros((len(ks), d - 1), dtype=np.int64)
    counts = np.ones(len(ks), dtype=np.int64)
    images = np.zeros((n, d, d), dtype=np.uint8)
    aut = np.zeros(n, dtype=np.int64)
    for placed in range(1, d):
        # every row as the next image row: sorted within cells, in base d
        values = np.sort(cells[:, None, :] * d + rows, axis=-1) % d
        codes = values @ weights
        least = np.full(n, d ** (d - 1))
        np.minimum.at(least, ks, codes.min(axis=1))
        states, picks = np.nonzero(codes == least[ks, None])
        if np.bincount(ks[states]).max() > CANONICAL_STATE_BUDGET:
            raise BudgetError(
                f"the canonical form search needs more than {CANONICAL_STATE_BUDGET} states"
            )
        ks, counts, each = ks[states], counts[states], np.arange(len(states))[:, None]
        images[ks, placed, 1:] = values[states, picks]
        # split the cells by the placed row; the other rows on the columns in
        # their new order, sorted by code (the placed row, coded past all, last)
        cells = cells[states] * d + rows[states, picks]
        order = np.argsort(cells, axis=1, kind="stable")
        cells = cells[each, order]
        rows = rows[states[:, None, None], np.arange(d - placed)[:, None], order[:, None, :]]
        codes = rows @ weights
        codes[each[:, 0], picks] = d ** (d - 1)
        by_code = np.argsort(codes, axis=1)[:, :-1]
        rows, codes = rows[each, by_code], codes[each, by_code]
        # merge equal states; the cells are the same in every state of a
        # matrix, as the placed rows are, so (ks, rows) tells states apart
        order = np.lexsort((*codes.T[::-1], ks))
        ks, codes = ks[order], codes[order]
        new = np.ones(len(ks), dtype=bool)
        new[1:] = (ks[1:] != ks[:-1]) | (codes[1:] != codes[:-1]).any(axis=1)
        first = np.flatnonzero(new)
        counts = np.add.reduceat(counts[order], first)
        ks, cells, rows, codes = ks[first], cells[order[first]], rows[order[first]], codes[first]
        # A matrix is done when every column is a cell of its own, or when no
        # row is left.  Its first state holds the lexmin, which the orderings
        # of its equal rows (of its cells, when no row is left) keep: their
        # number is the product over entries of the equal entries up to it.
        done = (cells[:, 1:] != cells[:, :-1]).all(axis=1) | (placed == d - 1)
        if done.any():
            heads = done & np.append(True, ks[1:] != ks[:-1])
            images[ks[heads], placed + 1:, 1:] = rows[heads]
            tied = codes[heads] if placed < d - 1 else cells[heads]
            ties = (tied[:, :, None] == tied[:, None, :]) & np.tri(tied.shape[1], dtype=bool)
            aut[ks[heads]] = counts[heads] * ties.sum(axis=2).prod(axis=1)
            ks, cells, rows, counts = ks[~done], cells[~done], rows[~done], counts[~done]
            if not len(ks):
                break
    return [(image.tobytes(), math.factorial(d) ** 2 // size)
            for image, size in zip(images, aut.tolist())]


def lfp_canonical(mat, d):
    """(lexmin key, orbit size) of the LFP orbit of the d×d image matrix mat.

    The key is the bytes of the least dephase(M[σ][:, τ]) over σ, τ ∈ S_d;
    two matrices lie in one orbit exactly when their keys are equal.
    """
    return _canonical_forms(np.asarray(mat).reshape(1, d, d))[0]


def lfp_orbit_keys(f):
    """The orbit of dephase(f) as a set of byte keys of dephased matrices."""
    return set(_orbit(f.image()).tolist())


def key_to_function(d, key):
    return FiniteFunction._of_residues(d, 2, key)


class OrbitRecord(NamedTuple):
    lfp_class_id: int
    representative: bytes
    orbit_size: int
    polynomial_keys: tuple

    @property
    def contains_polynomial(self):
        return bool(self.polynomial_keys)


class LUClassRecord(NamedTuple):
    lu_class_id: int
    member_lfp_class_ids: list


def _json_list(items, pad="   ", encode=repr, ends="[]"):
    """The items, each as encode writes it, as a JSON list laid out the way
    json.dumps(indent=1) lays out a value whose key sits at indent pad (by
    default a key of a class or LU record); with ends "{}" and '"key": value'
    items, as an object.  An empty one is ends."""
    sep = ",\n " + pad
    return f"{ends[0]}\n {pad}{sep.join(map(encode, items))}\n{pad}{ends[1]}" if items else ends


def _json_format(pad, *keys):
    """A format string, one {} per key's value, of the object _json_list lays out."""
    return _json_list([f'"{k}": {{}}' for k in keys], pad, str, ("{{", "}}"))


# The objects of Catalogue.to_json, keys in sorted order
_TOP_JSON = _json_format("", "classes", "d", "lu_classes", "provenance", "scope")
_CLASS_JSON = _json_format(
    "  ", "I_t", "col_signature", "contains_polynomial", "haagerup", "id", "orbit_size",
    "polynomials", "representative", "row_signature", "singular_values",
)
_LU_JSON = _json_format("  ", "id", "members", "singular_values")


class Catalogue:
    """The LFP classes of a scope, in id order, and their LU classes.

    images, the (N, d, d) uint8 stack of the representatives, is built with
    the catalogue.  The columns singular_values and fingerprints come from
    it, polynomials (sorted normal-form texts) from the polynomial keys and
    index_keys, the key stack classify_lfp built (see _polynomial_keys),
    each once, on first use.  An LU class has its least member's values.

    to_json writes, byte for byte, what json.dumps(..., indent=1,
    sort_keys=True) writes for the catalogue's dict (which
    tests/exact_oracles.catalogue_json builds), but from the schema: one
    format string per record with its keys in sorted order, and one str.join
    of C-level reprs (json's encode_basestring_ascii for texts) per list.
    """

    def __init__(self, d, scope, orbits, index_keys, lu_classes=None, provenance=None):
        self.d = d
        self.scope = scope
        self.orbits = orbits
        self.lu_classes = lu_classes or []
        self.provenance = provenance or {}
        self.index_keys = index_keys
        self.lu_of_lfp = {
            cid: rec.lu_class_id for rec in self.lu_classes for cid in rec.member_lfp_class_ids
        }
        reps = b"".join(rec.representative for rec in orbits)
        self.images = np.frombuffer(reps, dtype=np.uint8).reshape(-1, d, d)

    @functools.cached_property
    def singular_values(self):
        return singular_values_stack(self.images)

    @functools.cached_property
    def fingerprints(self):
        return _fingerprint_stack(self.images)

    @functools.cached_property
    def polynomials(self):
        index = dephased_polynomial_index(self.d, self.index_keys)
        return [sorted(t for key in rec.polynomial_keys for t in index[key]) for rec in self.orbits]

    def to_json(self):
        sv, d = self.singular_values, self.d
        # a class's "lu_class", when it has one, follows its "id" in the id slot
        ids = {cid: f'{cid},\n   "lu_class": {lu}' for cid, lu in self.lu_of_lfp.items()}
        # the representative's d x d entries, filled by one format call per class
        rep_json = _json_list([_json_list(["{}"] * d, "    ", str)] * d, encode=str)
        reps = self.images.reshape(-1, d * d).tolist()
        columns = zip(self.orbits, reps, self.fingerprints, sv, self.polynomials)
        classes = [
            _CLASS_JSON.format(
                it, _json_list(colsig), "true" if rec.contains_polynomial else "false",
                _json_list(haag), ids.get(rec.lfp_class_id, rec.lfp_class_id),
                rec.orbit_size, _json_list(texts, encode=encode_basestring_ascii),
                rep_json.format(*rep), _json_list(rowsig),
                _json_list([round(v, 10) for v in values]),
            )
            for rec, rep, (it, rowsig, colsig, haag), values, texts in columns
        ]
        lu_classes = [
            _LU_JSON.format(rec.lu_class_id, _json_list(rec.member_lfp_class_ids),
                            _json_list([round(v, 10) for v in sv[min(rec.member_lfp_class_ids)]]))
            for rec in self.lu_classes
        ]
        # run-dependent fields stay out so output is byte-identical across runs
        provenance = [f'"{k}": {self.provenance[k]}' for k in ("seed_count", "version")
                      if k in self.provenance]
        return _TOP_JSON.format(
            _json_list(classes, " ", str), d, _json_list(lu_classes, " ", str),
            _json_list(provenance, " ", str, "{}"), encode_basestring_ascii(self.scope),
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
        columns = zip(self.orbits, self.images.tolist(), self.fingerprints, self.singular_values)
        for rec, rep, fingerprint, sv in columns:
            writer.writerow(
                [
                    rec.lfp_class_id,
                    rec.orbit_size,
                    int(rec.contains_polynomial),
                    self.lu_of_lfp.get(rec.lfp_class_id, ""),
                    fingerprint[0],
                    " ".join(f"{v:.5f}" for v in sv),
                    json.dumps(rep),
                ]
            )
        return buf.getvalue()


def invariant_It(f):
    """Sum of all image-tensor entries mod d; LFP-invariant."""
    return sum(f.values) % f.d


def invariant_row_signature(f, axis=0):
    """Sorted multiset of group sizes of equal axis sums of the image tensor."""
    if not 0 <= axis < f.n:
        raise ArityError(f"axis {axis} out of range for n={f.n}")
    t = np.reshape(f.values, (f.d,) * f.n)
    sums = t.sum(axis=tuple(j for j in range(f.n) if j != axis)) % f.d
    return tuple(sorted(np.unique(sums, return_counts=True)[1].tolist()))


def haagerup_histogram(f):
    """Histogram over all d^4 quadruples of f(a,b) - f(c,b) + f(c,e) - f(a,e)."""
    d = f.d
    m = f.image()
    r = m[:, :, None] - m[:, None, :]  # (a, b, e)
    t = (r[:, None, :, :] - r[None, :, :, :]) % d  # (a, c, b, e)
    return tuple(int(v) for v in np.bincount(t.ravel(), minlength=d))


def _fingerprint_stack(mats):
    """invariants_fingerprint of each of an (N, d, d) stack of image matrices."""
    n, d, _ = mats.shape
    m = mats.astype(np.int8)  # each Haagerup term lies in (-2d, 2d), in int8 at d <= 12
    r = m[:, :, :, None] - m[:, :, None, :]  # (k, a, b, e)
    t = ((r[:, :, None] - r[:, None]) % d).reshape(n, d**4)
    haagerup = np.stack([np.count_nonzero(t == v, axis=1) for v in range(d)], axis=1)
    # the count of each value among the row (column) sums, sorted, zeros first
    sigs = [np.sort(((m.sum(axis=a) % d)[..., None] == np.arange(d)).sum(axis=1)) for a in (2, 1)]
    columns = m.sum(axis=(1, 2)) % d, *sigs, haagerup
    return [(it, tuple(filter(None, rs)), tuple(filter(None, cs)), tuple(h))
            for it, rs, cs, h in zip(*(c.tolist() for c in columns))]


def invariants_fingerprint(f):
    return _fingerprint_stack(f.image()[None])[0]


def lower_bound(d, n):
    """ceil(d^(d^n - n(d-1) - 1) / (d!)^n): LFP class-count lower bound."""
    check_shape(d, n)
    num = d ** (d**n - n * (d - 1) - 1)
    den = math.factorial(d) ** n
    return -(-num // den)


def _polynomial_keys(d):
    """(keys, basis, mixed, rows): the keys of dephased_polynomial_index in
    its order, the (K, d, d) uint8 images of the mixed-only normal forms.
    basis is normal_form_basis(d, 2), mixed lists its monomials that hold x
    and y, and each of the K rows gives their coefficients in one form."""
    basis = monomials, choices, images = normal_form_basis(d, 2)
    mixed = [k for k, e in enumerate(monomials) if all(e)]
    rows = np.array(list(itertools.product(*[choices[k] for k in mixed])), dtype=np.int64)
    return (rows @ images[mixed] % d).astype(np.uint8).reshape(-1, d, d), basis, mixed, rows


def dephased_polynomial_index(d, index_keys=None):
    """Map byte key of each dephased polynomial image -> sorted normal forms.

    The listed forms are constant-free: a mixed part, whose monomials hold x
    and y, plus univariate parts.  Dephasing removes exactly the univariate
    parts, so the keys are the distinct images of the mixed-only forms, and
    each key lists its mixed form with every univariate coefficient choice.
    A caller that has built index_keys = _polynomial_keys(d) passes it.
    """
    keys, (monomials, choices, _), mixed, rows = index_keys or _polynomial_keys(d)
    order = sorted(range(1, len(monomials)), key=lambda k: _text_order(monomials[k]))
    terms = [[_term_text(("x", "y"), e, c) if c else "" for c in range(d)] for e in monomials]
    # each monomial's term options in text order; a key fixes its mixed slots
    slots = [[terms[k][c] for c in choices[k]] for k in order]
    at = [order.index(k) for k in mixed]
    index = {}
    for key, row in zip(keys, rows.tolist()):
        for i, k, c in zip(at, mixed, row):
            slots[i] = [terms[k][c]]
        texts = (" + ".join(filter(None, t)) or "0" for t in itertools.product(*slots))
        index[key.tobytes()] = sorted(texts)
    return index


def _close_orbits(d, index_mats):
    """(lexmin key, size) of the LFP orbit of every dephased d x d matrix, in
    order of the lexmins, and the position in that list of the orbit of each
    dephased matrix of the stack index_mats.

    A dephased matrix is coded by its core read as a base-d number, so codes
    sort as the matrices' bytes do; ALL_SCOPE_BUDGET keeps the codes below
    10^7, in int32.  Each batch gathers every image of the least ORBIT_BATCH
    unclaimed codes.  An orbit whose lexmin lies below the least unclaimed
    code is claimed whole, so a candidate's orbit lexmin is unclaimed and no
    larger than the candidate, hence in the batch: the candidate seeds a new
    orbit exactly when it is the least code of its orbit.
    """
    core = (d - 1) ** 2
    weights = d ** np.arange(core - 1, -1, -1, dtype=np.int32)
    # (core cell, pair) offsets, so that each cell's images are contiguous
    offsets = _image_offsets(d, np.arange(math.factorial(d) ** 2))[:, 1:, 1:].reshape(-1, core).T
    label = np.full(d**core, -1, dtype=np.int32)  # orbit id of each code
    seeds, sizes, start = [], [], 0
    while start < len(label):
        free = start + np.flatnonzero(label[start:start + ORBIT_CHUNK] < 0)[:ORBIT_BATCH]
        start = free[-1] + 1 if len(free) == ORBIT_BATCH else start + ORBIT_CHUNK
        mats = np.zeros((len(free), d, d), dtype=np.uint8)
        mats[:, 1:, 1:] = (free[:, None] // weights % d).reshape(-1, d - 1, d - 1)
        tables = _pivot_tables(mats).astype(np.uint8).reshape(len(free), d**4)
        images = np.take(tables, offsets, axis=1)  # (candidate, core cell, pair)
        codes = images[:, 0].astype(np.int32)
        for cell in range(1, core):
            codes = codes * d + images[:, cell]
        new = codes.min(axis=1) == free
        codes = np.sort(codes[new], axis=1)
        label[codes] = len(sizes) + np.arange(len(codes), dtype=np.int32)[:, None]
        seeds.append(mats[new])
        sizes += (1 + np.count_nonzero(np.diff(codes, axis=1), axis=1)).tolist()
    forms = [(mat.tobytes(), size) for mat, size in zip(np.concatenate(seeds), sizes)]
    return forms, label[index_mats[:, 1:, 1:].reshape(-1, core) @ weights].tolist()


def classify_lfp(d, scope="all", threads=None):
    """Partition the scope into LFP orbits (Catalogue without LU grouping).

    scope="all": every dephased matrix (budget d^((d-1)^2) <= 10^7).
    scope="teh": orbits seeded from dephased polynomial images.  Every class
    keeps the index keys it holds; Catalogue.polynomials lists their texts.
    threads is accepted for compatibility and has no effect.
    """
    check_shape(d, 2)
    start = time.time()
    if scope not in ("all", "teh"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "all" and d ** ((d - 1) ** 2) > ALL_SCOPE_BUDGET:
        raise BudgetError(
            f"scope=all at d={d} needs {d ** ((d - 1) ** 2)} matrices > {ALL_SCOPE_BUDGET}"
        )
    index_keys = index_mats, *_ = _polynomial_keys(d)
    if scope == "all":
        seed_count = d ** ((d - 1) ** 2)
        forms, orbit_of = _close_orbits(d, index_mats)
    else:
        # the index keys fall into orbits by canonical form; the polynomial
        # enumeration budget leaves at most 162 keys (d = 6) to search
        seed_count = len(index_mats)
        held = _canonical_forms(index_mats)
        forms = sorted(set(held))
        orbit_of = list(map({form: i for i, form in enumerate(forms)}.get, held))
    keys = [[] for _ in forms]
    for orbit, mat in zip(orbit_of, index_mats):
        keys[orbit].append(mat.tobytes())
    orbits = [OrbitRecord(cid, *form, tuple(k)) for cid, (form, k) in enumerate(zip(forms, keys))]
    provenance = {
        "seed_count": seed_count,
        "runtime_seconds": round(time.time() - start, 3),
        "version": 1,
    }
    return Catalogue(d, scope, orbits, index_keys, provenance=provenance)


def classify_lu(cat):
    """Group LFP classes by the exact trace-power signature of representatives."""
    sigs = trace_power_coeffs(cat.images, cat.d)
    groups = {}
    for rec, sig in zip(cat.orbits, sigs.tolist()):
        groups.setdefault(tuple(map(tuple, sig)), []).append(rec.lfp_class_id)
    # a group enters at its least member and the classes come in id order,
    # so the groups and their members are both in order of least id
    lu_classes = [LUClassRecord(lu_id, members) for lu_id, members in enumerate(groups.values())]
    return Catalogue(cat.d, cat.scope, cat.orbits, cat.index_keys, lu_classes, cat.provenance)


# The named states that are polynomials, as texts with parameter slots; x^t,
# with t = d - 1, is 1 for x > 0 and 0 at x = 0.
NAMED_POLYNOMIALS = {
    "fourier": "x*y", "m_over_r": "{c}*x*y", "p_power": "x^{e}*y", "p_power_T": "x*y^{e}",
    "f22": "x*y^2 + x^2*y + 2*x*y", "h4": "x*y^2 + x^2*y + 3*x*y",
    "rank2_f": "{k}*x^{t}*y", "rank2_g": "{k}*x*y^{t}", "rank2_h": "{k}*x^{t}*y^{t}",
}

# The named states that exist at one d only.
NAMED_FIXED_D = {"f22": 4, "h4": 4, "f32_fixture": 6, "s6_fixture": 6}


def special_function(name, d, params=None):
    """Named constructions used throughout the classification examples: the
    polynomials of NAMED_POLYNOMIALS and the d=6 matrices f32_fixture and
    s6_fixture."""
    check_shape(d, 2)
    params = params or {}
    slots = {"k": params.get("k", 1) % d, "t": d - 1}
    if name == "m_over_r":
        slots["c"], rest = divmod(d, params["r"])
        if rest:
            raise ValueError(f"r={params['r']} must divide d={d}")
    if name in ("p_power", "p_power_T"):
        p, m = params["p"], params["m"]
        if p**m != d:
            raise ValueError(f"({p},{m}) is not a prime-power factorization of {d}")
        slots["e"] = p ** (m - 1)
    fixed_d = NAMED_FIXED_D.get(name, d)
    if d != fixed_d:
        raise ValueError(f"{name} is a d={fixed_d} construction")
    if name in NAMED_POLYNOMIALS:
        return parse_polynomial(NAMED_POLYNOMIALS[name].format(**slots), d, 2).to_function()
    if name in ("f32_fixture", "s6_fixture"):
        return FiniteFunction.from_matrix(6, F32_MATRIX if name == "f32_fixture" else S6_MATRIX)
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
    mats = f.image(), class_rep.image()
    if f.d != class_rep.d:
        raise ArityError("mismatched d")
    (key_f, _), (key_rep, _) = _canonical_forms(np.stack(mats))
    return key_f == key_rep
