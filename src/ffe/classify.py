"""Brute-force classification of bipartite encodings.

Local-Pauli (LFP) classes are orbits of dephased image matrices under row and
column operations; orbits are explored by breadth-first search under the
generators {adjacent row swap, adjacent column swap}, each followed by
re-dephasing.  This is a transversal argument: dephased matrices represent the
phase cosets, and adjacent transpositions generate the two symmetric groups.
Local-unitary (LU) classes group LFP classes by the exact trace-power
signature of the Gram matrix of a representative.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from queue import Empty, SimpleQueue

import numpy as np

from .fpops import dephase
from .linalg import singular_values, trace_powers
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


def _generators(d):
    gens = []
    for k in range(d - 1):
        def row_swap(mats, k=k, d=d):
            out = mats.copy()
            out[:, [k, k + 1], :] = out[:, [k + 1, k], :]
            return _dephase_arrays(out, d)

        def col_swap(mats, k=k, d=d):
            out = mats.copy()
            out[:, :, [k, k + 1]] = out[:, :, [k + 1, k]]
            return _dephase_arrays(out, d)

        gens.append(row_swap)
        gens.append(col_swap)
    return gens


def lfp_orbit_keys(f):
    """BFS closure of dephase(f) as a set of byte keys of dephased matrices."""
    if f.n != 2:
        raise ArityError("orbit enumeration defined for n=2")
    d = f.d
    seed = _as_array(dephase(f).representative).astype(np.uint8)
    gens = _generators(d)
    visited = {seed.tobytes()}
    frontier = seed[None, :, :].astype(np.int16)
    while frontier.shape[0]:
        cand = np.concatenate([g(frontier) for g in gens]).reshape(-1, d * d)
        cand = np.unique(cand, axis=0).astype(np.uint8)
        new = []
        for row in cand:
            key = row.tobytes()
            if key not in visited:
                visited.add(key)
                new.append(row)
        if new:
            frontier = np.array(new, dtype=np.int16).reshape(-1, d, d)
        else:
            frontier = np.empty((0, d, d), dtype=np.int16)
    return visited


def lfp_orbit(f):
    """The orbit of dephased image matrices of f, as FiniteFunctions."""
    d = f.d
    return {
        FiniteFunction(d, 2, list(key)) for key in lfp_orbit_keys(f)
    }


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
    )

    def __init__(self, lfp_class_id, representative, orbit_size,
                 contains_polynomial, polynomial_reps, invariants_fingerprint):
        self.lfp_class_id = lfp_class_id
        self.representative = representative
        self.orbit_size = orbit_size
        self.contains_polynomial = contains_polynomial
        self.polynomial_reps = polynomial_reps
        self.invariants_fingerprint = invariants_fingerprint


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
                    round(v, 10) for v in singular_values(rep)
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
                # scheduling-dependent fields stay out so output is
                # byte-identical across runs and thread counts
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
                    " ".join(f"{v:.5f}" for v in singular_values(rep)),
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


def _iter_all_dephased_keys(d):
    """All dephased matrices (zero first row/column), lex order, as keys."""
    core_points = [(x, y) for x in range(1, d) for y in range(1, d)]
    mat = np.zeros((d, d), dtype=np.uint8)
    for combo in itertools.product(range(d), repeat=(d - 1) ** 2):
        for (x, y), v in zip(core_points, combo):
            mat[x, y] = v
        yield mat.tobytes()


def _orbit_from_key(d, key):
    """(orbit size, lexmin key, full key set) for the orbit of a dephased key."""
    seed = np.frombuffer(key, dtype=np.uint8).reshape(d, d)
    gens = _generators(d)
    visited = {key}
    best = key
    frontier = seed[None, :, :].astype(np.int16)
    while frontier.shape[0]:
        cand = np.concatenate([g(frontier) for g in gens]).reshape(-1, d * d)
        cand = np.unique(cand, axis=0).astype(np.uint8)
        new = []
        for row in cand:
            k = row.tobytes()
            if k not in visited:
                visited.add(k)
                new.append(row)
                if k < best:
                    best = k
        if new:
            frontier = np.array(new, dtype=np.int16).reshape(-1, d, d)
        else:
            break
    return len(visited), best, visited


def _resolve_threads(threads):
    """An explicit count, else FFE_THREADS, else 1; clamped to [1, cpu_count]."""
    if threads is None:
        threads = int(os.environ.get("FFE_THREADS") or 1)
    return min(max(1, threads), os.cpu_count() or 1)


def classify_lfp(d, scope="all", threads=None):
    """Partition the scope into LFP orbits (Catalogue without LU grouping).

    scope="all": every dephased matrix (budget d^((d-1)^2) <= 10^7).
    scope="teh": orbits seeded from dephased polynomial images; classes are
    additionally annotated with every normal-form polynomial they contain.
    """
    start = time.time()
    threads = _resolve_threads(threads)
    if scope not in ("all", "teh"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "all" and d ** ((d - 1) ** 2) > ALL_SCOPE_BUDGET:
        raise BudgetError(
            f"scope=all at d={d} needs {d ** ((d - 1) ** 2)} matrices > {ALL_SCOPE_BUDGET}"
        )
    poly_index = dephased_polynomial_index(d)
    if scope == "all":
        seeds = list(_iter_all_dephased_keys(d))
    else:
        seeds = sorted(poly_index)

    results = {}
    claimed = set()
    lock = threading.Lock()
    queue = SimpleQueue()
    for key in seeds:
        queue.put(key)

    def worker():
        while True:
            try:
                key = queue.get_nowait()
            except Empty:
                return
            with lock:
                if key in claimed:
                    continue
            size, best, members = _orbit_from_key(d, key)
            polys = sorted(
                set().union(set(), *[set(poly_index.get(k, ())) for k in members])
            )
            poly_hit = bool(polys)
            rep_fn = key_to_function(d, best)
            record = (size, best, poly_hit, polys, invariants_fingerprint(rep_fn))
            with lock:
                results[best] = record
                if scope == "teh":
                    claimed.update(k for k in members if k in poly_index)
                else:
                    claimed.update(members)

    if threads == 1:
        worker()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker) for _ in range(threads)]
            for fut in futures:
                fut.result()

    orbits = []
    for cid, best in enumerate(sorted(results)):
        size, _, poly_hit, polys, fingerprint = results[best]
        orbits.append(
            OrbitRecord(cid, best, size, poly_hit, polys, fingerprint)
        )
    provenance = {
        "seed_count": len(seeds),
        "runtime_seconds": round(time.time() - start, 3),
        "threads": threads,
        "version": 1,
    }
    return Catalogue(d, scope, orbits, provenance=provenance)


def classify_lu(cat):
    """Group LFP classes by the exact trace-power signature of representatives."""
    groups = {}
    for rec in cat.orbits:
        rep = key_to_function(cat.d, rec.representative)
        sig = tuple(t.coeffs for t in trace_powers(rep))
        groups.setdefault(sig, []).append(rec.lfp_class_id)
    lu_classes = []
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    for lu_id, (sig, members) in enumerate(ordered):
        rep = key_to_function(cat.d, cat.orbits[min(members)].representative)
        lu_classes.append(
            LUClassRecord(lu_id, sig, sorted(members), singular_values(rep))
        )
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
    """True iff f and class_rep lie in the same LFP orbit."""
    if f.n != 2 or class_rep.n != 2:
        raise ArityError("membership defined for n=2")
    if f.d != class_rep.d:
        raise ArityError("mismatched d")
    target = _as_array(dephase(f).representative).astype(np.uint8).tobytes()
    return target in lfp_orbit_keys(class_rep)
