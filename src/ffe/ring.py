"""Finite functions Z_d^n -> Z_d with exact modular arithmetic.

Values are stored as least nonnegative residues in [0, d), row-major with the
first argument slowest-varying, so the n=2 image matrix has row index x and
column index y.  All operations reduce eagerly mod d and return immutable
values, which makes functions hashable and safe to share between threads.
"""
from __future__ import annotations

import itertools
import json

MIN_D, MAX_D = 2, 12
MAX_N = 4


class ArityError(ValueError):
    """Shape mismatch between functions, points, or site indices."""


class PermutationError(ValueError):
    """Sequence is not a bijection on its index range."""


def check_shape(d, n):
    """Reject a local dimension or site count outside the supported range."""
    if not (MIN_D <= d <= MAX_D):
        raise ArityError(f"d={d} outside supported range [{MIN_D}, {MAX_D}]")
    if not (1 <= n <= MAX_N):
        raise ArityError(f"n={n} outside supported range [1, {MAX_N}]")


def check_permutation(perm, size):
    perm = tuple(perm)
    if len(perm) != size or sorted(perm) != list(range(size)):
        raise PermutationError(f"not a permutation of range({size}): {perm}")
    return perm


def invert_permutation(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def prime_power_factors(d):
    """Factor d as a tuple of (p, m) with p prime, sorted by p."""
    factors = []
    rest = d
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            m = 0
            while rest % p == 0:
                rest //= p
                m += 1
            factors.append((p, m))
        p += 1
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


class FiniteFunction:
    """Immutable f: Z_d^n -> Z_d backed by a flat residue table."""

    __slots__ = ("d", "n", "values")

    def __init__(self, d, n, values):
        check_shape(d, n)
        values = tuple(v % d for v in values)
        if len(values) != d**n:
            raise ArityError(f"expected {d**n} values, got {len(values)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteFunction is immutable")

    @classmethod
    def zero(cls, d, n):
        return cls(d, n, (0,) * d**n)

    @classmethod
    def from_matrix(cls, d, matrix):
        """Build a bipartite function from its image matrix (row = x)."""
        values = [v for row in matrix for v in row]
        return cls(d, 2, values)

    @classmethod
    def from_callable(cls, d, n, fn):
        return cls(d, n, [fn(x) for x in itertools.product(range(d), repeat=n)])

    def index(self, x):
        if len(x) != self.n:
            raise ArityError(f"point arity {len(x)} != {self.n}")
        idx = 0
        for c in x:
            idx = idx * self.d + c % self.d
        return idx

    def eval(self, x):
        return self.values[self.index(x)]

    def points(self):
        return itertools.product(range(self.d), repeat=self.n)

    def _check_shape(self, other):
        if (self.d, self.n) != (other.d, other.n):
            raise ArityError(
                f"shape mismatch: ({self.d},{self.n}) vs ({other.d},{other.n})"
            )

    def __add__(self, other):
        self._check_shape(other)
        return FiniteFunction(
            self.d, self.n, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        self._check_shape(other)
        return FiniteFunction(
            self.d, self.n, [a - b for a, b in zip(self.values, other.values)]
        )

    def __neg__(self):
        return FiniteFunction(self.d, self.n, [-a for a in self.values])

    def scale(self, c):
        return FiniteFunction(self.d, self.n, [c * a for a in self.values])

    def add_constant(self, c):
        return FiniteFunction(self.d, self.n, [a + c for a in self.values])

    def compose_site_permutation(self, i, perm):
        """f composed with a permutation of the i-th argument (0-based site)."""
        if not (0 <= i < self.n):
            raise ArityError(f"site {i} out of range for n={self.n}")
        perm = check_permutation(perm, self.d)
        vals = [
            self.values[self.index(x[:i] + (perm[x[i]],) + x[i + 1:])]
            for x in self.points()
        ]
        return FiniteFunction(self.d, self.n, vals)

    def compose_global_permutation(self, perm):
        """g with g(x) = f(pi(x)), pi given as an index map on Z_d^n."""
        perm = check_permutation(perm, self.d**self.n)
        return FiniteFunction(self.d, self.n, [self.values[p] for p in perm])

    def difference(self, i):
        """Forward difference at site i: f(.., x_i+1, ..) - f(.., x_i, ..)."""
        shift = tuple((k + 1) % self.d for k in range(self.d))
        return self.compose_site_permutation(i, shift) - self

    def as_matrix(self):
        if self.n != 2:
            raise ArityError("image matrix defined for n=2 only")
        d = self.d
        return [list(self.values[r * d:(r + 1) * d]) for r in range(d)]

    def as_nested(self):
        def build(depth, offset, stride):
            if depth == self.n:
                return self.values[offset]
            stride //= self.d
            return [build(depth + 1, offset + k * stride, stride) for k in range(self.d)]

        return build(0, 0, self.d**self.n)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFunction)
            and (self.d, self.n, self.values) == (other.d, other.n, other.values)
        )

    def __hash__(self):
        return hash((self.d, self.n, self.values))

    def __repr__(self):
        return f"FiniteFunction(d={self.d}, n={self.n}, values={self.values})"


def site_permutation_as_global(d, n, i, perm):
    """Index map on Z_d^n for pi acting on the i-th argument alone."""
    perm = check_permutation(perm, d)
    out = []
    for x in itertools.product(range(d), repeat=n):
        y = x[:i] + (perm[x[i]],) + x[i + 1:]
        idx = 0
        for c in y:
            idx = idx * d + c
        out.append(idx)
    return tuple(out)


def compose_index_maps(outer, inner):
    """Index map of pi_outer o pi_inner (apply inner first to the point)."""
    # Index maps act by lookup: (f o pi)[i] = f[map[i]].  Composition of the
    # point maps pi(sigma(x)) corresponds to map_sigma[map_pi[i]] lookups.
    return tuple(outer[inner[i]] for i in range(len(outer)))


def parse_function(text):
    """Parse the JSON function format (nested or flat values)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArityError(f"malformed function JSON: {exc}") from exc
    return function_from_json(obj)


def function_from_json(obj):
    if not isinstance(obj, dict) or "d" not in obj or "values" not in obj:
        raise ArityError("function JSON requires 'd' and 'values'")
    d = obj["d"]
    values = obj["values"]
    if isinstance(values, list) and values and isinstance(values[0], list):
        flat = []
        n = 0
        probe = values
        while isinstance(probe, list):
            n += 1
            probe = probe[0]

        def walk(v, depth):
            if depth == n:
                if not isinstance(v, int):
                    raise ArityError("non-integer residue in function JSON")
                flat.append(v)
                return
            if not isinstance(v, list) or len(v) != d:
                raise ArityError("ragged nested values in function JSON")
            for item in v:
                walk(item, depth + 1)

        walk(values, 0)
        if "n" in obj and obj["n"] != n:
            raise ArityError(f"explicit n={obj['n']} does not match nesting depth {n}")
    else:
        if "n" not in obj:
            raise ArityError("flat values require explicit 'n'")
        n = obj["n"]
        flat = values
    if any(not isinstance(v, int) or not (0 <= v < d) for v in flat):
        raise ArityError("residues must be integers in [0, d)")
    return FiniteFunction(d, n, flat)


def emit_function(f):
    return json.dumps({"d": f.d, "n": f.n, "values": f.as_nested()})
