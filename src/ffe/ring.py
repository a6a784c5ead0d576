"""Finite functions Z_d^n -> Z_d with exact modular arithmetic, and Value,
the immutable value type that the package's algebraic objects share.

Values are stored as least nonnegative residues in [0, d), row-major with the
first argument slowest-varying, so the n=2 image matrix has row index x and
column index y.  All operations reduce eagerly mod d and return immutable
values, which makes functions hashable and safe to share between threads.
"""
from __future__ import annotations

import itertools
import json
import operator

import numpy as np

MIN_D, MAX_D = 2, 12
MAX_N = 4


class ArityError(ValueError):
    """Shape mismatch between functions, points, or site indices."""


class PermutationError(ValueError):
    """Sequence is not a bijection on its index range."""


class ResidueError(ValueError):
    """A value or phase that is not an integer."""


def check_shape(d, n):
    """Reject a local dimension or site count outside the supported range."""
    if not (MIN_D <= d <= MAX_D):
        raise ArityError(f"d={d} outside supported range [{MIN_D}, {MAX_D}]")
    if not (1 <= n <= MAX_N):
        raise ArityError(f"n={n} outside supported range [1, {MAX_N}]")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def as_int(v):
    """v as a Python int: ints and numpy integers pass; bools, floats and
    strings raise ResidueError."""
    if isinstance(v, bool):
        raise ResidueError(f"not an integer: {v!r}")
    try:
        return operator.index(v)
    except TypeError:
        raise ResidueError(f"not an integer: {v!r}") from None


def as_ints(values):
    """as_int of every value, as a tuple."""
    values = tuple(values)
    if set(map(type, values)) <= {int}:
        return values
    return tuple(map(as_int, values))


def check_permutation(perm, size):
    if not isinstance(perm, (list, tuple, range)) or not (
        set(map(type, perm)) <= {int} or all(map(_is_int, perm))
    ):
        raise PermutationError(f"not a sequence of integers: {perm!r}")
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


class Value:
    """Immutable value whose fields are its subclass's __slots__.

    A subclass validates its inputs and sets every field once with _set.  The
    fields can then be neither assigned nor deleted; values compare equal
    when their types are the same and their field tuples, in slot order, are
    equal, and hash as that tuple.  Copy and pickle rebuild them with _set.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def _set(self, *values):
        """Set the fields, in slot order; returns self."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return type(other) is type(self) and self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return type(self)._of_fields, tuple(map(self.__getattribute__, self.__slots__))

    @classmethod
    def _of_fields(cls, *fields):
        return object.__new__(cls)._set(*fields)

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self))
        )
        return f"{type(self).__name__}({fields})"


class FiniteFunction(Value):
    """Immutable f: Z_d^n -> Z_d backed by a flat residue table."""

    __slots__ = ("d", "n", "values")

    def __init__(self, d, n, values):
        check_shape(d, n)
        values = tuple(v % d for v in as_ints(values))
        if len(values) != d**n:
            raise ArityError(f"expected {d**n} values, got {len(values)}")
        self._set(d, n, values)

    @classmethod
    def _of_residues(cls, d, n, values):
        """Unchecked constructor for d^n values that are residues in [0, d)."""
        return object.__new__(cls)._set(d, n, tuple(values))

    @classmethod
    def zero(cls, d, n):
        return cls(d, n, (0,) * d**n)

    @classmethod
    def from_matrix(cls, d, matrix):
        """Build a bipartite function from its image matrix (row = x)."""
        return cls(d, 2, [v for row in matrix for v in row])

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
        index_map = site_permutation_as_global(self.d, self.n, i, perm)
        return self._of_residues(self.d, self.n, map(self.values.__getitem__, index_map))

    def compose_global_permutation(self, perm):
        """g with g(x) = f(pi(x)), pi given as an index map on Z_d^n."""
        perm = check_permutation(perm, self.d**self.n)
        return self._of_residues(self.d, self.n, map(self.values.__getitem__, perm))

    def difference(self, i):
        """Forward difference at site i: f(.., x_i+1, ..) - f(.., x_i, ..)."""
        shift = tuple((k + 1) % self.d for k in range(self.d))
        return self.compose_site_permutation(i, shift) - self

    def image(self):
        """The image matrix of a bipartite function: the (d, d) int64 array
        with f(x, y) at row x, column y.  Every n=2 operation reads it."""
        if self.n != 2:
            raise ArityError("image matrix defined for n=2 only")
        return np.array(self.values, dtype=np.int64).reshape(self.d, self.d)

    def as_matrix(self):
        return self.image().tolist()

    def as_nested(self):
        return np.reshape(self.values, (self.d,) * self.n).tolist()


def site_permutation_as_global(d, n, i, perm):
    """Index map on Z_d^n for pi acting on the i-th argument alone: gather
    the (d,)*n tensor of flat indices through pi along axis i."""
    if not (0 <= i < n):
        raise ArityError(f"site {i} out of range for n={n}")
    perm = check_permutation(perm, d)
    return tuple(np.take(np.arange(d**n).reshape((d,) * n), perm, axis=i).ravel().tolist())


def compose_index_maps(outer, inner):
    """Index map of pi_outer o pi_inner (apply inner first to the point)."""
    # Index maps act by lookup: (f o pi)[i] = f[map[i]].  Composition of the
    # point maps pi(sigma(x)) corresponds to map_sigma[map_pi[i]] lookups.
    return tuple(outer[inner[i]] for i in range(len(outer)))


def read_json(text, what):
    """json.loads(text).  JSON nested too deeply, or holding an integer past
    the interpreter's int-to-str digit limit, raises an ArityError naming
    what; a JSONDecodeError passes through."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ArityError(f"{what} is nested too deeply") from None
    except ValueError:  # the only other ValueError json.loads raises
        import sys
        limit = sys.get_int_max_str_digits()
        raise ArityError(f"{what} holds an integer of more than {limit} digits") from None


def parse_function(text):
    """Parse the JSON function format (nested or flat values)."""
    try:
        return function_from_json(read_json(text, "function JSON"))
    except json.JSONDecodeError as exc:
        raise ArityError(f"malformed function JSON: {exc}") from exc


def function_from_json(obj):
    if not isinstance(obj, dict) or "d" not in obj or "values" not in obj:
        raise ArityError("function JSON requires 'd' and 'values'")
    d = obj["d"]
    values = obj["values"]
    if not _is_int(d) or not _is_int(obj.get("n", 0)):
        raise ArityError("'d' and 'n' in function JSON must be integers")
    if not isinstance(values, list):
        raise ArityError("'values' in function JSON must be a list")
    if values and isinstance(values[0], list):
        n = 0
        probe = values
        while isinstance(probe, list) and probe:
            n += 1
            probe = probe[0]
        # one level at a time, so no nesting depth recurses
        flat = [values]
        for _ in range(n):
            if not all(isinstance(v, list) and len(v) == d for v in flat):
                raise ArityError("ragged nested values in function JSON")
            flat = [item for v in flat for item in v]
        if "n" in obj and obj["n"] != n:
            raise ArityError(f"explicit n={obj['n']} does not match nesting depth {n}")
    else:
        if "n" not in obj:
            raise ArityError("flat values require explicit 'n'")
        n = obj["n"]
        flat = values
    if not (set(map(type, flat)) <= {int} or all(map(_is_int, flat))) or (
        flat and not (0 <= min(flat) and max(flat) < d)
    ):
        raise ArityError("residues must be integers in [0, d)")
    return FiniteFunction(d, n, flat)

