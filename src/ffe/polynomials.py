"""Polynomial representations of finite functions over Z_d.

Over a prime power p^m a function is polynomial iff it is a Z_{p^m}-linear
combination of the admissible monomials: exponent vectors e whose composite
degree c(e) = min(m, sum_i nu_p(e_i!)) is below m.  The normal form bounds the
coefficient of x^e below p^(m-c(e)) and is unique.  For composite d the normal
forms of the prime-power components are merged through the Chinese remainder
theorem.  This module provides the normal-form enumeration, the polynomiality
decision, the tensor-edge-hypergraph view, and a text grammar for polynomials.

The decision needs no linear solver: over Z_{p^m} the forward differences of
a function at 0 say whether it is polynomial and give its coefficients in the
falling-factorial basis (is_polynomial).  Differences, the change to the
monomial basis and evaluation are each one small matrix applied along every
axis of a d x ... x d array (_along_axes).  The monomial coefficients are
brought under their normal-form bounds in one pass down the total degrees,
each step subtracting falling factorials that vanish as functions; the
components are then CRT-merged in one dense array.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .ring import ArityError, FiniteFunction, Value, check_shape, prime_power_factors

ENUMERATION_BUDGET = 10**7
BLOCK_ROWS = 8192  # normal forms per block of enumerate_polynomial_blocks


class PolynomialParseError(ValueError):
    pass


class EnumerationTooLarge(ValueError):
    pass


def composite_degree(p, m, e):
    """nu_p(e!), the p-adic valuation of e! (Legendre's formula), uncapped.

    Multivariate callers cap min(m, sum_i composite_degree(p, m, e_i)).
    """
    total = 0
    power = p
    while power <= e:
        total += e // power
        power *= p
    return total


def _multivariate_cap(p, m, exps):
    return min(m, sum(composite_degree(p, m, e) for e in exps))


@lru_cache(maxsize=None)
def _single_var_exponents(p, m):
    """Admissible single-variable exponents: all e with nu_p(e!) < m."""
    out = []
    e = 0
    while composite_degree(p, m, e) < m:
        out.append(e)
        e += 1
    return tuple(out)


@lru_cache(maxsize=None)
def admissible_monomials(p, m, n):
    """All (exponent vector, coefficient modulus p^(m-c)) pairs, lex order."""
    single = _single_var_exponents(p, m)
    out = []
    for exps in itertools.product(single, repeat=n):
        c = _multivariate_cap(p, m, exps)
        if c < m:
            out.append((exps, p ** (m - c)))
    return tuple(sorted(out))


def _variable_names(n):
    if n == 1:
        return ("x",)
    if n == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(n))


def _text_order(exps):
    """Terms are printed by total degree, then lex order of exponents."""
    return (sum(exps), exps)


def _term_text(names, exps, coeff):
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
    if not factors:
        return str(coeff)
    if coeff == 1:
        return "*".join(factors)
    return "*".join([str(coeff)] + factors)


class Polynomial(Value):
    """Polynomial over Z_d in n variables: a map monomial -> nonzero residue."""

    __slots__ = ("d", "n", "_terms")

    def __init__(self, d, n, terms):
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ArityError(f"bad exponent vector {exps} for n={n}")
            coeff = int(coeff) % d
            if coeff:
                clean[exps] = (clean.get(exps, 0) + coeff) % d
        clean = {e: c for e, c in clean.items() if c}
        self._set(d, n, tuple(sorted(clean.items())))

    @classmethod
    def _of_row(cls, d, n, monomials, coeffs):
        """Unchecked constructor from a block row: lex-sorted monomials, residues."""
        terms = tuple((e, c) for e, c in zip(monomials, coeffs) if c)
        return object.__new__(cls)._set(d, n, terms)

    @property
    def terms(self):
        return dict(self._terms)

    @classmethod
    def zero(cls, d, n):
        return cls(d, n, {})

    def constant_free(self):
        return Polynomial(
            self.d, self.n, {e: c for e, c in self._terms if any(e)}
        )

    def evaluate(self, x):
        if len(x) != self.n:
            raise ArityError(f"point arity {len(x)} != {self.n}")
        total = 0
        for exps, coeff in self._terms:
            term = coeff
            for xi, ei in zip(x, exps):
                if ei:
                    term = term * pow(xi, ei, self.d) % self.d
            total += term
        return total % self.d

    def to_function(self):
        d, n = self.d, self.n
        if not self._terms:
            return FiniteFunction.zero(d, n)
        # one slot per distinct column x -> x^e mod d, so exponents >= d
        # share the slot of a smaller exponent with the same powers
        columns, slot = {}, {}
        for e in {e for exps, _ in self._terms for e in exps}:
            column = tuple(pow(x, e, d) for x in range(d))
            slot[e] = columns.setdefault(column, len(columns))
        coeffs = np.zeros((len(columns),) * n, dtype=np.int64)
        index = np.array([[slot[e] for e in exps] for exps, _ in self._terms])
        np.add.at(coeffs, tuple(index.T), [c for _, c in self._terms])
        table = np.array(list(columns), dtype=np.int64).T
        return FiniteFunction(d, n, _along_axes(coeffs % d, table, d).ravel().tolist())

    def to_text(self):
        names = _variable_names(self.n)
        terms = sorted(self._terms, key=lambda t: _text_order(t[0]))
        return " + ".join(_term_text(names, e, c) for e, c in terms) or "0"

    def __repr__(self):
        return f"Polynomial(d={self.d}, n={self.n}, {self.to_text()!r})"


def _decimal_value(digits, modulus=None):
    """The number a string of decimal digits spells, mod modulus if given.
    It is read in chunks of 640 digits, the least limit that
    sys.set_int_max_str_digits accepts, since int() refuses a longer string
    (past 4300 digits by default)."""
    value = 0
    for start in range(0, len(digits), 640):
        chunk = digits[start:start + 640]
        value = value * 10 ** len(chunk) + int(chunk)
        if modulus:
            value %= modulus
    return value


def parse_polynomial(text, d, n):
    """Parse the textual grammar: terms joined by '+', factors by '*',
    exponents with '^'; variables x,y for n<=2 else x1..xn.  Coefficients
    and exponents may have any number of digits: a coefficient is read mod
    d, an exponent exactly."""
    check_shape(d, n)
    names = {name: i for i, name in enumerate(_variable_names(n))}
    for i in range(n):
        names.setdefault(f"x{i + 1}", i)
    stripped = text.replace(" ", "")
    if not stripped:
        raise PolynomialParseError("empty polynomial text")
    terms = {}
    for chunk in stripped.split("+"):
        if not chunk:
            raise PolynomialParseError(f"empty term in {text!r}")
        coeff = 1
        exps = [0] * n
        for factor in chunk.split("*"):
            if not factor:
                raise PolynomialParseError(f"empty factor in {chunk!r}")
            if factor.isdecimal():
                coeff = coeff * _decimal_value(factor, d) % d
                continue
            name, caret, power = factor.partition("^")
            if name not in names:
                raise PolynomialParseError(f"unknown variable {name!r}")
            if caret and not power.isdecimal():
                raise PolynomialParseError(f"bad exponent in {factor!r}")
            exps[names[name]] += _decimal_value(power) if caret else 1
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + coeff) % d
    return Polynomial(d, n, terms)


def _crt_basis(factors):
    """Residues u_i with u_i == 1 mod p_i^m_i and 0 mod the other components."""
    d = 1
    for p, m in factors:
        d *= p**m
    basis = []
    for p, m in factors:
        q = p**m
        rest = d // q
        basis.append(rest * pow(rest, -1, q) % d)
    return basis


def normal_form_basis(d, n):
    """(monomials, choices, images): the normal forms over Z_d are the product
    of the coefficient choices, unless their count passes ENUMERATION_BUDGET.

    `monomials` lists the merged admissible exponent vectors, lex order, the
    constant monomial first.  choices[k] lists monomial k's CRT-merged
    coefficients in Z_d; a monomial absent from a prime-power component
    contributes 0 there.  images[k] is the image of monomial k (int64).
    """
    if count_polynomial_functions(d, n) > ENUMERATION_BUDGET:
        raise EnumerationTooLarge(
            f"{d=}, {n=}: more than {ENUMERATION_BUDGET} polynomial functions"
        )
    factors = prime_power_factors(d)
    basis = _crt_basis(factors)
    component = [dict(admissible_monomials(p, m, n)) for p, m in factors]
    merged = sorted(set().union(*component))
    choice_lists = []
    for exps in merged:
        residue_ranges = [range(comp.get(exps, 1)) for comp in component]
        choice_lists.append([
            sum(u * r for u, r in zip(basis, residues)) % d
            for residues in itertools.product(*residue_ranges)
        ])
    images = np.array(
        [Polynomial(d, n, {e: 1}).to_function().values for e in merged], dtype=np.int64
    )
    return merged, choice_lists, images


def enumerate_polynomial_blocks(d, n):
    """Yield (monomials, coeffs, images) blocks covering every normal form once.

    `monomials` are those of normal_form_basis.  A block holds up to
    BLOCK_ROWS normal forms as int64 arrays: `coeffs` (rows x monomials) and
    their images `coeffs @ M % d` (rows x d^n), where row k of M is the image
    of monomial k.  Rows run in itertools.product order over the coefficient
    choices, so the constant varies slowest.
    """
    merged, choice_lists, images = normal_form_basis(d, n)
    rows = itertools.product(*choice_lists)
    while block := list(itertools.islice(rows, BLOCK_ROWS)):
        coeffs = np.array(block, dtype=np.int64)
        yield merged, coeffs, coeffs @ images % d


def enumerate_polynomial_functions(d, n):
    """Yield every (normal-form polynomial, image function) exactly once."""
    for monomials, coeffs, images in enumerate_polynomial_blocks(d, n):
        for row_coeffs, row_vals in zip(coeffs.tolist(), images.tolist()):
            poly = Polynomial._of_row(d, n, monomials, row_coeffs)
            yield poly, FiniteFunction._of_residues(d, n, row_vals)


def count_polynomial_functions(d, n):
    return math.prod(
        modulus
        for p, m in prime_power_factors(d)
        for _, modulus in admissible_monomials(p, m, n)
    )


@lru_cache(maxsize=None)
def _falling_factorial_coeffs(e):
    """Coefficients of x(x-1)...(x-e+1) as a tuple indexed by power."""
    coeffs = [1]
    for j in range(e):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= j * coeffs[i + 1]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _newton_tables(p, m):
    """Per-axis tables over Z_q, q = p^m, indexed by e and x in [0, q).

    diff[e, x] = (-1)^(e-x) C(e, x), so diff applied along every axis of g
    gives the forward differences (Delta^e g)(0); stirling[k, e] is the
    coefficient of x^k in (x)_e; nu[e] = nu_p(e!); unit_inv[e] is the inverse
    mod q of e! / p^nu[e].
    """
    q = p**m
    diff = np.array(
        [[(-1) ** (e + x) * math.comb(e, x) for x in range(q)] for e in range(q)]
    )
    stirling = np.zeros((q, q), dtype=np.int64)
    for e in range(q):
        stirling[: e + 1, e] = _falling_factorial_coeffs(e)
    nu = np.array([composite_degree(p, m, e) for e in range(q)])
    unit_inv = np.array(
        [pow(math.factorial(e) // p ** int(v), -1, q) for e, v in enumerate(nu)]
    )
    tables = (diff % q, stirling % q, nu, unit_inv)
    for table in tables:
        table.flags.writeable = False
    return tables


def _along_axes(tensor, matrix, modulus):
    """matrix (rows x k) applied along every axis of a (k, ..., k) int64
    tensor, mod modulus: the result has shape (rows, ..., rows)."""
    for _ in range(tensor.ndim):
        # contracts the leading axis and appends the new one at the end, as
        # np.tensordot(tensor, matrix, ([0], [1])) does with more overhead
        rest = tensor.shape[1:]
        tensor = tensor.reshape(len(tensor), -1).T @ matrix.T
        tensor = tensor.reshape(rest + (len(matrix),)) % modulus
    return tensor


def is_polynomial(f):
    """The normal-form polynomial representing f, or None.

    Decided per prime-power component q = p^m by finite differences (Kempner
    1921).  f mod q must depend on x mod q alone; call that function g.  Let
    a_e = (Delta^e g)(0) for e in [0, q)^n and nu(e) = min(m, sum_i
    nu_p(e_i!)).  Then g is a polynomial iff p^nu(e) divides every a_e.

    Proof sketch: a polynomial with integer coefficients is an integer
    combination sum_e b_e prod_i (x_i)_(e_i) of falling factorials, whose
    e-th difference at 0 is e! b_e, so p^nu(e) | a_e.  Conversely, b_e =
    (a_e / p^nu) (e! / p^nu)^(-1) mod p^(m-nu) gives a polynomial with the
    differences a_e mod q; the binomial basis is unitriangular, so the a_e
    determine g on [0, q)^n.  Since (x)_e = e! C(x, e) is divisible by
    p^nu, b_e matters only mod p^(m-nu).  The Stirling numbers turn the b_e
    into monomial coefficients c_e, which may still exceed the normal-form
    bound p^(m-nu(e)).  One pass over the total degrees, from the highest
    one holding such a coefficient down, fixes that: p^(m-nu(e)) (x)_e is
    zero as a function mod q, its monomial x^e has coefficient 1, and its
    other monomials have exponents below e, so subtracting floor(c_e /
    p^(m-nu(e))) copies of it brings c_e under its bound and changes only
    lower degrees.  Over a prime q every c_e is already bounded.  The normal
    form is unique, so the bounded components, CRT-merged, are it.
    """
    d, n = f.d, f.n
    values = np.array(f.values, dtype=np.int64).reshape((d,) * n)
    factors = prime_power_factors(d)
    merged = np.zeros(values.shape, dtype=np.int64)
    for (p, m), u in zip(factors, _crt_basis(factors)):
        q = p**m
        g = values[(slice(q),) * n] % q
        if not np.array_equal(g[np.ix_(*[np.arange(d) % q] * n)], values % q):
            return None
        diff, stirling, nu, unit_inv = _newton_tables(p, m)
        a = _along_axes(g, diff, q)
        power = p ** np.minimum(m, sum(np.ix_(*[nu] * n)))
        if (a % power).any():
            return None
        bound = q // power
        b = a // power * math.prod(np.ix_(*[unit_inv] * n)) % bound
        c = _along_axes(b, stirling, q)
        level = sum(np.ix_(*[np.arange(q)] * n))
        while (c >= bound).any():
            top = level[c >= bound].max()
            carry = np.where(level == top, c // bound, 0)
            c = (c - _along_axes(carry * bound, stirling, q)) % q
        merged[(slice(q),) * n] += u * c
    merged %= d
    exps = np.argwhere(merged)
    terms = dict(zip(map(tuple, exps.tolist()), merged[tuple(exps.T)].tolist()))
    poly = Polynomial(d, n, terms)
    if poly.to_function() != f:
        raise AssertionError("normal-form reconstruction mismatch")
    return poly


class TensorEdgeHypergraph(Value):
    """Hypergraph with tensor-valued edges: support subset -> edge tensor.

    Edges are keyed by the tuple of participating sites; the edge tensor maps
    nonzero exponent assignments on those sites to residues in [0, d).
    """

    __slots__ = ("d", "n", "edges")

    def __init__(self, d, n, edges):
        clean = {}
        for support, tensor in edges.items():
            support = tuple(support)
            entries = {
                tuple(beta): c % d for beta, c in tensor.items() if c % d
            }
            if not support:
                raise ArityError("empty edge support")
            if any(b <= 0 for beta in entries for b in beta):
                raise ArityError("edge exponents must be nonzero")
            if entries:
                clean[support] = entries
        self._set(d, n, clean)


def poly_to_teh(poly):
    """Group non-constant terms by their variable support (constant dropped)."""
    edges = {}
    for exps, coeff in poly.terms.items():
        support = tuple(i for i, e in enumerate(exps) if e)
        if not support:
            continue
        beta = tuple(exps[i] for i in support)
        edges.setdefault(support, {})[beta] = coeff
    return TensorEdgeHypergraph(poly.d, poly.n, edges)


def teh_to_poly(teh):
    terms = {}
    for support, tensor in teh.edges.items():
        for beta, coeff in tensor.items():
            exps = [0] * teh.n
            for site, e in zip(support, beta):
                exps[site] = e
            terms[tuple(exps)] = coeff
    return Polynomial(teh.d, teh.n, terms)


def monomial_gate_list(poly):
    """Ordered (monomial, multiplicity) phase-gate sequence rebuilding poly."""
    if any(not any(e) for e in poly.terms):
        raise ArityError("gate list defined for constant-free polynomials")
    return sorted(poly.terms.items())
