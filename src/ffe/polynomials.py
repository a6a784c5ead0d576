"""Polynomial representations of finite functions over Z_d.

Over a prime power p^m a function is polynomial iff it is a Z_{p^m}-linear
combination of the admissible monomials: exponent vectors e whose composite
degree c(e) = min(m, sum_i nu_p(e_i!)) is below m.  The normal form bounds the
coefficient of x^e below p^(m-c(e)) and is unique.  For composite d the normal
forms of the prime-power components are merged through the Chinese remainder
theorem.  This module provides the normal-form enumeration, the polynomiality
decision, the tensor-edge-hypergraph view, and a text grammar for polynomials.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .ring import ArityError, FiniteFunction, prime_power_factors

ENUMERATION_BUDGET = 10**7


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


def block_texts(d, n, monomials, coeffs):
    """Polynomial(d, n, dict(zip(monomials, row))).to_text() for every row of
    a coefficient block (distinct monomials, coefficients in [0, d)), from a
    table of term texts instead of one Polynomial per row."""
    names = _variable_names(n)
    order = sorted(range(len(monomials)), key=lambda k: _text_order(monomials[k]))
    table = [[_term_text(names, monomials[k], c) for c in range(d)] for k in order]
    return [
        " + ".join([terms[c] for terms, c in zip(table, row) if c]) or "0"
        for row in coeffs[:, order].tolist()
    ]


class Polynomial:
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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", tuple(sorted(clean.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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
        return FiniteFunction.from_callable(self.d, self.n, self.evaluate)

    def to_text(self):
        names = _variable_names(self.n)
        terms = sorted(self._terms, key=lambda t: _text_order(t[0]))
        return " + ".join(_term_text(names, e, c) for e, c in terms) or "0"

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and (self.d, self.n, self._terms) == (other.d, other.n, other._terms)
        )

    def __hash__(self):
        return hash((self.d, self.n, self._terms))

    def __repr__(self):
        return f"Polynomial(d={self.d}, n={self.n}, {self.to_text()!r})"


def parse_polynomial(text, d, n):
    """Parse the textual grammar: terms joined by '+', factors by '*',
    exponents with '^'; variables x,y for n<=2 else x1..xn."""
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
            if factor.isdigit():
                coeff = coeff * int(factor)
                continue
            name, caret, power = factor.partition("^")
            if name not in names:
                raise PolynomialParseError(f"unknown variable {name!r}")
            if caret and not power.isdigit():
                raise PolynomialParseError(f"bad exponent in {factor!r}")
            exps[names[name]] += int(power) if caret else 1
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


def _monomial_image(exps, d, n):
    vals = []
    for x in itertools.product(range(d), repeat=n):
        v = 1
        for xi, ei in zip(x, exps):
            if ei:
                v = v * pow(xi, ei, d) % d
        vals.append(v)
    return vals


def enumerate_polynomial_blocks(d, n, chunk=8192, constant_free=False):
    """Yield (monomials, coeffs, images) blocks covering every normal form once.

    `monomials` lists the merged admissible exponent vectors, lex order, the
    constant monomial first.  A block holds up to `chunk` normal forms as int64
    arrays: `coeffs` (rows x monomials) and their images `coeffs @ M % d`
    (rows x d^n), where row k of M is the image of monomial k.  Coefficients
    of shared monomials are CRT-merged residues in Z_d; a monomial absent
    from a prime-power component contributes 0 there.  Rows run in
    itertools.product order over the coefficient choices, so the constant
    varies slowest.  constant_free=True keeps only the rows whose constant
    coefficient is 0.
    """
    factors = prime_power_factors(d)
    basis = _crt_basis(factors)
    component = [dict(admissible_monomials(p, m, n)) for p, m in factors]
    merged = sorted(set().union(*[set(c) for c in component]))
    choice_lists = []
    total = 1
    for exps in merged:
        residue_ranges = [range(comp.get(exps, 1)) for comp in component]
        choice_lists.append([
            sum(u * r for u, r in zip(basis, residues)) % d
            for residues in itertools.product(*residue_ranges)
        ])
        total *= len(choice_lists[-1])
        if total > ENUMERATION_BUDGET:
            raise EnumerationTooLarge(
                f"{d=}, {n=}: more than {ENUMERATION_BUDGET} polynomial functions"
            )
    if constant_free:
        choice_lists[0] = [0]  # merged[0] is the constant monomial (0, ..., 0)
    images = np.array([_monomial_image(e, d, n) for e in merged], dtype=np.int64)
    radices = np.array([len(c) for c in choice_lists], dtype=np.int64)
    # mixed-radix place values, the last monomial fastest
    strides = np.cumprod(np.append(1, radices[:0:-1]))[::-1]
    table = np.zeros((len(merged), int(radices.max())), dtype=np.int64)
    for k, choices in enumerate(choice_lists):
        table[k, : len(choices)] = choices
    columns = np.arange(len(merged))
    rows = int(np.prod(radices))
    for start in range(0, rows, chunk):
        ordinals = np.arange(start, min(start + chunk, rows), dtype=np.int64)
        coeffs = table[columns, ordinals[:, None] // strides % radices]
        yield merged, coeffs, coeffs @ images % d


def enumerate_polynomial_functions(d, n, chunk=8192):
    """Yield every (normal-form polynomial, image function) exactly once."""
    for monomials, coeffs, images in enumerate_polynomial_blocks(d, n, chunk):
        for row_coeffs, row_vals in zip(coeffs.tolist(), images.tolist()):
            poly = Polynomial(d, n, dict(zip(monomials, row_coeffs)))
            yield poly, FiniteFunction(d, n, row_vals)


def count_polynomial_functions(d, n):
    factors = prime_power_factors(d)
    component = [dict(admissible_monomials(p, m, n)) for p, m in factors]
    merged = set().union(*[set(c) for c in component])
    total = 1
    for exps in merged:
        for comp in component:
            total *= comp.get(exps, 1)
    return total


def _field_solve(rows, rhs, p):
    """Solve M z = r over GF(p); returns (particular or None, kernel basis)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [[v % p for v in row] + [r % p] for row, r in zip(rows, rhs)]
    pivot_cols = []
    rank = 0
    for col in range(ncols):
        sel = next((i for i in range(rank, nrows) if aug[i][col]), None)
        if sel is None:
            continue
        aug[rank], aug[sel] = aug[sel], aug[rank]
        inv = pow(aug[rank][col], -1, p)
        aug[rank] = [v * inv % p for v in aug[rank]]
        for i in range(nrows):
            if i != rank and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [
                    (a - factor * b) % p for a, b in zip(aug[i], aug[rank])
                ]
        pivot_cols.append(col)
        rank += 1
    for i in range(rank, nrows):
        if aug[i][ncols]:
            return None, []
    particular = [0] * ncols
    for r, col in enumerate(pivot_cols):
        particular[col] = aug[r][ncols]
    kernel = []
    pivot_set = set(pivot_cols)
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, col in enumerate(pivot_cols):
            vec[col] = (-aug[r][free]) % p
        kernel.append(vec)
    return particular, kernel


def _solve_mod_prime_power(matrix, rhs, p, m):
    """One solution of matrix @ c == rhs over Z_{p^m}, or None.

    Level-by-level lifting: the solution set mod p^t is a coset of a tracked
    generator set; each lift solves a GF(p) system for the correction digits.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    x = [0] * ncols
    gens = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    q = p**m
    for t in range(m):
        pt = p**t
        residual = [
            (r - sum(a * xi for a, xi in zip(row, x))) % (pt * p)
            for row, r in zip(matrix, rhs)
        ]
        if any(r % pt for r in residual):
            raise AssertionError("lifting invariant violated")
        rhs_p = [(r // pt) % p for r in residual]
        # columns: one per current generator, then one per p^t * e_j correction
        cols = []
        for g in gens:
            img = [sum(a * gi for a, gi in zip(row, g)) for row in matrix]
            cols.append([(v // pt) % p for v in img])
        for j in range(ncols):
            cols.append([(row[j]) % p for row in matrix])
        rows = [[col[i] for col in cols] for i in range(nrows)]
        particular, kernel = _field_solve(rows, rhs_p, p)
        if particular is None:
            return None
        s = len(gens)
        new_x = list(x)
        for i, a in enumerate(particular[:s]):
            if a:
                new_x = [xi + a * gi for xi, gi in zip(new_x, gens[i])]
        for j, a in enumerate(particular[s:]):
            if a:
                new_x[j] += pt * a
        new_gens = [[p * gi for gi in g] for g in gens]
        for vec in kernel:
            g_new = [0] * ncols
            for i, a in enumerate(vec[:s]):
                if a:
                    g_new = [gi + a * hi for gi, hi in zip(g_new, gens[i])]
            for j, a in enumerate(vec[s:]):
                if a:
                    g_new[j] += pt * a
            if any(v % q for v in g_new):
                new_gens.append([v % q for v in g_new])
        x = [v % q for v in new_x]
        gens = new_gens
    return x


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
def _falling_factorial_expansion(exps):
    """Monomial expansion of prod_i (x_i)_(e_i) as {exponent vector: int}."""
    out = {(): 1}
    for e in exps:
        single = _falling_factorial_coeffs(e)
        new = {}
        for tail, c in out.items():
            for power, fc in enumerate(single):
                if fc:
                    key = tail + (power,)
                    new[key] = new.get(key, 0) + c * fc
        out = new
    return out


def _normalize_component(terms, p, m):
    """Reduce coefficients below p^(m-c(e)) using falling-factorial nulls.

    The function (p^m / gcd(p^m, prod e_i!)) * prod (x_i)_(e_i) vanishes
    identically mod p^m, which rewrites any out-of-bound coefficient into
    strictly smaller monomials; iteration terminates by the graded order.
    """
    q = p**m
    terms = {e: c % q for e, c in terms.items() if c % q}
    while True:
        offending = [
            e for e, c in terms.items() if c >= p ** (m - _multivariate_cap(p, m, e))
        ]
        if not offending:
            return terms
        e = max(offending, key=lambda t: (sum(t), t))
        bound = p ** (m - _multivariate_cap(p, m, e))
        s, r = divmod(terms.pop(e), bound)
        if r:
            terms[e] = r
        for e2, c2 in _falling_factorial_expansion(e).items():
            if e2 == e:
                continue
            val = (terms.get(e2, 0) - s * bound * c2) % q
            if val:
                terms[e2] = val
            else:
                terms.pop(e2, None)


def is_polynomial(f):
    """The normal-form polynomial representing f, or None.

    Decided per prime-power component: reduce f to Z_{p^m}^n (failure of
    well-definedness already rules a polynomial out), solve the linear system
    of admissible monomial images by p-adic lifting, normalize coefficients,
    then CRT-merge the components.
    """
    d, n = f.d, f.n
    factors = prime_power_factors(d)
    basis = _crt_basis(factors)
    component_terms = []
    for p, m in factors:
        q = p**m
        table = {}
        for x in f.points():
            key = tuple(c % q for c in x)
            v = f.eval(x) % q
            if table.setdefault(key, v) != v:
                return None
        monos = [e for e, _ in admissible_monomials(p, m, n)]
        points = list(itertools.product(range(q), repeat=n))
        matrix = []
        for x in points:
            row = []
            for exps in monos:
                v = 1
                for xi, ei in zip(x, exps):
                    if ei:
                        v = v * pow(xi, ei, q) % q
                row.append(v)
            matrix.append(row)
        rhs = [table[x] for x in points]
        sol = _solve_mod_prime_power(matrix, rhs, p, m)
        if sol is None:
            return None
        component_terms.append(_normalize_component(dict(zip(monos, sol)), p, m))
    merged = {}
    for exps in set().union(*[set(t) for t in component_terms]):
        residues = [t.get(exps, 0) for t in component_terms]
        merged[exps] = sum(u * r for u, r in zip(basis, residues)) % d
    poly = Polynomial(d, n, merged)
    if poly.to_function() != f:
        raise AssertionError("normal-form reconstruction mismatch")
    return poly


class TensorEdgeHypergraph:
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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorEdgeHypergraph is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TensorEdgeHypergraph)
            and (self.d, self.n, self.edges) == (other.d, other.n, other.edges)
        )

    def __repr__(self):
        return f"TensorEdgeHypergraph(d={self.d}, n={self.n}, edges={self.edges})"


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
