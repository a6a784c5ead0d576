"""Exact Gram/trace-power machinery for bipartite encodings, plus numeric
singular values for reporting.

The coefficient matrix of a bipartite function f is A with A_{xy} =
omega^{f(x,y)} (x = row).  The column Gram G = A^dagger A has entries
G_{ij} = sum_k omega^{f(k,i) - f(k,j)}, is Hermitian with diagonal d, and its
exact trace powers (tr G^2, ..., tr G^d) determine the reduced-state spectrum
via Newton's identities, so they serve as an exact local-unitary signature.

The singular values of one state come from LAPACK's SVD. A stack of states,
as the catalogue columns are, goes through a lockstep Jacobi on the real
embeddings of the Grams instead, so that the round-off the catalogue JSON
prints is fixed by IEEE operations alone and stays byte-identical.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .cyclo import CyclotomicInt, CyclotomicRat, _power_table, mul_coeffs, phi_degree
from .ring import ArityError, FiniteFunction


# Second modulus of the trace-power kernel: the prime 2^26 - 5.
_P = 2**26 - 5
_INV_2_64 = pow(2**64, -1, _P)

# The lockstep Jacobi's thresholds: a rotation is skipped below _JACOBI_EPS,
# and a matrix is done once its off-diagonal max falls below it.
_JACOBI_EPS = 1e-12
_JACOBI_MAX_SWEEPS = 100


def _gram_counts(images):
    """Group-ring Gram of an (N, d, d) stack of image matrices: counts[n, i, j, e]
    is the number of rows k with f_n(k, i) - f_n(k, j) = e mod d, so that
    G_ij = sum_e counts[n, i, j, e] omega^e."""
    images = np.asarray(images, dtype=np.int64)
    d = images.shape[-1]
    diff = (images[:, :, :, None] - images[:, :, None, :]) % d
    return np.eye(d, dtype=np.int64)[diff].sum(axis=1)


def _to_basis(d, counts):
    """Z[omega_d] coefficients of the exponent counts on the last axis."""
    return counts @ np.array(_power_table(d)[:d], dtype=np.int64)


def _gram_coeffs(f):
    return _to_basis(f.d, _gram_counts(f.image()[None])[0])


def gram(f):
    """Exact column Gram matrix of the coefficient matrix, as CyclotomicInt."""
    return [[CyclotomicInt(f.d, e) for e in row] for row in _gram_coeffs(f).tolist()]


def trace_power_coeffs(images, k_max):
    """Exact tr G^k, k = 2..k_max, for each matrix of an (N, d, d) stack of
    image matrices: an (N, k_max - 1, phi(d)) object array of the Python-int
    Z[omega_d] coefficients.

    G^k is computed in the group ring Z[C_d], where an entry is its vector of
    d exponent counts and a product of entries is a cyclic convolution, so one
    matmul against a circulant copy of G multiplies two matrices, once each
    (column, exponent) pair is flattened to one axis. Every count of tr G^k
    is a nonnegative integer and the counts sum to d^(2k) <= 12^24 < 2^87.
    The chain runs on two copies of the stack in one uint64 array: the first
    wraps mod 2^64, the second is reduced mod _P after each product
    (a product entry sums d^2 terms below d * _P, so it stays below 2^37).
    Since 2^64 * _P > 2^89, the CRT joins the two residues into the exact
    count for every d <= 12.
    """
    images = np.asarray(images)
    n, d = len(images), images.shape[-1]
    g = _gram_counts(images).astype(np.uint64)
    g = np.concatenate([g, g])
    shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    # circulant[m, (k, a), (j, e)] = count of G_kj at e - a
    circulant = g[..., shift].transpose(0, 1, 3, 2, 4).reshape(2 * n, d * d, d * d)
    traces = np.empty((2 * n, max(k_max - 1, 0), d), dtype=np.uint64)
    power = g.reshape(2 * n, d, d * d)  # power[m, i, (k, a)]
    for k in range(traces.shape[1]):
        power = power @ circulant
        power[n:] %= _P
        traces[:, k] = np.trace(power.reshape(2 * n, d, d, d), axis1=1, axis2=2)
    low, high = traces[:n], traces[n:] % _P
    lift = (high.astype(np.int64) - (low % _P).astype(np.int64)) % _P * _INV_2_64 % _P
    return _to_basis(d, low.astype(object) + lift.astype(object) * 2**64)


def trace_powers(f, k_max=None):
    """Exact (tr G^2, ..., tr G^k_max) of the unnormalized Gram; k_max = d."""
    d = f.d
    if k_max is None:
        k_max = d
    rows = trace_power_coeffs(f.image()[None], k_max)[0]
    return tuple(CyclotomicInt(d, c) for c in rows.tolist())


def normalized_trace_powers(f, k_max=None):
    """tr(rho^k) = tr(G^k) / d^(2k) as exact CyclotomicRat, k = 2..k_max."""
    d = f.d
    if k_max is None:
        k_max = d
    raw = trace_powers(f, k_max)
    return tuple(
        CyclotomicRat(t, d ** (2 * k)) for k, t in zip(range(2, k_max + 1), raw)
    )


def _newton_numerators(f):
    """[F_0, ..., F_d] with F_k = k! d^(2k) e_k, e_k the elementary symmetric
    functions of the eigenvalues of rho = G / d^2, as Z[omega_d] coefficient
    lists.

    With T_1 = tr G = d^2 and T_i = tr G^i, Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) T_i / d^(2i) become the integer recurrence
    F_k = sum_{i=1..k} (-1)^(i-1) (k-1)!/(k-i)! F_(k-i) T_i, F_0 = 1.
    """
    d = f.d
    phi = phi_degree(d)
    traces = [None, [d * d] + [0] * (phi - 1)]
    traces += trace_power_coeffs(f.image()[None], d)[0].tolist()
    numerators = [[1] + [0] * (phi - 1)]
    for k in range(1, d + 1):
        acc = [0] * phi
        scale = 1  # (k-1)! / (k-i)!
        for i in range(1, k + 1):
            term = mul_coeffs(d, numerators[k - i], traces[i])
            factor = scale if i % 2 else -scale
            for j in range(phi):
                acc[j] += factor * term[j]
            scale *= k - i
        numerators.append(acc)
    return numerators


def schmidt_rank(f):
    """Exact rank of the coefficient matrix over Q(omega_d).

    rho = G / d^2 is positive semidefinite, so its elementary symmetric
    functions e_k of the eigenvalues are positive up to its rank and zero
    beyond it: the rank is the largest k with F_k = k! d^(2k) e_k nonzero.
    """
    numerators = _newton_numerators(f)
    return max(k for k, num in enumerate(numerators) if any(num))


def is_butson_hadamard(f):
    """True iff the coefficient matrix is a Butson Hadamard H(d,d): G = d I."""
    coeffs = _gram_coeffs(f)
    want = np.zeros_like(coeffs)
    want[np.arange(f.d), np.arange(f.d), 0] = f.d
    return np.array_equal(coeffs, want)


def _embeddings(images):
    """(N, 2d, 2d) real embeddings [[Re, -Im], [Im, Re]] of rho = G / d^2 for
    an (N, d, d) stack of image matrices.

    Each Gram entry sum_j c_j omega^j is summed in CyclotomicInt.to_complex's
    order from a running 0.0 with float64 multiplies and additions only, never
    a complex-array product, so every entry is the float of the Python sum.
    """
    images = np.asarray(images)
    d = images.shape[-1]
    coeffs = _to_basis(d, _gram_counts(images)).astype(float)
    omega = cmath.exp(2j * cmath.pi / d)
    re = np.zeros(coeffs.shape[:-1])
    im = np.zeros(coeffs.shape[:-1])
    for j in range(phi_degree(d)):
        w = omega**j
        c = coeffs[..., j]
        re += c * w.real
        im += c * w.imag
    gc = np.empty(re.shape, dtype=complex)
    gc.real, gc.imag = re, im
    gc = gc / d**2
    emb = np.empty(gc.shape[:-2] + (2 * d, 2 * d))
    emb[..., :d, :d] = emb[..., d:, d:] = gc.real
    emb[..., d:, :d] = gc.imag
    emb[..., :d, d:] = -gc.imag
    return emb


def _jacobi_eigenvalues_stack(a):
    """Eigenvalues (descending) of each real symmetric matrix of an (N, n, n)
    stack by cyclic Jacobi rotations, all rotated in lockstep with the IEEE
    operations of a Jacobi on one matrix's numpy rows, so each result is
    bit-identical to it.

    A matrix leaves the stack at the top of the sweep where its off-diagonal
    max falls below _JACOBI_EPS. At each (p, q), only the matrices with
    |a_pq| >= _JACOBI_EPS rotate; their angles come from math.atan2/cos/sin,
    one matrix at a time, since numpy's SIMD trig can differ from libm.
    """
    a = np.array(a, dtype=float)
    size = a.shape[-1]
    out = [None] * len(a)
    ids = np.arange(len(a))
    upper = np.triu_indices(size, 1)
    for _ in range(_JACOBI_MAX_SWEEPS):
        done = np.abs(a[:, upper[0], upper[1]]).max(axis=1) < _JACOBI_EPS
        for i, m in zip(ids[done].tolist(), a[done]):
            out[i] = np.sort(np.diag(m))[::-1]
        if done.all():
            return out
        a, ids = a[~done], ids[~done]
        for p in range(size - 1):
            for q in range(p + 1, size):
                apq = a[:, p, q]
                rot = np.flatnonzero(np.abs(apq) >= _JACOBI_EPS)
                if not len(rot):
                    continue
                m = a if len(rot) == len(a) else a[rot]
                two_apq = (2.0 * apq[rot]).tolist()
                diff = (m[:, q, q] - m[:, p, p]).tolist()
                theta = [0.5 * math.atan2(y, x) for y, x in zip(two_apq, diff)]
                c = np.array([math.cos(t) for t in theta])[:, None]
                s = np.array([math.sin(t) for t in theta])[:, None]
                x, y = m[:, p], m[:, q]
                m[:, p], m[:, q] = c * x - s * y, s * x + c * y
                x, y = m[:, :, p], m[:, :, q]
                m[:, :, p], m[:, :, q] = c * x - s * y, s * x + c * y
                if m is not a:
                    a[rot] = m
    raise ArithmeticError("Jacobi iteration failed to converge")


def _schmidt_coefficients(eig):
    # each eigenvalue of rho appears twice in the embedding
    return [math.sqrt(max(v, 0.0)) for v in eig[::2]]


def singular_values(f):
    """Schmidt coefficients (descending) of the normalized state of f: the
    singular values of its coefficient matrix omega^f / d, from LAPACK's SVD."""
    return np.linalg.svd(np.exp(2j * np.pi * f.image() / f.d) / f.d, compute_uv=False).tolist()


def singular_values_stack(images):
    """Schmidt coefficients (descending) of every matrix of an (N, d, d) stack
    of image matrices, as square roots of the eigenvalues of rho = G / d^2
    from one lockstep Jacobi over the stack's real embeddings. Its round-off
    is fixed by the IEEE operations alone (see _embeddings and
    _jacobi_eigenvalues_stack), which the catalogue JSON prints."""
    if not len(images):
        return []
    return [_schmidt_coefficients(eig) for eig in _jacobi_eigenvalues_stack(_embeddings(images))]


def subspace_maximally_entangled(f, r):
    """True iff the exact spectrum of rho is 1/r with multiplicity r.

    Equivalent to r^(k-1) * tr G^k == d^(2k) for k = 1..d, checked exactly.
    """
    d = f.d
    if not (1 <= r <= d):
        raise ArityError(f"subspace dimension {r} out of range")
    raw = (CyclotomicInt.from_int(d, d * d),) + trace_powers(f, d)
    for k, t in enumerate(raw, start=1):
        if r ** (k - 1) * t != CyclotomicInt.from_int(d, d ** (2 * k)):
            return False
    return True


def char_poly_coeffs(f):
    """Coefficients (c_1, ..., c_d) of det(x I - rho) = x^d + c_1 x^(d-1) + ...

    c_k = (-1)^k e_k = (-1)^k F_k / (k! d^(2k)), from the integer Newton
    recurrence of _newton_numerators; c_1 = -tr(rho) = -1 always.
    """
    d = f.d
    numerators = _newton_numerators(f)
    return [
        CyclotomicRat(CyclotomicInt(d, num if k % 2 == 0 else [-c for c in num]),
                      math.factorial(k) * d ** (2 * k))
        for k, num in enumerate(numerators[1:], start=1)
    ]


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
