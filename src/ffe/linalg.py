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

import numpy as np

from .cyclo import CyclotomicInt, CyclotomicRat, _power_table, mul_coeffs, phi_degree
from .ring import ArityError


# Moduli of the trace-power chain once its counts reach 2^53: primes p with
# d^3 p < 2^53 at every d <= 12, whose product is about 2^126.
_MODULI = (2**42 - 11, 2**42 - 17, 2**42 - 33)

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
    (column, exponent) pair is flattened to one axis. The chain runs in
    float64, so every product is a BLAS dgemm, and it is exact because every
    value it holds is an integer below 2^53. Every count of G^k and of its
    trace is a nonnegative integer, and the counts of tr G^k sum to d^(2k).
    While d^(2 k_max) < 2^53 (every k_max <= d at d <= 8), every count and
    every partial sum of a product stays below that, and the chain runs
    unreduced. Past it, one copy of the stack runs per modulus of _MODULI,
    reduced with fmod after each product: a product entry sums d^2 terms,
    each a residue below p times a count of G at most d, so it stays below
    d^3 p < 2^53. The CRT joins the residues into the exact counts while the
    moduli's product exceeds d^(2 k_max), which holds for k_max <= 17 at
    every d <= 12; past that a ValueError is raised.
    """
    images = np.asarray(images)
    n, d = len(images), images.shape[-1]
    bound = d ** (2 * k_max)
    moduli = ()
    while bound >= 2**53 and math.prod(moduli) <= bound:
        if len(moduli) == len(_MODULI):
            raise ValueError(f"trace powers at d={d} are exact only while d^(2 k_max) is below "
                             f"the moduli's product; k_max={k_max} is past it")
        moduli = _MODULI[:len(moduli) + 1]
    copies = max(len(moduli), 1)
    g = _gram_counts(images).astype(float)
    shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    # circulant[m, (k, a), (j, e)] = count of G_kj at e - a
    circulant = g[..., shift].transpose(0, 1, 3, 2, 4).reshape(n, d * d, d * d)
    mods = np.array(moduli, dtype=float).reshape(-1, 1, 1, 1)
    traces = np.empty((copies, n, max(k_max - 1, 0), d))
    # power[c, m, i, (k, a)], one copy c per modulus
    power = np.broadcast_to(g.reshape(n, d, d * d), (copies, n, d, d * d))
    for k in range(traces.shape[2]):
        power = power @ circulant
        if moduli:
            np.fmod(power, mods, out=power)
        traces[..., k, :] = np.trace(power.reshape(copies, n, d, d, d), axis1=2, axis2=3)
    if moduli:
        np.fmod(traces, mods, out=traces)
    residues = traces.astype(np.int64)
    counts = residues[0]
    if moduli:
        counts, modulus = counts.astype(object), moduli[0]
        for p, r in zip(moduli[1:], residues[1:]):
            counts += modulus * ((r - counts) * pow(modulus, -1, p) % p)
            modulus *= p
    return _to_basis(d, counts).astype(object)


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
    |a_pq| >= _JACOBI_EPS rotate; their angles come from math.atan2/cos/sin
    mapped over them, since numpy's SIMD trig can differ from libm.
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
                theta = [0.5 * t for t in map(math.atan2, two_apq, diff)]
                c = np.fromiter(map(math.cos, theta), float, len(theta))[:, None]
                s = np.fromiter(map(math.sin, theta), float, len(theta))[:, None]
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
