"""Stabilizers of encoded states: S_{f,pi} = X_pi Z_{f o pi - f}.

A complete set uses one d-cycle per site; its simultaneous +1 eigenspace is
one-dimensional. Each S links two basis states by a power of omega, so the
dimension is counted exactly by one walk over each orbit of the basis states
with Z_d exponents, with no field arithmetic.
"""
from __future__ import annotations

import numpy as np

from .fpops import FPElement
from .ring import (
    ArityError,
    FiniteFunction,
    PermutationError,
    Value,
    _is_int,
    check_permutation,
    invert_permutation,
    site_permutation_as_global,
)


def is_full_cycle(perm):
    """True iff the permutation of Z_d is a single cycle of length d."""
    perm = tuple(perm)
    seen = 1
    k = perm[0]
    while k != 0:
        k = perm[k]
        seen += 1
        if seen > len(perm):
            return False
    return seen == len(perm)


def plus_cycle(d):
    """The canonical d-cycle k -> k+1 mod d."""
    return tuple((k + 1) % d for k in range(d))


def _witness_cycle(w):
    """kappa = w^(-1) o kappa_plus o w for a validated witness w."""
    w_inv = invert_permutation(w)
    return tuple(w_inv[(k + 1) % len(w)] for k in w)


class CycleSpec(Value):
    """Per-site d-cycles, optionally with conjugation witnesses
    kappa_i = pi_i^(-1) o kappa_plus o pi_i."""

    __slots__ = ("d", "cycles", "witnesses")

    def __init__(self, d, cycles, witnesses=None):
        if not isinstance(cycles, (list, tuple)):
            raise PermutationError(f"not a sequence of per-site cycles: {cycles!r}")
        cycles = tuple(check_permutation(c, d) for c in cycles)
        for c in cycles:
            if not is_full_cycle(c):
                raise PermutationError(f"not a single d-cycle: {c}")
        if witnesses is not None:
            witnesses = tuple(check_permutation(w, d) for w in witnesses)
            if len(witnesses) != len(cycles):
                raise ArityError("one witness per site required")
            for c, w in zip(cycles, witnesses):
                if _witness_cycle(w) != c:
                    raise PermutationError(
                        "witness does not conjugate the +1 cycle to kappa"
                    )
        self._set(d, cycles, witnesses)

    @classmethod
    def plus_cycles(cls, d, n):
        return cls(d, [plus_cycle(d)] * n)


class StabilizerSet(Value):
    __slots__ = ("base", "cycles", "elements")

    def __init__(self, base, cycles, elements):
        self._set(base, cycles, tuple(elements))


def make_stabilizer(f, perm):
    """S_{f,pi} = X_pi Z_{f o pi - f}; stabilizes |f> with zero phase."""
    diff = np.subtract(f.compose_global_permutation(perm).values, f.values) % f.d
    return FPElement(0, perm, FiniteFunction._of_residues(f.d, f.n, diff.tolist()))


def complete_set(f, cycles):
    """One stabilizer per site from the given d-cycles."""
    d, n = f.d, f.n
    if len(cycles.cycles) != n or cycles.d != d:
        raise ArityError("cycle spec shape does not match the function")
    elements = []
    for i, kappa in enumerate(cycles.cycles):
        elements.append(make_stabilizer(f, site_permutation_as_global(d, n, i, kappa)))
    return StabilizerSet(f, cycles, elements)


def unique_fixed_space_dim(stab_set):
    """Exact dimension of the simultaneous +1 eigenspace of the stabilizers.

    S = X_pi Z_h maps |x> to omega^{h(x)} |pi(x)>, so S psi = psi says
    psi_{pi(x)} = omega^{h(x)} psi_x for every x. A permutation's inverse is
    one of its positive powers, so a forward walk from the least unvisited
    point reaches its whole orbit and meets each constraint once: it either
    sets the exponent p with psi_y = omega^p psi_root or checks it. A failed
    check forces psi = 0 on the orbit; every other orbit leaves one free
    amplitude, so the dimension counts the orbits without a failed check.
    """
    base = stab_set.base
    d = base.d
    size = d**base.n
    edges = []
    for el in stab_set.elements:
        if (el.d, el.n) != (d, base.n):
            raise ArityError(
                f"stabilizer element shape ({el.d},{el.n}) != base ({d},{base.n})"
            )
        if el.phase:
            raise ArityError("stabilizer elements must carry zero global phase")
        edges.append((el.perm, el.phase_fn.values))
    power = [None] * size
    dim = 0
    for root in range(size):
        if power[root] is not None:
            continue
        power[root], stack, clash = 0, [root], False
        while stack:
            x = stack.pop()
            for perm, h in edges:
                y, p = perm[x], (power[x] + h[x]) % d
                if power[y] is None:
                    power[y] = p
                    stack.append(y)
                elif power[y] != p:
                    clash = True
        dim += not clash
    return dim


def internally_commutes(f, i, kappa):
    """True iff f o kappa_i - f does not depend on x_i (the commuting
    criterion for the X and Z parts of S_{f,kappa_i})."""
    moved = f.compose_site_permutation(i, kappa).values
    t = np.subtract(moved, f.values).reshape((f.d,) * f.n) % f.d
    return bool((t == np.take(t, [0], axis=i)).all())


def continuous_symmetry_predicate(f, sigma, sites=(0, 1)):
    """True iff f(sigma(a), sigma^(-1)(b), tail) = f(sigma(b), sigma^(-1)(a), tail)
    for all a, b and tail assignments; the hypothesis for a continuous
    stabilizer family on the two given sites."""
    d, n = f.d, f.n
    if n < 2:
        raise ArityError("predicate needs at least two sites")
    if len(sites) != 2 or sites[0] == sites[1] or not all(_is_int(k) and 0 <= k < n for k in sites):
        raise ArityError(f"sites must be two distinct indices in range({n}): {sites!r}")
    sigma = check_permutation(sigma, d)
    t = np.moveaxis(np.reshape(f.values, (d,) * n), sites, (0, 1))
    lhs = t[np.ix_(sigma, invert_permutation(sigma))]
    return bool((lhs == lhs.swapaxes(0, 1)).all())
