"""The finite-function-encoding Pauli group and its local subgroup.

Elements are stored in the canonical X-then-Z order omega^c X_pi Z_h, where
pi permutes Z_d^n and h is a phase function.  The defining relations are
Z_f Z_g = Z_{f+g} and X_pi Z_{h o pi} = Z_h X_pi, giving the product rule
(X_pi Z_h)(X_sigma Z_g) = X_{pi o sigma} Z_{h o sigma + g} and the action
X_pi Z_h |g> = omega^c |(g+h) o pi^(-1)>.
"""
from __future__ import annotations

import json
import random

import numpy as np

from .ring import (
    ArityError,
    FiniteFunction,
    Value,
    as_int,
    as_ints,
    check_permutation,
    check_shape,
    compose_index_maps,
    invert_permutation,
)


class FPElement(Value):
    """omega^phase * X_perm * Z_phase_fn acting on functions Z_d^n -> Z_d."""

    __slots__ = ("phase", "perm", "phase_fn")

    def __init__(self, phase, perm, phase_fn):
        perm = check_permutation(perm, len(phase_fn.values))
        self._set(as_int(phase) % phase_fn.d, perm, phase_fn)

    @property
    def d(self):
        return self.phase_fn.d

    @property
    def n(self):
        return self.phase_fn.n

    @classmethod
    def identity(cls, d, n):
        return cls(0, range(d**n), FiniteFunction.zero(d, n))

    @classmethod
    def z_element(cls, h):
        return cls(0, range(len(h.values)), h)

    @classmethod
    def x_element(cls, d, n, perm):
        return cls(0, perm, FiniteFunction.zero(d, n))

    def apply(self, g):
        """Action on an encoded function: returns (image function, phase)."""
        if (g.d, g.n) != (self.d, self.n):
            raise ArityError("shape mismatch in FP action")
        moved = (g + self.phase_fn).compose_global_permutation(
            invert_permutation(self.perm)
        )
        return moved, self.phase

    def multiply(self, other):
        """Canonical product, normalizing back to X-then-Z order."""
        if (self.d, self.n) != (other.d, other.n):
            raise ArityError("shape mismatch in FP product")
        perm = compose_index_maps(self.perm, other.perm)
        phase_fn = self.phase_fn.compose_global_permutation(other.perm) + other.phase_fn
        return FPElement(self.phase + other.phase, perm, phase_fn)

    def inverse(self):
        inv = invert_permutation(self.perm)
        return FPElement(
            -self.phase, inv, -self.phase_fn.compose_global_permutation(inv)
        )


class LFPElement(Value):
    """Local FP element: per-site permutation and single-variable phase."""

    __slots__ = ("d", "sites", "global_phase")

    def __init__(self, d, sites, global_phase=0):
        sites = tuple(sites)
        check_shape(d, len(sites))
        parsed = []
        for perm, phases in sites:
            parsed.append(
                (check_permutation(perm, d), tuple(v % d for v in as_ints(phases)))
            )
            if len(parsed[-1][1]) != d:
                raise ArityError("site phase function must have d values")
        self._set(d, tuple(parsed), as_int(global_phase) % d)

    @property
    def n(self):
        return len(self.sites)

    @classmethod
    def identity(cls, d, n):
        ident = tuple(range(d))
        return cls(d, [(ident, (0,) * d)] * n)

    def lift(self):
        """The global FP element: product permutation, summed phases."""
        d, n = self.d, self.n
        perm = np.arange(d**n).reshape((d,) * n)
        for i, (site_perm, _) in enumerate(self.sites):
            perm = np.take(perm, site_perm, axis=i)
        phases = sum(
            np.reshape(h, [d if j == i else 1 for j in range(n)])
            for i, (_, h) in enumerate(self.sites)
        )
        return FPElement(
            self.global_phase,
            perm.ravel().tolist(),
            FiniteFunction(d, n, phases.ravel().tolist()),
        )

    def multiply(self, other):
        """Site-by-site product (pi_i, h_i)(sigma_i, g_i) =
        (pi_i o sigma_i, h_i o sigma_i + g_i)."""
        if (self.d, self.n) != (other.d, other.n):
            raise ArityError("shape mismatch in LFP product")
        perms, phases = [], []
        for (pi, h), (sigma, g) in zip(self.sites, other.sites):
            perms.append([pi[s] for s in sigma])
            phases.append([h[s] + gk for s, gk in zip(sigma, g)])
        # every site j >= 1 is made zero at 0, its constant moving to site 0
        consts = [0] + [phi[0] for phi in phases[1:]]
        consts[0] = -sum(consts)
        phases = [[v - c for v in phi] for phi, c in zip(phases, consts)]
        return LFPElement(
            self.d, list(zip(perms, phases)), self.global_phase + other.global_phase
        )

    def to_json(self):
        return json.dumps(
            {
                "sites": [
                    {"perm": list(p), "phase": list(h)} for p, h in self.sites
                ],
                "global_phase": self.global_phase,
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        sites = obj.get("sites") if isinstance(obj, dict) else None
        if not isinstance(sites, list) or not sites:
            raise ArityError("LFP element JSON requires a nonempty 'sites' list")
        return cls(
            len(sites[0]["perm"]),
            [(s["perm"], s["phase"]) for s in sites],
            obj.get("global_phase", 0),
        )


class DephasedForm(Value):
    """Dephased representative together with the local correction reaching it."""

    __slots__ = ("representative", "correction")

    def __init__(self, representative, correction):
        self._set(representative, correction)


def dephase(f):
    """Remove axis phases: for n=2 the representative has zero first row and
    column of the image matrix; for n>=3 only the axes are zeroed; for n=1
    the value at 0 is zeroed."""
    d, n = f.d, f.n
    ident = tuple(range(d))
    if n == 1:
        c = f.values[0]
        rep = f.add_constant(-c)
        corr = LFPElement(d, [(ident, tuple((-c) % d for _ in range(d)))])
        return DephasedForm(rep, corr)
    f0 = f.values[0]
    site_phases = [[f0 - v for v in axis] for axis in _axes(f)]
    # absorb the residual constant so the representative vanishes at 0
    site_phases[0] = [v - f0 for v in site_phases[0]]
    corr = LFPElement(d, [(ident, p) for p in site_phases])
    rep, phase = corr.lift().apply(f)
    assert phase == 0
    return DephasedForm(rep, corr)


def _axes(f):
    """f on the axes through 0: row i holds f(k e_i) for k in Z_d."""
    d, n = f.d, f.n
    return [f.values[: d ** (n - i) : d ** (n - 1 - i)] for i in range(n)]


def random_lfp(d, n, seed):
    """Deterministic pseudo-random LFP element, uniform per component."""
    rng = random.Random(seed)
    sites = []
    for _ in range(n):
        perm = list(range(d))
        rng.shuffle(perm)
        phases = [rng.randrange(d) for _ in range(d)]
        sites.append((perm, phases))
    return LFPElement(d, sites, rng.randrange(d))
