"""Test-side helpers that build inputs for the library or check its values;
no library path calls them.

- `image_matrix_row_col_ops` permutes the rows and columns of a bipartite
  function's image matrix and adds row and column constants, entry by entry.
- `is_dephased` tells whether f is 0 on every axis through 0 (at 0 for
  n = 1), the fixed points of `fpops.dephase`.
- `emit_function` writes f as the JSON function literal that `ffe` reads.
- `internally_commuting_set_exists_for` checks a witness tuple: every site
  must pass `stabilizer.internally_commutes` with the cycle its witness
  conjugates.
"""
import json

from ffe.ring import FiniteFunction, check_permutation
from ffe.stabilizer import _witness_cycle, internally_commutes


def image_matrix_row_col_ops(f, row_perm=None, col_perm=None, row_phases=None, col_phases=None):
    """Concrete bipartite LFP action on the image matrix: permute rows and
    columns and add constants to rows and columns."""
    m = f.image().tolist()
    d = f.d
    row_perm = check_permutation(row_perm if row_perm is not None else range(d), d)
    col_perm = check_permutation(col_perm if col_perm is not None else range(d), d)
    row_phases = tuple(row_phases) if row_phases is not None else (0,) * d
    col_phases = tuple(col_phases) if col_phases is not None else (0,) * d
    vals = [
        m[row_perm[x]][col_perm[y]] + row_phases[x] + col_phases[y]
        for x in range(d)
        for y in range(d)
    ]
    return FiniteFunction(d, 2, vals)


def is_dephased(f):
    d, n = f.d, f.n
    if n == 1:
        return f.values[0] == 0
    # k e_i sits at flat index k d^(n-1-i)
    return not any(f.values[k * d ** (n - 1 - i)] for i in range(n) for k in range(d))


def emit_function(f):
    return json.dumps({"d": f.d, "n": f.n, "values": f.as_nested()})


def internally_commuting_set_exists_for(f, witnesses):
    """Verify the witness tuple: with kappa_i = pi_i^(-1) o kappa_plus o pi_i
    every site must pass the internal-commutativity criterion."""
    return all(
        internally_commutes(f, i, _witness_cycle(check_permutation(w, f.d)))
        for i, w in enumerate(witnesses)
    )
