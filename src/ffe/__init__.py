"""Finite-function-encoded qudit states: exact algebra, stabilizers, and
local-equivalence classification."""

from .ring import FiniteFunction, ArityError, PermutationError, ResidueError
from .polynomials import (
    Polynomial,
    TensorEdgeHypergraph,
    enumerate_polynomial_functions,
    is_polynomial,
    parse_polynomial,
)
from .fpops import FPElement, LFPElement, DephasedForm, dephase, random_lfp
from .stabilizer import CycleSpec, StabilizerSet, complete_set, make_stabilizer
from .cyclo import CyclotomicInt, CyclotomicRat, cyclotomic_reduce
from .linalg import (
    gram,
    trace_powers,
    schmidt_rank,
    is_butson_hadamard,
    singular_values,
)
from .classify import (
    Catalogue,
    classify_lfp,
    classify_lu,
    lower_bound,
    membership_check,
    special_function,
)

__version__ = "0.1.0"
