"""Exact computer-algebra kernel over Q.

Monomial-ideal combinatorics (stability, closures, decomposition, Hilbert
functions, Eliahou-Kervaire Betti tables), distraction matrices and the
distraction operator, a Buchberger engine, randomized generic initial ideals,
point-set constructions, and a theorem-checker harness.
"""

from .numeric import QMatrix, Rational, rref
from .polyring import (
    LinearForm,
    OrderingSpec,
    Polynomial,
    apply_linear_change,
    degrevlex,
    is_xi_degrev_type,
    lex,
    linear_form,
    matrix_ordering,
    restrict_ordering,
    substitute_variable,
)
from .groebner import PolyIdeal, ideal_equal, intersect, saturate
from .monomial import (
    BettiTable,
    HilbertVector,
    MonomialIdeal,
    closure,
    ek_betti,
    hilbert,
    intersect_mono,
    irreducible_decomposition,
    principal_formulas,
    saturate_mono,
    stability_flags,
)
from .distraction import (
    DistractionMatrix,
    distract_ideal,
    distract_term,
    is_radical_for,
    is_sufficiently_generic,
    make_matrix,
    radirred_primes,
    restrict_matrix,
    transform_matrix,
)
from .gin import AmbiguousGinError, GinResult, HilbertMismatchError, gin, hyperplane_section, random_linear_form
from .points import ProjectivePoint, points_from_ideal, verify_points
from .reports import CheckReport
from .checks import build_radical_witness, run_statement

__version__ = "0.1.0"
