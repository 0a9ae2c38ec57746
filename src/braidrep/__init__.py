"""Exact representations of braid groups and singular braid monoids.

Everything is computed symbolically over multivariate Laurent polynomial
rings with arbitrary-precision integer coefficients; rational functions
appear only through matrix inversion and rational parameter values.
"""

from .braid import (
    BraidWord,
    Relation,
    artin_generator,
    artin_of_braid,
    auto_apply,
    auto_compose,
    conjugate,
    destabilize,
    free_reduce,
    relation_set,
    sigma,
    stabilize,
    tau,
)
from .defects import DefectResult, additive_defect, defect, multiplicative_defect
from .garside import NormalForm, nf_equal, nf_inverse, nf_mul, to_normal_form
from .invariants import (
    InvariantValue,
    MarkovBounds,
    MarkovClassSample,
    charpoly_invariant,
    enumerate_markov_class,
    verify_reference_examples,
)
from .matrix import RingMatrix, SingularMatrixError
from .reps import (
    DegeneratePointError,
    ExtensionSolution,
    GroupAlgebraElem,
    MatrixRep,
    birman_image,
    burau,
    burau_ext,
    det_tau_b4_diff,
    det_tau_symbolic,
    exterior_square_burau,
    lkb,
    lkb_ext,
    rep_apply,
    solve_extension_space,
    verify_group_algebra_relations,
    verify_relations,
    wedge_square,
)
from .ring import (
    LaurentPoly,
    NotDivisibleError,
    RatFunc,
    canonical_string,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
    variable,
)
from .tl import (
    TLDiagram,
    TLElem,
    invertibility_check,
    tl_basis,
    tl_generator,
    tl_rho,
    tl_unit,
    verify_tl_relations,
)

__version__ = "0.1.0"
