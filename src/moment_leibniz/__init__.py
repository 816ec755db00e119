"""Verification toolkit for binomial product-derivative and moment identities.

The package checks, exactly where the data allows and by seeded sampling
otherwise: the generalized product-derivative identity on rational
polynomials, moment-type operator families under the binomial
convolution identity, the bilinear constraint their coefficients must
satisfy, power-sign multiplicative maps, and moment sequences on
commutative monoids.
"""

from .multiindex import (
    DimensionMismatch,
    MultiIndex,
    binom,
    convolution_terms,
    enumerate_below,
    enumerate_height_at_most,
)
from .polycalc import (
    Polynomial,
    RationalPoint,
    check_leibniz,
    check_leibniz_all,
    dalpha,
    eval_poly,
    leibniz_rhs,
    random_polynomial,
)
from .funcmodel import (
    CheckReport,
    Domain,
    FuncExpr,
    GradDot,
    HessQuad,
    NonFiniteValue,
    NotPolynomial,
    PolyLeaf,
    PowerSignMap,
    Product,
    Scale,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    check_multiplicative,
    const_expr,
    eval_exact,
    eval_expr,
    eval_table,
    expr_from_json,
    judge,
    poly_expr,
    power_sign_apply,
    worse,
)
from .coeffsolve import (
    BudgetExceeded,
    CoeffFamily,
    ConstraintViolation,
    InvalidSupport,
    SupportPattern,
    check_constraint,
    constraint_indices,
    enumerate_valid_constant_supports,
    forced_zero_analysis,
    is_structure_valid,
    random_valid_family,
)
from .momentfam import (
    MomentReport,
    OperatorFamily,
    SecondOrderPair,
    assert_trivial_collapse,
    check_second_order,
    conjugate,
    custom_family,
    default_probe_pairs,
    family_from_json,
    make_derivative,
    make_first_order_leibniz,
    make_identity_generated,
    make_second_order_leibniz,
    make_trivial,
    verify_moment,
)
from .semigroup import (
    MomentSeq,
    Monoid,
    make_exponential_moment_seq,
    random_probe_pairs,
    reals_additive,
    tampered,
    verify_moment_seq,
)

__version__ = "0.1.0"
