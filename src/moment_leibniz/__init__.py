"""Verification toolkit for binomial product-derivative and moment identities.

The package checks, exactly where the data allows and by seeded sampling
otherwise: the generalized product-derivative identity on rational
polynomials, moment-type operator families under the binomial
convolution identity, the bilinear constraint their coefficients must
satisfy, power-sign multiplicative maps (order-0 families), and moment
sequences on the additive reals.
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
    compose,
    convolution_sum,
    dalpha,
    eval_poly,
    leibniz_rhs,
    random_polynomial,
)
from .funcmodel import (
    CheckReport,
    Domain,
    FuncExpr,
    Jet,
    NonFiniteValue,
    NotPolynomial,
    PolyLeaf,
    Product,
    SignedPower,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    const_expr,
    eval_expr,
    expr_from_json,
    grad_dot,
    hess_quad,
    worse,
)
from .coeffsolve import (
    BudgetExceeded,
    CoeffFamily,
    InvalidSupport,
    band,
    check_constraint,
    constraint_indices,
    enumerate_valid_constant_supports,
    forced_zero_analysis,
    index_set_size,
    random_valid_family,
)
from .momentfam import (
    MomentReport,
    OperatorFamily,
    ProbePairs,
    check_multiplicative,
    conjugate,
    default_probe_pairs,
    family_from_json,
    make_derivative,
    make_first_order_leibniz,
    make_identity_generated,
    make_power_sign,
    make_second_order_leibniz,
    make_trivial,
    verify_moment,
)
from .semigroup import (
    MomentSeq,
    make_exponential_moment_seq,
    random_probe_pairs,
    tampered,
    verify_moment_seq,
)

__version__ = "0.1.0"
