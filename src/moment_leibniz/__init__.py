"""Verification toolkit for binomial product-derivative and moment identities.

The package checks, exactly where the data allows and by seeded sampling
otherwise: the generalized product-derivative identity on rational
polynomials, moment-type operator families under the binomial
convolution identity, the bilinear constraint their coefficients must
satisfy, power-sign multiplicative maps (order-0 families), and moment
sequences on the additive reals.

``import moment_leibniz`` imports no submodule.  A public name, or a
submodule's own name, is imported from its submodule when it is first
read (a module ``__getattr__``, PEP 562), so a command-line call compiles
only the modules its subcommand runs.
"""

# each submodule, and the names re-exported from it
_EXPORTS = {
    "multiindex": (
        "DimensionMismatch",
        "MultiIndex",
        "binom",
        "convolution_terms",
        "enumerate_below",
        "enumerate_height_at_most",
    ),
    "polycalc": (
        "Polynomial",
        "RationalPoint",
        "check_leibniz",
        "check_leibniz_all",
        "compose",
        "convolution_sum",
        "dalpha",
        "eval_poly",
        "leibniz_rhs",
        "random_polynomial",
    ),
    "funcmodel": (
        "CheckReport",
        "Domain",
        "FuncExpr",
        "Jet",
        "NonFiniteValue",
        "NotPolynomial",
        "PolyLeaf",
        "Product",
        "SignedPower",
        "Sum",
        "TauMap",
        "XLogAbs",
        "as_polynomial",
        "const_expr",
        "eval_expr",
        "expr_from_json",
        "grad_dot",
        "hess_quad",
        "worse",
    ),
    "coeffsolve": (
        "BudgetExceeded",
        "CoeffFamily",
        "InvalidSupport",
        "band",
        "check_constraint",
        "constraint_indices",
        "enumerate_valid_constant_supports",
        "forced_zero_analysis",
        "index_set_size",
        "random_valid_family",
    ),
    "momentfam": (
        "MomentReport",
        "OperatorFamily",
        "ProbePairs",
        "check_multiplicative",
        "conjugate",
        "default_probe_pairs",
        "family_from_json",
        "make_derivative",
        "make_first_order_leibniz",
        "make_identity_generated",
        "make_power_sign",
        "make_second_order_leibniz",
        "make_trivial",
        "verify_moment",
    ),
    "semigroup": (
        "MomentSeq",
        "make_exponential_moment_seq",
        "random_probe_pairs",
        "tampered",
        "verify_moment_seq",
    ),
}

# the submodule each name is read from
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = list(_MODULE_OF)
_MODULE_OF["cli"] = "cli"  # readable as an attribute, but left out of import *

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # binds the submodule here, under its name
    value = globals()[module] if name == module else getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
