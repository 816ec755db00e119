"""The expression nodes and record types: construction from their fields, defaults, equality."""

from __future__ import annotations

from fractions import Fraction

import pytest

from moment_leibniz.multiindex import MultiIndex, enumerate_height_at_most
from moment_leibniz.polycalc import Polynomial, RationalPoint
from moment_leibniz.funcmodel import (
    CheckReport,
    Domain,
    Jet,
    PolyLeaf,
    Product,
    SignedPower,
    Sum,
    TauMap,
    XLogAbs,
    const_expr,
)
from moment_leibniz.coeffsolve import CoeffFamily
from moment_leibniz.momentfam import MomentReport, OperatorFamily, make_first_order_leibniz
from moment_leibniz.semigroup import MomentSeq


def _samples(rank: int) -> tuple:
    return tuple(RationalPoint([Fraction(k, 16)] * rank) for k in range(1, 9))


def _values(points):
    return [[1.0] * len(points)]


_X = Polynomial.variable(1, 0)
_LEAF = PolyLeaf(_X)
_TAU = TauMap((_X,))
_CF = CoeffFamily(1, 2, {MultiIndex((2,)): _LEAF})


def _operators(rank: int, order: int, dim: int) -> dict:
    """T_alpha(f) = f at every alpha of rank ``rank`` up to ``order``."""
    return {alpha: Jet(MultiIndex.zero(dim)) for alpha in enumerate_height_at_most(rank, order)}


# each class with its fields, in parameter order
FIELDS = [
    (PolyLeaf, {"poly": _X}),
    (Sum, {"children": (_LEAF,)}),
    (Product, {"children": (_LEAF, _LEAF)}),
    (XLogAbs, {"child": _LEAF}),
    (SignedPower, {"child": _LEAF, "exponent": const_expr(1, 2)}),
    (Domain, {"rank": 1, "sample_points": _samples(1), "float_tolerance": 1e-6}),
    (TauMap, {"components": (_X,)}),
    (
        CheckReport,
        {
            "check": "coefficient_constraint",
            "passed": False,
            "max_residual": 0.5,
            "tolerance": 1e-9,
            "failures": [{"alpha": [2]}],
            "counts": {"alphas": 1},
            "seed": 3,
        },
    ),
    (CoeffFamily, {"rank": 1, "order": 2, "coefficients": {MultiIndex((2,)): _LEAF}}),
    (
        OperatorFamily,
        {
            "rank": 1,
            "order": 2,
            "operators": _operators(1, 2, 1),
            "point_map": _TAU,
            "descriptor": {"kind": "custom", "r": 1, "N": 2},
            "dim": 1,
            "coeff_family": _CF,
            "probe_map": _TAU,
        },
    ),
    (
        MomentReport,
        {
            "family": {"kind": "trivial", "r": 1, "N": 2},
            "probe_count": 2,
            "per_alpha_max_residual": {"[1]": 0.0},
            "max_residual": 0.0,
            "passed": True,
            "failures": [],
            "tolerance": 1e-9,
            "exact": True,
            "seed": 5,
        },
    ),
    (MomentSeq, {"rank": 1, "order": 2, "values": _values}),
]


@pytest.mark.parametrize("cls,fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_builds_from_its_fields_positionally_and_by_keyword(cls, fields):
    for obj in (cls(*fields.values()), cls(**fields)):
        for name, value in fields.items():
            assert getattr(obj, name) == value, name


def test_defaults():
    assert Domain(1, _samples(1)).float_tolerance == 1e-9
    assert CheckReport("c", True, 0.0, 1e-9, [], {}).seed is None
    assert MomentReport({}, 1, {}, 0.0, True, [], 1e-9, True).seed is None
    family = OperatorFamily(2, 3, _operators(2, 3, 2))
    assert family.dim == 2
    assert family.descriptor == {"kind": "custom", "r": 2, "N": 3}
    assert family.point_map is None and family.coeff_family is None and family.probe_map is None
    wide = OperatorFamily(1, 3, _operators(1, 3, 2), dim=2)
    assert wide.descriptor == {"kind": "custom", "r": 2, "N": 3}


def test_coefficient_family_reads_tuple_keys_as_multi_indices():
    leaf = const_expr(2, 1)
    cf = CoeffFamily(2, 2, {(1, 1): leaf, (0, 2): leaf})
    assert list(cf.coefficients) == [MultiIndex((1, 1)), MultiIndex((0, 2))]
    assert all(type(idx) is MultiIndex for idx in cf.coefficients)


def test_first_order_leibniz_keeps_its_descriptor_and_coefficients():
    c = const_expr(2, Fraction(1, 3))
    family = make_first_order_leibniz(c, 2)
    assert family.descriptor == {"kind": "first_order_leibniz", "r": 2, "c": c.to_json()}
    assert (family.rank, family.order, family.dim) == (2, 1, 2)
    cf = family.coeff_family
    assert (cf.rank, cf.order) == (2, 1)
    assert cf.coefficients == {MultiIndex.unit(2, 0): c, MultiIndex.unit(2, 1): c}


def test_nodes_compare_by_type_and_operands():
    a, same = PolyLeaf(_X), PolyLeaf(Polynomial.variable(1, 0))
    assert a == same
    assert a != PolyLeaf(_X * 2)
    assert Sum((a,)) == Sum((same,))
    assert Sum((a,)) != Product((a,))
    assert a != XLogAbs(a)
    assert XLogAbs(Product((a, a))) == XLogAbs(Product((same, same)))
    assert SignedPower(a, const_expr(1, 2)) != SignedPower(a, const_expr(1, 3))
    with pytest.raises(TypeError):
        hash(a)
