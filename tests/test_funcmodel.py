"""Expression trees, domains, reparametrization maps and power-sign maps."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy

from moment_leibniz.multiindex import DimensionMismatch
from moment_leibniz.polycalc import Polynomial, RationalPoint, random_polynomial
from moment_leibniz.funcmodel import (
    Domain,
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
    expr_from_json,
    judge,
    poly_expr,
    power_sign_apply,
    worse,
)


def _x(dim: int = 1, i: int = 0) -> Polynomial:
    return Polynomial.variable(dim, i)


def _pt(*vals) -> RationalPoint:
    return RationalPoint.of(*vals)


# ---- domains ----


def test_domain_needs_eight_samples():
    box = ((Fraction(0), Fraction(1)),)
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 8))
    with pytest.raises(ValueError):
        Domain(box, pts)


def test_domain_samples_strictly_inside():
    dom = Domain.unit(2, n_samples=10, seed=3)
    assert len(dom.sample_points) == 10
    for p in dom.sample_points:
        assert dom.contains(p)
        assert all(0 < c < 1 for c in p.coords)
    assert not dom.contains(_pt(0, Fraction(1, 2)))  # boundary excluded
    assert not dom.contains(_pt(Fraction(1, 2)))  # wrong rank


def test_domain_rejects_boundary_sample():
    box = ((Fraction(0), Fraction(1)),)
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 9))
    Domain(box, pts)  # ok
    with pytest.raises(ValueError):
        Domain(box, pts[:-1] + (_pt(1),))


def test_domain_rejects_bad_tolerance_and_box():
    with pytest.raises(ValueError):
        Domain.unit(1, float_tolerance=0.0)
    with pytest.raises(ValueError):
        Domain.sampled(((1, 1),))


def test_domain_sampling_deterministic():
    a = Domain.unit(2, seed=5)
    b = Domain.unit(2, seed=5)
    assert a.sample_points == b.sample_points


# ---- evaluation ----


def test_poly_leaf_eval():
    leaf = PolyLeaf(Polynomial(2, {(2, 1): 1}))
    assert eval_expr(leaf, _pt(2, 3)) == 12.0
    assert eval_exact(leaf, _pt(2, 3)) == 12


def test_xlogabs_values():
    expr = XLogAbs(const_expr(1, 2))
    x = _pt(Fraction(1, 2))
    assert eval_expr(expr, x) == pytest.approx(2 * math.log(2), rel=1e-15)
    # continuous extension: value 0 at zeros of the argument
    assert eval_expr(XLogAbs(const_expr(1, 0)), x) == 0.0
    neg = XLogAbs(const_expr(1, -3))
    assert eval_expr(neg, x) == pytest.approx(-3 * math.log(3), rel=1e-15)


def test_xlogabs_log_additivity_on_samples():
    # (uv) ln|uv| = (u ln|u|) v + u (v ln|v|) wherever u, v are nonzero
    rng = random.Random(41)
    dom = Domain.unit(2, n_samples=10, seed=1)
    for _ in range(20):
        u = random_polynomial(rng, 2, max_degree=3)
        v = random_polynomial(rng, 2, max_degree=3)
        for x in dom.sample_points:
            uv_val = float(u(x)) * float(v(x))
            if abs(uv_val) < 1e-6:
                continue
            lhs = eval_expr(XLogAbs(PolyLeaf(u * v)), x)
            rhs = eval_expr(XLogAbs(PolyLeaf(u)), x) * float(v(x)) + float(
                u(x)
            ) * eval_expr(XLogAbs(PolyLeaf(v)), x)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_sum_product_scale():
    x = poly_expr(_x())
    expr = Sum((Product((x, x)), Scale(Fraction(-1, 2), x)))
    # x^2 - x/2 at x = 3
    assert eval_expr(expr, _pt(3)) == pytest.approx(7.5)
    assert eval_exact(expr, _pt(3)) == Fraction(15, 2)
    assert as_polynomial(expr) == Polynomial(1, {(2,): 1, (1,): Fraction(-1, 2)})


def test_graddot_pinned():
    # <grad(x^2), (1,)> = 2x, so 6 at x = 3
    g = GradDot(Polynomial.monomial((2,)), (const_expr(1, 1),))
    assert eval_expr(g, _pt(3)) == 6.0
    assert eval_exact(g, _pt(3)) == 6
    assert as_polynomial(g) == Polynomial(1, {(1,): 2})


def test_hessquad_pinned():
    # f = x0^2 x1, c = (1, x0): quadratic form is
    # 2 x1 + 2 * (2 x0) * x0 + 0 = 2 x1 + 4 x0^2
    f = Polynomial.monomial((2, 1))
    c = (const_expr(2, 1), poly_expr(_x(2, 0)))
    h = HessQuad(f, c)
    assert as_polynomial(h) == Polynomial(2, {(0, 1): 2, (2, 0): 4})
    assert eval_expr(h, _pt(1, 1)) == pytest.approx(6.0)
    assert eval_exact(h, _pt(1, 1)) == 6


def test_field_rank_checked():
    with pytest.raises(DimensionMismatch):
        GradDot(Polynomial.monomial((2, 1)), (const_expr(2, 1),))
    with pytest.raises(DimensionMismatch):
        Sum((const_expr(1, 1), const_expr(2, 1)))


def test_exact_eval_rejects_log():
    expr = XLogAbs(poly_expr(_x()))
    with pytest.raises(NotPolynomial):
        eval_exact(expr, _pt(Fraction(1, 2)))
    with pytest.raises(NotPolynomial):
        as_polynomial(expr)


def _random_tree(rng: random.Random, dim: int, depth: int):
    """A seeded log-free tree of height <= depth over small random polynomials."""

    def poly():
        return random_polynomial(rng, dim, max_degree=2, terms=3, coeff_bound=4)

    kind = rng.choice(("poly", "sum", "product", "scale", "graddot", "hessquad"))
    if depth == 0 or kind == "poly":
        return PolyLeaf(poly())

    def sub():
        return _random_tree(rng, dim, depth - 1)

    if kind == "sum":
        return Sum(tuple(sub() for _ in range(rng.randint(1, 3))))
    if kind == "product":
        return Product(tuple(sub() for _ in range(rng.randint(1, 2))))
    if kind == "scale":
        return Scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), sub())
    node = GradDot if kind == "graddot" else HessQuad
    return node(poly(), tuple(sub() for _ in range(dim)))


def _sympy_value(expr, point):
    """The tree's value at the point, computed independently with sympy."""
    xs = sympy.symbols(f"x0:{point.rank}")

    def poly(p):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**e for x, e in zip(xs, idx.entries)))
                for idx, c in p.terms.items()
            ),
            sympy.Integer(0),
        )

    def build(e):
        if isinstance(e, PolyLeaf):
            return poly(e.poly)
        if isinstance(e, Sum):
            return sympy.Add(*(build(c) for c in e.children))
        if isinstance(e, Product):
            return sympy.Mul(*(build(c) for c in e.children))
        if isinstance(e, Scale):
            return sympy.Rational(e.factor.numerator, e.factor.denominator) * build(e.child)
        p, field = poly(e.poly), [build(c) for c in e.field_]
        if isinstance(e, GradDot):
            return sum((sympy.diff(p, xs[i]) * field[i] for i in range(len(xs))), sympy.Integer(0))
        return sum(
            (
                sympy.diff(p, xs[i], xs[j]) * field[i] * field[j]
                for i in range(len(xs))
                for j in range(len(xs))
            ),
            sympy.Integer(0),
        )

    value = build(expr).subs(
        {x: sympy.Rational(c.numerator, c.denominator) for x, c in zip(xs, point.coords)}
    )
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_eval_matches_sympy_on_random_trees(dim):
    rng = random.Random(600 + dim)
    for _ in range(30):
        expr = _random_tree(rng, dim, rng.randint(0, 3))
        x = RationalPoint(
            tuple(Fraction(rng.randint(-63, 63), 64) for _ in range(dim))
        )
        exact = eval_exact(expr, x)
        assert exact == _sympy_value(expr, x)
        assert math.isclose(eval_expr(expr, x), float(exact), rel_tol=1e-12, abs_tol=1e-12)


def test_non_finite_carries_node_path():
    huge = PolyLeaf(Polynomial.constant(1, Fraction(10**400)))
    expr = Product((poly_expr(_x()), huge))
    with pytest.raises(NonFiniteValue) as err:
        eval_expr(expr, _pt(1))
    assert "product" in str(err.value)


def test_expr_json_roundtrip():
    expr = Sum(
        (
            Scale(Fraction(2, 3), XLogAbs(poly_expr(_x()))),
            GradDot(Polynomial.monomial((2,)), (const_expr(1, 1),)),
            HessQuad(Polynomial.monomial((3,)), (poly_expr(_x()),)),
        )
    )
    data = expr.to_json()
    back = expr_from_json(data)
    x = _pt(Fraction(3, 4))
    assert eval_expr(back, x) == eval_expr(expr, x)
    assert back.to_json() == data


# ---- reparametrization maps ----


def test_tau_identity_and_affine():
    tau = TauMap.identity(2)
    assert tau(_pt(Fraction(1, 3), Fraction(2, 3))) == _pt(Fraction(1, 3), Fraction(2, 3))
    refl = TauMap.affine(((0, -1), (-1, 0)), (1, 1))  # (x,y) -> (1-y, 1-x)
    assert refl(_pt(Fraction(1, 4), Fraction(1, 2))) == _pt(Fraction(1, 2), Fraction(3, 4))
    data = refl.to_json()
    assert TauMap.from_json(data)(_pt(0, 0)) == _pt(1, 1)


def test_tau_component_rank_checked():
    with pytest.raises(DimensionMismatch):
        TauMap((Polynomial.variable(2, 0),))


# ---- power-sign maps ----


def _one_minus_x() -> TauMap:
    return TauMap((Polynomial.constant(1, 1) - Polynomial.variable(1, 0),))


def test_power_sign_pinned_values():
    dom = Domain.unit(1)
    m = PowerSignMap(const_expr(1, 2), TauMap.identity(1))
    m.validate(dom)
    x = _pt(Fraction(1, 2))
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, -3)
    assert power_sign_apply(m, f, x) == 4.0
    assert power_sign_apply(m, g, x) == -9.0
    assert power_sign_apply(m, f * g, x) == -36.0
    assert power_sign_apply(m, Polynomial.zero(1), x) == 0.0


def test_power_sign_validation():
    dom = Domain.unit(1)
    shift_out = TauMap((Polynomial.variable(1, 0) + Polynomial.constant(1, 5),))
    with pytest.raises(ValueError):
        PowerSignMap(const_expr(1, 1), shift_out).validate(dom)
    negative_p = const_expr(1, -1)
    with pytest.raises(ValueError):
        PowerSignMap(negative_p, TauMap.identity(1)).validate(dom)


def test_check_multiplicative_passes():
    rng = random.Random(44)
    dom = Domain.unit(1, n_samples=10, seed=2)
    exponents = [
        const_expr(1, 1),
        const_expr(1, 2),
        poly_expr(Polynomial.constant(1, Fraction(1, 2)) + _x()),
    ]
    taus = [TauMap.identity(1), _one_minus_x()]
    probes = [
        (random_polynomial(rng, 1, max_degree=3), random_polynomial(rng, 1, max_degree=3))
        for _ in range(10)
    ]
    for p in exponents:
        for tau in taus:
            report = check_multiplicative(PowerSignMap(p, tau), probes, dom)
            assert report.passed, report.failures[:1]
            assert report.max_residual <= 1e-9
            assert report.details["sign_preserved"]


def test_check_multiplicative_catches_sign_stripping():
    # |f(tau(x))|^p alone is multiplicative, so only the sign probe
    # tells it apart from the genuine map
    dom = Domain.unit(1)
    m = PowerSignMap(const_expr(1, 2), TauMap.identity(1))

    def stripped(m, f, x):
        return abs(power_sign_apply(m, f, x))

    probes = [(Polynomial.constant(1, 2), Polynomial.constant(1, 3))]
    report = check_multiplicative(m, probes, dom, apply_fn=stripped)
    assert not report.passed
    assert not report.details["sign_preserved"]
    assert any(f["type"] == "sign_preservation" for f in report.failures)


def test_check_multiplicative_fails_on_nan():
    dom = Domain.unit(1)
    m = PowerSignMap(const_expr(1, 2), TauMap.identity(1))
    probes = [(Polynomial.constant(1, 2), Polynomial.constant(1, 3))]
    report = check_multiplicative(m, probes, dom, apply_fn=lambda m, f, x: math.nan)
    assert not report.passed
    # every product instance and every sign probe fails
    types = [f["type"] for f in report.failures]
    assert types.count("multiplicativity") == len(dom.sample_points)
    assert types.count("sign_preservation") == len(dom.sample_points)
    assert math.isnan(report.max_residual)


def test_sign_probe_fails_on_nan():
    # "residual > tol" is False for a NaN residual; the probe must fail it
    dom = Domain.unit(1)
    m = PowerSignMap(const_expr(1, 2), TauMap.identity(1))
    minus_one = Polynomial.constant(1, -1)

    def nan_on_minus_one(m, f, x):
        return math.nan if f == minus_one else power_sign_apply(m, f, x)

    probes = [(Polynomial.constant(1, 2), Polynomial.constant(1, 3))]
    report = check_multiplicative(m, probes, dom, apply_fn=nan_on_minus_one)
    assert not report.passed
    assert report.details["sign_preserved"] is False
    assert [f["type"] for f in report.failures] == ["sign_preservation"] * len(
        dom.sample_points
    )
    assert math.isnan(report.max_residual)


def test_worse_keeps_nan():
    assert worse(0.0, 0.5) == 0.5 and worse(0.5, 0.25) == 0.5
    assert math.isnan(worse(0.0, math.nan))
    assert math.isnan(worse(math.nan, 1.0))


def test_judge_exact_and_relative_rules():
    assert judge(Fraction(1, 3), Fraction(1, 3), True, 0.0) == (0.0, True)
    assert judge(Fraction(1, 3), Fraction(1, 2), True, 1.0) == (1 / 6, False)
    assert judge(3.0, 3.5, False, 0.125) == (0.125, True)  # |3 - 3.5| / (1 + 3)
    assert judge(3.0, 3.5, False, 0.1) == (0.125, False)
    residual, ok = judge(math.nan, 1.0, False, 1e-10)
    assert math.isnan(residual) and not ok


def test_judge_exact_overflow_is_inf():
    # an exact residual too large for a float is inf, and still fails
    assert judge(Fraction(10**400), Fraction(0), True, 0.0) == (math.inf, False)
    assert judge(-(10**400), 10**400, True, 0.0) == (math.inf, False)


def test_check_report_json_shape():
    dom = Domain.unit(1)
    m = PowerSignMap(const_expr(1, 1), TauMap.identity(1))
    report = check_multiplicative(m, [], dom, seed=7)
    data = report.to_json()
    assert set(data) == {
        "check",
        "pass",
        "max_residual",
        "tolerance",
        "failures",
        "counts",
        "seed",
        "details",
    }
    assert data["seed"] == 7
