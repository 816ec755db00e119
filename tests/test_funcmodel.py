"""Expression trees, domains, reparametrization maps and power-sign maps (order-0 families)."""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moment_leibniz.multiindex import DimensionMismatch, MultiIndex
from moment_leibniz.polycalc import Polynomial, RationalPoint, eval_poly, random_polynomial
from moment_leibniz.funcmodel import (
    CheckReport,
    Domain,
    NonFiniteValue,
    NotPolynomial,
    PolyLeaf,
    PowerSignMap,
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
    is_polynomial,
    judge,
    worse,
)
from moment_leibniz.momentfam import (
    OperatorFamily,
    check_multiplicative,
    default_probe_pairs,
    make_power_sign,
    verify_moment,
)


def _x(dim: int = 1, i: int = 0) -> Polynomial:
    return Polynomial.variable(dim, i)


def _pt(*vals) -> RationalPoint:
    return RationalPoint.of(*vals)


# ---- domains ----


def test_domain_needs_eight_samples():
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 8))
    with pytest.raises(ValueError, match="at least 8 sample points"):
        Domain(1, pts)


def test_domain_samples_strictly_inside():
    dom = Domain.unit(2, n_samples=10, seed=3)
    assert len(dom.sample_points) == 10
    for p in dom.sample_points:
        assert dom.contains(p)
        assert all(0 < c < 1 for c in p)
    assert not dom.contains(_pt(0, Fraction(1, 2)))  # boundary excluded
    assert not dom.contains(_pt(Fraction(1, 2)))  # wrong rank


def test_domain_rejects_boundary_sample():
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 9))
    Domain(1, pts)  # ok
    with pytest.raises(ValueError):
        Domain(1, pts[:-1] + (_pt(1),))


def test_domain_rejects_bad_tolerance_and_box():
    # the rule of the CLI's --tol: finite and > 0
    for tol in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and > 0"):
            Domain.unit(1, float_tolerance=tol)
    # the box (0,1)^rank needs an integer rank >= 1; a bool or a float is refused
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 9))
    for rank in (True, 0, 1.0):
        with pytest.raises(ValueError, match="integer >= 1"):
            Domain(rank, pts)


@pytest.mark.parametrize("rank", [True, 0, -1, 1.0])
def test_domain_unit_checks_rank_before_drawing(rank):
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 9))
    with pytest.raises(ValueError) as built:
        Domain(rank, pts)
    with pytest.raises(ValueError) as drawn:
        Domain.unit(rank)
    assert str(drawn.value) == str(built.value) == f"domain rank must be an integer >= 1, got {rank!r}"


def test_domain_sampling_deterministic():
    a = Domain.unit(2, seed=5)
    b = Domain.unit(2, seed=5)
    assert a.sample_points == b.sample_points


# ---- evaluation ----


def test_poly_leaf_eval():
    leaf = PolyLeaf(Polynomial(2, {(2, 1): 1}))
    assert eval_expr(leaf, (_pt(2, 3),))[0] == 12.0
    assert eval_poly(as_polynomial(leaf), _pt(2, 3)) == 12


def test_xlogabs_values():
    expr = XLogAbs(const_expr(1, 2))
    x = _pt(Fraction(1, 2))
    assert eval_expr(expr, (x,))[0] == pytest.approx(2 * math.log(2), rel=1e-15)
    # continuous extension: value 0 at zeros of the argument
    assert eval_expr(XLogAbs(const_expr(1, 0)), (x,))[0] == 0.0
    neg = XLogAbs(const_expr(1, -3))
    assert eval_expr(neg, (x,))[0] == pytest.approx(-3 * math.log(3), rel=1e-15)


def test_xlogabs_log_additivity_on_samples():
    # (uv) ln|uv| = (u ln|u|) v + u (v ln|v|) wherever u, v are nonzero
    rng = random.Random(41)
    dom = Domain.unit(2, n_samples=10, seed=1)
    for _ in range(20):
        u = random_polynomial(rng, 2, max_degree=3)
        v = random_polynomial(rng, 2, max_degree=3)
        for x in dom.sample_points:
            u_val, v_val = float(eval_poly(u, x)), float(eval_poly(v, x))
            uv_val = u_val * v_val
            if abs(uv_val) < 1e-6:
                continue
            lhs = eval_expr(XLogAbs(PolyLeaf(u * v)), (x,))[0]
            rhs = eval_expr(XLogAbs(PolyLeaf(u)), (x,))[0] * v_val + u_val * eval_expr(
                XLogAbs(PolyLeaf(v)), (x,)
            )[0]
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_sum_product_scale():
    x = PolyLeaf(_x())
    expr = Sum((Product((x, x)), Product((const_expr(1, Fraction(-1, 2)), x))))
    # x^2 - x/2 at x = 3
    assert eval_expr(expr, (_pt(3),))[0] == pytest.approx(7.5)
    assert eval_poly(as_polynomial(expr), _pt(3)) == Fraction(15, 2)
    assert as_polynomial(expr) == Polynomial(1, {(2,): 1, (1,): Fraction(-1, 2)})


def test_graddot_pinned():
    # <grad(x^2), (1,)> = 2x, so 6 at x = 3
    g = grad_dot(Polynomial.monomial((2,)), (const_expr(1, 1),))
    assert g == Sum((Product((PolyLeaf(Polynomial(1, {(1,): 2})), const_expr(1, 1))),))
    assert eval_expr(g, (_pt(3),))[0] == 6.0
    assert eval_poly(as_polynomial(g), _pt(3)) == 6
    assert as_polynomial(g) == Polynomial(1, {(1,): 2})


def test_hessquad_pinned():
    # f = x0^2 x1, c = (1, x0): quadratic form is
    # 2 x1 + 2 * (2 x0) * x0 + 0 = 2 x1 + 4 x0^2
    f = Polynomial.monomial((2, 1))
    c = (const_expr(2, 1), PolyLeaf(_x(2, 0)))
    h = hess_quad(f, c)
    # entries (0,0), (0,1), (1,0) in row order; the zero entry (1,1) adds no term
    assert [p.children[0].poly for p in h.children] == [
        Polynomial(2, {(0, 1): 2}),
        Polynomial(2, {(1, 0): 2}),
        Polynomial(2, {(1, 0): 2}),
    ]
    assert as_polynomial(h) == Polynomial(2, {(0, 1): 2, (2, 0): 4})
    assert eval_expr(h, (_pt(1, 1),))[0] == pytest.approx(6.0)
    assert eval_poly(as_polynomial(h), _pt(1, 1)) == 6


def test_field_rank_checked():
    with pytest.raises(DimensionMismatch):
        grad_dot(Polynomial.monomial((2, 1)), (const_expr(2, 1),))
    # a component of the wrong dim is refused, even where its derivative is 0
    for build in (grad_dot, hess_quad):
        with pytest.raises(DimensionMismatch):
            build(Polynomial.monomial((2, 0)), (const_expr(2, 1), const_expr(1, 1)))
    with pytest.raises(DimensionMismatch):
        Sum((const_expr(1, 1), const_expr(2, 1)))


def test_exact_eval_rejects_log():
    expr = XLogAbs(PolyLeaf(_x()))
    with pytest.raises(NotPolynomial):
        eval_poly(as_polynomial(expr), _pt(Fraction(1, 2)))
    with pytest.raises(NotPolynomial):
        as_polynomial(expr)
    # the test is structural: one u*ln|u| node anywhere, even one that
    # vanishes, stops the expansion
    zero_log = Product((const_expr(1, 0), XLogAbs(PolyLeaf(_x()))))
    assert not is_polynomial(Sum((PolyLeaf(_x()), zero_log)))
    assert is_polynomial(Sum((PolyLeaf(_x()), Product((PolyLeaf(_x()),)))))


def _sympy_poly(p, xs):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(x**e for x, e in zip(xs, idx)))
            for idx, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def _random_tree(rng: random.Random, xs, depth: int):
    """A seeded log-free tree of height <= depth over small random polynomials.

    Returned with its value as a sympy expression in ``xs``, built alongside
    from the same inputs: derivatives by ``sympy.diff``, scalings as Rational
    multiples, so the oracle does not read the tree the builders made.
    """
    dim = len(xs)

    def poly():
        return random_polynomial(rng, dim, max_degree=2, terms=3, coeff_bound=4)

    kind = rng.choice(("poly", "sum", "product", "scale", "graddot", "hessquad"))
    if depth == 0 or kind == "poly":
        p = poly()
        return PolyLeaf(p), _sympy_poly(p, xs)

    def sub():
        return _random_tree(rng, xs, depth - 1)

    if kind == "sum":
        trees, values = zip(*(sub() for _ in range(rng.randint(1, 3))))
        return Sum(trees), sympy.Add(*values)
    if kind == "product":
        trees, values = zip(*(sub() for _ in range(rng.randint(1, 2))))
        return Product(trees), sympy.Mul(*values)
    if kind == "scale":
        factor = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        tree, value = sub()
        data = {"kind": "scale", "factor": str(factor), "child": tree.to_json()}
        return expr_from_json(data), sympy.Rational(factor.numerator, factor.denominator) * value
    p = poly()
    trees, values = zip(*(sub() for _ in range(dim)))
    ps = _sympy_poly(p, xs)
    if kind == "graddot":
        value = sum((sympy.diff(ps, xs[i]) * values[i] for i in range(dim)), sympy.Integer(0))
        return grad_dot(p, trees), value
    value = sum(
        (
            sympy.diff(ps, xs[i], xs[j]) * values[i] * values[j]
            for i in range(dim)
            for j in range(dim)
        ),
        sympy.Integer(0),
    )
    return hess_quad(p, trees), value


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_eval_matches_sympy_on_random_trees(dim):
    rng = random.Random(600 + dim)
    xs = sympy.symbols(f"x0:{dim}")
    for _ in range(30):
        expr, value = _random_tree(rng, xs, rng.randint(0, 3))
        x = RationalPoint(
            tuple(Fraction(rng.randint(-63, 63), 64) for _ in range(dim))
        )
        exact = eval_poly(as_polynomial(expr), x)
        value = value.subs(
            {s: sympy.Rational(c.numerator, c.denominator) for s, c in zip(xs, x)}
        )
        assert exact == Fraction(int(value.p), int(value.q))
        assert math.isclose(eval_expr(expr, (x,))[0], float(exact), rel_tol=1e-12, abs_tol=1e-12)


def test_non_finite_carries_node_path():
    huge = PolyLeaf(Polynomial.constant(1, Fraction(10**400)))
    expr = Product((PolyLeaf(_x()), huge))
    with pytest.raises(NonFiniteValue) as err:
        eval_expr(expr, (_pt(1),))
    assert "product" in str(err.value)


def test_xlogabs_overflow_is_non_finite():
    # 1e307 ln(1e307) overflows to inf, and -inf with it would make the
    # sum's fsum raise a bare ValueError
    big = [XLogAbs(PolyLeaf(Polynomial.constant(1, s * 10**307))) for s in (1, -1)]
    with pytest.raises(NonFiniteValue, match=r"root\.sum\[0\]\.xlogabs"):
        eval_expr(Sum(tuple(big)), (_pt(Fraction(1, 2)),))


def test_sum_overflow_is_non_finite():
    # finite children whose sum leaves the float range: fsum's bare
    # OverflowError becomes a NonFiniteValue naming the sum node
    big = PolyLeaf(Polynomial.constant(1, 10**308))
    with pytest.raises(NonFiniteValue, match=r"^non-finite value at root\.sum\[1\]\.sum$"):
        eval_expr(Sum((big, Sum((big, big)))), (_pt(Fraction(1, 2)),))


# ---- the batched evaluator against a point-by-point one ----


def _value_at(expr, x: RationalPoint, path: str = "root") -> float:
    """One point, node by node: polynomial leaves as term-by-term Fraction
    sums, a sum fed to fsum one child at a time, a product from 1.0."""
    if isinstance(expr, PolyLeaf):
        exact = sum(
            c * math.prod(xi**e for xi, e in zip(x, exp)) for exp, c in expr.poly.terms.items()
        )
        try:
            return float(Fraction(exact))
        except OverflowError:
            raise NonFiniteValue(f"overflow converting exact value at {path}") from None
    if isinstance(expr, Sum):
        values = (_value_at(c, x, f"{path}.sum[{i}]") for i, c in enumerate(expr.children))
        try:
            return math.fsum(values)
        except OverflowError:
            raise NonFiniteValue(f"non-finite value at {path}.sum") from None
    if isinstance(expr, Product):
        out = 1.0
        for i, c in enumerate(expr.children):
            out *= _value_at(c, x, f"{path}.product[{i}]")
        if not math.isfinite(out):
            raise NonFiniteValue(f"non-finite value at {path}.product")
        return out
    v = _value_at(expr.child, x, f"{path}.xlogabs")
    out = 0.0 if v == 0.0 else v * math.log(abs(v))
    if not math.isfinite(out):
        raise NonFiniteValue(f"non-finite value at {path}.xlogabs")
    return out


def _outcome(evaluate):
    """Bitwise values (-0.0 apart from 0.0), or the NonFiniteValue message."""
    try:
        values = evaluate()
    except NonFiniteValue as exc:
        return str(exc)
    return struct.pack(f"<{len(values)}d", *values)


# huge coefficients overflow at some points only: 2^1030 x^6 does where x^6 > 2^-6
_COEFFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(lambda sign, k: sign * 2**k, st.sampled_from([1, -1]), st.integers(1010, 1040)),
)


def _trees(leaves, depth: int):
    """Trees of sums, products and u ln|u| nodes, ``depth`` levels at most."""
    if depth == 1:
        return leaves
    sub = _trees(leaves, depth - 1)
    children = st.lists(sub, min_size=1, max_size=3).map(tuple)
    return st.one_of(leaves, children.map(Sum), children.map(Product), sub.map(XLogAbs))


@st.composite
def _trees_and_points(draw):
    r = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 8)] * r)
    leaves = st.builds(
        lambda terms: PolyLeaf(Polynomial(r, terms)),
        st.lists(st.tuples(exponent, _COEFFS), max_size=3),
    )
    coord = st.builds(Fraction, st.integers(1, 99), st.just(100))
    points = st.lists(st.builds(RationalPoint, st.tuples(*[coord] * r)), min_size=1, max_size=5)
    return draw(_trees(leaves, 4)), tuple(draw(points))


_BIG = const_expr(1, 2**1023)
_HALVES = (_pt(Fraction(1, 2)), _pt(Fraction(1, 4)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees_and_points())
# -1 * 0.0 is -0.0
@example((Product((const_expr(1, -1), Sum((const_expr(1, 0),)))), _HALVES))
# fsum overflows at the second child, so the overflowing third is never reached
@example((Sum((_BIG, _BIG, XLogAbs(_BIG))), _HALVES))
def test_batched_eval_matches_point_by_point(case):
    expr, points = case
    expected = _outcome(lambda: [_value_at(expr, x) for x in points])
    assert _outcome(lambda: eval_expr(expr, points)) == expected
    # a shared leaf table, filled by the first pass, gives the same outcome
    leaves = {}
    assert _outcome(lambda: eval_expr(expr, points, leaves)) == expected
    assert _outcome(lambda: eval_expr(expr, points, leaves)) == expected


def _kinds(data: dict) -> set:
    """Every node kind in an expression's JSON."""
    children = data.get("children", []) + ([data["child"]] if "child" in data else [])
    return {data["kind"]}.union(*map(_kinds, children))


def test_expr_json_roundtrip():
    x_json = PolyLeaf(_x()).to_json()
    expr = expr_from_json(
        {
            "kind": "sum",
            "children": [
                {"kind": "scale", "factor": "2/3", "child": {"kind": "xlogabs", "child": x_json}},
                {"kind": "graddot", "dim": 1, "poly": [{"exponent": [2], "coeff": "1"}],
                 "field": [const_expr(1, 1).to_json()]},
                {"kind": "hessquad", "dim": 1, "poly": [{"exponent": [3], "coeff": "1"}],
                 "field": [x_json]},
            ],
        }
    )
    data = expr.to_json()
    # the input-only kinds are written as the sums and products they read as
    assert _kinds(data) == {"sum", "product", "poly", "xlogabs"}
    back = expr_from_json(data)
    x = _pt(Fraction(3, 4))
    assert eval_expr(back, (x,)) == eval_expr(expr, (x,))
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
    # T_0 of make_power_sign is SignedPower(f o tau, p): sgn(u) |u|^p, 0 at u = 0
    x = (_pt(Fraction(1, 2)),)
    p = const_expr(1, 2)
    for u, value in ((2, 4.0), (-3, -9.0), (-6, -36.0), (0, 0.0)):
        assert eval_expr(SignedPower(const_expr(1, u), p), x) == [value]
    family = make_power_sign(PowerSignMap(p, TauMap.identity(1)))
    f, g = Polynomial.constant(1, 2), Polynomial.constant(1, -3)
    zero = MultiIndex.zero(1)
    values = [eval_expr(family.apply(zero, h), x) for h in (f, g, f * g, Polynomial.zero(1))]
    assert values == [[4.0], [-9.0], [-36.0], [0.0]]
    # f is read at tau(x) and p at x: at x = 1/4, (1 - x)^(1/2 + x) = (3/4)^(3/4)
    tau = TauMap.affine([[-1]], [1])
    half_plus_x = PolyLeaf(Polynomial.constant(1, Fraction(1, 2)) + _x())
    family = make_power_sign(PowerSignMap(half_plus_x, tau))
    assert eval_expr(family.apply(zero, -_x()), (_pt(Fraction(1, 4)),)) == [-(0.75**0.75)]


def test_signed_power_overflow_names_the_node():
    big = SignedPower(const_expr(1, 10**200), const_expr(1, 2))
    with pytest.raises(NonFiniteValue, match=r"^non-finite value at root\.sum\[1\]\.signedpower$"):
        eval_expr(Sum((const_expr(1, 1), big)), (_pt(Fraction(1, 2)),))
    assert not is_polynomial(big)
    with pytest.raises(NotPolynomial):
        as_polynomial(big)
    with pytest.raises(ValueError, match="unknown expression kind"):
        expr_from_json({"kind": "signedpower"})


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
        PolyLeaf(Polynomial.constant(1, Fraction(1, 2)) + _x()),
    ]
    taus = [TauMap.identity(1), _one_minus_x()]
    probes = [
        (random_polynomial(rng, 1, max_degree=3), random_polynomial(rng, 1, max_degree=3))
        for _ in range(10)
    ]
    minus_one = Polynomial.constant(1, -1)
    for p in exponents:
        for tau in taus:
            m = PowerSignMap(p, tau)
            report = check_multiplicative(m, probes, dom)
            assert report.passed, report.failures[:1]
            assert report.max_residual <= 1e-9
            assert not report.exact and report.per_alpha_max_residual.keys() == {"0"}
            # the sign survives: T_0(-1) is -1 at every sample
            signs = eval_expr(make_power_sign(m).apply(MultiIndex.zero(1), minus_one), dom.sample_points)
            assert signs == [-1.0] * len(dom.sample_points)


def test_check_multiplicative_catches_sign_stripping():
    # |f(tau(x))|^p = sgn(f^2) |f^2|^(p/2) is multiplicative too, so the
    # moment verifier passes it; only T_0(-1) = +1 tells it from the genuine map
    dom = Domain.unit(1)

    def stripped(_alpha: MultiIndex, f: Polynomial) -> SignedPower:
        return SignedPower(PolyLeaf(f * f), const_expr(1, 1))

    probes = default_probe_pairs(dom, 8, random.Random(0))
    assert verify_moment(OperatorFamily(1, 0, stripped), probes, dom).passed
    minus_one = Polynomial.constant(1, -1)
    assert eval_expr(stripped(MultiIndex.zero(1), minus_one), dom.sample_points) == [1.0] * len(
        dom.sample_points
    )


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
    report = CheckReport("coefficient_constraint", True, 0.0, 1e-9, [], {"alphas": 0}, seed=7)
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
    assert data["details"] == {}
