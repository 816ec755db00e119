"""Expression trees, domains, reparametrization maps and power-sign maps (order-0 families)."""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moment_leibniz.multiindex import DimensionMismatch, MultiIndex, enumerate_height_at_most
from moment_leibniz.polycalc import (
    JetColumns,
    PointColumns,
    Polynomial,
    ProductTable,
    RationalPoint,
    compose,
    dalpha,
    derivative_table,
    eval_poly,
    eval_poly_ratios,
    eval_poly_values,
    random_polynomial,
)
from moment_leibniz.funcmodel import (
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
    convolution_column,
    convolution_products,
    eval_expr,
    expr_from_json,
    grad_dot,
    hess_quad,
    is_polynomial,
    jet_form,
    judge_column,
    substitute_jets,
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


def test_domain_contains_only_points_strictly_inside_of_its_rank():
    dom = Domain.unit(2, n_samples=8, seed=1)
    inside, near = Fraction(1, 2), Fraction(63, 64)
    assert dom.contains(_pt(inside, near)) and dom.contains(_pt(near, Fraction(1, 64)))
    for c in (0, 1, Fraction(-1, 2), Fraction(65, 64), Fraction(-63, 64)):
        assert not dom.contains(_pt(inside, c)) and not dom.contains(_pt(c, near))
    assert not dom.contains(_pt(inside)) and not dom.contains(_pt(inside, near, inside))


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
    for rank, message in (
        (True, "domain rank must be an integer, got True"),
        (0, "domain rank must be >= 1, got 0"),
        (1.0, "domain rank must be an integer, got 1.0"),
    ):
        with pytest.raises(ValueError) as refused:
            Domain(rank, pts)
        assert str(refused.value) == message


@pytest.mark.parametrize(
    "rank, message",
    [
        (True, "domain rank must be an integer, got True"),
        (0, "domain rank must be >= 1, got 0"),
        (-1, "domain rank must be >= 1, got -1"),
        (1.0, "domain rank must be an integer, got 1.0"),
    ],
    ids=["True", "0", "-1", "1.0"],
)
def test_domain_unit_checks_rank_before_drawing(rank, message):
    pts = tuple(_pt(Fraction(k, 10)) for k in range(1, 9))
    with pytest.raises(ValueError) as built:
        Domain(rank, pts)
    with pytest.raises(ValueError) as drawn:
        Domain.unit(rank)
    assert str(drawn.value) == str(built.value) == message


def test_domain_images_are_the_samples_read_through_the_map():
    dom = Domain(1, tuple(_pt(Fraction(k, 10)) for k in range(1, 9)))
    # a fresh PointColumns of the samples on every call: the domain keeps no cache
    samples = dom.images(None)
    assert type(samples) is PointColumns and samples == dom.sample_points
    assert samples.rank == 1 and dom.images(None) is not samples
    halve = TauMap((_x() * Fraction(1, 2),))
    images = dom.images(halve)
    assert type(images) is PointColumns and images == tuple(map(halve, dom.sample_points))
    assert dom.images(halve) is not images
    # x -> 2x leaves the box first at x = 1/2; the error names that sample and its image
    with pytest.raises(ValueError) as err:
        dom.images(TauMap((_x() * 2,)))
    assert str(err.value) == "sample ['1/2'] maps to ['1'], outside the box"


def test_domain_sampling_deterministic():
    a = Domain.unit(2, seed=5)
    b = Domain.unit(2, seed=5)
    assert a.sample_points == b.sample_points


def test_domain_unit_draws_as_randint_over_64(monkeypatch):
    # the k/64 come from a table, with the same randint draws, so the points
    # and the generator's state after them are those of Fraction(randint, 64)
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    real = random.Random
    monkeypatch.setattr(random, "Random", Recorded)
    for rank in range(1, 5):
        for n_samples in (8, 12, 20):
            for seed in range(10):
                made.clear()
                got = Domain.unit(rank, n_samples=n_samples, seed=seed).sample_points
                rng = real(seed)
                drawn = tuple(
                    RationalPoint(Fraction(rng.randint(1, 63), 64) for _ in range(rank))
                    for _ in range(n_samples)
                )
                assert got == drawn and [m.getstate() for m in made] == [rng.getstate()]


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
    leaves = [p.children[0].poly for p in h.children]
    assert leaves == [
        Polynomial(2, {(0, 1): 2}),
        Polynomial(2, {(1, 0): 2}),
        Polynomial(2, {(1, 0): 2}),
    ]
    # (0,1) and (1,0) name one derivative, taken once: one object
    assert leaves[1] is leaves[2]
    assert as_polynomial(h) == Polynomial(2, {(0, 1): 2, (2, 0): 4})
    points = PointColumns((_pt(1, 1),))
    assert eval_expr(h, points)[0] == pytest.approx(6.0)
    # float values for 2 x1, 2 x0, 1 and x0: the shared leaf is converted once
    columns = JetColumns(points, [{}])
    assert eval_expr(h, columns)[0] == pytest.approx(6.0)
    assert len(columns.floats) == 4
    assert eval_poly(as_polynomial(h), _pt(1, 1)) == 6


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_contractions_are_the_row_order_loops(dim):
    # one term per nonzero derivative, over the axes (i) or (i, j) in row
    # order, each a product of the derivative leaf and the field components
    rng = random.Random(dim)
    field = tuple(PolyLeaf(random_polynomial(rng, dim, max_degree=2)) for _ in range(dim))
    for _ in range(10):
        p = random_polynomial(rng, dim, max_degree=3, terms=rng.randint(0, 4))
        units = [MultiIndex.unit(dim, i) for i in range(dim)]
        grad, hess = [], []
        for i in range(dim):
            d = dalpha(p, units[i])
            if not d.is_zero():
                grad.append(Product((PolyLeaf(d), field[i])))
            for j in range(dim):
                d = dalpha(p, units[i] + units[j])
                if not d.is_zero():
                    hess.append(Product((PolyLeaf(d), field[i], field[j])))
        zero = PolyLeaf(Polynomial.zero(dim))
        assert grad_dot(p, field) == (Sum(tuple(grad)) if grad else zero)
        h = hess_quad(p, field)
        assert h == (Sum(tuple(hess)) if hess else zero)
        # d_i d_j and d_j d_i are one leaf object
        position = {id(c): i for i, c in enumerate(field)}
        leaves = {}
        for term in h.children:
            axes = tuple(sorted(position[id(c)] for c in term.children[1:]))
            assert leaves.setdefault(axes, term.children[0]) is term.children[0]
        assert len({id(leaf) for leaf in leaves.values()}) == len(leaves)


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


def test_jet_form_of_a_commutator_is_empty():
    # (1, 0) and (0, 1) are incomparable under MultiIndex's componentwise <,
    # yet J(e_0) J(e_1) and J(e_1) J(e_0) are one monomial, keyed once
    e0, e1 = MultiIndex((1, 0)), MultiIndex((0, 1))
    commutator = Sum((Product((Jet(e0), Jet(e1))), Product((const_expr(2, -1), Jet(e1), Jet(e0)))))
    assert jet_form(commutator) == {}
    assert jet_form(Product((Jet(e0), Jet(e1)))) == {(e1, e0): Polynomial.constant(2, 1)}


def test_a_tree_whose_jet_terms_cancel_expands_to_the_rest():
    e = MultiIndex((1,))
    cancelling = Sum((Jet(e), PolyLeaf(_x()), Product((const_expr(1, -1), Jet(e)))))
    assert as_polynomial(cancelling) == _x()
    with pytest.raises(ValueError, match=r"^jet \[1\] has no expansion before substitution$"):
        as_polynomial(Sum((Jet(e), PolyLeaf(_x()))))


def _jet_trees(dim: int):
    """Log-free trees over the jets of height <= 2 and small polynomial leaves."""
    jets = st.sampled_from([Jet(b) for b in enumerate_height_at_most(dim, 2)])
    leaves = st.integers(0, 2**16).map(
        lambda seed: PolyLeaf(random_polynomial(random.Random(seed), dim, 2, 2, denominators=(1, 3)))
    )
    return st.recursive(
        jets | leaves,
        lambda children: st.lists(children, min_size=1, max_size=3).flatmap(
            lambda kids: st.sampled_from([Sum(tuple(kids)), Product(tuple(kids))])
        ),
        max_leaves=6,
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_a_products_jet_form_does_not_depend_on_factor_order(data):
    dim = data.draw(st.integers(1, 3))
    factors = data.draw(st.lists(_jet_trees(dim), min_size=1, max_size=4))
    form = jet_form(Product(tuple(factors)))
    assert jet_form(Product(tuple(data.draw(st.permutations(factors))))) == form
    assert all(list(m) == sorted(m, key=tuple) for m in form)


class _FloatOnly(FuncExpr):
    """A node with float values and no exact kind, as a caller may define one."""

    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def _eval_points(self, points, path):
        return [0.5] * len(points)


def _trees_of_every_kind(dim: int):
    """Trees over log-free subtrees and a float-only node, under every node kind."""
    return st.recursive(
        _jet_trees(dim) | st.just(_FloatOnly(dim)),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(tuple).flatmap(
                lambda kids: st.sampled_from([Sum(kids), Product(kids)])
            ),
            children.map(XLogAbs),
            st.tuples(children, children).map(lambda pair: SignedPower(*pair)),
        ),
        max_leaves=6,
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_is_polynomial_holds_exactly_where_jet_form_walks(data):
    dim = data.draw(st.integers(1, 3))
    tree = data.draw(_jet_trees(dim) | _trees_of_every_kind(dim))  # about half are log-free
    try:
        jet_form(tree)
    except NotPolynomial:
        assert not is_polynomial(tree)
    else:
        assert is_polynomial(tree)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_substituting_a_probe_commutes_with_the_jet_form(data):
    # the exact witness path (substitute, then expand) reads the form that
    # the formal decider reads: each monomial's coefficient times its jets of the probe
    dim = data.draw(st.integers(1, 3))
    tree = data.draw(_jet_trees(dim))
    probe = random_polynomial(random.Random(data.draw(st.integers(0, 2**16))), dim, 3, 3)
    table = derivative_table(probe, enumerate_height_at_most(dim, 2))
    expected = Polynomial.zero(dim)
    for m, c in jet_form(tree).items():
        for beta in m:
            c = c * table[beta]
        expected = expected + c
    assert as_polynomial(substitute_jets([tree], table)[0]) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_a_tree_over_jet_columns_takes_its_substituted_copies_operations(data):
    # one walk over every probe's jets gives, row by row, the bits of the tree
    # with each probe substituted, the zero and constant probes included, whose
    # sums drop the terms with a zero jet; where a copy raises, the walk does
    dim = data.draw(st.integers(1, 3))
    tree = data.draw(_trees_of_every_kind(dim))
    degrees = data.draw(st.lists(st.integers(-1, 3), min_size=1, max_size=6))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    probes = [Polynomial.zero(dim) if d < 0 else random_polynomial(rng, dim, d, 3) for d in degrees]
    tables = [derivative_table(h, enumerate_height_at_most(dim, 2)) for h in probes]
    points = PointColumns(Domain.unit(dim, n_samples=8, seed=len(probes)).sample_points)
    expected, errors = [], []
    for table in tables:
        try:
            expected += eval_expr(substitute_jets([tree], table)[0], points)
        except Exception as exc:
            errors.append(type(exc))
    columns = JetColumns(points, tables)
    assert len(columns) == len(tables) * len(points)
    if errors:
        with pytest.raises(tuple(errors)):
            eval_expr(tree, columns)
    else:
        assert _bits(eval_expr(tree, columns)) == _bits(expected)


def test_a_sum_term_no_probe_reaches_is_not_evaluated():
    # D^(0,1) is zero for every probe, so substitution drops the product that
    # holds the overflowing leaf from every copy: over their jet columns it
    # is not evaluated either, and a product that one probe keeps reads +-0.0
    # on the others' rows, as their dropped terms would
    e0, e1 = MultiIndex((1, 0)), MultiIndex((0, 1))
    huge = PolyLeaf(Polynomial.constant(2, 2**1100))
    tree = Sum((Product((Jet(e1), huge)), Product((Jet(e0), const_expr(2, -3)))))
    probes = [Polynomial.zero(2), _x(2, 0) * 5, Polynomial.constant(2, 7)]
    tables = [derivative_table(h, enumerate_height_at_most(2, 1)) for h in probes]
    points = PointColumns(Domain.unit(2, n_samples=8).sample_points)
    expected = [0.0] * 8 + [-15.0] * 8 + [0.0] * 8
    assert _bits(eval_expr(tree, JetColumns(points, tables))) == _bits(expected)
    reaching = tables + [derivative_table(_x(2, 1), enumerate_height_at_most(2, 1))]
    with pytest.raises(NonFiniteValue, match=r"^overflow converting exact value at root\.sum\[0\]\.product\[1\]$"):
        eval_expr(tree, JetColumns(points, reaching))
    with pytest.raises(ValueError, match=r"^jet \[0, 1\] at root\.sum\[0\]\.product\[0\] has no value"):
        eval_expr(tree, points)


def _bound_pair(f: Polynomial, g: Polynomial, jets, tau=None):
    """The tables of f and g composed with tau, and fg's own table."""
    f, g = [h if tau is None else compose(h, tau.components) for h in (f, g)]
    return derivative_table(f, jets), derivative_table(g, jets), derivative_table(f * g, jets)


@pytest.mark.parametrize("mapped", [False, True])
@pytest.mark.parametrize("height", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_product_tables_jets_are_the_products_bit_for_bit(dim, height, mapped):
    # the jets of a ProductTable of f's and g's tables are the Leibniz sums of
    # their exact values, divided once: the floats of fg's own table, and its
    # entries are that table's, for the zero and constant probes too
    rng = random.Random(100 * dim + 10 * height + mapped)
    jets = enumerate_height_at_most(dim, height)
    tau = TauMap(tuple(random_polynomial(rng, dim, 2, 3, denominators=(2, 3)) for _ in range(dim)))
    points = PointColumns(Domain.unit(dim, n_samples=8, seed=dim).sample_points)
    probes = [Polynomial.zero(dim), Polynomial.constant(dim, Fraction(-5, 3))]
    probes += [random_polynomial(rng, dim, 3, 4, denominators=(2, 3, 7)) for _ in range(4)]
    for f, g in itertools.product(probes, repeat=2):
        tf, tg, tfg = _bound_pair(f, g, jets, tau if mapped else None)
        pair, product = JetColumns(points, [ProductTable(tf, tg)]), JetColumns(points, [tfg])
        for beta in jets:
            assert _bits(pair.jet_values(beta)) == _bits(product.jet_values(beta))
            assert bool(pair.tables[0][beta]) is bool(tfg[beta])


def test_a_product_tables_cancelling_jet_still_drops_its_sum_term():
    # D^(1,1) of (x0 + x1)(x0 - x1) = x0^2 - x1^2 is zero though its Leibniz
    # terms are not: the sum asks the product's own table, so the term that
    # holds the overflowing leaf is dropped for every bound function
    jets = enumerate_height_at_most(2, 2)
    tf, tg, tfg = _bound_pair(_x(2, 0) + _x(2, 1), _x(2, 0) - _x(2, 1), jets)
    huge = PolyLeaf(Polynomial.constant(2, 2**1100))
    e11, e10 = MultiIndex((1, 1)), MultiIndex((1, 0))
    assert tf[e10] and tg[MultiIndex((0, 1))] and not (tf[e11] or tg[e11] or tfg[e11])
    tree = Sum((Product((Jet(e11), huge)), Product((Jet(e10), PolyLeaf(_x(2, 1))))))
    points = PointColumns(Domain.unit(2, n_samples=8).sample_points)
    values = eval_expr(tree, JetColumns(points, [tf, tg, ProductTable(tf, tg)]))
    assert _bits(values) == _bits(eval_expr(tree, JetColumns(points, [tf, tg, tfg])))


def test_a_product_tables_value_past_the_float_range_names_its_jet():
    # f = g = 2^600 fit in a float and fg = 2^1200 does not: its row raises
    # where the product's own table raised, at the jet's node
    jets = enumerate_height_at_most(1, 1)
    tf, tg, tfg = _bound_pair(*[Polynomial.constant(1, 2**600)] * 2, jets)
    points = PointColumns(Domain.unit(1, n_samples=8).sample_points)
    tree = Sum((Product((const_expr(1, 3), Jet(MultiIndex((0,))))), Jet(MultiIndex((1,)))))
    for bound in ([tf, tg, ProductTable(tf, tg)], [tf, tg, tfg]):
        path = r"root\.sum\[0\]\.product\[1\]"
        with pytest.raises(NonFiniteValue, match=rf"^overflow converting exact value at {path}$"):
            eval_expr(tree, JetColumns(points, bound))
    assert eval_expr(tree, JetColumns(points, [tf, tg]))[0] == 3.0 * 2.0**600


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


def test_evaluators_refuse_points_of_another_rank():
    # dim-2 polynomials and trees refuse rank-1 points: one point, a whole
    # tuple, or a later point of a tuple whose first point matches
    good, bad = _pt(Fraction(1, 2), Fraction(1, 3)), _pt(Fraction(1, 2))
    polys = (Polynomial.zero(2), _x(2, 0) * _x(2, 1) + Polynomial.constant(2, 3))
    evaluators = (
        eval_poly_values,
        eval_poly_ratios,
        lambda f, xs: eval_expr(PolyLeaf(f), xs),
        lambda f, xs: eval_expr(Sum((PolyLeaf(f), XLogAbs(PolyLeaf(f)))), xs),
    )
    for f in polys:
        with pytest.raises(DimensionMismatch):
            eval_poly(f, bad)
        for points in ((bad,), (bad, bad), (good, bad), (good, good, bad), PointColumns((bad,))):
            for evaluate in evaluators:
                with pytest.raises(DimensionMismatch):
                    evaluate(f, points)
        assert eval_poly_values(f, (good, good)) == [eval_poly(f, good)] * 2


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
# a point-by-point fsum overflows at the second child, before it reaches
# the third; the batched walk evaluates all three and meets the third's overflow
@example((Sum((_BIG, _BIG, XLogAbs(_BIG))), _HALVES))
def test_batched_eval_matches_point_by_point(case):
    # where the point-by-point walk returns, the batched one returns the
    # same bits; where it raises, the batched one raises too, naming the
    # node whose column fails first, with the same message on a repeat
    # call and at one shared PointColumns, whose leaf values the first pass fills
    expr, points = case
    expected = _outcome(lambda: [_value_at(expr, x) for x in points])
    outcome = _outcome(lambda: eval_expr(expr, points))
    assert type(outcome) is type(expected)
    if isinstance(expected, bytes):
        assert outcome == expected
    assert _outcome(lambda: eval_expr(expr, points)) == outcome
    shared = PointColumns(points)
    assert _outcome(lambda: eval_expr(expr, shared)) == outcome
    assert _outcome(lambda: eval_expr(expr, shared)) == outcome


@st.composite
def _leaves_of_rising_degree(draw):
    """Polynomials of rising degree on one point tuple: samples k/64, or their
    images under an affine map with mixed denominators."""
    r = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(1, 63), st.just(64))
    points = draw(st.lists(st.builds(RationalPoint, st.tuples(*[coord] * r)), max_size=6))
    if draw(st.booleans()):
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=12)
        row = st.lists(entry, min_size=r + 1, max_size=r + 1)
        matrix = draw(st.lists(row, min_size=r, max_size=r))
        points = [
            RationalPoint(row[r] + sum(a * c for a, c in zip(row, x)) for row in matrix)
            for x in points
        ]
    polys = []
    for top in sorted(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))):
        exponent = st.tuples(*[st.integers(0, top)] * r)
        polys.append(Polynomial(r, draw(st.lists(st.tuples(exponent, _COEFFS), max_size=5))))
    return polys, tuple(points)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_leaves_of_rising_degree())
def test_column_evaluation_with_one_table_matches_point_by_point_fractions(case):
    # every pair is the term-by-term Fraction value, and its int division is
    # float() of that value, bit for bit, or the same OverflowError; one
    # PointColumns serves every polynomial, each of a higher degree than the
    # last, and a leaf whose value overflows names itself as it does point by point
    polys, points = case
    columns = PointColumns(points)
    for f in polys:
        exact = [_naive_value(f, x) for x in points]
        ratios = eval_poly_ratios(f, columns)
        assert [Fraction(n, d) for n, d in ratios] == exact
        assert eval_poly_values(f, columns) == exact == [eval_poly(f, x) for x in points]
        assert eval_poly_ratios(f, points) == ratios
        for (n, d), value in zip(ratios, exact):
            assert _float_outcome(lambda: n / d) == _float_outcome(lambda: float(value))
        leaf = PolyLeaf(f)
        expected = _outcome(lambda: [_value_at(leaf, x) for x in points])
        assert _outcome(lambda: eval_expr(leaf, columns)) == expected


def _naive_value(f: Polynomial, x: RationalPoint) -> Fraction:
    return sum(
        (c * math.prod(xi**e for xi, e in zip(x, exp)) for exp, c in f.terms.items()),
        Fraction(0),
    )


def _float_outcome(divide):
    try:
        return struct.pack("<d", divide())
    except OverflowError:
        return "overflow"


@st.composite
def _judged_columns(draw):
    pairs = draw(st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), max_size=8))
    # a tolerance that some residual meets exactly, or an edge value
    exact = [abs(a - b) / (1.0 + abs(a)) for a, b in pairs]
    tol = draw(st.sampled_from([x for x in exact if not math.isnan(x)] + [0.0, 1e-9, math.inf]))
    return [a for a, _ in pairs], [b for _, b in pairs], tol


def _bits(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_judged_columns())
@example(([1.0, math.inf, 2.0, -math.inf], [1.0, math.inf, 2.0, 0.0], 0.0))
@example(([-0.0, 3.0], [0.0, 3.5], 0.125))
def test_judge_column_is_the_residual_rule_and_worse_fold(case):
    # the residual is the one relative rule, bit for bit; the worst is worse
    # folded over the column from 0.0, a NaN as the last NaN, and any running
    # value folds the column alike; failing positions are those whose residual
    # is not <= tol (a NaN one among them), in order
    lhs, rhs, tol = case
    residuals, worst, failing = judge_column(lhs, rhs, tol)
    assert _bits(residuals) == _bits([abs(a - b) / (1.0 + abs(a)) for a, b in zip(lhs, rhs)])
    assert failing == [i for i, r in enumerate(residuals) if not r <= tol]
    for start in (0.0, 0.5, math.inf, math.nan):
        folded = functools.reduce(worse, residuals, start)
        assert _bits([worse(start, worst)]) == _bits([folded])


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
    family = make_power_sign(p, TauMap.identity(1))
    f, g = Polynomial.constant(1, 2), Polynomial.constant(1, -3)
    zero = MultiIndex.zero(1)
    values = [eval_expr(family.apply(h)[zero], x) for h in (f, g, f * g, Polynomial.zero(1))]
    assert values == [[4.0], [-9.0], [-36.0], [0.0]]
    # f is read at tau(x) and p at x: at x = 1/4, (1 - x)^(1/2 + x) = (3/4)^(3/4)
    tau = TauMap.affine([[-1]], [1])
    half_plus_x = PolyLeaf(Polynomial.constant(1, Fraction(1, 2)) + _x())
    family = make_power_sign(half_plus_x, tau)
    assert eval_expr(family.apply(-_x())[zero], (_pt(Fraction(1, 4)),)) == [-(0.75**0.75)]


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
    probes = [(_x(), _x())]
    shift_out = TauMap((Polynomial.variable(1, 0) + Polynomial.constant(1, 5),))
    with pytest.raises(ValueError):
        check_multiplicative(const_expr(1, 1), shift_out, probes, dom)
    negative_p = const_expr(1, -1)
    with pytest.raises(ValueError):
        check_multiplicative(negative_p, TauMap.identity(1), probes, dom)


def test_power_sign_map_needs_the_domain_rank():
    with pytest.raises(DimensionMismatch, match="map rank 2 vs domain rank 1"):
        check_multiplicative(const_expr(1, 1), TauMap.identity(2), [], Domain.unit(1))


def test_power_sign_exponent_error_wins_over_map_error():
    # tau(x) = 2x leaves the box from x = 1/2 on, p = 3/4 - x is negative only at 4/5:
    # every sample's exponent is checked before any image
    dom = Domain(1, tuple(_pt(Fraction(k, 10)) for k in range(1, 9)))
    double = TauMap((_x() * 2,))
    late_p = PolyLeaf(Polynomial.constant(1, Fraction(3, 4)) - _x())
    with pytest.raises(ValueError, match=r"^exponent not positive at sample \['4/5'\]$"):
        check_multiplicative(late_p, double, [], dom)
    with pytest.raises(ValueError) as shared:
        dom.images(double)
    with pytest.raises(ValueError) as err:
        check_multiplicative(const_expr(1, 1), double, [], dom)
    assert str(err.value) == str(shared.value)


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
            report = check_multiplicative(p, tau, probes, dom)
            assert report.passed, report.failures[:1]
            assert report.max_residual <= 1e-9
            assert not report.exact and report.per_alpha_max_residual.keys() == {"0"}
            # the sign survives: T_0(-1) is -1 at every sample
            sign = make_power_sign(p, tau).apply(minus_one)[MultiIndex.zero(1)]
            signs = eval_expr(sign, dom.sample_points)
            assert signs == [-1.0] * len(dom.sample_points)


def test_check_multiplicative_catches_sign_stripping():
    # |f(tau(x))|^p = sgn(f^2) |f^2|^(p/2) is multiplicative too, so the
    # moment verifier passes it; only T_0(-1) = +1 tells it from the genuine map
    dom = Domain.unit(1)
    zero = MultiIndex.zero(1)
    f_squared = Product((Jet(zero), Jet(zero)))
    stripped = OperatorFamily(1, 0, {zero: SignedPower(f_squared, const_expr(1, 1))})
    probes = default_probe_pairs(dom, 8, random.Random(0))
    assert verify_moment(stripped, probes, dom).passed
    minus_one = Polynomial.constant(1, -1)
    assert eval_expr(stripped.apply(minus_one)[zero], dom.sample_points) == [1.0] * len(
        dom.sample_points
    )


def test_worse_keeps_nan():
    assert worse(0.0, 0.5) == 0.5 and worse(0.5, 0.25) == 0.5
    assert math.isnan(worse(0.0, math.nan))
    assert math.isnan(worse(math.nan, 1.0))


def test_judge_column_relative_rule():
    assert judge_column([3.0], [3.5], 0.125) == ([0.125], 0.125, [])  # |3 - 3.5| / (1 + 3)
    assert judge_column([3.0], [3.5], 0.1) == ([0.125], 0.125, [0])
    residuals, worst, failing = judge_column([math.nan], [1.0], 1e-10)
    assert math.isnan(residuals[0]) and math.isnan(worst) and failing == [0]


def _constant_report(c, dom: Domain):
    """``verify_moment`` on the exact order-0 family T_0 = c, whose one
    instance c = c * c fails at every sample unless c is 0 or 1."""
    one = Polynomial.constant(1, 1)
    return verify_moment(OperatorFamily(1, 0, {MultiIndex.zero(1): const_expr(1, c)}), [(one, one)], dom)


def test_exact_residual_is_the_difference():
    # exact instances pass only on equality, and the residual is |lhs - rhs|
    dom = Domain.unit(1)
    report = _constant_report(Fraction(1, 3), dom)
    assert report.exact and not report.passed
    assert len(report.failures) == len(dom.sample_points)
    assert {(w["lhs"], w["rhs"], w["residual"]) for w in report.failures} == {
        (1 / 3, 1 / 9, float(Fraction(2, 9)))
    }
    assert report.max_residual == report.per_alpha_max_residual["0"] == float(Fraction(2, 9))
    assert _constant_report(1, dom).passed


def test_exact_residual_overflow_is_inf():
    # an exact residual too large for a float is inf, and still fails
    dom = Domain.unit(1)
    for c in (10**400, -(10**400)):
        report = _constant_report(c, dom)
        assert report.exact and len(report.failures) == len(dom.sample_points)
        assert report.max_residual == math.inf
        assert {w["residual"] for w in report.failures} == {math.inf}


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e-320]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _convolution_cases(draw):
    keys = [MultiIndex((k,)) for k in range(draw(st.integers(1, 3)))]
    width = draw(st.integers(0, 4))
    column = st.lists(_EDGE_FLOATS, min_size=width, max_size=width)
    left, right = ({k: draw(column) for k in keys} for _ in range(2))
    weight = st.one_of(st.integers(1, 20), st.integers(2**53, 2**80))
    splits = draw(st.lists(st.tuples(weight, st.sampled_from(keys), st.sampled_from(keys))))
    return left, right, splits, width


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_convolution_cases())
def test_convolution_column_is_the_pointwise_sum(case):
    # each point's value is the builtin sum of its split products in split
    # order, bit for bit, signed zeros, infinities and NaN included
    left, right, splits, width = case
    column = convolution_column(left, right, splits)
    if not splits:
        assert column == []
        return
    expected = [sum(w * left[b][i] * right[g][i] for w, b, g in splits) for i in range(width)]
    assert struct.pack(f"<{width}d", *column) == struct.pack(f"<{width}d", *expected)


_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-320, 1e308, 1.5]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_convolution_cases())
@example(
    (
        {MultiIndex((0,)): _EDGES},
        {MultiIndex((0,)): _EDGES[::-1]},
        [(w, MultiIndex((0,)), MultiIndex((0,))) for w in (1, 2**53 + 1, 10**20, 3**40)],
        len(_EDGES),
    )
)
def test_convolution_products_are_the_weighted_products_bit_for_bit(case):
    # a weight made a float once, and a weight of 1 left out, give each
    # product the bits of w * a * b: NaN, infinities, signed zeros and
    # subnormals included
    left, right, splits, width = case
    products = convolution_products(left, right, splits)
    expected = [[w * a * b for a, b in zip(left[beta], right[gamma])] for w, beta, gamma in splits]
    assert len(products) == len(expected)
    for got, want in zip(products, expected):
        assert struct.pack(f"<{width}d", *got) == struct.pack(f"<{width}d", *want)


def test_weight_past_the_float_range_raises_as_its_product_would():
    k = MultiIndex((0,))
    with pytest.raises(OverflowError, match="^int too large to convert to float$"):
        10**400 * 1.0
    with pytest.raises(OverflowError, match="^int too large to convert to float$"):
        convolution_products({k: [1.0]}, {k: [1.0]}, [(1, k, k), (10**400, k, k)])


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
