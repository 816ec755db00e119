"""Exact polynomial arithmetic, derivatives and the product-derivative identity."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_leibniz import polycalc
from moment_leibniz.cli import EXIT_FAIL, main
from moment_leibniz.multiindex import (
    DimensionMismatch,
    MultiIndex,
    convolution_terms,
    enumerate_height_at_most,
)
from moment_leibniz.polycalc import (
    Polynomial,
    RationalPoint,
    check_leibniz,
    check_leibniz_all,
    dalpha,
    eval_poly,
    leibniz_rhs,
    random_polynomial,
)


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _to_sympy(f: Polynomial, symbols) -> sympy.Expr:
    expr = sympy.Integer(0)
    for exp, coeff in f.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exp):
            term *= s**e
        expr += term
    return sympy.expand(expr)


# ---- ring arithmetic ----


def test_canonical_zero():
    f = Polynomial(1, {(0,): 1})
    g = Polynomial(1, {(0,): -1})
    assert (f + g).is_zero()
    assert (f + g) == Polynomial.zero(1)
    assert not Polynomial.zero(2)


def test_terms_merge_and_drop():
    f = Polynomial(1, [((1,), Fraction(1, 2)), ((1,), Fraction(1, 2))])
    assert f == Polynomial(1, {(1,): 1})
    g = Polynomial(1, [((1,), 1), ((1,), -1)])
    assert g.is_zero()


def test_product_and_degree():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == Polynomial(2, {(2, 0): 1, (0, 2): -1})
    assert p.degree() == 2
    assert Polynomial.zero(2).degree() == 0


def test_scalar_multiplication():
    x = Polynomial.variable(1, 0)
    assert 3 * x == Polynomial(1, {(1,): 3})
    assert x * Fraction(1, 2) == Polynomial(1, {(1,): Fraction(1, 2)})


def test_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(1, 0) + Polynomial.variable(2, 0)
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(1,): 1})


# ---- evaluation ----


def test_eval_pinned():
    p = Polynomial.monomial((2, 1))
    assert eval_poly(p, RationalPoint.of(2, 3)) == 12
    c = Polynomial.constant(3, Fraction(5, 7))
    assert eval_poly(c, RationalPoint.of(1, 2, 3)) == Fraction(5, 7)
    assert eval_poly(Polynomial.zero(1), RationalPoint.of(9)) == 0
    # 1/2 x^3 y - 2/3 y^2 + 5 at (-1/2, 3/4): -3/64 - 3/8 + 5
    q = Polynomial(2, {(3, 1): Fraction(1, 2), (0, 2): Fraction(-2, 3), (0, 0): 5})
    assert eval_poly(q, RationalPoint.of(Fraction(-1, 2), Fraction(3, 4))) == Fraction(293, 64)


def test_eval_is_ring_homomorphism():
    rng = random.Random(31)
    for _ in range(40):
        dim = rng.randint(1, 3)
        f = random_polynomial(rng, dim, max_degree=4)
        g = random_polynomial(rng, dim, max_degree=4)
        x = RationalPoint(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)))
        assert eval_poly(f * g, x) == eval_poly(f, x) * eval_poly(g, x)
        assert eval_poly(f + g, x) == eval_poly(f, x) + eval_poly(g, x)


def _naive_eval(f: Polynomial, x: RationalPoint) -> Fraction:
    # term-by-term Fraction arithmetic, the reference for eval_poly
    total = Fraction(0)
    for exp, coeff in f.terms.items():
        term = coeff
        for xi, e in zip(x, exp):
            term *= xi**e
        total += term
    return total


def _random_point(rng: random.Random, dim: int) -> RationalPoint:
    # zero and negative coordinates and non-unit denominators all occur
    return RationalPoint(
        tuple(Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 4, 9))) for _ in range(dim))
    )


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_eval_matches_term_by_term_fractions(dim):
    rng = random.Random(300 + dim)
    zero = Polynomial.zero(dim)
    for _ in range(60):
        f = random_polynomial(
            rng, dim, max_degree=7, terms=rng.randint(1, 8), denominators=(1, 2, 3, 5, 12)
        )
        for x in (_random_point(rng, dim), RationalPoint((Fraction(0),) * dim)):
            value = eval_poly(f, x)
            assert type(value) is Fraction
            assert value == _naive_eval(f, x)
            assert eval_poly(zero, x) == 0


def _assert_canonical(p: Polynomial, dim: int) -> None:
    assert p.dim == dim
    assert Polynomial(p.dim, p.terms) == p
    for idx, coeff in p.terms.items():
        assert type(idx) is MultiIndex and idx.rank == dim
        assert type(coeff) is Fraction and coeff != 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_results_are_canonical(dim):
    rng = random.Random(310 + dim)
    for _ in range(25):
        f = random_polynomial(rng, dim, max_degree=5)
        g = random_polynomial(rng, dim, max_degree=5)
        alpha = MultiIndex(tuple(rng.randint(0, 2) for _ in range(dim)))
        results = [
            f + g,
            f + (-f),
            f - g,
            f - f,
            -f,
            f * g,
            f * (-f),
            f * Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            f * 3,
            f * 0,
            0 * f,
            dalpha(f, alpha),
            dalpha(f * g, alpha),
            leibniz_rhs(f, g, alpha),
        ]
        for p in results:
            _assert_canonical(p, dim)


def test_ops_never_recanonicalize(monkeypatch):
    # once the inputs exist, the ring operations and the identity checks
    # build every result from a map that is already canonical
    rng = random.Random(320)
    f = random_polynomial(rng, 2, max_degree=5)
    g = random_polynomial(rng, 2, max_degree=5)
    assert f and g
    alpha = _mi(2, 1)
    calls = []
    init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    f + g
    f - g
    f * g
    f * Fraction(2, 3)
    f * 0
    dalpha(f, alpha)
    leibniz_rhs(f, g, alpha)
    assert check_leibniz_all(f, g, 3) == []
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), out_dim=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_compose_is_exact_substitution(dim, out_dim, seed):
    rng = random.Random(seed)
    f = random_polynomial(rng, dim, max_degree=3, terms=4)
    maps = [random_polynomial(rng, out_dim, max_degree=2, terms=3) for _ in range(dim)]
    composed = polycalc.compose(f, maps)
    assert composed.dim == out_dim
    for _ in range(3):
        x = RationalPoint(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(out_dim))
        image = RationalPoint(eval_poly(m, x) for m in maps)
        assert eval_poly(composed, x) == eval_poly(f, image)
    identity = [Polynomial.variable(dim, i) for i in range(dim)]
    assert polycalc.compose(f, identity) == f


def test_compose_checks_dims():
    f = Polynomial.variable(2, 0)
    with pytest.raises(DimensionMismatch):
        polycalc.compose(f, [Polynomial.variable(1, 0)])
    with pytest.raises(DimensionMismatch):
        polycalc.compose(f, [Polynomial.variable(1, 0), Polynomial.variable(2, 0)])


# ---- derivatives ----


def test_dalpha_pinned():
    p = Polynomial.monomial((2, 1))  # x0^2 x1
    assert dalpha(p, _mi(1, 0)) == Polynomial(2, {(1, 1): 2})
    assert dalpha(p, _mi(2, 1)) == Polynomial.constant(2, 2)
    assert dalpha(p, _mi(3, 0)).is_zero()
    assert dalpha(p, _mi(0, 0)) == p


def test_dalpha_composes():
    rng = random.Random(33)
    for _ in range(30):
        dim = rng.randint(1, 3)
        f = random_polynomial(rng, dim, max_degree=5)
        beta = MultiIndex(tuple(rng.randint(0, 2) for _ in range(dim)))
        gamma = MultiIndex(tuple(rng.randint(0, 2) for _ in range(dim)))
        assert dalpha(dalpha(f, beta), gamma) == dalpha(f, beta + gamma)


def test_dalpha_linear():
    rng = random.Random(34)
    for _ in range(20):
        f = random_polynomial(rng, 2, max_degree=4)
        g = random_polynomial(rng, 2, max_degree=4)
        alpha = _mi(rng.randint(0, 2), rng.randint(0, 2))
        assert dalpha(f + g, alpha) == dalpha(f, alpha) + dalpha(g, alpha)


def test_dalpha_matches_sympy():
    rng = random.Random(35)
    for _ in range(10):
        dim = rng.randint(1, 3)
        symbols = sympy.symbols(f"x0:{dim}")
        f = random_polynomial(rng, dim, max_degree=5)
        alpha = MultiIndex(tuple(rng.randint(0, 3) for _ in range(dim)))
        expected = _to_sympy(f, symbols)
        for s, e in zip(symbols, alpha):
            expected = sympy.diff(expected, s, e)
        assert _to_sympy(dalpha(f, alpha), symbols) == sympy.expand(expected)


# ---- the product-derivative identity ----


def test_leibniz_pinned_third_derivative():
    # f = x, g = x^2: D^3(x^3) = 6; the four convolution summands are
    # C(3,0)*x*0 + C(3,1)*1*2 + C(3,2)*0*2x + C(3,3)*0*x^2 = 6
    f = Polynomial.variable(1, 0)
    g = Polynomial.monomial((2,))
    assert leibniz_rhs(f, g, _mi(3)) == Polynomial.constant(1, 6)
    assert dalpha(f * g, _mi(3)) == Polynomial.constant(1, 6)
    assert check_leibniz(f, g, _mi(3))


def test_leibniz_alpha_zero_is_plain_product():
    f = Polynomial(2, {(1, 0): 1, (0, 1): 2})
    g = Polynomial(2, {(1, 1): Fraction(1, 3)})
    assert leibniz_rhs(f, g, _mi(0, 0)) == f * g


def test_leibniz_mixed_index_pinned():
    # f = x0, g = x1, alpha = (1,1): D^(1,1)(x0 x1) = 1
    f = Polynomial.variable(2, 0)
    g = Polynomial.variable(2, 1)
    assert dalpha(f * g, _mi(1, 1)) == Polynomial.constant(2, 1)
    assert check_leibniz(f, g, _mi(1, 1))


def test_leibniz_randomized_exact():
    rng = random.Random(36)
    for _ in range(60):
        dim = rng.randint(1, 3)
        f = random_polynomial(rng, dim, max_degree=6)
        g = random_polynomial(rng, dim, max_degree=6)
        assert check_leibniz_all(f, g, 3) == []


def test_leibniz_mutated_weight_detected():
    # adding one extra copy of a middle term breaks the identity: for
    # f = x, g = x^2, alpha = 3 the mutated sum gives 8 instead of 6
    f = Polynomial.variable(1, 0)
    g = Polynomial.monomial((2,))
    alpha = _mi(3)
    mutated = leibniz_rhs(f, g, alpha) + dalpha(f, _mi(1)) * dalpha(g, _mi(2))
    assert mutated == Polynomial.constant(1, 8)
    assert mutated != dalpha(f * g, alpha)


def _bump_height_two(alpha):
    # one extra copy of the beta = alpha split at every alpha of height 2:
    # that alpha's sum gains D^alpha f * g
    splits = convolution_terms(alpha)
    if alpha.height != 2:
        return splits
    w, beta, gamma = splits[-1]
    return splits[:-1] + [(w + 1, beta, gamma)]


def _bracket(alpha):
    # at alpha = e_i + e_j (i < j) the splits are beta = 0, e_j, e_i, alpha;
    # moving one unit of weight from e_j to e_i adds d_i f d_j g - d_j f d_i g,
    # which vanishes when g is a multiple of f
    splits = convolution_terms(alpha)
    if alpha.height != 2 or max(alpha) != 1:
        return splits
    zero, (wj, ej, gj), (wi, ei, gi), top = splits
    return [zero, (wj - 1, ej, gj), (wi + 1, ei, gi), top]


@st.composite
def _rational_polynomials(draw, dim):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, 4)] * dim),
                st.integers(-9, 9),
                st.sampled_from((1, 2, 3, 7)),
            ),
            max_size=5,
        )
    )
    return Polynomial(dim, {exp: Fraction(num, den) for exp, num, den in terms})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_path_matches_fraction_path(data):
    # check_leibniz_all clears denominators and works over the integers;
    # check_leibniz works over the rationals, one alpha at a time.  Both
    # read convolution_terms, so with a faulty one they must still agree.
    dim = data.draw(st.integers(1, 3))
    height = data.draw(st.integers(0, 4))
    f = data.draw(_rational_polynomials(dim))
    g = data.draw(_rational_polynomials(dim))
    fault = data.draw(st.sampled_from([None, _bump_height_two, _bracket]))
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            mp.setattr(polycalc, "convolution_terms", fault)
        expected = [
            a for a in enumerate_height_at_most(dim, height) if not check_leibniz(f, g, a)
        ]
        assert check_leibniz_all(f, g, height) == expected


def test_integer_path_detects_a_bumped_weight(monkeypatch):
    monkeypatch.setattr(polycalc, "convolution_terms", _bump_height_two)
    # D^(2,0) f = 0, so only (0,2) and (1,1) change
    f = Polynomial(2, {(1, 1): Fraction(1, 2), (0, 3): Fraction(2, 3)})
    g = Polynomial(2, {(1, 0): Fraction(1, 7), (0, 0): 3})
    assert check_leibniz_all(f, g, 4) == [_mi(0, 2), _mi(1, 1)]
    rng = random.Random(39)
    for _ in range(20):
        dim = rng.randint(1, 3)
        f = random_polynomial(rng, dim, max_degree=4, denominators=(2, 3, 7))
        g = random_polynomial(rng, dim, max_degree=4, denominators=(2, 3, 7))
        changed = [
            a for a in enumerate_height_at_most(dim, 4) if a.height == 2 and dalpha(f, a) * g
        ]
        assert check_leibniz_all(f, g, 4) == changed


def test_integer_path_keeps_each_probes_coefficient_ratios(monkeypatch):
    # the bracket fault fails exactly when g is not a multiple of f, so it
    # tells the scaled pair (L_f f, L_g g) from any other integer pair
    monkeypatch.setattr(polycalc, "convolution_terms", _bracket)
    f = Polynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    assert check_leibniz_all(f, f * Fraction(2, 3), 3) == []
    g = Polynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 3)})
    assert check_leibniz_all(f, g, 3) == [_mi(1, 1)]


def test_cli_failures_report_the_drawn_probes(capsys, monkeypatch):
    # the failure entries hold the probes as drawn, with their p/q
    # coefficients, not the integer multiples the check works on
    monkeypatch.setattr(polycalc, "convolution_terms", _bump_height_two)
    code = main(["verify-leibniz", "--rank", "2", "--order", "2", "--pairs", "3", "--seed", "5"])
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert code == EXIT_FAIL and failures
    rng = random.Random(5)
    drawn = []
    for _ in range(3):
        f = random_polynomial(rng, 2, max_degree=6)
        g = random_polynomial(rng, 2, max_degree=6)
        drawn.append((f.to_json(), g.to_json()))
    for failure in failures:
        assert (failure["f"], failure["g"]) == drawn[failure["pair"]]
    coeffs = [t["coeff"] for failure in failures for t in failure["f"] + failure["g"]]
    assert any("/" in c for c in coeffs)


def test_leibniz_rhs_matches_sympy_product_derivative():
    rng = random.Random(37)
    x = sympy.symbols("x0:2")
    for _ in range(8):
        f = random_polynomial(rng, 2, max_degree=4)
        g = random_polynomial(rng, 2, max_degree=4)
        alpha = _mi(rng.randint(0, 2), rng.randint(0, 2))
        expected = sympy.diff(_to_sympy(f, x) * _to_sympy(g, x), x[0], alpha[0], x[1], alpha[1])
        assert _to_sympy(leibniz_rhs(f, g, alpha), x) == sympy.expand(expected)


# ---- probes and serialization ----


def test_random_polynomial_bounds():
    rng = random.Random(38)
    for _ in range(50):
        f = random_polynomial(rng, 2, max_degree=6, coeff_bound=9)
        assert f.degree() <= 6
        assert all(abs(c) <= 9 for c in f.terms.values())


def test_json_roundtrip():
    f = Polynomial(2, {(1, 0): Fraction(-3, 2), (0, 2): 5})
    data = f.to_json()
    assert data == [
        {"exponent": [0, 2], "coeff": "5"},
        {"exponent": [1, 0], "coeff": "-3/2"},
    ]
    assert Polynomial.from_json(data, 2) == f


def test_point_json_roundtrip():
    p = RationalPoint.of(Fraction(1, 3), 2)
    assert p.to_json() == ["1/3", "2"]
    assert RationalPoint.from_json(["1/3", "2"]) == p
