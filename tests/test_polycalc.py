"""Exact polynomial arithmetic, derivatives and the product-derivative identity."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moment_leibniz import funcmodel, momentfam, polycalc
from moment_leibniz.cli import EXIT_FAIL, EXIT_PASS, main
from moment_leibniz.funcmodel import Domain, Jet, PolyLeaf, Product, Sum, XLogAbs
from moment_leibniz.multiindex import (
    DimensionMismatch,
    MultiIndex,
    convolution_terms,
    enumerate_below,
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


def test_polynomial_is_unequal_to_other_types():
    # __eq__ leaves a non-polynomial to the other operand, which finds no match
    assert Polynomial.zero(1) != 0
    assert Polynomial.zero(1) != "x"


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


def test_point_needs_rank_at_least_one():
    with pytest.raises(ValueError, match="point needs rank >= 1"):
        RationalPoint(())


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


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_nonzero_grid_point_is_the_first_grid_point_off_the_zero_set(dim, seed):
    # the factor x_0 - 1/2 vanishes on a grid line whenever d_0 + 2 is even
    rng = random.Random(seed)
    half = Polynomial.variable(dim, 0) - Polynomial.constant(dim, Fraction(1, 2))
    f = (random_polynomial(rng, dim, max_degree=2, terms=3) + Polynomial.constant(dim, 1)) * half
    assume(not f.is_zero())
    x = polycalc.nonzero_grid_point(f)
    assert eval_poly(f, x) != 0
    degrees = [max(e[i] for e in f.terms) for i in range(dim)]
    grid = itertools.product(*[[Fraction(k, d + 2) for k in range(1, d + 2)] for d in degrees])
    points = list(map(RationalPoint, grid))
    assert x in points
    assert all(eval_poly(f, y) == 0 for y in points[: points.index(x)])


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


def test_dalpha_needs_an_index_of_the_polynomial_dim():
    with pytest.raises(DimensionMismatch, match="poly dim 2 vs index rank 1"):
        dalpha(Polynomial.monomial((2, 1)), _mi(1))


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


def _cross_unit_splits(alpha):
    # one more split (1, e_0, e_0) at alpha = 3 e_0 and (-1, e_0, e_0) at
    # 4 e_0: where D^alpha(fg) is empty at both, their sums start from the
    # one empty map the derivative table shares, and must not merge
    splits = convolution_terms(alpha)
    w = {3: 1, 4: -1}.get(alpha[0]) if alpha.height == alpha[0] else None
    if w is None:
        return splits
    e = MultiIndex.unit(alpha.rank, 0)
    return splits + [(w, e, e)]


@st.composite
def _rational_polynomials(draw, dim, max_exponent=4):
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(0, max_exponent)] * dim),
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
    fault = data.draw(st.sampled_from([None, _bump_height_two, _bracket, _cross_unit_splits]))
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            mp.setattr(polycalc, "convolution_terms", fault)
        expected = [
            a for a in enumerate_height_at_most(dim, height) if not check_leibniz(f, g, a)
        ]
        assert check_leibniz_all(f, g, height) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_path_matches_fraction_path_where_product_entries_are_empty(data):
    # linear f and g at height 4: D^3(fg) and D^4(fg) are both empty, one
    # shared map in the table, while D f * D g is not
    linear = st.builds(
        lambda a, b, d: Polynomial(1, {(1,): Fraction(a, d), (0,): b}),
        st.integers(-9, 9).filter(bool),
        st.integers(-9, 9),
        st.sampled_from((1, 2, 3, 7)),
    )
    f, g = data.draw(linear), data.draw(linear)
    fault = data.draw(st.sampled_from([None, _bump_height_two, _bracket, _cross_unit_splits]))
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            mp.setattr(polycalc, "convolution_terms", fault)
        expected = [a for a in enumerate_height_at_most(1, 4) if not check_leibniz(f, g, a)]
        assert check_leibniz_all(f, g, 4) == expected


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


def test_alphas_sharing_an_empty_product_entry_keep_separate_sums(monkeypatch):
    # D^3(x^2) and D^4(x^2) are both empty, one shared map in the table;
    # their extra splits cancel only if the two sums are one
    monkeypatch.setattr(polycalc, "convolution_terms", _cross_unit_splits)
    x = Polynomial.variable(1, 0)
    assert [a for a in enumerate_height_at_most(1, 4) if not check_leibniz(x, x, a)] == [
        _mi(3), _mi(4)
    ]
    assert check_leibniz_all(x, x, 4) == [_mi(3), _mi(4)]


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


def _operator_values(forms, h):
    """T_alpha(h) = sum_m c_m prod_{b in m} D^b h for each alpha, in Fractions."""
    out = {}
    for alpha, form in forms.items():
        total = Polynomial.zero(h.dim)
        for m, c in form.items():
            for b in m:
                c = c * dalpha(h, b)
            total = total + c
        out[alpha] = total
    return out


def _fraction_mismatches(forms, f, g, table):
    tf, tg, tfg = (_operator_values(forms, h) for h in (f, g, f * g))
    return [a for a, splits in table.items() if tfg[a] != polycalc.convolution_sum(tf, tg, splits)]


def _formal_failures(forms, table):
    """The alphas where T_alpha(fg) = sum w T_beta(f) T_gamma(g) fails in the jets of f and g,
    summed in Fractions: each side a map from (f-monomial, g-monomial), its indices sorted as
    tuples, to a coefficient, with the jets of fg written by Leibniz."""

    def canonical(m):
        return tuple(sorted(m, key=tuple))

    out = []
    for alpha, splits in table.items():
        diff = {}
        terms = [
            ((canonical(c for _, c, _ in choice), canonical(d for _, _, d in choice)),
             coeff * math.prod(w for w, _, _ in choice))
            for m, coeff in forms[alpha].items()
            for choice in itertools.product(*[convolution_terms(b) for b in m])
        ]
        terms += [
            ((canonical(m), canonical(n)), -(c * d * w))
            for w, beta, gamma in splits
            for m, c in forms[beta].items()
            for n, d in forms[gamma].items()
        ]
        for key, coeff in terms:
            diff[key] = diff[key] + coeff if key in diff else coeff
        if any(diff.values()):
            out.append(alpha)
    return out


def _derivative_forms(table, dim, scale=1):
    """T_alpha = scale^|alpha| D^alpha, which holds for every scale."""
    return {alpha: {(alpha,): Polynomial.constant(dim, Fraction(scale) ** alpha.height)}
            for alpha in table}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_mismatches_match_the_fraction_sums(data):
    # any forms, not only a family's: each alpha's form is c^|alpha| D^alpha,
    # or that with one drawn term of jet degree 0-3, its factors in any order,
    # whose rational coefficient, zero included, may pass every exponent of
    # the others (which may replace it).  The integer check names the alphas
    # the Fraction sums name, and every alpha a drawn probe pair fails on,
    # summed in Fractions, is among them
    dim = data.draw(st.integers(1, 3))
    table = polycalc.convolution_table(dim, data.draw(st.integers(0, 2)))
    jets = enumerate_height_at_most(dim, 2)
    scale = Fraction(data.draw(st.integers(1, 3)), data.draw(st.sampled_from((1, 2, 3))))
    forms = _derivative_forms(table, dim, scale)
    for alpha in table:
        if data.draw(st.booleans()):
            m = tuple(data.draw(st.lists(st.sampled_from(jets), max_size=3)))
            forms[alpha] = {**forms[alpha], m: data.draw(_rational_polynomials(dim, 6))}
    failing = polycalc.form_failures(forms, jets, table)
    assert failing == _formal_failures(forms, table)
    for _ in range(data.draw(st.integers(0, 2))):
        f, g = data.draw(_rational_polynomials(dim)), data.draw(_rational_polynomials(dim))
        assert set(_fraction_mismatches(forms, f, g, table)) <= set(failing)


def _sympy_failures(forms, table, dim, height):
    """The alphas where (*) fails, from sympy: symbols u_b, v_b for the jets of f and g up to
    ``height``, the jets of fg by Leibniz, and each alpha's two sides expanded."""
    xs = sympy.symbols(f"x0:{dim}")
    jets = enumerate_height_at_most(dim, height)
    u = {b: sympy.Symbol("u" + "_".join(map(str, b))) for b in jets}
    v = {b: sympy.Symbol("v" + "_".join(map(str, b))) for b in jets}

    def below(b):
        return [MultiIndex(c) for c in itertools.product(*[range(k + 1) for k in b])]

    def weight(b, c):
        return math.prod(map(math.comb, b, c))

    uv = {b: sympy.Add(*[weight(b, c) * u[c] * v[b - c] for c in below(b)]) for b in jets}

    def value(form, jet):
        return sympy.Add(*[_to_sympy(c, xs) * sympy.Mul(*[jet[b] for b in m]) for m, c in form.items()])

    return [
        alpha for alpha in table
        if sympy.expand(value(forms[alpha], uv) - sympy.Add(*[
            weight(alpha, beta) * value(forms[beta], u) * value(forms[alpha - beta], v)
            for beta in below(alpha)
        ]))
    ]


def test_form_failures_match_sympy():
    # random forms at rank <= 2 and N <= 4: c^|alpha| D^alpha, or
    # c^|alpha| D^alpha(h^2), whose monomials pair incomparable jets, with
    # some operators scaled by 101/100 or given an extra term
    rng = random.Random(41)
    for dim, order, _ in itertools.product((1, 2), range(5), range(3)):
        table = polycalc.convolution_table(dim, order)
        jets = enumerate_height_at_most(dim, max(order, 2))
        c = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2, 3]))
        forms = _derivative_forms(table, dim, c)
        if rng.random() < 0.5:
            for alpha, form in forms.items():
                (coeff,) = form.values()
                square = {}
                for w, beta, gamma in convolution_terms(alpha):
                    m = tuple(sorted((beta, gamma), key=tuple))
                    square[m] = square.get(m, Polynomial.zero(dim)) + coeff * w
                forms[alpha] = square
        for alpha in rng.sample(list(table), min(len(table), rng.randint(0, 2))):
            if rng.random() < 0.5:
                forms[alpha] = {m: p * Fraction(101, 100) for m, p in forms[alpha].items()}
            else:
                m = tuple(rng.choice(enumerate_height_at_most(dim, 2)) for _ in range(rng.randint(0, 2)))
                extra = random_polynomial(rng, dim, 2, 2, denominators=(1, 2, 3))
                forms[alpha] = {**forms[alpha], m: forms[alpha].get(m, Polynomial.zero(dim)) + extra}
        assert polycalc.form_failures(forms, jets, table) == _sympy_failures(forms, table, dim, max(order, 2))


def test_a_coefficient_of_another_dimension_is_refused():
    # as with Polynomial.__eq__, a zero of another dimension is not the
    # zero of the forms' dimension: a form holding one is refused, not
    # read as the zero operator
    table = polycalc.convolution_table(1, 2)
    forms = {**_derivative_forms(table, 1), _mi(2): {(): Polynomial.zero(2)}}
    with pytest.raises(DimensionMismatch):
        polycalc.form_failures(forms, list(table), table)


def test_a_product_past_the_tables_reach_is_a_mismatch():
    # T_(k) = x1^k D^k in x0 holds on two variables.  With T_(1) = x1 D and
    # T_(2) = x0 D^2 it fails at (2) only, by 2 (x0 - x1^2) u_(1,0) v_(1,0):
    # no coefficient has a coordinate above 1, yet the product x1 * x1 of two
    # reaches 2, so on a base of 2 x0 and x1^2 would pack to one key and the
    # failure would cancel; the base must be 1 + 2 * top
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    table = polycalc.convolution_table(1, 2)
    jets = enumerate_height_at_most(2, 2)
    d = [MultiIndex((k, 0)) for k in range(3)]
    forms = {_mi(0): {(d[0],): Polynomial.constant(2, 1)}, _mi(1): {(d[1],): x1}, _mi(2): {(d[2],): x0}}
    assert _formal_failures(forms, table) == [_mi(2)]
    assert polycalc.form_failures(forms, jets, table) == [_mi(2)]
    forms[_mi(2)] = {(d[2],): x1 * x1}
    assert polycalc.form_failures(forms, jets, table) == []


def test_the_left_side_is_scaled_by_the_common_denominator():
    # c^|alpha| D^alpha holds for every c; at c = 1/2 or 2/3 the forms clear
    # to integers with K = 2^N or (3/2)^N's denominator, and only K times the
    # left side matches the products of two cleared forms.  D/2 with D^2 / 2
    # in place of D^2 / 4 fails at (2) alone
    for dim, order, c in [(1, 3, Fraction(1, 2)), (1, 2, Fraction(2, 3)), (2, 2, Fraction(1, 2))]:
        table = polycalc.convolution_table(dim, order)
        forms = _derivative_forms(table, dim, c)
        assert polycalc.form_failures(forms, list(table), table) == []
    table = polycalc.convolution_table(1, 2)
    forms = _derivative_forms(table, 1, Fraction(1, 2))
    forms[_mi(2)] = {(_mi(2),): Polynomial.constant(1, Fraction(1, 2))}
    assert _formal_failures(forms, table) == [_mi(2)]
    assert polycalc.form_failures(forms, list(table), table) == [_mi(2)]
    # T_0(h) = h - x0 fails: (uv - x0) - (u - x0)(v - x0) is not zero
    x0, zero = Polynomial.variable(1, 0), _mi(0)
    forms = {zero: {(zero,): Polynomial.constant(1, 1), (): -x0}}
    assert polycalc.form_failures(forms, [zero], {zero: table[zero]}) == [zero]


def test_a_form_whose_x_products_cancel_on_a_negative_base_fails_everywhere():
    # T_0(h) = x0 x1 h with T_(e_i) = D_i at r2 N1 is not multiplicative, so
    # (*) fails at every alpha.  On x_base = 1 - 2 * top = -1 the places are
    # [-1, 1], and x0 x1 and x0^2 x1^2 pack to the constant's key 0: every
    # difference would cancel and each alpha would pass
    table = polycalc.convolution_table(2, 1)
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    forms = {**_derivative_forms(table, 2), _mi(0, 0): {(_mi(0, 0),): x0 * x1}}
    assert _formal_failures(forms, table) == list(table)
    assert polycalc.form_failures(forms, list(table), table) == list(table)


def _key_layout(forms, jets):
    """(dim, x_base, base, jet count) of the key layout ``form_failures`` documents for these
    forms: x-digits base 1 + 2 * top, then per jet of f and then per jet of g a count digit
    base 1 + D, with top the largest coordinate of any coefficient and D the largest degree
    of any jet monomial."""
    coeffs = [c for form in forms.values() for c in form.values()]
    top = max([max(e) for c in coeffs for e in c.terms], default=0)
    base = 1 + max(len(m) for form in forms.values() for m in form)
    return coeffs[0].dim, 1 + 2 * top, base, len(jets)


def _decoded(packed, layout):
    """A packed term map keyed instead by flat tuples: the x-exponents, then the count of
    each jet of f, then of each jet of g, read digit by digit in ``layout``."""
    dim, x_base, base, n = layout
    out = {}
    for key, coeff in packed.items():
        assert key >= 0, f"key {key} is negative"
        rest, x = divmod(key, x_base**dim)
        digits = []
        for _ in range(dim):
            x, d = divmod(x, x_base)
            digits.append(d)
        digits.reverse()
        for _ in range(2 * n):
            rest, d = divmod(rest, base)
            digits.append(d)
        assert rest == 0, f"key {key} has a digit past the last jet of g"
        out[tuple(digits)] = coeff
    return out


def _tuple_convolve(products):
    """The sum of w * a * b over weighted pairs of tuple-keyed maps, zeros dropped."""
    acc = {}
    for w, a, b in products:
        for key, c in _ref_product(a, b).items():
            acc[key] = acc.get(key, 0) + w * c
    return {k: c for k, c in acc.items() if c}


def _tuple_differences(forms, jets, table):
    """Each alpha's difference K^2 (T_alpha(fg) - sum w T_beta(f) T_gamma(g)), K the lcm of
    every coefficient's denominators, as a map keyed by flat tuples (x-exponents, f's jet
    counts, g's jet counts), with the jets of fg written by Leibniz."""
    coeffs = [c for form in forms.values() for c in form.values()]
    dim, n = coeffs[0].dim, len(jets)
    lcm = math.lcm(*[q.denominator for c in coeffs for q in c.terms.values()])
    at = {b: k for k, b in enumerate(jets)}
    one = {(0,) * (dim + 2 * n): 1}

    def monomial(m, side):
        key = [0] * (dim + 2 * n)
        for b in m:
            key[dim + side * n + at[b]] += 1
        return {tuple(key): 1}

    def cleared(c):
        return {tuple(e) + (0,) * (2 * n): int(q * lcm) for e, q in c.terms.items()}

    def value(form, side):
        return _tuple_convolve([(1, cleared(c), monomial(m, side)) for m, c in form.items()])

    def leibniz(b):
        return _tuple_convolve(
            [(w, monomial((c,), 0), monomial((d,), 1)) for w, c, d in convolution_terms(b)]
        )

    out = {}
    for alpha, splits in table.items():
        products = []
        for m, c in forms[alpha].items():
            term = cleared(c)
            for b in m:
                term = _tuple_convolve([(1, term, leibniz(b))])
            products.append((lcm, term, one))
        products += [(-w, value(forms[beta], 0), value(forms[gamma], 1)) for w, beta, gamma in splits]
        out[alpha] = _tuple_convolve(products)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_form_keys_read_back_by_the_documented_layout(data):
    # scaled derivative forms at rank 2 or 3, some given a drawn term of jet
    # degree 0-3, and one a term whose coefficient reaches 3 in x0 and x1
    # (in place of any it had).
    # Every _convolve result form_failures builds, each key read by the
    # layout its docstring states, is the tuple-keyed sum of the keys it
    # came from: no digit carries and no two monomials share a key.  Each
    # failing alpha's difference reads as the tuple-keyed reference's
    dim = data.draw(st.integers(2, 3))
    table = polycalc.convolution_table(dim, data.draw(st.integers(1, 2)))
    jets = enumerate_height_at_most(dim, 2)
    scale = Fraction(data.draw(st.integers(1, 3)), data.draw(st.sampled_from((1, 2, 3))))
    forms = _derivative_forms(table, dim, scale)
    monomials = st.lists(st.sampled_from(jets), max_size=3).map(tuple)
    for alpha in table:
        if data.draw(st.booleans()):
            m = data.draw(monomials)
            forms[alpha] = {**forms[alpha], m: data.draw(_rational_polynomials(dim, 3))}
    alpha, m = data.draw(st.sampled_from(list(table))), data.draw(monomials)
    cubes = [tuple(3 if j == i else 0 for j in range(dim)) for i in (0, 1)]
    reach = Polynomial(dim, {e: data.draw(st.integers(1, 9)) for e in cubes})
    forms[alpha] = {**forms[alpha], m: reach}
    calls = []
    convolve = polycalc._convolve

    def recording(products):
        products = list(products)
        calls.append((products, convolve(products)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polycalc, "_convolve", recording)
        failing = polycalc.form_failures(forms, jets, table)
    layout = _key_layout(forms, jets)
    assert layout[1] >= 7
    results = []
    for products, result in calls:
        results.append(_decoded(result, layout))
        assert results[-1] == _tuple_convolve(
            [(w, _decoded(a, layout), _decoded(b, layout)) for w, a, b in products]
        )
    expected = _tuple_differences(forms, jets, table)
    assert failing == [alpha for alpha, diff in expected.items() if diff]
    for diff in expected.values():
        assert not diff or diff in results


def _zeroed(forms, *alphas):
    """The forms with T_alpha = 0, the empty form, at each of the alphas."""
    return {**forms, **{alpha: {} for alpha in alphas}}


def test_zero_operators_prune_splits_not_verdicts():
    # an empty form is T_alpha = 0 and adds no term to either side; the
    # others are (D/2)^k, so each of their coefficients is cleared by K = 4
    table = polycalc.convolution_table(1, 2)
    half, jets = _derivative_forms(table, 1, Fraction(1, 2)), list(table)
    for zeroed, failing in [
        # T_(1) = 0: (1) has no split left and T_(1) = 0, so it holds; (2)
        # keeps (u_2 v_0 + u_0 v_2) / 4 and misses the pruned u_1 v_1 / 2
        ((_mi(1),), [_mi(2)]),
        # T_(2) = 0: an empty form whose split (2, (1), (1)) survives fails
        ((_mi(2),), [_mi(2)]),
        # T_0 = 0: every split of (1) and (2) but (1)'s pair for (2) is
        # pruned, and both forms are not empty; (0) holds as 0 = 0
        ((_mi(0),), [_mi(1), _mi(2)]),
        # every operator zero: nothing fails
        ((_mi(0), _mi(1), _mi(2)), []),
    ]:
        forms = _zeroed(half, *zeroed)
        assert _formal_failures(forms, table) == failing
        assert polycalc.form_failures(forms, jets, table) == failing


def test_mixed_dimensions_raise():
    # the coefficients are checked for one dimension before anything is
    # packed; a stray one packed with another rank's place values would
    # read as some other exponent and be compared silently
    x0 = Polynomial(1, {(1,): 1})
    stray = Polynomial(2, {(1, 0): 1})
    table = polycalc.convolution_table(1, 2)
    forms = _derivative_forms(table, 1)
    assert polycalc.form_failures(forms, list(table), table) == []
    with pytest.raises(DimensionMismatch):
        polycalc.form_failures({**forms, _mi(1): {(_mi(1),): stray}}, list(table), table)
    ones = {alpha: x0 for alpha in table}
    splits = table[_mi(2)]
    for left, right in [({**ones, _mi(1): stray}, ones), (ones, {**ones, _mi(1): stray})]:
        with pytest.raises(DimensionMismatch):
            polycalc.convolution_sum(left, right, splits)
    with pytest.raises(DimensionMismatch):
        polycalc.check_leibniz_pairs([(x0, stray)], 2)
    with pytest.raises(DimensionMismatch):
        x0 * stray
    with pytest.raises(DimensionMismatch, match=r"^dim mismatch: 1 vs 2$"):
        leibniz_rhs(x0, stray, _mi(1))
    with pytest.raises(DimensionMismatch, match=r"^poly dim 1 vs index rank 2$"):
        leibniz_rhs(x0, x0, _mi(1, 0))


def test_convolution_table_hands_out_fresh_copies_of_one_plan():
    # each shape is planned once per process, and every call gets its own
    # dict and split lists, so a caller's edit reaches no later call
    for rank in (1, 2, 3):
        for height in range(6):
            alphas = enumerate_height_at_most(rank, height)
            table = polycalc.convolution_table(rank, height)
            assert list(table) == alphas
            assert table == {alpha: convolution_terms(alpha) for alpha in alphas}
    first = polycalc.convolution_table(2, 3)
    expected = {alpha: list(splits) for alpha, splits in first.items()}
    first[_mi(1, 1)].append((7, _mi(0, 0), _mi(1, 1)))
    first[_mi(0, 0)].clear()
    del first[_mi(2, 1)]
    first[_mi(9, 9)] = []
    assert polycalc.convolution_table(2, 3) == expected
    f = Polynomial(2, {(1, 1): Fraction(1, 2), (0, 3): Fraction(2, 3)})
    assert check_leibniz_all(f, f, 3) == []
    # a bool or a float shape is no int one, even with (1, 2) planned
    polycalc.convolution_table(1, 2)
    for rank, height in [(True, 2), (1, 2.0)]:
        with pytest.raises(ValueError):
            polycalc.convolution_table(rank, height)
    zero = Polynomial.zero(1)
    assert polycalc.check_leibniz_pairs([(zero, zero)], 2) == [[]]
    with pytest.raises(ValueError):
        polycalc.check_leibniz_pairs([(zero, zero)], 2.0)


def test_a_split_rule_patched_after_its_shape_is_planned_is_read(monkeypatch):
    # the plans are kept per split rule, so a faulty rule patched in after
    # the real (2, 3) plan is built still reaches both of its readers
    f = Polynomial(2, {(1, 1): Fraction(1, 2), (0, 3): Fraction(2, 3)})
    g = Polynomial(2, {(1, 0): Fraction(1, 7), (0, 0): 3})
    assert check_leibniz_all(f, g, 3) == []
    real = polycalc.convolution_table(2, 3)
    monkeypatch.setattr(polycalc, "convolution_terms", _bump_height_two)
    assert check_leibniz_all(f, g, 3) == [_mi(0, 2), _mi(1, 1)]
    bumped = polycalc.convolution_table(2, 3)
    assert bumped == {alpha: _bump_height_two(alpha) for alpha in real} and bumped != real
    monkeypatch.undo()
    assert check_leibniz_all(f, g, 3) == [] and polycalc.convolution_table(2, 3) == real


def test_verify_leibniz_builds_each_alphas_splits_once(capsys, monkeypatch):
    # the pairs share one split table: one convolution_terms call per alpha
    calls = []
    real = polycalc.convolution_terms

    def counting(alpha):
        calls.append(alpha)
        return real(alpha)

    monkeypatch.setattr(polycalc, "convolution_terms", counting)
    code = main(["verify-leibniz", "--rank", "2", "--order", "3", "--pairs", "4", "--seed", "1"])
    assert code == EXIT_PASS and json.loads(capsys.readouterr().out)["failures"] == []
    assert calls == enumerate_height_at_most(2, 3)
    # the pairs share one dimension
    f, g = Polynomial(2, {(1, 0): 1}), Polynomial(3, {(0, 0, 1): 1})
    with pytest.raises(DimensionMismatch):
        polycalc.check_leibniz_pairs([(f, f), (g, g)], 2)
    assert polycalc.check_leibniz_pairs([], 2) == []


def test_verify_leibniz_convolves_once_per_pair(capsys, monkeypatch):
    # the product f*g is the one _convolve call of a pair; the alphas' sums
    # are walked in check_leibniz_pairs, with no call per alpha
    calls = []
    real = polycalc._convolve

    def counting(products):
        products = list(products)
        calls.append(len(products))
        return real(products)

    monkeypatch.setattr(polycalc, "_convolve", counting)
    code = main(["verify-leibniz", "--rank", "3", "--order", "4", "--pairs", "4", "--seed", "2"])
    assert code == EXIT_PASS and json.loads(capsys.readouterr().out)["failures"] == []
    assert calls == [1] * 4


def _fraction_coefficients(f: Polynomial) -> bool:
    # the unpacked keys too: each a MultiIndex of the polynomial's rank
    return all(type(c) is Fraction for c in f.terms.values()) and all(
        type(e) is MultiIndex and e.rank == f.dim for e in f.terms
    )


def test_public_results_keep_fraction_coefficients():
    # the integer tables stay inside the checks that build them
    rng = random.Random(41)
    f = random_polynomial(rng, 2, max_degree=4, denominators=(1,))
    g = random_polynomial(rng, 2, max_degree=4, denominators=(1, 7))
    assert f and all(c.denominator == 1 for c in f.terms.values())
    alpha = _mi(1, 1)
    splits = convolution_terms(alpha)
    below = {beta: dalpha(f, beta) for _, beta, _ in splits}
    results = [f, g, f * g, dalpha(f, alpha), leibniz_rhs(f, g, alpha)]
    results.append(polycalc.convolution_sum(below, below, splits))
    for dim in (1, 3):
        h = random_polynomial(rng, dim, max_degree=4, denominators=(1, 5))
        results += [h * h, leibniz_rhs(h, h, MultiIndex((1,) * dim))]
    assert all(results) and all(map(_fraction_coefficients, results))
    drawn = [Polynomial(2, f.terms), Polynomial(2, g.terms)]
    assert check_leibniz_all(f, g, 3) == []
    assert [f, g] == drawn and _fraction_coefficients(f) and _fraction_coefficients(g)
    # a passing exact probe builds no derivative table; a failing one's
    # tables, its witnesses' sources, and the caller's probes hold Fraction
    # polynomials only
    family = momentfam.make_derivative(2, 2)
    double = Product((PolyLeaf(Polynomial.constant(2, 2)), Jet(_mi(1, 1))))
    tampered = momentfam.OperatorFamily(2, 2, {**family.operators, _mi(1, 1): double})
    seen = []
    table = polycalc.derivative_table

    def recording(h, betas):
        seen.append(table(h, betas))
        return seen[-1]

    dom = Domain.unit(2, seed=41)
    pairs = [(f, g), (g, f * g)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(momentfam, "derivative_table", recording)
        report = momentfam.verify_moment(family, pairs, dom)
        assert report.passed and report.exact and seen == []
        report = momentfam.verify_moment(tampered, pairs, dom)
    assert not report.passed and report.exact
    assert len(seen) == 3 * len({failure["probe"] for failure in report.failures}) > 0
    assert all(_fraction_coefficients(d) for entries in seen for d in entries.values())
    assert [f, g] == drawn and all(_fraction_coefficients(h) for pair in pairs for h in pair)


@st.composite
def _table_probes(draw, dim, max_exponent):
    """A polynomial of ``_rational_polynomials``, or the zero or a constant one."""
    kind = draw(st.sampled_from(["zero", "constant", "any"]))
    if kind == "zero":
        return Polynomial.zero(dim)
    if kind == "constant":
        return Polynomial.constant(dim, Fraction(draw(st.integers(-9, 9)) or 1, 7))
    return draw(_rational_polynomials(dim, max_exponent))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derivative_table_is_dalpha_at_every_index(data):
    # the index lists are all heights up to a bound, or the box below an
    # index: both are down-closed and lexicographically ordered
    dim = data.draw(st.integers(1, 4))
    f = data.draw(_table_probes(dim, 12))
    if data.draw(st.booleans()):
        betas = enumerate_height_at_most(dim, data.draw(st.integers(0, 4)))
    else:
        top = data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
        betas = enumerate_below(MultiIndex(top))
    table = polycalc.derivative_table(f, betas)
    assert list(table) == betas
    assert table[MultiIndex.zero(dim)] is f
    for beta, d in table.items():
        assert d == dalpha(f, beta) and d.dim == dim and _fraction_coefficients(d)


def _contraction_loop(poly, field, order):
    """The contraction as one loop over the axis tuples in row order: a
    product of d_(axes)(poly) and the field components, zero derivatives
    skipped, one leaf per derivative; the zero leaf if no term is left."""
    r = poly.dim
    leaves, terms = {}, []
    for axes in itertools.product(range(r), repeat=order):
        alpha = MultiIndex(tuple(map(axes.count, range(r))))
        if alpha not in leaves:
            d = dalpha(poly, alpha)
            leaves[alpha] = PolyLeaf(d) if d else None
        if leaves[alpha] is not None:
            terms.append(Product((leaves[alpha], *(field[i] for i in axes))))
    return Sum(tuple(terms)) if terms else PolyLeaf(Polynomial.zero(r))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substituted_contraction_is_the_loop(data):
    # the jets of a contraction, filled from poly's table, give the loop's
    # tree and its JSON: grad_dot and hess_quad are that substitution
    dim = data.draw(st.integers(1, 3))
    order = data.draw(st.sampled_from([1, 2]))
    poly = data.draw(_table_probes(dim, 3))
    leaves = [PolyLeaf(data.draw(_rational_polynomials(dim, 2))) for _ in range(dim)]
    field = tuple(XLogAbs(c) if data.draw(st.booleans()) else c for c in leaves)
    expected = _contraction_loop(poly, field, order)
    table = polycalc.derivative_table(poly, enumerate_height_at_most(dim, order))
    tree = funcmodel.substitute_jets([funcmodel.contraction(field, order, dim)], table)[0]
    assert tree == expected and tree.to_json() == expected.to_json()
    build = funcmodel.grad_dot if order == 1 else funcmodel.hess_quad
    assert build(poly, field) == expected


def _random_polynomial_validating(rng, dim, max_degree, terms, coeff_bound, denominators):
    """The reference build of random_polynomial: the same draws, with
    validated keys, canonicalized by Polynomial's constructor."""
    out = {}
    for _ in range(terms):
        total = rng.randint(0, max_degree)
        exp = [0] * dim
        for _ in range(total):
            exp[rng.randrange(dim)] += 1
        den = rng.choice(list(denominators))
        num = rng.randint(-coeff_bound * den, coeff_bound * den)
        if num == 0:
            continue
        out[MultiIndex(tuple(exp))] = Fraction(num, den)
    return Polynomial(dim, out)


@pytest.mark.parametrize("seed", range(6))
def test_random_polynomial_is_the_validating_build(seed):
    # the same polynomial from the same draws, made in the same order
    # dims 1-5 cover the bit-length edges of the index draw (1, 2-3, 4-5)
    rng, oracle, shapes = random.Random(seed), random.Random(seed), random.Random(-seed)
    for _ in range(60):
        dim = shapes.randint(1, 5)
        shape = [shapes.randint(0, 4), shapes.randint(0, 6), shapes.randint(0, 3)]
        shape.append(shapes.choice([[1], [5], [1, 2], [1, 2, 7], [3, 4, 5, 6, 8]]))
        f = random_polynomial(rng, dim, *shape)
        assert f == _random_polynomial_validating(oracle, dim, *shape)
        assert Polynomial(dim, f.terms) == f and _fraction_coefficients(f)
        assert rng.getstate() == oracle.getstate()
    # the dim is refused before anything is drawn
    for dim, message in (
        (0, "dim must be >= 1, got 0"),
        (True, "dim must be an integer, got True"),
        (1.0, "dim must be an integer, got 1.0"),
    ):
        state = rng.getstate()
        with pytest.raises(ValueError) as refused:
            random_polynomial(rng, dim)
        assert str(refused.value) == message
        assert rng.getstate() == state


@pytest.mark.parametrize(
    "args, error",
    [
        ((2, -1, 5, 9, (1, 2, 3)), ValueError),  # randint(0, -1): an empty range
        ((1, 3, 5, -1, (1, 2, 3)), ValueError),  # randint(den, -den) for every denominator
        ((1, 3, 5, 9, (1, -2)), ValueError),  # a negative denominator, once drawn
        ((2, 3, 5, 9, ()), IndexError),  # choice from no denominators
    ],
)
def test_random_polynomial_refuses_what_the_stock_draws_refuse(args, error):
    # the same error as the stock methods, raised after the same draws;
    # a draw from an empty range must raise rather than loop
    for seed in range(20):
        rng, oracle = random.Random(seed), random.Random(seed)
        with pytest.raises(error):
            random_polynomial(rng, *args)
        with pytest.raises(error):
            _random_polynomial_validating(oracle, *args)
        assert rng.getstate() == oracle.getstate()
    # with no term to draw, nothing is refused
    assert random_polynomial(random.Random(0), 2, -1, 0).is_zero()


def test_leibniz_rhs_matches_sympy_product_derivative():
    rng = random.Random(37)
    x = sympy.symbols("x0:2")
    for _ in range(8):
        f = random_polynomial(rng, 2, max_degree=4)
        g = random_polynomial(rng, 2, max_degree=4)
        alpha = _mi(rng.randint(0, 2), rng.randint(0, 2))
        expected = sympy.diff(_to_sympy(f, x) * _to_sympy(g, x), x[0], alpha[0], x[1], alpha[1])
        assert _to_sympy(leibniz_rhs(f, g, alpha), x) == sympy.expand(expected)


# ---- a tuple-keyed reference for the packed kernels ----


def _ref_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_derivative(a, alpha):
    out = {}
    for e, c in a.items():
        if all(x >= k for x, k in zip(e, alpha)):
            for x, k in zip(e, alpha):
                c *= math.perm(x, k)
            out[tuple(x - k for x, k in zip(e, alpha))] = c
    return out


def _ref_convolution(left, right, alpha):
    # left and right map each beta <= alpha to a term map
    out = {}
    for beta in itertools.product(*[range(k + 1) for k in alpha]):
        gamma = tuple(k - b for k, b in zip(alpha, beta))
        weight = math.prod(map(math.comb, alpha, beta))
        for e, c in _ref_product(left[beta], right[gamma]).items():
            out[e] = out.get(e, 0) + weight * c
    return {e: c for e, c in out.items() if c}


@st.composite
def _wide_polynomials(draw, dim):
    # exponents up to 40, or only 0: the zero polynomial and the constants,
    # where every exponent packs with base 1
    return draw(_rational_polynomials(dim, draw(st.sampled_from((0, 1, 40)))))


def _is_reference(p: Polynomial, dim: int, terms) -> bool:
    return p.dim == dim and p.terms == terms and _fraction_coefficients(p)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_kernels_match_a_tuple_keyed_reference(data):
    dim = data.draw(st.integers(1, 4))
    f, g = data.draw(_wide_polynomials(dim)), data.draw(_wide_polynomials(dim))
    assert _is_reference(f * g, dim, _ref_product(f.terms, g.terms))
    alpha = data.draw(st.sampled_from(enumerate_height_at_most(dim, 2)))
    box = list(itertools.product(*[range(k + 1) for k in alpha]))
    df = {b: _ref_derivative(f.terms, b) for b in box}
    dg = {b: _ref_derivative(g.terms, b) for b in box}
    assert _is_reference(leibniz_rhs(f, g, alpha), dim, _ref_convolution(df, dg, alpha))
    left, right = [{MultiIndex(b): data.draw(_wide_polynomials(dim)) for b in box} for _ in "lr"]
    expected = _ref_convolution(*[{b: p.terms for b, p in t.items()} for t in (left, right)], alpha)
    summed = polycalc.convolution_sum(left, right, convolution_terms(alpha))
    assert _is_reference(summed, dim, expected)
    # with one extra copy of the beta = alpha split at height 2, alpha fails
    # exactly where D^alpha f * g is nonzero
    height = data.draw(st.integers(0, 2))
    fault = data.draw(st.sampled_from([None, _bump_height_two]))
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            mp.setattr(polycalc, "convolution_terms", fault)
        failing = check_leibniz_all(f, g, height)
    bumped = [a for a in enumerate_height_at_most(dim, height) if a.height == 2]
    expected = [a for a in bumped if _ref_product(_ref_derivative(f.terms, a), g.terms)]
    assert failing == (expected if fault else [])


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
