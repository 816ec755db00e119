"""Operator families, the moment-identity verifier, collapse and conjugation."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from moment_leibniz.multiindex import MultiIndex, enumerate_height_at_most
from moment_leibniz.polycalc import Polynomial, RationalPoint, dalpha, random_polynomial
from moment_leibniz.funcmodel import (
    Domain,
    GradDot,
    PolyLeaf,
    TauMap,
    XLogAbs,
    Product,
    Scale,
    const_expr,
    eval_exact,
    eval_expr,
    poly_expr,
)
from moment_leibniz.coeffsolve import CoeffFamily, ConstraintViolation
from moment_leibniz.momentfam import (
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


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _probes(dom: Domain, count: int, seed: int):
    return default_probe_pairs(dom, count, random.Random(seed))


def _tau_one_minus_x() -> TauMap:
    return TauMap((Polynomial.constant(1, 1) - Polynomial.variable(1, 0),))


# ---- probe policy ----


def test_default_probes_cover_required_cases():
    dom = Domain.unit(2, seed=1)
    pairs = _probes(dom, 8, 0)
    firsts = [f for f, _ in pairs]
    assert any(f.is_zero() for f in firsts)
    assert any(f == Polynomial.constant(2, 2) for f in firsts)
    assert any(f == Polynomial.variable(2, 0) for f in firsts)
    vanishing = firsts[3]
    assert vanishing(dom.sample_points[0]) == 0


# ---- trivial family ----


def test_trivial_family_values_and_exactness():
    fam = make_trivial(2, 2)
    f = Polynomial.variable(2, 0)
    x = RationalPoint.of(Fraction(1, 3), Fraction(1, 2))
    assert eval_exact(fam.apply(_mi(0, 0), f), x) == 1
    assert eval_exact(fam.apply(_mi(1, 0), f), x) == 0
    assert fam.exact


def test_trivial_family_verifies_with_zero_residual():
    dom = Domain.unit(2, seed=2)
    fam = make_trivial(2, 2)
    report = verify_moment(fam, _probes(dom, 6, 1), dom)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.exact


def test_apply_validates_index():
    fam = make_trivial(2, 2)
    with pytest.raises(ValueError):
        fam.apply(_mi(2, 1), Polynomial.variable(2, 0))  # height 3 > order
    with pytest.raises(ValueError):
        fam.apply(_mi(1), Polynomial.variable(2, 0))  # wrong rank


# ---- collapse of candidates with T_0 = 1 ----


def _with_unit_t0(rank, order, nonzero_rule):
    def rule(alpha, f):
        if alpha.is_zero():
            return PolyLeaf(Polynomial.constant(rank, 1))
        return nonzero_rule(alpha, f)

    return custom_family(rank, order, rule)


def test_collapse_accepts_trivial():
    dom = Domain.unit(2, seed=3)
    probe_fns = [random_polynomial(random.Random(5), 2, max_degree=3) for _ in range(4)]
    report = assert_trivial_collapse(make_trivial(2, 2), probe_fns, dom)
    assert report.passed
    assert report.max_residual == 0.0


def test_collapse_rejects_identity_rule_via_product_instance():
    # T_alpha(f) = f passes T_alpha(0) = 0 but fails
    # T_alpha(f*0) = T_alpha(f) + T_alpha(0) on any probe with f != 0
    dom = Domain.unit(1, seed=4)
    cand = _with_unit_t0(1, 1, lambda alpha, f: PolyLeaf(f))
    report = assert_trivial_collapse(cand, [Polynomial.constant(1, 3)], dom)
    assert not report.passed
    assert report.failures[0]["instance"] == "T_alpha(f*0) = T_alpha(f) + T_alpha(0)"


def test_collapse_rejects_constant_rule_via_zero_instance():
    # T_alpha = 5 fails T_alpha(0) = 0, the instance behind 5 != 2*5
    dom = Domain.unit(1, seed=4)
    cand = _with_unit_t0(1, 1, lambda alpha, f: const_expr(1, 5))
    report = assert_trivial_collapse(cand, [Polynomial.constant(1, 3)], dom)
    assert not report.passed
    zero_failures = [f for f in report.failures if f["instance"] == "T_alpha(0) = 0"]
    assert zero_failures and zero_failures[0]["value"] == 5.0


def test_collapse_requires_unit_t0():
    dom = Domain.unit(1, seed=4)
    with pytest.raises(ValueError):
        assert_trivial_collapse(make_derivative(1, 1), [Polynomial.constant(1, 3)], dom)


# ---- derivative family ----


def test_derivative_family_pinned_value():
    fam = make_derivative(2, 2)
    f = Polynomial.variable(2, 0)
    g = Polynomial.variable(2, 1)
    x = RationalPoint.of(Fraction(1, 4), Fraction(3, 4))
    assert eval_exact(fam.apply(_mi(1, 1), f * g), x) == 1
    assert eval_exact(fam.apply(_mi(0, 0), f), x) == Fraction(1, 4)  # T_0 = id


def test_derivative_family_verifies_exactly():
    for rank in (1, 2):
        dom = Domain.unit(rank, seed=rank)
        fam = make_derivative(rank, 3)
        report = verify_moment(fam, _probes(dom, 6, rank), dom)
        assert report.passed, report.failures[:1]
        assert report.max_residual == 0.0
    with pytest.raises(ValueError):
        make_derivative(1, 0)


def test_broken_derivative_rule_detected_exactly():
    # dropping the binomial weights breaks the identity at height 2
    def rule(alpha, f):
        return PolyLeaf(dalpha(f, alpha) * 2 if alpha.height == 2 else dalpha(f, alpha))

    dom = Domain.unit(1, seed=6)
    fam = custom_family(1, 2, rule, exact=True)
    report = verify_moment(fam, _probes(dom, 6, 2), dom)
    assert not report.passed
    assert any(tuple(f["alpha"]) == (2,) for f in report.failures)


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_overflow_fails_with_infinite_witness(sign):
    # T_0 = +-10^400 misses multiplicativity by more than a float holds:
    # the instance fails with residual inf and witness sides +-inf
    huge = Polynomial.constant(1, sign * 10**400)
    fam = custom_family(1, 0, lambda alpha, f: PolyLeaf(huge), exact=True)
    dom = Domain.unit(1, seed=22)
    one = Polynomial.constant(1, 1)
    report = verify_moment(fam, [(one, one)], dom)
    assert not report.passed
    assert report.max_residual == math.inf
    witness = report.failures[0]
    assert (witness["lhs"], witness["rhs"], witness["residual"]) == (
        sign * math.inf,
        math.inf,
        math.inf,
    )


# ---- identity-generated families ----


def test_identity_generated_pinned_value():
    # c_1 = 0, c_2 = 1, c_3 = x: T_2(f*g)(x) = (fg)(x) ln|fg(x)| gives
    # 6 ln 6 for f = 2, g = 3, matching the convolution side
    dom = Domain.unit(1, seed=7)
    cf = CoeffFamily.from_polynomials(
        1,
        3,
        {(2,): Polynomial.constant(1, 1), (3,): Polynomial.variable(1, 0)},
    )
    fam = make_identity_generated(cf, dom)
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, 3)
    x = RationalPoint.of(Fraction(1, 2))
    lhs = eval_expr(fam.apply(_mi(2), f * g), x)
    assert lhs == pytest.approx(6 * math.log(6), rel=1e-15)
    report = verify_moment(fam, [(f, g)], dom)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_identity_generated_randomized():
    dom = Domain.unit(1, seed=8)
    cf = CoeffFamily.from_polynomials(
        1, 3, {(2,): Polynomial.variable(1, 0), (3,): Polynomial.constant(1, -2)}
    )
    fam = make_identity_generated(cf, dom)
    report = verify_moment(fam, _probes(dom, 10, 3), dom)
    assert report.passed, report.failures[:1]
    assert report.max_residual <= 1e-9


def test_identity_generated_rejects_bad_coefficients():
    dom = Domain.unit(1, seed=9)
    cf = CoeffFamily.from_constants(1, 2, {(1,): 1})
    with pytest.raises(ConstraintViolation):
        make_identity_generated(cf, dom)


def test_constraint_bypass_fails_at_pinned_alpha():
    # skipping validation builds the family anyway; the verifier then
    # fails at alpha = 2 with residual 2 (f ln f)(x) (g ln g)(x)
    dom = Domain.unit(1, seed=9)
    cf = CoeffFamily.from_constants(1, 2, {(1,): 1})
    fam = make_identity_generated(cf, dom, validate=False)
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, 3)
    report = verify_moment(fam, [(f, g)], dom)
    assert not report.passed
    failure = next(fl for fl in report.failures if tuple(fl["alpha"]) == (2,))
    expected = 2 * (2 * math.log(2)) * (3 * math.log(3))
    assert failure["residual"] == pytest.approx(expected, rel=1e-12)


def test_both_sides_exactly_zero_on_vanishing_product():
    # where f*g vanishes, T_alpha(fg) and every convolution term carry a
    # factor that is exactly 0.0, so the comparison is 0.0 == 0.0
    dom = Domain.unit(1, seed=10)
    cf = CoeffFamily.from_constants(1, 2, {(2,): 1})
    fam = make_identity_generated(cf, dom)
    s = dom.sample_points[0]
    f = Polynomial.variable(1, 0) - Polynomial.constant(1, s[0])
    g = Polynomial.constant(1, 2)
    assert (f * g)(s) == 0
    alpha = _mi(2)
    lhs = eval_expr(fam.apply(alpha, f * g), s)
    assert lhs == 0.0
    rhs = sum(
        float(w)
        * eval_expr(fam.apply(beta, f), s)
        * eval_expr(fam.apply(alpha - beta, g), s)
        for w, beta in [(1, _mi(0)), (2, _mi(1)), (1, _mi(2))]
    )
    assert rhs == 0.0
    report = verify_moment(fam, [(f, g)], dom)
    assert report.passed


def test_first_order_leibniz_family():
    dom = Domain.unit(1, seed=11)
    c = poly_expr(Polynomial.variable(1, 0))
    fam = make_first_order_leibniz(c, 1)
    assert fam.order == 1
    report = verify_moment(fam, _probes(dom, 8, 4), dom)
    assert report.passed
    # the height-1 instance is the product rule T(fg) = T(f) g + f T(g)
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, 5)
    x = dom.sample_points[0]
    lhs = eval_expr(fam.apply(_mi(1), f * g), x)
    rhs = eval_expr(fam.apply(_mi(1), f), x) * 5.0 + 2.0 * eval_expr(
        fam.apply(_mi(1), g), x
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---- conjugation ----


def test_conjugation_pinned_value():
    # tau(x) = 1 - x over the derivative family: the conjugated height-1
    # operator sends x^3 to 3 (1-x)^2
    dom = Domain.unit(1, seed=12)
    fam = conjugate(make_derivative(1, 1), _tau_one_minus_x(), dom)
    f = Polynomial.variable(1, 0)
    g = Polynomial.monomial((2,))
    x = RationalPoint.of(Fraction(1, 4))
    value = eval_exact(fam.apply(_mi(1), f * g), fam.eval_point(x))
    assert value == 3 * Fraction(3, 4) ** 2


def test_conjugated_families_verify():
    dom = Domain.unit(1, seed=13)
    tau = _tau_one_minus_x()
    der = conjugate(make_derivative(1, 2), tau, dom)
    report = verify_moment(der, _probes(dom, 6, 5), dom)
    assert report.passed and report.max_residual == 0.0 and report.exact
    cf = CoeffFamily.from_constants(1, 2, {(2,): 2})
    idg = conjugate(make_identity_generated(cf, dom), tau, dom)
    report2 = verify_moment(idg, _probes(dom, 6, 6), dom)
    assert report2.passed and report2.max_residual <= 1e-9
    assert not report2.exact


def test_identity_tau_changes_nothing():
    dom = Domain.unit(2, seed=14)
    fam = make_derivative(2, 2)
    conj = conjugate(fam, TauMap.identity(2), dom)
    f = Polynomial.monomial((1, 1))
    for x in dom.sample_points:
        assert eval_exact(conj.apply(_mi(1, 0), f), conj.eval_point(x)) == eval_exact(
            fam.apply(_mi(1, 0), f), fam.eval_point(x)
        )


def test_double_conjugation_involution_restores_values():
    dom = Domain.unit(1, seed=15)
    tau = _tau_one_minus_x()
    fam = make_derivative(1, 2)
    double = conjugate(conjugate(fam, tau, dom), tau, dom)
    f = random_polynomial(random.Random(7), 1, max_degree=4)
    for alpha in enumerate_height_at_most(1, 2):
        for x in dom.sample_points:
            assert eval_exact(
                double.apply(alpha, f), double.eval_point(x)
            ) == eval_exact(fam.apply(alpha, f), fam.eval_point(x))


def test_double_conjugation_with_inverse_pair():
    # tau(x) = x/2 + 1/4 is not an involution; its inverse stays in the
    # box only on a narrower sample strip, so use samples in (3/8, 5/8)
    box = ((Fraction(0), Fraction(1)),)
    dom = Domain.sampled(
        ((Fraction(3, 8), Fraction(5, 8)),), n_samples=8, seed=16
    )
    dom = Domain(box, dom.sample_points)
    tau = TauMap(
        (Polynomial.variable(1, 0) * Fraction(1, 2) + Polynomial.constant(1, Fraction(1, 4)),)
    )
    tau_inv = TauMap(
        (Polynomial.variable(1, 0) * 2 - Polynomial.constant(1, Fraction(1, 2)),)
    )
    fam = make_derivative(1, 2)
    double = conjugate(conjugate(fam, tau, dom), tau_inv, dom)
    f = Polynomial.monomial((3,), Fraction(2, 3))
    for x in dom.sample_points:
        assert eval_exact(double.apply(_mi(2), f), double.eval_point(x)) == eval_exact(
            fam.apply(_mi(2), f), fam.eval_point(x)
        )


def test_conjugation_requires_tau_into_box():
    dom = Domain.unit(1, seed=17)
    escape = TauMap((Polynomial.variable(1, 0) + Polynomial.constant(1, 2),))
    with pytest.raises(ValueError):
        conjugate(make_derivative(1, 1), escape, dom)


# ---- second-order pairs ----


def test_second_order_pinned_example():
    # a = 0, b = 0, c = 1 on rank 1: T = f'', A = f'; T((x^2)(x^3)) = 20x^3
    zero = const_expr(1, 0)
    one = const_expr(1, 1)
    pair = make_second_order_leibniz(zero, [zero], [one], smoothness=2, rank=1)
    assert pair.exact
    f = Polynomial.monomial((2,))
    g = Polynomial.monomial((3,))
    x = RationalPoint.of(Fraction(1, 2))
    assert eval_exact(pair.apply_T(f * g), x) == 20 * Fraction(1, 8)
    assert eval_exact(pair.apply_A(f), x) == 1


def test_second_order_rule_exact_and_float():
    rng = random.Random(18)
    dom = Domain.unit(1, seed=18)
    probes = [
        (random_polynomial(rng, 1, max_degree=4), random_polynomial(rng, 1, max_degree=4))
        for _ in range(20)
    ]
    zero = const_expr(1, 0)
    c = (poly_expr(Polynomial.variable(1, 0)),)
    exact_pair = make_second_order_leibniz(zero, [zero], list(c), 2, 1)
    report = check_second_order(exact_pair, probes, dom)
    assert report.passed and report.max_residual == 0.0
    # adding the log term switches to the float path but still holds
    log_pair = make_second_order_leibniz(const_expr(1, 3), [zero], list(c), 2, 1)
    assert not log_pair.exact
    report2 = check_second_order(log_pair, probes, dom)
    assert report2.passed and report2.max_residual <= 1e-9


def test_second_order_smoothness_clauses():
    zero = const_expr(1, 0)
    one = const_expr(1, 1)
    with pytest.raises(ValueError):
        make_second_order_leibniz(zero, [zero], [one], smoothness=1, rank=1)
    with pytest.raises(ValueError):
        make_second_order_leibniz(zero, [one], [zero], smoothness=0, rank=1)
    # compliant degenerate pairs build fine
    make_second_order_leibniz(one, [zero], [zero], smoothness=0, rank=1)
    make_second_order_leibniz(one, [one], [zero], smoothness=1, rank=1)


def test_second_order_violation_detected():
    # decoupling A from T's quadratic form (A uses c = 2 while T uses
    # c = 1) injects an extra 6 f' g' into the convolution side
    zero = const_expr(1, 0)
    pair = make_second_order_leibniz(zero, [zero], [const_expr(1, 1)], 2, 1)

    class _Mismatched:
        exact = True
        smoothness = 2

        def apply_T(self, f):
            return pair.apply_T(f)

        def apply_A(self, f):
            return GradDot(f, (const_expr(1, 2),))

    dom = Domain.unit(1, seed=19)
    f = Polynomial.monomial((2,))
    report = check_second_order(_Mismatched(), [(f, f)], dom)
    assert not report.passed


def test_second_order_overflow_witness_is_infinite():
    # A(f) = 10^400 f' makes 2 A(f) A(g) too large for a float
    zero = const_expr(1, 0)
    pair = make_second_order_leibniz(zero, [zero], [const_expr(1, 1)], 2, 1)

    class _Huge:
        exact = True
        smoothness = 2

        def apply_T(self, f):
            return pair.apply_T(f)

        def apply_A(self, f):
            return GradDot(f, (const_expr(1, 10**400),))

    f = Polynomial.monomial((2,))
    report = check_second_order(_Huge(), [(f, f)], Domain.unit(1, seed=19))
    assert not report.passed and report.max_residual == math.inf
    witness = report.failures[0]
    assert math.isfinite(witness["lhs"]) and witness["rhs"] == math.inf


# ---- reports and descriptors ----


@pytest.mark.parametrize("exact", [True, False])
def test_verify_moment_applies_each_operator_once_per_probe(exact):
    # T_beta(f), T_beta(g) and T_alpha(fg) are built once per probe and
    # tabulated over the sample points
    inner = make_derivative(2, 3) if exact else make_first_order_leibniz(const_expr(2, 3), 2)
    calls = []

    def rule(alpha, f):
        calls.append(alpha)
        return inner.rule(alpha, f)

    family = custom_family(2, inner.order, rule, exact=exact)
    dom = Domain.unit(2, seed=7)
    probes = _probes(dom, 5, 9)
    assert verify_moment(family, probes, dom).passed
    alphas = enumerate_height_at_most(2, inner.order)
    assert len(calls) == 3 * len(alphas) * len(probes)


def test_moment_report_json_shape():
    dom = Domain.unit(1, seed=20)
    report = verify_moment(make_trivial(1, 1), _probes(dom, 4, 8), dom, seed=9)
    data = report.to_json()
    assert data["pass"] is True
    assert data["seed"] == 9
    assert set(data["per_alpha_max_residual"]) == {"0", "1"}
    assert data["family"] == {"kind": "trivial", "r": 1, "N": 1}


def test_family_descriptor_roundtrip():
    dom = Domain.unit(1, seed=21)
    cf = CoeffFamily.from_constants(1, 2, {(2,): 3})
    fam = make_identity_generated(cf, dom)
    rebuilt = family_from_json(fam.descriptor, dom)
    x = dom.sample_points[0]
    f = Polynomial.constant(1, 2)
    assert eval_expr(rebuilt.apply(_mi(2), f), x) == eval_expr(fam.apply(_mi(2), f), x)
    tau = _tau_one_minus_x()
    conj = conjugate(fam, tau, dom)
    rebuilt2 = family_from_json(conj.descriptor, dom)
    assert eval_expr(
        rebuilt2.apply(_mi(2), f), rebuilt2.eval_point(x)
    ) == eval_expr(conj.apply(_mi(2), f), conj.eval_point(x))
    with pytest.raises(ValueError):
        family_from_json({"kind": "unknown", "r": 1}, dom)
