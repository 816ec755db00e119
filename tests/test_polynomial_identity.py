"""Polynomial families are decided as polynomial identities, points only for witnesses.

``verify_moment`` compares both sides of each instance whose operators
expand as polynomials and evaluates them at the samples only when they
differ.  No family declares this: custom rules built with no more than
their operators are proved as soon as they expand, and so is an
identity-generated family with no coefficients.
The pointwise loops it replaced live on in ``tests/_moment_oracle.py``;
the reports must match them byte for byte, second-order pairs included,
and including the rule that a nonzero difference vanishing on every
mapped sample fails at one grid point.  Float families evaluate each
polynomial leaf once per sample point within a call, and the work counts
below pin both savings.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_leibniz import funcmodel, momentfam, polycalc
from moment_leibniz.coeffsolve import (
    CoeffFamily,
    band,
    check_constraint,
    random_valid_family,
)
from moment_leibniz.funcmodel import Domain, Jet, PolyLeaf, Product, Sum, TauMap, const_expr
from moment_leibniz.momentfam import (
    OperatorFamily,
    conjugate,
    default_probe_pairs,
    make_derivative,
    make_first_order_leibniz,
    make_identity_generated,
    make_second_order_leibniz,
    make_trivial,
    verify_moment,
)
from moment_leibniz.multiindex import MultiIndex, convolution_terms, enumerate_height_at_most
from moment_leibniz.polycalc import Polynomial, RationalPoint, random_polynomial

from _moment_oracle import (
    check_second_order_pointwise,
    verify_moment_pointwise,
    with_a_field,
)

SAMPLES = 8
# the kinds whose operators all expand, so that every instance is proved
EXACT_KINDS = (
    "derivative",
    "trivial",
    "tamper-visible",
    "tamper-vanishing",
    "tamper-scaled",
    "no-coefficients",
)
KINDS = EXACT_KINDS + ("first-order", "identity-generated")


def _dumps(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _affine_tau(rng: random.Random, rank: int) -> TauMap:
    """x -> b + w * y with y_i = x_{p(i)} or 1 - x_{p(i)}: maps (0,1)^r into itself."""
    perm = list(range(rank))
    rng.shuffle(perm)
    matrix = [[Fraction(0)] * rank for _ in range(rank)]
    offset = []
    for i in range(rank):
        w = Fraction(rng.randint(1, 6), 8)
        b = Fraction(rng.randint(0, int((1 - w) * 8)), 8)
        if rng.random() < 0.5:  # reflect: w * (1 - x_j)
            matrix[i][perm[i]] = -w
            b += w
        else:
            matrix[i][perm[i]] = w
        offset.append(b)
    return TauMap.affine(matrix, offset)


def _tampered(rank: int, order: int, alpha0: MultiIndex, extra: Polynomial):
    """The derivative family with ``extra`` added to T_alpha0 of every function."""
    tampered = Sum((Jet(alpha0), PolyLeaf(extra)))
    return OperatorFamily(rank, order, {**make_derivative(rank, order).operators, alpha0: tampered})


def _scaled(rank: int, order: int, alpha0: MultiIndex, factor: Fraction):
    """The derivative family with T_alpha0 scaled by ``factor``."""
    scaled = Product((Jet(alpha0), const_expr(rank, factor)))
    return OperatorFamily(rank, order, {**make_derivative(rank, order).operators, alpha0: scaled})


def _sevenths(dom: Domain, count: int, rng: random.Random):
    """Probe pairs whose coefficients have denominator 7, the zero probe first."""

    def rand():
        return random_polynomial(rng, dom.rank, max_degree=3, terms=4, denominators=(7,))

    pairs = [(Polynomial.zero(dom.rank), rand())]
    while len(pairs) < count:
        pairs.append((rand(), rand()))
    return pairs[:count]


def _family(kind, rank, order, tau, dom, rng):
    if kind == "derivative":
        return make_derivative(rank, order)
    if kind == "trivial":
        return make_trivial(rank, order)
    if kind == "first-order":
        return make_first_order_leibniz(PolyLeaf(random_polynomial(rng, rank, 2, 3)), rank)
    if kind == "no-coefficients":
        # T_0 = id and every other T_alpha = 0
        return make_identity_generated(CoeffFamily(rank, order, {}))
    if kind == "identity-generated":
        # any support, below the band too, so the verifier itself must catch it
        indices = enumerate_height_at_most(rank, order)[1:]
        support = rng.sample(indices, rng.randint(1, min(3, len(indices))))
        coefficients = {a: PolyLeaf(random_polynomial(rng, rank, 2, 3)) for a in support}
        return make_identity_generated(CoeffFamily(rank, order, coefficients))
    alpha0 = rng.choice(enumerate_height_at_most(rank, order))
    if kind == "tamper-scaled":
        return _scaled(rank, order, alpha0, Fraction(101, 100))
    if kind == "tamper-visible":
        extra = random_polynomial(rng, rank, 2, 3) + Polynomial.constant(rank, 1)
    else:
        # a product of one linear factor per sample, as seen through tau
        extra = Polynomial.constant(rank, 1)
        for x in dom.sample_points:
            y = tau(x) if tau is not None else x
            extra = extra * (Polynomial.variable(rank, 0) - Polynomial.constant(rank, y[0]))
    return _tampered(rank, order, alpha0, extra)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    rank=st.integers(1, 3),
    order=st.integers(1, 4),
    conjugated=st.booleans(),
    probes=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_verify_moment_matches_pointwise_oracle(kind, rank, order, conjugated, probes, seed):
    rng = random.Random(seed)
    dom = Domain.unit(rank, n_samples=SAMPLES, seed=seed)
    tau = _affine_tau(rng, rank) if conjugated else None
    family = _family(kind, rank, order, tau, dom, rng)
    if tau is not None:
        family = conjugate(family, tau)
    if kind == "tamper-scaled":
        pairs = _sevenths(dom, probes, rng)
    else:
        pairs = default_probe_pairs(dom, probes, rng)
    exact = kind in EXACT_KINDS
    report = verify_moment(family, pairs, dom, seed=seed)
    assert report.exact is exact
    oracle = verify_moment_pointwise(family, pairs, dom, exact, seed=seed)
    assert _dumps(report) == _dumps(oracle)
    if kind in ("derivative", "trivial", "no-coefficients"):
        assert report.passed and report.max_residual == 0.0
    if kind == "tamper-vanishing":
        # the difference vanishes on every mapped sample, yet it is nonzero
        assert not report.passed
        samples = [x.to_json() for x in dom.sample_points]
        assert all(failure["point"] not in samples for failure in report.failures)


def _derivation_powers(field, order: int, dim: int) -> OperatorFamily:
    """T_(k) = A^k at rank 1, A = sum_i field_i d_i a derivation, so (*) holds.

    A^k f = sum_b p_b D^b f is kept as its coefficients p_b, and
    A(p_b D^b f) = sum_i field_i (d_i p_b D^b f + p_b D^(b + e_i) f).
    """
    power = {MultiIndex.zero(dim): Polynomial.constant(dim, 1)}
    operators = {}
    for k in range(order + 1):
        terms = tuple(Product((PolyLeaf(p), Jet(b))) for b, p in power.items())
        operators[MultiIndex((k,))] = Sum(terms) if terms else PolyLeaf(Polynomial.zero(dim))
        step = {}
        for b, p in power.items():
            for i, c in enumerate(field):
                e = MultiIndex.unit(dim, i)
                step[b] = step.get(b, Polynomial.zero(dim)) + c * polycalc.dalpha(p, e)
                step[b + e] = step.get(b + e, Polynomial.zero(dim)) + c * p
        power = {b: p for b, p in step.items() if p}
    return OperatorFamily(1, order, operators, dim=dim)


def _jet_tree(rng: random.Random, dim: int, depth: int):
    """A log-free tree over the jets of height <= 2, inhomogeneous in them,
    with coefficient denominators from 1 to 7."""
    kind = rng.choice(("jet", "poly", "sum", "product")[: 4 if depth else 2])
    if kind == "jet":
        return Jet(rng.choice(enumerate_height_at_most(dim, 2)))
    if kind == "poly":
        return PolyLeaf(random_polynomial(rng, dim, 5, 2, denominators=range(1, 8)))
    children = tuple(_jet_tree(rng, dim, depth - 1) for _ in range(rng.randint(1, 3)))
    return (Sum if kind == "sum" else Product)(children)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["derivation", "trees"]),
    dim=st.integers(1, 2),
    order=st.integers(0, 3),
    conjugated=st.booleans(),
    tamper=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_custom_exact_families_match_pointwise_oracle(kind, dim, order, conjugated, tamper, seed):
    # custom families from Sum, Product, PolyLeaf and Jet trees, at rank 1
    # on probes of dim 1 or 2 and at rank dim: the powers of a derivation,
    # which hold, and random trees such as Jet(0) * Jet(e_1) + x0^5/3,
    # which mostly fail; half get one T_alpha scaled by exactly 101/100
    rng = random.Random(seed)
    dom = Domain.unit(dim, n_samples=SAMPLES, seed=seed)
    if kind == "derivation":
        field = [random_polynomial(rng, dim, 2, 2, denominators=range(1, 8)) for _ in range(dim)]
        family = _derivation_powers(field, order, dim)
    else:
        rank = rng.choice([1, dim])
        alphas = enumerate_height_at_most(rank, order)
        operators = {alpha: _jet_tree(rng, dim, 2) for alpha in alphas}
        zero, x0 = MultiIndex.zero(dim), Polynomial.variable(dim, 0)
        inhomogeneous = (Product((Jet(zero), Jet(MultiIndex.unit(dim, dim - 1)))),)
        inhomogeneous += (PolyLeaf(x0 * x0 * x0 * x0 * x0 * Fraction(1, 3)),)
        operators[rng.choice(alphas)] = Sum(inhomogeneous)
        family = OperatorFamily(rank, order, operators, dim=dim)
    if tamper:
        alpha0 = rng.choice(list(family.operators))
        scaled = Product((const_expr(dim, Fraction(101, 100)), family.operators[alpha0]))
        family = OperatorFamily(
            family.rank, order, {**family.operators, alpha0: scaled}, dim=dim
        )
    if conjugated:
        family = conjugate(family, _affine_tau(rng, dim))
    pairs = default_probe_pairs(dom, 3, rng)
    report = verify_moment(family, pairs, dom, seed=seed)
    assert report.exact
    assert _dumps(report) == _dumps(verify_moment_pointwise(family, pairs, dom, True, seed=seed))
    if kind == "derivation" and not tamper:
        assert report.passed and report.max_residual == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["derivative", "trivial", "derivation", "trees"]),
    dim=st.integers(1, 3),
    order=st.integers(1, 3),
    conjugated=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_zeroed_operators_match_pointwise_oracle(kind, dim, order, conjugated, seed):
    # exact families with T_alpha = 0 at random alphas, T_0 among them:
    # the exact check skips the splits and alphas those zeros decide, and
    # its reports must still be the pointwise oracle's, byte for byte
    rng = random.Random(seed)
    dom = Domain.unit(dim, n_samples=SAMPLES, seed=seed)
    if kind == "derivative":
        family = make_derivative(dim, order)
    elif kind == "trivial":
        family = make_trivial(dim, order)
    elif kind == "derivation":
        field = [random_polynomial(rng, dim, 2, 2, denominators=range(1, 8)) for _ in range(dim)]
        family = _derivation_powers(field, order, dim)
    else:
        rank = rng.choice([1, dim])
        alphas = enumerate_height_at_most(rank, order)
        family = OperatorFamily(rank, order, {a: _jet_tree(rng, dim, 2) for a in alphas}, dim=dim)
    alphas = list(family.operators)
    zeroed = set(rng.sample(alphas, rng.randint(1, len(alphas))))
    if rng.random() < 0.5:
        zeroed.add(alphas[0])
    zero = PolyLeaf(Polynomial.zero(dim))
    operators = {a: zero if a in zeroed else tree for a, tree in family.operators.items()}
    family = OperatorFamily(family.rank, order, operators, dim=dim)
    if conjugated:
        family = conjugate(family, _affine_tau(rng, dim))
    pairs = default_probe_pairs(dom, 3, rng)
    report = verify_moment(family, pairs, dom, seed=seed)
    assert report.exact
    assert _dumps(report) == _dumps(verify_moment_pointwise(family, pairs, dom, True, seed=seed))


def _exact_side(family, alpha, h, y):
    return polycalc.eval_poly(funcmodel.as_polynomial(family.apply(h)[alpha]), y)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rank=st.integers(1, 3),
    order=st.integers(1, 3),
    conjugated=st.booleans(),
    probes=st.integers(2, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_tamper_vanishing_on_the_mapped_samples_fails_at_grid_points(
    rank, order, conjugated, probes, seed
):
    # T_alpha0 of every function gets extra = q * prod_k (y_j - s_k) added,
    # the s_k being coordinate j of the samples' images: every sample sees
    # the derivative family, and each instance whose difference is nonzero
    # on the box fails once, at a grid point
    rng = random.Random(seed)
    dom = Domain.unit(rank, n_samples=SAMPLES, seed=seed)
    tau = _affine_tau(rng, rank) if conjugated else TauMap.identity(rank)
    j = rng.randrange(rank)
    extra = random_polynomial(rng, rank, 2, 3) + Polynomial.constant(rank, 1)
    for x in dom.sample_points:
        extra = extra * (Polynomial.variable(rank, j) - Polynomial.constant(rank, tau(x)[j]))
    family = _tampered(rank, order, rng.choice(enumerate_height_at_most(rank, order)), extra)
    if conjugated:
        family = conjugate(family, tau)
    pairs = default_probe_pairs(dom, probes, rng)
    report = verify_moment(family, pairs, dom)
    assert not report.passed
    failing = []
    for k, (f, g) in enumerate(pairs):
        tf, tg, tfg = (family.apply(h) for h in (f, g, f * g))
        for alpha in enumerate_height_at_most(rank, order):
            diff = funcmodel.as_polynomial(tfg[alpha])
            for w, beta, gamma in convolution_terms(alpha):
                diff = diff - w * funcmodel.as_polynomial(tf[beta]) * (
                    funcmodel.as_polynomial(tg[gamma])
                )
            if polycalc.compose(diff, tau.components):
                failing.append((k, alpha.to_json()))
    assert [(w["probe"], w["alpha"]) for w in report.failures] == failing
    for witness in report.failures:
        x = RationalPoint.from_json(witness["point"])
        assert x not in dom.sample_points and dom.contains(x)
        f, g = pairs[witness["probe"]]
        alpha, y = MultiIndex(witness["alpha"]), family.eval_point(x)
        lhs = _exact_side(family, alpha, f * g, y)
        rhs = sum(
            w * _exact_side(family, beta, f, y) * _exact_side(family, gamma, g, y)
            for w, beta, gamma in convolution_terms(alpha)
        )
        assert lhs != rhs
        assert (witness["lhs"], witness["rhs"]) == (float(lhs), float(rhs))
        assert witness["residual"] == float(abs(lhs - rhs))


@pytest.mark.parametrize("variant", ["exact", "mismatched", "log"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(rank=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_check_second_order_matches_pointwise_oracle(variant, rank, seed):
    # the second-order rule is the alpha = (2) instance of the family's
    # identity; alphas (0) and (1) hold for any pair, A being a derivation
    rng = random.Random(seed)
    dom = Domain.unit(rank, n_samples=SAMPLES, seed=seed)
    a = const_expr(rank, 3 if variant == "log" else 0)
    b = [PolyLeaf(random_polynomial(rng, rank, 2, 2)) for _ in range(rank)]
    c = [const_expr(rank, 1) for _ in range(rank)]
    family = make_second_order_leibniz(a, b, c, 2, rank)
    if variant == "mismatched":
        # A(f) = <f', 2c> in place of <f', c>
        family = with_a_field(family, [const_expr(rank, 2)] * rank)
    pairs = default_probe_pairs(dom, 4, rng)
    exact = variant != "log"
    report = verify_moment(family, pairs, dom, seed=seed)
    assert report.exact is exact
    failures, max_residual = check_second_order_pointwise(family, pairs, dom, exact)
    assert report.passed is (variant != "mismatched") is (not failures)
    assert all(failure["alpha"] == [2] for failure in report.failures)
    if exact:
        assert json.dumps(report.failures) == json.dumps(failures)
        assert report.per_alpha_max_residual["2"] == max_residual
    else:
        # the float sums run in another order, so only the bound is shared
        assert max(report.max_residual, max_residual) <= dom.float_tolerance


# ---- work counts ----


def _count_point_evaluations(monkeypatch):
    """Record every polynomial evaluation as its (polynomial, point), one entry
    per point of each ``eval_poly_ratios`` call (``eval_poly`` goes through it),
    wherever the package looks it up; the list keeps both alive, so their ids
    stay unique."""
    calls = []
    real = polycalc.eval_poly_ratios

    def counting(f, points):
        calls.extend((f, x) for x in points)
        return real(f, points)

    for module in (polycalc, funcmodel, momentfam):
        if hasattr(module, "eval_poly_ratios"):
            monkeypatch.setattr(module, "eval_poly_ratios", counting)
    return calls


def test_passing_exact_family_evaluates_no_points(monkeypatch):
    dom = Domain.unit(2, seed=4)
    pairs = default_probe_pairs(dom, 8, random.Random(4))
    conjugated = conjugate(make_derivative(2, 3), _affine_tau(random.Random(4), 2))
    calls = _count_point_evaluations(monkeypatch)
    report = verify_moment(make_derivative(2, 3), pairs, dom)
    assert report.passed and calls == []
    report = verify_moment(conjugated, pairs, dom)
    # only the samples' images under tau, one evaluation per component
    assert report.passed and len(calls) == 2 * len(dom.sample_points)


def test_a_formal_pass_applies_expands_and_evaluates_nothing(monkeypatch):
    # exact families that hold in their jets: the probes are checked for
    # their dim and nothing else, so no operator is applied, tabulated,
    # expanded, summed or evaluated; only a conjugate's samples are mapped
    dom = Domain.unit(2, seed=4)
    rng = random.Random(4)
    pairs = default_probe_pairs(dom, 8, rng)
    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    fields = [PolyLeaf(x1), PolyLeaf(x0 * x0)], [PolyLeaf(x0 * x1), PolyLeaf(x1 + x0)]
    families = [
        make_derivative(2, 3),
        make_trivial(2, 2),
        _derivation_powers([x0 * x1, x1 * Fraction(2, 3)], 3, 2),
        make_second_order_leibniz(const_expr(2, 0), *fields, 2, 2),
    ]
    families.append(conjugate(families[0], _affine_tau(rng, 2)))

    def refuse(*args):
        raise AssertionError("a formal pass reached the probes")

    monkeypatch.setattr(momentfam.OperatorFamily, "apply", refuse)
    for name in ("derivative_table", "as_polynomial", "convolution_sum", "eval_expr",
                 "eval_poly", "eval_poly_values", "nonzero_grid_point"):
        monkeypatch.setattr(momentfam, name, refuse)
    calls = _count_point_evaluations(monkeypatch)
    for family in families:
        calls.clear()
        report = verify_moment(family, pairs, dom)
        assert report.exact and report.passed and report.max_residual == 0.0
        maps = family.point_map.components if family.point_map else ()
        assert len(calls) == len(maps) * len(dom.sample_points)
        assert all(any(f is p for p in maps) for f, _ in calls)


def _evaluated_twice(calls) -> list:
    seen = Counter((id(f), id(x)) for f, x in calls)
    return [key for key, n in seen.items() if n > 1]


def test_float_verifiers_evaluate_each_leaf_once_per_point(monkeypatch):
    dom = Domain.unit(2, seed=6)
    rng = random.Random(6)
    cf, _ = random_valid_family(2, 3, band(2, 3), seed=6)
    plain = make_identity_generated(cf)
    conjugated = conjugate(plain, _affine_tau(rng, 2))
    pairs = default_probe_pairs(dom, 8, rng)
    # c_(1,0) sits in the (2,0), (2,1) and (3,0) sums
    below = dict(cf.coefficients)
    below[MultiIndex((1, 0))] = PolyLeaf(random_polynomial(rng, 2, 2, 3))
    calls = _count_point_evaluations(monkeypatch)
    for family in (plain, conjugated):
        calls.clear()
        assert verify_moment(family, pairs, dom).passed
        assert calls and _evaluated_twice(calls) == []
    calls.clear()
    assert not check_constraint(CoeffFamily(2, 3, below), dom).passed
    assert calls and _evaluated_twice(calls) == []


def _record_power_columns(monkeypatch):
    """Record (point columns, K) each time a ``PointColumns`` builds its power
    columns of grade K; the list keeps each object alive, so ids stay unique."""
    built = []
    real = polycalc.PointColumns.monomials

    def recording(self, exponents, top):
        if top not in self.grades:
            built.append((self, top))
        return real(self, exponents, top)

    monkeypatch.setattr(polycalc.PointColumns, "monomials", recording)
    return built


def test_one_call_builds_each_point_tuples_power_columns_once(monkeypatch):
    # every polynomial a call evaluates at one point tuple reads one set of
    # its power columns: the samples, where the map components are evaluated,
    # and their images, where the coefficients and the probes are
    built = _record_power_columns(monkeypatch)
    calls = _count_point_evaluations(monkeypatch)
    dom = Domain.unit(2, seed=7)
    rng = random.Random(7)
    cf, _ = random_valid_family(2, 3, band(2, 3), seed=7)
    tau = _affine_tau(rng, 2)
    pairs = default_probe_pairs(dom, 8, rng)
    # c_(1,0) sits in the (2,0), (2,1) and (3,0) sums, so the constraint evaluates
    below = dict(cf.coefficients)
    below[MultiIndex((1, 0))] = PolyLeaf(random_polynomial(rng, 2, 2, 3))
    family = conjugate(make_identity_generated(cf), tau)
    # a fresh domain for each check, which therefore maps its samples itself
    for check, passed in (
        (lambda: verify_moment(family, pairs, Domain.unit(2, seed=7)), True),
        (lambda: check_constraint(CoeffFamily(2, 3, below), Domain.unit(2, seed=7), tau), False),
    ):
        built.clear()
        calls.clear()
        assert check().passed is passed
        # two objects with power columns, one per point tuple
        tuples = {id(columns): columns for columns, _ in built}
        assert len(tuples) == len({tuple(c) for c in tuples.values()}) == 2
        assert dom.sample_points in tuples.values()
        # many polynomials, one set of power columns per point tuple
        assert len({id(f) for f, _ in calls}) > len(tuples)


def test_each_check_maps_the_samples_in_one_call_per_map_component(monkeypatch):
    # Domain.images evaluates a map component at all the samples at once
    dom = Domain.unit(2, seed=8)
    rng = random.Random(8)
    cf, _ = random_valid_family(2, 3, band(2, 3), seed=8)
    family = conjugate(make_identity_generated(cf), _affine_tau(rng, 2))
    pairs = default_probe_pairs(dom, 4, rng)
    components = family.point_map.components
    calls = []
    real = polycalc.eval_poly_ratios

    def counting(f, points):
        calls.append((f, points))
        return real(f, points)

    monkeypatch.setattr(polycalc, "eval_poly_ratios", counting)
    for check in (
        lambda: check_constraint(family.coeff_family, dom, family.point_map),
        lambda: verify_moment(family, pairs, dom),
    ):
        calls.clear()
        assert check().passed
        mapped = [points for f, points in calls if any(f is p for p in components)]
        assert len(mapped) == len(components)
        # at one PointColumns of the samples, so their power columns are shared
        assert all(points is mapped[0] for points in mapped)
        assert type(mapped[0]) is polycalc.PointColumns and mapped[0] == dom.sample_points


def test_tampered_family_evaluates_points_only_where_it_fails(monkeypatch):
    dom = Domain.unit(2, seed=5)
    pairs = default_probe_pairs(dom, 8, random.Random(5))
    family = _tampered(2, 3, MultiIndex((1, 0)), Polynomial.constant(2, 1))
    calls = _count_point_evaluations(monkeypatch)
    report = verify_moment(family, pairs, dom)
    failing = {(w["probe"], tuple(w["alpha"])) for w in report.failures}
    instances = len(pairs) * len(report.per_alpha_max_residual)
    assert 0 < len(failing) < instances
    # both sides, at every sample, of each failing instance and no other
    assert len(calls) == 2 * len(dom.sample_points) * len(failing)


def _record_fraction_sums(monkeypatch):
    """Record the alpha of each ``convolution_sum`` call ``momentfam`` makes:
    the last split of an alpha is (1, alpha, 0)."""
    alphas = []
    real = momentfam.convolution_sum

    def recording(left, right, splits):
        alphas.append(splits[-1][1])
        return real(left, right, splits)

    monkeypatch.setattr(momentfam, "convolution_sum", recording)
    return alphas


@pytest.mark.parametrize("conjugated", [False, True])
def test_exact_instances_are_decided_on_integer_tables(monkeypatch, conjugated):
    # a family that passes in its jets sums no Fraction convolution; one that
    # fails there sums, on every probe, each alpha that fails in the jets,
    # once, and fails only at those instances whose two sums differ
    rank, order = 2, 3
    dom = Domain.unit(rank, seed=9)
    rng = random.Random(9)
    tau = _affine_tau(rng, rank)
    pairs = default_probe_pairs(dom, 6, rng) + _sevenths(dom, 3, rng)
    alphas = _record_fraction_sums(monkeypatch)
    for family, formal in (
        (make_derivative(rank, order), []),
        # T_(1,1) enters the splits of (1,2) and (2,1) too
        (_scaled(rank, order, MultiIndex((1, 1)), Fraction(101, 100)), [(1, 1), (1, 2), (2, 1)]),
    ):
        if conjugated:
            family = conjugate(family, tau)
        alphas.clear()
        report = verify_moment(family, pairs, dom)
        assert report.exact and report.passed is not formal
        assert [tuple(a) for a in alphas] == [alpha for _ in pairs for alpha in formal]
        failing = list(dict.fromkeys((w["probe"], tuple(w["alpha"])) for w in report.failures))
        assert {alpha for _, alpha in failing} <= set(formal)
        if formal:
            # the affine map is injective, so every unequal instance fails
            assert 1 < len({probe for probe, _ in failing}) < len(pairs)


def test_failing_exact_instances_share_one_set_of_power_columns(monkeypatch):
    # every failing (probe, alpha) of an exact family is evaluated at the one
    # PointColumns of the samples, so each grade of its power columns is
    # built once in the call, not once per failing instance
    dom = Domain.unit(2, seed=5)
    pairs = default_probe_pairs(dom, 8, random.Random(5))
    family = _tampered(2, 3, MultiIndex((1, 0)), Polynomial.constant(2, 1))
    built = _record_power_columns(monkeypatch)
    report = verify_moment(family, pairs, dom)
    assert report.exact
    assert len({(w["probe"], tuple(w["alpha"])) for w in report.failures}) >= 2
    assert len({id(columns) for columns, _ in built}) == 1
    assert built[0][0] == dom.sample_points
