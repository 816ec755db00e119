"""Polynomial families are decided as polynomial identities, points only for witnesses.

``verify_moment`` compares both sides of each instance whose operators
expand as polynomials and evaluates them at the samples only when they
differ.  No family declares this: custom rules built with no more than
their operators are proved as soon as they expand, and so is an
identity-generated family with no coefficients.
The pointwise loops it replaced live on in ``tests/_moment_oracle.py``;
the reports must match them byte for byte, second-order pairs included,
and including the rule that a nonzero difference vanishing on every sample
passes.  Float families evaluate each polynomial leaf once per sample
point within a call, and the work counts below pin both savings.
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
from moment_leibniz.funcmodel import Domain, PolyLeaf, TauMap, const_expr
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
from moment_leibniz.multiindex import MultiIndex, enumerate_height_at_most
from moment_leibniz.polycalc import Polynomial, dalpha, random_polynomial

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

    def rule(alpha, f):
        d = dalpha(f, alpha)
        return PolyLeaf(d + extra if alpha == alpha0 else d)

    return OperatorFamily(rank, order, rule)


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
    pairs = default_probe_pairs(dom, probes, rng)
    exact = kind in EXACT_KINDS
    report = verify_moment(family, pairs, dom, seed=seed)
    assert report.exact is exact
    oracle = verify_moment_pointwise(family, pairs, dom, exact, seed=seed)
    assert _dumps(report) == _dumps(oracle)
    if kind in ("derivative", "trivial", "tamper-vanishing", "no-coefficients"):
        # a difference that vanishes on every sample passes, as it always has
        assert report.passed and report.max_residual == 0.0


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
    """Record every ``eval_poly`` call as its (polynomial, point), wherever the
    package looks it up; the list keeps both alive, so their ids stay unique."""
    calls = []
    real = polycalc.eval_poly

    def counting(f, x):
        calls.append((f, x))
        return real(f, x)

    for module in (polycalc, funcmodel, momentfam):
        if hasattr(module, "eval_poly"):
            monkeypatch.setattr(module, "eval_poly", counting)
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
    assert not check_constraint(CoeffFamily(2, 3, below), dom.sample_points).passed
    assert calls and _evaluated_twice(calls) == []


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
