"""Operator families, the moment-identity verifier, collapse and conjugation."""

from __future__ import annotations

import gc
import math
import random
from fractions import Fraction

import pytest

from moment_leibniz import funcmodel, momentfam, polycalc
from moment_leibniz.multiindex import MultiIndex, enumerate_height_at_most
from moment_leibniz.polycalc import (
    Polynomial,
    RationalPoint,
    eval_poly,
    random_polynomial,
)
from moment_leibniz.funcmodel import (
    Domain,
    FuncExpr,
    Jet,
    PolyLeaf,
    Product,
    Sum,
    TauMap,
    XLogAbs,
    as_polynomial,
    const_expr,
    eval_expr,
)
from moment_leibniz.coeffsolve import CoeffFamily, check_constraint
from moment_leibniz.momentfam import (
    OperatorFamily,
    ProbePairs,
    conjugate,
    default_probe_pairs,
    family_from_json,
    make_derivative,
    make_first_order_leibniz,
    make_identity_generated,
    make_second_order_leibniz,
    make_trivial,
    verify_moment,
)

from _moment_oracle import with_a_field


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
    assert eval_poly(vanishing, dom.sample_points[0]) == 0


# ---- trivial family ----


def test_trivial_family_values_and_exactness():
    fam = make_trivial(2, 2)
    f = Polynomial.variable(2, 0)
    x = RationalPoint.of(Fraction(1, 3), Fraction(1, 2))
    assert eval_poly(as_polynomial(fam.apply(f)[_mi(0, 0)]), x) == 1
    assert eval_poly(as_polynomial(fam.apply(f)[_mi(1, 0)]), x) == 0
    assert verify_moment(fam, [(f, f)], Domain.unit(2, seed=2)).exact


def test_trivial_family_verifies_with_zero_residual():
    dom = Domain.unit(2, seed=2)
    fam = make_trivial(2, 2)
    report = verify_moment(fam, _probes(dom, 6, 1), dom)
    assert report.passed
    assert report.max_residual == 0.0
    assert report.exact


def test_trivial_family_builds_its_leaves_once():
    # the trees read no jet of the probe, so every apply returns one of two leaves
    fam = make_trivial(2, 2)
    f, g = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert fam.apply(f)[_mi(0, 0)] is fam.apply(g)[_mi(0, 0)]
    assert fam.apply(f)[_mi(1, 0)] is fam.apply(g)[_mi(0, 2)]


def test_family_refuses_operators_that_miss_an_alpha_or_have_another_dim():
    operators = make_derivative(2, 2).operators
    with pytest.raises(ValueError, match=r"^operators need a tree at each alpha"):
        OperatorFamily(2, 2, {a: t for a, t in operators.items() if a != _mi(1, 1)})
    with pytest.raises(ValueError, match=r"^operators need a tree at each alpha"):
        OperatorFamily(2, 1, operators)  # height 2 > order
    with pytest.raises(ValueError, match=r"^operators need a tree at each alpha"):
        OperatorFamily(1, 2, operators)  # wrong rank
    wide = {**operators, _mi(0, 1): Jet(_mi(0, 1, 0))}
    with pytest.raises(ValueError, match=r"^operator \[0, 1\] dim 3, family dim 2$"):
        OperatorFamily(2, 2, wide)
    with pytest.raises(ValueError, match=r"^probe dim 1, family dim 2$"):
        make_derivative(2, 2).apply(Polynomial.variable(1, 0))


def test_a_bare_jet_has_no_values_and_no_expansion():
    jet = Jet(_mi(1, 0))
    with pytest.raises(ValueError, match="before substitution"):
        eval_expr(jet, (RationalPoint.of(Fraction(1, 2), Fraction(1, 3)),))
    with pytest.raises(ValueError, match="before substitution"):
        as_polynomial(Product((const_expr(2, 1), jet)))


def test_a_probe_value_past_the_float_range_names_its_jet():
    # a sampled family reads D^0 f under its log term; f = 2^1100 has no
    # float value, so the error names that jet, the first node that fails
    zero = _mi(0)
    log_term = XLogAbs(Product((const_expr(1, 2), Jet(zero))))
    fam = OperatorFamily(1, 1, {zero: const_expr(1, 1), _mi(1): log_term})
    huge = Polynomial.constant(1, 2**1100)
    with pytest.raises(
        funcmodel.NonFiniteValue,
        match=r"^overflow converting exact value at root\.xlogabs\.product\[1\]$",
    ):
        verify_moment(fam, [(huge, Polynomial.variable(1, 0))], Domain.unit(1, seed=1))


def test_a_probe_product_past_the_float_range_names_its_jet():
    # f = g = 2^600 have float values and fg = 2^1200 has none: fg's row, the
    # Leibniz sum of f's and g's exact values, fails where the product's own
    # table did, at T_0's jet
    big = Polynomial.constant(1, 2**600)
    family = make_first_order_leibniz(const_expr(1, 1), 1)
    overflow = r"^overflow converting exact value at root$"
    with pytest.raises(funcmodel.NonFiniteValue, match=overflow):
        verify_moment(family, [(big, big)], Domain.unit(1, seed=1))


def test_a_sampled_check_multiplies_no_polynomial(monkeypatch):
    # once the probes are drawn, fg's jets come from f's and g's exact values
    # at the samples, so a sampled family with no probe map forms no product;
    # a sum asks fg's own table only where every f and g drops its term
    dom = Domain.unit(2, seed=4)
    probes = _probes(dom, 6, 4)
    b, c = _two_variable_fields()
    cf = CoeffFamily(2, 2, {(1, 0): const_expr(2, 2), (0, 1): PolyLeaf(Polynomial.variable(2, 1))})
    families = [
        make_first_order_leibniz(const_expr(2, 3), 2),
        make_identity_generated(cf),
        make_second_order_leibniz(const_expr(2, 1), b, c, 2, 2),
    ]
    products = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    for family in families:
        report = verify_moment(family, probes, dom)
        assert not report.exact and report.max_residual > 0.0
    assert products == []


def test_apply_is_a_map_over_the_familys_alphas():
    fam = make_derivative(2, 2)
    applied = fam.apply(Polynomial.variable(2, 0))
    assert len(applied) == len(fam.operators) == 6
    assert list(applied) == list(fam.operators)


def test_apply_leaves_no_reference_cycle():
    # a cycle per call would keep each probe's table and trees alive until
    # the collector runs, and make it run more often
    b, c = _two_variable_fields()
    families = [
        make_derivative(2, 3),
        make_second_order_leibniz(const_expr(2, 1), b, c, 2, 2),
        make_first_order_leibniz(const_expr(2, 3), 2),
    ]
    f = Polynomial(2, {(2, 1): 3, (0, 1): Fraction(-1, 2), (0, 0): 1})
    gc.collect()
    gc.disable()
    try:
        for family in families:
            family.apply(f)
        funcmodel.hess_quad(f, c)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- collapse of candidates with T_0 = 1 ----


def _with_unit_t0(rank, order, tail):
    """T_0 = 1 and T_alpha = tail(f) for alpha != 0, f the probe's jet D^0."""
    f = Jet(MultiIndex.zero(rank))
    one = const_expr(rank, 1)
    alphas = enumerate_height_at_most(rank, order)
    return OperatorFamily(rank, order, {a: tail(f) if a.height else one for a in alphas})


def _zero_paired(fs):
    """The (0, f) probe pairs, on which the collapse instances sit."""
    return [(Polynomial.zero(f.dim), f) for f in fs]


def test_collapse_accepts_trivial():
    dom = Domain.unit(2, seed=3)
    probe_fns = [random_polynomial(random.Random(5), 2, max_degree=3) for _ in range(4)]
    report = verify_moment(make_trivial(2, 2), _zero_paired(probe_fns), dom)
    assert report.passed
    assert report.exact
    assert report.max_residual == 0.0


def test_collapse_rejects_identity_rule_via_product_instance():
    # T_alpha(f) = f: at (0, 3) the alpha = (1) instance reads
    # T_(1)(0) = T_0(0) T_(1)(3) + T_(1)(0) T_0(3), that is 0 = 3
    dom = Domain.unit(1, seed=4)
    cand = _with_unit_t0(1, 1, lambda f: f)
    report = verify_moment(cand, _zero_paired([Polynomial.constant(1, 3)]), dom)
    assert not report.passed
    assert report.exact
    first = report.failures[0]
    assert first["alpha"] == [1]
    assert (first["lhs"], first["rhs"]) == (0.0, 3.0)


def test_collapse_rejects_constant_rule_via_zero_instance():
    # T_alpha = 5: the same instance reads 5 = 1 * 5 + 5 * 1
    dom = Domain.unit(1, seed=4)
    cand = _with_unit_t0(1, 1, lambda f: const_expr(1, 5))
    report = verify_moment(cand, _zero_paired([Polynomial.constant(1, 3)]), dom)
    assert not report.passed
    assert report.exact
    first = report.failures[0]
    assert first["alpha"] == [1]
    assert (first["lhs"], first["rhs"]) == (5.0, 10.0)


def test_collapse_rejects_a_tail_below_the_float_tolerance():
    # T_(1)(f) = f / 10^12 is within 1e-9 of the trivial family at every
    # sample, but the instance 0 = f / 10^12 is proved false in Q[x]
    dom = Domain.unit(1, seed=4)
    cand = _with_unit_t0(1, 1, lambda f: Product((f, const_expr(1, Fraction(1, 10**12)))))
    x = Polynomial.variable(1, 0)
    probes = _zero_paired([Polynomial.constant(1, 3), x + Polynomial.constant(1, 1)])
    report = verify_moment(cand, probes, dom)
    assert not report.passed
    assert report.exact
    assert len(report.failures) == 2 * len(dom.sample_points)
    first = report.failures[0]
    assert first["alpha"] == [1]
    assert (first["lhs"], first["rhs"]) == (0.0, 3e-12)


# ---- derivative family ----


def test_derivative_family_pinned_value():
    fam = make_derivative(2, 2)
    f = Polynomial.variable(2, 0)
    g = Polynomial.variable(2, 1)
    x = RationalPoint.of(Fraction(1, 4), Fraction(3, 4))
    assert eval_poly(as_polynomial(fam.apply(f * g)[_mi(1, 1)]), x) == 1
    assert eval_poly(as_polynomial(fam.apply(f)[_mi(0, 0)]), x) == Fraction(1, 4)  # T_0 = id


def test_derivative_family_verifies_exactly():
    for rank in (1, 2):
        dom = Domain.unit(rank, seed=rank)
        fam = make_derivative(rank, 3)
        report = verify_moment(fam, _probes(dom, 6, rank), dom)
        assert report.passed, report.failures[:1]
        assert report.max_residual == 0.0
    with pytest.raises(ValueError):
        make_derivative(1, 0)


@pytest.mark.parametrize(
    "make",
    [make_trivial, make_derivative, lambda rank, order: OperatorFamily(rank, order, {})],
    ids=["trivial", "derivative", "custom"],
)
@pytest.mark.parametrize(
    "rank,order,message",
    [
        (1, "x", "order must be an integer, got 'x'"),
        (1, 2.5, "order must be an integer, got 2.5"),
        (1, True, "order must be an integer, got True"),
        (1, -1, "order must be >= "),
        ("x", 2, "rank must be an integer, got 'x'"),
        (0, 2, "rank must be >= 1, got 0"),
    ],
)
def test_rank_and_order_are_checked_before_use(make, rank, order, message):
    with pytest.raises(ValueError, match=message):
        make(rank, order)


def test_broken_derivative_rule_detected_exactly():
    d2 = Jet(_mi(2))
    breaks = [
        # dropping the binomial weights breaks the identity at height 2
        Product((d2, const_expr(1, 2))),
        # far below the float tolerance: a sampled check would pass it
        Sum((d2, const_expr(1, Fraction(1, 10**12)))),
    ]
    dom = Domain.unit(1, seed=6)
    probes = _probes(dom, 6, 2)
    for broken in breaks:
        # the family declares nothing: its operators expand, so it is proved
        fam = OperatorFamily(1, 2, {**make_derivative(1, 2).operators, _mi(2): broken})
        report = verify_moment(fam, probes, dom)
        assert report.exact and not report.passed
        assert _failing_alphas(report) == {(2,)}
        for failure in report.failures:
            # the witness is the exact difference at the sample point
            f, g = probes[failure["probe"]]
            x = RationalPoint.of(*(Fraction(v) for v in failure["point"]))
            lhs = eval_poly(as_polynomial(fam.apply(f * g)[_mi(2)]), x)
            rhs = sum(
                w * eval_poly(as_polynomial(fam.apply(f)[b]), x)
                * eval_poly(as_polynomial(fam.apply(g)[_mi(2) - b]), x)
                for w, b in [(1, _mi(0)), (2, _mi(1)), (1, _mi(2))]
            )
            assert lhs != rhs
            assert (failure["lhs"], failure["rhs"]) == (float(lhs), float(rhs))
            assert failure["residual"] == float(abs(lhs - rhs))


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_overflow_fails_with_infinite_witness(sign):
    # T_0 = +-10^400 misses multiplicativity by more than a float holds:
    # the instance fails with residual inf and witness sides +-inf
    huge = Polynomial.constant(1, sign * 10**400)
    fam = OperatorFamily(1, 0, {_mi(0): PolyLeaf(huge)})
    dom = Domain.unit(1, seed=22)
    one = Polynomial.constant(1, 1)
    report = verify_moment(fam, [(one, one)], dom)
    assert report.exact and not report.passed
    assert report.max_residual == math.inf
    witness = report.failures[0]
    assert (witness["lhs"], witness["rhs"], witness["residual"]) == (
        sign * math.inf,
        math.inf,
        math.inf,
    )


def _top_tamper(alpha: MultiIndex) -> OperatorFamily:
    """The r3 N4 derivative family with T_alpha scaled by exactly 101/100."""
    operators = make_derivative(3, 4).operators
    scaled = Product((const_expr(3, Fraction(101, 100)), operators[alpha]))
    return OperatorFamily(3, 4, {**operators, alpha: scaled})


@pytest.mark.xfail(strict=True, reason="ROADMAP item 28")
def test_top_height_tamper_fails_on_the_drawn_probes():
    # (*) fails at (4,0,0) (the formal check below names it), yet the 8
    # drawn probes have degree <= 3, and none has the jets of height 1-3 in
    # x0 on both sides that the difference (1/100) sum_{0<b<a} C(a, b)
    # D^b f D^(a-b) g needs; so verify_moment reports a pass
    dom = Domain.unit(3, seed=0)
    pairs = default_probe_pairs(dom, 8, random.Random(0))
    assert not verify_moment(_top_tamper(_mi(4, 0, 0)), pairs, dom).passed


def _counting_draws(monkeypatch) -> list:
    """Patch ``momentfam.random_polynomial`` to log each draw; returns the log."""
    draws = []

    def counting(*args, **kwargs):
        draws.append(args[1:])
        return random_polynomial(*args, **kwargs)

    monkeypatch.setattr(momentfam, "random_polynomial", counting)
    return draws


def test_probe_pairs_are_the_default_pairs_drawn_on_the_first_read(monkeypatch):
    # the same pairs as the list, in the same order: its length draws
    # nothing, and its first item draws them all, once
    draws = _counting_draws(monkeypatch)
    for rank in (1, 2, 3):
        for count in range(1, 13):
            for seed in range(10):
                dom = Domain.unit(rank, seed=seed)
                draws.clear()
                expected = default_probe_pairs(dom, count, random.Random(seed))
                drawn = len(draws)
                lazy = ProbePairs(dom, count, random.Random(seed))
                assert len(lazy) == count == len(expected) and lazy.dim == rank
                assert len(draws) == drawn
                assert lazy[-1] == expected[-1]
                assert len(draws) == 2 * drawn
                assert list(lazy) == expected and list(lazy) == expected
                assert [lazy[k] for k in range(count)] == expected
                assert lazy[1:] == expected[1:]
                assert len(draws) == 2 * drawn


def test_a_formal_pass_draws_no_probe(monkeypatch):
    # the exact families pass in their jets, so no pair is drawn; a formal
    # failure and a sampled family draw every pair, once
    draws = _counting_draws(monkeypatch)
    swap = TauMap((Polynomial.variable(2, 1), Polynomial.variable(2, 0)))
    tamper = Product((const_expr(2, Fraction(101, 100)), Jet(_mi(1, 1))))
    tampered = OperatorFamily(2, 3, {**make_derivative(2, 3).operators, _mi(1, 1): tamper})
    sampled = make_first_order_leibniz(const_expr(2, 3), 2)
    dom = Domain.unit(2, seed=5)
    for family in (make_trivial(2, 4), make_derivative(2, 3), conjugate(make_derivative(2, 2), swap)):
        report = verify_moment(family, ProbePairs(dom, 8, random.Random(5)), dom)
        assert report.passed and report.exact and report.probe_count == 8
    assert draws == []
    for family, passed in ((tampered, False), (sampled, True)):
        assert verify_moment(family, ProbePairs(dom, 8, random.Random(5)), dom).passed is passed
        assert len(draws) == 10
        draws.clear()
    # the drawn pairs' dim is checked with one comparison, as the list's are one by one
    for probes in (ProbePairs(Domain.unit(1, seed=5), 8, random.Random(5)),
                   _probes(Domain.unit(1, seed=5), 8, 5)):
        with pytest.raises(ValueError, match=r"^probe dim 1, family dim 2$"):
            verify_moment(make_derivative(2, 2), probes, dom)


def test_probe_pairs_report_as_the_list_does():
    # a formal failure, whether its probes show it or not, and a sampled
    # family report the same bytes on the lazy pairs as on the list
    tamper = Product((const_expr(2, Fraction(101, 100)), Jet(_mi(1, 1))))
    cf = CoeffFamily(1, 3, {(2,): const_expr(1, 1), (3,): PolyLeaf(Polynomial.variable(1, 0))})
    cases = [
        (_top_tamper(_mi(4, 0, 0)), 3, 0),
        (OperatorFamily(2, 3, {**make_derivative(2, 3).operators, _mi(1, 1): tamper}), 2, 4),
        (make_identity_generated(cf), 1, 7),
    ]
    verdicts = []
    for family, rank, seed in cases:
        dom = Domain.unit(rank, seed=seed)
        lazy = verify_moment(family, ProbePairs(dom, 8, random.Random(seed)), dom, seed=seed)
        listed = verify_moment(family, _probes(dom, 8, seed), dom, seed=seed)
        assert lazy.to_json() == listed.to_json()
        verdicts.append((lazy.passed, lazy.exact))
    # the drawn probes miss the (4,0,0) tamper (see the strict xfail above)
    assert verdicts == [(True, True), (False, True), (True, False)]


@pytest.mark.parametrize("alpha", [(4, 0, 0), (0, 4, 0), (1, 3, 0), (0, 3, 1)])
def test_the_formal_check_names_each_top_height_tamper(alpha):
    # T_alpha enters no other alpha's splits at N 4, so alpha alone fails in
    # the jets; the pair (x^b, x^(alpha-b)) for a unit b <= alpha makes the
    # difference alpha!/100 != 0, and verify_moment fails there
    alpha = MultiIndex(alpha)
    family = _top_tamper(alpha)
    forms = {a: funcmodel.jet_form(tree) for a, tree in family.operators.items()}
    table = polycalc.convolution_table(3, 4)
    assert polycalc.form_failures(forms, family._jets, table) == [alpha]
    b = MultiIndex.unit(3, next(i for i, k in enumerate(alpha) if k))
    witness = (Polynomial.monomial(b), Polynomial.monomial(alpha - b))
    report = verify_moment(family, [witness], Domain.unit(3, seed=0))
    assert {tuple(w["alpha"]) for w in report.failures} == {tuple(alpha)}


@pytest.mark.parametrize("rank,top_count", [(2, 7), (3, 28)])
def test_the_formal_check_decides_the_derivative_family_at_order_6(rank, top_count):
    # past the benchmark's N <= 4: make_derivative holds in the jets, and
    # each top-height T_alpha scaled by 101/100, which enters no other
    # alpha's splits, fails at its own alpha alone
    family = make_derivative(rank, 6)
    forms = {a: funcmodel.jet_form(tree) for a, tree in family.operators.items()}
    table = polycalc.convolution_table(rank, 6)
    assert polycalc.form_failures(forms, family._jets, table) == []
    top = [alpha for alpha in table if alpha.height == 6]
    assert len(top) == top_count
    for alpha in top:
        scaled = {m: c * Fraction(101, 100) for m, c in forms[alpha].items()}
        assert polycalc.form_failures({**forms, alpha: scaled}, family._jets, table) == [alpha]


def test_verify_moment_refuses_a_probe_of_another_dim_on_a_formal_pass():
    # the exact family passes in its jets, and no probe is applied, yet
    # each probe's dim is still checked, as apply would
    dom = Domain.unit(2, seed=3)
    good, bad = Polynomial.variable(2, 0), Polynomial.variable(1, 0)
    swap = TauMap((Polynomial.variable(2, 1), Polynomial.variable(2, 0)))
    for family in (make_derivative(2, 2), conjugate(make_derivative(2, 2), swap)):
        assert verify_moment(family, [(good, good)], dom).passed
        for pairs in ([(bad, good)], [(good, bad)], [(good, good), (bad, bad)]):
            with pytest.raises(ValueError, match=r"^probe dim 1, family dim 2$"):
                verify_moment(family, pairs, dom)


# ---- identity-generated families ----


def test_identity_generated_pinned_value():
    # c_1 = 0, c_2 = 1, c_3 = x: T_2(f*g)(x) = (fg)(x) ln|fg(x)| gives
    # 6 ln 6 for f = 2, g = 3, matching the convolution side
    dom = Domain.unit(1, seed=7)
    cf = CoeffFamily(
        1,
        3,
        {(2,): PolyLeaf(Polynomial.constant(1, 1)), (3,): PolyLeaf(Polynomial.variable(1, 0))},
    )
    fam = make_identity_generated(cf)
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, 3)
    x = RationalPoint.of(Fraction(1, 2))
    lhs = eval_expr(fam.apply(f * g)[_mi(2)], (x,))[0]
    assert lhs == pytest.approx(6 * math.log(6), rel=1e-15)
    report = verify_moment(fam, [(f, g)], dom)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_identity_generated_trees_share_one_log_node(monkeypatch):
    # every coefficient's tree holds the same f ln|f| node, which a sampled
    # check evaluates once; a value it cannot take is named where the first
    # tree reads it
    cf = CoeffFamily(1, 3, {(2,): const_expr(1, 1), (3,): PolyLeaf(Polynomial.variable(1, 0))})
    fam = make_identity_generated(cf)
    assert fam.operators[_mi(2)].children[1] is fam.operators[_mi(3)].children[1]
    paths = []
    values = XLogAbs._values

    def counting(node, points, path):
        paths.append(path)
        return values(node, points, path)

    monkeypatch.setattr(XLogAbs, "_values", counting)
    dom = Domain.unit(1, seed=2)
    assert verify_moment(fam, _probes(dom, 6, 2), dom).passed
    assert paths == ["root.product[1]"]
    big = Polynomial.constant(1, 2**1020)
    path = r"root\.product\[1\]\.xlogabs"
    with pytest.raises(funcmodel.NonFiniteValue, match=rf"^non-finite value at {path}$"):
        verify_moment(fam, [(big, Polynomial.constant(1, 1))], dom)


def test_identity_generated_randomized():
    dom = Domain.unit(1, seed=8)
    cf = CoeffFamily(
        1,
        3,
        {(2,): PolyLeaf(Polynomial.variable(1, 0)), (3,): PolyLeaf(Polynomial.constant(1, -2))},
    )
    fam = make_identity_generated(cf)
    report = verify_moment(fam, _probes(dom, 10, 3), dom)
    assert report.passed, report.failures[:1]
    assert report.max_residual <= 1e-9


def test_identity_generated_rejects_bad_coefficients():
    # the descriptor reader keeps the coefficients, plain or conjugated, and
    # their constraint check fails where the family reads them
    dom = Domain.unit(1, seed=9)
    cf = CoeffFamily.from_constants(1, 2, {(1,): 1})
    descriptor = make_identity_generated(cf).descriptor
    tau = _tau_one_minus_x().to_json()
    conjugated = {"kind": "conjugated", "r": 1, "N": 2, "tau": tau, "inner": descriptor}
    for data in (descriptor, conjugated):
        family = family_from_json(data)
        report = check_constraint(family.coeff_family, dom, family.point_map)
        assert not report.passed
        assert {tuple(f["alpha"]) for f in report.failures} == {(2,)}


def test_constraint_bypass_fails_at_pinned_alpha():
    # the constructor does not check the constraint; the verifier then
    # fails at alpha = 2 with residual 2 (f ln f)(x) (g ln g)(x)
    dom = Domain.unit(1, seed=9)
    cf = CoeffFamily.from_constants(1, 2, {(1,): 1})
    fam = make_identity_generated(cf)
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, 3)
    report = verify_moment(fam, [(f, g)], dom)
    assert not report.passed
    failure = next(fl for fl in report.failures if tuple(fl["alpha"]) == (2,))
    expected = 2 * (2 * math.log(2)) * (3 * math.log(3))
    assert failure["residual"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 31 stage A")
def test_band_coefficient_of_size_1e12_passes():
    # c_(2) = 10^12 is in the band N/2 < |alpha| <= N, so (*) holds exactly
    # for every pair; on (3, 1/3) the sampled alpha = (2) instance still
    # fails, with lhs 0.0 and rhs -1.2207e-4: rounding on terms of size 10^12
    cf = CoeffFamily.from_constants(1, 2, {(2,): 10**12})
    fam = make_identity_generated(cf)
    probes = [(Polynomial.constant(1, 3), Polynomial.constant(1, Fraction(1, 3)))]
    report = verify_moment(fam, probes, Domain.unit(1))
    assert report.passed, report.failures[:1]


def test_both_sides_exactly_zero_on_vanishing_product():
    # where f*g vanishes, T_alpha(fg) and every convolution term carry a
    # factor that is exactly 0.0, so the comparison is 0.0 == 0.0
    dom = Domain.unit(1, seed=10)
    cf = CoeffFamily.from_constants(1, 2, {(2,): 1})
    fam = make_identity_generated(cf)
    s = dom.sample_points[0]
    f = Polynomial.variable(1, 0) - Polynomial.constant(1, s[0])
    g = Polynomial.constant(1, 2)
    assert eval_poly(f * g, s) == 0
    alpha = _mi(2)
    lhs = eval_expr(fam.apply(f * g)[alpha], (s,))[0]
    assert lhs == 0.0
    rhs = sum(
        float(w)
        * eval_expr(fam.apply(f)[beta], (s,))[0]
        * eval_expr(fam.apply(g)[alpha - beta], (s,))[0]
        for w, beta in [(1, _mi(0)), (2, _mi(1)), (1, _mi(2))]
    )
    assert rhs == 0.0
    report = verify_moment(fam, [(f, g)], dom)
    assert report.passed


def test_first_order_leibniz_family():
    dom = Domain.unit(1, seed=11)
    c = PolyLeaf(Polynomial.variable(1, 0))
    fam = make_first_order_leibniz(c, 1)
    assert fam.order == 1
    report = verify_moment(fam, _probes(dom, 8, 4), dom)
    assert report.passed
    # the height-1 instance is the product rule T(fg) = T(f) g + f T(g)
    f = Polynomial.constant(1, 2)
    g = Polynomial.constant(1, 5)
    x = dom.sample_points[0]
    lhs = eval_expr(fam.apply(f * g)[_mi(1)], (x,))[0]
    rhs = eval_expr(fam.apply(f)[_mi(1)], (x,))[0] * 5.0 + 2.0 * eval_expr(
        fam.apply(g)[_mi(1)], (x,)
    )[0]
    assert lhs == pytest.approx(rhs, rel=1e-12)


class _Unexpandable(FuncExpr):
    """A constant coefficient, which the test below forbids ``jet_form`` to visit."""

    dim = 1

    def _eval_points(self, points, path):
        return [0.5] * len(points)

    def to_json(self):
        return {"kind": "unexpandable"}


def _guard_jet_form(monkeypatch, visit):
    """Call ``visit`` on every node the exact walk reaches, from momentfam or within funcmodel."""
    walk = funcmodel.jet_form

    def guarded(expr):
        visit(expr)
        return walk(expr)

    monkeypatch.setattr(funcmodel, "jet_form", guarded)
    monkeypatch.setattr(momentfam, "jet_form", guarded)


def test_log_term_stops_expansion_before_its_coefficient(monkeypatch):
    # c * f ln|f| cannot expand whatever c is, so c is never expanded
    def refuse(expr):
        if isinstance(expr, _Unexpandable):
            raise AssertionError("the coefficient of f ln|f| was expanded")

    _guard_jet_form(monkeypatch, refuse)
    dom = Domain.unit(1, seed=11)
    fam = make_first_order_leibniz(_Unexpandable(), 1)
    report = verify_moment(fam, _probes(dom, 8, 4), dom)
    assert report.passed
    assert not report.exact


# ---- conjugation ----


def test_conjugation_pinned_value():
    # tau(x) = 1 - x over the derivative family: the conjugated height-1
    # operator sends x^3 to 3 (1-x)^2
    fam = conjugate(make_derivative(1, 1), _tau_one_minus_x())
    f = Polynomial.variable(1, 0)
    g = Polynomial.monomial((2,))
    x = RationalPoint.of(Fraction(1, 4))
    value = eval_poly(as_polynomial(fam.apply(f * g)[_mi(1)]), fam.eval_point(x))
    assert value == 3 * Fraction(3, 4) ** 2


def test_conjugated_families_verify():
    dom = Domain.unit(1, seed=13)
    tau = _tau_one_minus_x()
    der = conjugate(make_derivative(1, 2), tau)
    report = verify_moment(der, _probes(dom, 6, 5), dom)
    assert report.passed and report.max_residual == 0.0 and report.exact
    cf = CoeffFamily.from_constants(1, 2, {(2,): 2})
    idg = conjugate(make_identity_generated(cf), tau)
    report2 = verify_moment(idg, _probes(dom, 6, 6), dom)
    assert report2.passed and report2.max_residual <= 1e-9
    assert not report2.exact


def test_conjugates_keep_the_coefficient_family():
    # only a family over coefficients has one; a conjugate, and a conjugate
    # of a conjugate, keeps the inner object: it reads it at its point map
    tau = _tau_one_minus_x()
    x = Polynomial.variable(1, 0)
    cf = CoeffFamily(1, 2, {(1,): PolyLeaf(x), (2,): Product((const_expr(1, 2), PolyLeaf(x * x)))})
    once = conjugate(make_identity_generated(cf), tau)
    double = conjugate(once, tau)
    assert once.coeff_family is cf and double.coeff_family is cf
    assert once.point_map == tau
    first = make_first_order_leibniz(const_expr(1, 3), 1)
    assert conjugate(conjugate(first, tau), tau).coeff_family is first.coeff_family
    assert first.coeff_family.order == 1
    assert conjugate(conjugate(make_derivative(1, 2), tau), tau).coeff_family is None


def test_identity_tau_changes_nothing():
    dom = Domain.unit(2, seed=14)
    fam = make_derivative(2, 2)
    conj = conjugate(fam, TauMap.identity(2))
    f = Polynomial.monomial((1, 1))
    for x in dom.sample_points:
        assert eval_poly(as_polynomial(conj.apply(f)[_mi(1, 0)]), conj.eval_point(x)) == eval_poly(
            as_polynomial(fam.apply(f)[_mi(1, 0)]), fam.eval_point(x)
        )


def test_double_conjugation_involution_restores_values():
    dom = Domain.unit(1, seed=15)
    tau = _tau_one_minus_x()
    fam = make_derivative(1, 2)
    double = conjugate(conjugate(fam, tau), tau)
    assert isinstance(double.point_map, TauMap)
    assert all(double.eval_point(x) == tau(tau(x)) for x in dom.sample_points)
    assert all(dom.contains(double.eval_point(x)) for x in dom.sample_points)
    f = random_polynomial(random.Random(7), 1, max_degree=4)
    for alpha in enumerate_height_at_most(1, 2):
        for x in dom.sample_points:
            assert eval_poly(
                as_polynomial(double.apply(f)[alpha]), double.eval_point(x)
            ) == eval_poly(as_polynomial(fam.apply(f)[alpha]), fam.eval_point(x))


def _strip_points(seed: int) -> tuple:
    """Eight seeded samples 3/8 + (1/4) k/64, 0 < k < 64, of the strip (3/8, 5/8)."""
    rng = random.Random(seed)
    return tuple(
        RationalPoint.of(Fraction(3, 8) + Fraction(1, 4) * Fraction(rng.randint(1, 63), 64))
        for _ in range(8)
    )


def test_double_conjugation_with_inverse_pair():
    # tau(x) = x/2 + 1/4 is not an involution; its inverse stays in the
    # box only on a narrower sample strip, so use samples in (3/8, 5/8)
    dom = Domain(1, _strip_points(16))
    tau = TauMap(
        (Polynomial.variable(1, 0) * Fraction(1, 2) + Polynomial.constant(1, Fraction(1, 4)),)
    )
    tau_inv = TauMap(
        (Polynomial.variable(1, 0) * 2 - Polynomial.constant(1, Fraction(1, 2)),)
    )
    fam = make_derivative(1, 2)
    double = conjugate(conjugate(fam, tau), tau_inv)
    assert isinstance(double.point_map, TauMap)
    assert all(double.eval_point(x) == tau(tau_inv(x)) for x in dom.sample_points)
    assert all(dom.contains(double.eval_point(x)) for x in dom.sample_points)
    f = Polynomial.monomial((3,), Fraction(2, 3))
    for x in dom.sample_points:
        assert eval_poly(as_polynomial(double.apply(f)[_mi(2)]), double.eval_point(x)) == eval_poly(
            as_polynomial(fam.apply(f)[_mi(2)]), fam.eval_point(x)
        )


def test_conjugation_requires_tau_into_box():
    dom = Domain.unit(1, seed=17)
    escape = TauMap((Polynomial.variable(1, 0) + Polynomial.constant(1, 2),))
    with pytest.raises(ValueError, match="outside the box"):
        verify_moment(conjugate(make_derivative(1, 1), escape), _probes(dom, 4, 17), dom)


def test_box_is_checked_on_the_composed_images():
    # x + 1/64 keeps every seed-0 sample (the largest is 31/32) inside the
    # box, twice it sends 31/32 to 1
    dom = Domain.unit(1, seed=0)
    tau = TauMap((Polynomial.variable(1, 0) + Polynomial.constant(1, Fraction(1, 64)),))
    assert all(dom.contains(tau(x)) for x in dom.sample_points)
    fam = make_first_order_leibniz(const_expr(1, 1), 1)
    probes = _probes(dom, 4, 0)
    assert verify_moment(conjugate(fam, tau), probes, dom).passed
    with pytest.raises(ValueError, match=r"sample \['31/32'\] maps to \['1'\]"):
        verify_moment(conjugate(conjugate(fam, tau), tau), probes, dom)


# ---- second-order pairs ----


def _failing_alphas(report) -> set:
    return {tuple(failure["alpha"]) for failure in report.failures}


def test_second_order_pinned_example():
    # a = 0, b = 0, c = 1 on one variable: T = f'', A = f'; T((x^2)(x^3)) = 20x^3
    zero = const_expr(1, 0)
    one = const_expr(1, 1)
    fam = make_second_order_leibniz(zero, [zero], [one], smoothness=2, dim=1)
    assert (fam.rank, fam.order, fam.dim) == (1, 2, 1)
    f = Polynomial.monomial((2,))
    g = Polynomial.monomial((3,))
    x = RationalPoint.of(Fraction(1, 2))
    assert eval_poly(as_polynomial(fam.apply(f * g)[_mi(2)]), x) == 20 * Fraction(1, 8)
    assert eval_poly(as_polynomial(fam.apply(f)[_mi(1)]), x) == 1
    assert as_polynomial(fam.apply(f)[_mi(0)]) == f
    assert verify_moment(fam, [(f, g)], Domain.unit(1, seed=18)).exact


def test_second_order_rule_exact_and_float():
    rng = random.Random(18)
    dom = Domain.unit(1, seed=18)
    probes = [
        (random_polynomial(rng, 1, max_degree=4), random_polynomial(rng, 1, max_degree=4))
        for _ in range(20)
    ]
    zero = const_expr(1, 0)
    c = (PolyLeaf(Polynomial.variable(1, 0)),)
    exact_fam = make_second_order_leibniz(zero, [zero], list(c), 2, 1)
    report = verify_moment(exact_fam, probes, dom)
    assert report.exact and report.passed and report.max_residual == 0.0
    assert set(report.per_alpha_max_residual) == {"0", "1", "2"}
    # adding the log term switches to the float path but still holds
    log_fam = make_second_order_leibniz(const_expr(1, 3), [zero], list(c), 2, 1)
    report2 = verify_moment(log_fam, probes, dom)
    assert not report2.exact
    assert report2.passed and report2.max_residual <= 1e-9


def test_second_order_smoothness_clauses():
    zero = const_expr(1, 0)
    one = const_expr(1, 1)
    with pytest.raises(ValueError):
        make_second_order_leibniz(zero, [zero], [one], smoothness=1, dim=1)
    with pytest.raises(ValueError):
        make_second_order_leibniz(zero, [one], [zero], smoothness=0, dim=1)
    # compliant degenerate pairs build fine
    make_second_order_leibniz(one, [zero], [zero], smoothness=0, dim=1)
    make_second_order_leibniz(one, [one], [zero], smoothness=1, dim=1)


@pytest.mark.parametrize("smoothness", [True, False, 1.0, 2.0, 3, -1, "2", None])
def test_second_order_smoothness_must_be_an_int(smoothness):
    # True == 1 and 1.0 == 1, so a membership test alone lets both through
    zero = const_expr(1, 0)
    with pytest.raises(ValueError, match="smoothness"):
        make_second_order_leibniz(zero, [zero], [zero], smoothness, 1)


@pytest.mark.parametrize("field", ["a", "b", "c"])
def test_second_order_fields_must_match_dim(field):
    # a dim-2 field on one variable is refused when the family is built,
    # not later inside the verifier
    zero1 = const_expr(1, 0)
    fields = {"a": zero1, "b": [zero1], "c": [zero1]}
    wide = const_expr(2, 0)
    fields[field] = wide if field == "a" else [wide]
    with pytest.raises(ValueError, match="dim"):
        make_second_order_leibniz(fields["a"], fields["b"], fields["c"], 2, 1)


def test_second_order_violation_detected():
    # decoupling A from T's quadratic form (A uses c = 2 while T uses
    # c = 1) injects an extra 6 f' g' into the convolution side at alpha
    # (2); the new A is still a derivation, so alpha (1) holds
    zero = const_expr(1, 0)
    fam = make_second_order_leibniz(zero, [zero], [const_expr(1, 1)], 2, 1)
    mismatched = with_a_field(fam, [const_expr(1, 2)])
    dom = Domain.unit(1, seed=19)
    f = Polynomial.monomial((2,))
    report = verify_moment(mismatched, [(f, f)], dom)
    assert not report.passed
    assert _failing_alphas(report) == {(2,)}


def test_second_order_overflow_witness_is_infinite():
    # A(f) = 10^400 f' makes 2 A(f) A(g) too large for a float
    zero = const_expr(1, 0)
    fam = make_second_order_leibniz(zero, [zero], [const_expr(1, 1)], 2, 1)
    huge = with_a_field(fam, [const_expr(1, 10**400)])
    f = Polynomial.monomial((2,))
    report = verify_moment(huge, [(f, f)], Domain.unit(1, seed=19))
    assert not report.passed and report.max_residual == math.inf
    assert _failing_alphas(report) == {(2,)}
    witness = report.failures[0]
    assert math.isfinite(witness["lhs"]) and witness["rhs"] == math.inf


def _two_variable_fields():
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    b = (PolyLeaf(x0 * x1), const_expr(2, 2))
    c = (PolyLeaf(x0 + Polynomial.constant(2, 1)), PolyLeaf(x1))
    return b, c


def test_log_pair_is_decided_without_expanding(monkeypatch):
    # a * f ln|f| marks every probe of a log pair as sampled before any
    # of its operators, T_(1) = <f', c> included, is expanded
    b, c = _two_variable_fields()
    fam = make_second_order_leibniz(const_expr(2, 3), b, c, 2, 2)
    calls = []

    def counting(expr):
        calls.append(expr)
        return as_polynomial(expr)

    monkeypatch.setattr(momentfam, "as_polynomial", counting)
    dom = Domain.unit(2, seed=24)
    report = verify_moment(fam, _probes(dom, 4, 24), dom)
    assert report.passed and not report.exact
    assert calls == []


def test_exact_pair_expands_its_fields_once(monkeypatch):
    # the fields are expanded when the pair is built, and its operators
    # are built from those expansions, so no probe expands c_0 again
    expansions = []

    class Counting(Product):
        pass

    def count(expr):
        if isinstance(expr, Counting):
            expansions.append(expr)

    _guard_jet_form(monkeypatch, count)
    b, c = _two_variable_fields()
    c = (Counting(c), c[1])
    fam = make_second_order_leibniz(const_expr(2, 0), b, c, 2, 2)
    assert len(expansions) == 1
    expansions.clear()
    dom = Domain.unit(2, seed=25)
    report = verify_moment(fam, _probes(dom, 4, 25), dom)
    assert report.exact and report.passed and report.max_residual == 0.0
    assert expansions == []


def test_conjugated_second_order_family_on_two_variables():
    dom = Domain.unit(2, seed=22)
    b, c = _two_variable_fields()
    fam = make_second_order_leibniz(const_expr(2, 0), b, c, 2, 2)
    half = TauMap.affine([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], [Fraction(1, 4)] * 2)
    conj = conjugate(fam, half)
    assert (conj.rank, conj.order, conj.dim) == (1, 2, 2)
    assert conj.descriptor["r"] == 2 and conj.descriptor["inner"]["kind"] == "second_order"
    report = verify_moment(conj, _probes(dom, 6, 22), dom)
    assert report.passed and report.max_residual == 0.0
    rebuilt = family_from_json(conj.descriptor)
    assert rebuilt.descriptor == conj.descriptor


def test_rank_one_family_on_two_variable_probes():
    # T_(k) = d^k / dx_0^k is indexed by rank 1 yet acts on functions of two
    # variables; index rank and probe dimension are separate
    fam = OperatorFamily(1, 3, {_mi(k): Jet(_mi(k, 0)) for k in range(4)}, dim=2)
    assert fam.descriptor == {"kind": "custom", "r": 2, "N": 3}
    dom = Domain.unit(2, seed=23)
    report = verify_moment(fam, _probes(dom, 6, 23), dom)
    assert report.exact and report.passed and report.max_residual == 0.0
    assert set(report.per_alpha_max_residual) == {"0", "1", "2", "3"}
    with pytest.raises(ValueError, match="family dim"):
        fam.apply(Polynomial.variable(1, 0))
    with pytest.raises(ValueError, match="family dim"):
        verify_moment(fam, [], Domain.unit(1, seed=23))


# ---- reports and descriptors ----


@pytest.mark.parametrize("exact", [True, False])
def test_verify_moment_applies_the_family_once_per_probe_function(exact, monkeypatch):
    # a sampled probe's f and g each reach the operators through one apply,
    # which takes one derivative table and no dalpha; fg's jets are their
    # Leibniz sums, so fg is not applied.  An exact
    # family is decided once, in its jets: a formal pass calls no apply, no
    # derivative_table and no dalpha, and a formal failure applies every
    # probe, once per probe function.  The custom family declares nothing,
    # and is proved when its trees expand, conjugated or not
    inner = make_derivative(2, 3) if exact else make_first_order_leibniz(const_expr(2, 3), 2)
    applied, tables, dalphas = [], [], []
    apply, table, dalpha = OperatorFamily.apply, momentfam.derivative_table, polycalc.dalpha

    def counting_apply(family, f):
        applied.append(f)
        return apply(family, f)

    def counting_table(f, betas):
        tables.append(f)
        return table(f, betas)

    def counting_dalpha(f, alpha):
        dalphas.append(alpha)
        return dalpha(f, alpha)

    monkeypatch.setattr(OperatorFamily, "apply", counting_apply)
    monkeypatch.setattr(momentfam, "derivative_table", counting_table)
    for module in (polycalc, funcmodel, momentfam):
        if hasattr(module, "dalpha"):
            monkeypatch.setattr(module, "dalpha", counting_dalpha)
    dom = Domain.unit(2, seed=7)
    family = OperatorFamily(2, inner.order, inner.operators)
    swap = TauMap((Polynomial.variable(2, 1), Polynomial.variable(2, 0)))
    probes = _probes(dom, 5, 9)
    every = [h for f, g in probes for h in (f, g, f * g)]
    sampled = [h for f, g in probes for h in (f, g)]
    for fam in (family, conjugate(family, swap)):
        applied.clear()
        tables.clear()
        report = verify_moment(fam, probes, dom)
        assert report.passed and report.exact is exact
        assert report.max_residual == 0.0 if exact else report.max_residual <= 1e-9
        assert applied == tables == ([] if exact else sampled)
    assert dalphas == []
    if exact:
        # T_(1,1) tampered by exactly 101/100 fails on the probes whose
        # D^(1,0) f D^(0,1) g + D^(0,1) f D^(1,0) g is nonzero, and every
        # probe is applied to look for them
        tamper = Product((const_expr(2, Fraction(101, 100)), Jet(_mi(1, 1))))
        tampered = OperatorFamily(2, 3, {**family.operators, _mi(1, 1): tamper})
        applied.clear()
        report = verify_moment(tampered, probes, dom)
        failing = sorted({failure["probe"] for failure in report.failures})
        assert report.exact and 0 < len(failing) < len(probes)
        assert applied == every


def test_one_log_tree_samples_every_probe(monkeypatch):
    # T_(2) of the derivative family gains f ln|f|, a derivation, so the
    # identity still holds; that one log tree makes every probe sampled,
    # the zero and constant ones included, and no operator is expanded; each
    # tree is evaluated once, over f, g and fg of every probe at every sample
    log_t2 = Sum((Jet(_mi(2)), Product((const_expr(1, 1), XLogAbs(Jet(_mi(0)))))))
    fam = OperatorFamily(1, 2, {**make_derivative(1, 2).operators, _mi(2): log_t2})
    evaluated = []

    def counting(expr, points):
        values = eval_expr(expr, points)
        evaluated.append((expr, len(values)))
        return values

    def refuse(expr):
        raise AssertionError("a sampled family's operator was expanded")

    monkeypatch.setattr(momentfam, "eval_expr", counting)
    monkeypatch.setattr(momentfam, "as_polynomial", refuse)
    dom = Domain.unit(1, seed=12)
    probes = _probes(dom, 4, 12)
    report = verify_moment(fam, probes, dom)
    assert report.passed and not report.exact
    assert report.max_residual <= 1e-9
    trees = list(fam.operators.values())
    assert [tree for tree, _ in evaluated] == trees
    assert [n for _, n in evaluated] == [3 * len(probes) * len(dom.sample_points)] * len(trees)


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
    fam = make_identity_generated(cf)
    rebuilt = family_from_json(fam.descriptor)
    x = dom.sample_points[0]
    f = Polynomial.constant(1, 2)
    assert eval_expr(rebuilt.apply(f)[_mi(2)], (x,)) == eval_expr(fam.apply(f)[_mi(2)], (x,))
    tau = _tau_one_minus_x()
    conj = conjugate(fam, tau)
    rebuilt2 = family_from_json(conj.descriptor)
    assert eval_expr(
        rebuilt2.apply(f)[_mi(2)], (rebuilt2.eval_point(x),)
    ) == eval_expr(conj.apply(f)[_mi(2)], (conj.eval_point(x),))
    with pytest.raises(ValueError):
        family_from_json({"kind": "unknown", "r": 1})


def test_conjugated_r_must_be_the_inner_dim():
    # r is checked next to N, in the same shape; a second-order pair's dim is its r
    tau = TauMap.identity(1).to_json()
    inner = {"kind": "derivative", "r": 1, "N": 2}
    data = {"kind": "conjugated", "r": 5, "N": 2, "tau": tau, "inner": inner}
    with pytest.raises(ValueError, match=r"^conjugated r must be the inner dim 1, got 5$"):
        family_from_json(data)
    with pytest.raises(ValueError, match=r"^conjugated r must be the inner dim 1, got True$"):
        family_from_json({**data, "r": True})
    assert family_from_json({**data, "r": 1}).descriptor == {**data, "r": 1}
    zero = const_expr(2, 0)
    pair = make_second_order_leibniz(zero, [zero, zero], [zero, zero], 2, 2)
    swap = TauMap.affine([[0, 1], [1, 0]], [0, 0]).to_json()
    nested = {"kind": "conjugated", "r": 2, "N": 2, "tau": swap, "inner": pair.descriptor}
    assert family_from_json(nested).dim == 2
    with pytest.raises(ValueError, match=r"^conjugated r must be the inner dim 2, got 1$"):
        family_from_json({**nested, "r": 1})
