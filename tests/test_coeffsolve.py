"""Coefficient families, the bilinear constraint, and support analysis."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from moment_leibniz.multiindex import (
    MultiIndex,
    binom,
    enumerate_below,
    enumerate_height_at_most,
)
from moment_leibniz.polycalc import Polynomial
from moment_leibniz.funcmodel import Domain, PolyLeaf, const_expr
from moment_leibniz.coeffsolve import (
    BudgetExceeded,
    CoeffFamily,
    InvalidSupport,
    SupportPattern,
    check_constraint,
    constraint_indices,
    enumerate_valid_constant_supports,
    forced_zero_analysis,
    is_structure_valid,
    random_valid_family,
)

import _coeff_oracle as oracle
from _coeff_oracle import decomposition_pairs


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _pattern(rank: int, order: int, *indices) -> SupportPattern:
    return SupportPattern(rank, order, frozenset(_mi(*i) for i in indices))


def _sympy_constraint_sums(support, rank: int, order: int):
    """Independent expansion of every constrained bilinear sum.

    Builds sympy symbols c_beta for the support and literally expands
    sum C(alpha, beta) c_beta c_{alpha-beta}; the toolkit's analysis
    must agree with what these polynomials force.
    """
    syms = {a: sympy.Symbol(f"c_{'_'.join(map(str, a.entries))}") for a in support}
    sums = {}
    for alpha in constraint_indices(rank, order):
        total = sympy.Integer(0)
        for beta in enumerate_below(alpha)[1:-1]:
            gamma = alpha - beta
            if beta in syms and gamma in syms:
                total += binom(alpha, beta) * syms[beta] * syms[gamma]
        sums[alpha] = sympy.expand(total)
    return syms, sums


# ---- family validation ----


def test_family_index_range_enforced():
    with pytest.raises(ValueError):
        CoeffFamily.from_constants(1, 2, {(0,): 1})  # alpha = 0 excluded
    with pytest.raises(ValueError):
        CoeffFamily.from_constants(1, 2, {(3,): 1})  # above order
    with pytest.raises(ValueError):
        CoeffFamily(1, 2, {_mi(1, 0): const_expr(2, 1)})  # wrong rank


def test_family_value_defaults_to_zero():
    cf = CoeffFamily.from_constants(1, 3, {(2,): 7})
    dom = Domain.unit(1)
    x = dom.sample_points[0]
    assert cf.value(_mi(2), x) == 7.0
    assert cf.value(_mi(1), x) == 0.0
    assert cf.coefficient(_mi(3)) is None


def test_family_json_roundtrip():
    cf = CoeffFamily.from_polynomials(
        2, 2, {(1, 0): Polynomial.variable(2, 1), (0, 2): Polynomial.constant(2, Fraction(1, 3))}
    )
    back = CoeffFamily.from_json(cf.to_json())
    assert back.rank == 2 and back.order == 2
    assert set(back.coefficients) == set(cf.coefficients)


# ---- the constraint check ----


def test_constraint_pinned_violation():
    # r = 1, N = 2, c_1 = 1: the alpha = 2 sum is C(2,1) c_1^2 = 2
    cf = CoeffFamily.from_constants(1, 2, {(1,): 1})
    dom = Domain.unit(1)
    report = check_constraint(cf, dom.sample_points)
    assert not report.passed
    assert report.max_residual == 2.0
    assert report.failures[0]["alpha"] == [2]


def test_constraint_passes_on_sparse_support():
    cf = CoeffFamily.from_constants(1, 2, {(2,): 7})
    dom = Domain.unit(1)
    report = check_constraint(cf, dom.sample_points)
    assert report.passed
    assert report.max_residual == 0.0


def test_height_one_imposes_nothing():
    # at order 1 there are no constrained alphas at all
    cf = CoeffFamily.from_constants(1, 1, {(1,): 5})
    assert constraint_indices(1, 1) == []
    dom = Domain.unit(1)
    assert check_constraint(cf, dom.sample_points).passed


def test_constraint_sums_match_hand_expansion():
    # c_(1,0) = t, c_(0,1) = -t: the three order-2 sums are 2t^2, -2t^2
    # and 2t^2, all nonzero strictly inside the box
    t = Polynomial.variable(2, 0)
    cf = CoeffFamily.from_polynomials(2, 2, {(1, 0): t, (0, 1): -1 * t})
    dom = Domain.unit(2)
    report = check_constraint(cf, dom.sample_points)
    assert not report.passed
    bad_alphas = {tuple(f["alpha"]) for f in report.failures}
    assert bad_alphas == {(2, 0), (1, 1), (0, 2)}
    for failure in report.failures:
        tval = float(Fraction(failure["point"][0]))
        expected = 2 * tval * tval
        if tuple(failure["alpha"]) == (1, 1):
            expected = -expected
        assert failure["value"] == pytest.approx(expected, rel=1e-12)


# ---- forced zeros ----


def test_forced_zero_rank1():
    pattern = _pattern(1, 2, (1,), (2,))
    assert forced_zero_analysis(pattern) == frozenset({_mi(1)})


def test_forced_zero_rank2_full_height_one():
    pattern = _pattern(2, 2, (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    forced = forced_zero_analysis(pattern)
    assert forced == frozenset({_mi(1, 0), _mi(0, 1)})


def test_forced_zero_empty_when_squares_unreachable():
    # every |beta| > N/2, so 2*beta is out of range
    pattern = _pattern(2, 2, (2, 0), (1, 1), (0, 2))
    assert forced_zero_analysis(pattern) == frozenset()


def test_forced_zero_fixpoint_cascades():
    # removing (1,) leaves (2,) with a sole square at (4,)
    pattern = _pattern(1, 4, (1,), (2,))
    forced = forced_zero_analysis(pattern)
    assert forced == frozenset({_mi(1), _mi(2)})


def test_forced_zero_matches_sympy_expansion():
    # the brute-force expansions confirm both pinned cases: each forced
    # index has its diagonal constraint equal to a single square term
    for pattern, expect in [
        (_pattern(1, 2, (1,), (2,)), {_mi(1)}),
        (_pattern(2, 2, (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), {_mi(1, 0), _mi(0, 1)}),
    ]:
        syms, sums = _sympy_constraint_sums(pattern.support, pattern.rank, pattern.order)
        forced = forced_zero_analysis(pattern)
        assert forced == frozenset(expect)
        for gamma in forced:
            diag = sums[gamma + gamma]
            coeff = binom(gamma + gamma, gamma)
            # sole decomposition: the sum is exactly C(2g, g) * c_g^2,
            # which admits no nonzero solution
            assert diag == coeff * syms[gamma] ** 2


def test_rank1_order2_constant_solutions_match_solver():
    # independent solve: with support {1, 2} the system {2 c1^2 = 0}
    # forces c1 = 0 and leaves c2 free
    c1, c2 = sympy.symbols("c1 c2")
    solutions = sympy.solve([2 * c1**2], [c1, c2], dict=True)
    assert all(sol[c1] == 0 for sol in solutions)


# ---- structure validity and enumeration ----


def test_structure_valid_examples():
    assert is_structure_valid(_pattern(1, 2, (2,)))
    assert is_structure_valid(_pattern(1, 2))
    assert not is_structure_valid(_pattern(1, 2, (1,)))
    assert is_structure_valid(_pattern(1, 1, (1,)))  # order 1: (1)+(1) is out of range
    assert not is_structure_valid(_pattern(2, 3, (1, 0), (0, 1), (1, 1)))


def test_decomposition_pairs():
    support = {_mi(1, 0), _mi(0, 1), _mi(1, 1)}
    pairs = decomposition_pairs(_mi(1, 1), support)
    assert set(pairs) == {(_mi(1, 0), _mi(0, 1)), (_mi(0, 1), _mi(1, 0))}
    assert decomposition_pairs(_mi(2, 2), support) == [(_mi(1, 1), _mi(1, 1))]
    assert decomposition_pairs(_mi(3, 0), support) == []


def test_enumeration_rank1_order2():
    patterns = enumerate_valid_constant_supports(1, 2)
    supports = [sorted(a.entries for a in p.support) for p in patterns]
    assert supports == [[], [(2,)]]
    assert all(p.to_json()["certificate"] is None for p in patterns)


def test_enumeration_rank1_order3():
    patterns = enumerate_valid_constant_supports(1, 3)
    supports = {tuple(sorted(a.entries for a in p.support)) for p in patterns}
    assert supports == {(), ((2,),), ((3,),), ((2,), (3,))}


def test_enumeration_rank2_order2_counts():
    # valid supports are exactly the subsets of the three height-2 indices
    patterns = enumerate_valid_constant_supports(2, 2)
    assert len(patterns) == 8
    for p in patterns:
        assert all(a.height == 2 for a in p.support)


def test_enumeration_respects_max_support_size():
    patterns = enumerate_valid_constant_supports(2, 2, max_support_size=1)
    assert max(len(p.support) for p in patterns) <= 1
    assert len(patterns) == 4  # empty set plus three singletons


def test_no_certificate_for_forced_square():
    # the oracle's search finds no nonzero constants, and the band rejects both
    for pattern in (_pattern(1, 2, (1,)), _pattern(1, 2, (1,), (2,))):
        assert oracle.certificate_search(pattern) is None
        assert not is_structure_valid(pattern)


def test_certificate_on_band_support_has_no_size_cap():
    # eight band indices at rank 2, order 4: 6^8 assignments, beyond the
    # oracle's capped search; all ones passes the constraint outright
    band = [a.entries for a in enumerate_height_at_most(2, 4) if a.height >= 3]
    pattern = _pattern(2, 4, *band[:8])
    assert is_structure_valid(pattern)
    ones = CoeffFamily.from_constants(2, 4, {a: 1 for a in pattern.support})
    report = check_constraint(ones, Domain.unit(2).sample_points)
    assert report.passed and report.max_residual == 0.0


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_valid_constant_supports(3, 6)


# ---- random families ----


def test_random_family_on_structure_valid_support():
    pattern = _pattern(2, 3, (2, 0), (1, 1), (0, 3))
    cf = random_valid_family(pattern, seed=11)
    assert set(cf.coefficients) == set(pattern.support)
    dom = Domain.unit(2)
    report = check_constraint(cf, dom.sample_points)
    assert report.passed
    assert report.max_residual == 0.0  # every constrained sum is empty


def test_random_family_deterministic():
    pattern = _pattern(1, 3, (2,), (3,))
    a = random_valid_family(pattern, seed=4)
    b = random_valid_family(pattern, seed=4)
    assert a.to_json() == b.to_json()
    c = random_valid_family(pattern, seed=5)
    assert c.to_json() != a.to_json()


def test_random_family_rejects_uncertified_support():
    with pytest.raises(InvalidSupport):
        random_valid_family(_pattern(1, 2, (1,)), seed=0)


def test_support_pattern_json_roundtrip():
    pattern = _pattern(1, 3, (2,), (3,))
    data = pattern.to_json()
    assert data["certificate"] is None
    assert SupportPattern.from_json(data) == pattern


# ---- closed forms against the brute-force oracle ----


def _assert_matches_oracle(pattern: SupportPattern) -> bool:
    """Check the closed forms on one support; return the oracle's admissibility."""
    forced = oracle.forced_zero_fixpoint(pattern)
    admissible = oracle.admissible(pattern, forced)
    assert is_structure_valid(pattern) == oracle.structure_valid(pattern) == admissible
    assert forced_zero_analysis(pattern) == forced
    return admissible


@pytest.mark.parametrize("rank,max_order", [(1, 6), (2, 4), (3, 2)])
def test_closed_forms_match_oracle_on_every_support(rank, max_order):
    for order in range(max_order + 1):
        admissible = [p for p in oracle.all_supports(rank, order) if _assert_matches_oracle(p)]
        # the enumeration lists exactly the oracle's admissible supports,
        # in subset order, each reported with a null certificate
        got = enumerate_valid_constant_supports(rank, order)
        assert [p.support for p in got] == [p.support for p in admissible]
        assert all(p.to_json()["certificate"] is None for p in got)
        for size in (0, 1, 2):
            capped = enumerate_valid_constant_supports(rank, order, max_support_size=size)
            assert [p.support for p in capped] == [
                p.support for p in admissible if len(p.support) <= size
            ]


@st.composite
def _supports(draw):
    rank = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5))
    index_set = [a for a in enumerate_height_at_most(rank, order) if a.height >= 1]
    chosen = draw(st.sets(st.sampled_from(index_set), max_size=8)) if index_set else set()
    return SupportPattern(rank, order, frozenset(chosen))


@settings(max_examples=200, deadline=None)
@given(_supports())
def test_closed_forms_match_oracle_on_random_supports(pattern):
    _assert_matches_oracle(pattern)
