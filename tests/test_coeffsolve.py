"""Coefficient families, the bilinear constraint, and support analysis."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moment_leibniz import polycalc
from moment_leibniz.multiindex import (
    MultiIndex,
    binom,
    enumerate_below,
    enumerate_height_at_most,
)
from moment_leibniz.polycalc import Polynomial, RationalPoint, eval_poly, random_polynomial
from moment_leibniz.funcmodel import (
    Domain,
    NonFiniteValue,
    PolyLeaf,
    Product,
    TauMap,
    XLogAbs,
    as_polynomial,
    const_expr,
    eval_expr,
    witness_float,
)
from moment_leibniz.coeffsolve import (
    BudgetExceeded,
    CoeffFamily,
    InvalidSupport,
    check_constraint,
    constraint_indices,
    enumerate_valid_constant_supports,
    forced_zero_analysis,
    random_valid_family,
    support_json,
)

import _coeff_oracle as oracle
from _coeff_oracle import decomposition_pairs


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _support(*indices) -> frozenset:
    return frozenset(_mi(*i) for i in indices)


def _sympy_constraint_sums(support, rank: int, order: int):
    """Independent expansion of every constrained bilinear sum.

    Builds sympy symbols c_beta for the support and literally expands
    sum C(alpha, beta) c_beta c_{alpha-beta}; the toolkit's analysis
    must agree with what these polynomials force.
    """
    syms = {a: sympy.Symbol(f"c_{'_'.join(map(str, a))}") for a in support}
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


@pytest.mark.parametrize(
    "rank,order,message",
    [
        (1, 2.5, "order must be an integer, got 2.5"),
        (1, -1, "order must be >= 0, got -1"),
        (1, True, "order must be an integer, got True"),
        ("x", 2, "rank must be an integer, got 'x'"),
        (0, 2, "rank must be >= 1, got 0"),
    ],
)
@pytest.mark.parametrize("coefficients", [{}, {(1,): const_expr(1, 1)}], ids=["empty", "one"])
def test_family_rank_and_order_are_checked_first(rank, order, message, coefficients):
    # refused when built, before any index is compared with them
    with pytest.raises(ValueError, match=message):
        CoeffFamily(rank, order, coefficients)


def test_family_value_defaults_to_zero():
    cf = CoeffFamily.from_constants(1, 3, {(2,): 7})
    dom = Domain.unit(1)
    x = dom.sample_points[0]
    assert eval_expr(cf.coefficients[_mi(2)], (x,))[0] == 7.0
    assert cf.coefficients.get(_mi(1)) is None
    assert cf.coefficients.get(_mi(3)) is None


def test_family_json_roundtrip():
    cf = CoeffFamily(
        2,
        2,
        {
            (1, 0): PolyLeaf(Polynomial.variable(2, 1)),
            (0, 2): PolyLeaf(Polynomial.constant(2, Fraction(1, 3))),
        },
    )
    data = cf.to_json()
    assert data["kind"] == "identity_generated"
    assert (data["r"], data["N"]) == (2, 2)
    assert [item["index"] for item in data["coefficients"]] == [[0, 2], [1, 0]]
    back = CoeffFamily.from_json(data)
    assert back.rank == 2 and back.order == 2
    assert set(back.coefficients) == set(cf.coefficients)
    assert back.to_json() == data


# ---- the constraint check ----


def test_constraint_pinned_violation():
    # r = 1, N = 2, c_1 = 1: the alpha = 2 sum is C(2,1) c_1^2 = 2
    cf = CoeffFamily.from_constants(1, 2, {(1,): 1})
    dom = Domain.unit(1)
    report = check_constraint(cf, dom)
    assert not report.passed
    assert report.max_residual == 2.0
    assert report.failures[0]["alpha"] == [2]
    with pytest.raises(ValueError, match="domain rank 2, coefficients rank 1"):
        check_constraint(cf, Domain.unit(2))


def test_constraint_overflow_names_the_first_node_in_alpha_split_order():
    # alpha (1,3) is the first sum of both c_(0,3) and c_(1,0).  c_(0,3) =
    # 2^1030 x_1^20 overflows only where x_1 > 0.81: not at the first seed-0
    # sample (x_1 = 25/64), but at the second.  c_(1,0) overflows at every
    # sample, under a product.  Each coefficient is evaluated over all the
    # samples, in split order, so c_(0,3), first among the splits, is the
    # first to overflow, although c_(1,0) fails at an earlier sample.
    cf = CoeffFamily(
        2,
        4,
        {
            _mi(0, 3): PolyLeaf(Polynomial.monomial((0, 20), 2**1030)),
            _mi(1, 0): Product((const_expr(2, 1), const_expr(2, 2**1100))),
        },
    )
    dom = Domain.unit(2)
    assert dom.sample_points[0][1] == Fraction(25, 64)
    with pytest.raises(NonFiniteValue) as err:
        check_constraint(cf, dom)
    assert str(err.value) == "overflow converting exact value at root"


def test_constraint_passes_on_sparse_support():
    cf = CoeffFamily.from_constants(1, 2, {(2,): 7})
    dom = Domain.unit(1)
    report = check_constraint(cf, dom)
    assert report.passed
    assert report.max_residual == 0.0


def test_height_one_imposes_nothing():
    # at order 1 there are no constrained alphas at all
    cf = CoeffFamily.from_constants(1, 1, {(1,): 5})
    assert constraint_indices(1, 1) == []
    dom = Domain.unit(1)
    assert check_constraint(cf, dom).passed


def test_constraint_below_band_without_expansion_is_judged_on_the_samples():
    # c_1 = u ln|u| at u = 1 is 0 at every sample, and a coefficient with no
    # polynomial expansion gets no below-band witness, so the check passes
    cf = CoeffFamily(1, 2, {_mi(1): XLogAbs(const_expr(1, 1))})
    dom = Domain.unit(1)
    report = check_constraint(cf, dom)
    assert report.passed
    assert report.max_residual == 0.0
    # at u = 2, c_1 = 2 ln 2 and the alpha = 2 sum is C(2,1) (2 ln 2)^2 at every sample
    cf = CoeffFamily(1, 2, {_mi(1): XLogAbs(const_expr(1, 2))})
    report = check_constraint(cf, dom)
    expected = 2 * (2 * math.log(2)) ** 2
    assert not report.passed
    assert [f["alpha"] for f in report.failures] == [[2]] * len(dom.sample_points)
    assert [f["value"] for f in report.failures] == [pytest.approx(expected)] * len(dom.sample_points)
    assert report.max_residual == pytest.approx(3.84, abs=0.005)


def test_constraint_sums_match_hand_expansion():
    # c_(1,0) = t, c_(0,1) = -t: the three order-2 sums are 2t^2, -2t^2
    # and 2t^2, all nonzero strictly inside the box
    t = Polynomial.variable(2, 0)
    cf = CoeffFamily(2, 2, {(1, 0): PolyLeaf(t), (0, 1): PolyLeaf(-1 * t)})
    dom = Domain.unit(2)
    report = check_constraint(cf, dom)
    assert not report.passed
    bad_alphas = {tuple(f["alpha"]) for f in report.failures}
    assert bad_alphas == {(2, 0), (1, 1), (0, 2)}
    for failure in report.failures:
        tval = float(Fraction(failure["point"][0]))
        expected = 2 * tval * tval
        if tuple(failure["alpha"]) == (1, 1):
            expected = -expected
        assert failure["value"] == pytest.approx(expected, rel=1e-12)


@st.composite
def _polynomial_families(draw):
    """A family on any support, r <= 2 and N <= 4, each coefficient a small
    polynomial or the zero polynomial."""
    rank = draw(st.integers(1, 2))
    order = draw(st.integers(1, 4))
    index_set = [a for a in enumerate_height_at_most(rank, order) if a.height >= 1]
    support = draw(st.lists(st.sampled_from(index_set), unique=True))
    rng = random.Random(draw(st.integers(0, 2**31 - 1)))
    coefficients = {
        alpha: PolyLeaf(
            random_polynomial(rng, rank, max_degree=2, terms=3, coeff_bound=4)
            if draw(st.booleans())
            else Polynomial.zero(rank)
        )
        for alpha in support
    }
    return CoeffFamily(rank, order, coefficients)


@settings(max_examples=150, deadline=None)
@given(_polynomial_families(), st.integers(0, 2**31 - 1))
def test_polynomial_constraint_passes_exactly_when_below_band_is_zero(cf, seed):
    below = forced_zero_analysis(cf.order, cf.coefficients)
    report = check_constraint(cf, Domain.unit(cf.rank, seed=seed))
    assert report.passed == all(as_polynomial(cf.coefficients[a]).is_zero() for a in below)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 2**31 - 1))
def test_coefficient_vanishing_on_the_samples_fails_at_twice_gamma(data, seed):
    # c_gamma = K prod_k (x_0 - s_k) over the samples s_k: every sampled sum
    # is exactly 0.0, so the failure is the grid witness at alpha = 2 gamma
    rank = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(2, 4))
    below = [a for a in enumerate_height_at_most(rank, order) if 1 <= 2 * a.height <= order]
    gamma = data.draw(st.sampled_from(below))
    dom = Domain.unit(rank, seed=seed)
    c = Polynomial.constant(rank, data.draw(st.integers(1, 10**8)))
    for s in dom.sample_points:
        c = c * (Polynomial.variable(rank, 0) - Polynomial.constant(rank, s[0]))
    report = check_constraint(CoeffFamily(rank, order, {gamma: PolyLeaf(c)}), dom)
    assert not report.passed
    [failure] = report.failures
    assert failure["alpha"] == (gamma + gamma).to_json()
    point = RationalPoint.from_json(failure["point"])
    assert point not in dom.sample_points and eval_poly(c, point) != 0
    assert failure["value"] == witness_float(binom(gamma + gamma, gamma) * eval_poly(c, point) ** 2)
    assert report.max_residual == abs(failure["value"]) > 0


def _box_map(data, rank: int) -> TauMap:
    """x_i -> b_i + w_i x_(p(i)) with 0 <= w_i <= 6/8: the box into itself, w_i = 0 included."""
    perm = data.draw(st.permutations(range(rank)))
    matrix = [[Fraction(0)] * rank for _ in range(rank)]
    offset = []
    for i in range(rank):
        w = Fraction(data.draw(st.integers(0, 6)), 8)
        matrix[i][perm[i]] = w
        offset.append(Fraction(data.draw(st.integers(1, 7 - int(w * 8))), 8))
    return TauMap.affine(matrix, offset)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 2**31 - 1))
def test_conjugate_constraint_is_the_inner_one_at_the_mapped_samples(data, seed):
    # under a map the coefficients are read at tau(x): where the sample sums
    # fail, the report is the one over a Domain of the mapped samples, bit for
    # bit, with each failure naming the sample x
    rank = data.draw(st.integers(1, 2))
    order = data.draw(st.integers(2, 4))
    rng = random.Random(seed)
    indices = enumerate_height_at_most(rank, order)[1:]
    support = rng.sample(indices, rng.randint(1, len(indices)))
    coefficients = {}
    for a in support:
        p = PolyLeaf(random_polynomial(rng, rank, 2, 3))
        log = PolyLeaf(random_polynomial(rng, rank, 2, 3))
        coefficients[a] = Product((p, XLogAbs(log))) if rng.random() < 0.5 else p
    cf = CoeffFamily(rank, order, coefficients)
    dom = Domain.unit(rank, seed=seed)
    tau = _box_map(data, rank)
    mapped = Domain(rank, tuple(map(tau, dom.sample_points)))
    inner = check_constraint(cf, mapped)
    # a failure at a sample, so not the grid witness, which is read at x
    images = [y.to_json() for y in mapped.sample_points]
    assume(inner.failures and inner.failures[0]["point"] in images)
    report = check_constraint(cf, dom, tau)
    assert [(f["alpha"], f["value"]) for f in report.failures] == [
        (f["alpha"], f["value"]) for f in inner.failures
    ]
    assert [tau(RationalPoint.from_json(f["point"])).to_json() for f in report.failures] == [
        f["point"] for f in inner.failures
    ]
    assert report.max_residual == inner.max_residual


def test_constraint_refuses_a_map_that_leaves_the_box():
    # x -> 2x sends the seed-0 sample 55/64 to 55/32; the map is refused before
    # any coefficient is evaluated: violating, admissible or overflowing
    dom = Domain.unit(1)
    double = TauMap((Polynomial.variable(1, 0) * 2,))
    message = r"^sample \['55/64'\] maps to \['55/32'\], outside the box$"
    for values in ({(1,): 1}, {(2,): 1}, {(1,): 2**1100}):
        with pytest.raises(ValueError, match=message):
            check_constraint(CoeffFamily.from_constants(1, 2, values), dom, double)


# ---- forced zeros ----


def test_forced_zero_rank1():
    assert forced_zero_analysis(2, _support((1,), (2,))) == frozenset({_mi(1)})


def test_forced_zero_rank2_full_height_one():
    support = _support((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    forced = forced_zero_analysis(2, support)
    assert forced == frozenset({_mi(1, 0), _mi(0, 1)})


def test_forced_zero_empty_when_squares_unreachable():
    # every |beta| > N/2, so 2*beta is out of range
    assert forced_zero_analysis(2, _support((2, 0), (1, 1), (0, 2))) == frozenset()


def test_forced_zero_fixpoint_cascades():
    # removing (1,) leaves (2,) with a sole square at (4,)
    forced = forced_zero_analysis(4, _support((1,), (2,)))
    assert forced == frozenset({_mi(1), _mi(2)})


def test_forced_zero_matches_sympy_expansion():
    # the brute-force expansions confirm both pinned cases: each forced
    # index has its diagonal constraint equal to a single square term
    for rank, support, expect in [
        (1, _support((1,), (2,)), {_mi(1)}),
        (2, _support((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), {_mi(1, 0), _mi(0, 1)}),
    ]:
        syms, sums = _sympy_constraint_sums(support, rank, 2)
        forced = forced_zero_analysis(2, support)
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


# ---- admissibility and enumeration ----


def test_structure_valid_examples():
    # a support is admissible exactly when nothing in it is forced
    assert forced_zero_analysis(2, _support((2,))) == frozenset()
    assert forced_zero_analysis(2, _support()) == frozenset()
    assert forced_zero_analysis(2, _support((1,))) == _support((1,))
    assert forced_zero_analysis(1, _support((1,))) == frozenset()  # order 1: (1)+(1) is out of range
    assert forced_zero_analysis(3, _support((1, 0), (0, 1), (1, 1))) == _support((1, 0), (0, 1))


def test_decomposition_pairs():
    support = {_mi(1, 0), _mi(0, 1), _mi(1, 1)}
    pairs = decomposition_pairs(_mi(1, 1), support)
    assert set(pairs) == {(_mi(1, 0), _mi(0, 1)), (_mi(0, 1), _mi(1, 0))}
    assert decomposition_pairs(_mi(2, 2), support) == [(_mi(1, 1), _mi(1, 1))]
    assert decomposition_pairs(_mi(3, 0), support) == []


def test_enumeration_rank1_order2():
    supports = enumerate_valid_constant_supports(1, 2)
    assert supports == [(), (_mi(2),)]
    assert all(support_json(1, 2, s)["certificate"] is None for s in supports)


def test_enumeration_rank1_order3():
    supports = enumerate_valid_constant_supports(1, 3)
    assert supports == [(), ((2,),), ((3,),), ((2,), (3,))]


def test_enumeration_rank2_order2_counts():
    # valid supports are exactly the subsets of the three height-2 indices
    supports = enumerate_valid_constant_supports(2, 2)
    assert len(supports) == 8
    for s in supports:
        assert all(a.height == 2 for a in s)


def test_enumeration_respects_max_support_size():
    supports = enumerate_valid_constant_supports(2, 2, max_support_size=1)
    assert max(len(s) for s in supports) <= 1
    assert len(supports) == 4  # empty set plus three singletons


def test_no_certificate_for_forced_square():
    # the oracle's search finds no nonzero constants, and the band rejects both
    for support in (_support((1,)), _support((1,), (2,))):
        assert oracle.certificate_search(1, 2, support) is None
        assert forced_zero_analysis(2, support) == _support((1,))


def test_certificate_on_band_support_has_no_size_cap():
    # eight band indices at rank 2, order 4: 6^8 assignments, beyond the
    # oracle's capped search; all ones passes the constraint outright
    band = [tuple(a) for a in enumerate_height_at_most(2, 4) if a.height >= 3]
    support = _support(*band[:8])
    assert forced_zero_analysis(4, support) == frozenset()
    ones = CoeffFamily.from_constants(2, 4, {a: 1 for a in support})
    report = check_constraint(ones, Domain.unit(2))
    assert report.passed and report.max_residual == 0.0


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        enumerate_valid_constant_supports(3, 6)


# ---- random families ----


def test_random_family_on_structure_valid_support():
    cf, support = random_valid_family(2, 3, [(2, 0), (1, 1), (0, 3)], seed=11)
    # band order: height, then entries
    assert support == (_mi(1, 1), _mi(2, 0), _mi(0, 3))
    assert set(cf.coefficients) == set(support)
    dom = Domain.unit(2)
    report = check_constraint(cf, dom)
    assert report.passed
    assert report.max_residual == 0.0  # every constrained sum is empty


def test_random_family_deterministic():
    a, _ = random_valid_family(1, 3, [(2,), (3,)], seed=4)
    b, _ = random_valid_family(1, 3, [(2,), (3,)], seed=4)
    assert a.to_json() == b.to_json()
    c, _ = random_valid_family(1, 3, [(2,), (3,)], seed=5)
    assert c.to_json() != a.to_json()
    # the draw order is the band order, whatever order and repeats are given
    d, support = random_valid_family(1, 3, [(3,), (2,), (3,)], seed=4)
    assert support == (_mi(2), _mi(3))
    assert d.to_json() == a.to_json()


def test_random_family_rejects_uncertified_support():
    with pytest.raises(InvalidSupport):
        random_valid_family(1, 2, [(1,)], seed=0)
    # indices of the wrong rank or above the order are CoeffFamily's to refuse
    with pytest.raises(ValueError, match="rank"):
        random_valid_family(1, 2, [(1, 1)], seed=0)
    with pytest.raises(ValueError, match="outside"):
        random_valid_family(1, 2, [(3,)], seed=0)


def test_random_family_draws_nothing_for_a_support_below_the_band(monkeypatch):
    drawn = []

    def counted(*args, **kwargs):
        drawn.append(args)
        return random_polynomial(*args, **kwargs)

    monkeypatch.setattr(polycalc, "random_polynomial", counted)
    with pytest.raises(InvalidSupport):
        random_valid_family(3, 4, [(1, 0, 0), (2, 1, 0), (0, 0, 3), (4, 0, 0)], seed=0)
    assert drawn == []
    random_valid_family(3, 4, [(2, 1, 0), (0, 0, 3)], seed=0)
    assert len(drawn) == 2


def test_support_pattern_json_roundtrip():
    support = (_mi(2), _mi(3))
    data = support_json(1, 3, support)
    assert data == {"rank": 1, "order": 3, "support": [[2], [3]], "certificate": None}
    assert tuple(MultiIndex(a) for a in data["support"]) == support


# ---- closed forms against the brute-force oracle ----


def _assert_matches_oracle(rank: int, order: int, support) -> bool:
    """Check the closed forms on one support; return the oracle's admissibility."""
    forced = oracle.forced_zero_fixpoint(order, support)
    admissible = oracle.admissible(rank, order, support, forced)
    analysis = forced_zero_analysis(order, support)
    assert (not analysis) == oracle.structure_valid(order, support) == admissible
    assert analysis == forced
    return admissible


@pytest.mark.parametrize("rank,max_order", [(1, 6), (2, 4), (3, 2)])
def test_closed_forms_match_oracle_on_every_support(rank, max_order):
    for order in range(max_order + 1):
        admissible = [
            s for s in oracle.all_supports(rank, order) if _assert_matches_oracle(rank, order, s)
        ]
        # the enumeration lists exactly the oracle's admissible supports,
        # in subset order and each in band order, with a null certificate
        got = enumerate_valid_constant_supports(rank, order)
        assert got == admissible
        assert all(support_json(rank, order, s)["certificate"] is None for s in got)
        for size in (0, 1, 2):
            capped = enumerate_valid_constant_supports(rank, order, max_support_size=size)
            assert capped == [s for s in admissible if len(s) <= size]


@st.composite
def _supports(draw):
    rank = draw(st.integers(1, 3))
    order = draw(st.integers(0, 5))
    index_set = [a for a in enumerate_height_at_most(rank, order) if a.height >= 1]
    chosen = draw(st.sets(st.sampled_from(index_set), max_size=8)) if index_set else set()
    return rank, order, frozenset(chosen)


@settings(max_examples=200, deadline=None)
@given(_supports())
def test_closed_forms_match_oracle_on_random_supports(case):
    _assert_matches_oracle(*case)
