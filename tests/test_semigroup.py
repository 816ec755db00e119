"""Moment sequences on the additive reals and the exponential constructor."""

from __future__ import annotations

import math
import random
import re

import pytest

from moment_leibniz import semigroup
from moment_leibniz.funcmodel import NonFiniteValue
from moment_leibniz.multiindex import MultiIndex, enumerate_height_at_most
from moment_leibniz.semigroup import (
    MomentSeq,
    convolution_terms,
    make_exponential_moment_seq,
    random_probe_pairs,
    tampered,
    verify_moment_seq,
)


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _pairs(count: int, seed: int):
    return random_probe_pairs(count, random.Random(seed))


def _f(seq: MomentSeq, alpha: MultiIndex):
    """f_alpha alone, read off the sequence's column at one point."""
    position = enumerate_height_at_most(seq.rank, seq.order).index(alpha)
    return lambda x: seq.values([x])[position][0]


def _pointwise(width: int, row):
    """The column table of a sequence given as a row of ``width`` values per point."""
    return lambda points: [[row(x)[i] for x in points] for i in range(width)]


# ---- the exponential constructor ----


def test_rank1_rate0_is_binomial_theorem():
    # f_k(x) = x^k: the identity is literally (x+y)^k = sum C(k,j) x^j y^(k-j)
    seq = make_exponential_moment_seq(1, 3, 0.0, [1.0])
    assert seq.values([3.0, -1.0]) == [[1.0, 1.0], [3.0, -1.0], [9.0, 1.0], [27.0, -1.0]]
    report = verify_moment_seq(seq, _pairs(50, 1), tol=1e-10)
    assert report.passed, report.failures[:1]


def test_pinned_rank2_value():
    # rate 1, scales (1, 2), alpha = (1, 1) at x + y = 0.75:
    # lhs = e^0.75 * 0.75 * 1.5, both sides written out by hand
    seq = make_exponential_moment_seq(2, 2, 1.0, [1.0, 2.0])
    f = {alpha: _f(seq, alpha) for alpha in enumerate_height_at_most(2, 2)}
    x, y = 0.5, 0.25
    lhs = f[_mi(1, 1)](x + y)
    assert lhs == pytest.approx(math.exp(0.75) * 0.75 * 1.5, rel=1e-14)
    rhs = (
        f[_mi(0, 0)](x) * f[_mi(1, 1)](y)
        + f[_mi(0, 1)](x) * f[_mi(1, 0)](y)
        + f[_mi(1, 0)](x) * f[_mi(0, 1)](y)
        + f[_mi(1, 1)](x) * f[_mi(0, 0)](y)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_exponential_sequences_verify_across_rates():
    rng = random.Random(52)
    for rank in (1, 2, 3):
        for rate in (0.0, 1.0, -1.0):
            scales = [rng.uniform(0.5, 2.0) for _ in range(rank)]
            seq = make_exponential_moment_seq(rank, 3, rate, scales)
            report = verify_moment_seq(seq, _pairs(30, rank), tol=1e-10)
            assert report.passed, (rank, rate, report.failures[:1])


def _order0(f0) -> MomentSeq:
    """The order-0 sequence whose only row is multiplicativity of f0."""
    return MomentSeq(1, 0, lambda points: [[f0(x) for x in points]])


def test_f0_never_identically_zero():
    seq = make_exponential_moment_seq(1, 2, -1.0, [2.0])
    f0 = _f(seq, _mi(0))
    probes = _pairs(20, 2)
    assert verify_moment_seq(_order0(f0), probes).passed
    assert all(f0(x) != 0.0 for x, _ in probes)


def test_scale_count_checked():
    with pytest.raises(ValueError):
        make_exponential_moment_seq(2, 2, 0.0, [1.0])


# ---- the verifier on hand-built sequences ----


def test_zero_collapse_sequence_passes():
    # f_0 = 0 forces every f_alpha = 0; the all-zero sequence satisfies
    # the identity trivially and the verifier accepts it
    seq = MomentSeq(1, 2, lambda points: [[0.0] * len(points) for _ in range(3)])
    report = verify_moment_seq(seq, _pairs(10, 3))
    assert report.passed and report.max_residual == 0.0


def test_zero_f0_with_nonzero_tail_fails():
    # f_0 = 0 but f_1 = 1 violates the alpha = 1 instance
    seq = MomentSeq(1, 1, lambda points: [[0.0] * len(points), [1.0] * len(points)])
    report = verify_moment_seq(seq, _pairs(5, 4))
    assert not report.passed
    assert all(tuple(f["alpha"]) == (1,) for f in report.failures)


def test_nan_sequence_fails():
    # a NaN residual compares False with everything, so "residual > tol"
    # let it through; the shared rule passes only "residual <= tol"
    nan = float("nan")
    seq = MomentSeq(1, 1, lambda points: [[nan] * len(points), [nan] * len(points)])
    report = verify_moment_seq(seq, _pairs(3, 6))
    assert not report.passed
    assert len(report.failures) == 6  # every alpha at every probe


def test_nan_sequence_reports_nan_max_residual():
    nan = float("nan")
    seq = MomentSeq(1, 1, lambda points: [[1.0] * len(points), [nan] * len(points)])
    report = verify_moment_seq(seq, _pairs(3, 6))
    assert not report.passed
    assert math.isnan(report.max_residual)


def test_each_point_list_tabulated_once_per_sweep():
    # the table is asked for once at the probes' x, once at their y and
    # once at their x + y, not once per probe, alpha or convolution term
    base = make_exponential_moment_seq(2, 3, 0.5, [1.0, 1.5])
    requests = []

    def counted(points):
        requests.append(list(points))
        return base.values(points)

    probes = _pairs(7, 8)
    assert verify_moment_seq(MomentSeq(2, 3, counted), probes).passed
    assert requests == [[x for x, _ in probes], [y for _, y in probes], [x + y for x, y in probes]]


@pytest.mark.parametrize(
    "values",
    [
        # alpha 1 at the second probe sums f_0(x) f_1(y) + f_1(x) f_0(y) =
        # inf + -inf, then 1e308 + 1e308; the first probe sums finely
        lambda x: [1.0, math.copysign(math.inf, x + 0.75)],
        lambda x: [1.0, 1e308 if x < 0 else 1.0],
    ],
    ids=["inf-minus-inf", "finite-overflow"],
)
def test_convolution_that_does_not_sum_is_non_finite_value(values):
    # no verdict either way: the error names the instance instead
    seq = MomentSeq(1, 1, _pointwise(2, values))
    with pytest.raises(NonFiniteValue, match=r"^convolution of alpha \(1,\) at probe 1 "):
        verify_moment_seq(seq, [(1.0, 1.0), (-1.0, -0.5)])


def test_sum_error_names_its_alpha_column_and_table_error_passes_through():
    # f_1 is +-inf at +-3 and f_2 at +-7, 1 elsewhere.  Alpha 1 sums
    # f_1(y) + f_1(x), which is inf - inf at probes 2 and 3; alpha 2 sums
    # f_2(y) + 2 f_1(x) f_1(y) + f_2(x), which is inf - inf at probe 0.
    # Sums go one alpha's column at a time, so the error names alpha 1 and
    # the first probe of its column that fails
    def spike(at):
        return lambda x: math.copysign(math.inf, x) if abs(x) == at else 1.0

    f1, f2 = spike(3.0), spike(7.0)

    def row(x):
        if x == 5.0:
            raise OverflowError("no value at 5.0")
        return [1.0, f1(x), f2(x)]

    seq = MomentSeq(1, 2, _pointwise(3, row))
    probes = [(7.0, -7.0), (0.5, 0.5), (3.0, -3.0), (-3.0, 3.0)]
    with pytest.raises(NonFiniteValue, match=r"^convolution of alpha \(1,\) at probe 2 "):
        verify_moment_seq(seq, probes)
    # every value is tabulated before any sum, so a table error is raised
    # as the table raised it, however early a sum would fail
    with pytest.raises(OverflowError, match="^no value at 5.0$"):
        verify_moment_seq(seq, [*probes, (5.0, 0.0)])


def test_weight_past_the_float_range_raises_overflow_error(monkeypatch):
    # such a weight raises as its conversion to a float raised it, not as a
    # sum that fails; the real binomial weights pass the range at order 1030
    def huge(alpha):
        return [(w if w == 1 else 10**400, b, c) for w, b, c in convolution_terms(alpha)]

    monkeypatch.setattr(semigroup, "convolution_terms", huge)
    seq = make_exponential_moment_seq(1, 2, 0.5, [1.0])
    with pytest.raises(OverflowError, match="^int too large to convert to float$"):
        verify_moment_seq(seq, _pairs(3, 1))


def test_terms_are_built_only_up_to_the_first_error(monkeypatch):
    # each alpha's terms are built where they are summed: on the fixture
    # above, a table error comes before any of them, and the sum error at
    # alpha 1 after those of alphas 0 and 1 only
    built = []

    def counted(alpha):
        built.append(tuple(alpha))
        return convolution_terms(alpha)

    monkeypatch.setattr(semigroup, "convolution_terms", counted)

    def spike(at):
        return lambda x: math.copysign(math.inf, x) if abs(x) == at else 1.0

    f1, f2 = spike(3.0), spike(7.0)

    def row(x):
        if x == 5.0:
            raise OverflowError("no value at 5.0")
        return [1.0, f1(x), f2(x)]

    seq = MomentSeq(1, 2, _pointwise(3, row))
    probes = [(7.0, -7.0), (0.5, 0.5), (3.0, -3.0), (-3.0, 3.0)]
    with pytest.raises(OverflowError, match="^no value at 5.0$"):
        verify_moment_seq(seq, [*probes, (5.0, 0.0)])
    assert built == []
    with pytest.raises(NonFiniteValue, match=r"^convolution of alpha \(1,\) at probe 2 "):
        verify_moment_seq(seq, probes)
    assert built == [(0,), (1,)]


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
def test_tolerance_must_be_finite_and_positive(tol):
    # an infinite tolerance passes a tampered sequence and a NaN one fails a
    # genuine one; like a Domain's, such a tolerance is refused before any table
    bad = tampered(make_exponential_moment_seq(2, 4, 0.5, [1.0, 1.5]), _mi(0, 2), 1.01)
    requests = []

    def counted(points):
        requests.append(points)
        return bad.values(points)

    seq, probes = MomentSeq(2, 4, counted), _pairs(20, 0)
    assert not verify_moment_seq(seq, probes, tol=1e-9).passed
    requests.clear()
    with pytest.raises(ValueError, match=rf"^tol must be finite and > 0, got {re.escape(str(tol))}$"):
        verify_moment_seq(seq, probes, tol=tol)
    assert requests == []


def test_table_of_the_wrong_length_is_refused():
    # a table with fewer columns than alphas must not pass on the columns it has
    seq = MomentSeq(1, 2, lambda points: [[math.exp(x) for x in points]])
    with pytest.raises(ValueError):
        verify_moment_seq(seq, _pairs(2, 9))


def test_column_of_the_wrong_length_is_refused():
    # nor may a column with fewer values than points pass on the probes it covers
    seq = MomentSeq(1, 1, lambda points: [[1.0] * len(points), [0.0]])
    with pytest.raises(ValueError):
        verify_moment_seq(seq, _pairs(2, 9))


def test_multiplicativity_is_the_alpha_zero_row():
    # f_0(x) = e^x is multiplicative; x -> x is not.  The identity alone
    # also admits f_0 = 0, the collapse of test_zero_collapse_sequence_passes
    probes = _pairs(20, 5)
    assert verify_moment_seq(_order0(math.exp), probes).passed
    assert verify_moment_seq(_order0(lambda x: 1.0), probes).passed
    assert verify_moment_seq(_order0(lambda x: 0.0), probes).passed
    report = verify_moment_seq(_order0(lambda x: x), probes)
    assert not report.passed
    assert {tuple(f["alpha"]) for f in report.failures} == {(0,)}


def test_tamper_detected_at_its_index():
    seq = make_exponential_moment_seq(1, 3, 1.0, [1.5])
    bad = tampered(seq, _mi(2), 1.01)
    probes = _pairs(30, 6)
    good_report = verify_moment_seq(seq, probes)
    bad_report = verify_moment_seq(bad, probes)
    assert good_report.passed
    assert not bad_report.passed
    assert {tuple(f["alpha"]) for f in bad_report.failures} >= {(2,)}
    with pytest.raises(ValueError):
        tampered(seq, _mi(9), 1.01)


# ---- rank-1 degeneration ----


def test_rank1_terms_match_scalar_binomial_recurrence():
    # term-for-term: the rank-1 convolution at order k is the classical
    # sum over C(k, j) f_j f_{k-j}
    for k in range(0, 5):
        got = [(w, tuple(b), tuple(c)) for w, b, c in convolution_terms(_mi(k))]
        expected = [(math.comb(k, j), (j,), (k - j,)) for j in range(k + 1)]
        assert got == expected


def test_rank1_agrees_with_handwritten_verifier():
    seq = make_exponential_moment_seq(1, 4, 1.0, [0.8])
    probes = _pairs(25, 7)
    report = verify_moment_seq(seq, probes, tol=1e-10)
    assert report.passed
    # independent check written directly against the scalar recurrence
    fx = seq.values([x for x, _ in probes])
    fy = seq.values([y for _, y in probes])
    fxy = seq.values([x + y for x, y in probes])
    for p in range(len(probes)):
        for k in range(5):
            lhs = fxy[k][p]
            rhs = sum(math.comb(k, j) * fx[j][p] * fy[k - j][p] for j in range(k + 1))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
