"""Moment sequences on commutative monoids and the exponential constructor."""

from __future__ import annotations

import math
import random

import pytest

from moment_leibniz.multiindex import MultiIndex
from moment_leibniz.semigroup import (
    MomentSeq,
    convolution_terms,
    make_exponential_moment_seq,
    random_probe_pairs,
    reals_additive,
    tampered,
    verify_moment_seq,
)


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _pairs(monoid, count: int, seed: int):
    return random_probe_pairs(monoid, count, random.Random(seed))


# ---- the exponential constructor ----


def test_rank1_rate0_is_binomial_theorem():
    # f_k(x) = x^k: the identity is literally (x+y)^k = sum C(k,j) x^j y^(k-j)
    seq = make_exponential_moment_seq(1, 3, 0.0, [1.0])
    assert seq.value(_mi(2), 3.0) == 9.0
    report = verify_moment_seq(seq, _pairs(seq.monoid, 50, 1), tol=1e-10)
    assert report.passed, report.failures[:1]


def test_pinned_rank2_value():
    # rate 1, scales (1, 2), alpha = (1, 1) at x + y = 0.75:
    # lhs = e^0.75 * 0.75 * 1.5, both sides written out by hand
    seq = make_exponential_moment_seq(2, 2, 1.0, [1.0, 2.0])
    x, y = 0.5, 0.25
    lhs = seq.value(_mi(1, 1), x + y)
    assert lhs == pytest.approx(math.exp(0.75) * 0.75 * 1.5, rel=1e-14)
    rhs = (
        seq.value(_mi(0, 0), x) * seq.value(_mi(1, 1), y)
        + seq.value(_mi(0, 1), x) * seq.value(_mi(1, 0), y)
        + seq.value(_mi(1, 0), x) * seq.value(_mi(0, 1), y)
        + seq.value(_mi(1, 1), x) * seq.value(_mi(0, 0), y)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_exponential_sequences_verify_across_rates():
    rng = random.Random(52)
    for rank in (1, 2, 3):
        for rate in (0.0, 1.0, -1.0):
            scales = [rng.uniform(0.5, 2.0) for _ in range(rank)]
            seq = make_exponential_moment_seq(rank, 3, rate, scales)
            report = verify_moment_seq(seq, _pairs(seq.monoid, 30, rank), tol=1e-10)
            assert report.passed, (rank, rate, report.failures[:1])


def _order0(f0) -> MomentSeq:
    """The order-0 sequence whose only row is multiplicativity of f0."""
    return MomentSeq(1, 0, reals_additive(), {_mi(0): f0})


def test_f0_never_identically_zero():
    seq = make_exponential_moment_seq(1, 2, -1.0, [2.0])
    f0 = seq.functions[_mi(0)]
    probes = _pairs(seq.monoid, 20, 2)
    assert verify_moment_seq(_order0(f0), probes).passed
    assert all(f0(x) != 0.0 for x, _ in probes)


def test_scale_count_checked():
    with pytest.raises(ValueError):
        make_exponential_moment_seq(2, 2, 0.0, [1.0])


# ---- the verifier on hand-built sequences ----


def test_zero_collapse_sequence_passes():
    # f_0 = 0 forces every f_alpha = 0; the all-zero sequence satisfies
    # the identity trivially and the verifier accepts it
    seq = MomentSeq(
        1,
        2,
        reals_additive(),
        {_mi(0): lambda x: 0.0, _mi(1): lambda x: 0.0, _mi(2): lambda x: 0.0},
    )
    report = verify_moment_seq(seq, _pairs(seq.monoid, 10, 3))
    assert report.passed and report.max_residual == 0.0


def test_zero_f0_with_nonzero_tail_fails():
    # f_0 = 0 but f_1 = 1 violates the alpha = 1 instance
    seq = MomentSeq(
        1,
        1,
        reals_additive(),
        {_mi(0): lambda x: 0.0, _mi(1): lambda x: 1.0},
    )
    report = verify_moment_seq(seq, _pairs(seq.monoid, 5, 4))
    assert not report.passed
    assert all(tuple(f["alpha"]) == (1,) for f in report.failures)


def test_nan_sequence_fails():
    # a NaN residual compares False with everything, so "residual > tol"
    # let it through; the shared rule passes only "residual <= tol"
    nan = float("nan")
    seq = MomentSeq(
        1,
        1,
        reals_additive(),
        {_mi(0): lambda x: nan, _mi(1): lambda x: nan},
    )
    report = verify_moment_seq(seq, _pairs(seq.monoid, 3, 6))
    assert not report.passed
    assert len(report.failures) == 6  # every alpha at every probe


def test_nan_sequence_reports_nan_max_residual():
    nan = float("nan")
    seq = MomentSeq(
        1,
        1,
        reals_additive(),
        {_mi(0): lambda x: 1.0, _mi(1): lambda x: nan},
    )
    report = verify_moment_seq(seq, _pairs(seq.monoid, 3, 6))
    assert not report.passed
    assert math.isnan(report.max_residual)


def test_each_function_evaluated_once_per_probe_point():
    # f_alpha is called at x, y and x + y once per probe, not once per
    # convolution term
    base = make_exponential_moment_seq(2, 3, 0.5, [1.0, 1.5])
    calls = dict.fromkeys(base.functions, 0)

    def counted(alpha, fn):
        def f(x):
            calls[alpha] += 1
            return fn(x)

        return f

    seq = MomentSeq(
        2, 3, base.monoid, {a: counted(a, fn) for a, fn in base.functions.items()}
    )
    probes = _pairs(seq.monoid, 7, 8)
    assert verify_moment_seq(seq, probes).passed
    assert set(calls.values()) == {3 * len(probes)}


def test_multiplicativity_is_the_alpha_zero_row():
    # f_0(x) = e^x is multiplicative; x -> x is not.  The identity alone
    # also admits f_0 = 0, the collapse of test_zero_collapse_sequence_passes
    probes = _pairs(reals_additive(), 20, 5)
    assert verify_moment_seq(_order0(math.exp), probes).passed
    assert verify_moment_seq(_order0(lambda x: 1.0), probes).passed
    assert verify_moment_seq(_order0(lambda x: 0.0), probes).passed
    report = verify_moment_seq(_order0(lambda x: x), probes)
    assert not report.passed
    assert {tuple(f["alpha"]) for f in report.failures} == {(0,)}


def test_tamper_detected_at_its_index():
    seq = make_exponential_moment_seq(1, 3, 1.0, [1.5])
    bad = tampered(seq, _mi(2), 1.01)
    probes = _pairs(seq.monoid, 30, 6)
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
        got = [(w, b.entries, c.entries) for w, b, c in convolution_terms(_mi(k))]
        expected = [(math.comb(k, j), (j,), (k - j,)) for j in range(k + 1)]
        assert got == expected


def test_rank1_agrees_with_handwritten_verifier():
    seq = make_exponential_moment_seq(1, 4, 1.0, [0.8])
    probes = _pairs(seq.monoid, 25, 7)
    report = verify_moment_seq(seq, probes, tol=1e-10)
    assert report.passed
    # independent check written directly against the scalar recurrence
    for x, y in probes:
        for k in range(5):
            lhs = seq.value(_mi(k), x + y)
            rhs = sum(
                math.comb(k, j) * seq.value(_mi(j), x) * seq.value(_mi(k - j), y)
                for j in range(k + 1)
            )
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
