"""Float verifiers compute each sampled value once, with the same report bytes.

``check_constraint`` and ``verify_moment`` share one leaf table per call,
and ``verify_moment_seq`` sums its convolutions by position over one
column per alpha, tabulated once per sweep.  The loops they replaced,
and the exponential sequence as one closure per f_alpha, live on in
``tests/_sampled_oracle.py`` and ``tests/_moment_oracle.py``; on band and
violating supports, plain and conjugated families, and tampered,
NaN-producing, order-0 and hand-built sequences (NaN, +-inf, 1e308 and
missing values) the reports must match them byte for byte, failure keys
and order included.  Where the loop raises, the column verifier raises
too, the same exception with the same message on every call.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from moment_leibniz.coeffsolve import CoeffFamily, band, check_constraint
from moment_leibniz.funcmodel import (
    Domain,
    FuncExpr,
    PolyLeaf,
    Product,
    Sum,
    TauMap,
    XLogAbs,
    const_expr,
)
from moment_leibniz.momentfam import (
    check_multiplicative,
    conjugate,
    default_probe_pairs,
    make_first_order_leibniz,
    make_identity_generated,
    make_power_sign,
    make_second_order_leibniz,
    verify_moment,
)
from moment_leibniz.multiindex import enumerate_height_at_most
from moment_leibniz.polycalc import Polynomial, random_polynomial
from moment_leibniz.semigroup import (
    MomentSeq,
    make_exponential_moment_seq,
    random_probe_pairs,
    tampered,
    verify_moment_seq,
)

from _moment_oracle import verify_moment_pointwise
from _sampled_oracle import (
    check_constraint_unshared,
    exponential_functions,
    verify_moment_seq_keyed,
)

SAMPLES = 8


def _dumps(report) -> str:
    # no sort_keys: the failure dicts must keep their key order too
    return json.dumps(report.to_json())


def _coefficients(
    rng: random.Random, rank: int, order: int, violating: bool
) -> CoeffFamily:
    """Coefficients on a band subset, plus indices below the band if violating.

    One polynomial object sits in several leaves and a log-bearing sum, so
    a leaf table shared across indices and expressions gets hits.
    """
    admissible = band(rank, order)
    support = rng.sample(admissible, rng.randint(1, len(admissible)))
    below = [a for a in enumerate_height_at_most(rank, order)[1:] if a not in admissible]
    if violating and below:
        support += rng.sample(below, rng.randint(1, len(below)))
    shared = random_polynomial(rng, rank, 2, 3)
    coefficients = {}
    for alpha in support:
        pick = rng.randrange(3)
        if pick == 0:
            expr = PolyLeaf(shared)
        elif pick == 1:
            expr = PolyLeaf(random_polynomial(rng, rank, 2, 3))
        else:
            log_term = XLogAbs(PolyLeaf(random_polynomial(rng, rank, 2, 3)))
            expr = Sum((PolyLeaf(shared), log_term))
        coefficients[alpha] = expr
    return CoeffFamily(rank, order, coefficients)


def _shrink(rng: random.Random, rank: int) -> TauMap:
    """x -> w x + (1 - w)/2 on every axis, which maps (0,1)^r into itself."""
    w = Fraction(rng.randint(1, 7), 8)
    matrix = [[w if i == j else 0 for j in range(rank)] for i in range(rank)]
    return TauMap.affine(matrix, [(1 - w) / 2] * rank)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rank=st.integers(1, 3),
    order=st.integers(1, 4),
    violating=st.booleans(),
    conjugated=st.booleans(),
    probes=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
)
def test_identity_generated_reports_match_unshared_loops(
    rank, order, violating, conjugated, probes, seed
):
    rng = random.Random(seed)
    dom = Domain.unit(rank, n_samples=SAMPLES, seed=seed)
    cf = _coefficients(rng, rank, order, violating)
    report = check_constraint(cf, dom)
    oracle = check_constraint_unshared(cf, dom.sample_points, dom.float_tolerance)
    assert _dumps(report) == _dumps(oracle)
    family = make_identity_generated(cf)
    if conjugated:
        family = conjugate(family, _shrink(rng, rank))
    pairs = default_probe_pairs(dom, probes, rng)
    report = verify_moment(family, pairs, dom, seed=seed)
    # every support is nonempty, so every family carries a log term
    oracle = verify_moment_pointwise(family, pairs, dom, False, seed=seed)
    assert _dumps(report) == _dumps(oracle)


class _Wave(FuncExpr):
    """A float-only node, 1/2 + x_0/4 at each point, which no exact walk reads."""

    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def _eval_points(self, points, path):
        return [0.5 + float(x[0]) / 4 for x in points]

    def to_json(self) -> dict:
        return {"kind": "wave", "dim": self.dim}


def _field(rng: random.Random, dim: int, kinds: str) -> FuncExpr:
    """A random coefficient of one of ``kinds``: a leaf (p), zero (0), a log term (l), the
    float-only node (w), or one that overflows (o): a leaf too large for a float, a
    product past the range, or u ln|u| past it."""

    def leaf():
        return PolyLeaf(random_polynomial(rng, dim, 2, 3))

    kind = rng.choice(kinds)
    if kind == "p":
        return leaf()
    if kind == "0":
        return const_expr(dim, 0)
    if kind == "l":
        return Sum((leaf(), XLogAbs(leaf())))
    if kind == "w":
        return Product((_Wave(dim), leaf()))
    return rng.choice([
        const_expr(dim, 2**1100),
        Product((const_expr(dim, 10**200), _Wave(dim), const_expr(dim, 10**200))),
        XLogAbs(const_expr(dim, 10**308)),
    ])


def _sampled_family(rng: random.Random, kind: str, rank: int, overflow: bool):
    """A family with a log, signed-power or float-only node, and its check: a second-order
    log pair, a log-generated family on any support, a first-order one, or a power-sign
    map, which ``check_multiplicative`` checks."""
    overflows = "o" if overflow else ""
    some = "pp0lw" + overflows
    if kind == "second_order":  # a is nonzero, so T_(2) holds f ln|f| and is sampled
        a = _field(rng, rank, "lw" + overflows)
        b, c = ([_field(rng, rank, some) for _ in range(rank)] for _ in "bc")
        family = make_second_order_leibniz(a, b, c, 2, rank)
    elif kind == "identity":
        order = rng.randint(1, 3)
        alphas = enumerate_height_at_most(rank, order)[1:]
        support = rng.sample(alphas, rng.randint(1, len(alphas)))
        coefficients = {a: _field(rng, rank, some) for a in support}
        family = make_identity_generated(CoeffFamily(rank, order, coefficients))
    elif kind == "first_order":
        family = make_first_order_leibniz(_field(rng, rank, some), rank)
    else:  # an exponent positive at every sample, read through a probe map
        x = Polynomial.variable(rank, 0)
        base = Polynomial.constant(rank, Fraction(rng.randint(1, 12), 4))
        positive = x * x * rng.randint(0, 3) + base
        exponent = rng.choice([_Wave(rank), PolyLeaf(positive)])
        return make_power_sign(exponent, _shrink(rng, rank)), exponent
    return family, None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["second_order", "identity", "first_order", "power_sign"]),
    rank=st.integers(1, 3),
    conjugated=st.booleans(),
    overflow=st.booleans(),
    probes=st.integers(0, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_sampled_families_match_the_per_probe_loop(kind, rank, conjugated, overflow, probes, seed):
    # every tree evaluated once over all the probes' jets, against each
    # probe's substituted trees evaluated alone at one point: the same report
    # bytes, failure order included, or the same exception type where a
    # descriptor overflows (the node named may be another one)
    rng = random.Random(seed)
    dom = Domain.unit(rank, n_samples=SAMPLES, seed=seed)
    family, exponent = _sampled_family(rng, kind, rank, overflow and kind != "power_sign")
    if conjugated:
        family = conjugate(family, _shrink(rng, rank))
    pairs = default_probe_pairs(dom, probes, rng)
    if exponent is not None and not conjugated:  # which reports no seed
        seed = None
        report = _outcome(lambda: check_multiplicative(exponent, family.probe_map, pairs, dom))
    else:
        report = _outcome(lambda: verify_moment(family, pairs, dom, seed=seed))
    oracle = _outcome(lambda: verify_moment_pointwise(family, pairs, dom, False, seed=seed))
    assert report[0] == oracle[0]
    if oracle[0]:
        assert report[1].partition(":")[0] == oracle[1].partition(":")[0]
    else:
        assert report == oracle


def _nan_at_nonnegative(fn):
    return lambda x: fn(x) if x < 0 else math.nan


def _outcome(check) -> tuple:
    """Whether the check raised, and its report's bytes or its exception's type and message."""
    try:
        return False, _dumps(check())
    except Exception as exc:
        return True, f"{type(exc).__name__}: {exc}"


SPECIAL = {
    "nan": [math.nan],
    "inf": [math.inf, -math.inf],
    "1e308": [1e308, -1e308],
    "all": [math.nan, math.inf, -math.inf, 1e308, -1e308],
}


def _hand_built(rng: random.Random, alphas, special: str, density: float):
    """One function per alpha, whose value depends on the eighth of a unit that |x| falls in.

    Each of its four values is an entry of ``SPECIAL[special]`` with
    probability ``density``, and no value at all (an OverflowError naming
    x) with a tenth of that; the rest are finite and moderate.
    """

    def make(entries):
        def f(x):
            entry = entries[int(abs(x) * 8) % len(entries)]
            if entry is None:
                raise OverflowError(f"no value at {x!r}")
            return entry

        return f

    def entry():
        u = rng.random()
        if u < density / 10:
            return None
        return rng.choice(SPECIAL[special]) if u < density else rng.uniform(-2.0, 2.0)

    return {alpha: make([entry() for _ in range(4)]) for alpha in alphas}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rank=st.integers(1, 3),
    order=st.integers(0, 4),
    variant=st.sampled_from(["exponential", "tampered", "nan"]),
    rate=st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    probes=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_verify_moment_seq_matches_keyed_loop(rank, order, variant, rate, probes, seed):
    # the value columns against one closure per f_alpha, each evaluated alone
    rng = random.Random(seed)
    scales = [rng.uniform(0.5, 2.0) for _ in range(rank)]
    seq = make_exponential_moment_seq(rank, order, rate, scales)
    functions = exponential_functions(rank, order, rate, scales)
    alphas = enumerate_height_at_most(rank, order)
    alpha = rng.choice(alphas)
    if variant == "tampered":
        seq = tampered(seq, alpha, 1.01)
        original = functions[alpha]
        functions[alpha] = lambda x: 1.01 * original(x)
    elif variant == "nan":
        position, table = alphas.index(alpha), seq.values

        def values(points):
            columns = table(points)
            columns[position] = [
                v if x < 0 else math.nan for v, x in zip(columns[position], points)
            ]
            return columns

        seq = MomentSeq(rank, order, values)
        functions[alpha] = _nan_at_nonnegative(functions[alpha])
    pairs = random_probe_pairs(probes, rng)
    report = verify_moment_seq(seq, pairs, seed=seed)
    oracle = verify_moment_seq_keyed(rank, order, functions, pairs, seed=seed)
    assert _dumps(report) == _dumps(oracle)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rank=st.integers(1, 3),
    order=st.integers(0, 4),
    special=st.sampled_from(sorted(SPECIAL)),
    density=st.sampled_from([0.05, 0.2, 0.5]),
    probes=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_hand_built_columns_match_keyed_loop(rank, order, special, density, probes, seed):
    # columns read off one function per alpha, against the same functions
    # evaluated alone at one point: the same report bytes (NaN residuals
    # included) whenever the keyed loop returns.  Both raise or neither
    # does; the column verifier's error may be another than the keyed
    # loop meets first, but a second call raises it again
    rng = random.Random(seed)
    alphas = enumerate_height_at_most(rank, order)
    functions = _hand_built(rng, alphas, special, density)
    by_position = [functions[a] for a in alphas]
    seq = MomentSeq(rank, order, lambda points: [[f(x) for x in points] for f in by_position])
    pairs = random_probe_pairs(probes, rng)
    report = _outcome(lambda: verify_moment_seq(seq, pairs, seed=seed))
    oracle = _outcome(lambda: verify_moment_seq_keyed(rank, order, functions, pairs, seed=seed))
    assert report[0] == oracle[0]
    if not oracle[0]:
        assert report == oracle
    assert _outcome(lambda: verify_moment_seq(seq, pairs, seed=seed)) == report
