"""Generalized moment sequences on the additive reals.

A rank-r moment sequence assigns to each multi-index alpha with
|alpha| <= N a function f_alpha on R, subject to

    f_alpha(x + y) = sum_{beta <= alpha} C(alpha, beta) f_beta(x) f_{alpha-beta}(y),

whose alpha = 0 instance says f_0 turns sums into products.  On (R, +)
the sequences

    f_alpha(x) = exp(rate * x) * prod_i (scales[i] * x)^{alpha_i}

satisfy the identity by the per-coordinate binomial theorem; the rank-1
case is the classical power-times-exponential recurrence.  Probe pairs
are drawn uniformly from [-2, 2].  A sequence is a value table over a
list of points: one column per alpha, in ``enumerate_height_at_most``
order, holding f_alpha at every point.  The verifier tabulates the x, y
and x + y of a sweep's probes once; then, in one pass per alpha, it
takes the split products of ``funcmodel.convolution_products`` over
``multiindex.convolution_terms``, adds each probe's products with
``math.fsum`` in split order, judges the alpha's column of instances
with ``funcmodel.judge_column`` and records its failures; those of all
alphas are listed in (probe, alpha) order.  A table error, such as a
power past the float range, passes through before any product is
built; then, alpha by alpha, comes a weight too large for a float
(``OverflowError``) or a sum that overflows, which is no verdict: its
error names the alpha and its first failing probe.
"""

from __future__ import annotations

import math
import operator
import random
from typing import Callable, List, Optional, Sequence, Tuple

from .multiindex import MultiIndex, check_tolerance, convolution_terms, enumerate_height_at_most
from .funcmodel import CheckReport, NonFiniteValue, convolution_products
from .funcmodel import judge_column, worse

Columns = List[List[float]]


class MomentSeq:
    """A candidate moment sequence: ``values(points)`` is a new list of columns.

    One column per |alpha| <= N, in ``enumerate_height_at_most`` order,
    holds f_alpha at each of the points.
    """

    def __init__(self, rank: int, order: int, values: Callable[[Sequence[float]], Columns]) -> None:
        self.rank = rank
        self.order = order
        self.values = values


def make_exponential_moment_seq(
    rank: int,
    order: int,
    rate: float,
    scales: Sequence[float],
) -> MomentSeq:
    """The exponential sequences on (R, +).

    f_alpha(x) = exp(rate*x) * prod_i (scales[i]*x)^{alpha_i}; f_0 is the
    exponential itself (never identically zero), and the identity holds
    because each coordinate contributes one scalar binomial expansion of
    (scales[i]*(x+y))^{alpha_i}.  The exp column and each power column are
    computed once; each alpha's column is exp * p_0[alpha_0] * p_1[alpha_1] * ...
    """
    if len(scales) != rank:
        raise ValueError(f"need {rank} scales, got {len(scales)}")
    scales = tuple(float(s) for s in scales)
    # per coordinate, the heights of the prefixes it extends, in enumerate_height_at_most order
    heights = [[0]] + [[a.height for a in enumerate_height_at_most(i, order)] for i in range(1, rank)]
    widths = [[order + 1 - h for h in hs] for hs in heights]

    def values(points: Sequence[float]) -> Columns:
        columns = [[math.exp(rate * x) for x in points]]
        for s, counts in zip(scales, widths):
            powers = [[(s * x) ** k for x in points] for k in range(order + 1)]
            columns = [
                list(map(operator.mul, column, power))
                for column, n in zip(columns, counts)
                for power in powers[:n]
            ]
        return columns

    return MomentSeq(rank, order, values)


def verify_moment_seq(
    seq: MomentSeq,
    probes: Sequence[Tuple[float, float]],
    tol: float = 1e-10,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check the convolution identity on probe pairs of reals.

    ``tol`` must be finite and > 0; another raises ValueError before any
    table is built.  Residuals follow ``funcmodel.judge_column``, one
    alpha's column of probes at a time: |lhs - rhs| / (1 + |lhs|),
    passing when <= tol, so NaN fails; the alpha = 0 row is plain
    multiplicativity of f_0.  Failures are listed in (probe, alpha) order.
    """
    check_tolerance("tol", tol)
    alphas = enumerate_height_at_most(seq.rank, seq.order)
    vx = _table(seq, [x for x, _ in probes], alphas)
    vy = _table(seq, [y for _, y in probes], alphas)
    lhs = _table(seq, [x + y for x, y in probes], alphas)
    failures: List[dict] = []
    max_residual = 0.0
    for alpha, left in lhs.items():
        products = convolution_products(vx, vy, convolution_terms(alpha))
        sums: List[float] = []
        try:
            for row in zip(*products):
                sums.append(math.fsum(row))
        except (OverflowError, ValueError) as exc:  # inf - inf, or past the range
            msg = f"convolution of alpha {tuple(alpha)} at probe {len(sums)} does not sum: {exc}"
            raise NonFiniteValue(msg) from exc
        residuals, worst, failing = judge_column(left, sums, tol)
        max_residual = worse(max_residual, worst)
        for k in failing:
            x, y = probes[k]
            failures.append(
                {
                    "alpha": alpha.to_json(),
                    "probe": k,
                    "x": x,
                    "y": y,
                    "lhs": left[k],
                    "rhs": sums[k],
                    "residual": residuals[k],
                }
            )
    # listed alpha by alpha: a stable sort by probe gives the (probe, alpha) order
    failures.sort(key=operator.itemgetter("probe"))
    return CheckReport(
        check="moment_sequence",
        passed=not failures,
        max_residual=max_residual,
        tolerance=tol,
        failures=failures,
        counts={"probes": len(probes), "alphas": len(alphas)},
        seed=seed,
    )


def _table(seq: MomentSeq, points: List[float], alphas: List[MultiIndex]) -> dict:
    """The sequence's column of ``len(points)`` values for each alpha, keyed by alpha."""
    columns = seq.values(points)
    if len(columns) != len(alphas) or any(len(column) != len(points) for column in columns):
        raise ValueError(f"sequence table is not {len(alphas)} columns of {len(points)} values")
    return dict(zip(alphas, columns))


def tampered(seq: MomentSeq, alpha: MultiIndex, scale: float) -> MomentSeq:
    """Copy of the sequence with f_alpha multiplied by ``scale``."""
    alphas = enumerate_height_at_most(seq.rank, seq.order)
    if alpha not in alphas:
        raise ValueError(f"sequence has no index {tuple(alpha)}")
    position, original = alphas.index(alpha), seq.values

    def values(points: Sequence[float]) -> Columns:
        columns = original(points)
        columns[position] = [v * scale for v in columns[position]]
        return columns

    return MomentSeq(seq.rank, seq.order, values)


def random_probe_pairs(count: int, rng: random.Random) -> List[Tuple[float, float]]:
    """``count`` pairs of reals drawn uniformly from [-2, 2], x before y."""
    return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(count)]
