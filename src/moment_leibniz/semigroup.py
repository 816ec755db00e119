"""Generalized moment sequences on the additive reals.

A rank-r moment sequence assigns to each multi-index alpha with
|alpha| <= N a function f_alpha on R, subject to

    f_alpha(x + y) = sum_{beta <= alpha} C(alpha, beta) f_beta(x) f_{alpha-beta}(y),

whose alpha = 0 instance says f_0 turns sums into products.  On (R, +)
the sequences

    f_alpha(x) = exp(rate * x) * prod_i (scales[i] * x)^{alpha_i}

satisfy the identity by the per-coordinate binomial theorem; the rank-1
case is the classical power-times-exponential recurrence.  Probe pairs
are drawn uniformly from [-2, 2].  A sequence is a value table per point,
every f_alpha(x) in ``enumerate_height_at_most`` order; the verifier takes
the tables at x, y and x + y once per probe, sums each alpha's
``multiindex.convolution_terms`` by position in them, and judges each
instance with ``funcmodel.judge`` (a sum that overflows is no verdict).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .multiindex import MultiIndex, convolution_terms, enumerate_height_at_most
from .funcmodel import CheckReport, NonFiniteValue, judge, worse


@dataclass
class MomentSeq:
    """A candidate moment sequence: ``values(x)`` is a new list of each f_alpha(x), |alpha| <= N."""

    rank: int
    order: int
    values: Callable[[float], List[float]]


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
    (scales[i]*(x+y))^{alpha_i}.  Per point, exp(rate*x) and each power are
    computed once; each table entry is exp * p_0[alpha_0] * p_1[alpha_1] * ...
    """
    if len(scales) != rank:
        raise ValueError(f"need {rank} scales, got {len(scales)}")
    scales = tuple(float(s) for s in scales)
    # per coordinate, the heights of the prefixes it extends, in enumerate_height_at_most order
    heights = [[0]] + [[a.height for a in enumerate_height_at_most(i, order)] for i in range(1, rank)]
    widths = [[order + 1 - h for h in hs] for hs in heights]

    def values(x: float) -> List[float]:
        row = [math.exp(rate * x)]
        for s, counts in zip(scales, widths):
            powers = [(s * x) ** k for k in range(order + 1)]
            row = [v * p for v, n in zip(row, counts) for p in powers[:n]]
        return row

    return MomentSeq(rank, order, values)


def verify_moment_seq(
    seq: MomentSeq,
    probes: Sequence[Tuple[float, float]],
    tol: float = 1e-10,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check the convolution identity on probe pairs of reals.

    Residuals follow ``funcmodel.judge``: |lhs - rhs| / (1 + |lhs|),
    passing when <= tol, so NaN fails; the alpha = 0 row is plain
    multiplicativity of f_0.
    """
    failures: List[dict] = []
    max_residual = 0.0
    alphas = enumerate_height_at_most(seq.rank, seq.order)
    position = {alpha: i for i, alpha in enumerate(alphas)}
    # each alpha's splits as (weight, position of beta, position of gamma)
    splits = [
        [(w, position[b], position[c]) for w, b, c in convolution_terms(alpha)]
        for alpha in alphas
    ]
    for k, (x, y) in enumerate(probes):
        vx, vy = seq.values(x), seq.values(y)
        for alpha, lhs, terms in zip(alphas, seq.values(x + y), splits, strict=True):
            try:
                rhs = math.fsum([w * vx[i] * vy[j] for w, i, j in terms])
            except (OverflowError, ValueError) as exc:  # inf - inf, or past the range
                msg = f"convolution of alpha {tuple(alpha)} at probe {k} does not sum: {exc}"
                raise NonFiniteValue(msg) from exc
            residual, ok = judge(lhs, rhs, False, tol)
            max_residual = worse(max_residual, residual)
            if not ok:
                failures.append(
                    {
                        "alpha": alpha.to_json(),
                        "probe": k,
                        "x": x,
                        "y": y,
                        "lhs": lhs,
                        "rhs": rhs,
                        "residual": residual,
                    }
                )
    return CheckReport(
        check="moment_sequence",
        passed=not failures,
        max_residual=max_residual,
        tolerance=tol,
        failures=failures,
        counts={"probes": len(probes), "alphas": len(alphas)},
        seed=seed,
    )


def tampered(seq: MomentSeq, alpha: MultiIndex, scale: float) -> MomentSeq:
    """Copy of the sequence with f_alpha multiplied by ``scale``."""
    alphas = enumerate_height_at_most(seq.rank, seq.order)
    if alpha not in alphas:
        raise ValueError(f"sequence has no index {tuple(alpha)}")
    position, original = alphas.index(alpha), seq.values

    def values(x: float) -> List[float]:
        row = original(x)
        row[position] *= scale
        return row

    return MomentSeq(seq.rank, seq.order, values)


def random_probe_pairs(count: int, rng: random.Random) -> List[Tuple[float, float]]:
    """``count`` pairs of reals drawn uniformly from [-2, 2], x before y."""
    return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(count)]
