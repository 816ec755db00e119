"""Generalized moment sequences on the additive reals.

A rank-r moment sequence assigns to each multi-index alpha with
|alpha| <= N a function f_alpha on R, subject to

    f_alpha(x + y) = sum_{beta <= alpha} C(alpha, beta) f_beta(x) f_{alpha-beta}(y),

whose alpha = 0 instance says f_0 turns sums into products.  On (R, +)
the sequences

    f_alpha(x) = exp(rate * x) * prod_i (scales[i] * x)^{alpha_i}

satisfy the identity by the per-coordinate binomial theorem; the rank-1
case is the classical power-times-exponential recurrence.  Probe pairs
are drawn uniformly from [-2, 2].  The verifier evaluates each f_alpha
once at x, y and x + y per probe, keeps the values at x and y in lists
in ``enumerate_height_at_most`` order, sums each alpha's
``multiindex.convolution_terms`` by position in those lists, and judges
each instance with ``funcmodel.judge``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .multiindex import MultiIndex, convolution_terms, enumerate_height_at_most
from .funcmodel import CheckReport, judge, worse


@dataclass
class MomentSeq:
    """A candidate moment sequence: one function on R per multi-index."""

    rank: int
    order: int
    functions: Dict[MultiIndex, Callable[[float], float]]


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
    (scales[i]*(x+y))^{alpha_i}.
    """
    if len(scales) != rank:
        raise ValueError(f"need {rank} scales, got {len(scales)}")
    scales = tuple(float(s) for s in scales)
    functions: Dict[MultiIndex, Callable[[float], float]] = {}

    def make(alpha: MultiIndex) -> Callable[[float], float]:
        def f(x: float) -> float:
            out = math.exp(rate * x)
            for s, e in zip(scales, alpha):
                out *= (s * x) ** e
            return out

        return f

    for alpha in enumerate_height_at_most(rank, order):
        functions[alpha] = make(alpha)
    return MomentSeq(rank, order, functions)


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
    functions = [seq.functions[alpha] for alpha in alphas]
    for k, (x, y) in enumerate(probes):
        xy = x + y
        vx = [fn(x) for fn in functions]
        vy = [fn(y) for fn in functions]
        for alpha, fn, terms in zip(alphas, functions, splits):
            lhs = fn(xy)
            rhs = math.fsum([w * vx[i] * vy[j] for w, i, j in terms])
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
    if alpha not in seq.functions:
        raise ValueError(f"sequence has no index {tuple(alpha)}")
    functions = dict(seq.functions)
    original = functions[alpha]
    functions[alpha] = lambda x: scale * original(x)
    return MomentSeq(seq.rank, seq.order, functions)


def random_probe_pairs(count: int, rng: random.Random) -> List[Tuple[float, float]]:
    """``count`` pairs of reals drawn uniformly from [-2, 2], x before y."""
    return [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(count)]
