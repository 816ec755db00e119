"""Generalized moment sequences on commutative monoids.

A rank-r moment sequence assigns to each multi-index alpha with
|alpha| <= N a function f_alpha on the carrier, subject to

    f_alpha(x + y) = sum_{beta <= alpha} C(alpha, beta) f_beta(x) f_{alpha-beta}(y),

whose alpha = 0 instance says f_0 is multiplicative over the monoid
operation.  On (R, +) the sequences

    f_alpha(x) = exp(rate * x) * prod_i (scales[i] * x)^{alpha_i}

satisfy the identity by the per-coordinate binomial theorem; the rank-1
case is the classical power-times-exponential recurrence.  A ``Monoid``
carries only the operation and a seeded sampler, and (R, +) is the one
carrier built here.  The verifier evaluates each f_alpha once at x, y
and x + y per probe, sums over ``multiindex.convolution_terms``,
re-exported here, and judges each instance with ``funcmodel.judge``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .multiindex import MultiIndex, convolution_terms, enumerate_height_at_most
from .funcmodel import CheckReport, judge, worse


@dataclass(frozen=True)
class Monoid:
    """A commutative monoid carrier with a seeded element sampler."""

    op: Callable[[Any, Any], Any]
    sampler: Callable[[random.Random], Any]


def reals_additive() -> Monoid:
    """(R, +) with elements sampled uniformly from [-2, 2]."""
    return Monoid(op=lambda a, b: a + b, sampler=lambda rng: rng.uniform(-2.0, 2.0))


@dataclass
class MomentSeq:
    """A candidate moment sequence: one carrier function per multi-index."""

    rank: int
    order: int
    monoid: Monoid
    functions: Dict[MultiIndex, Callable[[Any], float]]

    def value(self, alpha: MultiIndex, x: Any) -> float:
        return self.functions[alpha](x)


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
            for s, e in zip(scales, alpha.entries):
                out *= (s * x) ** e
            return out

        return f

    for alpha in enumerate_height_at_most(rank, order):
        functions[alpha] = make(alpha)
    return MomentSeq(rank, order, reals_additive(), functions)


def verify_moment_seq(
    seq: MomentSeq,
    probes: Sequence[Tuple[Any, Any]],
    tol: float = 1e-10,
    seed: Optional[int] = None,
) -> CheckReport:
    """Check the convolution identity on probe pairs from the carrier.

    Residuals follow ``funcmodel.judge``: |lhs - rhs| / (1 + |lhs|),
    passing when <= tol, so NaN fails; the alpha = 0 row is plain
    multiplicativity of f_0.
    """
    failures: List[dict] = []
    max_residual = 0.0
    alphas = enumerate_height_at_most(seq.rank, seq.order)
    terms = {alpha: convolution_terms(alpha) for alpha in alphas}
    for k, (x, y) in enumerate(probes):
        xy = seq.monoid.op(x, y)
        vx = {b: seq.value(b, x) for b in alphas}
        vy = {b: seq.value(b, y) for b in alphas}
        for alpha in alphas:
            lhs = seq.value(alpha, xy)
            rhs = math.fsum(w * vx[beta] * vy[gamma] for w, beta, gamma in terms[alpha])
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
        raise ValueError(f"sequence has no index {alpha.entries}")
    functions = dict(seq.functions)
    original = functions[alpha]
    functions[alpha] = lambda x: scale * original(x)
    return MomentSeq(seq.rank, seq.order, seq.monoid, functions)


def random_probe_pairs(
    monoid: Monoid, count: int, rng: random.Random
) -> List[Tuple[Any, Any]]:
    return [(monoid.sampler(rng), monoid.sampler(rng)) for _ in range(count)]
