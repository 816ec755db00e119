"""Float verifier loops without shared values, kept only as an oracle for the tests.

These are the loops that ``coeffsolve.check_constraint`` and
``semigroup.verify_moment_seq`` ran before they shared work within a
call: the constraint evaluates both coefficients of every split afresh
at every point, and the sequence verifier goes probe by probe, keys its
values by multi-index, evaluates each f_alpha on its own and sums each
convolution from a list of products.  ``exponential_functions`` is the
exponential sequence as it was built before its value tables: one
closure per index, each computing exp(rate*x) and its powers afresh.
They know nothing of shared point columns, value columns or positional
sums, so equal report bytes are evidence that computing each value once
changes no verdict, residual or witness.  The sequence loop evaluates every f_alpha
at x, then at y, then at x + y before it sums a probe's convolutions,
and raises a sum's error with the verifier's message.  It raises exactly
when the verifier does, though the first error it meets, probe by probe,
may be another than the verifier's, which works one alpha's column at a
time after tabulating every value.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from moment_leibniz.coeffsolve import CoeffFamily, constraint_indices
from moment_leibniz.funcmodel import CheckReport, NonFiniteValue, eval_expr, worse
from moment_leibniz.multiindex import MultiIndex, convolution_terms, enumerate_height_at_most
from moment_leibniz.polycalc import RationalPoint

Functions = Dict[MultiIndex, Callable[[float], float]]


def check_constraint_unshared(
    cf: CoeffFamily,
    points: Sequence[RationalPoint],
    tol: float = 1e-9,
) -> CheckReport:
    failures: List[dict] = []
    max_abs = 0.0
    checked = 0
    alphas = constraint_indices(cf.rank, cf.order)
    for alpha in alphas:
        pairs = [
            (w, cf.coefficients[beta], cf.coefficients[gamma])
            for w, beta, gamma in convolution_terms(alpha)
            if beta in cf.coefficients and gamma in cf.coefficients
        ]
        for x in points:
            value = sum(w * eval_expr(cb, (x,))[0] * eval_expr(cg, (x,))[0] for w, cb, cg in pairs)
            checked += 1
            max_abs = worse(max_abs, abs(value))
            if not abs(value) <= tol:
                failures.append(
                    {"alpha": alpha.to_json(), "point": x.to_json(), "value": value}
                )
    return CheckReport(
        check="coefficient_constraint",
        passed=not failures,
        max_residual=max_abs,
        tolerance=tol,
        failures=failures,
        counts={"alphas": len(alphas), "evaluations": checked},
    )


def exponential_functions(
    rank: int, order: int, rate: float, scales: Sequence[float]
) -> Functions:
    scales = tuple(float(s) for s in scales)

    def make(alpha: MultiIndex) -> Callable[[float], float]:
        def f(x: float) -> float:
            out = math.exp(rate * x)
            for s, e in zip(scales, alpha):
                out *= (s * x) ** e
            return out

        return f

    return {alpha: make(alpha) for alpha in enumerate_height_at_most(rank, order)}


def verify_moment_seq_keyed(
    rank: int,
    order: int,
    functions: Functions,
    probes: Sequence[Tuple[float, float]],
    tol: float = 1e-10,
    seed: Optional[int] = None,
) -> CheckReport:
    failures: List[dict] = []
    max_residual = 0.0
    alphas = enumerate_height_at_most(rank, order)
    terms = {alpha: convolution_terms(alpha) for alpha in alphas}
    for k, (x, y) in enumerate(probes):
        vx = {b: functions[b](x) for b in alphas}
        vy = {b: functions[b](y) for b in alphas}
        vxy = {b: functions[b](x + y) for b in alphas}
        for alpha in alphas:
            lhs = vxy[alpha]
            try:
                rhs = math.fsum([w * vx[beta] * vy[gamma] for w, beta, gamma in terms[alpha]])
            except (OverflowError, ValueError) as exc:
                msg = f"convolution of alpha {tuple(alpha)} at probe {k} does not sum: {exc}"
                raise NonFiniteValue(msg) from exc
            residual = abs(lhs - rhs) / (1.0 + abs(lhs))
            max_residual = worse(max_residual, residual)
            if not residual <= tol:
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
