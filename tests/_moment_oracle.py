"""Pointwise moment verifiers, kept only as an oracle for the tests.

``verify_moment_pointwise`` is the sample-point loop that
``momentfam.verify_moment`` ran before exact families were decided as
polynomial identities: every operator is tabulated at every sample point
(exact values from one expansion), and both sides of every instance are
summed and judged point by point.  ``check_second_order_pointwise`` is
the same loop for the second-order rule T(fg) = T(f) g + f T(g) +
2 A(f) A(g) alone, written out term by term with T and A read from a
second-order family's (2) and (1) operators.  Neither skips a point on
equal polynomials, so equal report bytes are evidence that skipping them
changes no verdict, residual or witness.  In ``verify_moment_pointwise``,
only an exact instance that holds at every sample is looked at as polynomials (``_grid_instance``):
both sides are expanded and summed term by term, and a difference that
is nonzero once composed with the point map is judged once more at the
grid point ``polycalc.nonzero_grid_point`` names, as the verifier does.
Nor does either work out whether a family is exact: the caller says so,
from the kind of family it built, so a wrong decision in the verifier
shows as a mismatch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from moment_leibniz.funcmodel import (
    Domain,
    as_polynomial,
    contraction,
    eval_expr,
    witness_float,
    worse,
)
from moment_leibniz.momentfam import MomentReport, OperatorFamily
from moment_leibniz.multiindex import (
    MultiIndex,
    convolution_terms,
    enumerate_height_at_most,
)
from moment_leibniz.polycalc import Polynomial, compose, eval_poly, nonzero_grid_point


def _table(expr, points, exact: bool) -> list:
    """Values at every point: exact ones from one expansion, else floats."""
    if exact:
        poly = as_polynomial(expr)
        return [eval_poly(poly, x) for x in points]
    return [eval_expr(expr, (x,))[0] for x in points]


def _judge(lhs, rhs, exact: bool, tol: float) -> Tuple[float, bool]:
    """The residual rule written out for one instance: exact values pass only
    when equal, with residual |lhs - rhs| (inf past the float range); float
    ones pass when the relative |lhs - rhs| / (1 + |lhs|) is <= tol."""
    if exact:
        return witness_float(abs(lhs - rhs)), lhs == rhs
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    return residual, residual <= tol


def _alpha_key(alpha) -> str:
    return ",".join(str(e) for e in alpha)


def verify_moment_pointwise(
    family: OperatorFamily,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    exact: bool,
    seed: Optional[int] = None,
) -> MomentReport:
    tol = domain.float_tolerance
    if domain.rank != family.dim:
        raise ValueError(f"domain rank {domain.rank}, family dim {family.dim}")
    alphas = enumerate_height_at_most(family.rank, family.order)
    terms = {alpha: convolution_terms(alpha) for alpha in alphas}
    points = [family.eval_point(x) for x in domain.sample_points]
    per_alpha = {_alpha_key(a): 0.0 for a in alphas}
    failures: List[dict] = []
    max_residual = 0.0
    for k, (f, g) in enumerate(probes):
        fg = f * g
        vf, vg, vfg = (
            {b: _table(e, points, exact) for b, e in family.apply(h).items()} for h in (f, g, fg)
        )
        for alpha, splits in terms.items():
            key = _alpha_key(alpha)
            instances = []
            for i, x in enumerate(domain.sample_points):
                lhs = vfg[alpha][i]
                # a plain sum: exact terms are Fractions, so it stays exact
                rhs = sum(w * vf[beta][i] * vg[gamma][i] for w, beta, gamma in splits)
                instances.append((x, lhs, rhs))
            if exact and all(lhs == rhs for _, lhs, rhs in instances):
                instances += _grid_instance(family, alpha, splits, f, g)
            for x, lhs, rhs in instances:
                residual, ok = _judge(lhs, rhs, exact, tol)
                per_alpha[key] = worse(per_alpha[key], residual)
                max_residual = worse(max_residual, residual)
                if not ok:
                    failures.append(
                        {
                            "alpha": alpha.to_json(),
                            "probe": k,
                            "point": x.to_json(),
                            "lhs": witness_float(lhs),
                            "rhs": witness_float(rhs),
                            "residual": residual,
                        }
                    )
    return MomentReport(
        family=family.descriptor,
        probe_count=len(probes),
        per_alpha_max_residual=per_alpha,
        max_residual=max_residual,
        passed=not failures,
        failures=failures,
        tolerance=tol,
        exact=exact,
        seed=seed,
    )


def _grid_instance(family: OperatorFamily, alpha, splits, f, g) -> list:
    """An exact instance that held at every sample, at the grid witness if it fails.

    Both sides are expanded and their difference is composed with the
    family's point map; if that is nonzero, the instance is taken at the
    first grid point where it does not vanish, read through the map.
    """
    lhs = as_polynomial(family.apply(f * g)[alpha])
    tf, tg = family.apply(f), family.apply(g)
    rhs = Polynomial.zero(family.dim)
    for w, beta, gamma in splits:
        rhs = rhs + as_polynomial(tf[beta]) * as_polynomial(tg[gamma]) * w
    diff = lhs - rhs
    if family.point_map is not None:
        diff = compose(diff, family.point_map.components)
    if diff.is_zero():
        return []
    x = nonzero_grid_point(diff)
    y = family.eval_point(x)
    return [(x, eval_poly(lhs, y), eval_poly(rhs, y))]


def check_second_order_pointwise(
    family: OperatorFamily,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    exact: bool,
) -> Tuple[List[dict], float]:
    """The failures and the worst residual of the rule's instances.

    Failures have the shape of ``verify_moment``'s at alpha (2).
    """
    tol = domain.float_tolerance
    points = domain.sample_points
    one, two = MultiIndex((1,)), MultiIndex((2,))
    failures: List[dict] = []
    max_residual = 0.0
    for k, (f, g) in enumerate(probes):
        tf, tg, tfg, af, ag = (
            _table(family.apply(h)[alpha], points, exact)
            for alpha, h in ((two, f), (two, g), (two, f * g), (one, f), (one, g))
        )
        for i, x in enumerate(points):
            lhs = tfg[i]
            # f(x) and g(x) are Fractions; times a float they round to float first
            rhs = tf[i] * eval_poly(g, x) + eval_poly(f, x) * tg[i] + 2 * af[i] * ag[i]
            residual, ok = _judge(lhs, rhs, exact, tol)
            max_residual = worse(max_residual, residual)
            if not ok:
                failures.append(
                    {
                        "alpha": two.to_json(),
                        "probe": k,
                        "point": x.to_json(),
                        "lhs": witness_float(lhs),
                        "rhs": witness_float(rhs),
                        "residual": residual,
                    }
                )
    return failures, max_residual


def with_a_field(family: OperatorFamily, field) -> OperatorFamily:
    """The second-order family with A(f) = <f', field> in place of its own A.

    T = T_(2) is left as it was, so only the alpha = (2) instance can fail:
    any such A is still a derivation.
    """

    operators = {**family.operators, MultiIndex((1,)): contraction(tuple(field), 1, family.dim)}
    return OperatorFamily(1, 2, operators, dim=family.dim)
