"""Coefficient families c_alpha and the bilinear vanishing constraint.

A family of operators T_alpha(f) = c_alpha * f * ln|f| (with T_0 = id)
satisfies the binomial moment identity exactly when, for every alpha with
2 <= |alpha| <= N and every point x,

    sum_{0 < beta < alpha} C(alpha, beta) c_beta(x) c_{alpha-beta}(x) = 0,

the sum running over strictly interior beta.  Height-1 alphas impose
nothing: their interior range is empty.

With E(t) = sum_{|beta| >= 1} c_beta(x) t^beta / beta!, the sum above is
alpha! times the t^alpha coefficient of E(t)^2, so the constraint says
that E(t)^2 has no terms of degree 2..N.  If E_m is the lowest nonzero
homogeneous part of E, the degree-2m part of E^2 is E_m^2, which is
nonzero.  Hence the constraint holds at x exactly when c_alpha(x) = 0
for every 2|alpha| <= N: the admissible supports are the subsets of the
band N/2 < |alpha| <= N, every constrained sum over such a support is
empty, and no support reaching below the band admits nonzero constant
coefficients.

This module checks the constraint on sample points, reports which
support indices it forces to vanish, enumerates the admissible supports,
and draws random families on them.  A support is a tuple of indices in
band order (height, then entries), the order ``band`` lists and
``itertools.combinations`` keeps.  The band test 2|alpha| > N is made in
one place, ``_in_band``: ``band`` lists the band, and
``forced_zero_analysis`` splits a support by it, so a support is
admissible exactly when that split is empty.  ``index_set_size`` counts
the indices 0 < |alpha| <= N in closed form, so the enumeration budget is
checked before anything is listed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .multiindex import (
    MultiIndex,
    as_multiindex,
    convolution_terms,
    enumerate_height_at_most,
)
from .polycalc import Polynomial, RationalPoint, Scalar
from .funcmodel import (
    CheckReport,
    FuncExpr,
    Leaves,
    PolyLeaf,
    eval_expr,
    expr_from_json,
    worse,
)
from . import polycalc


class ConstraintViolation(ValueError):
    """A coefficient family failed the bilinear vanishing constraint."""

    def __init__(self, report: CheckReport):
        self.report = report
        worst = report.failures[0] if report.failures else {}
        super().__init__(
            f"constraint violated at alpha={worst.get('alpha')} "
            f"x={worst.get('point')} sum={worst.get('value')}"
        )


class InvalidSupport(ValueError):
    """Support leaves the band N/2 < |alpha| <= N."""


class BudgetExceeded(RuntimeError):
    """The index set is larger than the enumeration budget."""


IndexLike = Union[MultiIndex, Tuple[int, ...]]
Support = Tuple[MultiIndex, ...]


@dataclass
class CoeffFamily:
    """Coefficients c_alpha for 0 < |alpha| <= order; missing indices are zero."""

    rank: int
    order: int
    coefficients: Dict[MultiIndex, FuncExpr]

    def __post_init__(self) -> None:
        coeffs: Dict[MultiIndex, FuncExpr] = {}
        for idx, expr in self.coefficients.items():
            idx = as_multiindex(idx)
            if idx.rank != self.rank:
                raise ValueError(
                    f"coefficient index {tuple(idx)} has rank {idx.rank}, "
                    f"expected {self.rank}"
                )
            if not 1 <= idx.height <= self.order:
                raise ValueError(
                    f"coefficient index {tuple(idx)} outside 0 < |alpha| <= {self.order}"
                )
            if expr.dim != self.rank:
                raise ValueError(
                    f"coefficient at {tuple(idx)} has dim {expr.dim}, expected {self.rank}"
                )
            coeffs[idx] = expr
        self.coefficients = coeffs

    @classmethod
    def from_constants(
        cls, rank: int, order: int, values: Mapping[IndexLike, Scalar]
    ) -> "CoeffFamily":
        return cls(
            rank,
            order,
            {
                as_multiindex(idx): PolyLeaf(Polynomial.constant(rank, v))
                for idx, v in values.items()
            },
        )

    def to_json(self) -> dict:
        """The ``identity_generated`` descriptor of the family over these coefficients."""
        items = sorted(self.coefficients.items(), key=lambda kv: tuple(kv[0]))
        return {
            "kind": "identity_generated",
            "r": self.rank,
            "N": self.order,
            "coefficients": [
                {"index": idx.to_json(), "expr": expr.to_json()} for idx, expr in items
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoeffFamily":
        """Read the ``r``, ``N`` and ``coefficients`` of a descriptor."""
        coeffs: Dict[MultiIndex, FuncExpr] = {}
        for item in data["coefficients"]:
            idx = MultiIndex(item["index"])
            if idx in coeffs:
                raise ValueError(f"coefficient index {list(idx)} is repeated")
            coeffs[idx] = expr_from_json(item["expr"])
        return cls(data["r"], data["N"], coeffs)


def constraint_indices(rank: int, order: int) -> List[MultiIndex]:
    """The alphas actually constrained: 2 <= |alpha| <= order."""
    return [a for a in enumerate_height_at_most(rank, order) if a.height >= 2]


def check_constraint(
    cf: CoeffFamily,
    points: Sequence[RationalPoint],
    tol: float = 1e-9,
) -> CheckReport:
    """Evaluate every constrained bilinear sum at every point.

    Binomial weights are exact integers; only the coefficient values and
    final products are floating point.  |sum| <= tol is required.  One
    leaf table serves every alpha, so a polynomial coefficient is turned
    into a float once per point, the first time a sum needs it.
    """
    failures: List[dict] = []
    max_abs = 0.0
    checked = 0
    leaves: Leaves = {}
    alphas = constraint_indices(cf.rank, cf.order)
    for alpha in alphas:
        # c_0 is never stored, so the membership test also drops beta = 0 and beta = alpha
        pairs = [
            (w, cf.coefficients[beta], cf.coefficients[gamma])
            for w, beta, gamma in convolution_terms(alpha)
            if beta in cf.coefficients and gamma in cf.coefficients
        ]
        for x in points:
            value = sum(
                w * eval_expr(cb, x, leaves) * eval_expr(cg, x, leaves)
                for w, cb, cg in pairs
            )
            checked += 1
            max_abs = worse(max_abs, abs(value))
            if not abs(value) <= tol:
                failures.append(
                    {
                        "alpha": alpha.to_json(),
                        "point": x.to_json(),
                        "value": value,
                    }
                )
    return CheckReport(
        check="coefficient_constraint",
        passed=not failures,
        max_residual=max_abs,
        tolerance=tol,
        failures=failures,
        counts={"alphas": len(alphas), "evaluations": checked},
    )


def support_json(rank: int, order: int, support: Support) -> dict:
    """The report form of a support, its indices in the order given."""
    return {
        "rank": rank,
        "order": order,
        "support": [a.to_json() for a in support],
        # kept for the search-supports and gen-family bytes pinned in perfbench/golden.json
        "certificate": None,
    }


def _band_order(alpha: MultiIndex) -> Tuple[int, Tuple[int, ...]]:
    return alpha.height, tuple(alpha)


def _in_band(alpha: MultiIndex, order: int) -> bool:
    """Whether N/2 < |alpha|; callers hold |alpha| <= N already."""
    return 2 * alpha.height > order


def band(rank: int, order: int) -> List[MultiIndex]:
    """The admissible band N/2 < |alpha| <= N, sorted by (height, entries)."""
    return sorted(
        (a for a in enumerate_height_at_most(rank, order) if _in_band(a, order)),
        key=_band_order,
    )


def index_set_size(rank: int, order: int) -> int:
    """The number of indices 0 < |alpha| <= order: C(order + rank, rank) - 1."""
    return math.comb(order + rank, rank) - 1


def forced_zero_analysis(order: int, support: Iterable[MultiIndex]) -> FrozenSet[MultiIndex]:
    """Support indices the constraint forces to vanish: those with 2|alpha| <= N.

    A support is admissible exactly when this set is empty: then every
    constrained sum is empty, since two band heights add up to more than N.

    Cascade: among the remaining such indices of least height, take the
    lexicographically largest gamma.  Any splitting beta + beta' of
    2*gamma inside the support has |beta| = |beta'| = |gamma|, and unless
    beta = gamma one of the two parts is lexicographically above gamma.
    So gamma + gamma is the only decomposition, the alpha = 2*gamma sum
    is C(2g, g) * c_gamma^2, and c_gamma must vanish; drop gamma and
    repeat.  Band indices are never forced: their squares lie above N.
    """
    return frozenset(a for a in support if not _in_band(a, order))


def enumerate_valid_constant_supports(
    rank: int,
    order: int,
    max_support_size: Optional[int] = None,
    budget: int = 20,
) -> List[Support]:
    """Every support usable with constant coefficients.

    These are the subsets of the band N/2 < |alpha| <= N with at most
    max_support_size elements, smallest first, each size in combinations
    order over ``band(rank, order)``.  Raises BudgetExceeded when the index
    set {alpha : 0 < |alpha| <= order} has more than budget elements.
    """
    count = index_set_size(rank, order)
    if count > budget:
        raise BudgetExceeded(f"index set has {count} elements, budget is {budget}")
    admissible = band(rank, order)
    if max_support_size is None:
        max_support_size = len(admissible)
    return [
        combo
        for size in range(min(max_support_size, len(admissible)) + 1)
        for combo in itertools.combinations(admissible, size)
    ]


def random_valid_family(
    rank: int, order: int, support: Iterable[IndexLike], seed: int
) -> Tuple[CoeffFamily, Support]:
    """Seeded random coefficient family guaranteed to satisfy the constraint.

    The support is deduplicated and put in band order, which is the order
    the random polynomials are drawn in, so the family depends on the set
    of indices alone; that canonical support is returned with the family.
    It must lie in the band, where every bilinear sum is empty, so each
    index takes an independent random polynomial.  An index of the wrong
    rank or outside 0 < |alpha| <= order is refused first, by
    ``CoeffFamily`` (ValueError); then a support reaching below the band
    raises InvalidSupport.
    """
    canonical = tuple(sorted({as_multiindex(a) for a in support}, key=_band_order))
    rng = random.Random(f"coeff-family:{seed}")
    coeffs: Dict[MultiIndex, FuncExpr] = {
        idx: PolyLeaf(
            polycalc.random_polynomial(rng, rank, max_degree=2, terms=3, coeff_bound=4)
        )
        for idx in canonical
    }
    family = CoeffFamily(rank, order, coeffs)
    if forced_zero_analysis(order, canonical):
        raise InvalidSupport(
            f"support {[tuple(a) for a in canonical]} leaves "
            f"the band {order}/2 < |alpha| <= {order}"
        )
    return family, canonical
