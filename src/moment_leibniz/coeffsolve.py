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
support indices it forces to vanish, enumerates the admissible support
patterns, and draws random families on them.  The band test
2|alpha| > N is made in one place, ``_in_band``: ``band`` lists the band,
and ``is_structure_valid`` and ``forced_zero_analysis`` split a support
by it.  ``index_set_size`` counts the indices 0 < |alpha| <= N in closed
form, so the enumeration budget is checked before anything is listed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

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
    """Support pattern leaves the band N/2 < |alpha| <= N."""


class BudgetExceeded(RuntimeError):
    """The index set is larger than the enumeration budget."""


IndexLike = Union[MultiIndex, Tuple[int, ...]]


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
        items = sorted(self.coefficients.items(), key=lambda kv: tuple(kv[0]))
        return {
            "rank": self.rank,
            "order": self.order,
            "coefficients": [
                {"index": idx.to_json(), "expr": expr.to_json()} for idx, expr in items
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoeffFamily":
        coeffs: Dict[MultiIndex, FuncExpr] = {}
        for item in data["coefficients"]:
            idx = MultiIndex(item["index"])
            if idx in coeffs:
                raise ValueError(f"coefficient index {list(idx)} is repeated")
            coeffs[idx] = expr_from_json(item["expr"])
        return cls(data["rank"], data["order"], coeffs)


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


@dataclass(frozen=True)
class SupportPattern:
    """Which c_alpha are allowed to be nonzero."""

    rank: int
    order: int
    support: FrozenSet[MultiIndex]

    def __post_init__(self) -> None:
        support = frozenset(as_multiindex(a) for a in self.support)
        object.__setattr__(self, "support", support)
        for a in support:
            if a.rank != self.rank or not 1 <= a.height <= self.order:
                raise ValueError(
                    f"support index {tuple(a)} outside 0 < |alpha| <= {self.order}"
                )

    def sorted_support(self) -> List[MultiIndex]:
        return sorted(self.support, key=lambda a: (a.height, tuple(a)))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "order": self.order,
            "support": [a.to_json() for a in self.sorted_support()],
            # kept for the search-supports and gen-family bytes pinned in perfbench/golden.json
            "certificate": None,
        }


def _in_band(alpha: MultiIndex, order: int) -> bool:
    """Whether N/2 < |alpha|; callers hold |alpha| <= N already."""
    return 2 * alpha.height > order


def band(rank: int, order: int) -> List[MultiIndex]:
    """The admissible band N/2 < |alpha| <= N, sorted by (height, entries)."""
    return sorted(
        (a for a in enumerate_height_at_most(rank, order) if _in_band(a, order)),
        key=lambda a: (a.height, tuple(a)),
    )


def index_set_size(rank: int, order: int) -> int:
    """The number of indices 0 < |alpha| <= order: C(order + rank, rank) - 1."""
    return math.comb(order + rank, rank) - 1


def is_structure_valid(pattern: SupportPattern) -> bool:
    """Every support index lies in the band N/2 < |alpha| <= N.

    Equivalently no constrained alpha splits inside the support, so every
    bilinear sum is empty: two band heights add up to more than N, while
    an index gamma below the band has its square 2*gamma constrained.
    """
    return all(_in_band(a, pattern.order) for a in pattern.support)


def forced_zero_analysis(pattern: SupportPattern) -> FrozenSet[MultiIndex]:
    """Support indices the constraint forces to vanish: those with 2|alpha| <= N.

    Cascade: among the remaining such indices of least height, take the
    lexicographically largest gamma.  Any splitting beta + beta' of
    2*gamma inside the support has |beta| = |beta'| = |gamma|, and unless
    beta = gamma one of the two parts is lexicographically above gamma.
    So gamma + gamma is the only decomposition, the alpha = 2*gamma sum
    is C(2g, g) * c_gamma^2, and c_gamma must vanish; drop gamma and
    repeat.  Band indices are never forced: their squares lie above N.
    """
    return frozenset(a for a in pattern.support if not _in_band(a, pattern.order))


def enumerate_valid_constant_supports(
    rank: int,
    order: int,
    max_support_size: Optional[int] = None,
    budget: int = 20,
) -> List[SupportPattern]:
    """Every support pattern usable with constant coefficients.

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
        SupportPattern(rank, order, frozenset(combo))
        for size in range(min(max_support_size, len(admissible)) + 1)
        for combo in itertools.combinations(admissible, size)
    ]


def random_valid_family(pattern: SupportPattern, seed: int) -> CoeffFamily:
    """Seeded random coefficient family guaranteed to satisfy the constraint.

    The support must lie in the band, where every bilinear sum is empty,
    so each index takes an independent random polynomial.
    """
    if not is_structure_valid(pattern):
        raise InvalidSupport(
            f"support {[tuple(a) for a in pattern.sorted_support()]} leaves "
            f"the band {pattern.order}/2 < |alpha| <= {pattern.order}"
        )
    rng = random.Random(f"coeff-family:{seed}")
    coeffs: Dict[MultiIndex, FuncExpr] = {
        idx: PolyLeaf(
            polycalc.random_polynomial(
                rng, pattern.rank, max_degree=2, terms=3, coeff_bound=4
            )
        )
        for idx in pattern.sorted_support()
    }
    return CoeffFamily(pattern.rank, pattern.order, coeffs)
