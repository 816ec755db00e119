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

This module checks the constraint on sample points, and exactly when
every coefficient below the band expands: then a nonzero one fails with
a witness, however small its sample sums.  It reports which support
indices the constraint forces to vanish, enumerates the admissible
supports, and draws random families on them.  A support is a tuple of
indices in band order (height, then entries), the order ``band`` lists
and ``itertools.combinations`` keeps.  The band test 2|alpha| > N is made in
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
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .multiindex import (
    MultiIndex,
    as_multiindex,
    check_count,
    convolution_terms,
    enumerate_height_at_most,
)
from .polycalc import Polynomial, RationalPoint, Scalar, eval_poly
from .funcmodel import (
    CheckReport,
    Domain,
    FuncExpr,
    Leaves,
    NonFiniteValue,
    PolyLeaf,
    as_polynomial,
    eval_expr,
    expr_from_json,
    is_polynomial,
    judge,
    worse,
)
from . import polycalc


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
        check_count("rank", self.rank, 1)
        check_count("order", self.order, 0)
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


def check_constraint(cf: CoeffFamily, domain: Domain) -> CheckReport:
    """Evaluate every constrained bilinear sum at every sample of the domain.

    Binomial weights are exact integers; only the coefficient values and
    final products are floating point.  ``funcmodel.judge`` judges each sum
    against 0, so its residual is |sum|, which must be <= the domain
    tolerance; an alpha with no stored pair has the empty sum 0 and is
    skipped.  Each coefficient is evaluated at all the samples at once,
    the first time a sum needs it; each sample's products are added with
    the builtin ``sum`` in split order.  An evaluation error names the node
    met first in the order alpha, sample, split.  If the samples show no
    failure, ``_below_band_witness`` may still prove one, whose sum is
    computed as a sample's.
    """
    if domain.rank != cf.rank:
        raise ValueError(f"domain rank {domain.rank}, coefficients rank {cf.rank}")
    tol = domain.float_tolerance
    alphas = constraint_indices(cf.rank, cf.order)
    # c_0 is never stored, so the membership test also drops beta = 0 and beta = alpha
    pairs = {
        alpha: [
            (w, beta, gamma)
            for w, beta, gamma in convolution_terms(alpha)
            if beta in cf.coefficients and gamma in cf.coefficients
        ]
        for alpha in alphas
    }

    def sums(alpha: MultiIndex, values: Dict[MultiIndex, List[float]]) -> Iterator[float]:
        """Each point's sum of w * c_beta * c_gamma, added with ``sum`` in split order."""
        columns = [[w * u * v for u, v in zip(values[b], values[g])] for w, b, g in pairs[alpha]]
        return map(sum, zip(*columns))

    failures: List[dict] = []
    max_residual = 0.0
    leaves: Leaves = {}
    values: Dict[MultiIndex, List[float]] = {}
    for alpha in alphas:
        needed = [idx for _, beta, gamma in pairs[alpha] for idx in (beta, gamma)]
        try:
            for idx in needed:
                if idx not in values:
                    values[idx] = eval_expr(cf.coefficients[idx], domain.sample_points, leaves)
        except NonFiniteValue:  # the first sample that fails raises its own error
            for x, idx in itertools.product(domain.sample_points, needed):
                eval_expr(cf.coefficients[idx], (x,))
            raise
        for x, value in zip(domain.sample_points, sums(alpha, values)):
            residual, ok = judge(0.0, value, False, tol)
            max_residual = worse(max_residual, residual)
            if not ok:
                failures.append({"alpha": alpha.to_json(), "point": x.to_json(), "value": value})
    witness = None if failures else _below_band_witness(cf)
    if witness is not None:
        alpha, x = witness
        at_x = {i: eval_expr(cf.coefficients[i], (x,)) for s in pairs[alpha] for i in s[1:]}
        value = next(sums(alpha, at_x))
        max_residual = worse(max_residual, judge(0.0, value, False, tol)[0])
        failures.append({"alpha": alpha.to_json(), "point": x.to_json(), "value": value})
    return CheckReport(
        check="coefficient_constraint",
        passed=not failures,
        max_residual=max_residual,
        tolerance=tol,
        failures=failures,
        counts={"alphas": len(alphas), "evaluations": len(alphas) * len(domain.sample_points)},
    )


def _below_band_witness(cf: CoeffFamily) -> Optional[Tuple[MultiIndex, RationalPoint]]:
    """Where the constraint provably fails, if every coefficient below the band expands.

    It then holds exactly when each of them is the zero polynomial.  If
    not, the cascade in ``forced_zero_analysis``, run on the nonzero ones,
    takes gamma of least height, lexicographically largest, whose
    alpha = 2*gamma sum is C(2g, g) c_gamma^2.  That is nonzero at the
    first point, in lexicographic order, of the grid
    {k/(d_i+2) : 1 <= k <= d_i+1} where c_gamma is, d_i its degree in x_i;
    a nonzero polynomial has one (Alon, Combinatorial Nullstellensatz, 1999).
    """
    below = {a: cf.coefficients[a] for a in forced_zero_analysis(cf.order, cf.coefficients)}
    if not all(map(is_polynomial, below.values())):
        return None
    nonzero = {a: p for a, e in below.items() if (p := as_polynomial(e))}
    if not nonzero:
        return None
    gamma = max(nonzero, key=lambda a: (-a.height, tuple(a)))
    c = nonzero[gamma]
    degrees = [max(e[i] for e in c.terms) for i in range(cf.rank)]
    grid = itertools.product(*[[Fraction(k, d + 2) for k in range(1, d + 2)] for d in degrees])
    return gamma + gamma, next(x for x in map(RationalPoint, grid) if eval_poly(c, x))


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
