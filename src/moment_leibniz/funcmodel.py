"""Pointwise function model, sampled on the open unit box.

Expressions are trees of four JSON kinds: exact polynomial leaves, sums,
products, and the continuous extension of t -> t*ln|t| (value 0 at
t = 0).  A rational multiple is a product with a constant leaf, and the
contractions <grad p, b> and <Hess(p) c, c> of an exact polynomial p
are sums of products of p's nonzero derivatives with the field
components (``grad_dot``, ``hess_quad``); ``expr_from_json`` reads the
JSON kinds ``scale``, ``graddot`` and ``hessquad`` that way, and
``to_json`` writes them as sums and products.  Power-sign families also
build ``SignedPower`` nodes, sgn(u) |u|^p with 0 at u = 0, which no
descriptor reads.

Trees evaluate to floats over a tuple of rational points in one walk
(``eval_expr``): each node computes its values at every point, with the
float operations of a point-by-point walk, in the same order.  On a
``NonFiniteValue`` the points are walked again one at a time, so the
error names the node a point-by-point walk meets first.  Polynomial
leaves are memoized per call: a ``Leaves`` table, made by the caller and
dropped when it returns, holds a leaf's values over a point tuple the
first time a node needs them, so a verifier that evaluates many trees
over the same points converts each exact leaf value to floats once.  A tree
without a t*ln|t| or signed-power node (``is_polynomial``) expands back
to a ``Polynomial``; its exact values are the expansion evaluated at the
point, and the exact verifiers compare the expansions themselves.

Every sampled check reads one ``Domain``: the open unit box (0,1)^r, its
seeded rational sample points and the float tolerance.  Every check
turns an instance lhs = rhs into a residual and a verdict with ``judge``.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .multiindex import DimensionMismatch, MultiIndex
from .polycalc import Polynomial, RationalPoint, Scalar, dalpha, eval_poly, eval_poly_ratios


class NonFiniteValue(ArithmeticError):
    """Evaluation produced an overflow, inf or nan; message carries the node path."""


class NotPolynomial(ValueError):
    """Expansion met a tree with a u*ln|u| or signed-power node, which is not polynomial."""


Points = Tuple[RationalPoint, ...]
# (id(poly), id(points)) -> (poly, points, float values).  The entry keeps the
# polynomial and the point tuple alive, so neither id is reused while the table is.
Leaves = Dict[Tuple[int, int], Tuple[Polynomial, Points, List[float]]]


# ---- expression nodes ----


class FuncExpr:
    """Base class; concrete nodes implement _eval_points (float values) and _expand.

    There is no exact per-node evaluator: exact values come from _expand.
    ``children`` are the operands of a sum or a product.
    """

    dim: int
    children: Tuple["FuncExpr", ...] = ()

    def _eval_points(self, points: Points, path: str, leaves: Leaves) -> List[float]:
        raise NotImplementedError

    def _expand(self) -> Polynomial:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PolyLeaf(FuncExpr):
    poly: Polynomial

    @property
    def dim(self) -> int:
        return self.poly.dim

    def _eval_points(self, points: Points, path: str, leaves: Leaves) -> List[float]:
        """The float values of poly at the points, computed on the first request only."""
        key = (id(self.poly), id(points))
        hit = leaves.get(key)
        if hit is not None:
            return hit[2]
        try:  # correctly rounded: a finite float or an OverflowError
            values = [n / d for n, d in eval_poly_ratios(self.poly, points)]
        except OverflowError as exc:
            raise NonFiniteValue(f"overflow converting exact value at {path}") from exc
        leaves[key] = (self.poly, points, values)
        return values

    def _expand(self) -> Polynomial:
        return self.poly

    def to_json(self) -> dict:
        return {"kind": "poly", "dim": self.dim, "terms": self.poly.to_json()}


@dataclass(frozen=True)
class Sum(FuncExpr):
    children: tuple[FuncExpr, ...]

    def __post_init__(self) -> None:
        _check_children(self.children, "Sum")

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval_points(self, points: Points, path: str, leaves: Leaves) -> List[float]:
        columns: List[List[float]] = []
        try:
            for i, c in enumerate(self.children):
                try:
                    columns.append(c._eval_points(points, f"{path}.sum[{i}]", leaves))
                except NonFiniteValue:
                    # a point-by-point walk stops where fsum overflows, before this child
                    math.fsum(column[0] for column in columns)
                    raise
            return list(map(math.fsum, zip(*columns)))
        except OverflowError as exc:  # finite children whose sum leaves the range
            raise NonFiniteValue(f"non-finite value at {path}.sum") from exc

    def _expand(self) -> Polynomial:
        out = Polynomial.zero(self.dim)
        for c in self.children:
            out = out + c._expand()
        return out

    def to_json(self) -> dict:
        return {"kind": "sum", "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class Product(FuncExpr):
    children: tuple[FuncExpr, ...]

    def __post_init__(self) -> None:
        _check_children(self.children, "Product")

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval_points(self, points: Points, path: str, leaves: Leaves) -> List[float]:
        out = [1.0] * len(points)
        for i, c in enumerate(self.children):
            values = c._eval_points(points, f"{path}.product[{i}]", leaves)
            out = list(map(operator.mul, out, values))
        if not all(map(math.isfinite, out)):
            raise NonFiniteValue(f"non-finite value at {path}.product")
        return out

    def _expand(self) -> Polynomial:
        out, *rest = [c._expand() for c in self.children]
        for p in rest:
            out = out * p
        return out

    def to_json(self) -> dict:
        return {"kind": "product", "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class XLogAbs(FuncExpr):
    """The continuous extension of u -> u * ln|u|, with value 0 at u = 0."""

    child: FuncExpr

    @property
    def dim(self) -> int:
        return self.child.dim

    def _eval_points(self, points: Points, path: str, leaves: Leaves) -> List[float]:
        values = self.child._eval_points(points, f"{path}.xlogabs", leaves)
        out = [0.0 if v == 0.0 else v * math.log(abs(v)) for v in values]
        if not all(map(math.isfinite, out)):
            raise NonFiniteValue(f"non-finite value at {path}.xlogabs")
        return out

    def to_json(self) -> dict:
        return {"kind": "xlogabs", "child": self.child.to_json()}


@dataclass(frozen=True)
class SignedPower(FuncExpr):
    """u -> sgn(u) * |u|^p, with value 0 at u = 0, for a base u and an exponent p."""

    child: FuncExpr
    exponent: FuncExpr

    @property
    def dim(self) -> int:
        return self.child.dim

    def _eval_points(self, points: Points, path: str, leaves: Leaves) -> List[float]:
        node = f"{path}.signedpower"
        bases = self.child._eval_points(points, node, leaves)
        powers = self.exponent._eval_points(points, f"{node}.exponent", leaves)
        try:  # a float power past the range raises; finite operands give no inf or nan
            return [0.0 if u == 0.0 else math.copysign(abs(u) ** p, u) for u, p in zip(bases, powers)]
        except OverflowError as exc:
            raise NonFiniteValue(f"non-finite value at {node}") from exc


def _check_children(children: Sequence[FuncExpr], label: str) -> None:
    if not children:
        raise ValueError(f"{label} needs at least one child")
    dims = {c.dim for c in children}
    if len(dims) > 1:
        raise DimensionMismatch(f"{label} children disagree on dim: {sorted(dims)}")


# ---- module-level evaluation / expansion ----


def eval_expr(expr: FuncExpr, points: Points, leaves: Optional[Leaves] = None) -> List[float]:
    """Float values of the tree at each point; raises NonFiniteValue with node path.

    ``leaves`` is the caller's leaf table, shared by every evaluation of
    one verifier call; without one, the evaluation gets a fresh table.
    """
    dim = expr.dim
    for x in points:
        if len(x) != dim:
            raise DimensionMismatch(f"expr dim {dim} vs point rank {x.rank}")
    try:
        return expr._eval_points(points, "root", {} if leaves is None else leaves)
    except NonFiniteValue:
        for x in points:  # the first point that fails raises its own error
            expr._eval_points((x,), "root", {})
        raise


def is_polynomial(expr: FuncExpr) -> bool:
    """Whether the tree expands to a polynomial: it has no XLogAbs or SignedPower node."""
    return not isinstance(expr, (XLogAbs, SignedPower)) and all(map(is_polynomial, expr.children))


def as_polynomial(expr: FuncExpr) -> Polynomial:
    """Symbolic expansion of a log-free tree back to a Polynomial."""
    if not is_polynomial(expr):
        raise NotPolynomial("u*ln|u| and sgn(u)|u|^p are not polynomial")
    return expr._expand()


def const_expr(dim: int, value: Scalar) -> PolyLeaf:
    return PolyLeaf(Polynomial.constant(dim, value))


def _sum_of(terms: List[FuncExpr], dim: int) -> FuncExpr:
    return Sum(tuple(terms)) if terms else PolyLeaf(Polynomial.zero(dim))


def _check_field(poly: Polynomial, field: Sequence[FuncExpr]) -> None:
    if len(field) != poly.dim or any(c.dim != poly.dim for c in field):
        raise DimensionMismatch(
            f"field needs {poly.dim} components of dim {poly.dim}, got dims "
            f"{[c.dim for c in field]}"
        )


def grad_dot(poly: Polynomial, field: Sequence[FuncExpr]) -> FuncExpr:
    """<grad(poly), field>: the sum of d_i(poly) * field_i over nonzero d_i(poly)."""
    _check_field(poly, field)
    r = poly.dim
    terms: List[FuncExpr] = []
    for i in range(r):
        d = dalpha(poly, MultiIndex.unit(r, i))
        if not d.is_zero():
            terms.append(Product((PolyLeaf(d), field[i])))
    return _sum_of(terms, r)


def hess_quad(poly: Polynomial, field: Sequence[FuncExpr]) -> FuncExpr:
    """<Hess(poly) field, field>: the sum of d_i d_j(poly) * field_i * field_j.

    The terms run over (i, j) in row order, skipping zero entries.
    """
    _check_field(poly, field)
    r = poly.dim
    terms: List[FuncExpr] = []
    for i in range(r):
        for j in range(r):
            d = dalpha(poly, MultiIndex.unit(r, i) + MultiIndex.unit(r, j))
            if not d.is_zero():
                terms.append(Product((PolyLeaf(d), field[i], field[j])))
    return _sum_of(terms, r)


def expr_from_json(data: dict) -> FuncExpr:
    if not isinstance(data, dict):
        raise ValueError(f"expression must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "poly":
        return PolyLeaf(Polynomial.from_json(data["terms"], data["dim"]))
    if kind == "sum":
        return Sum(tuple(expr_from_json(c) for c in data["children"]))
    if kind == "product":
        return Product(tuple(expr_from_json(c) for c in data["children"]))
    if kind == "xlogabs":
        return XLogAbs(expr_from_json(data["child"]))
    # the input-only kinds, read as sums and products
    if kind == "scale":
        child = expr_from_json(data["child"])
        return Product((const_expr(child.dim, data["factor"]), child))
    if kind in ("graddot", "hessquad"):
        build = grad_dot if kind == "graddot" else hess_quad
        return build(
            Polynomial.from_json(data["poly"], data["dim"]),
            tuple(expr_from_json(c) for c in data["field"]),
        )
    raise ValueError(f"unknown expression kind {kind!r}")


# ---- domains ----


def _check_rank(rank: int) -> None:
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
        raise ValueError(f"domain rank must be an integer >= 1, got {rank!r}")


@dataclass(frozen=True)
class Domain:
    """The open unit box (0,1)^rank with rational sample points strictly inside it."""

    rank: int
    sample_points: tuple[RationalPoint, ...]
    float_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        _check_rank(self.rank)
        if not (math.isfinite(self.float_tolerance) and self.float_tolerance > 0):
            raise ValueError(
                f"float_tolerance must be finite and > 0, got {self.float_tolerance}"
            )
        if len(self.sample_points) < 8:
            raise ValueError(
                f"need at least 8 sample points, got {len(self.sample_points)}"
            )
        for p in self.sample_points:
            if not self.contains(p):
                raise ValueError(f"sample {p.to_json()} not strictly inside the box")

    def contains(self, p: RationalPoint) -> bool:
        return p.rank == self.rank and all(0 < c < 1 for c in p)

    @classmethod
    def unit(
        cls,
        rank: int,
        n_samples: int = 12,
        seed: int = 0,
        float_tolerance: float = 1e-9,
    ) -> "Domain":
        """Seeded samples of (0,1)^rank: coordinates k/64, 0 < k < 64, drawn point by point."""
        _check_rank(rank)
        rng = random.Random(seed)
        points = tuple(
            RationalPoint(Fraction(rng.randint(1, 63), 64) for _ in range(rank))
            for _ in range(n_samples)
        )
        return cls(rank, points, float_tolerance)


# ---- reparametrization maps ----


@dataclass(frozen=True)
class TauMap:
    """A polynomial map of the ambient box, one component per coordinate."""

    components: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        r = len(self.components)
        if r == 0:
            raise ValueError("map needs rank >= 1")
        for p in self.components:
            if p.dim != r:
                raise DimensionMismatch(
                    f"component dim {p.dim} vs map rank {r}"
                )

    @property
    def rank(self) -> int:
        return len(self.components)

    def __call__(self, x: RationalPoint) -> RationalPoint:
        return RationalPoint(tuple(eval_poly(p, x) for p in self.components))

    @classmethod
    def identity(cls, rank: int) -> "TauMap":
        return cls(tuple(Polynomial.variable(rank, i) for i in range(rank)))

    @classmethod
    def affine(
        cls,
        matrix: Sequence[Sequence[Scalar]],
        offset: Sequence[Scalar],
    ) -> "TauMap":
        """x -> A x + b from a rational matrix A and offset b."""
        r = len(offset)
        comps = []
        for i in range(r):
            p = Polynomial.constant(r, offset[i])
            for j in range(r):
                p = p + Polynomial.variable(r, j) * matrix[i][j]
            comps.append(p)
        return cls(tuple(comps))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "components": [p.to_json() for p in self.components],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TauMap":
        r = data["rank"]
        return cls(tuple(Polynomial.from_json(c, r) for c in data["components"]))


# ---- shared report shape ----


@dataclass
class CheckReport:
    """Outcome of a pointwise verification sweep."""

    check: str
    passed: bool
    max_residual: float
    tolerance: float
    failures: List[dict]
    counts: Dict[str, int]
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "failures": self.failures,
            "counts": self.counts,
            "seed": self.seed,
            # kept for the constraint_report bytes pinned in perfbench/golden.json
            "details": {},
        }


def judge(lhs, rhs, exact: bool, tol: float) -> Tuple[float, bool]:
    """The residual of one identity instance lhs = rhs, and whether it passes.

    Exact instances compare rational values: the residual is |lhs - rhs|,
    or inf when it is too large for a float, and only equality passes.
    Float instances use the relative residual |lhs - rhs| / (1 + |lhs|)
    and pass when it is <= tol, so a NaN residual fails.
    """
    if exact:
        return witness_float(abs(lhs - rhs)), lhs == rhs
    r = abs(lhs - rhs) / (1.0 + abs(lhs))
    return r, r <= tol


def witness_float(value) -> float:
    """A witness side as a float: an exact value too large for one is +-inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def worse(current: float, residual: float) -> float:
    """The running maximum of residuals, which stays NaN once any residual is NaN.

    ``max(0.0, nan)`` is 0.0, so the builtin would hide a NaN residual.
    """
    return residual if residual > current or math.isnan(residual) else current


# ---- power-sign multiplicative maps ----


@dataclass(frozen=True)
class PowerSignMap:
    """M(f)(x) = |f(tau(x))|^{p(x)} * sgn(f(tau(x))), the T_0 of ``momentfam.make_power_sign``."""

    exponent: FuncExpr
    tau: TauMap

    def validate(self, domain: Domain) -> None:
        """p must be positive on the samples and tau must map them into the box."""
        if self.tau.rank != domain.rank:
            raise DimensionMismatch(
                f"map rank {self.tau.rank} vs domain rank {domain.rank}"
            )
        for x in domain.sample_points:
            if eval_expr(self.exponent, (x,))[0] <= 0:
                raise ValueError(f"exponent not positive at sample {x.to_json()}")
            if not domain.contains(self.tau(x)):
                raise ValueError(
                    f"tau image of sample {x.to_json()} leaves the domain box"
                )
