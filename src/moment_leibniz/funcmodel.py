"""Pointwise function model on a sampled box domain.

Expressions combine exact polynomial leaves with sums, products, rational
scalar multiples, the continuous extension of t -> t*ln|t| (value 0 at
t = 0), and first/second derivative contractions whose differentiated
operand is always an exact polynomial.  Trees evaluate to floats at
rational sample points, node by node.  Polynomial-only trees also expand
back to a ``Polynomial``; their exact values are the expansion evaluated
at the point, and ``eval_table`` expands once for a whole set of points.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .multiindex import DimensionMismatch, MultiIndex
from .polycalc import Polynomial, RationalPoint, Scalar, dalpha, eval_poly


class NonFiniteValue(ArithmeticError):
    """Evaluation produced an overflow, inf or nan; message carries the node path."""


class NotPolynomial(ValueError):
    """Exact evaluation or expansion hit a node outside the polynomial fragment."""


def _to_float(value: Fraction, path: str) -> float:
    try:
        out = float(value)
    except OverflowError as exc:
        raise NonFiniteValue(f"overflow converting exact value at {path}") from exc
    if not math.isfinite(out):
        raise NonFiniteValue(f"non-finite value at {path}")
    return out


# ---- expression nodes ----


class FuncExpr:
    """Base class; concrete nodes implement _eval (float value) and _expand.

    There is no exact per-node evaluator: exact values come from _expand.
    """

    dim: int

    def _eval(self, x: RationalPoint, path: str) -> float:
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

    def _eval(self, x: RationalPoint, path: str) -> float:
        return _to_float(eval_poly(self.poly, x), path)

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

    def _eval(self, x: RationalPoint, path: str) -> float:
        return math.fsum(
            c._eval(x, f"{path}.sum[{i}]") for i, c in enumerate(self.children)
        )

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

    def _eval(self, x: RationalPoint, path: str) -> float:
        out = 1.0
        for i, c in enumerate(self.children):
            out *= c._eval(x, f"{path}.product[{i}]")
        if not math.isfinite(out):
            raise NonFiniteValue(f"non-finite value at {path}.product")
        return out

    def _expand(self) -> Polynomial:
        out = Polynomial.constant(self.dim, 1)
        for c in self.children:
            out = out * c._expand()
        return out

    def to_json(self) -> dict:
        return {"kind": "product", "children": [c.to_json() for c in self.children]}


@dataclass(frozen=True)
class Scale(FuncExpr):
    factor: Fraction
    child: FuncExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor", Fraction(self.factor))

    @property
    def dim(self) -> int:
        return self.child.dim

    def _eval(self, x: RationalPoint, path: str) -> float:
        return float(self.factor) * self.child._eval(x, f"{path}.scale")

    def _expand(self) -> Polynomial:
        return self.child._expand() * self.factor

    def to_json(self) -> dict:
        return {
            "kind": "scale",
            "factor": str(self.factor),
            "child": self.child.to_json(),
        }


@dataclass(frozen=True)
class XLogAbs(FuncExpr):
    """The continuous extension of u -> u * ln|u|, with value 0 at u = 0."""

    child: FuncExpr

    @property
    def dim(self) -> int:
        return self.child.dim

    def _eval(self, x: RationalPoint, path: str) -> float:
        v = self.child._eval(x, f"{path}.xlogabs")
        if v == 0.0:
            return 0.0
        return v * math.log(abs(v))

    def _expand(self) -> Polynomial:
        raise NotPolynomial("u*ln|u| is not polynomial")

    def to_json(self) -> dict:
        return {"kind": "xlogabs", "child": self.child.to_json()}


@dataclass(frozen=True)
class GradDot(FuncExpr):
    """<grad(poly), field>; the differentiated operand is an exact polynomial."""

    poly: Polynomial
    field_: tuple[FuncExpr, ...]
    _grad: tuple[Polynomial, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if len(self.field_) != self.poly.dim:
            raise DimensionMismatch(
                f"field has {len(self.field_)} components, poly dim is {self.poly.dim}"
            )
        grad = tuple(
            dalpha(self.poly, MultiIndex.unit(self.poly.dim, i))
            for i in range(self.poly.dim)
        )
        object.__setattr__(self, "_grad", grad)

    @property
    def dim(self) -> int:
        return self.poly.dim

    def _eval(self, x: RationalPoint, path: str) -> float:
        return math.fsum(
            _to_float(eval_poly(gi, x), path) * bi._eval(x, f"{path}.graddot[{i}]")
            for i, (gi, bi) in enumerate(zip(self._grad, self.field_))
        )

    def _expand(self) -> Polynomial:
        out = Polynomial.zero(self.dim)
        for gi, bi in zip(self._grad, self.field_):
            out = out + gi * bi._expand()
        return out

    def to_json(self) -> dict:
        return {
            "kind": "graddot",
            "dim": self.dim,
            "poly": self.poly.to_json(),
            "field": [c.to_json() for c in self.field_],
        }


@dataclass(frozen=True)
class HessQuad(FuncExpr):
    """<Hess(poly) field, field>; second derivatives are exact polynomials."""

    poly: Polynomial
    field_: tuple[FuncExpr, ...]
    _hess: tuple[tuple[Polynomial, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if len(self.field_) != self.poly.dim:
            raise DimensionMismatch(
                f"field has {len(self.field_)} components, poly dim is {self.poly.dim}"
            )
        r = self.poly.dim
        hess = tuple(
            tuple(
                dalpha(self.poly, MultiIndex.unit(r, i) + MultiIndex.unit(r, j))
                for j in range(r)
            )
            for i in range(r)
        )
        object.__setattr__(self, "_hess", hess)

    @property
    def dim(self) -> int:
        return self.poly.dim

    def _eval(self, x: RationalPoint, path: str) -> float:
        vals = [
            c._eval(x, f"{path}.hessquad[{i}]") for i, c in enumerate(self.field_)
        ]
        return math.fsum(
            _to_float(eval_poly(self._hess[i][j], x), path) * vals[i] * vals[j]
            for i in range(self.dim)
            for j in range(self.dim)
        )

    def _expand(self) -> Polynomial:
        fields = [c._expand() for c in self.field_]
        out = Polynomial.zero(self.dim)
        for i in range(self.dim):
            for j in range(self.dim):
                out = out + self._hess[i][j] * fields[i] * fields[j]
        return out

    def to_json(self) -> dict:
        return {
            "kind": "hessquad",
            "dim": self.dim,
            "poly": self.poly.to_json(),
            "field": [c.to_json() for c in self.field_],
        }


def _check_children(children: Sequence[FuncExpr], label: str) -> None:
    if not children:
        raise ValueError(f"{label} needs at least one child")
    dims = {c.dim for c in children}
    if len(dims) > 1:
        raise DimensionMismatch(f"{label} children disagree on dim: {sorted(dims)}")


# ---- module-level evaluation / expansion ----


def eval_expr(expr: FuncExpr, x: RationalPoint) -> float:
    """Float value of the tree at x; raises NonFiniteValue with node path."""
    if expr.dim != x.rank:
        raise DimensionMismatch(f"expr dim {expr.dim} vs point rank {x.rank}")
    return expr._eval(x, "root")


def eval_exact(expr: FuncExpr, x: RationalPoint) -> Fraction:
    """Exact rational value; raises NotPolynomial on log-bearing trees."""
    if expr.dim != x.rank:
        raise DimensionMismatch(f"expr dim {expr.dim} vs point rank {x.rank}")
    return eval_poly(as_polynomial(expr), x)


def eval_table(expr: FuncExpr, points: Sequence[RationalPoint], exact: bool) -> list:
    """The tree's values at every point: exact ones from one expansion, else floats."""
    if exact:
        poly = as_polynomial(expr)
        return [eval_poly(poly, x) for x in points]
    return [eval_expr(expr, x) for x in points]


def as_polynomial(expr: FuncExpr) -> Polynomial:
    """Symbolic expansion of a log-free tree back to a Polynomial."""
    return expr._expand()


def const_expr(dim: int, value: Scalar) -> PolyLeaf:
    return PolyLeaf(Polynomial.constant(dim, value))


def poly_expr(poly: Polynomial) -> PolyLeaf:
    return PolyLeaf(poly)


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
    if kind == "scale":
        return Scale(Fraction(data["factor"]), expr_from_json(data["child"]))
    if kind == "xlogabs":
        return XLogAbs(expr_from_json(data["child"]))
    if kind == "graddot":
        return GradDot(
            Polynomial.from_json(data["poly"], data["dim"]),
            tuple(expr_from_json(c) for c in data["field"]),
        )
    if kind == "hessquad":
        return HessQuad(
            Polynomial.from_json(data["poly"], data["dim"]),
            tuple(expr_from_json(c) for c in data["field"]),
        )
    raise ValueError(f"unknown expression kind {kind!r}")


# ---- domains ----


@dataclass(frozen=True)
class Domain:
    """An open box with rational sample points strictly inside it."""

    box: tuple[tuple[Fraction, Fraction], ...]
    sample_points: tuple[RationalPoint, ...]
    float_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if len(box) == 0:
            raise ValueError("domain needs rank >= 1")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi})")
        if self.float_tolerance <= 0:
            raise ValueError("float_tolerance must be > 0")
        if len(self.sample_points) < 8:
            raise ValueError(
                f"need at least 8 sample points, got {len(self.sample_points)}"
            )
        for p in self.sample_points:
            if not self.contains(p):
                raise ValueError(f"sample {p.to_json()} not strictly inside the box")

    @property
    def rank(self) -> int:
        return len(self.box)

    def contains(self, p: RationalPoint) -> bool:
        if p.rank != self.rank:
            return False
        return all(lo < c < hi for c, (lo, hi) in zip(p.coords, self.box))

    @classmethod
    def sampled(
        cls,
        box: Sequence[Tuple[Scalar, Scalar]],
        n_samples: int = 12,
        seed: int = 0,
        float_tolerance: float = 1e-9,
    ) -> "Domain":
        """Deterministic rational samples lo + (hi-lo)*k/64, 0 < k < 64."""
        rng = random.Random(seed)
        fbox = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
        points = []
        for _ in range(n_samples):
            coords = tuple(
                lo + (hi - lo) * Fraction(rng.randint(1, 63), 64) for lo, hi in fbox
            )
            points.append(RationalPoint(coords))
        return cls(fbox, tuple(points), float_tolerance)

    @classmethod
    def unit(
        cls,
        rank: int,
        n_samples: int = 12,
        seed: int = 0,
        float_tolerance: float = 1e-9,
    ) -> "Domain":
        """The open unit box (0,1)^rank with seeded samples."""
        return cls.sampled(((0, 1),) * rank, n_samples, seed, float_tolerance)


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
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "failures": self.failures,
            "counts": self.counts,
            "seed": self.seed,
            "details": self.details,
        }


def judge(lhs, rhs, exact: bool, tol: float) -> Tuple[float, bool]:
    """The residual of one identity instance lhs = rhs, and whether it passes.

    Exact instances compare rational values: the residual is |lhs - rhs|,
    or inf when it is too large for a float, and only equality passes.
    Float instances use the relative residual |lhs - rhs| / (1 + |lhs|)
    and pass when it is <= tol, so a NaN residual fails.
    """
    if exact:
        try:
            residual = float(abs(lhs - rhs))
        except OverflowError:
            residual = math.inf
        return residual, lhs == rhs
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
    """M(f)(x) = |f(tau(x))|^{p(x)} * sgn(f(tau(x))), with 0 at zeros of f."""

    exponent: FuncExpr
    tau: TauMap

    def validate(self, domain: Domain) -> None:
        """p must be positive on the samples and tau must map them into the box."""
        if self.tau.rank != domain.rank:
            raise DimensionMismatch(
                f"map rank {self.tau.rank} vs domain rank {domain.rank}"
            )
        for x in domain.sample_points:
            if eval_expr(self.exponent, x) <= 0:
                raise ValueError(f"exponent not positive at sample {x.to_json()}")
            if not domain.contains(self.tau(x)):
                raise ValueError(
                    f"tau image of sample {x.to_json()} leaves the domain box"
                )


def power_sign_apply(m: PowerSignMap, f: Polynomial, x: RationalPoint) -> float:
    v = eval_poly(f, m.tau(x))
    if v == 0:
        return 0.0
    p = eval_expr(m.exponent, x)
    try:
        mag = abs(float(v)) ** p
    except OverflowError as exc:
        raise NonFiniteValue("overflow in power-sign magnitude") from exc
    if not math.isfinite(mag):
        raise NonFiniteValue("non-finite power-sign magnitude")
    return mag if v > 0 else -mag


def check_multiplicative(
    m: PowerSignMap,
    probes: Sequence[Tuple[Polynomial, Polynomial]],
    domain: Domain,
    apply_fn: Callable[[PowerSignMap, Polynomial, RationalPoint], float] = power_sign_apply,
    seed: Optional[int] = None,
) -> CheckReport:
    """Sampled check that M(f*g) = M(f)*M(g) and that M preserves sign.

    The sign probe evaluates M on the constant -1, whose image must stay
    -1; plain product checks cannot tell M from the sign-stripped
    |f(tau(x))|^{p(x)}, so the probe is always included.  Both checks use
    the domain tolerance.
    """
    tol = domain.float_tolerance
    m.validate(domain)
    failures: List[dict] = []
    max_residual = 0.0
    dim = domain.rank
    for k, (f, g) in enumerate(probes):
        fg = f * g
        for x in domain.sample_points:
            lhs = apply_fn(m, fg, x)
            rhs = apply_fn(m, f, x) * apply_fn(m, g, x)
            residual, ok = judge(lhs, rhs, False, tol)
            max_residual = worse(max_residual, residual)
            if not ok:
                failures.append(
                    {
                        "type": "multiplicativity",
                        "probe": k,
                        "point": x.to_json(),
                        "lhs": lhs,
                        "rhs": rhs,
                        "residual": residual,
                    }
                )
    minus_one = Polynomial.constant(dim, -1)
    sign_ok = True
    for x in domain.sample_points:
        val = apply_fn(m, minus_one, x)
        residual = abs(val + 1.0)
        max_residual = worse(max_residual, residual)
        if not residual <= tol:
            sign_ok = False
            failures.append(
                {
                    "type": "sign_preservation",
                    "point": x.to_json(),
                    "lhs": val,
                    "rhs": -1.0,
                    "residual": residual,
                }
            )
    return CheckReport(
        check="power_sign_multiplicative",
        passed=not failures,
        max_residual=max_residual,
        tolerance=tol,
        failures=failures,
        counts={"probes": len(probes), "points": len(domain.sample_points)},
        seed=seed,
        details={"sign_preserved": sign_ok},
    )
