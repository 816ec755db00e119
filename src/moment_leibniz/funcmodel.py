"""Pointwise function model, sampled on the open unit box.

Expressions are trees of four JSON kinds: exact polynomial leaves, sums,
products, and the continuous extension of t -> t*ln|t| (value 0 at
t = 0).  A rational multiple is a product with a constant leaf.  No
descriptor reads the other two nodes: ``SignedPower``, sgn(u) |u|^p with
0 at u = 0, and ``Jet(beta)``, D^beta of the probe in an operator
family's trees (``momentfam``).  ``substitute_jets`` puts a leaf of one
``polycalc.derivative_table`` in place of each jet and drops from a sum
each product with a zero jet factor.  So <grad p, b> and <Hess(p) c, c>,
the substituted ``contraction`` of a polynomial p's jets with a field
(``grad_dot``, ``hess_quad``), are sums of products of p's nonzero
derivatives with the field components; ``expr_from_json`` reads the JSON
kinds ``scale``, ``graddot`` and ``hessquad`` that way.  Two trees are
equal when their nodes agree in type and operands; none is hashable.

Trees evaluate to floats over a tuple of rational points in one walk
(``eval_expr``): each node computes its values at every point, with the
float operations that one point alone would take, in the same order.
Children are evaluated in order before their parent, so a
``NonFiniteValue`` names the first node whose column fails, whatever
the point.  The points are a ``polycalc.PointColumns``, whose rank
``eval_expr`` checks once against the tree's dim (a plain sequence is
wrapped afresh), and every polynomial leaf evaluated there reads its one
set of power and monomial columns.  Over a ``polycalc.JetColumns``, the
points once per probe function h with each h's derivative table bound
(``points.tables``, empty on plain points, where a jet has no value), a
``Jet(beta)`` reads the column of D^beta h for every h, and each leaf's
polynomial, each beta and each u*ln|u| node is evaluated once, however
many trees hold it: one walk evaluates the tree for every h, each row
with the float operations of that h's ``substitute_jets`` copy, and a
sum leaves out a term that substitution drops for every h.  A tree
built of polynomial leaves and jets by sums and products
(``is_polynomial``) has one exact walk, ``jet_form``, which writes it as
a polynomial in the jets over Q[x]; ``as_polynomial`` expands a tree with
no jet monomial left to that form's jet-free part, the ``Polynomial``
which the exact verifiers compare.

Every sampled check reads one ``Domain``: the open unit box (0,1)^r, its
seeded rational sample points and the float tolerance.  A family read
through a point map is evaluated at the samples' images, which
``Domain.images`` computes exactly and refuses at the first one outside
the box, a fresh ``PointColumns`` per call.  Every sampled check turns a
column of float instances lhs = rhs into residuals and verdicts with
``judge_column``; every sampled convolution product comes from
``convolution_products``, whose columns ``convolution_column`` sums;
``witness_float`` writes an exact witness value as a float, +-inf when
it is too large for one.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .multiindex import (
    DimensionMismatch,
    MultiIndex,
    check_count,
    check_tolerance,
    enumerate_height_at_most,
)
from .polycalc import (
    PointColumns,
    Polynomial,
    RationalPoint,
    Scalar,
    derivative_table,
    eval_poly,
    eval_poly_values,
)


class NonFiniteValue(ArithmeticError):
    """Evaluation produced an overflow, inf or nan; message carries the node path."""


class NotPolynomial(ValueError):
    """Expansion met a node other than a polynomial leaf, a jet, a sum or a product."""


# ---- expression nodes ----


class FuncExpr:
    """Base class; nodes implement _eval_points (float values).

    There is no exact per-node evaluator: exact values come from ``jet_form``.
    ``children`` are the operands of a sum or a product.
    """

    __slots__ = ()
    dim: int
    children: Tuple["FuncExpr", ...] = ()

    def __eq__(self, other: object) -> bool:
        """Trees are equal when they are of one type with equal operands."""
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, s) == getattr(other, s) for s in self.__slots__)

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class PolyLeaf(FuncExpr):
    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial) -> None:
        self.poly = poly

    @property
    def dim(self) -> int:
        return self.poly.dim

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        """The float values of poly at the points, from ``points.float_values``."""
        try:
            return points.float_values(self.poly)
        except OverflowError as exc:
            raise NonFiniteValue(f"overflow converting exact value at {path}") from exc

    def to_json(self) -> dict:
        return {"kind": "poly", "dim": self.dim, "terms": self.poly.to_json()}


class Sum(FuncExpr):
    __slots__ = ("children",)

    def __init__(self, children: Tuple[FuncExpr, ...]) -> None:
        _check_children(children, "Sum")
        self.children = children

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        # a term substitute_jets drops for every bound function is not evaluated; on
        # the rows of a function that drops it, a product with a zero jet is +-0.0,
        # which changes no fsum, and fsum of zeros alone is +0.0, the zero leaf's value
        tables = points.tables
        columns = [
            c._eval_points(points, f"{path}.sum[{i}]") for i, c in enumerate(self.children)
            if not (tables and all(_drops(c, t) for t in tables))
        ]
        if not columns:
            return [0.0] * len(points)
        try:
            return list(map(math.fsum, zip(*columns)))
        except OverflowError as exc:  # finite children whose sum leaves the range
            raise NonFiniteValue(f"non-finite value at {path}.sum") from exc

    def to_json(self) -> dict:
        return {"kind": "sum", "children": [c.to_json() for c in self.children]}


class Product(FuncExpr):
    __slots__ = ("children",)

    def __init__(self, children: Tuple[FuncExpr, ...]) -> None:
        _check_children(children, "Product")
        self.children = children

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        out = [1.0] * len(points)
        for i, c in enumerate(self.children):
            values = c._eval_points(points, f"{path}.product[{i}]")
            out = list(map(operator.mul, out, values))
        if not all(map(math.isfinite, out)):
            raise NonFiniteValue(f"non-finite value at {path}.product")
        return out

    def to_json(self) -> dict:
        return {"kind": "product", "children": [c.to_json() for c in self.children]}


class XLogAbs(FuncExpr):
    """The continuous extension of u -> u * ln|u|, with value 0 at u = 0."""

    __slots__ = ("child",)

    def __init__(self, child: FuncExpr) -> None:
        self.child = child

    @property
    def dim(self) -> int:
        return self.child.dim

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        if not points.tables:  # plain points keep no column
            return self._values(points, path)
        return points.column(self, lambda: self._values(points, path))

    def _values(self, points: PointColumns, path: str) -> List[float]:
        values = self.child._eval_points(points, f"{path}.xlogabs")
        out = [0.0 if v == 0.0 else v * math.log(abs(v)) for v in values]
        if not all(map(math.isfinite, out)):
            raise NonFiniteValue(f"non-finite value at {path}.xlogabs")
        return out

    def to_json(self) -> dict:
        return {"kind": "xlogabs", "child": self.child.to_json()}


class SignedPower(FuncExpr):
    """u -> sgn(u) * |u|^p, with value 0 at u = 0, for a base u and an exponent p."""

    __slots__ = ("child", "exponent")

    def __init__(self, child: FuncExpr, exponent: FuncExpr) -> None:
        self.child = child
        self.exponent = exponent

    @property
    def dim(self) -> int:
        return self.child.dim

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        node = f"{path}.signedpower"
        bases = self.child._eval_points(points, node)
        powers = self.exponent._eval_points(points, f"{node}.exponent")
        try:  # a float power past the range raises; finite operands give no inf or nan
            return [0.0 if u == 0.0 else math.copysign(abs(u) ** p, u) for u, p in zip(bases, powers)]
        except OverflowError as exc:
            raise NonFiniteValue(f"non-finite value at {node}") from exc


class Jet(FuncExpr):
    """D^beta of the probe: ``substitute_jets`` fills it in, and over points with bound
    functions (a ``JetColumns``) it reads the column of D^beta h for every bound function
    h; elsewhere it has no value."""

    __slots__ = ("beta",)

    def __init__(self, beta: MultiIndex) -> None:
        self.beta = beta

    @property
    def dim(self) -> int:
        return self.beta.rank

    def _eval_points(self, points: PointColumns, path: str) -> List[float]:
        if not points.tables:
            beta = self.beta.to_json()
            raise ValueError(f"jet {beta} at {path} has no value before substitution")
        try:  # the message of the leaf substitute_jets puts here
            return points.jet_values(self.beta)
        except OverflowError as exc:
            raise NonFiniteValue(f"overflow converting exact value at {path}") from exc


def _drops(term: FuncExpr, table: Mapping[MultiIndex, Polynomial]) -> bool:
    """Whether ``substitute_jets`` drops the sum term ``term`` for ``table``: a product
    with a jet factor whose entry is zero."""
    return isinstance(term, Product) and any(
        isinstance(j, Jet) and not table[j.beta] for j in term.children
    )


def _check_children(children: Sequence[FuncExpr], label: str) -> None:
    if not children:
        raise ValueError(f"{label} needs at least one child")
    dims = {c.dim for c in children}
    if len(dims) > 1:
        raise DimensionMismatch(f"{label} children disagree on dim: {sorted(dims)}")


# ---- module-level evaluation / expansion ----


def eval_expr(expr: FuncExpr, points: Sequence[RationalPoint]) -> List[float]:
    """Float values of the tree at each point; raises NonFiniteValue with node path.

    Every evaluation at one ``PointColumns`` shares its power and monomial
    columns; a plain sequence of points is wrapped afresh.
    """
    points = PointColumns.of(points)
    points.check_dim(expr.dim, "expr")
    return expr._eval_points(points, "root")


def is_polynomial(expr: FuncExpr) -> bool:
    """Whether ``jet_form`` accepts the tree: polynomial leaves and jets under sums and products.

    A tree with any other node (u*ln|u|, a signed power, a float-only class) is sampled."""
    if isinstance(expr, (Sum, Product)):
        return all(map(is_polynomial, expr.children))
    return isinstance(expr, (PolyLeaf, Jet))


def jet_height(expr: FuncExpr) -> int:
    """The largest |beta| of a ``Jet(beta)`` in the tree, or -1 when it has none."""
    if isinstance(expr, Jet):
        return expr.beta.height
    if isinstance(expr, (XLogAbs, SignedPower)):
        return max(jet_height(getattr(expr, s)) for s in expr.__slots__)
    return max(map(jet_height, expr.children), default=-1)


def substitute_jets(
    trees: Iterable[FuncExpr], table: Mapping[MultiIndex, Polynomial]
) -> List[FuncExpr]:
    """The trees with one shared leaf of ``table[beta]`` in place of each ``Jet(beta)``.

    A sum drops each product with a jet factor whose entry is zero, and a
    sum left empty is the zero leaf, so a ``contraction`` over the jets of
    f is the tree ``grad_dot`` or ``hess_quad`` builds for f.
    """
    leaves = {beta: PolyLeaf(d) for beta, d in table.items()}
    return [_substitute(tree, table, leaves) for tree in trees]


def _substitute(
    node: FuncExpr, table: Mapping[MultiIndex, Polynomial], leaves: Dict[MultiIndex, PolyLeaf]
) -> FuncExpr:
    # a module-level walk: a nested recursive closure would be a reference cycle per call
    if isinstance(node, PolyLeaf):
        return node
    if isinstance(node, Jet):
        return leaves[node.beta]
    if isinstance(node, Product):
        return Product(tuple([_substitute(c, table, leaves) for c in node.children]))
    if isinstance(node, Sum):
        kept = [_substitute(c, table, leaves) for c in node.children if not _drops(c, table)]
        return Sum(tuple(kept)) if kept else PolyLeaf(Polynomial.zero(node.dim))
    if isinstance(node, (XLogAbs, SignedPower)):
        return type(node)(*[_substitute(getattr(node, s), table, leaves) for s in node.__slots__])
    return node


def as_polynomial(expr: FuncExpr) -> Polynomial:
    """Symbolic expansion of a tree back to a Polynomial: the jet-free part of its ``jet_form``.

    ``NotPolynomial`` is raised where the walk meets a node ``is_polynomial`` refuses, and a
    ValueError when a jet monomial is left; a tree whose jet terms cancel expands to the rest.
    """
    form = jet_form(expr)
    for m in form:
        if m:
            raise ValueError(f"jet {m[0].to_json()} has no expansion before substitution")
    return form[()] if form else Polynomial.zero(expr.dim)


def jet_form(expr: FuncExpr) -> Dict[Tuple[MultiIndex, ...], Polynomial]:
    """A log-free tree as a polynomial in the jet symbols D^beta h, in one walk: a map from
    each monomial, a tuple of jet indices in lexicographic order, to its nonzero coefficient
    in x.  Indices sort as plain tuples (``MultiIndex``'s ``<`` is the componentwise partial
    order), so a monomial has one key whatever the order of its factors.  It is the one exact
    walk of a tree, and raises ``NotPolynomial`` at a node ``is_polynomial`` refuses."""
    if isinstance(expr, PolyLeaf):
        return {(): expr.poly} if expr.poly else {}
    if isinstance(expr, Jet):  # the coefficient 1, built without the validating constructor
        one = Polynomial._make(expr.dim, {MultiIndex._trusted((0,) * expr.dim): Fraction(1)})
        return {(expr.beta,): one}
    if isinstance(expr, Sum):
        return _collect(term for child in expr.children for term in jet_form(child).items())
    if isinstance(expr, Product):
        out, *rest = map(jet_form, expr.children)
        for form in rest:
            pairs = itertools.product(out.items(), form.items())
            out = _collect((tuple(sorted(m + n, key=tuple)), c * d) for (m, c), (n, d) in pairs)
        return out
    raise NotPolynomial(f"{type(expr).__name__} is not polynomial")


def _collect(terms: Iterable[Tuple[Tuple[MultiIndex, ...], Polynomial]]) -> Dict:
    """The sum of (monomial, coefficient) terms, like monomials added, zero coefficients dropped."""
    out: Dict[Tuple[MultiIndex, ...], Polynomial] = {}
    for m, c in terms:
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def const_expr(dim: int, value: Scalar) -> PolyLeaf:
    return PolyLeaf(Polynomial.constant(dim, value))


def contraction(field: Sequence[FuncExpr], order: int, dim: int) -> Sum:
    """The sum of Jet(e_(i_1) + ... + e_(i_order)) * field_(i_1) * ... * field_(i_order)
    over the axis tuples in row order, for a field of ``dim`` components of dim ``dim``."""
    if len(field) != dim or any(c.dim != dim for c in field):
        raise DimensionMismatch(
            f"field needs {dim} components of dim {dim}, got dims {[c.dim for c in field]}"
        )
    terms = []
    for axes in itertools.product(range(dim), repeat=order):
        beta = MultiIndex._trusted(tuple(map(axes.count, range(dim))))
        terms.append(Product((Jet(beta), *(field[i] for i in axes))))
    return Sum(tuple(terms))


def grad_dot(poly: Polynomial, field: Sequence[FuncExpr]) -> FuncExpr:
    """<grad(poly), field>: the sum of d_i(poly) * field_i over nonzero d_i(poly)."""
    table = derivative_table(poly, enumerate_height_at_most(poly.dim, 1))
    return substitute_jets([contraction(field, 1, poly.dim)], table)[0]


def hess_quad(poly: Polynomial, field: Sequence[FuncExpr]) -> FuncExpr:
    """<Hess(poly) field, field>: sum of d_i d_j(poly) * field_i * field_j, (i, j) in row order."""
    table = derivative_table(poly, enumerate_height_at_most(poly.dim, 2))
    return substitute_jets([contraction(field, 2, poly.dim)], table)[0]


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

# the sample coordinates k/64 of ``Domain.unit``, indexed by k
_SIXTY_FOURTHS = tuple(Fraction(k, 64) for k in range(64))


class Domain:
    """The open unit box (0,1)^rank with rational sample points strictly inside it."""

    def __init__(
        self, rank: int, sample_points: Tuple[RationalPoint, ...], float_tolerance: float = 1e-9
    ) -> None:
        self._set(rank, sample_points, float_tolerance)
        for p in self.sample_points:
            if not self.contains(p):
                raise ValueError(f"sample {p.to_json()} not strictly inside the box")

    def _set(
        self, rank: int, sample_points: Tuple[RationalPoint, ...], float_tolerance: float
    ) -> None:
        """Keep the fields, after checking the rank, the tolerance and the sample count."""
        self.rank = rank
        self.sample_points = sample_points
        self.float_tolerance = float_tolerance
        check_count("domain rank", self.rank, 1)
        check_tolerance("float_tolerance", self.float_tolerance)
        if len(self.sample_points) < 8:
            raise ValueError(
                f"need at least 8 sample points, got {len(self.sample_points)}"
            )

    def contains(self, p: RationalPoint) -> bool:
        # a RationalPoint holds normalized Fractions, whose denominators are positive
        return p.rank == self.rank and all(0 < c.numerator < c.denominator for c in p)

    def images(self, point_map: Optional[TauMap]) -> PointColumns:
        """The samples read through ``point_map``, themselves when there is no map.

        Each call returns a fresh ``PointColumns``.  Each map component is
        evaluated at all the samples in one ``eval_poly_values`` call, all
        of them over one ``PointColumns`` of the samples.  Raises
        ValueError at the first image outside the box.
        """
        samples = PointColumns(self.sample_points)
        if point_map is None:
            return samples
        columns = [eval_poly_values(p, samples) for p in point_map.components]
        images = PointColumns(map(RationalPoint, zip(*columns)))
        for x, y in zip(self.sample_points, images):
            if not self.contains(y):
                raise ValueError(f"sample {x.to_json()} maps to {y.to_json()}, outside the box")
        return images

    @classmethod
    def unit(
        cls,
        rank: int,
        n_samples: int = 12,
        seed: int = 0,
        float_tolerance: float = 1e-9,
    ) -> "Domain":
        """Seeded samples of (0,1)^rank: coordinates k/64, 0 < k < 64, drawn point by point.

        Such points are inside the box by construction, so none is checked."""
        check_count("domain rank", rank, 1)
        randint = random.Random(seed).randint
        points = tuple([
            RationalPoint._trusted([_SIXTY_FOURTHS[randint(1, 63)] for _ in range(rank)])
            for _ in range(n_samples)
        ])
        domain = cls.__new__(cls)
        domain._set(rank, points, float_tolerance)
        return domain


# ---- reparametrization maps ----


class TauMap:
    """A polynomial map of the ambient box, one component per coordinate."""

    def __init__(self, components: Tuple[Polynomial, ...]) -> None:
        self.components = components
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


class CheckReport:
    """Outcome of a pointwise verification sweep."""

    def __init__(
        self, check: str, passed: bool, max_residual: float, tolerance: float,
        failures: List[dict], counts: Dict[str, int], seed: Optional[int] = None,
    ) -> None:
        self.check = check
        self.passed = passed
        self.max_residual = max_residual
        self.tolerance = tolerance
        self.failures = failures
        self.counts = counts
        self.seed = seed

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


def convolution_products(left, right, splits) -> List[List[float]]:
    """The column of w * left[beta] * right[gamma] for each split (w, beta, gamma), in split order.

    Each weight becomes a float once, as ``w * a`` converts it (OverflowError past
    the range), and a weight of 1 is skipped, as 1.0 * a is a: the bits are the same.
    """
    products = []
    for w, beta, gamma in splits:
        if w == 1:
            products.append(list(map(operator.mul, left[beta], right[gamma])))
        else:
            w = float(w)
            products.append([w * a * b for a, b in zip(left[beta], right[gamma])])
    return products


def convolution_column(left, right, splits) -> List[float]:
    """Each point's sum of its ``convolution_products``, by ``sum`` in split order; [] if none."""
    return list(map(sum, zip(*convolution_products(left, right, splits))))


def judge_column(lhs, rhs, tol: float) -> Tuple[List[float], float, List[int]]:
    """The residuals of float instances lhs[i] = rhs[i], the worst one and the failing positions.

    The residual is the relative |lhs - rhs| / (1 + |lhs|), and an instance
    passes when it is <= tol, so a NaN residual fails.  The worst is what
    ``worse`` folds from 0.0 over the column: NaN if any residual is NaN
    (the last one), else the largest, and 0.0 for an empty column.
    """
    residuals = [abs(a - b) / (1.0 + abs(a)) for a, b in zip(lhs, rhs)]
    failing = [i for i, r in enumerate(residuals) if not r <= tol]
    nans = [residuals[i] for i in failing if math.isnan(residuals[i])]
    worst = nans[-1] if nans else max(residuals, default=0.0)
    return residuals, worst, failing


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

