"""Exact multivariate polynomial calculus over the rationals.

Polynomials are sparse maps from monomial exponents (``MultiIndex``, a
validated tuple) to ``Fraction`` coefficients, kept canonical with no
zero entries, so equality is structural and the product-derivative
identity

    D^alpha(f*g) = sum_{beta <= alpha} C(alpha, beta) D^beta(f) D^{alpha-beta}(g)

is checked with zero tolerance.  D^0 is the identity map.

``Polynomial(dim, terms)`` canonicalizes and validates whatever it is
given.  Results the module already knows to be canonical skip that work
through the private ``Polynomial._make(dim, terms)``: its callers pass a
term map whose keys are distinct ``MultiIndex`` of rank ``dim`` and whose
coefficients are nonzero ``Fraction``.  ``+``, unary ``-``, ``*``,
``dalpha`` and ``random_polynomial`` build their results that way.  A
term key is its exponent tuple, so ``dalpha`` and ``eval_poly_ratios``
iterate keys directly.

The product kernels work on packed term maps instead, one int key per
monomial: the Kronecker substitution e -> sum_i e_i B^(r-1-i) for a base
B above every coordinate met, which keeps the lexicographic order.  A
product's key is then ka + kb, and a one-step partial in x_i reads the
exponent as (k // B^(r-1-i)) % B and steps to k - B^(r-1-i).  Each call
picks B once, as 1 plus the largest coordinate of its left operands plus
the largest of its right ones, so no sum of exponents carries into the
next digit; ``form_failures`` packs more digits (below).  Tables are
checked for one dimension first.
Every single sum comes from one accumulator, ``_convolve``: the sum of
w * a * b over weighted pairs of packed maps, with zeros dropped;
``check_leibniz_pairs`` walks all of a pair's sums at once (below).
``*`` and ``convolution_sum`` pack their operands once on the way in and
unpack the result once (``_unpack``), wrapping each key in a
``MultiIndex``.  ``convolution_sum`` sums
w * left[beta] * right[gamma] over one alpha's ``convolution_terms``,
from two tables of derivatives or operator values: ``leibniz_rhs`` is
that sum over ``dalpha`` tables of f and g, and the exact moment
verifier's witnesses build their sides with it.
Each shape (rank, height) is planned once per process, in a bounded memo
of the 32 latest shapes, kept per split rule so that a patched
``convolution_terms`` is read: a plan is every alpha's splits up to the
height, through this module's name ``convolution_terms``, all
immutable.  ``convolution_table`` hands out a fresh dict of fresh split
lists from it.  ``check_leibniz_pairs`` alone reads the shape's
``_plan`` steps and its splits filed by beta as positions: they are
built from the plan on its first call of a shape and kept in a second
memo like it, so a process that never calls it never builds them.
``check_leibniz_all`` is its one-pair case.

Multi-derivatives come from one packed table (``_derivative_table``)
over a down-closed, lexicographically ordered index list: D^alpha f is
the one-step partial d_i of the entry at alpha - e_i, with i the last
nonzero entry of alpha, so each step differentiates the few terms its
parent still has.  ``_plan`` gives every index its position and its
step, the parent's position and the axis i, and a table is a list
aligned with the plan, so building one makes no index and hashes no
key.  ``check_leibniz_pairs`` builds its tables on integer maps, starts
each alpha's sum at D^alpha(fg), and walks beta by beta: the
shape's plan files each split under its beta as (position of gamma,
position of alpha, -w), and every split with no empty side adds
-w D^beta f D^gamma g into its alpha's sum, which must end all zero;
``derivative_table`` builds one on a probe's own coefficients, unpacked,
for an operator family's jets; ``dalpha`` is for single derivatives.

``check_leibniz_pairs`` and ``form_failures`` decide identities on
integer maps and return indices only; every public function returns
``Fraction`` coefficients.  Both sides of the Leibniz identity are
bilinear in (f, g), so ``check_leibniz_pairs`` decides it for the pair
cleared of denominators.  ``form_failures`` reads operators as forms
over the jets, T_alpha(h) = sum_m c_m prod_{b in m} D^b h, and decides
(*) T_alpha(fg) = sum w T_beta(f) T_gamma(g) for all f and g at once:
with u_b, v_b symbols for the jets of f and g, and the jets of fg
written by Leibniz as (uv)_b = sum_{c <= b} C(b, c) u_c v_(b-c), it
compares both sides as polynomials in the u, v over Q[x].  That is
exact, because
  - at a point, polynomial probes realize any jets of f and g,
    independently;
  - a polynomial in the u, v that vanishes at all their values is zero,
    so (*) holds at x for all f, g exactly when every coefficient of the
    difference vanishes at x;
  - a polynomial in x that vanishes on the open box is zero.
With K the lcm of every c_m's denominator, each K c_m is an integer map,
and each alpha's difference, K^2 times that of (*), is one ``_convolve``
call: K times the left side minus each split's product.  Its key packs a
term's x-exponent and u, v monomial: the x-digits, base 1 + 2 * top for
top the largest coordinate of any c_m, then a count digit per jet of f
and one per jet of g, base 1 + D for D the largest jet degree of any
monomial.  No digit carries: a right-side product has x-coordinates up to
2 * top, and every count is at most D, as a side's term comes from one
monomial and a left-side term picks one Leibniz split per factor.
A point map composed after the operators, or a probe map before them,
keeps a formal pass but may hide a formal failure (a map that is not
injective), so a failure needs a probe that shows it.

``eval_poly_ratios`` sums integer numerators over one common denominator
per point, the lcm of the coefficient denominators times prod_i d_i^K
for the point's coordinates n_i/d_i and K the polynomial's largest
exponent.  It works by columns: each term adds its monomial's column
over the whole point tuple.  A ``PointColumns`` is such a tuple, its one
rank checked when it is built, and it keeps the power and monomial
columns it has built, so every polynomial evaluated at the same object
reads them.  A ``JetColumns`` is the points once per probe function,
each function's derivative table bound to it.  The evaluators take a
plain sequence of points as well and wrap it afresh.
``eval_poly_values`` makes each pair one ``Fraction``, and ``eval_poly``
is that at a single point; both equal a term-by-term Fraction sum.  The
float evaluator divides a pair as ints, which is correctly rounded
whatever the pair that names the rational, so it equals
``float(Fraction(...))``, ``OverflowError`` included.

``compose`` substitutes polynomials for the variables exactly, and
``nonzero_grid_point`` names a point of the open unit box where a nonzero
polynomial does not vanish; the exact verifiers take a witness there when
no sample shows a difference.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .multiindex import (
    DimensionMismatch,
    MultiIndex,
    as_multiindex,
    check_count,
    convolution_terms,
    enumerate_below,
    enumerate_height_at_most,
)

Scalar = Union[int, Fraction, str]
# one alpha's weighted splits (C(alpha, beta), beta, alpha - beta), as convolution_terms lists them
Splits = List[Tuple[int, MultiIndex, MultiIndex]]
Coeff = Union[int, Fraction]
# a term map keyed by packed exponents (see the module docstring)
Packed = Dict[int, Coeff]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # Fraction(True) is 1, yet a JSON true is no number
        raise ValueError(f"a scalar must be a number, got {value!r}")
    return Fraction(value)


class RationalPoint(tuple):
    """A point of Q^r where expressions get evaluated exactly: a tuple of Fractions."""

    __slots__ = ()

    def __new__(cls, values: Iterable[Scalar]) -> "RationalPoint":
        coords = tuple(_as_fraction(c) for c in values)
        if len(coords) == 0:
            raise ValueError("point needs rank >= 1")
        return tuple.__new__(cls, coords)

    @classmethod
    def of(cls, *values: Scalar) -> "RationalPoint":
        return cls(values)

    @classmethod
    def _trusted(cls, coords: Iterable[Fraction]) -> "RationalPoint":
        """A point on coordinates known to be Fractions, at least one; no checks."""
        return tuple.__new__(cls, coords)

    @property
    def rank(self) -> int:
        return len(self)

    def to_json(self) -> List[str]:
        return [str(c) for c in self]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "RationalPoint":
        return cls(data)


class Polynomial:
    """Sparse polynomial in ``dim`` variables with Fraction coefficients.

    ``terms`` maps exponent multi-indices to nonzero coefficients; the
    zero polynomial has an empty term map, which makes structural
    equality canonical.
    """

    __slots__ = ("dim", "terms")

    def __init__(
        self,
        dim: int,
        terms: Mapping[Union[MultiIndex, Tuple[int, ...]], Scalar] = (),
    ) -> None:
        check_count("dim", dim, 1)
        canonical: Dict[MultiIndex, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            idx = as_multiindex(exp)
            if idx.rank != dim:
                raise DimensionMismatch(
                    f"exponent {tuple(idx)} has rank {idx.rank}, expected {dim}"
                )
            val = _as_fraction(coeff)
            prev = canonical.get(idx)
            if prev is not None:
                val += prev
            if val == 0:
                canonical.pop(idx, None)
            else:
                canonical[idx] = val
        self.dim = dim
        self.terms = canonical

    @classmethod
    def _make(cls, dim: int, terms: Dict[MultiIndex, Fraction]) -> "Polynomial":
        """A polynomial on a term map that is already canonical; no checks, no copy."""
        poly = object.__new__(cls)
        poly.dim = dim
        poly.terms = terms
        return poly

    # ---- constructors ----

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "Polynomial":
        return cls(dim, {MultiIndex.zero(dim): value})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Polynomial":
        """The coordinate function x_i (0-based)."""
        return cls(dim, {MultiIndex.unit(dim, i): 1})

    @classmethod
    def monomial(
        cls, exponent: Union[MultiIndex, Tuple[int, ...]], coeff: Scalar = 1
    ) -> "Polynomial":
        idx = as_multiindex(exponent)
        return cls(idx.rank, {idx: coeff})

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(idx.height for idx in self.terms)

    def sorted_terms(self) -> List[Tuple[MultiIndex, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: tuple(kv[0]))

    # ---- ring operations ----

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for idx, coeff in other.terms.items():
            prev = out.get(idx)
            if prev is None:
                out[idx] = coeff
                continue
            val = prev + coeff
            if val:
                out[idx] = val
            else:
                del out[idx]
        return Polynomial._make(self.dim, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.dim, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_dim(other)
            places = _places(self.dim, _top(self) + _top(other) + 1)
            product = _convolve([(1, _pack(self.terms, places), _pack(other.terms, places))])
            return _unpack(product, places)
        factor = _as_fraction(other)
        if not factor:
            return Polynomial._make(self.dim, {})
        return Polynomial._make(
            self.dim, {idx: c * factor for idx, c in self.terms.items()}
        )

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    __hash__ = None  # mutable term map; do not hash

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for idx, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(idx)
                if e > 0
            )
            parts.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return "Polynomial(" + " + ".join(parts) + ")"

    # ---- serialization ----

    def to_json(self) -> List[dict]:
        """Terms as ``{"exponent": [...], "coeff": "p/q"}`` in sorted order."""
        return [
            {"exponent": idx.to_json(), "coeff": str(coeff)}
            for idx, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: Iterable[dict], dim: int) -> "Polynomial":
        return cls(dim, [(MultiIndex(t["exponent"]), t["coeff"]) for t in data])


# ---- calculus ----


def _top(*polys: Polynomial) -> int:
    """The largest exponent coordinate of any term of the polynomials; 0 if none has a term."""
    return max([max(e) for f in polys for e in f.terms], default=0)


def _places(dim: int, base: int) -> List[int]:
    """The place value B^(r-1-i) of each coordinate i of a packed exponent."""
    return [base**i for i in reversed(range(dim))]


def _pack(terms: Mapping[MultiIndex, Coeff], places: List[int]) -> Packed:
    """A term map keyed by packed exponents; the coefficients are kept."""
    mul = operator.mul
    return {sum(map(mul, e, places)): c for e, c in terms.items()}


def _unpack(packed: Packed, places: List[int]) -> Polynomial:
    """The polynomial on a packed term map without zeros: each key's base-B digits, wrapped once."""
    trusted, leading = MultiIndex._trusted, places[:-1]
    out = {}
    for k, c in packed.items():
        e = []
        for place in leading:
            digit, k = divmod(k, place)
            e.append(digit)
        e.append(k)
        out[trusted(tuple(e))] = c
    return Polynomial._make(len(places), out)


def _convolve(products: Iterable[Tuple[int, Packed, Packed]]) -> Packed:
    """The sum of w * a * b over the weighted pairs (w, a, b) of packed term maps.

    A product's key is ka + kb, as the maps share a base above every
    coordinate sum.  Zero coefficients are dropped; the others keep the
    maps' type, ``int`` for integer tables.
    """
    acc: Packed = {}
    get = acc.get
    for w, a, b in products:
        b_terms = b.items()
        for ka, ca in a.items():
            wa = w * ca
            for kb, cb in b_terms:
                key = ka + kb
                prev = get(key)
                acc[key] = wa * cb if prev is None else prev + wa * cb
    return {k: c for k, c in acc.items() if c}


def dalpha(f: Polynomial, alpha: MultiIndex) -> Polynomial:
    """Exact mixed partial derivative of order alpha.

    Each monomial x^e maps to (prod_i perm(e_i, alpha_i)) * x^(e-alpha);
    monomials with any e_i < alpha_i vanish.  dalpha(f, 0) is f itself.
    Distinct monomials keep distinct exponents and nonzero coefficients,
    so the result is canonical as built.
    """
    if f.dim != alpha.rank:
        raise DimensionMismatch(f"poly dim {f.dim} vs index rank {alpha.rank}")
    if alpha.is_zero():
        return f
    trusted, perm = MultiIndex._trusted, math.perm
    out: Dict[MultiIndex, Fraction] = {}
    for e, coeff in f.terms.items():
        scale = 1
        for ei, ai in zip(e, alpha):
            if ei < ai:
                break
            if ai:
                scale *= perm(ei, ai)
        else:
            out[trusted(tuple(map(operator.sub, e, alpha)))] = coeff * scale
    return Polynomial._make(f.dim, out)


def eval_poly(f: Polynomial, x: RationalPoint) -> Fraction:
    """Exact evaluation of f at a rational point."""
    return Fraction(*eval_poly_ratios(f, (x,))[0])


def eval_poly_values(f: Polynomial, points: Sequence[RationalPoint]) -> List[Fraction]:
    """Exact evaluation of f at each point: ``eval_poly_ratios``' pairs as Fractions."""
    return [Fraction(n, d) for n, d in eval_poly_ratios(f, points)]


def eval_poly_ratios(f: Polynomial, points: Sequence[RationalPoint]) -> List[Tuple[int, int]]:
    """f at each point as an unreduced (numerator, denominator) pair of ints.

    With x_i = n_i/d_i, K the largest exponent in f and L the lcm of the
    coefficient denominators, every term c * x^e equals
    (c * L) * prod_i n_i^e_i d_i^(K - e_i) over the common denominator
    L * prod_i d_i^K, so the sum is one integer over that denominator.
    The denominators are cleared once and the sum runs term by term over
    the whole point tuple.  Each term's column of prod_i n_i^e_i
    d_i^(K - e_i) comes from the ``PointColumns`` of the points, which
    keeps it for every later polynomial evaluated there; a plain
    sequence gets a fresh one.
    """
    points = PointColumns.of(points)
    points.check_dim(f.dim, "poly")
    if not (f.terms and points):
        return [(0, 1)] * len(points)
    lcm, terms = _cleared_terms(f)
    top = max(map(max, terms))
    # the zero exponent's column is prod_i d_i^K
    dens, *columns = points.monomials(itertools.chain([(0,) * f.dim], terms), top)
    coeffs = list(terms.values())
    totals = [sum(map(operator.mul, coeffs, row)) for row in zip(*columns)]
    return list(zip(totals, dens if lcm == 1 else [lcm * d for d in dens]))


class PointColumns(tuple):
    """A tuple of rational points of one rank, with the columns evaluated there.

    The rank is checked once, when the tuple is built.  For each K met,
    ``grades[K]`` holds, per coordinate, the columns of n_i^k d_i^(K - k)
    for k <= K, and the columns of prod_i n_i^e_i d_i^(K - e_i) built
    from them, each built once.  ``tables`` is empty: no probe function's
    jets are bound here (see ``JetColumns``).
    """

    tables: Sequence[Mapping[MultiIndex, Polynomial]] = ()

    def __new__(cls, points: Iterable[RationalPoint]) -> "PointColumns":
        self = tuple.__new__(cls, points)
        self.rank = len(self[0]) if self else None
        for x in self:
            if len(x) != self.rank:
                raise DimensionMismatch(f"point rank {len(x)} vs first point rank {self.rank}")
        self.coordinates = [
            [(c.numerator, c.denominator) for c in column] for column in zip(*self)
        ]
        self.grades: Dict[int, Tuple[List[list], Dict[Tuple[int, ...], List[int]]]] = {}
        return self

    @classmethod
    def of(cls, points: Sequence[RationalPoint]) -> "PointColumns":
        """``points`` itself if it is a ``PointColumns``, else a fresh one over them."""
        return points if isinstance(points, cls) else cls(points)

    def check_dim(self, dim: int, what: str) -> None:
        """Refuse a ``what`` of ``dim`` variables unless the points have that rank."""
        if self and self.rank != dim:
            raise DimensionMismatch(f"{what} dim {dim} vs point rank {self.rank}")

    def float_values(self, f: Polynomial) -> List[float]:
        """f's float values at the points: each n / d of ``eval_poly_ratios`` correctly
        rounded, or OverflowError."""
        return [n / d for n, d in eval_poly_ratios(f, self)]

    def monomials(self, exponents: Iterable[Tuple[int, ...]], top: int) -> List[List[int]]:
        """The column of prod_i n_i^e_i d_i^(top - e_i) for each exponent e."""
        grade = self.grades.get(top)
        if grade is None:
            powers = [
                list(zip(*[[n**k * d ** (top - k) for k in range(top + 1)] for n, d in pairs]))
                for pairs in self.coordinates
            ]
            grade = self.grades[top] = (powers, {})
        powers, built = grade
        out = []
        for e in exponents:
            column = built.get(e)
            if column is None:
                parts = map(operator.getitem, powers, e)
                column = next(parts)
                for part in parts:
                    column = map(operator.mul, column, part)
                column = built[e] = list(column)
            out.append(column)
        return out


class JetColumns(PointColumns):
    """The points once per probe function h_k, with every h_k's jets bound to their values.

    Row ``k * len(points) + i`` is h_k at point i, and ``tables[k]`` a
    ``derivative_table`` of h_k or, for h_k = fg, a ``ProductTable``.
    ``jet_values(beta)`` reads D^beta h_k, and ``column`` keeps a node's or
    a leaf's column, so an expression tree (``funcmodel``) evaluated here
    takes, row by row, the float operations its copy with h_k's derivatives
    in place of its jets takes at point i.  ``floats`` maps id(key) to key
    (kept alive, so its id is not reused) and its column, ``jets`` beta to
    its column and ``ratios`` (id(table), beta) to a table's exact values.
    """

    def __new__(cls, points: PointColumns, tables: Sequence) -> "JetColumns":
        self = tuple.__new__(cls, points * len(tables))
        self.rank = points.rank
        self.floats: Dict[int, Tuple[object, List[float]]] = {}
        self.jets: Dict[MultiIndex, List[float]] = {}
        self.ratios: Dict[Tuple[int, MultiIndex], List[Tuple[int, int]]] = {}
        self.points, self.tables = points, tables
        return self

    def column(self, key: object, compute: Callable[[], List[float]]) -> List[float]:
        """``compute()``, the column of a node or a leaf ``key``, on the first request only."""
        hit = self.floats.get(id(key))
        if hit is None:
            hit = self.floats[id(key)] = (key, compute())
        return hit[1]

    def float_values(self, f: Polynomial) -> List[float]:
        return self.column(f, lambda: self.points.float_values(f) * len(self.tables))

    def jet_values(self, beta: MultiIndex) -> List[float]:
        """The column of D^beta h_k at the points, function after function; OverflowError
        where a value is too large for a float."""
        column = self.jets.get(beta)
        if column is None:  # fg's splits are enumerated here, not by the rule a check tests
            splits = [(math.prod(map(math.comb, beta, c)), c, beta - c)
                      for c in enumerate_below(beta)]
            ratios = [self._ratios(t, beta, splits) for t in self.tables]
            column = self.jets[beta] = [n / d for pairs in ratios for n, d in pairs]
        return column

    def _ratios(self, table, beta: MultiIndex, splits=()) -> List[Tuple[int, int]]:
        """D^beta h at the points as unreduced ``eval_poly_ratios`` pairs, kept per table; for
        fg, the sum of w D^c f D^(beta-c) g over its ``splits`` (w, c, beta - c)."""
        if not isinstance(table, ProductTable):
            if (id(table), beta) not in self.ratios:
                self.ratios[id(table), beta] = eval_poly_ratios(table[beta], self.points)
            return self.ratios[id(table), beta]
        (tf, tg), ((w, c, e), *rest) = table.factors, splits
        out = [(w * nf * ng, df * dg) for (nf, df), (ng, dg)
               in zip(self._ratios(tf, c), self._ratios(tg, e))]
        for w, c, e in rest:
            out = [(n * df * dg + w * nf * ng * d, d * df * dg) for (n, d), (nf, df), (ng, dg)
                   in zip(out, self._ratios(tf, c), self._ratios(tg, e))]
        return out


class ProductTable(dict):
    """fg's derivative table, for f's and g's tables (``factors``), built on the first read: a
    sum reads it only where every f and g drops a term, and ``JetColumns`` reads the factors."""

    def __init__(self, tf: Mapping[MultiIndex, Polynomial], tg: Mapping[MultiIndex, Polynomial]):
        super().__init__()
        self.factors = tf, tg

    def __missing__(self, beta: MultiIndex) -> Polynomial:
        (tf, tg), zero = self.factors, next(iter(self.factors[0]))
        table = derivative_table(tf[zero] * tg[zero], list(tf))
        self.update(table)
        return table[beta]


def nonzero_grid_point(f: Polynomial) -> RationalPoint:
    """The first point, in lexicographic order, of the grid where the nonzero f is nonzero.

    The grid is {k/(d_i+2) : 1 <= k <= d_i+1} in each x_i, d_i being f's
    degree in x_i; it lies in the open unit box, and a nonzero polynomial
    cannot vanish on all of it (Alon, Combinatorial Nullstellensatz, 1999).
    """
    degrees = [max(e[i] for e in f.terms) for i in range(f.dim)]
    grid = itertools.product(*[[Fraction(k, d + 2) for k in range(1, d + 2)] for d in degrees])
    return next(x for x in map(RationalPoint, grid) if eval_poly(f, x))


def compose(f: Polynomial, maps: Sequence[Polynomial]) -> Polynomial:
    """f(maps[0], ..., maps[r-1]): exact substitution of maps[i] for x_i.

    The maps share one dimension, which is the result's.
    """
    dims = {m.dim for m in maps}
    if len(maps) != f.dim or len(dims) != 1:
        raise DimensionMismatch(f"poly dim {f.dim} vs maps of dims {[m.dim for m in maps]}")
    out = Polynomial.zero(maps[0].dim)
    for e, coeff in f.terms.items():
        term = Polynomial.constant(out.dim, coeff)
        for m, k in zip(maps, e):
            for _ in range(k):
                term = term * m
        out = out + term
    return out


def convolution_table(rank: int, max_height: int) -> Dict[MultiIndex, Splits]:
    """``convolution_terms(alpha)`` for every alpha of rank ``rank`` with |alpha| <= max_height,
    in lexicographic order: a fresh dict of fresh split lists, read from the shape's plan."""
    alphas, splits = _shape_plan(convolution_terms, rank, max_height)
    return {alpha: list(s) for alpha, s in zip(alphas, splits)}


@functools.lru_cache(maxsize=32, typed=True)
def _shape_plan(rule: Callable[[MultiIndex], Splits], rank: int, max_height: int) -> tuple:
    """(alphas, splits) for |alpha| <= max_height at rank ``rank``, both immutable: the
    alphas in lexicographic order and each one's splits by ``rule``.  ``typed`` keeps a
    bool or float shape off an int one's plan, so that ``enumerate_height_at_most``
    refuses it."""
    alphas = tuple(enumerate_height_at_most(rank, max_height))
    return alphas, tuple(tuple(rule(alpha)) for alpha in alphas)


@functools.lru_cache(maxsize=32, typed=True)
def _pairs_plan(rule: Callable[[MultiIndex], Splits], rank: int, max_height: int) -> tuple:
    """(alphas, steps, by_beta) of the shape for ``check_leibniz_pairs``, all immutable:
    the shape plan's alphas, their ``_plan`` steps, and for each beta position the splits
    (w, beta, gamma) of every alpha that name it, as (position of gamma, position of alpha,
    -w), in alpha order."""
    alphas, splits = _shape_plan(rule, rank, max_height)
    at, steps = _plan(alphas)
    by_beta: List[list] = [[] for _ in alphas]
    for k, s in enumerate(splits):
        for w, beta, gamma in s:
            by_beta[at[beta]].append((at[gamma], k, -w))
    return alphas, tuple(steps), tuple(map(tuple, by_beta))


def convolution_sum(
    left: Mapping[MultiIndex, Polynomial],
    right: Mapping[MultiIndex, Polynomial],
    splits: Splits,
) -> Polynomial:
    """The canonical sum of w * left[beta] * right[gamma] over one alpha's splits.

    ``splits`` is ``convolution_terms(alpha)``; the tables hold a polynomial
    for every beta and gamma it names, all of one dimension.
    """
    # only the entries the splits name are packed, and they set the base
    left = {beta: left[beta] for _, beta, _ in splits}
    right = {gamma: right[gamma] for _, _, gamma in splits}
    first = left[splits[0][1]]  # the first split is (1, 0, alpha)
    for f in itertools.chain(left.values(), right.values()):
        first._check_dim(f)
    places = _places(first.dim, _top(*left.values()) + _top(*right.values()) + 1)
    left, right = [{k: _pack(f.terms, places) for k, f in side.items()} for side in (left, right)]
    return _unpack(_convolve((w, left[beta], right[gamma]) for w, beta, gamma in splits), places)


def form_failures(
    forms: Mapping[MultiIndex, Mapping[Tuple[MultiIndex, ...], Polynomial]],
    jets: Sequence[MultiIndex],
    table: Mapping[MultiIndex, Splits],
) -> List[MultiIndex]:
    """The alphas of ``table`` at which T_alpha(f*g) = sum w * T_beta(f) * T_gamma(g) over its
    splits fails as an identity in the jets of f and g over Q[x] (see the module docstring).

    T_alpha(h) = sum_m c_m prod_{b in m} D^b h for ``forms[alpha]``, a map from jet
    monomials m (tuples of indices b) to nonzero coefficients c_m of one dimension, so an
    empty form is T_alpha = 0; ``jets`` is a down-closed list of every b met.  A key packs
    the x-digits, base 1 + 2 * top, then one count digit per jet of f and one per jet of g,
    base 1 + D, and no digit carries (see the module docstring).  The layout invariant:
    with X = 1 + 2 * top, B = 1 + D and n = len(jets), every key of every map built here is
    sum_i e_i X^(r-1-i) + X^r (sum_k a_k B^k + sum_k b_k B^(n+k)) for e the x-exponent and
    a_k, b_k the counts of the k-th jet of f and of g, each digit below its base, so a key
    reads back as exactly one (e, a, b).  T_beta(f) and T_gamma(g)
    are packed once, each jet b met has the Leibniz map {u_c + v_(b-c): C(b, c)}, and an
    alpha's terms are (K, K c_m convolved with the map of every factor of m but the last,
    then that last map), or (K, K c_m, {0: 1}) for m = (), and (-w, T_beta(f), T_gamma(g))
    for each split with no empty side.
    """
    coeffs = [c for form in forms.values() for c in form.values()]
    if not coeffs:  # every T_alpha = 0
        return []
    dim = coeffs[0].dim
    for c in coeffs:
        coeffs[0]._check_dim(c)
    lcm = math.lcm(*[q.denominator for c in coeffs for q in c.terms.values()])
    x_base = 1 + 2 * _top(*coeffs)
    places, span = _places(dim, x_base), x_base**dim
    base = 1 + max(len(m) for form in forms.values() for m in form)
    f_at = {b: span * base**k for k, b in enumerate(jets)}
    g_at = {b: span * base ** (len(jets) + k) for k, b in enumerate(jets)}
    # each form as (jet monomial, K * c_m packed in x), K the lcm of every denominator
    cleared = {alpha: [(m, _pack(_cleared_terms(c, lcm)[1], places)) for m, c in form.items()]
               for alpha, form in forms.items()}
    # an empty form (T_alpha = 0) packs to {} with no call
    tf, tg = [{alpha: _convolve([(1, c, {sum([at[b] for b in m]): 1}) for m, c in form])
               if form else {} for alpha, form in cleared.items()} for at in (f_at, g_at)]
    # Leibniz: (fg)_b = sum C(b, c) f_c g_(b-c); a jet of the table's rank has its splits there
    met = {b for form in forms.values() for m in form for b in m}
    leibniz = {b: {f_at[c] + g_at[d]: w for w, c, d in table.get(b) or convolution_terms(b)}
               for b in met}
    out = []
    for alpha, splits in table.items():
        # K T_alpha(fg), each jet of fg expanded by Leibniz, minus each split's T_beta(f) T_gamma(g)
        products = []
        for m, c in cleared[alpha]:
            for b in m[:-1]:
                c = _convolve([(1, c, leibniz[b])])
            products.append((lcm, c, leibniz[m[-1]] if m else {0: 1}))
        products += [(-w, tf[beta], tg[gamma])
                     for w, beta, gamma in splits if tf[beta] and tg[gamma]]
        if products and _convolve(products):  # an alpha with no term holds
            out.append(alpha)
    return out


def _partial(f: Packed, place: int, base: int) -> Packed:
    """The first partial derivative of a packed f in the coordinate of that place value;
    coefficients keep their type."""
    out = {}
    for k, coeff in f.items():
        e = k // place % base
        if e:
            out[k - place] = coeff * e
    return out


def _plan(indices: Sequence[MultiIndex]) -> Tuple[Dict[MultiIndex, int], List[Tuple[int, int]]]:
    """Each index's position in a down-closed, lexicographically ordered list, and per index
    the step (parent position, axis) that ``_derivative_table`` takes to reach it.

    With i the last nonzero entry of alpha, the parent is alpha - e_i, which
    is in the list and comes before alpha; the zero index has step (-1, -1).
    """
    at: Dict[MultiIndex, int] = {}
    steps = []
    for k, alpha in enumerate(indices):
        i = len(alpha) - 1
        while i >= 0 and not alpha[i]:
            i -= 1
        steps.append((at[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]], i) if i >= 0 else (-1, -1))
        at[alpha] = k
    return at, steps


def _derivative_table(
    f: Packed, steps: List[Tuple[int, int]], places: List[int], base: int
) -> List[Packed]:
    """D^alpha f of a packed f for every alpha of a ``_plan``, as a list aligned with its steps.

    Each entry differentiates its parent's surviving terms once along its
    axis, so the table costs one ``_partial`` per index and builds no index
    or key; the empty entries below an empty parent share its map.
    """
    table = []
    for parent, axis in steps:
        if parent < 0:
            table.append(f)
        else:
            d = table[parent]
            table.append(_partial(d, places[axis], base) if d else d)
    return table


def derivative_table(f: Polynomial, betas: Sequence[MultiIndex]) -> Dict[MultiIndex, Polynomial]:
    """D^beta f for each beta of a down-closed, lexicographically ordered list, from one packed
    ``_derivative_table``; D^0 f is f itself, and the zero entries share one zero polynomial."""
    if len(betas) == 1:  # the list [0]: nothing to differentiate, nothing to pack
        return {betas[0]: f}
    base = _top(f) + 1
    places = _places(f.dim, base)
    packed, zero = _pack(f.terms, places), Polynomial._make(f.dim, {})
    table = _derivative_table(packed, _plan(betas)[1], places, base)
    return {
        b: f if d is packed else _unpack(d, places) if d else zero for b, d in zip(betas, table)
    }


def _cleared_terms(f: Polynomial, lcm: Optional[int] = None) -> Tuple[int, Dict[MultiIndex, int]]:
    """(L, L * f's term map) with L the lcm of the coefficient denominators,
    or the given multiple of it."""
    terms = f.terms
    if lcm is None:
        lcm = math.lcm(*[c.denominator for c in terms.values()])
    return lcm, {e: c.numerator * (lcm // c.denominator) for e, c in terms.items()}


def leibniz_rhs(f: Polynomial, g: Polynomial, alpha: MultiIndex) -> Polynomial:
    """The binomial convolution sum_{beta <= alpha} C(alpha,beta) D^beta f D^{alpha-beta} g."""
    f._check_dim(g)
    splits = convolution_terms(alpha)
    # the betas are the box below alpha, which is also the set of the gammas
    below = [beta for _, beta, _ in splits]
    return convolution_sum(
        {beta: dalpha(f, beta) for beta in below}, {beta: dalpha(g, beta) for beta in below}, splits
    )


def check_leibniz(f: Polynomial, g: Polynomial, alpha: MultiIndex) -> bool:
    """Whether D^alpha(f*g) equals the binomial convolution, exactly."""
    return dalpha(f * g, alpha) == leibniz_rhs(f, g, alpha)


def check_leibniz_all(
    f: Polynomial, g: Polynomial, max_height: int
) -> List[MultiIndex]:
    """Failing alphas of ``check_leibniz`` over all |alpha| <= max_height, decided on
    integer tables (see the module docstring); empty when the identity holds everywhere."""
    return check_leibniz_pairs([(f, g)], max_height)[0]


def check_leibniz_pairs(
    pairs: Sequence[Tuple[Polynomial, Polynomial]], max_height: int
) -> List[List[MultiIndex]]:
    """``check_leibniz_all(f, g, max_height)`` for each pair (f, g), in order.

    The pairs share one dimension and read one plan of the shape (rank,
    max_height), built once per process.  Per pair, each alpha's sum starts
    at D^alpha(fg): the table's own map, which nothing else reads, or a
    fresh one where the table's empty entries share a map.  The walk goes
    beta by beta, over the term views of g's table taken once per pair:
    every split with no empty side subtracts w * D^beta f * D^gamma g from
    its alpha's sum, so an alpha fails exactly when a nonzero coefficient
    is left.
    """
    if not pairs:
        return []
    first = pairs[0][0]
    for f, g in pairs:
        first._check_dim(f)
        f._check_dim(g)
    alphas, steps, by_beta = _pairs_plan(convolution_terms, first.dim, max_height)
    out = []
    for f, g in pairs:
        base = _top(f) + _top(g) + 1
        places = _places(f.dim, base)
        fi, gi = _pack(_cleared_terms(f)[1], places), _pack(_cleared_terms(g)[1], places)
        dg = [d.items() for d in _derivative_table(gi, steps, places, base)]
        sums = [d or {} for d in _derivative_table(_convolve([(1, fi, gi)]), steps, places, base)]
        for a, splits in zip(_derivative_table(fi, steps, places, base), by_beta):
            if not a:
                continue
            a_terms = a.items()
            for gamma, alpha, w in splits:
                b_terms = dg[gamma]
                if b_terms:
                    acc = sums[alpha]
                    get = acc.get
                    for ka, ca in a_terms:
                        wa = w * ca
                        for kb, cb in b_terms:
                            key = ka + kb
                            acc[key] = get(key, 0) + wa * cb
        out.append([alpha for alpha, s in zip(alphas, sums) if any(s.values())])
    return out


# ---- randomized probes ----


def random_polynomial(
    rng: random.Random,
    dim: int,
    max_degree: int = 6,
    terms: int = 5,
    coeff_bound: int = 9,
    denominators: Sequence[int] = (1, 2, 3),
) -> Polynomial:
    """Seeded random sparse polynomial with coefficients in [-coeff_bound, coeff_bound] cap Q.

    Each term draws its degree, one axis per unit of it, a denominator and
    a numerator straight from ``rng.getrandbits``, the same draws in the
    same order as ``randint``, ``randrange`` and ``choice``, with their errors.
    """
    check_count("dim", dim, 1)
    bits, trusted, dens = rng.getrandbits, MultiIndex._trusted, list(denominators)
    k_dim = dim.bit_length()
    out: Dict[MultiIndex, Fraction] = {}
    for _ in range(terms):
        total = _below(bits, max_degree + 1)
        exp = [0] * dim
        for _ in range(total):
            i = bits(k_dim)
            while i >= dim:
                i = bits(k_dim)
            exp[i] += 1
        if not dens:
            raise IndexError("Cannot choose from an empty sequence")
        den = dens[_below(bits, len(dens))]
        num = _below(bits, 2 * coeff_bound * den + 1) - coeff_bound * den
        if num == 0:
            continue
        # overwrite on collision so coefficients stay inside the bound
        out[trusted(tuple(exp))] = Fraction(num, den)
    return Polynomial._make(dim, out)


def _below(bits: Callable[[int], int], n: int) -> int:
    """A uniform draw from range(n) by ``random.Random``'s own rejection rule: k = n.bit_length()
    bits, drawn again while r >= n.  An empty range raises ValueError, as randrange does."""
    if n <= 0:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r
