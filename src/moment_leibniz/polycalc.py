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
coefficients are nonzero ``Fraction`` (nonzero ``int`` only inside
``check_leibniz_all``, below).  ``+``, unary ``-``, ``*`` and
``dalpha`` build their results that way.  A term key is its exponent
tuple, so ``_accumulate``, ``dalpha`` and ``eval_poly`` iterate keys
directly.  Products and convolution sums accumulate ``w * a * b`` in
place into a map keyed by plain exponent tuples (``_accumulate``), which
``_canonical_terms`` turns into a term map once, dropping zeros and
wrapping each key in a ``MultiIndex``.
``convolution_sum`` is the one public form of that accumulator: the
canonical sum of w * left[beta] * right[gamma] over one alpha's
``convolution_terms``, from two tables of derivatives or operator
values.  ``leibniz_rhs``, ``check_leibniz_all`` and the exact moment
verifier all build their convolution sides with it.

Multi-derivatives come from one table (``_derivative_table``) over a
down-closed, lexicographically ordered index set: D^alpha f is the
one-step partial d_i of the entry at alpha - e_i, with i the last
nonzero entry of alpha, so each step differentiates the few terms its
parent still has.  ``leibniz_rhs`` builds it over the box below alpha,
``check_leibniz_all`` over every |alpha| <= max_height; ``dalpha`` is
for single derivatives.

``check_leibniz_all`` runs on Python ints.  D^alpha is linear, so both
sides of the identity are bilinear in (f, g), and for the lcms L_f, L_g
of the coefficient denominators (L_f L_g != 0) the identity holds for
(f, g) at alpha exactly when it holds for (L_f f, L_g g), whose
coefficients are integers.  The accumulator, ``_canonical_terms`` and
``==`` work on ints unchanged.  Those integer polynomials and their
tables never leave ``check_leibniz_all``: it returns failing indices
only, and every public function returns ``Fraction`` coefficients.

``eval_poly_ratios`` sums integer numerators over one common denominator
per point, the lcm of the coefficient denominators times
prod_i d_i^maxdeg_i for the point's coordinates n_i/d_i.  ``eval_poly``
makes that pair one ``Fraction``, the same number as a term-by-term
Fraction sum; the float evaluator divides it as ints, which is correctly
rounded, so it equals ``float(Fraction(...))``, ``OverflowError`` included.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .multiindex import (
    DimensionMismatch,
    MultiIndex,
    as_multiindex,
    convolution_terms,
    enumerate_height_at_most,
)

Scalar = Union[int, Fraction, str]


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
        # a bool or a float would pass dim checks that compare with ==
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        canonical: Dict[MultiIndex, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            idx = as_multiindex(exp)
            if idx.rank != dim:
                raise DimensionMismatch(
                    f"exponent {tuple(idx)} has rank {idx.rank}, expected {dim}"
                )
            val = canonical.get(idx, Fraction(0)) + _as_fraction(coeff)
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
            acc: Dict[Tuple[int, ...], Fraction] = {}
            _accumulate(acc, 1, self, other)
            return Polynomial._make(self.dim, _canonical_terms(acc))
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


def _accumulate(
    acc: Dict[Tuple[int, ...], Fraction], w: int, a: Polynomial, b: Polynomial
) -> None:
    """acc += w * a * b, in place; acc is keyed by exponent tuples and may hold zeros."""
    add, get = operator.add, acc.get
    b_terms = b.terms.items()
    for ea, ca in a.terms.items():
        wa = w * ca
        for eb, cb in b_terms:
            key = tuple(map(add, ea, eb))
            prev = get(key)
            acc[key] = wa * cb if prev is None else prev + wa * cb


def _canonical_terms(acc: Dict[Tuple[int, ...], Fraction]) -> Dict[MultiIndex, Fraction]:
    """The term map of an accumulator: zeros dropped, keys wrapped once."""
    trusted = MultiIndex._trusted
    return {trusted(exp): c for exp, c in acc.items() if c}


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


def eval_poly_ratios(f: Polynomial, points: Sequence[RationalPoint]) -> List[Tuple[int, int]]:
    """f at each point as an unreduced (numerator, denominator) pair of ints.

    With x_i = n_i/d_i, M_i the largest exponent of x_i in f and L the
    lcm of the coefficient denominators, every term c * x^e equals
    (c * L) * prod_i n_i^e_i d_i^(M_i - e_i) over the common denominator
    L * prod_i d_i^M_i, so the sum is one integer over that denominator.
    The denominators are cleared once; the power tables are per point.
    """
    for x in points:
        if len(x) != f.dim:
            raise DimensionMismatch(f"poly dim {f.dim} vs point rank {x.rank}")
    lcm, terms = _cleared_terms(f)
    tops = [max((e[i] for e in terms), default=0) for i in range(f.dim)]
    out = []
    for x in points:
        # tables[i][e] = n_i^e * d_i^(M_i - e)
        den, tables = lcm, []
        for xi, top in zip(x, tops):
            n, d = xi.numerator, xi.denominator
            tables.append([n**e * d ** (top - e) for e in range(top + 1)])
            den *= d**top
        total = 0
        for exp, term in terms.items():
            for table, e in zip(tables, exp):
                term *= table[e]
            total += term
        out.append((total, den))
    return out


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


def convolution_sum(
    left: Mapping[MultiIndex, Polynomial],
    right: Mapping[MultiIndex, Polynomial],
    splits: Sequence[Tuple[int, MultiIndex, MultiIndex]],
) -> Polynomial:
    """The canonical sum of w * left[beta] * right[gamma] over one alpha's splits.

    ``splits`` is ``convolution_terms(alpha)``; the tables hold a polynomial
    for every beta and gamma it names, all of one dimension.
    """
    acc: Dict[Tuple[int, ...], Fraction] = {}
    for w, beta, gamma in splits:
        a, b = left[beta], right[gamma]
        a._check_dim(b)
        _accumulate(acc, w, a, b)
    return Polynomial._make(a.dim, _canonical_terms(acc))


def _partial(f: Polynomial, i: int) -> Polynomial:
    """The first partial derivative of f in x_i; coefficients keep their type."""
    trusted = MultiIndex._trusted
    out = {}
    for e, coeff in f.terms.items():
        k = e[i]
        if k:
            out[trusted(e[:i] + (k - 1,) + e[i + 1 :])] = coeff * k
    return Polynomial._make(f.dim, out)


def _derivative_table(
    f: Polynomial, alphas: Sequence[MultiIndex]
) -> Dict[MultiIndex, Polynomial]:
    """D^alpha f for every alpha of a down-closed, lexicographically ordered list.

    With i the last nonzero entry of alpha, D^alpha f = d_i D^(alpha - e_i) f,
    and alpha - e_i is in the list and comes before alpha, so each entry
    differentiates its parent's surviving terms once.
    """
    table = {}
    for alpha in alphas:
        i = len(alpha) - 1
        while i >= 0 and not alpha[i]:
            i -= 1
        if i < 0:
            table[alpha] = f
        else:
            parent = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            table[alpha] = _partial(table[parent], i)
    return table


def _cleared_terms(f: Polynomial) -> Tuple[int, Dict[MultiIndex, int]]:
    """(L, L * f's term map) with L the lcm of the coefficient denominators."""
    terms = f.terms
    lcm = math.lcm(*[c.denominator for c in terms.values()])
    return lcm, {e: c.numerator * (lcm // c.denominator) for e, c in terms.items()}


def leibniz_rhs(f: Polynomial, g: Polynomial, alpha: MultiIndex) -> Polynomial:
    """The binomial convolution sum_{beta <= alpha} C(alpha,beta) D^beta f D^{alpha-beta} g."""
    f._check_dim(g)
    splits = convolution_terms(alpha)
    # the betas, in split order, are the lexicographic box below alpha,
    # which is also the set of the gammas
    below = [beta for _, beta, _ in splits]
    return convolution_sum(_derivative_table(f, below), _derivative_table(g, below), splits)


def check_leibniz(f: Polynomial, g: Polynomial, alpha: MultiIndex) -> bool:
    """Whether D^alpha(f*g) equals the binomial convolution, exactly."""
    return dalpha(f * g, alpha) == leibniz_rhs(f, g, alpha)


def check_leibniz_all(
    f: Polynomial, g: Polynomial, max_height: int
) -> List[MultiIndex]:
    """Failing alphas of ``check_leibniz`` over all |alpha| <= max_height.

    Decided for the integer multiples (L_f f, L_g g), which fail at the
    same alphas (see the module docstring).  An empty list means the
    identity held exactly everywhere.
    """
    f._check_dim(g)
    alphas = enumerate_height_at_most(f.dim, max_height)
    fi = Polynomial._make(f.dim, _cleared_terms(f)[1])
    gi = Polynomial._make(g.dim, _cleared_terms(g)[1])
    df = _derivative_table(fi, alphas)
    dg = _derivative_table(gi, alphas)
    dfg = _derivative_table(fi * gi, alphas)
    return [
        alpha
        for alpha in alphas
        if convolution_sum(df, dg, convolution_terms(alpha)) != dfg[alpha]
    ]


# ---- randomized probes ----


def random_polynomial(
    rng: random.Random,
    dim: int,
    max_degree: int = 6,
    terms: int = 5,
    coeff_bound: int = 9,
    denominators: Sequence[int] = (1, 2, 3),
) -> Polynomial:
    """Seeded random sparse polynomial with coefficients in [-coeff_bound, coeff_bound] cap Q."""
    out: Dict[MultiIndex, Fraction] = {}
    for _ in range(terms):
        total = rng.randint(0, max_degree)
        exp = [0] * dim
        for _ in range(total):
            exp[rng.randrange(dim)] += 1
        den = rng.choice(list(denominators))
        num = rng.randint(-coeff_bound * den, coeff_bound * den)
        if num == 0:
            continue
        # overwrite on collision so coefficients stay inside the bound
        out[MultiIndex(tuple(exp))] = Fraction(num, den)
    return Polynomial(dim, out)
