"""Exact multivariate polynomial calculus over the rationals.

Polynomials are sparse maps from monomial exponents (multi-indices) to
``Fraction`` coefficients, kept canonical with no zero entries, so
equality is structural and the product-derivative identity

    D^alpha(f*g) = sum_{beta <= alpha} C(alpha, beta) D^beta(f) D^{alpha-beta}(g)

is checked with zero tolerance.  D^0 is the identity map.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
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
    return Fraction(value)


@dataclass(frozen=True)
class RationalPoint:
    """A point of Q^r where expressions get evaluated exactly."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(_as_fraction(c) for c in self.coords)
        if len(coords) == 0:
            raise ValueError("point needs rank >= 1")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, *values: Scalar) -> "RationalPoint":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def to_json(self) -> List[str]:
        return [str(c) for c in self.coords]

    @classmethod
    def from_json(cls, data: Iterable[str]) -> "RationalPoint":
        return cls(tuple(Fraction(c) for c in data))


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
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        canonical: Dict[MultiIndex, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            idx = as_multiindex(exp)
            if idx.rank != dim:
                raise DimensionMismatch(
                    f"exponent {idx.entries} has rank {idx.rank}, expected {dim}"
                )
            val = canonical.get(idx, Fraction(0)) + _as_fraction(coeff)
            if val == 0:
                canonical.pop(idx, None)
            else:
                canonical[idx] = val
        self.dim = dim
        self.terms = canonical

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
        return sorted(self.terms.items(), key=lambda kv: kv[0].entries)

    # ---- ring operations ----

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_dim(other)
        out = dict(self.terms)
        for idx, coeff in other.terms.items():
            val = out.get(idx, Fraction(0)) + coeff
            if val == 0:
                out.pop(idx, None)
            else:
                out[idx] = val
        return Polynomial(self.dim, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.dim, {idx: -c for idx, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_dim(other)
            out: Dict[MultiIndex, Fraction] = {}
            for ia, ca in self.terms.items():
                for ib, cb in other.terms.items():
                    idx = ia + ib
                    val = out.get(idx, Fraction(0)) + ca * cb
                    if val == 0:
                        out.pop(idx, None)
                    else:
                        out[idx] = val
            return Polynomial(self.dim, out)
        return Polynomial(
            self.dim, {idx: c * _as_fraction(other) for idx, c in self.terms.items()}
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

    # ---- evaluation ----

    def __call__(self, point: RationalPoint) -> Fraction:
        return eval_poly(self, point)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for idx, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(idx.entries)
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
        return cls(
            dim,
            [(MultiIndex.from_json(t["exponent"]), Fraction(t["coeff"])) for t in data],
        )


# ---- calculus ----


def dalpha(f: Polynomial, alpha: MultiIndex) -> Polynomial:
    """Exact mixed partial derivative of order alpha.

    Each monomial x^e maps to (prod_i perm(e_i, alpha_i)) * x^(e-alpha);
    monomials with any e_i < alpha_i vanish.  dalpha(f, 0) is f itself.
    """
    if f.dim != alpha.rank:
        raise DimensionMismatch(f"poly dim {f.dim} vs index rank {alpha.rank}")
    if alpha.is_zero():
        return f
    out: Dict[MultiIndex, Fraction] = {}
    for exp, coeff in f.terms.items():
        if not alpha <= exp:
            continue
        scale = 1
        for e, a in zip(exp.entries, alpha.entries):
            if a:
                scale *= math.perm(e, a)
        out[exp - alpha] = coeff * scale
    return Polynomial(f.dim, out)


def eval_poly(f: Polynomial, x: RationalPoint) -> Fraction:
    """Exact evaluation of f at a rational point."""
    if f.dim != x.rank:
        raise DimensionMismatch(f"poly dim {f.dim} vs point rank {x.rank}")
    total = Fraction(0)
    for exp, coeff in f.terms.items():
        term = coeff
        for xi, e in zip(x.coords, exp.entries):
            if e:
                term *= xi**e
        total += term
    return total


def leibniz_rhs(f: Polynomial, g: Polynomial, alpha: MultiIndex) -> Polynomial:
    """The binomial convolution sum_{beta <= alpha} C(alpha,beta) D^beta f D^{alpha-beta} g."""
    f._check_dim(g)
    total = Polynomial.zero(f.dim)
    for w, beta, gamma in convolution_terms(alpha):
        total = total + w * (dalpha(f, beta) * dalpha(g, gamma))
    return total


def check_leibniz(f: Polynomial, g: Polynomial, alpha: MultiIndex) -> bool:
    """Whether D^alpha(f*g) equals the binomial convolution, exactly."""
    return dalpha(f * g, alpha) == leibniz_rhs(f, g, alpha)


def check_leibniz_all(
    f: Polynomial, g: Polynomial, max_height: int
) -> List[MultiIndex]:
    """Failing alphas of ``check_leibniz`` over all |alpha| <= max_height.

    Shares derivative tables across alphas; an empty list means the
    identity held exactly everywhere.
    """
    f._check_dim(g)
    alphas = enumerate_height_at_most(f.dim, max_height)
    df = {beta: dalpha(f, beta) for beta in alphas}
    dg = {beta: dalpha(g, beta) for beta in alphas}
    fg = f * g
    failures = []
    for alpha in alphas:
        rhs = Polynomial.zero(f.dim)
        for w, beta, gamma in convolution_terms(alpha):
            rhs = rhs + w * (df[beta] * dg[gamma])
        if rhs != dalpha(fg, alpha):
            failures.append(alpha)
    return failures


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
