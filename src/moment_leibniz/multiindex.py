"""Exact combinatorics of rank-r multi-indices.

A multi-index is a tuple of nonnegative integers, and ``MultiIndex`` is
a ``tuple`` subclass: the one key type for indices, monomial exponents
and index-keyed tables.  Hashing and equality are tuple's own, so an
index equals its plain tuple and answers plain-tuple dict lookups.
``+`` and ``-`` are componentwise (``-`` only down the order), and
``<=``/``<`` are the componentwise partial order; sort keys therefore
use ``tuple(idx)``.  Height, factorial and binomial coefficients are
the usual ones; binomials are products of entrywise ``math.comb``
values, so every identity checked downstream is exact integer
arithmetic.

``convolution_terms(alpha)`` lists the weighted splittings
(C(alpha, beta), beta, alpha - beta) of the binomial convolution
identity; every verifier in the package sums over that one list.

``MultiIndex(...)`` validates each component: ints >= 0, with floats and
bools rejected rather than truncated, and rank >= 1.  Results the
package already knows to be valid skip that check through the private
``MultiIndex._trusted(values)``: its callers pass a tuple of nonnegative
ints of the right rank (a sum of two same-rank indices, a difference
after the ``<=`` check, a tuple drawn from ``range``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, List, Tuple


class DimensionMismatch(ValueError):
    """Two multi-indices (or a point and an index) of different ranks met."""


class MultiIndex(tuple):
    """An element of N^r under componentwise order and addition.

    A tuple of ints: it hashes and compares equal like the plain
    tuple, so index-keyed tables answer plain-tuple lookups.  ``+`` and
    ``-`` are componentwise, not concatenation, and the order comparisons
    implement the componentwise partial order: ``a <= b`` means
    a_i <= b_i for every i, and ``a < b`` additionally requires a != b.
    Incomparable pairs make both ``<=`` checks False, so sort keys use
    ``tuple(idx)``.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]) -> "MultiIndex":
        ent = tuple(values)
        for e in ent:
            # int() would truncate 2.7 to 2 and read True as 1
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError(f"multi-index entries must be integers, got {e!r}")
        if len(ent) == 0:
            raise ValueError("multi-index needs rank >= 1")
        if any(e < 0 for e in ent):
            raise ValueError(f"negative entry in multi-index {ent}")
        return tuple.__new__(cls, ent)

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> "MultiIndex":
        """An index on values known to be a nonempty tuple of ints >= 0; no checks."""
        return tuple.__new__(cls, values)

    # ---- basic views ----

    @property
    def rank(self) -> int:
        return len(self)

    @property
    def height(self) -> int:
        return sum(self)

    def factorial(self) -> int:
        """alpha! = prod_i alpha_i!"""
        out = 1
        for e in self:
            out *= math.factorial(e)
        return out

    def __repr__(self) -> str:
        return f"MultiIndex({tuple(self)})"

    # ---- arithmetic ----

    def _check_rank(self, other: "MultiIndex") -> None:
        if self.rank != other.rank:
            raise DimensionMismatch(f"rank mismatch: {tuple(self)} vs {tuple(other)}")

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_rank(other)
        return MultiIndex._trusted(tuple(map(operator.add, self, other)))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_rank(other)
        if not other <= self:
            raise ValueError(f"{tuple(other)} is not componentwise <= {tuple(self)}")
        return MultiIndex._trusted(tuple(map(operator.sub, self, other)))

    def __le__(self, other: "MultiIndex") -> bool:
        self._check_rank(other)
        return all(map(operator.le, self, other))

    def __lt__(self, other: "MultiIndex") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "MultiIndex") -> bool:
        return other <= self

    def __gt__(self, other: "MultiIndex") -> bool:
        return other < self

    def is_zero(self) -> bool:
        return self.height == 0

    # ---- constructors / serialization ----

    @staticmethod
    def zero(rank: int) -> "MultiIndex":
        return MultiIndex((0,) * rank)

    @staticmethod
    def unit(rank: int, i: int) -> "MultiIndex":
        """The i-th standard basis index e_i."""
        if not 0 <= i < rank:
            raise ValueError(f"unit index {i} out of range for rank {rank}")
        return MultiIndex(tuple(1 if j == i else 0 for j in range(rank)))

    def to_json(self) -> List[int]:
        return list(self)


def as_multiindex(value: "MultiIndex | Iterable[int]") -> MultiIndex:
    if isinstance(value, MultiIndex):
        return value
    return MultiIndex(value)


def check_count(name: str, value: int, minimum: int) -> None:
    """Refuse a ``value`` that is not an int, is a bool, or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_tolerance(name: str, tol: float) -> None:
    """Refuse a float tolerance that is not finite and > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and > 0, got {tol}")


def binom(a: MultiIndex, b: MultiIndex) -> int:
    """Entrywise binomial product C(a, b) = prod_i C(a_i, b_i).

    Requires b <= a; equals a! / (b! * (a-b)!) on that range.
    """
    if not b <= a:
        raise ValueError(f"binom needs {tuple(b)} <= {tuple(a)} componentwise")
    out = 1
    for ai, bi in zip(a, b):
        out *= math.comb(ai, bi)
    return out


def enumerate_below(alpha: MultiIndex) -> List[MultiIndex]:
    """All beta with beta <= alpha, in lexicographic order.

    Exactly prod_i (alpha_i + 1) indices.
    """
    ranges = [range(e + 1) for e in alpha]
    return [MultiIndex._trusted(t) for t in itertools.product(*ranges)]


def convolution_terms(alpha: MultiIndex) -> List[Tuple[int, MultiIndex, MultiIndex]]:
    """The exact weighted splittings (C(alpha,beta), beta, alpha-beta) of the identity.

    One entry per beta <= alpha, in the order of ``enumerate_below``, so
    the first entry is beta = 0 and the last is beta = alpha.  Each entry
    is a product of per-axis rows (C(a, b), b, a - b) over b in 0..a, so
    no split is checked against alpha again.
    """
    comb, trusted = math.comb, MultiIndex._trusted
    rows = [[(comb(a, b), b, a - b) for b in range(a + 1)] for a in alpha]
    return [
        (math.prod(weights), trusted(beta), trusted(gamma))
        for weights, beta, gamma in (zip(*axes) for axes in itertools.product(*rows))
    ]


def enumerate_height_at_most(rank: int, max_height: int) -> List[MultiIndex]:
    """All alpha in N^rank with |alpha| <= max_height, lexicographically.

    Exactly C(max_height + rank, rank) indices, generated directly: each
    prefix, in lexicographic order, is extended by every entry that keeps
    its height at most max_height.  Recent shapes are cached; each call gets a fresh list.
    """
    check_count("rank", rank, 1)
    check_count("max_height", max_height, 0)
    return list(_height_at_most(rank, max_height))


@functools.lru_cache(maxsize=32)
def _height_at_most(rank: int, max_height: int) -> Tuple[MultiIndex, ...]:
    prefixes = [(e,) for e in range(max_height + 1)]
    for _ in range(rank - 1):
        prefixes = [t + (e,) for t in prefixes for e in range(max_height - sum(t) + 1)]
    return tuple(map(MultiIndex._trusted, prefixes))
