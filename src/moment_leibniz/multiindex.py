"""Exact combinatorics of rank-r multi-indices.

A multi-index is a tuple of nonnegative integers.  Height, factorial,
binomial coefficients and the componentwise partial order are the usual
ones; binomials are products of entrywise ``math.comb`` values, so every
identity checked downstream is exact integer arithmetic.

``convolution_terms(alpha)`` lists the weighted splittings
(C(alpha, beta), beta, alpha - beta) of the binomial convolution
identity; every verifier in the package sums over that one list.

``MultiIndex(...)`` validates its entries: ints >= 0, with floats and
bools rejected rather than truncated.  Results the package already
knows to be valid skip that check through the private
``MultiIndex._trusted(entries)``: its callers pass a tuple of nonnegative
ints of the right rank (a sum of two same-rank indices, a difference
after the ``<=`` check, a tuple drawn from ``range``).  Trusted and
validated indices with equal entries are equal and hash alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple


class DimensionMismatch(ValueError):
    """Two multi-indices (or a point and an index) of different ranks met."""


@dataclass(frozen=True)
class MultiIndex:
    """An element of N^r under componentwise order and addition.

    The order comparisons implement the componentwise partial order:
    ``a <= b`` means a_i <= b_i for every i, and ``a < b`` additionally
    requires a != b.  Incomparable pairs make both ``<=`` checks False.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        ent = tuple(self.entries)
        for e in ent:
            # int() would truncate 2.7 to 2 and read True as 1
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError(f"multi-index entries must be integers, got {e!r}")
        if len(ent) == 0:
            raise ValueError("multi-index needs rank >= 1")
        if any(e < 0 for e in ent):
            raise ValueError(f"negative entry in multi-index {ent}")
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _trusted(cls, entries: tuple[int, ...]) -> "MultiIndex":
        """An index on entries known to be a nonempty tuple of ints >= 0; no checks."""
        idx = object.__new__(cls)
        object.__setattr__(idx, "entries", entries)
        return idx

    def __hash__(self) -> int:
        return hash(self.entries)

    # ---- basic views ----

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def height(self) -> int:
        return sum(self.entries)

    def factorial(self) -> int:
        """alpha! = prod_i alpha_i!"""
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"MultiIndex({self.entries})"

    # ---- arithmetic ----

    def _check_rank(self, other: "MultiIndex") -> None:
        if self.rank != other.rank:
            raise DimensionMismatch(
                f"rank mismatch: {self.entries} vs {other.entries}"
            )

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_rank(other)
        return MultiIndex._trusted(tuple(map(operator.add, self.entries, other.entries)))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        self._check_rank(other)
        if not other <= self:
            raise ValueError(f"{other.entries} is not componentwise <= {self.entries}")
        return MultiIndex._trusted(tuple(map(operator.sub, self.entries, other.entries)))

    def __le__(self, other: "MultiIndex") -> bool:
        self._check_rank(other)
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __lt__(self, other: "MultiIndex") -> bool:
        return self <= other and self.entries != other.entries

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
        return list(self.entries)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "MultiIndex":
        return cls(tuple(data))


def as_multiindex(value: "MultiIndex | Iterable[int]") -> MultiIndex:
    if isinstance(value, MultiIndex):
        return value
    return MultiIndex(tuple(value))


def binom(a: MultiIndex, b: MultiIndex) -> int:
    """Entrywise binomial product C(a, b) = prod_i C(a_i, b_i).

    Requires b <= a; equals a! / (b! * (a-b)!) on that range.
    """
    if not b <= a:
        raise ValueError(f"binom needs {b.entries} <= {a.entries} componentwise")
    out = 1
    for ai, bi in zip(a.entries, b.entries):
        out *= math.comb(ai, bi)
    return out


def enumerate_below(alpha: MultiIndex) -> List[MultiIndex]:
    """All beta with beta <= alpha, in lexicographic order.

    Exactly prod_i (alpha_i + 1) indices.
    """
    ranges = [range(e + 1) for e in alpha.entries]
    return [MultiIndex._trusted(t) for t in itertools.product(*ranges)]


def convolution_terms(alpha: MultiIndex) -> List[Tuple[int, MultiIndex, MultiIndex]]:
    """The exact weighted splittings (C(alpha,beta), beta, alpha-beta) of the identity.

    One entry per beta <= alpha, in the order of ``enumerate_below``, so
    the first entry is beta = 0 and the last is beta = alpha.
    """
    return [(binom(alpha, beta), beta, alpha - beta) for beta in enumerate_below(alpha)]


def enumerate_height_at_most(rank: int, max_height: int) -> List[MultiIndex]:
    """All alpha in N^rank with |alpha| <= max_height, lexicographically.

    Exactly C(max_height + rank, rank) indices.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_height < 0:
        raise ValueError(f"max_height must be >= 0, got {max_height}")
    return [
        MultiIndex._trusted(t)
        for t in itertools.product(range(max_height + 1), repeat=rank)
        if sum(t) <= max_height
    ]
