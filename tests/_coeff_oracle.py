"""Brute-force support analysis, kept only as an oracle for the tests.

These are the search-based algorithms that ``coeffsolve`` replaced with
the closed-form band ``N/2 < |alpha| <= N``: a pairwise structure test,
the forced-zero fixpoint, and an exhaustive search for constant
cancellation certificates.  They know nothing of the band, so agreeing
with them on every small support is evidence for the closed forms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from moment_leibniz.coeffsolve import SupportPattern, constraint_indices
from moment_leibniz.multiindex import (
    MultiIndex,
    binom,
    enumerate_below,
    enumerate_height_at_most,
)

# Search bound, not a theorem: constants are drawn from {-3..-1, 1..3}
# and at most SEARCH_CAP assignments are tried per support.
CERT_VALUES = tuple(Fraction(v) for v in (-3, -2, -1, 1, 2, 3))
SEARCH_CAP = 50000


def decomposition_pairs(
    alpha: MultiIndex, support: Iterable[MultiIndex]
) -> List[Tuple[MultiIndex, MultiIndex]]:
    """Ordered interior splittings alpha = beta + gamma with both parts in support."""
    sup = set(support)
    return [
        (beta, alpha - beta)
        for beta in enumerate_below(alpha)[1:-1]
        if beta in sup and (alpha - beta) in sup
    ]


def structure_valid(pattern: SupportPattern) -> bool:
    """|beta + gamma| > order for all beta, gamma in the support, repetition allowed."""
    elems = list(pattern.support)
    for i, beta in enumerate(elems):
        for gamma in elems[i:]:
            if (beta + gamma).height <= pattern.order:
                return False
    return True


def forced_zero_fixpoint(pattern: SupportPattern) -> FrozenSet[MultiIndex]:
    """Repeatedly drop every gamma whose square 2*gamma has gamma + gamma
    as its only decomposition inside the remaining support."""
    active = set(pattern.support)
    forced: set[MultiIndex] = set()
    while True:
        newly = []
        for gamma in sorted(active, key=lambda a: (a.height, tuple(a))):
            double = gamma + gamma
            if double.height > pattern.order:
                continue
            decomp = {beta for beta, _ in decomposition_pairs(double, active)}
            if decomp == {gamma}:
                newly.append(gamma)
        if not newly:
            return frozenset(forced)
        forced.update(newly)
        active.difference_update(newly)


def certificate_search(
    pattern: SupportPattern,
    values: Sequence[Fraction] = CERT_VALUES,
    cap: int = SEARCH_CAP,
) -> Optional[Dict[MultiIndex, Fraction]]:
    """Exhaustive exact search for nonzero constants cancelling every sum.

    Returns None when no assignment within the bound works.
    """
    elems = pattern.sorted_support()
    if len(values) ** len(elems) > cap:
        return None
    systems = []
    for alpha in constraint_indices(pattern.rank, pattern.order):
        pairs = decomposition_pairs(alpha, pattern.support)
        if pairs:
            systems.append([(binom(alpha, beta), beta, gamma) for beta, gamma in pairs])
    for assignment in itertools.product(values, repeat=len(elems)):
        cert = dict(zip(elems, assignment))
        if all(
            sum(w * cert[b] * cert[g] for w, b, g in system) == 0
            for system in systems
        ):
            return cert
    return None


def admissible(pattern: SupportPattern, forced: FrozenSet[MultiIndex]) -> bool:
    """Usable with nonzero constants: every sum is empty, or a certificate exists.

    ``forced`` is the pattern's forced-zero fixpoint; a forced index admits
    no nonzero value, so the search is skipped when it is nonempty.
    """
    if structure_valid(pattern):
        return True
    return not forced and certificate_search(pattern) is not None


def all_supports(rank: int, order: int) -> List[SupportPattern]:
    """Every subset of {0 < |alpha| <= order}, by size, in combinations order
    over the index set sorted by (height, entries)."""
    index_set = sorted(
        (a for a in enumerate_height_at_most(rank, order) if a.height >= 1),
        key=lambda a: (a.height, tuple(a)),
    )
    return [
        SupportPattern(rank, order, frozenset(combo))
        for size in range(len(index_set) + 1)
        for combo in itertools.combinations(index_set, size)
    ]
