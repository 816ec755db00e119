"""Multi-index arithmetic, ordering and enumeration."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from moment_leibniz.multiindex import (
    DimensionMismatch,
    MultiIndex,
    binom,
    convolution_terms,
    enumerate_below,
    enumerate_height_at_most,
)


def _mi(*entries: int) -> MultiIndex:
    return MultiIndex(tuple(entries))


def _random_index(rng: random.Random, rank: int, cap: int = 5) -> MultiIndex:
    return MultiIndex(tuple(rng.randint(0, cap) for _ in range(rank)))


# ---- pinned arithmetic values ----


def test_add_sub_height():
    a = _mi(2, 0, 1)
    b = _mi(1, 3, 0)
    assert a + b == _mi(3, 3, 1)
    assert (a + b).height == 7
    assert _mi(3, 3, 1) - b == a
    # componentwise, not tuple concatenation
    assert a + b == (3, 3, 1) and type(a + b) is MultiIndex
    assert _mi(3, 3, 1) - b == (2, 0, 1) and type(_mi(3, 3, 1) - b) is MultiIndex
    assert _mi(1,) + _mi(2,) == (3,)
    assert _mi(4,).factorial() == 24
    assert _mi(2, 3).factorial() == 12


def test_sub_requires_componentwise_order():
    with pytest.raises(ValueError):
        _mi(1, 2) - _mi(2, 0)


def test_rank_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        _mi(1) + _mi(1, 0)
    with pytest.raises(DimensionMismatch):
        _mi(1, 1) <= _mi(1,)


def test_partial_order():
    assert _mi(1, 0) <= _mi(2, 0)
    assert not _mi(2, 0) <= _mi(1, 5)
    assert not _mi(1, 5) <= _mi(2, 0)  # incomparable both ways
    # tuples order (1, 5) below (2, 0) lexicographically; indices do not
    assert not _mi(1, 5) < _mi(2, 0) and not _mi(2, 0) < _mi(1, 5)
    assert not _mi(1, 5) >= _mi(2, 0) and not _mi(1, 5) > _mi(2, 0)
    assert _mi(1, 0) < _mi(1, 1)
    assert not _mi(1, 1) < _mi(1, 1)
    assert _mi(1, 1) <= _mi(1, 1)


def test_binom_pinned_values():
    assert binom(_mi(2, 1), _mi(1, 1)) == 2
    assert binom(_mi(4, 3), _mi(2, 1)) == 18
    assert binom(_mi(3,), _mi(0,)) == 1
    assert binom(_mi(5, 5), _mi(5, 5)) == 1
    with pytest.raises(ValueError):
        binom(_mi(1, 1), _mi(2, 0))


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        _mi(1, -1)
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError, match="negative"):
        MultiIndex([1, -1])
    with pytest.raises(ValueError, match="rank"):
        MultiIndex([])


@pytest.mark.parametrize("entry", [2.7, 2.0, True, "1", None])
def test_non_integer_entries_rejected(entry):
    with pytest.raises(ValueError, match="integers"):
        MultiIndex((1, entry))
    with pytest.raises(ValueError, match="integers"):
        MultiIndex([entry])


def test_zero_and_unit():
    assert MultiIndex.zero(3) == _mi(0, 0, 0)
    assert MultiIndex.unit(3, 1) == _mi(0, 1, 0)
    assert MultiIndex.zero(2).is_zero()
    with pytest.raises(ValueError):
        MultiIndex.unit(2, 2)


# ---- enumeration ----


def test_enumerate_below_lexicographic():
    got = [tuple(a) for a in enumerate_below(_mi(1, 1))]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_below_count_and_bounds():
    rng = random.Random(7)
    for _ in range(30):
        rank = rng.randint(1, 3)
        alpha = _random_index(rng, rank, cap=3)
        below = enumerate_below(alpha)
        expected = math.prod(e + 1 for e in alpha)
        assert len(below) == expected
        assert len(set(below)) == expected
        assert all(b <= alpha for b in below)


def test_enumerate_height_at_most_counts():
    for rank in (1, 2, 3):
        for cap in (0, 1, 2, 3, 4):
            got = enumerate_height_at_most(rank, cap)
            assert len(got) == math.comb(cap + rank, rank)
            assert len(set(got)) == len(got)
            assert all(a.height <= cap for a in got)
    assert len(enumerate_height_at_most(3, 4)) == 35
    # C(20, 10); filtering all 11^10 tuples would never finish
    assert len(enumerate_height_at_most(10, 10)) == 184756


def test_enumerate_height_at_most_lexicographic():
    got = [tuple(a) for a in enumerate_height_at_most(2, 1)]
    assert got == [(0, 0), (0, 1), (1, 0)]


def test_enumerate_height_at_most_matches_filtered_product():
    for rank in (1, 2, 3, 4):
        for cap in range(7):
            got = enumerate_height_at_most(rank, cap)
            expected = [
                t for t in itertools.product(range(cap + 1), repeat=rank) if sum(t) <= cap
            ]
            assert got == expected
            assert all(type(a) is MultiIndex for a in got)


def test_convolution_terms_are_binomials_and_differences():
    for rank in (1, 2, 3):
        for alpha in enumerate_height_at_most(rank, 5):
            got = convolution_terms(alpha)
            expected = [(binom(alpha, beta), beta, alpha - beta) for beta in enumerate_below(alpha)]
            assert got == expected
            for _, beta, gamma in got:
                assert type(beta) is MultiIndex and type(gamma) is MultiIndex


# ---- algebraic invariants, seeded sweeps ----


def test_binom_factorial_identity():
    # C(a, b) * b! * (a-b)! = a! whenever b <= a
    rng = random.Random(21)
    for _ in range(200):
        rank = rng.randint(1, 4)
        alpha = _random_index(rng, rank)
        for beta in enumerate_below(alpha):
            assert binom(alpha, beta) * beta.factorial() * (alpha - beta).factorial() == alpha.factorial()


def test_binom_row_sum_is_power_of_two():
    # sum_{b <= a} C(a, b) = 2^|a|
    rng = random.Random(22)
    for _ in range(50):
        alpha = _random_index(rng, rng.randint(1, 3), cap=4)
        total = sum(binom(alpha, beta) for beta in enumerate_below(alpha))
        assert total == 2**alpha.height


def test_add_sub_roundtrip():
    rng = random.Random(23)
    for _ in range(100):
        rank = rng.randint(1, 4)
        a = _random_index(rng, rank)
        b = _random_index(rng, rank)
        assert (a + b) - b == a


def test_json_roundtrip():
    a = _mi(1, 0, 2)
    assert a.to_json() == [1, 0, 2]
    assert MultiIndex([1, 0, 2]) == a


# ---- trusted results ----


def test_trusted_and_validated_indices_hash_alike():
    rng = random.Random(17)
    for _ in range(30):
        rank = rng.randint(1, 4)
        a, b = _random_index(rng, rank), _random_index(rng, rank)
        built = a + b  # a trusted result
        validated = MultiIndex(tuple(built))
        assert built == validated and validated == built
        assert hash(built) == hash(validated) == hash(tuple(built))
        assert built == tuple(built) and {validated: "v"}[tuple(built)] == "v"
        assert {validated: "v"}[built] == "v"
        assert {built: "b"}[validated] == "b"
        assert (built - b) == a and {a: 1}[built - b] == 1
    assert MultiIndex((1, 2)) == (1, 2) and (1, 2) == MultiIndex((1, 2))
    assert {MultiIndex((1, 2)): "i"}[(1, 2)] == "i"


def test_trusted_results_are_valid_indices():
    # every index the arithmetic and the enumerations hand out could have
    # been built by the validating constructor unchanged
    rng = random.Random(18)
    a, b = _random_index(rng, 3), _random_index(rng, 3)
    found = [a + b, (a + b) - b, *enumerate_below(a), *enumerate_height_at_most(2, 3)]
    for idx in found:
        assert type(idx) is MultiIndex
        assert all(type(e) is int and e >= 0 for e in idx)
        assert MultiIndex(tuple(idx)) == idx
