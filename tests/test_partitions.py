from collections import Counter
from itertools import zip_longest

import pytest
from hypothesis import given, strategies as st

import schurkit
from schurkit.partitions import (
    _strip_extensions,
    _strips,
    compositions_of,
    conjugate,
    contains,
    dominates,
    format_partition,
    horizontal_strip_extensions,
    horizontal_strip_reductions,
    horizontal_strips_within,
    normalize,
    parse_composition,
    parse_partition,
    partition_count,
    partitions_of,
    subpartitions,
    term_key,
    vertical_strip_extensions,
)


@st.composite
def partition_strategy(draw, max_size=10):
    n = draw(st.integers(min_value=0, max_value=max_size))
    if n == 0:
        return ()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def count_by_max_part(n, cap):
    """Independent partition-count oracle: DP on the largest part."""
    if n == 0:
        return 1
    if n < 0 or cap == 0:
        return 0
    return count_by_max_part(n - cap, cap) + count_by_max_part(n, cap - 1)


def is_vertical_strip(inner, outer):
    """Reference: outer/inner is a skew diagram with at most one box per row."""
    return contains(inner, outer) and all(
        o - i <= 1 for o, i in zip_longest(outer, inner, fillvalue=0)
    )


def is_horizontal_strip(inner, outer):
    """Reference: at most one box per column, i.e. a vertical strip of the
    conjugate diagrams."""
    return is_vertical_strip(conjugate(inner), conjugate(outer))


def test_normalize_strips_zeros_and_validates():
    assert normalize((3, 1, 0, 0)) == (3, 1)
    assert normalize(()) == ()
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))
    for bad in ((2.5,), (2.0,), (True,), (3, 1.0)):
        with pytest.raises(TypeError):
            normalize(bad)
        with pytest.raises(TypeError):
            horizontal_strips_within((), bad)


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)


def test_conjugate_involution_exhaustive():
    for k in range(11):
        for lam in partitions_of(k):
            assert conjugate(conjugate(lam)) == lam


@given(partition_strategy())
def test_conjugate_involution_random(lam):
    assert conjugate(conjugate(lam)) == lam


def test_dominates_examples():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert not dominates((2, 2), (3, 1))
    assert dominates((3, 1), (2, 2))


def test_dominates_rejects_unequal_sizes():
    with pytest.raises(ValueError):
        dominates((2,), (1, 1, 1))


def test_dominates_is_partial_order_and_conjugation_reverses():
    for k in range(9):
        parts = partitions_of(k)
        for lam in parts:
            assert dominates(lam, lam)
            for mu in parts:
                lm, ml = dominates(lam, mu), dominates(mu, lam)
                if lm and ml:
                    assert lam == mu
                # conjugation reverses dominance
                assert lm == dominates(conjugate(mu), conjugate(lam))
                if lm:
                    for nu in parts:
                        if dominates(mu, nu):
                            assert dominates(lam, nu)


def test_strip_predicates_examples():
    # the enumerators list a shape exactly when the reference predicate holds
    cases = [
        (horizontal_strip_extensions, is_horizontal_strip, (2, 1), (4, 1), True),
        (horizontal_strip_extensions, is_horizontal_strip, (2, 1), (2, 2, 1), True),
        (horizontal_strip_extensions, is_horizontal_strip, (2, 1), (2, 1, 1, 1), False),
        (vertical_strip_extensions, is_vertical_strip, (1,), (1, 1), True),
        (vertical_strip_extensions, is_vertical_strip, (1,), (3,), False),
        (vertical_strip_extensions, is_vertical_strip, (2, 1), (2, 2, 1), True),
    ]
    for extend, is_strip, inner, outer, want in cases:
        assert is_strip(inner, outer) == want, (inner, outer)
        assert (outer in extend(inner, sum(outer) - sum(inner))) == want, (inner, outer)


def test_strips_swap_under_conjugation():
    # reductions walk the strips inside lam, vertical extensions the
    # conjugated extensions: two paths that must agree on every pair
    for k in range(7):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                p = k - sum(mu)
                horizontal = mu in horizontal_strip_reductions(lam, p)
                vertical = conjugate(lam) in vertical_strip_extensions(conjugate(mu), p)
                assert horizontal == vertical == is_horizontal_strip(mu, lam), (mu, lam)


def test_horizontal_strip_extensions_examples():
    assert horizontal_strip_extensions((1,), 1) == [(2,), (1, 1)]
    assert horizontal_strip_extensions((2, 1), 2) == [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1)]
    # the trusted core cuts the shapes at a row count, as the mirror
    # identity in n variables needs
    assert _strip_extensions((2,), 1, 1) == ((3,),)
    assert horizontal_strip_extensions((3, 1), 0) == [(3, 1)]


def test_horizontal_strip_reductions_examples():
    assert horizontal_strip_reductions((2,), 1) == [(1,)]
    assert set(horizontal_strip_reductions((2, 1), 1)) == {(2,), (1, 1)}
    assert horizontal_strip_reductions((2, 2), 1) == [(2, 1)]
    assert horizontal_strip_reductions((), 0) == [()]
    assert horizontal_strip_reductions((), 1) == []
    # the brute-force filter, order included
    for k in range(7):
        for lam in partitions_of(k):
            subs = subpartitions(lam)
            for p in range(k + 2):
                assert horizontal_strip_reductions(lam, p) == [
                    mu for mu in subs if is_horizontal_strip(mu, lam) and k - sum(mu) == p
                ]


def test_extensions_and_reductions_are_adjoint():
    for k in range(7):
        for lam in partitions_of(k):
            for p in range(4):
                for mu in horizontal_strip_reductions(lam, p):
                    assert lam in horizontal_strip_extensions(mu, p)
                for mu in horizontal_strip_extensions(lam, p):
                    assert lam in horizontal_strip_reductions(mu, p)
    # both sides run on the one strip walker: pin it, order included, to the
    # is_horizontal_strip filter over every base <= bound and every size
    for k in range(7):
        for bound in partitions_of(k):
            subs = subpartitions(bound)
            for base in subs:
                for size in [None, *range(-1, k + 2)]:
                    assert horizontal_strips_within(base, bound, size) == [
                        sigma
                        for sigma in subs
                        if is_horizontal_strip(base, sigma)
                        and (size is None or sum(sigma) - sum(base) == size)
                    ]


def test_extensions_really_are_strips():
    for k in range(7):
        for lam in partitions_of(k):
            for p in range(4):
                for mu in horizontal_strip_extensions(lam, p):
                    assert sum(mu) == k + p
                    assert is_horizontal_strip(lam, mu)
                for mu in vertical_strip_extensions(lam, p):
                    assert sum(mu) == k + p
                    assert is_vertical_strip(lam, mu)


def test_partitions_of_examples():
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_is_sorted_and_duplicate_free():
    # with the count oracle, this fixes the set and the order
    for k in range(16):
        parts = partitions_of(k)
        assert all(normalize(lam) == lam and sum(lam) == k for lam in parts), k
        assert len(set(parts)) == len(parts) == count_by_max_part(k, k)
        assert parts == sorted(parts, key=term_key)


def test_partition_counts_match_both_oracles():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for k in range(11):
        assert len(partitions_of(k)) == expected[k]
        assert partition_count(k) == expected[k]
        assert count_by_max_part(k, k) == expected[k]


@pytest.mark.parametrize("bad", [3.0, True])
def test_partition_count_rejects_non_int(bad):
    # 3.0 and True hash like 3 and 1, so a memo lookup would accept them
    schurkit.clear_caches()
    with pytest.raises(TypeError):
        partition_count(bad)
    assert partition_count(int(bad)) == int(bad)
    with pytest.raises(TypeError):
        partition_count(bad)


def test_dominated_walks_the_dominance_filter():
    # the trusted walk below lam against filtering every partition of |lam|
    # with the public dominance test, order included
    from schurkit.partitions import _dominated

    for k in range(13):
        parts = partitions_of(k)
        for lam in parts:
            assert _dominated(lam) == [mu for mu in parts if dominates(lam, mu)], lam


def test_subpartitions():
    assert subpartitions((2, 1)) == [(), (1,), (2,), (1, 1), (2, 1)]
    assert subpartitions(()) == [()]
    for lam in partitions_of(5):
        subs = subpartitions(lam)
        assert all(contains(mu, lam) for mu in subs)
        assert len(set(subs)) == len(subs)


def test_compositions_of():
    assert list(compositions_of(0, 0)) == [()]
    assert list(compositions_of(2, 0)) == []
    assert sorted(compositions_of(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert len(list(compositions_of(4, 3))) == 15


def _compositions_by_recursion(total, length):
    # the reference order: the first entry from total down, then the rest
    if length == 0:
        return [()] if total == 0 else []
    firsts = range(total, -1, -1)
    return [(f,) + rest for f in firsts for rest in _compositions_by_recursion(total - f, length - 1)]


def test_compositions_walk_in_the_recursive_order():
    for total in range(-2, 8):
        for length in range(7):
            assert list(compositions_of(total, length)) == _compositions_by_recursion(total, length)
    # it streams: the first two of C(39, 19) vectors come without the rest
    walk = compositions_of(20, 20)
    assert next(walk) == (20,) + (0,) * 19
    assert next(walk) == (19, 1) + (0,) * 18


def test_partition_literals_round_trip():
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("[]") == ()
    assert parse_partition(" [ 4 , 2 , 2 ] ") == (4, 2, 2)
    assert format_partition((3, 1)) == "[3,1]"
    assert format_partition(()) == "[]"
    with pytest.raises(ValueError):
        parse_partition("[1,2]")
    with pytest.raises(ValueError):
        parse_partition("3,1")
    with pytest.raises(ValueError):
        parse_partition("[3,,1]")
    with pytest.raises(ValueError):
        parse_partition("[1 2]")  # whitespace must not glue digits together
    assert parse_composition("[1,0,2]") == (1, 0, 2)


@given(partition_strategy())
def test_literal_round_trip_random(lam):
    assert parse_partition(format_partition(lam)) == lam


# The strip walk as it was before its memo: an explicit-stack DFS, kept here
# as the reference the memoised _strips must reproduce.


def _strips_by_dfs(base, bound, size):
    rows = min(len(bound), len(base) + 1)
    out = []
    stack = [(0, 0, ())]
    while stack:
        row, used, prefix = stack.pop()
        if row == rows:
            if size is None or used == size:
                out.append(prefix[:-1] if prefix and not prefix[-1] else prefix)
            continue
        low = base[row] if row < len(base) else 0
        high = min(bound[row], base[row - 1]) if row else bound[0]
        if size is not None:
            high = min(high, low + size - used)
        for v in range(low, high + 1):
            stack.append((row + 1, used + v - low, prefix + (v,)))
    return out if size is not None else sorted(out, key=term_key)


def test_strip_memo_matches_the_unmemoised_walk():
    schurkit.clear_caches()
    calls = 0
    for k in range(10):
        for bound in partitions_of(k):
            for base in subpartitions(bound):
                # every size up to one past the boxes of bound/base
                for size in [None, *range(k - sum(base) + 2)]:
                    want = tuple(_strips_by_dfs(base, bound, size))
                    # a miss, and then a hit unless the bound evicted it
                    assert _strips(base, bound, size) == want, (base, bound, size)
                    assert _strips(base, bound, size) == want, (base, bound, size)
                    calls += 1
    assert calls == 10551
    info = _strips.cache_info()
    assert info.hits >= calls and info.currsize == info.maxsize


@pytest.mark.parametrize(
    "fn, args",
    [
        (horizontal_strips_within, ((1,), (3, 2), None)),
        (horizontal_strips_within, ((2, 1), (4, 2, 1), 2)),
        (horizontal_strip_extensions, ((2, 1), 2)),
        (horizontal_strip_extensions, ((), 3)),
        (partitions_of, (6,)),
        (partitions_of, (0,)),
        (horizontal_strip_reductions, ((3, 2, 1), 2)),
        (vertical_strip_extensions, ((2, 1), 2)),
    ],
)
def test_mutating_a_result_leaves_the_memo_alone(fn, args):
    first = fn(*args)
    kept = list(first)
    first.append((99,))
    first.reverse()
    again = fn(*args)
    assert again == kept and again is not first


def test_strip_memo_stays_within_its_bound():
    # one (lam, p) key each: 4,440 distinct strip lists, more than the bound
    schurkit.clear_caches()
    for k in (12, 13, 14):
        for lam in partitions_of(k):
            for p in range(k + 1):
                horizontal_strip_extensions(lam, p)
    info = _strips.cache_info()
    assert info.maxsize == 4096
    assert info.misses > info.maxsize and info.currsize == info.maxsize
