"""Integer partitions, skew containment, strips, and enumeration primitives.

Partitions are canonical tuples of positive integers in weakly decreasing
order; the empty tuple is the unique partition of 0.  Integer vectors (inputs
to dominance and the straightening machinery) are arbitrary int sequences
whose length is significant.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import ge
from typing import Iterator, Optional, Sequence

from ._memo import memo

Partition = tuple[int, ...]

_INT_ONLY = {int}


def _ints(seq: Sequence[int], what: str) -> tuple[int, ...]:
    """seq as a tuple of exact integers; anything else (float, bool) is a TypeError."""
    out = tuple(seq)
    # one C-level pass: the set of entry types
    if not set(map(type, out)) <= _INT_ONLY:
        raise TypeError(f"{what} must be int, got {out!r}")
    return out


def _int(x: int, what: str) -> int:
    """x itself when it is an exact integer; a float or bool is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"{what} must be int, got {x!r}")
    return x


def _nonneg(x: int, what: str) -> int:
    """x itself when it is an exact integer and nonnegative."""
    if _int(x, what) < 0:
        raise ValueError(f"{what} must be nonnegative")
    return x


def _trim(parts: tuple[int, ...]) -> tuple[int, ...]:
    """parts without its trailing zeros."""
    while parts and not parts[-1]:
        parts = parts[:-1]
    return parts


def normalize(seq: Sequence[int]) -> Partition:
    """Canonical form of a partition: trailing zeros stripped; rejects non-partitions."""
    parts = _trim(_ints(seq, "partition parts"))
    # weakly decreasing parts are all positive when the last one is
    if parts and (parts[-1] <= 0 or not all(map(ge, parts, parts[1:]))):
        raise ValueError(f"not a partition: {tuple(seq)!r}")
    return parts


def pad(seq: Sequence[int], length: int) -> tuple[int, ...]:
    """Extend with zeros to the given length (never truncates nonzero entries)."""
    parts = tuple(seq)
    if len(parts) > length:
        if any(parts[i] for i in range(length, len(parts))):
            raise ValueError(f"cannot pad {parts!r} down to length {length}")
        return parts[:length]
    return parts + (0,) * (length - len(parts))


def term_key(lam: Sequence[int]):
    """Sort key for the canonical term order: by size, then parts descending."""
    lam = tuple(lam)
    return (sum(lam), tuple(-p for p in lam))


def conjugate(lam: Sequence[int]) -> Partition:
    """Transpose of the Young diagram: conjugate(lam)[i-1] = #{j : lam_j >= i}."""
    return _conjugate(normalize(lam))


def _conjugate(lam: Partition) -> Partition:
    # trusted: a canonical partition
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def contains(inner: Sequence[int], outer: Sequence[int]) -> bool:
    """Componentwise containment inner_i <= outer_i of Young diagrams."""
    return _contains(_ints(inner, "inner parts"), _ints(outer, "outer parts"))


def _contains(inner: tuple[int, ...], outer: tuple[int, ...]) -> bool:
    # trusted: tuples of ints
    width = max(len(inner), len(outer))
    for i in range(width):
        a = inner[i] if i < len(inner) else 0
        b = outer[i] if i < len(outer) else 0
        if a > b:
            return False
    return True


def dominates(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Dominance order on integer vectors of equal total: every prefix sum of
    alpha weakly exceeds the corresponding prefix sum of beta.

    Raises ValueError when the totals differ; dominance is only defined on
    vectors of equal size.
    """
    alpha, beta = _ints(alpha, "alpha entries"), _ints(beta, "beta entries")
    if sum(alpha) != sum(beta):
        raise ValueError(
            f"dominance undefined: |{alpha!r}| = {sum(alpha)} != {sum(beta)} = |{beta!r}|"
        )
    a = b = 0
    for i in range(max(len(alpha), len(beta))):
        a += alpha[i] if i < len(alpha) else 0
        b += beta[i] if i < len(beta) else 0
        if a < b:
            return False
    return True


def _interleaves(inner: Partition, outer: Partition) -> bool:
    # trusted: canonical partitions with inner inside outer
    return all(
        outer[i] <= (inner[i - 1] if i <= len(inner) else 0) for i in range(1, len(outer))
    )


def horizontal_strips_within(
    base: Sequence[int], bound: Sequence[int], size: Optional[int] = None
) -> list[Partition]:
    """All shapes sigma with base <= sigma <= bound such that sigma/base is a
    horizontal strip (of the given size, when fixed), in canonical term order.
    """
    base, bound = normalize(base), normalize(bound)
    if size is not None:  # a negative size has no strips, and is no error
        _int(size, "strip size")
    if not _contains(base, bound):
        return []
    return list(_strips(base, bound, size))


# Pieri, the Kostka chains, the strip chains and the tableau polynomials walk
# strips here (the LR walk builds its lattice strips itself, its cut depending
# on the previous entry), and `verify all` asks for each (base, bound, size)
# about 13 times.  The bound keeps a long process's memo small: the lr-signed
# suite at its acceptance bound asks for about 7,100 distinct keys, and one
# request at the degree cap for up to about 2,100 (`convert h[1^20] --basis s`).
_STRIP_MEMO_SIZE = 4096


@memo(maxsize=_STRIP_MEMO_SIZE)
def _strips(base: Partition, bound: Partition, size: Optional[int]) -> tuple[Partition, ...]:
    # trusted: canonical partitions with base inside bound.  A strip over
    # base ends by row len(base) + 1, and only that row can come out 0.
    # The tuple is shared by every caller; the public wrappers copy it.
    rows = min(len(bound), len(base) + 1)
    out: list[Partition] = []
    # explicit stack; pushing values low..high makes the DFS emit larger
    # shapes first, which is the canonical order once the size is fixed
    stack: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
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
    return tuple(out) if size is not None else tuple(sorted(out, key=term_key))


def _strip_chains(
    outer: Partition, inner: Partition, sizes: Sequence[Optional[int]]
) -> Iterator[tuple[Partition, ...]]:
    """Every chain inner = c_0 <= ... <= c_m = outer of horizontal strips, step t
    of sizes[t - 1] boxes (any where None), depth first in canonical order.
    Trusted: canonical partitions, inner inside outer."""
    steps = len(sizes)
    total = sum(outer)
    stack = [(inner,)]
    while stack:
        chain = stack.pop()
        step = len(chain) - 1
        if step == steps:  # only with no steps at all
            if chain[-1] == outer:
                yield chain
            continue
        if step == steps - 1:
            # the last strip can only end at outer: test it, list nothing
            base, size = chain[-1], sizes[step]
            if (size is None or total - sum(base) == size) and _interleaves(base, outer):
                yield chain + (outer,)
            continue
        stack.extend(chain + (nxt,) for nxt in reversed(_strips(chain[-1], outer, sizes[step])))


def horizontal_strip_extensions(lam: Sequence[int], p: int) -> list[Partition]:
    """All mu with lam <= mu and mu/lam a horizontal p-strip, canonical order."""
    return list(_strip_extensions(normalize(lam), _nonneg(p, "strip size"), None))


def _strip_extensions(lam: Partition, p: int, max_len: Optional[int]) -> tuple[Partition, ...]:
    # trusted: a canonical partition and a strip size p >= 0.  A horizontal
    # strip over lam occupies at most one new row, so the bound shape is lam
    # with p extra columns in row 1 and each later row capped by the row
    # above it in lam; it contains lam by construction.
    bound = ((lam[0] + p,) if lam else (p,)) + lam
    if max_len is not None:
        if len(lam) > max_len:
            return ()
        bound = bound[:max_len]
    return _strips(lam, bound, p)


def horizontal_strip_reductions(lam: Sequence[int], p: int) -> list[Partition]:
    """All mu <= lam with lam/mu a horizontal p-strip, canonical order: the
    mu with lam_{i+1} <= mu_i <= lam_i, i.e. the (lam_1 - p)-strips over lam[1:]."""
    lam = normalize(lam)
    p = _nonneg(p, "strip size")
    return horizontal_strips_within(lam[1:], lam, (lam[0] if lam else 0) - p)


def vertical_strip_extensions(lam: Sequence[int], p: int) -> list[Partition]:
    """All mu with lam <= mu and mu/lam a vertical p-strip, canonical order."""
    extensions = _strip_extensions(_conjugate(normalize(lam)), _nonneg(p, "strip size"), None)
    return sorted((_conjugate(mu) for mu in extensions), key=term_key)


def partitions_of(k: int) -> list[Partition]:
    """All partitions of k, in canonical term order."""
    if _int(k, "degree") < 0:
        raise ValueError("cannot partition a negative integer")
    return list(_partitions_of(k))


@memo
def _partitions_of(k: int) -> tuple[Partition, ...]:
    # trusted: k >= 0.  Every partition of k lies below (k) in dominance.
    # The tuple is shared; partitions_of copies it.
    return tuple(_dominated(_trim((k,))))


def subpartitions(lam: Sequence[int]) -> list[Partition]:
    """All partitions contained in lam, in canonical term order."""
    return _subpartitions(normalize(lam))


def _subpartitions(lam: Partition) -> list[Partition]:
    # trusted: a canonical partition
    out: list[Partition] = []
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        prefix, row = stack.pop()
        out.append(prefix)
        if row == len(lam):
            continue
        cap = lam[row] if row == 0 else min(lam[row], prefix[row - 1])
        for v in range(1, cap + 1):
            stack.append((prefix + (v,), row + 1))
    return sorted(out, key=term_key)


def _dominated(lam: Partition) -> list[Partition]:
    """The partitions of |lam| below lam in dominance, in canonical term
    order.  A part is placed only while the prefix sum stays at or below
    lam's, and such a part always exists until the size is reached, so the
    walk visits no partition that is not kept."""
    # trusted: a canonical partition
    k = sum(lam)
    bound = list(accumulate(lam))
    out: list[Partition] = []
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        prefix, placed = stack.pop()
        if placed == k:
            out.append(prefix)
            continue
        row = len(prefix)
        cap = (bound[row] if row < len(bound) else k) - placed
        if prefix:
            cap = min(cap, prefix[-1])
        for v in range(1, cap + 1):
            stack.append((prefix + (v,), placed + v))
    return out


def partition_count(k: int) -> int:
    """Number of partitions of k via Euler's pentagonal number recurrence.

    Kept independent of partitions_of so the two can check each other.
    """
    return _partition_count(_int(k, "degree"))


@memo
def _partition_count(k: int) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1
    total = 0
    j = 1
    while True:
        g1 = j * (3 * j - 1) // 2
        g2 = j * (3 * j + 1) // 2
        if g1 > k and g2 > k:
            break
        sign = 1 if j % 2 else -1
        total += sign * (_partition_count(k - g1) + _partition_count(k - g2))
        j += 1
    return total


def compositions_of(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """All vectors of `length` nonnegative integers summing to total; none
    when total is negative."""
    return _compositions(_int(total, "total"), _nonneg(length, "length"))


def _compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    # trusted: int total, length >= 0.  Lexicographically descending, from
    # (total, 0, ..., 0), on one list: the successor moves one unit from the
    # last nonzero entry before the final slot, i, to slot i + 1, and takes
    # the final slot's units along (slots i + 1 .. length - 2 are all 0).
    if not length:
        if total == 0:
            yield ()
        return
    if total < 0:
        return
    a = [total] + [0] * (length - 1)
    last = length - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and not a[i]:
            i -= 1
        if i < 0:
            return
        a[i] -= 1
        tail = a[last] + 1
        a[last] = 0
        a[i + 1] = tail


# whitespace may pad brackets and commas but never splits a number
_PARTITION_RE = re.compile(r"\s*\[\s*(\d+(\s*,\s*\d+)*)?\s*\]\s*")


def _parse_bracket_literal(text: str, what: str) -> tuple[int, ...]:
    m = _PARTITION_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad {what} literal: {text!r}")
    body = m.group(1)
    return tuple(int(x) for x in body.split(",")) if body else ()


def parse_partition(text: str) -> Partition:
    """Parse the bracket literal `[3,1]`; `[]` is the empty partition.

    The non-increasing check runs at parse time.
    """
    return normalize(_parse_bracket_literal(text, "partition"))


def parse_composition(text: str) -> tuple[int, ...]:
    """Parse a bracket literal as a composition (order kept, zeros allowed)."""
    return _parse_bracket_literal(text, "composition")


def format_partition(lam: Sequence[int]) -> str:
    """Inverse of parse_partition: `[3,1]`, with `[]` for the empty partition."""
    return "[" + ",".join(str(p) for p in lam) + "]"
