"""Index calculus for raising operators.

A raising operator moves a unit from a later slot of an integer vector to an
earlier one.  Straightening rewrites an arbitrary index vector as zero or as
a signed partition via the staircase shift, and the determinant expansion
turns a signed partition index into an explicit alternating sum of
complete-homogeneous index monomials.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ._sparse import accumulate
from .partitions import Partition, _int, _ints, _nonneg, _trim, pad


class SignedPartition(NamedTuple):
    """A partition with a sign, or zero (sign 0, partition None)."""

    sign: int
    partition: Optional[Partition]


ZERO = SignedPartition(0, None)


def staircase(length: int) -> tuple[int, ...]:
    """The vector (length-1, length-2, ..., 1, 0)."""
    return _staircase(_nonneg(length, "staircase length"))


def _staircase(length: int) -> tuple[int, ...]:
    # trusted: length >= 0
    return tuple(range(length - 1, -1, -1))


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given in one-line form over 0..n-1.  Checks
    that perm is one, then runs the trusted `_perm_sign`."""
    return _perm_sign(_permutation(perm))


def _permutation(perm: Sequence[int]) -> tuple[int, ...]:
    """perm as a tuple, when it is a permutation of 0..n-1 in one-line form."""
    perm = _ints(perm, "permutation")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation of 0..{len(perm) - 1}: {perm!r}")
    return perm


def _perm_sign(perm: Sequence[int]) -> int:
    # trusted: a permutation of 0..n-1.  Each cycle of even length flips
    # the sign, so one pass over the cycles suffices.
    sign, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        i, length = start, 0
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length and not length % 2:
            sign = -sign
    return sign


def apply_raising(alpha: Sequence[int], i: int, j: int) -> tuple[int, ...]:
    """Add 1 at slot i and subtract 1 at slot j (1-based, i < j).

    The result dominates the input: a unit always moves toward the front.
    """
    alpha = _ints(alpha, "index vector")
    _int(i, "slot i")
    _int(j, "slot j")
    if not (1 <= i < j <= len(alpha)):
        raise IndexError(f"need 1 <= i < j <= {len(alpha)}, got i={i}, j={j}")
    out = list(alpha)
    out[i - 1] += 1
    out[j - 1] -= 1
    return tuple(out)


def straighten(alpha: Sequence[int]) -> SignedPartition:
    """Rewrite an index vector as 0 or as +/- a unique partition.

    Add the staircase, demand distinct entries (a tie means a determinant
    with two equal rows), sort descending while tracking the permutation
    parity, and subtract the staircase back off.  The length of alpha is the
    working length; trailing zeros do not change the outcome.  Checks that
    every entry is an int, then runs the trusted `_straighten`.
    """
    return _straighten(_ints(alpha, "index vector"))


def _straighten(alpha: tuple[int, ...]) -> SignedPartition:
    # trusted: a tuple of ints
    ell = len(alpha)
    shifted = [a + ell - i for i, a in enumerate(alpha, 1)]
    if len(set(shifted)) != ell or (shifted and min(shifted) < 0):
        return ZERO
    order = sorted(range(ell), key=shifted.__getitem__, reverse=True)
    mu = tuple(shifted[k] - ell + i for i, k in enumerate(order, 1))
    return SignedPartition(_perm_sign(order), _trim(mu))


def adjacent_swap_identity_check(
    alpha: Sequence[int], r: int, s: int, beta: Sequence[int]
) -> bool:
    """Check that (alpha,r,s,beta) straightens to minus (alpha,s-1,r+1,beta)."""
    left = straighten(tuple(alpha) + (r, s) + tuple(beta))
    right = straighten(tuple(alpha) + (s - 1, r + 1) + tuple(beta))
    if left.sign == 0 and right.sign == 0:
        return True
    return left.sign == -right.sign and left.partition == right.partition


def _forced_contents(alpha: Sequence[int], mu: Sequence[int] = ()):
    """Each permutation w of the working length, max(len(alpha), len(mu)),
    whose index vector w(alpha + staircase) - staircase - mu is nonnegative,
    paired with that vector, in the lexicographic order of w.

    Depth first over the slots: slot j takes an unused i only while its
    entry shifted[i] - rho[j] - mu[j] stays nonnegative, so no branch grows
    past its first negative entry.  Trying i in increasing order keeps the
    order of filtering itertools.permutations.
    """
    ell = max(len(alpha), len(mu))
    alpha, mu = pad(alpha, ell), pad(mu, ell)
    rho = _staircase(ell)
    shifted = tuple(alpha[i] + rho[i] for i in range(ell))
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    while stack:
        perm, idx = stack.pop()
        j = len(perm)
        if j == ell:
            yield perm, idx
            continue
        floor = rho[j] + mu[j]
        stack.extend(
            (perm + (i,), idx + (shifted[i] - floor,))
            for i in range(ell - 1, -1, -1)
            if shifted[i] >= floor and i not in perm
        )


def jacobi_trudi_expand(
    alpha: Sequence[int], mu: Sequence[int] = ()
) -> dict[tuple[int, ...], int]:
    """Alternating expansion of the index determinant into h-index monomials.

    Sums sign(w) * [index vector w(alpha + staircase) - staircase - mu] over
    all permutations w of the working length, max(len(alpha), len(mu)); with
    an inner shape mu this is the skew determinant det(h_{alpha_i - mu_j +
    j - i}).  Terms with a negative index vanish (generators of negative
    degree are zero), zero indices are deleted (the degree-zero generator is
    1), and surviving index multisets are keyed as partitions sorted
    descending.
    """
    alpha, mu = _ints(alpha, "index vector"), _ints(mu, "inner shape")
    return accumulate(
        (tuple(sorted((v for v in idx if v), reverse=True)), _perm_sign(perm))
        for perm, idx in _forced_contents(alpha, mu)
    )
