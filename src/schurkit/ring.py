"""The graded ring of symmetric functions over the integers.

Elements are sparse integer combinations of partitions, tagged with one of
four bases: s (Schur), h (complete homogeneous), e (elementary), m
(monomial).  Products are computed natively in the Schur basis through
Littlewood-Richardson coefficients; the other bases route through s.  Basis
changes are exact integer transforms computed one term at a time: h and e
into s by Pieri's rule, s into m by counting tableau chains, s into h and e
by expanding the Jacobi-Trudi determinant along its first column, m into s
by reading each inverse Kostka entry from that expansion at one coefficient,
h and e into each other by Newton's relation, and h and e into m by
counting matrices with fixed margins; m into h and e passes through s.  A
row ranges over the partitions below one in dominance, walked directly.
The whole-degree Kostka matrix (the Pieri columns, transposed) and its
inverse stay public, built afresh on each call from the per-term memos;
the tests hold each route to the tableau-chain count, to the permutation
walk over the determinant, to the whole first-column expansion, to a plain
listing of matrices, or to the route through s.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby
from math import factorial
from operator import add, sub
from typing import Iterable, Optional, Sequence, Union

from .partitions import (
    Partition,
    _compositions,
    _conjugate,
    _contains,
    _dominated,
    _int,
    _nonneg,
    _strip_extensions,
    _trim,
    format_partition,
    horizontal_strip_extensions,
    horizontal_strip_reductions,
    normalize,
    pad,
    partitions_of,
    vertical_strip_extensions,
)
from ._memo import memo
from ._sparse import SparseCombination, accumulate
from .raising import _straighten, jacobi_trudi_expand
from .tableaux import _kostka_chains, _lr_coefficient, _lr_fillings

BASES = ("s", "h", "e", "m")


class BasisMismatchError(ValueError):
    """Raised when an operation silently mixing bases is attempted."""


class SymFunc(SparseCombination):
    """A sparse integer combination of partitions in a tagged basis.

    Immutable once built: arithmetic returns new objects, zero coefficients
    are never stored, and keys are canonical partitions.  Addition requires
    matching bases; convert explicitly instead of relying on coercion.
    """

    __slots__ = ()
    _head_name = "basis"
    _key_name = "partition"
    _key = staticmethod(normalize)

    @staticmethod
    def _check_head(basis) -> None:
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")

    @property
    def basis(self) -> str:
        return self._head

    def _body(self, lam: Partition) -> str:
        return f"{self._head}{format_partition(lam)}"

    @classmethod
    def zero(cls, basis: str = "s") -> "SymFunc":
        return cls(basis)

    @classmethod
    def one(cls, basis: str = "s") -> "SymFunc":
        return cls(basis, {(): 1})

    @classmethod
    def element(cls, basis: str, lam: Sequence[int], coeff: int = 1) -> "SymFunc":
        return cls(basis, [(lam, coeff)])

    def coefficient(self, lam: Sequence[int]) -> int:
        return self._terms.get(normalize(lam), 0)

    def _require_same_head(self, other: "SymFunc") -> None:
        if self._head != other._head:
            raise BasisMismatchError(
                f"cannot combine {self._head}-basis with {other._head}-basis; convert first"
            )

    def __mul__(self, other: Union["SymFunc", int]) -> "SymFunc":
        if type(other) is int:
            return self.__rmul__(other)
        if type(other) is SymFunc:
            return multiply(self, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._head, frozenset(self._terms.items())))


# ---------------------------------------------------------------------------
# transition data: whole-degree matrices and per-term rows and columns


def kostka_matrix(k: int) -> dict[Partition, dict[Partition, int]]:
    """All Kostka numbers in degree k: matrix[lam][mu] counts tableaux of
    straight shape lam and content mu.  Nonzero only when lam dominates mu.

    Assembled from the Pieri columns of `_h_in_s` into new dicts on every
    call, so a caller may mutate the result; the tableau-chain count
    `tableaux.kostka` stays its independent check.
    """
    parts = partitions_of(k)
    columns = {mu: _h_in_s(mu) for mu in parts}
    return {
        lam: {mu: v for mu in parts if (v := columns[mu].get(lam))} for lam in parts
    }


def kostka_inverse(k: int) -> dict[Partition, dict[Partition, int]]:
    """Inverse Kostka matrix in degree k: row[mu][lam] gives the Schur
    expansion of the degree-k monomial function m_mu.

    Row mu is the row of `_m_in_s`, whose entry at lam is the h_mu
    coefficient of the Jacobi-Trudi determinant of lam, read along its first
    column without expanding it.  Each row is copied into a new dict on
    every call, so that a caller who mutates the matrix changes neither
    what `convert` reads nor a later call's result.
    """
    return {mu: dict(_m_in_s(mu)) for mu in partitions_of(k)}


# ---------------------------------------------------------------------------
# basis changes, one row or column per term
#
# Each route expands one basis element and is memoised per partition, so a
# conversion costs only the terms it touches.  The whole-degree matrices
# above are never built on these routes.


@memo
def _h_in_s(mu: Partition) -> dict[Partition, int]:
    """The Schur expansion {lam: K_{lam mu}} of h_mu: Pieri's rule adds one
    horizontal mu_i-strip per part, memoised on the prefixes of mu."""
    if not mu:
        return {(): 1}
    return accumulate(
        (shape, c)
        for base, c in _h_in_s(mu[:-1]).items()
        for shape in _strip_extensions(base, mu[-1], None)
    )


@memo
def _s_in_m(lam: Partition) -> dict[Partition, int]:
    """The monomial expansion {mu: K_{lam mu}} of s_lam, over mu below lam in
    dominance, by the memoised tableau-chain count."""
    return {mu: v for mu in _dominated(lam) if (v := _kostka_chains(lam, (), mu))}


def _merged(a: Partition, b: Partition) -> Partition:
    """The parts of a and of b sorted into one partition: the index of the
    products h_a h_b and e_a e_b."""
    return tuple(sorted(a + b, reverse=True))


@memo
def _s_in_h(lam: Partition) -> dict[Partition, int]:
    """The h-expansion of s_lam: the Jacobi-Trudi determinant det(h_{lam_i
    - i + j}), expanded along its first column.

    Deleting row i and the first column leaves the Jacobi-Trudi matrix of
    (lam_1 + 1, ..., lam_{i-1} + 1, lam_{i+1}, ..., lam_l), a partition with
    one row fewer, so

        s_lam = sum_i (-1)^(i-1) h_{lam_i - i + 1} s_(that partition),

    over the i with lam_i - i + 1 >= 0 (a prefix of the rows, since the
    index falls as i grows; h_0 = 1 and generators of negative degree
    vanish).  Every minor is memoised, so the partitions of one
    conversion share them.
    """
    if not lam:
        return {(): 1}
    pairs = []
    for i, part in enumerate(lam):
        index = part - i
        if index < 0:
            break
        minor = tuple(p + 1 for p in lam[:i]) + lam[i + 1 :]
        factor, sign = ((index,) if index else ()), (-1 if i % 2 else 1)
        pairs.extend((_merged(key, factor), sign * c) for key, c in _s_in_h(minor).items())
    return accumulate(pairs)


@memo
def _s_h_entry(lam: Partition, left: Partition) -> int:
    """The h_left coefficient of s_lam, the inverse Kostka entry K^-1_{left lam}.

    The first-column expansion of `_s_in_h`, read at one coefficient: the
    row i term h_{lam_i - i + 1} s_(minor) holds h_left only when its factor
    is a part of left, and then through the h_(left without that part)
    coefficient of the minor (h_0 takes no part).  Memoised on (shape,
    parts still to place), so the entries of one row share their minors,
    and a pair whose first part or length already rules out dominance is
    cut.
    """
    if not lam:
        return 1  # sizes stay equal, so left is empty too
    if left[0] < lam[0] or len(left) > len(lam):
        return 0  # h_left is in s_lam only when left dominates lam
    total = 0
    for i, part in enumerate(lam):
        index = part - i
        if index < 0:
            break
        rest = left
        if index:
            if index not in left:
                continue
            at = left.index(index)
            rest = left[:at] + left[at + 1 :]
        v = _s_h_entry(tuple(p + 1 for p in lam[:i]) + lam[i + 1 :], rest)
        total += -v if i % 2 else v
    return total


@memo
def _m_in_s(mu: Partition) -> dict[Partition, int]:
    """The Schur expansion of m_mu, the row mu of the inverse Kostka matrix.

    The h-expansion of s_lam is the column lam of the same inverse (h_mu =
    sum K_{lam mu} s_lam, inverted), so the entry at lam is the h_mu
    coefficient of s_lam, read by `_s_h_entry` without expanding s_lam; it
    vanishes unless lam is below mu in dominance.
    """
    return {lam: v for lam in _dominated(mu) if (v := _s_h_entry(lam, mu))}


@memo
def _h_in_e(mu: Partition) -> dict[Partition, int]:
    """The e-expansion of h_mu.  One part n follows Newton's relation

        h_n = sum_{i=1..n} (-1)^(i-1) e_i h_{n-i}

    (Macdonald, Symmetric Functions and Hall Polynomials, I (2.6')), and a
    longer mu multiplies its prefix by its last part; products in the e
    basis join partitions.  Read with the bases swapped it is the
    h-expansion of e_mu, its image under the duality involution.
    """
    if not mu:
        return {(): 1}
    if len(mu) > 1:
        last = _h_in_e(mu[-1:])
        return accumulate(
            (_merged(a, b), c * d) for a, c in _h_in_e(mu[:-1]).items() for b, d in last.items()
        )
    n = mu[0]
    return accumulate(
        (_merged(key, (i,)), -c if i % 2 == 0 else c)
        for i in range(1, n + 1)
        for key, c in _h_in_e((n - i,) if n > i else ()).items()
    )


@memo
def _run_shares(c: int, m: int, most: int) -> dict[int, list[tuple[Partition, int]]]:
    """The ways one row can take entries of at most `most` from m columns
    that all have sum c, grouped by the amount taken: {amount: [(the column
    sums left, largest first, ways)]}.  The columns are alike, so a multiset
    of entries stands for its m! / prod(multiplicity!) arrangements."""
    shares: dict[int, list[tuple[Partition, int]]] = {}
    for taken in combinations_with_replacement(range(most + 1), m):
        ways = factorial(m)
        for t in set(taken):
            ways //= factorial(taken.count(t))
        shares.setdefault(sum(taken), []).append((tuple(c - t for t in taken), ways))
    return shares


@memo
def _matrix_count(rows: Partition, cols: Partition, binary: bool) -> int:
    """The number of matrices with row sums rows and column sums cols (of
    equal total) whose entries are nonnegative integers, or only 0 and 1
    when binary.

    The last (smallest) row takes its entries first, from one run of equal
    columns at a time (`_run_shares`), and the other rows recurse on the
    column sums it leaves, so the largest row is the one left to take
    everything.  A partial row is keyed by the column sums it leaves, in
    column order, and by the amount still to place; a branch whose amount
    left exceeds what the later runs can take is cut, so every partial row
    left after the last run is complete.  The count does not depend on the
    order of the columns, so the complete rows are sorted and merged once,
    by the multiset of column sums they leave.
    """
    if len(rows) <= 1:
        # the last row takes all that is left, which must fit its entries
        return 1 if not binary or not cols or cols[0] == 1 else 0
    row = rows[-1]
    cap = 1 if binary else row
    runs = [(c, len(list(same))) for c, same in groupby(cols)]  # (column sum, columns)
    room = [0] * (len(runs) + 1)  # room[j]: what runs j, j+1, ... can take
    for j in range(len(runs) - 1, -1, -1):
        room[j] = room[j + 1] + runs[j][1] * min(runs[j][0], cap)
    partial = {((), row): 1}  # (column sums left, amount to place): ways
    for j, (c, m) in enumerate(runs):
        most = min(c, cap)
        shares = _run_shares(c, m, most)
        partial = accumulate(
            ((kept + left, todo - amount), w * ways)
            for (kept, todo), w in partial.items()
            for amount in range(max(0, todo - room[j + 1]), min(m * most, todo) + 1)
            for left, ways in shares[amount]
        )
    complete = accumulate(
        (_trim(tuple(sorted(kept, reverse=True))), w) for (kept, _), w in partial.items()
    )
    return sum(w * _matrix_count(rows[:-1], kept, binary) for kept, w in complete.items())


def _in_m(mu: Partition, binary: bool) -> dict[Partition, int]:
    """The monomial expansion of h_mu, or of e_mu when binary: the m_kappa
    coefficient counts the matrices with row sums mu and column sums kappa,
    with nonnegative integer entries for h and 0/1 entries for e (Stanley,
    Enumerative Combinatorics 2, Props. 7.4.1 and 7.5.1).  A 0/1 matrix
    exists only for kappa below the conjugate of mu in dominance."""
    top = _conjugate(mu) if binary else _trim((sum(mu),))
    return {kappa: v for kappa in _dominated(top) if (v := _matrix_count(mu, kappa, binary))}


def _expand(f: SymFunc, target: str, image) -> SymFunc:
    """Replace each basis element of f by image(lam), a map from target-basis
    keys to coefficients."""
    pairs = ((mu, c * v) for lam, c in f._terms.items() for mu, v in image(lam).items())
    return SymFunc._trusted(target, accumulate(pairs))


# The image of one basis element under each direct route; m into h or e
# has none.  e_mu is omega(h_mu) and s_lam is omega(s_lam'), so the e
# routes read the h memos with shapes conjugated or tags swapped.
_IMAGES = {
    ("h", "s"): _h_in_s,
    ("e", "s"): lambda mu: {_conjugate(lam): v for lam, v in _h_in_s(mu).items()},
    ("m", "s"): _m_in_s,
    ("s", "m"): _s_in_m,
    ("s", "h"): _s_in_h,
    ("s", "e"): lambda lam: _s_in_h(_conjugate(lam)),
    ("h", "e"): _h_in_e,
    ("e", "h"): _h_in_e,
    ("h", "m"): lambda mu: _in_m(mu, False),
    ("e", "m"): lambda mu: _in_m(mu, True),
}


def _to_s(f: SymFunc) -> SymFunc:
    return f if f.basis == "s" else _expand(f, "s", _IMAGES[f.basis, "s"])


def convert(f: SymFunc, target: str) -> SymFunc:
    """Exact change of basis; round trips are the identity.  m into h or e
    passes through s; every other pair has a route of its own."""
    if target not in BASES:
        raise ValueError(f"unknown basis {target!r}; expected one of {BASES}")
    if target == f.basis:
        return f
    route = _IMAGES.get((f.basis, target))
    if route is None:
        return _expand(_to_s(f), target, _IMAGES["s", target])
    return _expand(f, target, route)


# ---------------------------------------------------------------------------
# products


def _pieri(p: int, f: SymFunc, extensions, name: str) -> SymFunc:
    _nonneg(p, "strip size")
    if f.basis != "s":
        raise BasisMismatchError(f"{name} acts on the s-basis; convert first")
    return _expand(f, "s", lambda lam: dict.fromkeys(extensions(lam, p), 1))


def pieri_h(p: int, f: SymFunc) -> SymFunc:
    """Multiply a Schur-basis element by the degree-p complete function:
    each partition grows by every horizontal p-strip."""
    return _pieri(p, f, horizontal_strip_extensions, "pieri_h")


def pieri_e(p: int, f: SymFunc) -> SymFunc:
    """Multiply a Schur-basis element by the degree-p elementary function:
    each partition grows by every vertical p-strip."""
    return _pieri(p, f, vertical_strip_extensions, "pieri_e")


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product in the Schur basis via Littlewood-Richardson coefficients.

    Inputs in other bases are converted first; the result is always tagged s.
    """
    fs, gs = _to_s(f), _to_s(g)

    def pairs():
        for mu, a in fs._terms.items():
            for nu, b in gs._terms.items():
                # every lam with c^lam_{mu nu} != 0 has lam_1 <= mu_1 + nu_1
                # and at most l(mu) + l(nu) rows
                width = (mu[0] if mu else 0) + (nu[0] if nu else 0)
                box = (width,) * (len(mu) + len(nu))
                for lam, c in _lr_fillings(mu, nu, box).items():
                    yield lam, a * b * c

    return SymFunc._trusted("s", accumulate(pairs()))


# ---------------------------------------------------------------------------
# duality and skew functions


def omega(f: SymFunc) -> SymFunc:
    """The duality involution: conjugates Schur indices and swaps the h and e
    tags; monomial-basis input routes through s."""
    if f.basis == "s":
        return f._like({_conjugate(lam): c for lam, c in f._terms.items()})
    if f.basis == "h":
        return SymFunc._trusted("e", f._terms)
    if f.basis == "e":
        return SymFunc._trusted("h", f._terms)
    return convert(omega(_to_s(f)), "m")


def skew_schur(lam: Sequence[int], mu: Sequence[int]) -> SymFunc:
    """The skew function of lam/mu as a Schur-basis expansion: the nu-th
    coefficient is the LR count of fillings of lam/mu with content nu, which
    is 0 unless nu fits inside lam."""
    lam, mu = normalize(lam), normalize(mu)
    if not _contains(mu, lam):
        return SymFunc.zero("s")
    return SymFunc._trusted(
        "s",
        {
            nu: c
            for nu in partitions_of(sum(lam) - sum(mu))
            if _contains(nu, lam) and (c := _lr_coefficient(lam, mu, nu))
        },
    )


def skew_jacobi_trudi(
    lam: Sequence[int], mu: Sequence[int], flavor: str = "h"
) -> SymFunc:
    """Signed determinant expansion of the skew shape lam/mu.

    The h flavor expands det(h_{lam_i - mu_j + j - i}) and equals the skew
    function of lam/mu; the e flavor expands the same determinant in
    elementary functions and equals the skew function of the conjugate pair.
    """
    if flavor not in ("h", "e"):
        raise ValueError("flavor must be 'h' or 'e'")
    return SymFunc._trusted(flavor, jacobi_trudi_expand(normalize(lam), normalize(mu)))


# ---------------------------------------------------------------------------
# identity checks


def _signed_sum(vectors: Iterable[tuple[int, ...]]) -> dict[Partition, int]:
    """Straighten each index vector (a tuple of ints) and sum the signs."""
    straightened = (_straighten(vec) for vec in vectors)
    return accumulate((sp.partition, sp.sign) for sp in straightened if sp.sign)


def mirror_identity_check(lam: Sequence[int], p: int, n: Optional[int] = None) -> bool:
    """Check both strip identities for lam and p.

    Adding every composition of p to lam and straightening matches the sum
    over horizontal p-strip extensions; subtracting matches the sum over
    reductions.  With n given, both sides restrict to indices of length at
    most n (requires n >= len(lam)); without it, the addition side is cut at
    length len(lam) + p, beyond which every term straightens to zero (any
    longer support forces a repeated staircase-shifted value).
    """
    lam = normalize(lam)
    _nonneg(p, "strip size")
    ell = len(lam)
    if n is not None and _int(n, "length bound") < ell:
        raise ValueError(f"length bound {n} is below the partition length {ell}")

    def side(width: int, step, strips: Sequence[Partition]) -> bool:
        base = pad(lam, width)
        lhs = _signed_sum(tuple(map(step, base, alpha)) for alpha in _compositions(p, width))
        return lhs == dict.fromkeys(strips, 1)

    return side(ell + p if n is None else n, add, _strip_extensions(lam, p, n)) and side(
        ell + 1 if n is None else n, sub, horizontal_strip_reductions(lam, p)
    )


def skew_mirror_check(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Check the skew generalization of the subtraction identity:
    the skew function of lam/mu equals the Kostka-weighted signed sum of
    straightened differences lam - alpha over compositions alpha of |mu|."""
    lam, mu = normalize(lam), normalize(mu)
    if not _contains(mu, lam):
        return not skew_schur(lam, mu)
    # the Kostka weight only where lam - alpha straightens to a partition
    lhs = accumulate(
        (sp.partition, sp.sign * _kostka_chains(mu, (), _trim(alpha)))
        for alpha in _compositions(sum(mu), len(lam))
        if (sp := _straighten(tuple(map(sub, lam, alpha)))).sign
    )
    return SymFunc._trusted("s", lhs) == skew_schur(lam, mu)


def newton_check(r: int) -> bool:
    """Check the alternating convolution of h and e in degree r:
    sum_i (-1)^i h_i e_{r-i} vanishes for r >= 1."""
    if _int(r, "degree") < 1:
        raise ValueError("degree must be positive")
    total = SymFunc.zero("s")
    for i in range(r + 1):
        h_i = SymFunc.element("h", (i,) if i else ())
        e_rest = SymFunc.element("e", (r - i,) if r - i else ())
        term = multiply(h_i, e_rest)
        total = total + (term if i % 2 == 0 else -term)
    return not total


def cauchy_transition_check(k: int, dual: bool = False) -> bool:
    """Check the degree-k Cauchy pairing through transition matrices.

    Expands sum_lam s_lam (x) s_lam over partitions of k in the (m, h)
    coordinate pair and compares with the identity pairing sum_lam m_lam (x)
    h_lam; the dual flavor conjugates the second leg and lands in (m, e).
    """
    parts = partitions_of(_nonneg(k, "degree"))

    def pairs():
        for lam in parts:
            left = convert(SymFunc.element("s", lam), "m")
            second = SymFunc.element("s", _conjugate(lam) if dual else lam)
            right = convert(second, "e" if dual else "h")
            for a, ca in left._terms.items():
                for b, cb in right._terms.items():
                    yield (a, b), ca * cb

    lhs = accumulate(pairs())
    rhs = {(lam, lam): 1 for lam in parts}
    return lhs == rhs
