"""Semistandard tableaux on skew shapes, Kostka numbers, and the
Littlewood-Richardson rule with its sign-reversing involution.

Tableaux are enumerated as chains of horizontal strips: a filling with
entries at most m is the same thing as a chain of m nested shapes where the
i-th step adds the boxes holding entry i.

LR coefficients are counted on the same chains without building tableaux:
`_lr_fillings` builds each entry's strip row by row, inside the lattice room
that the previous entry's row counts leave, so it never builds a strip that
breaks the lattice condition, and merges walks that reach the same state.
It does not list strips through `_strips`, whose memo the other walks share.
`lr_tableaux` (build every filling, keep the lattice ones), `signed_lr_sum`
(the alternating Kostka sum) and the peel behind `polyval.product_oracle`
(peeling actual polynomials, in l(mu) + l(nu) variables in the lr-oracle
suite) stay independent of it, as its checks.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple, Optional, Sequence

from ._memo import memo
from ._sparse import _field, accumulate
from .partitions import (
    Partition,
    _contains,
    _int,
    _ints,
    _strip_chains,
    _strips,
    _trim,
    normalize,
    pad,
)
from .raising import _forced_contents, _perm_sign, _permutation, perm_sign


class Tableau:
    """A filling of the skew shape outer/inner, stored as per-row entry tuples.

    rows[i] lists the entries of row i left to right, covering columns
    inner_i+1 .. outer_i (1-based).  Construction checks box counts only;
    use is_semistandard() for the row/column conditions.
    """

    __slots__ = ("outer", "inner", "rows")

    def __init__(
        self,
        outer: Sequence[int],
        inner: Sequence[int],
        rows: Sequence[Sequence[int]],
    ):
        object.__setattr__(self, "outer", normalize(outer))
        object.__setattr__(self, "inner", normalize(inner))
        if not _contains(self.inner, self.outer):
            raise ValueError(f"inner shape {self.inner} not contained in {self.outer}")
        object.__setattr__(self, "rows", tuple(_ints(row, "tableau entries") for row in rows))
        if len(self.rows) != len(self.outer):
            raise ValueError("row count does not match the outer shape")
        for i, row in enumerate(self.rows):
            want = self.outer[i] - (self.inner[i] if i < len(self.inner) else 0)
            if len(row) != want:
                raise ValueError(f"row {i} has {len(row)} entries, expected {want}")
            if any(e < 1 for e in row):
                raise ValueError("entries must be positive integers")

    @classmethod
    def _trusted(cls, outer: Partition, inner: Partition, rows: tuple) -> "Tableau":
        """A tableau over canonical shapes and rows that already fit them."""
        out = object.__new__(cls)
        for name, value in (("outer", outer), ("inner", inner), ("rows", rows)):
            object.__setattr__(out, name, value)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Tableau values are immutable")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which the guard leaves open
        return (Tableau, (self.outer, self.inner, self.rows))

    def cells(self):
        """Yield (row, column, entry) with 1-based column indices."""
        for i, row in enumerate(self.rows):
            offset = self.inner[i] if i < len(self.inner) else 0
            for k, e in enumerate(row):
                yield i, offset + k + 1, e

    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def max_entry(self) -> int:
        return max((max(row) for row in self.rows if row), default=0)

    def content(self, length: Optional[int] = None) -> tuple[int, ...]:
        """Occurrence counts of the entries 1, 2, ..., padded to `length`.

        Rejects a length that would drop entries; truncation here would let
        inconsistent pairs slip through downstream consistency checks.
        """
        m = self.max_entry()
        if length is None:
            length = m
        elif _int(length, "length") < m:
            raise ValueError(f"tableau holds entries up to {m}, cannot cut at {length}")
        counts = [0] * length
        for row in self.rows:
            for e in row:
                counts[e - 1] += 1
        return tuple(counts)

    def is_semistandard(self) -> bool:
        rows, inner = self.rows, self.inner
        if any(a > b for row in rows for a, b in zip(row, row[1:])):
            return False
        # A column of a skew shape meets consecutive rows, so comparing each
        # row with the one above, column by column, checks every column.
        # Row i starts `shift` columns left of row i - 1 (inner is a partition).
        for i in range(1, len(rows)):
            shift = (inner[i - 1] if i <= len(inner) else 0) - (inner[i] if i < len(inner) else 0)
            if any(a >= b for a, b in zip(rows[i - 1], rows[i][shift:])):
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "outer": list(self.outer),
            "inner": list(self.inner),
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Tableau":
        outer, inner = _field(data, "outer"), _field(data, "inner")
        return cls(tuple(outer), tuple(inner), _field(data, "rows"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tableau):
            return NotImplemented
        return (
            self.outer == other.outer
            and self.inner == other.inner
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner, self.rows))

    def __repr__(self) -> str:
        drawn = []
        for i, row in enumerate(self.rows):
            offset = self.inner[i] if i < len(self.inner) else 0
            drawn.append(" ".join(["."] * offset + [str(e) for e in row]))
        return "Tableau(" + " / ".join(drawn) + ")"


def _chain_to_tableau(
    outer: Partition, inner: Partition, chain: Sequence[Partition]
) -> Tableau:
    rows = []
    for i in range(len(outer)):
        row: list[int] = []
        for t in range(1, len(chain)):
            prev = chain[t - 1][i] if i < len(chain[t - 1]) else 0
            cur = chain[t][i] if i < len(chain[t]) else 0
            row.extend([t] * (cur - prev))
        rows.append(tuple(row))
    return Tableau._trusted(outer, inner, tuple(rows))


def enumerate_ssyt(
    outer: Sequence[int],
    inner: Sequence[int] = (),
    max_entry: int = 1,
    content: Optional[Sequence[int]] = None,
) -> list[Tableau]:
    """All semistandard fillings of outer/inner with entries <= max_entry,
    restricted to the given content when one is supplied.

    Enumerates chains of horizontal strips from inner up to outer, one step
    per entry value; the order of the output is deterministic.
    """
    outer, inner = normalize(outer), normalize(inner)
    if not _contains(inner, outer):
        raise ValueError(f"inner shape {inner} not contained in {outer}")
    if _int(max_entry, "max_entry") < 1:
        raise ValueError("max_entry must be at least 1")
    sizes: tuple[Optional[int], ...]
    if content is not None:
        content = _ints(content, "content")
        if any(c < 0 for c in content):
            return []
        content = _trim(content)
        if len(content) > max_entry:
            return []
        if sum(content) != sum(outer) - sum(inner):
            return []
        sizes = content + (0,) * (max_entry - len(content))
    else:
        sizes = (None,) * max_entry
    return [_chain_to_tableau(outer, inner, chain) for chain in _strip_chains(outer, inner, sizes)]


@memo
def _kostka_chains(outer: Partition, inner: Partition, content: tuple[int, ...]) -> int:
    if not content:
        return 1 if outer == inner else 0
    total = 0
    for shape in _strips(inner, outer, content[0]):
        total += _kostka_chains(outer, shape, content[1:])
    return total


def kostka(outer: Sequence[int], inner: Sequence[int], alpha: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape outer/inner with content alpha.

    Zero whenever alpha is not a composition of the right size, or the skew
    shape itself is empty of meaning (inner not contained in outer).
    """
    outer, inner = normalize(outer), normalize(inner)
    alpha = _ints(alpha, "content")
    if any(a < 0 for a in alpha):
        return 0
    if not _contains(inner, outer):
        return 0
    if sum(alpha) != sum(outer) - sum(inner):
        return 0
    # a 0 part adds no boxes
    return _kostka_chains(outer, inner, tuple(a for a in alpha if a))


def is_lr_tableau(tab: Tableau) -> bool:
    """True if every column-suffix content of the tableau is a partition."""
    return _max_bad_column(tab) is None


def _max_bad_column(tab: Tableau) -> Optional[int]:
    """Largest column r whose suffix content fails to be a partition."""
    return _column_pass(tab)[1] or None


def _column_pass(tab: Tableau) -> tuple[list[tuple[int, ...]], int, int, dict[int, int]]:
    """(columns, r, j, counts) of one pass from the right over the columns.

    The columns are the rows padded with zeros where the shape has no box;
    r is the largest column whose suffix content is not a partition and j
    the least e - 1 of a pair (e - 1, e) it breaks (r = j = 0 if none).
    While the suffix contents so far are partitions, adding column r can
    only break the pairs (e - 1, e) of its entries e.  The pass goes on to
    the first column, so counts ends as the content of the filling (with
    the zeros of the padding under 0)."""
    padded = [(0,) * offset + row for offset, row in zip(pad(tab.inner, len(tab.rows)), tab.rows)]
    columns = list(zip_longest(*padded, fillvalue=0))
    counts: dict[int, int] = {}
    get = counts.get
    r = j = 0
    for col in range(len(columns), 0, -1):
        column = columns[col - 1]
        for e in column:
            counts[e] = get(e, 0) + 1
        if not r and (broken := [e for e in column if e > 1 and get(e - 1, 0) < counts[e]]):
            r, j = col, min(broken) - 1
    return columns, r, j, counts


def lr_tableaux(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]
) -> list[Tableau]:
    """The Littlewood-Richardson fillings of lam/mu with content nu."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if not _contains(mu, lam) or sum(mu) + sum(nu) != sum(lam):
        return []
    cands = (_chain_to_tableau(lam, mu, chain) for chain in _strip_chains(lam, mu, nu))
    return [t for t in cands if is_lr_tableau(t)]


def _lr_fillings(mu: Partition, nu: Partition, bound: Partition) -> dict[Partition, int]:
    """Count the LR fillings of every lam/mu inside bound with content nu:
    {lam: c^lam_{mu nu}} over the lam that have one.

    A state is a shape and the per-row counts of the last entry placed.
    Entry i is placed as a horizontal nu_i-strip over the shape, built row
    by row: row r takes c_r boxes, at most what a horizontal strip can add
    to row r inside bound, at most what is left of nu_i and, after entry 1,
    at most the lattice room (the reverse reading word is a lattice word):
    the i's in rows <= r are at most the (i - 1)'s in rows < r, so entry i
    starts in the row below the first row holding an i - 1.  A strip is
    done when nu_i is used up, so no strip that breaks the lattice condition
    is ever built.  Walks that reach the same state are merged with their
    multiplicities.  Trusted: canonical partitions, mu inside bound.
    """
    states: dict = {(mu, None): 1}
    for size in nu:
        nxt: dict = {}
        get = nxt.get
        for (base, prev), ways in states.items():
            rows = min(len(bound), len(base) + 1)
            # (row, boxes left, lattice room in the row, shape rows, counts
            # so far); pushing c low..high pops larger shapes first, the
            # canonical order of a fixed-size strip walk
            if prev is None:  # entry 1, free of the lattice condition
                stack = [(0, size, size, (), ())]
            else:
                # the rows down to the first (i - 1) have no lattice room
                top = next(r for r, c in enumerate(prev) if c) + 1
                stack = [(top, size, prev[top - 1], base[:top], (0,) * top)]
            gains = prev or ()
            while stack:
                row, left, room, shape, counts = stack.pop()
                if not left:
                    key = (shape + base[row:], counts)
                    nxt[key] = get(key, 0) + ways
                elif row < rows:
                    low = base[row] if row < len(base) else 0
                    high = min(bound[row], base[row - 1]) if row else bound[0]
                    after = room + (gains[row] if row < len(gains) else 0)
                    for c in range(min(high - low, left, room) + 1):
                        stack.append(
                            (row + 1, left - c, after - c, shape + (low + c,), counts + (c,))
                        )
        states = nxt
    return accumulate((shape, ways) for (shape, _), ways in states.items())


@memo
def _lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    # c^lam_{mu nu} = c^lam_{nu mu}, so both factors must fit inside lam
    if not (_contains(mu, lam) and _contains(nu, lam)) or sum(mu) + sum(nu) != sum(lam):
        return 0
    return _lr_fillings(mu, nu, lam).get(lam, 0)


def lr_coefficient(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Structure constant of the Schur product: the LR tableau count."""
    return _lr_coefficient(normalize(lam), normalize(mu), normalize(nu))


class SignedPair(NamedTuple):
    """A permutation (one-line form over 0..l-1) paired with a tableau."""

    w: tuple[int, ...]
    tableau: Tableau

    @property
    def sign(self) -> int:
        return perm_sign(self.w)


def signed_lr_pairs(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]
) -> list[SignedPair]:
    """All pairs (w, T): w permutes the staircase-shifted content of nu and T
    is a semistandard filling of lam/mu realizing that content."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if not _contains(mu, lam):
        raise ValueError(f"inner shape {mu} not contained in {lam}")
    return [
        SignedPair(perm, _chain_to_tableau(lam, mu, chain))
        for perm, forced in _forced_contents(nu)
        for chain in _strip_chains(lam, mu, forced)
    ]


def signed_lr_sum(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """The alternating sum of tableau counts over permuted contents.

    No cancellation shortcut: every permutation with a nonnegative forced
    content contributes its full signed count.  Each forced content has |nu|
    boxes, so the shape is checked once, not once per permutation.
    """
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if not _contains(mu, lam) or sum(mu) + sum(nu) != sum(lam):
        return 0
    return sum(sign * _kostka_chains(lam, mu, forced) for sign, forced in _signed_contents(nu))


@memo
def _signed_contents(nu: Partition) -> tuple[tuple[int, tuple[int, ...]], ...]:
    # (sign(w), forced content without trailing zeros) for each w of
    # _forced_contents(nu): what signed_lr_sum reads for every lam and mu
    return tuple((_perm_sign(perm), _trim(forced)) for perm, forced in _forced_contents(nu))


def bz_involution(pair: SignedPair, nu: Sequence[int]) -> SignedPair:
    """The sign-reversing involution on bad pairs.

    Takes r maximal with a non-partition column-suffix content and j minimal
    with c_j < c_{j+1} there; these tie-breaks are load-bearing and must not
    be altered.  Entries j (resp. j+1) are free when their column holds no
    j+1 (resp. j); all free entries strictly left of column r flip between j
    and j+1, rows are re-sorted, and the transposition (j, j+1) is composed
    onto w.

    The pair must be consistent (w is a permutation of 0..l-1 and the
    content of the filling is its forced content) and bad.  One pass from
    the right over the columns, the one `_max_bad_column` reads
    (`_column_pass`), finds r and j and ends with the content of the
    filling.
    The flipped filling keeps the shape and every row length, so it is
    built without the constructor's checks, then revalidated with
    is_semistandard.
    """
    w, tab = pair
    w = _permutation(w)
    nu = normalize(nu)
    base = pad(nu, len(w))
    # the forced content base[w_i] + rho[w_i] - rho[i], rho the staircase
    # (rho[k] = len(w) - 1 - k)
    expected = _trim(tuple([base[v] - v + i for i, v in enumerate(w)]))
    columns, r, j, counts = _column_pass(tab)
    # an entry above len(w) makes the content longer than the forced one
    content = tuple([counts.get(e, 0) for e in range(1, max(counts, default=0) + 1)])
    if content != expected:
        raise ValueError("pair is inconsistent: content does not match w")
    if not r:
        raise ValueError("pair is not bad: involution undefined")
    new_rows = []
    for offset, row in zip(pad(tab.inner, len(tab.rows)), tab.rows):
        # flip the free entries left of column r; a row without j or j + 1
        # stays as it is
        if j not in row and j + 1 not in row:
            new_rows.append(row)
            continue
        vals = list(row)
        for k in range(min(len(vals), r - offset - 1)):
            column = columns[offset + k]
            if vals[k] == j and j + 1 not in column:
                vals[k] = j + 1
            elif vals[k] == j + 1 and j not in column:
                vals[k] = j
        new_rows.append(tuple(sorted(vals)))
    flipped = Tableau._trusted(tab.outer, tab.inner, tuple(new_rows))
    if not flipped.is_semistandard():
        raise RuntimeError(
            f"involution produced a non-semistandard filling from {tab!r}"
        )
    w_new = list(w)
    w_new[j - 1], w_new[j] = w_new[j], w_new[j - 1]
    return SignedPair(tuple(w_new), flipped)


def is_bad_pair(pair: SignedPair) -> bool:
    """True if some column-suffix content of the tableau is not a partition."""
    return _max_bad_column(pair.tableau) is not None
