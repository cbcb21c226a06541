"""Semistandard tableaux on skew shapes, Kostka numbers, and the
Littlewood-Richardson rule with its sign-reversing involution.

Tableaux are enumerated as chains of horizontal strips: a filling with
entries at most m is the same thing as a chain of m nested shapes where the
i-th step adds the boxes holding entry i.

LR coefficients are counted on the same chains without building tableaux:
`_lr_fillings` keeps only the strips whose row counts satisfy the lattice
condition and merges walks that reach the same state.  `lr_tableaux` (build
every filling, keep the lattice ones), `signed_lr_sum` (the alternating
Kostka sum) and the peel behind `polyval.product_oracle` (peeling actual
polynomials, in l(mu) + l(nu) variables in the lr-oracle suite) stay
independent of it, as its checks.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ._memo import memo
from ._sparse import accumulate
from .partitions import (
    Partition,
    _contains,
    _int,
    _ints,
    _strip_chains,
    _strips,
    _trim,
    contains,
    normalize,
    pad,
)
from .raising import _forced_contents, _staircase, perm_sign


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
        if not contains(self.inner, self.outer):
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
        return max((e for row in self.rows for e in row), default=0)

    def content(self, length: Optional[int] = None) -> tuple[int, ...]:
        """Occurrence counts of the entries 1, 2, ..., padded to `length`.

        Rejects a length that would drop entries; truncation here would let
        inconsistent pairs slip through downstream consistency checks.
        """
        m = self.max_entry()
        if length is None:
            length = m
        elif length < m:
            raise ValueError(f"tableau holds entries up to {m}, cannot cut at {length}")
        counts = [0] * length
        for row in self.rows:
            for e in row:
                counts[e - 1] += 1
        return tuple(counts)

    def content_from_column(self, col: int) -> tuple[int, ...]:
        """Content of the subtableau occupying columns >= col."""
        m = self.max_entry()
        counts = [0] * m
        for _, c, e in self.cells():
            if c >= col:
                counts[e - 1] += 1
        return tuple(counts)

    def is_semistandard(self) -> bool:
        for row in self.rows:
            if any(row[k] > row[k + 1] for k in range(len(row) - 1)):
                return False
        columns: dict[int, list[tuple[int, int]]] = {}
        for i, c, e in self.cells():
            columns.setdefault(c, []).append((i, e))
        for cells in columns.values():
            cells.sort()
            if any(cells[k][1] >= cells[k + 1][1] for k in range(len(cells) - 1)):
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
        return cls(tuple(data["outer"]), tuple(data["inner"]), data["rows"])

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
    if not contains(inner, outer):
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
    if not contains(inner, outer):
        return 0
    if sum(alpha) != sum(outer) - sum(inner):
        return 0
    return _kostka_chains(outer, inner, _trim(alpha))


def is_lr_tableau(tab: Tableau) -> bool:
    """True if every column-suffix content of the tableau is a partition."""
    return _max_bad_column(tab) is None


def _is_weakly_decreasing(counts: Sequence[int]) -> bool:
    return all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))


def _max_bad_column(tab: Tableau) -> Optional[int]:
    """Largest column r whose suffix content fails to be a partition."""
    width = tab.outer[0] if tab.outer else 0
    for r in range(width, 0, -1):
        if not _is_weakly_decreasing(tab.content_from_column(r)):
            return r
    return None


def lr_tableaux(
    lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]
) -> list[Tableau]:
    """The Littlewood-Richardson fillings of lam/mu with content nu."""
    lam, mu, nu = normalize(lam), normalize(mu), normalize(nu)
    if not contains(mu, lam) or sum(mu) + sum(nu) != sum(lam):
        return []
    cands = (_chain_to_tableau(lam, mu, chain) for chain in _strip_chains(lam, mu, nu))
    return [t for t in cands if is_lr_tableau(t)]


def _lr_fillings(mu: Partition, nu: Partition, bound: Partition) -> dict[Partition, int]:
    """Count the LR fillings of every lam/mu inside bound with content nu:
    {lam: c^lam_{mu nu}} over the lam that have one.

    Entry i is placed as a horizontal nu_i-strip, and a strip is kept only
    if it meets the lattice condition against the per-row counts of entry
    i - 1.  Walks sharing a shape and the last entry's row counts are
    merged with their multiplicities.  Trusted: canonical partitions, mu
    inside bound.
    """
    states = {(mu, None): 1}
    for size in nu:
        states = accumulate(
            ((shape, counts), ways)
            for (base, prev), ways in states.items()
            for shape in _strips(base, bound, size)
            if (counts := _lattice_counts(base, shape, prev)) is not None
        )
    return accumulate((shape, ways) for (shape, _), ways in states.items())


def _lattice_counts(
    base: Partition, shape: Partition, prev: Optional[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """Per-row box counts of the strip shape/base, or None when, as entry i
    after the entry-(i - 1) counts prev, it breaks the lattice condition: in
    every row r, the i's in rows <= r are at most the (i - 1)'s in rows < r
    (the reverse reading word is a lattice word).  prev None: entry 1."""
    counts = tuple(v - base[r] if r < len(base) else v for r, v in enumerate(shape))
    if prev is not None:
        room = 0
        for r, c in enumerate(counts):
            room -= c
            if room < 0:
                return None
            if r < len(prev):
                room += prev[r]
    return counts


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
    if not contains(mu, lam):
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
    if not contains(mu, lam) or sum(mu) + sum(nu) != sum(lam):
        return 0
    total = 0
    for perm, forced in _forced_contents(nu):
        count = _kostka_chains(lam, mu, _trim(forced))
        if count:
            total += perm_sign(perm) * count
    return total


def bz_involution(pair: SignedPair, nu: Sequence[int]) -> SignedPair:
    """The sign-reversing involution on bad pairs.

    Takes r maximal with a non-partition column-suffix content and j minimal
    with c_j < c_{j+1} there; these tie-breaks are load-bearing and must not
    be altered.  Entries j (resp. j+1) are free when their column holds no
    j+1 (resp. j); all free entries strictly left of column r flip between j
    and j+1, rows are re-sorted, and the transposition (j, j+1) is composed
    onto w.  The output filling is revalidated rather than trusted.
    """
    w, tab = pair
    nu = normalize(nu)
    ell = len(w)
    rho = _staircase(ell)
    base = pad(nu, ell)
    expected = tuple(base[w[i]] + rho[w[i]] - rho[i] for i in range(ell))
    if tab.content(ell) != expected:
        raise ValueError("pair is inconsistent: content does not match w")
    r = _max_bad_column(tab)
    if r is None:
        raise ValueError("pair is not bad: involution undefined")
    counts = tab.content_from_column(r)
    j = next(
        i + 1 for i in range(len(counts) - 1) if counts[i] < counts[i + 1]
    )
    column_entries: dict[int, set[int]] = {}
    for _, c, e in tab.cells():
        column_entries.setdefault(c, set()).add(e)
    new_rows = []
    for i, row in enumerate(tab.rows):
        offset = tab.inner[i] if i < len(tab.inner) else 0
        vals = list(row)
        for k, e in enumerate(vals):
            col = offset + k + 1
            if col >= r:
                continue
            if e == j and (j + 1) not in column_entries[col]:
                vals[k] = j + 1
            elif e == j + 1 and j not in column_entries[col]:
                vals[k] = j
        new_rows.append(tuple(sorted(vals)))
    flipped = Tableau(tab.outer, tab.inner, new_rows)
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
