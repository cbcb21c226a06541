import copy
import itertools
import json
import pickle

import pytest

import schurkit
from schurkit import tableaux, verification
from schurkit._sparse import accumulate
from schurkit.partitions import _strips, partitions_of, subpartitions
from schurkit.ring import SymFunc, multiply
from schurkit.tableaux import (
    SignedPair,
    Tableau,
    _max_bad_column,
    bz_involution,
    enumerate_ssyt,
    is_bad_pair,
    is_lr_tableau,
    kostka,
    lr_coefficient,
    lr_tableaux,
    signed_lr_pairs,
    signed_lr_sum,
)


def all_skew_triples(max_size):
    for k in range(max_size + 1):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                for nu in partitions_of(k - sum(mu)):
                    yield lam, mu, nu


def test_tableau_construction_and_content():
    t = Tableau((2, 2), (1,), [(1,), (1, 2)])
    assert t.size() == 3
    assert t.content() == (2, 1)
    assert t.content(4) == (2, 1, 0, 0)
    assert t.is_semistandard()
    assert list(t.cells()) == [(0, 2, 1), (1, 1, 1), (1, 2, 2)]


def test_tableau_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Tableau((2,), (1,), [(1, 1)])  # too many entries for the skew row
    with pytest.raises(ValueError):
        Tableau((1,), (2,), [()])  # inner not contained
    with pytest.raises(ValueError):
        Tableau((1, 1), (), [(1,)])  # missing row


def test_tableau_semistandard_detection():
    assert not Tableau((2,), (), [(2, 1)]).is_semistandard()
    assert not Tableau((1, 1), (), [(1,), (1,)]).is_semistandard()
    assert Tableau((2, 1), (), [(1, 1), (2,)]).is_semistandard()


def test_tableau_json_round_trip():
    t = Tableau((3, 2), (1,), [(1, 1), (2, 2)])
    data = json.loads(json.dumps(t.to_json_dict()))
    assert Tableau.from_json_dict(data) == t
    assert data == {"outer": [3, 2], "inner": [1], "rows": [[1, 1], [2, 2]]}


def test_tableau_is_immutable():
    t = Tableau((2, 1), (), [(1, 1), (2,)])
    before = hash(t)
    for name, value in (("rows", ((1, 2), (2,))), ("outer", (3,)), ("inner", (1,))):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
    assert t.rows == ((1, 1), (2,)) and hash(t) == before
    assert copy.deepcopy(t) == t and pickle.loads(pickle.dumps(t)) == t
    # entries, shapes and contents are exact integers, never truncated
    for bad in (1.7, 1.0, True):
        with pytest.raises(TypeError):
            Tableau((1,), (), [(bad,)])
        with pytest.raises(TypeError):
            Tableau((bad,), (), [(1,)])
        with pytest.raises(TypeError):
            kostka((2, 1), (), (bad, 2))
        with pytest.raises(TypeError):
            enumerate_ssyt((2, 1), (), 2, content=(2, bad))


def test_chain_walk_validates_only_at_the_boundary(monkeypatch):
    # the walkers trust the shapes they build; re-validating per strip or
    # per tableau would cost thousands of normalize calls here
    from schurkit import partitions, tableaux

    calls = []
    real = partitions.normalize

    def counting(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(partitions, "normalize", counting)
    monkeypatch.setattr(tableaux, "normalize", counting)
    schurkit.clear_caches()
    assert len(enumerate_ssyt((4, 3, 2, 1), (), 4)) == 64
    assert len(calls) <= 4
    calls.clear()
    assert kostka((5, 3, 1), (), (3, 3, 2, 1)) == 7
    assert len(calls) <= 4


def test_enumerate_ssyt_examples():
    assert len(enumerate_ssyt((2,), (), 2)) == 3
    assert len(enumerate_ssyt((2, 1), (), 3, content=(1, 1, 1))) == 2
    assert len(enumerate_ssyt((2, 2), (1,), 2, content=(2, 1))) == 1
    assert enumerate_ssyt((2, 2), (1,), 2, content=(2, 1))[0].rows == ((1,), (1, 2))


def test_enumerate_ssyt_all_valid_and_deterministic():
    for lam, mu, _ in all_skew_triples(5):
        tabs = enumerate_ssyt(lam, mu, 3)
        assert tabs == enumerate_ssyt(lam, mu, 3)
        assert len(set(tabs)) == len(tabs)
        for t in tabs:
            assert t.is_semistandard()
            assert t.max_entry() <= 3


def test_kostka_examples():
    assert kostka((2, 1), (), (1, 1, 1)) == 2
    assert kostka((3, 2), (), (3, 2)) == 1
    assert kostka((2, 2), (1,), (2, 1)) == 1
    assert kostka((1, 1), (), (2,)) == 0
    assert kostka((2, 1), (), (1, 1)) == 0  # size mismatch
    assert kostka((2, 1), (), (-1, 4)) == 0
    assert kostka((1,), (2,), (1,)) == 0  # inner not contained
    # a 0 part adds no boxes, so 500 of them are no deeper a walk
    assert kostka((1,), (), (0,) * 500 + (1,)) == 1
    assert kostka((2, 1), (), (0, 1, 0, 2)) == kostka((2, 1), (), (1, 2)) == 1


def test_kostka_counts_enumeration():
    for lam, mu, nu in all_skew_triples(6):
        assert kostka(lam, mu, nu) == len(
            enumerate_ssyt(lam, mu, max(len(nu), 1), content=nu)
        )


def test_kostka_invariant_under_content_permutation():
    for k in range(7):
        for lam in partitions_of(k):
            for mu in partitions_of(k):
                base = kostka(lam, (), mu)
                for alpha in set(itertools.permutations(mu)):
                    assert kostka(lam, (), alpha) == base


def test_superstandard_content_is_unique():
    for k in range(7):
        for lam in partitions_of(k):
            assert kostka(lam, (), lam) == 1


def test_is_lr_tableau_examples():
    assert is_lr_tableau(Tableau((1,), (), [(1,)]))
    assert not is_lr_tableau(Tableau((2,), (), [(1, 2)]))
    assert is_lr_tableau(Tableau((2, 2), (1,), [(1,), (1, 2)]))


def test_lr_coefficient_examples():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    for lam in partitions_of(4):
        for nu in partitions_of(4):
            assert lr_coefficient(lam, (), nu) == (1 if lam == nu else 0)


def test_lr_coefficient_degenerate_cases():
    assert lr_coefficient((2,), (1, 1), (1,)) == 0  # inner not contained
    assert lr_coefficient((2,), (1,), (2,)) == 0  # size mismatch


def test_lr_coefficient_walks_only_contents_inside_lam(monkeypatch):
    from schurkit import tableaux
    from schurkit.verification import run_suite

    walks = []
    lr_fillings = tableaux._lr_fillings

    def counting_fillings(*args):
        walks.append(args)
        return lr_fillings(*args)

    monkeypatch.setattr(tableaux, "_lr_fillings", counting_fillings)
    schurkit.clear_caches()
    result = run_suite("lr-signed", 7)
    # 913 of the 1,723 contents nu the suite asks about do not fit inside
    # lam, where c^lam_{mu nu} = 0 without a walk
    assert result.failures == [] and len(walks) == 810
    assert all(schurkit.contains(nu, lam) for _, nu, lam in walks)
    schurkit.clear_caches()


# The LR walk as it was before it built its strips row by row: list every
# horizontal strip with _strips, then drop those that break the lattice
# condition.  Kept here as the slow reference of _lr_fillings.


def _lr_fillings_by_filter(mu, nu, bound):
    states = {(mu, None): 1}
    for size in nu:
        states = accumulate(
            ((shape, counts), ways)
            for (base, prev), ways in states.items()
            for shape in _strips(base, bound, size)
            if (counts := _lattice_counts(base, shape, prev)) is not None
        )
    return accumulate((shape, ways) for (shape, _), ways in states.items())


def _lattice_counts(base, shape, prev):
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


def test_lr_walk_matches_the_strip_filter():
    pairs = 0
    for k in range(11):
        for size in range(k + 1):
            for mu in partitions_of(size):
                for nu in partitions_of(k - size):
                    # multiply's box, then each lam of the result as the bound
                    width = (mu[0] if mu else 0) + (nu[0] if nu else 0)
                    box = (width,) * (len(mu) + len(nu))
                    want = _lr_fillings_by_filter(mu, nu, box)
                    assert tableaux._lr_fillings(mu, nu, box) == want, (mu, nu)
                    for lam in want:
                        assert tableaux._lr_fillings(mu, nu, lam) == (
                            _lr_fillings_by_filter(mu, nu, lam)
                        ), (mu, nu, lam)
                    pairs += 1
    assert pairs == 1215


def test_products_list_no_strips(monkeypatch):
    calls = []
    strips = tableaux._strips

    def counting_strips(*args):
        calls.append(args)
        return strips(*args)

    monkeypatch.setattr(tableaux, "_strips", counting_strips)
    schurkit.clear_caches()
    s = SymFunc.element
    product = multiply(s("s", (3, 2, 1)), s("s", (2, 2, 1, 1)))
    assert product._terms[(4, 3, 2, 2, 1)] == 3 and calls == []


def test_lr_symmetry_and_conjugation():
    from schurkit.partitions import conjugate

    for lam, mu, nu in all_skew_triples(8):
        c = lr_coefficient(lam, mu, nu)
        assert c == len(lr_tableaux(lam, mu, nu))
        assert c == lr_coefficient(lam, nu, mu)
        assert c == lr_coefficient(conjugate(lam), conjugate(mu), conjugate(nu))


def test_signed_lr_sum_examples():
    assert signed_lr_sum((2,), (), (1, 1)) == 0
    assert signed_lr_sum((2, 1), (1,), (1, 1)) == 1
    for lam in partitions_of(5):
        assert signed_lr_sum(lam, (), lam) == 1


def test_signed_pairs_match_signed_sum():
    for lam, mu, nu in all_skew_triples(5):
        pairs = signed_lr_pairs(lam, mu, nu)
        assert signed_lr_sum(lam, mu, nu) == sum(p.sign for p in pairs)


def test_bz_involution_single_box_flip():
    pairs = signed_lr_pairs((2,), (), (1, 1))
    bad = [p for p in pairs if is_bad_pair(p)]
    assert len(bad) == 2
    start = next(p for p in bad if p.w == (0, 1))
    image = bz_involution(start, (1, 1))
    assert image.w == (1, 0)
    assert image.tableau.rows == ((2, 2),)


def test_bz_involution_rejects_good_pairs():
    good = SignedPair((0,), Tableau((1,), (), [(1,)]))
    with pytest.raises(ValueError):
        bz_involution(good, (1,))


def test_bz_involution_rejects_inconsistent_pairs():
    mismatched = SignedPair((0, 1), Tableau((2,), (), [(1, 1)]))
    with pytest.raises(ValueError):
        bz_involution(mismatched, (1, 1))
    # a bad filling whose content (1, 2) has the length of the forced (2, 1)
    swapped = SignedPair((0, 1), Tableau((3,), (), [(1, 2, 2)]))
    with pytest.raises(ValueError, match="pair is inconsistent: content does not match w"):
        bz_involution(swapped, (2, 1))


def test_bz_involution_rejects_a_w_that_is_not_a_permutation():
    # consistent and bad but for w: the content (0, 1) is what w = (1, 1)
    # would force, and swapping its equal entries would map the pair to itself
    repeated = SignedPair((1, 1), Tableau((1,), (), [(2,)]))
    with pytest.raises(ValueError, match=r"not a permutation of 0\.\.1: \(1, 1\)"):
        bz_involution(repeated, (1, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        bz_involution(SignedPair((0, 2), Tableau((1,), (), [(2,)])), (1, 1))
    with pytest.raises(TypeError, match="permutation must be int"):
        bz_involution(SignedPair((0.0, 1), Tableau((2,), (), [(2, 2)])), (1, 1))


def test_bz_involution_properties():
    # sign-reversing, fixed-point-free involution staying inside the bad set
    seen = 0
    for lam, mu, nu in all_skew_triples(6):
        for pair in signed_lr_pairs(lam, mu, nu):
            if not is_bad_pair(pair):
                continue
            seen += 1
            image = bz_involution(pair, nu)
            assert is_bad_pair(image)
            assert image.sign == -pair.sign
            assert image != pair
            assert bz_involution(image, nu) == pair
            # built without the constructor's checks, it passes them
            t = image.tableau
            assert Tableau(t.outer, t.inner, t.rows) == t
    assert seen > 400


def test_cancellation_theorem_small():
    for lam, mu, nu in all_skew_triples(6):
        assert lr_coefficient(lam, mu, nu) == signed_lr_sum(lam, mu, nu)


def test_lr_witnesses_are_lr():
    for t in lr_tableaux((4, 3, 1), (2, 1), (3, 2)):
        assert t.is_semistandard()
        assert is_lr_tableau(t)
        assert t.content(2) == (3, 2)


def hook_content_count(lam, n):
    """Closed-form count of semistandard fillings with entries <= n:
    the product over boxes of (n + j - i) / hook(i, j), computed exactly."""
    from math import prod

    from schurkit.partitions import conjugate

    lam = tuple(lam)
    conj = conjugate(lam)
    numer = prod(n + j - i for i in range(len(lam)) for j in range(lam[i]))
    denom = prod(
        (lam[i] - j) + (conj[j] - i) - 1
        for i in range(len(lam))
        for j in range(lam[i])
    )
    quotient, remainder = divmod(numer, denom)
    assert remainder == 0
    return quotient


def test_ssyt_counts_match_hook_content_formula():
    for k in range(7):
        for lam in partitions_of(k):
            for n in range(1, 6):
                assert len(enumerate_ssyt(lam, (), n)) == hook_content_count(lam, n)


# References for the row-based tableau reads: each reads cells() and
# compares every pair of boxes it relates, not only neighbours.


def _max_entry_by_cells(t):
    return max((e for _, _, e in t.cells()), default=0)


def _content_from_column_by_cells(t, col):
    counts = [0] * _max_entry_by_cells(t)
    for _, c, e in t.cells():
        if c >= col:
            counts[e - 1] += 1
    return tuple(counts)


def _is_semistandard_by_cells(t):
    cells = list(t.cells())
    return all(
        (e <= f if c < d else e < f)
        for i, c, e in cells
        for j, d, f in cells
        if (i == j and c < d) or (c == d and i < j)
    )


def _max_bad_column_by_cells(t):
    width = t.outer[0] if t.outer else 0
    for r in range(width, 0, -1):
        counts = _content_from_column_by_cells(t, r)
        if any(a < b for a, b in zip(counts, counts[1:])):
            return r
    return None


def _tableaux_to_read():
    # every semistandard filling up to size 6 with entries at most 4, and
    # every filling with entries 1..3 of the shapes up to size 4
    for k in range(7):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                yield from enumerate_ssyt(lam, mu, max_entry=4)
                lengths = [p - (mu[i] if i < len(mu) else 0) for i, p in enumerate(lam)]
                if k - sum(mu) <= 4:
                    for entries in itertools.product((1, 2, 3), repeat=sum(lengths)):
                        rows, at = [], 0
                        for n in lengths:
                            rows.append(entries[at : at + n])
                            at += n
                        yield Tableau(lam, mu, rows)


def test_row_reads_match_the_cell_references():
    semistandard = not_semistandard = 0
    for t in _tableaux_to_read():
        assert t.max_entry() == _max_entry_by_cells(t)
        assert t.is_semistandard() == _is_semistandard_by_cells(t), t
        assert _max_bad_column(t) == _max_bad_column_by_cells(t), t
        semistandard += t.is_semistandard()
        not_semistandard += not t.is_semistandard()
    assert semistandard > 5000 and not_semistandard > 3000


# The per-column route: each column's suffix content rebuilt from cells(),
# and each column read from cells().


def _bz_involution_by_columns(pair):
    w, tab = pair
    r = _max_bad_column_by_cells(tab)
    counts = _content_from_column_by_cells(tab, r)
    j = next(i + 1 for i in range(len(counts) - 1) if counts[i] < counts[i + 1])
    rows = []
    for i, row in enumerate(tab.rows):
        offset = tab.inner[i] if i < len(tab.inner) else 0
        vals = list(row)
        for k in range(min(len(vals), r - offset - 1)):
            column = [e for _, c, e in tab.cells() if c == offset + k + 1]
            if vals[k] == j and j + 1 not in column:
                vals[k] = j + 1
            elif vals[k] == j + 1 and j not in column:
                vals[k] = j
        rows.append(sorted(vals))
    w = list(w)
    w[j - 1], w[j] = w[j], w[j - 1]
    return SignedPair(tuple(w), Tableau(tab.outer, tab.inner, rows))


def test_column_passes_match_the_per_column_route():
    bad = 0
    for lam, mu, nu in verification._lr_triples(6):
        for pair in signed_lr_pairs(lam, mu, nu):
            r = _max_bad_column(pair.tableau)
            assert r == _max_bad_column_by_cells(pair.tableau), pair
            if r is not None:
                bad += 1
                assert bz_involution(pair, nu) == _bz_involution_by_columns(pair), pair
    assert bad > 1000


@pytest.fixture
def fresh_memos():
    # a mutation must not be read from, or left in, a memo
    schurkit.clear_caches()
    yield
    schurkit.clear_caches()


def test_lr_signed_fails_with_a_flipped_sign_in_the_content_memo(monkeypatch, fresh_memos):
    # the content memo reads the trusted sign; SignedPair.sign, which the
    # involution checks read, goes through the public perm_sign
    sign = tableaux._perm_sign
    monkeypatch.setattr(tableaux, "_perm_sign", lambda perm: -sign(perm))
    result = verification.run_suite("lr-signed", 4)
    # every triple with a nonzero coefficient, and no involution fault
    nonzero = sum(1 for triple in all_skew_triples(4) if lr_coefficient(*triple))
    assert len(result.failures) == nonzero == 57
    assert all(f.startswith("signed sum mismatch: ") for f in result.failures)


def test_lr_signed_fails_without_the_row_sort_in_the_involution(monkeypatch):
    monkeypatch.setattr(tableaux, "sorted", tuple, raising=False)
    with pytest.raises(RuntimeError, match="involution produced a non-semistandard filling"):
        verification.run_suite("lr-signed", 4)
