import itertools
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import schurkit
from schurkit.partitions import dominates, pad, partitions_of, subpartitions
from schurkit.raising import (
    _forced_contents,
    _straighten,
    SignedPartition,
    adjacent_swap_identity_check,
    apply_raising,
    jacobi_trudi_expand,
    perm_sign,
    staircase,
    straighten,
)
from schurkit.ring import SymFunc, convert
from schurkit.tableaux import SignedPair, Tableau

int_vectors = st.lists(st.integers(min_value=-3, max_value=6), min_size=0, max_size=5).map(tuple)


def test_staircase():
    assert staircase(0) == ()
    assert staircase(1) == (0,)
    assert staircase(4) == (3, 2, 1, 0)


def test_perm_sign():
    assert perm_sign(()) == 1
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


def test_perm_sign_matches_inversion_count():
    # the cycle parity against the other side, the parity of the inversions
    for n in range(8):
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
            assert perm_sign(perm) == (-1) ** inversions, perm


def test_perm_sign_rejects_what_is_not_a_permutation():
    # a repeat, an entry out of range, a gap; SignedPair.sign reads the same
    for perm in [(0, 0), (1, 1), (5,), (1, 2), (-1, 0), (0, 2, 1, 4)]:
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\."):
            perm_sign(perm)
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\."):
            SignedPair(perm, Tableau((1,), (), [(1,)])).sign
    with pytest.raises(TypeError, match="permutation must be int"):
        perm_sign((0.0, 1))
    with pytest.raises(TypeError, match="permutation must be int"):
        perm_sign((True, 0))


def test_apply_raising_examples():
    assert apply_raising((1, 1), 1, 2) == (2, 0)
    assert apply_raising((3, 2, 1), 1, 3) == (4, 2, 0)
    assert apply_raising((0, 2), 1, 2) == (1, 1)


def test_apply_raising_rejects_bad_indices():
    with pytest.raises(IndexError):
        apply_raising((1, 1), 2, 1)
    with pytest.raises(IndexError):
        apply_raising((1, 1), 1, 3)
    with pytest.raises(IndexError):
        apply_raising((1, 1), 0, 1)


@pytest.mark.parametrize("bad", [2.0, True])
def test_index_vectors_must_be_int(bad):
    # cold, then with the int expansions memoised (s -> h reads them)
    schurkit.clear_caches()
    for _ in range(2):
        with pytest.raises(TypeError):
            jacobi_trudi_expand((bad, 1))
        with pytest.raises(TypeError):
            jacobi_trudi_expand((3, 2), (bad,))
        with pytest.raises(TypeError):
            apply_raising((bad, 2), 1, 2)
        jacobi_trudi_expand((int(bad), 1))
        jacobi_trudi_expand((3, 2), (int(bad),))
        apply_raising((int(bad), 2), 1, 2)
        convert(SymFunc.element("s", (int(bad), 1)), "h")


@given(int_vectors, st.data())
def test_apply_raising_moves_up_in_dominance(alpha, data):
    if len(alpha) < 2:
        return
    i = data.draw(st.integers(min_value=1, max_value=len(alpha) - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(alpha)))
    assert dominates(apply_raising(alpha, i, j), alpha)


def test_straighten_examples():
    assert straighten((2, 1)) == SignedPartition(1, (2, 1))
    assert straighten((1, 3)) == SignedPartition(-1, (2, 2))
    assert straighten((1, 2)) == SignedPartition(0, None)
    assert straighten((0, 2)) == SignedPartition(-1, (1, 1))
    assert straighten(()) == SignedPartition(1, ())
    assert straighten((2, -1)).sign == 0


@pytest.mark.parametrize("alpha", [(1.0, 2), (True, 0), (1.5, 2)])
def test_straighten_checks_its_input(alpha):
    # as apply_raising and jacobi_trudi_expand do; a float or bool entry
    # is not an index, whatever partition it would straighten to
    for fn in (straighten, jacobi_trudi_expand, lambda a: apply_raising(a, 1, 2)):
        with pytest.raises(TypeError, match="index vector must be int"):
            fn(alpha)


def test_straighten_ignores_trailing_zeros():
    assert straighten((2, 1, 0, 0)) == straighten((2, 1))
    assert straighten((1, 3, 0)) == straighten((1, 3))


def test_straighten_fixes_partitions():
    for k in range(9):
        for lam in partitions_of(k):
            assert straighten(lam) == SignedPartition(1, lam)


@given(int_vectors)
def test_straighten_result_is_canonical(alpha):
    sp = straighten(alpha)
    if sp.sign == 0:
        assert sp.partition is None
    else:
        assert sp.sign in (1, -1)
        assert sum(sp.partition) == sum(alpha)


def _straighten_by_inversions(alpha):
    # the other side: sort the shifted vector, parity from counting the
    # out-of-order pairs one by one
    ell = len(alpha)
    shifted = [alpha[i] + ell - 1 - i for i in range(ell)]
    if len(set(shifted)) != ell or (shifted and min(shifted) < 0):
        return SignedPartition(0, None)
    inversions = sum(a < b for a, b in itertools.combinations(shifted, 2))
    ordered = sorted(shifted, reverse=True)
    # weakly decreasing and nonnegative, so the zeros are the trailing ones
    mu = tuple(v for v in (ordered[i] - (ell - 1 - i) for i in range(ell)) if v)
    return SignedPartition((-1) ** inversions, mu)


def test_straighten_matches_inversion_count_exhaustive():
    # all 137,257 vectors with entries in -2..4 and length at most 6; the
    # identity checks straighten through the trusted core, which the public
    # function runs after its int check
    for n in range(7):
        for alpha in itertools.product(range(-2, 5), repeat=n):
            expected = _straighten_by_inversions(alpha)
            assert straighten(list(alpha)) == _straighten(alpha) == expected, alpha


def test_adjacent_swap_examples():
    assert adjacent_swap_identity_check((), 1, 3, ())
    assert adjacent_swap_identity_check((4,), 2, 2, (1,))
    assert adjacent_swap_identity_check((), 0, 2, ())
    # a case where both sides vanish: (1,2) maps to itself under the swap
    assert straighten((1, 2)).sign == 0
    assert adjacent_swap_identity_check((), 1, 2, ())


@given(
    st.lists(st.integers(min_value=-2, max_value=5), max_size=2).map(tuple),
    st.integers(min_value=-2, max_value=5),
    st.integers(min_value=-2, max_value=5),
    st.lists(st.integers(min_value=-2, max_value=5), max_size=2).map(tuple),
)
def test_adjacent_swap_identity_random(alpha, r, s, beta):
    assert adjacent_swap_identity_check(alpha, r, s, beta)


def test_jacobi_trudi_examples():
    assert jacobi_trudi_expand((2, 1)) == {(2, 1): 1, (3,): -1}
    assert jacobi_trudi_expand((1, 1)) == {(1, 1): 1, (2,): -1}
    assert jacobi_trudi_expand((4,)) == {(4,): 1}
    assert jacobi_trudi_expand(()) == {(): 1}


def test_jacobi_trudi_unitriangular():
    # at most l! surviving terms, unit coefficient on the diagonal, and every
    # other index strictly dominates
    for k in range(7):
        for lam in partitions_of(k):
            terms = jacobi_trudi_expand(lam)
            assert len(terms) <= factorial(max(len(lam), 1))
            assert terms[lam] == 1
            for mu in terms:
                if mu != lam:
                    assert dominates(mu, lam) and not dominates(lam, mu)


def _jt_matches_straighten(alpha):
    expansion = jacobi_trudi_expand(alpha)
    sp = straighten(alpha)
    if sp.sign == 0:
        return expansion == {}
    reference = jacobi_trudi_expand(sp.partition)
    return expansion == {mu: sp.sign * c for mu, c in reference.items()}


def test_jacobi_trudi_consistent_with_straightening_exhaustive():
    for length in range(4):
        for alpha in itertools.product(range(-3, 7), repeat=length):
            assert _jt_matches_straighten(alpha), alpha


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=-3, max_value=6), min_size=4, max_size=5).map(tuple))
def test_jacobi_trudi_consistent_with_straightening_random(alpha):
    assert _jt_matches_straighten(alpha)


def _forced_by_filter(alpha, mu=()):
    """Every permutation of the working length, filtered to the nonnegative
    index vectors."""
    ell = max(len(alpha), len(mu))
    alpha, mu = pad(alpha, ell), pad(mu, ell)
    rho = staircase(ell)
    shifted = [alpha[i] + rho[i] for i in range(ell)]
    out = []
    for perm in itertools.permutations(range(ell)):
        idx = tuple(shifted[perm[j]] - rho[j] - mu[j] for j in range(ell))
        if all(v >= 0 for v in idx):
            out.append((perm, idx))
    return out


def test_forced_contents_matches_permutation_filter():
    # the pruned walk against the filter, order included
    for k in range(8):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                assert list(_forced_contents(lam, mu)) == _forced_by_filter(lam, mu), (lam, mu)
    for length in range(1, 5):
        for alpha in itertools.product(range(-1, 4), repeat=length):
            assert list(_forced_contents(alpha)) == _forced_by_filter(alpha), alpha
    # 10! = 3,628,800 permutations for the filter; the walk visits only survivors
    assert sum(1 for _ in _forced_contents((2,) * 10)) == 13122
