import copy
import functools
import json
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import schurkit
from schurkit.partitions import (
    conjugate,
    contains,
    horizontal_strip_reductions,
    partitions_of,
    subpartitions,
    vertical_strip_extensions,
)
from schurkit.ring import (
    BasisMismatchError,
    SymFunc,
    cauchy_transition_check,
    convert,
    kostka_inverse,
    kostka_matrix,
    mirror_identity_check,
    multiply,
    newton_check,
    omega,
    pieri_e,
    pieri_h,
    skew_jacobi_trudi,
    skew_mirror_check,
    skew_schur,
)
from schurkit.tableaux import enumerate_ssyt, kostka, lr_coefficient, lr_tableaux
from schurkit.verification import run_suite


def s(lam, c=1):
    return SymFunc.element("s", lam, c)


_small_partitions = [lam for k in range(6) for lam in partitions_of(k)]


@st.composite
def symfunc_strategy(draw, basis="s"):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        lam = draw(st.sampled_from(_small_partitions))
        terms[lam] = draw(st.integers(min_value=-10**6, max_value=10**6))
    return SymFunc(basis, terms)


def test_symfunc_construction_normalizes():
    f = SymFunc("s", {(3, 1, 0): 2, (2,): 0})
    assert f.terms == {(3, 1): 2}
    assert SymFunc("s", [((2,), 1), ((2,), -1)]).terms == {}
    assert SymFunc.element("s", [2, 1, 0], 3).terms == {(2, 1): 3}
    assert SymFunc.element("h", [2, 1], 0).terms == {}
    with pytest.raises(ValueError):
        SymFunc("q", {})
    with pytest.raises(ValueError):
        SymFunc("s", {(1, 2): 1})


def test_symfunc_is_immutable():
    f = s((2, 1))
    with pytest.raises(AttributeError):
        f.basis = "h"
    before = hash(f)
    with pytest.raises(TypeError):
        f.terms[(1,)] = 5
    assert f.terms == {(2, 1): 1} and hash(f) == before
    for g in (f, SymFunc.element("s", (1,)), SymFunc("h", {(3, 1): -2, (): 5})):
        assert pickle.loads(pickle.dumps(g)) == g and copy.deepcopy(g) == g
        assert hash(copy.copy(g)) == hash(g)


def test_symfunc_coefficients_are_exact_integers():
    from fractions import Fraction

    f = s((1,))
    for bad in (2.7, 2.0, Fraction(1, 2), True):
        with pytest.raises(TypeError):
            SymFunc("s", {(1,): bad})
        with pytest.raises(TypeError):
            SymFunc.element("s", (1,), bad)
        with pytest.raises(TypeError):
            bad * f
        with pytest.raises(TypeError):
            f * bad
    with pytest.raises(TypeError):
        SymFunc.from_json_dict({"basis": "s", "terms": [{"partition": [1], "coeff": 1.5}]})
    for bad in ((2.5,), (2.0,), (True,)):
        with pytest.raises(TypeError):
            SymFunc("s", {bad: 1})
    data = {"basis": "s", "terms": [{"partition": [1], "coeff": "12"}]}
    assert SymFunc.from_json_dict(data) == s((1,), 12)


def test_symfunc_arithmetic():
    f = s((2,)) + s((1, 1))
    assert f - s((2,)) == s((1, 1))
    assert -f == SymFunc("s", {(2,): -1, (1, 1): -1})
    assert 3 * f == SymFunc("s", {(2,): 3, (1, 1): 3})
    assert f * 0 == SymFunc.zero("s")
    assert not SymFunc.zero("s")


def test_mixed_basis_addition_is_an_error():
    with pytest.raises(BasisMismatchError):
        s((1,)) + SymFunc.element("h", (1,))


def test_symfunc_text_form():
    f = SymFunc("s", {(3, 2, 1): 2, (4, 2): 1})
    assert str(f) == "s[4,2] + 2*s[3,2,1]"
    assert str(SymFunc.zero("m")) == "0"
    assert str(SymFunc("h", {(2,): -1, (1, 1): 3})) == "-h[2] + 3*h[1,1]"
    g = SymFunc("h", {(3, 1): -2, (2, 2): 1, (1,): -1})
    assert str(g) == "-h[1] - 2*h[3,1] + h[2,2]"
    assert repr(g) == "SymFunc(-h[1] - 2*h[3,1] + h[2,2])"
    assert g.to_json() == (
        '{"basis": "h", "terms": [{"partition": [1], "coeff": "-1"}, '
        '{"partition": [3, 1], "coeff": "-2"}, {"partition": [2, 2], "coeff": "1"}]}'
    )
    assert str(SymFunc("e", {(): -4, (1,): 1})) == "-4*e[] + e[1]"


def test_symfunc_json_round_trip():
    f = SymFunc("s", {(3, 2, 1): 2, (4, 2): -1})
    data = json.loads(f.to_json())
    assert data["basis"] == "s"
    assert {"partition": [3, 2, 1], "coeff": "2"} in data["terms"]
    assert SymFunc.from_json(f.to_json()) == f
    # coefficients travel as decimal strings, so size is unbounded
    big = SymFunc("m", {(1,): 10**40 + 7})
    assert SymFunc.from_json(big.to_json()) == big


def test_symfunc_takes_a_mapping_or_pairs():
    for basis in "shem":
        f = SymFunc(basis, {(3, 1): 2, (2, 2): -1, (): 5})
        pairs = list(f.terms.items())
        for terms in (f.terms, dict(pairs), pairs, tuple(pairs), (pair for pair in pairs)):
            g = SymFunc(basis, terms)
            assert g == f and SymFunc.from_json(g.to_json()) == f


def test_pieri_examples():
    assert pieri_h(1, s((1,))) == s((2,)) + s((1, 1))
    assert pieri_h(2, s((2, 1))) == SymFunc(
        "s", {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}
    )
    f = s((3, 1), 2) - s((2,))
    assert pieri_h(0, f) == f
    assert pieri_e(1, s((1,))) == s((2,)) + s((1, 1))
    assert pieri_e(2, s((1,))) == s((2, 1)) + s((1, 1, 1))
    assert pieri_e(2, SymFunc.one("s")) == s((1, 1))


def test_pieri_requires_schur_basis():
    with pytest.raises(BasisMismatchError):
        pieri_h(1, SymFunc.element("h", (1,)))


def test_multiply_examples():
    assert multiply(s((1,)), s((1,))) == s((2,)) + s((1, 1))
    expected = SymFunc(
        "s",
        {
            (4, 2): 1,
            (4, 1, 1): 1,
            (3, 3): 1,
            (3, 2, 1): 2,
            (3, 1, 1, 1): 1,
            (2, 2, 2): 1,
            (2, 2, 1, 1): 1,
        },
    )
    assert multiply(s((2, 1)), s((2, 1))) == expected
    f = s((3, 1), 5) + s((1,), -2)
    assert multiply(SymFunc.one("s"), f) == f
    assert s((2, 1)) * s((2, 1)) == expected  # operator form


def test_multiply_accepts_mixed_bases():
    assert multiply(SymFunc.element("h", (1,)), s((1,))) == s((2,)) + s((1, 1))


def test_multiply_commutes_and_associates_on_sample():
    rng = random.Random(7)
    pool = [lam for k in range(1, 5) for lam in partitions_of(k)]
    for _ in range(200):
        trio = [rng.choice(pool) for _ in range(3)]
        if sum(map(sum, trio)) > 9:
            continue
        f, g, h = (s(lam) for lam in trio)
        fg = multiply(f, g)
        assert fg == multiply(g, f)
        assert multiply(fg, h) == multiply(f, multiply(g, h))


def test_multiply_matches_lr_tableau_counts():
    # the lattice walk against filtered tableaux, for every pair of degree <= 8
    pool = [lam for k in range(9) for lam in partitions_of(k)]
    for mu in pool:
        for nu in pool:
            k = sum(mu) + sum(nu)
            if k > 8:
                continue
            expected = {}
            for lam in partitions_of(k):
                if contains(mu, lam) and (c := len(lr_tableaux(lam, mu, nu))):
                    expected[lam] = c
            assert multiply(s(mu), s(nu)) == SymFunc("s", expected)
            assert multiply(s(nu), s(mu)) == SymFunc("s", expected)


def test_lr_counts_build_no_tableaux(monkeypatch):
    from schurkit import tableaux
    from schurkit.tableaux import Tableau

    built = []
    trusted = Tableau._trusted.__func__
    enumerate_ssyt = tableaux.enumerate_ssyt

    def counting_trusted(cls, *args):
        built.append(args)
        return trusted(cls, *args)

    def counting_enumerate(*args, **kwargs):
        built.append(args)
        return enumerate_ssyt(*args, **kwargs)

    monkeypatch.setattr(Tableau, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(tableaux, "enumerate_ssyt", counting_enumerate)
    schurkit.clear_caches()
    ones = (1,) * 8
    assert multiply(s((3, 1)), s(ones)) == SymFunc(
        "s",
        {
            (4, 2) + ones[:6]: 1,
            (4,) + ones: 1,
            (3, 2) + ones[:7]: 1,
            (3,) + ones + (1,): 1,
        },
    )
    assert lr_coefficient((4, 3, 2, 1, 1, 1), (3, 1), ones) == 0
    assert built == []


def test_convert_examples():
    assert convert(s((2, 1)), "m") == SymFunc("m", {(2, 1): 1, (1, 1, 1): 2})
    assert convert(SymFunc.element("h", (2,)), "s") == s((2,))
    assert convert(SymFunc.element("h", (1, 1)), "s") == s((2,)) + s((1, 1))
    assert convert(SymFunc.element("e", (2,)), "s") == s((1, 1))
    assert convert(s((2, 1)), "s") == s((2, 1))
    # inverse-Kostka expansions with a sign
    assert convert(SymFunc.element("m", (2,)), "s") == s((2,)) - s((1, 1))
    assert convert(SymFunc.element("m", (2, 1)), "s") == s((2, 1)) - s((1, 1, 1), 2)


def test_convert_round_trips():
    for k in range(9):
        for lam in partitions_of(k):
            f = s(lam)
            for basis in ("h", "m", "e"):
                assert convert(convert(f, basis), "s") == f, (lam, basis)


def test_convert_h_to_s_is_kostka_transpose():
    # the Pieri column against the other side, the tableau-chain count
    for k in range(7):
        for lam in partitions_of(k):
            g = convert(SymFunc.element("h", lam), "s")
            assert g.terms == {
                mu: v for mu in partitions_of(k) if (v := kostka(mu, (), lam))
            }


def _column(matrix, lam):
    return {mu: v for mu, row in matrix.items() if (v := row.get(lam, 0))}


def test_convert_s_to_h_matches_determinant_expansion():
    # the first-column recursion that convert runs against the other side,
    # raising.jacobi_trudi_expand, the signed walk over the permutations of
    # the same determinant; s -> e reads the recursion at the conjugate
    from schurkit.raising import jacobi_trudi_expand

    shapes = [lam for k in range(12) for lam in partitions_of(k)]
    shapes += [shape for k in range(12, 15) for shape in ((k,), (1,) * k)]
    for lam in shapes:
        expected = jacobi_trudi_expand(lam)
        assert convert(s(lam), "h").terms == expected, lam
        assert convert(s(conjugate(lam)), "e").terms == expected, lam


@functools.cache
def _chain_kostka(k):
    """The whole-degree Kostka matrix and its inverse from the other side,
    the tableau-chain count: nothing here touches the Pieri columns that
    convert and ring.kostka_matrix read."""
    parts = partitions_of(k)
    K = {lam: {mu: v for mu in parts if (v := kostka(lam, (), mu))} for lam in parts}
    inverse = {}
    for mu in parts:
        row = {}
        for lam in parts:
            v = (1 if lam == mu else 0) - sum(c * K[kappa].get(lam, 0) for kappa, c in row.items())
            if v:
                row[lam] = v
        inverse[mu] = row
    return K, inverse


def test_convert_m_to_s_is_inverse_kostka_row():
    # rows read from the first-column recursion against the other side,
    # _chain_kostka's whole-degree inverse of the tableau-chain counts;
    # kostka_inverse, which copies the same rows, is held to it too
    for k in range(11):
        inverse = _chain_kostka(k)[1]
        assert kostka_inverse(k) == inverse, k
        for mu in partitions_of(k):
            assert convert(SymFunc.element("m", mu), "s").terms == inverse[mu], mu


def _entry_from_whole_expansion(lam, mu):
    """The inverse Kostka entry K^-1_{mu lam} as the m -> s route read it
    before: the h_mu coefficient of the whole h-expansion of s_lam."""
    from schurkit.ring import _s_in_h

    return _s_in_h(lam).get(mu, 0)


def test_inverse_kostka_entries_match_the_whole_expansion():
    # the memo on (shape, parts left) against the other side, the full
    # first-column expansion of s_lam in h: every pair of one degree up to
    # 10, and every whole row at degree 12
    from schurkit.ring import _m_in_s, _s_h_entry

    for k in range(11):
        parts = partitions_of(k)
        for lam in parts:
            for mu in parts:
                assert _s_h_entry(lam, mu) == _entry_from_whole_expansion(lam, mu), (lam, mu)
    parts = partitions_of(12)
    for mu in parts:
        row = {lam: v for lam in parts if (v := _entry_from_whole_expansion(lam, mu))}
        assert _m_in_s(mu) == row, mu


def test_m_to_s_expands_no_schur_function_in_h(monkeypatch):
    from schurkit import ring

    def boom(*args):
        raise AssertionError("m -> s expanded a Schur function in h")

    schurkit.clear_caches()
    monkeypatch.setattr(ring, "_s_in_h", boom)
    pool = [mu for k in range(9) for mu in partitions_of(k)]
    pool += [(20,), (10, 10), (5, 5, 4, 3, 2, 1), (1,) * 20]
    rows = {mu: convert(SymFunc.element("m", mu), "s") for mu in pool}
    monkeypatch.undo()
    for mu, g in rows.items():
        assert g.terms == {
            lam: v for lam in partitions_of(sum(mu)) if (v := _entry_from_whole_expansion(lam, mu))
        }, mu
    schurkit.clear_caches()  # the degree-20 expansions hold about 28 MB


def test_m_to_s_stays_small_in_memory():
    # the rows of degree 20 hold a few hundred entries; expanding every s_lam
    # below them in h, as the route once did, peaked at 26-29 MB
    import tracemalloc

    for mu in ((20,), (10, 10), (6, 5, 4, 3, 2)):
        schurkit.clear_caches()
        tracemalloc.start()
        try:
            convert(SymFunc.element("m", mu), "s")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (mu, peak)
    schurkit.clear_caches()


def test_kostka_matrix_matches_chain_counts():
    # the Pieri columns, transposed, against the tableau-chain count
    for k in range(13):
        K = kostka_matrix(k)
        parts = partitions_of(k)
        assert list(K) == parts
        for lam in parts:
            assert K[lam] == {mu: v for mu in parts if (v := kostka(lam, (), mu))}


def test_kostka_matrices_are_new_on_every_call():
    # a write into one result reaches neither a later call nor the suite
    # that reads the matrices
    K, inverse = kostka_matrix(3), kostka_inverse(3)
    K[(3,)][(3,)] = 5
    inverse[(3,)][(3,)] = 5
    del inverse[(2, 1)]
    assert kostka_matrix(3) is not K and kostka_inverse(3) is not inverse
    assert (kostka_matrix(3), kostka_inverse(3)) == _chain_kostka(3)
    assert run_suite("kostka", 3).ok


def _matrix_convert(f, target):
    """The whole-degree route: rows and columns of the chain-count Kostka
    matrix and its inverse, through s."""

    def image(basis, lam, into_s):
        K, inverse = _chain_kostka(sum(lam))
        if basis == "m":
            return inverse[lam] if into_s else K[lam]
        if into_s:
            col = _column(K, lam)
            return col if basis == "h" else {conjugate(mu): v for mu, v in col.items()}
        return _column(inverse, lam if basis == "h" else conjugate(lam))

    def expand(g, basis, into_s):
        pairs = [
            (mu, c * v)
            for lam, c in g.terms.items()
            for mu, v in image(basis, lam, into_s).items()
        ]
        return SymFunc("s" if into_s else basis, pairs)

    via_s = f if f.basis == "s" else expand(f, f.basis, True)
    return via_s if target == "s" else expand(via_s, target, False)


def test_convert_builds_no_whole_degree_matrix(monkeypatch):
    # nor walks the determinant's permutations, which stay a check side
    from schurkit import ring

    def boom(*args):
        raise AssertionError("convert built a whole-degree matrix or walked permutations")

    pairs = [(a, b) for a in ring.BASES for b in ring.BASES if a != b]
    pool = [lam for k in range(9) for lam in partitions_of(k)]
    schurkit.clear_caches()
    monkeypatch.setattr(ring, "kostka_matrix", boom)
    monkeypatch.setattr(ring, "kostka_inverse", boom)
    monkeypatch.setattr(ring, "jacobi_trudi_expand", boom)
    results = {
        (a, b, lam): convert(SymFunc.element(a, lam), b) for a, b in pairs for lam in pool
    }
    monkeypatch.undo()
    for (a, b, lam), g in results.items():
        assert g == _matrix_convert(SymFunc.element(a, lam), b), (a, b, lam)


def test_newton_h_e_matches_route_through_s():
    # Newton's relation against the other side, _matrix_convert: h into s by
    # the chain-count Kostka column, then s into e by its inverse
    for k in range(10):
        for mu in partitions_of(k):
            for a, b in (("h", "e"), ("e", "h")):
                f = SymFunc.element(a, mu)
                assert convert(f, b) == _matrix_convert(f, b), (a, mu)


def test_matrix_counts_match_route_through_s():
    # the h -> m and e -> m matrix counts against the other side,
    # _matrix_convert: into s by the chain-count Kostka column, then into m
    # by its row, i.e. sum_lam K_{lam mu} K_{lam kappa}
    for k in range(10):
        for mu in partitions_of(k):
            for a in ("h", "e"):
                f = SymFunc.element(a, mu)
                assert convert(f, "m") == _matrix_convert(f, "m"), (a, mu)


def _fillings(total, caps, binary):
    """Every row of entries with the given sum, each entry at most its cap
    (and 0 or 1 when binary), in column order."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(caps[0], 1 if binary else total, total) + 1):
        for rest in _fillings(total - first, caps[1:], binary):
            yield (first,) + rest


def _brute_matrix_count(rows, cols, binary):
    """Count the matrices with these margins by listing them row by row."""
    if not rows:
        return 1 if not any(cols) else 0
    return sum(
        _brute_matrix_count(rows[1:], tuple(c - e for c, e in zip(cols, row)), binary)
        for row in _fillings(rows[0], cols, binary)
    )


def test_matrix_counts_match_brute_force():
    # the run-by-run count against the other side, a plain listing of every
    # N- and 0/1-matrix with margins (mu, kappa), sharing no code with it
    from schurkit.ring import _matrix_count

    for k in range(8):
        parts = partitions_of(k)
        for mu in parts:
            for binary, a in ((False, "h"), (True, "e")):
                row = {}
                for kappa in parts:
                    count = _brute_matrix_count(mu, kappa, binary)
                    assert _matrix_count(mu, kappa, binary) == count, (mu, kappa, binary)
                    if count:
                        row[kappa] = count
                assert convert(SymFunc.element(a, mu), "m").terms == row, (a, mu)


def test_matrix_counts_closed_forms():
    # h_(1^k) = e_(1^k) has the multinomials k!/prod(kappa_i!) in m, and
    # h_(k) has every coefficient 1: closed forms past the degrees at which
    # the tests run the route through s
    for k in range(15):
        multinomials = {
            kappa: math.factorial(k) // math.prod(map(math.factorial, kappa))
            for kappa in partitions_of(k)
        }
        for a in ("h", "e"):
            assert convert(SymFunc.element(a, (1,) * k), "m").terms == multinomials, k
        assert convert(SymFunc.element("h", (k,)), "m").terms == dict.fromkeys(
            partitions_of(k), 1
        )


def test_identity_suites_do_not_reach_the_routes_they_check(monkeypatch):
    # newton checks the h/e convolution through Pieri columns and LR
    # products, cauchy pairs the chain counts with the determinant: neither
    # may read Newton's relation, the matrix counts or the inverse rows
    from schurkit import ring

    def boom(*args):
        raise AssertionError("an identity suite reached a route it checks")

    schurkit.clear_caches()
    for pair in (("h", "e"), ("e", "h"), ("h", "m"), ("e", "m"), ("m", "s")):
        monkeypatch.setitem(ring._IMAGES, pair, boom)
    assert run_suite("newton", 8).ok
    assert run_suite("cauchy", 5).ok


def test_degree_arguments_must_be_int():
    # True and 3.0 equal 1 and 3, but are not degrees
    for bad in (True, 3.0):
        for fn in (partitions_of, kostka_matrix, kostka_inverse):
            with pytest.raises(TypeError):
                fn(bad)
        # sizes of strips, entries and bounds; True once passed as 1
        for call in (
            lambda: pieri_h(bad, s((1,))),
            lambda: pieri_e(bad, s((1,))),
            lambda: pieri_h(bad, SymFunc.zero("s")),
            lambda: vertical_strip_extensions((1,), bad),
            lambda: horizontal_strip_reductions((2, 1), bad),
            lambda: enumerate_ssyt((1,), (), bad),
            lambda: run_suite("newton", bad),
        ):
            with pytest.raises(TypeError, match="must be int"):
                call()


def test_omega_examples():
    assert omega(s((3, 1))) == s((2, 1, 1))
    assert omega(SymFunc.element("h", (2, 1))) == SymFunc.element("e", (2, 1))
    assert omega(SymFunc.element("e", (3,))) == SymFunc.element("h", (3,))
    f = s((4, 2), 3) - s((2, 1, 1))
    assert omega(omega(f)) == f
    g = SymFunc.element("m", (2, 1))
    assert omega(omega(g)) == g


def test_omega_is_a_ring_map_on_samples():
    rng = random.Random(11)
    pool = [lam for k in range(1, 5) for lam in partitions_of(k)]
    for _ in range(40):
        lam, mu = rng.choice(pool), rng.choice(pool)
        f, g = s(lam), s(mu)
        assert omega(multiply(f, g)) == multiply(omega(f), omega(g))


def test_skew_schur_examples():
    assert skew_schur((2, 1), (1,)) == s((2,)) + s((1, 1))
    assert skew_schur((3, 3), (3, 3)) == SymFunc.one("s")
    assert skew_schur((2, 2), (1,)) == s((2, 1))
    assert skew_schur((1,), (2,)) == SymFunc.zero("s")


def test_skew_schur_walks_only_contents_inside_lam(monkeypatch):
    from schurkit import tableaux

    walks = []
    lr_fillings = tableaux._lr_fillings

    def counting_fillings(*args):
        walks.append(args)
        return lr_fillings(*args)

    monkeypatch.setattr(tableaux, "_lr_fillings", counting_fillings)
    schurkit.clear_caches()
    lam, mu = (6, 5, 4, 3, 2, 1), (3, 2, 1)
    result = skew_schur(lam, mu)
    # 43 of the 176 partitions of 15 fit inside lam; the others have c = 0
    assert len(walks) == len(result) == 43
    every_nu = {nu: c for nu in partitions_of(15) if (c := lr_coefficient(lam, mu, nu))}
    assert result == SymFunc("s", every_nu)
    schurkit.clear_caches()


def test_skew_jacobi_trudi_examples():
    assert skew_jacobi_trudi((2, 1), (1,), "h") == SymFunc("h", {(1, 1): 1})
    # empty inner shape reduces to the straight determinant expansion
    from schurkit.raising import jacobi_trudi_expand

    assert skew_jacobi_trudi((3, 1), (), "h").terms == jacobi_trudi_expand((3, 1))
    # 1x1 dual determinant: the e-expansion of the conjugate shape
    assert skew_jacobi_trudi((2,), (), "e") == SymFunc("e", {(2,): 1})
    assert convert(skew_jacobi_trudi((2,), (), "e"), "s") == s((1, 1))


def test_skew_jacobi_trudi_matches_skew_schur():
    for k in range(7):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                target = skew_schur(lam, mu)
                assert convert(skew_jacobi_trudi(lam, mu, "h"), "s") == target
                dual = skew_schur(conjugate(lam), conjugate(mu))
                assert convert(skew_jacobi_trudi(lam, mu, "e"), "s") == dual


def test_skew_jacobi_trudi_vanishes_without_containment():
    for lam, mu in [((1,), (2,)), ((2, 1), (3,)), ((3, 1), (2, 2)), ((2,), (1, 1))]:
        assert not skew_jacobi_trudi(lam, mu, "h")
        assert not skew_jacobi_trudi(lam, mu, "e")


def test_skew_monomial_coefficients_are_kostka():
    for k in range(7):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                weights = convert(skew_schur(lam, mu), "m").terms
                for nu in partitions_of(k - sum(mu)):
                    assert weights.get(nu, 0) == kostka(lam, mu, nu)


def test_skew_coefficients_are_lr():
    f = skew_schur((4, 3, 1), (2, 1))
    for nu, c in f.terms.items():
        assert c == lr_coefficient((4, 3, 1), (2, 1), nu)


def test_mirror_identity_examples():
    assert mirror_identity_check((1,), 1)
    assert mirror_identity_check((2, 1), 2, 2)
    assert mirror_identity_check((2, 2), 1)
    with pytest.raises(ValueError):
        mirror_identity_check((2, 1), 1, 1)  # bound below the length


def test_skew_mirror_generalization():
    for k in range(7):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                assert skew_mirror_check(lam, mu)


def test_inverse_matrix_cold_start():
    # with every memo empty, the inverse row recurses into the determinant's
    # minors, each a memo that fills during the outer build
    schurkit.clear_caches()
    f = SymFunc.element("m", (3, 2, 1))
    assert omega(omega(f)) == f


def test_concurrent_conversions():
    import threading

    schurkit.clear_caches()
    results = []

    def work():
        f = SymFunc.element("m", (2, 2, 1))
        results.append(convert(convert(f, "s"), "m") == f)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8 and all(results)


def test_newton_relation():
    for r in range(1, 9):
        assert newton_check(r)


def test_cauchy_transition_identity():
    for k in range(6):
        assert cauchy_transition_check(k)
        assert cauchy_transition_check(k, dual=True)


@given(symfunc_strategy())
def test_json_round_trip_random(f):
    assert SymFunc.from_json(f.to_json()) == f


@given(symfunc_strategy())
def test_omega_involutive_random(f):
    assert omega(omega(f)) == f


@given(symfunc_strategy())
def test_conversion_round_trip_random(f):
    for basis in ("h", "m", "e"):
        assert convert(convert(f, basis), "s") == f


def hook_length_count(lam):
    """Standard tableaux of shape lam: |lam|! over the product of hook lengths."""
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            leg = sum(1 for below in lam[i + 1 :] if below > j)
            hooks *= row - j + leg
    quotient, remainder = divmod(math.factorial(sum(lam)), hooks)
    assert remainder == 0
    return quotient


_partitions_to_10 = [lam for k in range(11) for lam in partitions_of(k)]


@st.composite
def factor_pair_strategy(draw):
    mu = draw(st.sampled_from(_partitions_to_10))
    nu = draw(st.sampled_from([lam for lam in _partitions_to_10 if sum(lam) <= 10 - sum(mu)]))
    return mu, nu


@given(factor_pair_strategy())
def test_multiply_standard_tableau_count_random(pair):
    # sum_lam c^lam_{mu nu} f^lam = C(|mu| + |nu|, |mu|) f^mu f^nu: a standard
    # filling of lam restricts to one of mu and one of lam/mu, shuffled
    mu, nu = pair
    product = multiply(s(mu), s(nu))
    total = sum(c * hook_length_count(lam) for lam, c in product.terms.items())
    shuffles = math.comb(sum(mu) + sum(nu), sum(mu))
    assert total == shuffles * hook_length_count(mu) * hook_length_count(nu)


@given(symfunc_strategy(), symfunc_strategy())
def test_addition_is_termwise_random(f, g):
    total = f + g
    keys = set(f.terms) | set(g.terms)
    for lam in keys:
        assert total.coefficient(lam) == f.coefficient(lam) + g.coefficient(lam)
