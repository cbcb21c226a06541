import copy
import json
import pickle
from operator import add

import pytest
from hypothesis import example, given, strategies as st

import schurkit
from schurkit import polyval, verification
from schurkit._sparse import accumulate
from schurkit.partitions import compositions_of, partitions_of, subpartitions
from schurkit.polyval import (
    SparsePoly,
    alternant,
    alternant_pieri_check,
    bialternant_check,
    cauchy_truncated_check,
    eval_e,
    eval_h,
    eval_h_monomial,
    eval_m,
    eval_s_tableau,
    eval_sym_func,
    h_split_check,
    jacobi_trudi_eval_check,
    product_oracle,
    reduction_check,
    variable_split_check,
)
from schurkit.ring import SymFunc, convert, multiply
from schurkit.tableaux import enumerate_ssyt


def swap_vars(p, i, j):
    out = {}
    for e, c in p.terms.items():
        e = list(e)
        e[i], e[j] = e[j], e[i]
        out[tuple(e)] = c
    return SparsePoly(p.n, out)


def embed(p, n, offset=0):
    # p inside n variables, its own starting at slot offset
    tail = (0,) * (n - offset - p.n)
    return SparsePoly(n, {(0,) * offset + e + tail: c for e, c in p.terms.items()})


def restrict_vars(p, m):
    # the trailing variables set to zero, the first m kept
    return SparsePoly(m, {e[:m]: c for e, c in p.terms.items() if not any(e[m:])})


def test_sparse_poly_basics():
    p = SparsePoly(2, {(1, 0): 1}) + SparsePoly(2, {(0, 1): 1})
    assert p * p == SparsePoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert p - p == SparsePoly.zero(2)
    assert 2 * p == SparsePoly(2, {(1, 0): 2, (0, 1): 2})
    assert not SparsePoly.zero(3)
    assert SparsePoly.one(0) == SparsePoly(0, {(): 1})
    with pytest.raises(ValueError):
        SparsePoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        SparsePoly(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        p + SparsePoly.one(3)


def test_sparse_poly_is_immutable():
    p = SparsePoly(2, {(1, 0): 1})
    with pytest.raises(AttributeError):
        p.n = 3
    with pytest.raises(TypeError):
        p.terms[(0, 1)] = 5
    assert p.terms == {(1, 0): 1}
    for q in (p, SparsePoly.one(2), SparsePoly.zero(0), SparsePoly(1, {(3,): -4})):
        assert pickle.loads(pickle.dumps(q)) == q and copy.deepcopy(q) == q
    # the variable count is an exact integer too
    for bad in (2.0, True):
        with pytest.raises(TypeError):
            SparsePoly(bad, {(1, 0): 1})
        with pytest.raises(TypeError):
            eval_h(2, bad)


def test_sparse_poly_entries_are_exact_integers():
    from fractions import Fraction

    p = SparsePoly(2, {(1, 0): 1})
    for bad in (1.5, 1.0, Fraction(1, 2), True):
        with pytest.raises(TypeError):
            SparsePoly(2, {(1, 0): bad})
        with pytest.raises(TypeError):
            SparsePoly(2, {(bad, 0): 1})
        with pytest.raises(TypeError):
            bad * p
        with pytest.raises(TypeError):
            p * bad
    assert SparsePoly.from_json('{"n": 1, "terms": [{"exps": [2], "coeff": "-7"}]}') == (
        SparsePoly.monomial(1, (2,), -7)
    )
    for bad in (1.5, 1.0, True):
        with pytest.raises(TypeError):
            eval_h_monomial((2, bad), 2)
        with pytest.raises(TypeError):
            alternant((bad, 0), 2)
        with pytest.raises(TypeError):
            eval_s_tableau((bad,), (), 2)


def test_sparse_poly_text_and_json():
    p = SparsePoly(2, {(2, 0): 1, (1, 1): -2, (0, 0): 3})
    assert str(p) == "3 + x1^2 - 2*x1*x2"
    data = json.loads(p.to_json())
    assert data["n"] == 2
    assert SparsePoly.from_json(p.to_json()) == p
    assert str(SparsePoly.zero(2)) == "0"
    q = SparsePoly(2, {(0, 0): -1, (1, 0): 2})
    assert str(q) == "-1 + 2*x1"
    assert repr(q) == "SparsePoly(2, -1 + 2*x1)"
    assert q.to_json() == (
        '{"n": 2, "terms": [{"exps": [0, 0], "coeff": "-1"}, {"exps": [1, 0], "coeff": "2"}]}'
    )
    assert str(SparsePoly(2, {(0, 0): 1})) == "1"
    assert str(SparsePoly(2, {(0, 0): -5})) == "-5"
    assert str(SparsePoly(3, {(0, 0, 0): -1, (2, 0, 1): -1, (0, 1, 0): 7})) == (
        "-1 + 7*x2 - x1^2*x3"
    )
    assert str(SparsePoly(1, {(0,): 1, (3,): -1})) == "1 - x1^3"


def test_sparse_poly_takes_a_mapping_or_pairs():
    p = SparsePoly(3, {(2, 0, 1): -1, (0, 1, 0): 7, (0, 0, 0): 4})
    pairs = list(p.terms.items())
    for terms in (p.terms, dict(pairs), pairs, tuple(pairs), (pair for pair in pairs)):
        q = SparsePoly(3, terms)
        assert q == p and SparsePoly.from_json(q.to_json()) == p


def test_eval_m_examples():
    assert eval_m((2,), 2) == SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    assert eval_m((1, 1), 3) == SparsePoly(3, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert eval_m((2, 1), 2) == SparsePoly(2, {(2, 1): 1, (1, 2): 1})
    assert eval_m((1, 1, 1), 2) == SparsePoly.zero(2)
    # rearrangement count is multinomial, and stays cheap in many variables
    assert len(eval_m((1,), 30)) == 30
    assert len(eval_m((3, 1, 1), 6)) == 6 * 10


def test_kostka_equals_monomial_coefficient():
    # independent route: K[lam][mu] is the x^mu coefficient of the tableau sum
    from schurkit.partitions import pad
    from schurkit.tableaux import kostka

    for k in range(7):
        for lam in partitions_of(k):
            poly = eval_s_tableau(lam, (), 6)
            for mu in partitions_of(k):
                assert kostka(lam, (), mu) == poly.terms.get(pad(mu, 6), 0)


def test_eval_h_and_e_examples():
    assert eval_h(2, 2) == SparsePoly(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert eval_e(2, 2) == SparsePoly(2, {(1, 1): 1})
    assert eval_e(3, 2) == SparsePoly.zero(2)
    assert eval_h(0, 3) == SparsePoly.one(3)
    assert eval_h(-1, 3) == SparsePoly.zero(3)
    # h_r is the sum of all monomial functions of degree r
    for r in range(5):
        total = SparsePoly.zero(3)
        for lam in partitions_of(r):
            total = total + eval_m(lam, 3)
        assert total == eval_h(r, 3)


@pytest.mark.parametrize("fn", [eval_h, eval_e])
@pytest.mark.parametrize("bad", [2.0, True])
def test_eval_degree_must_be_int(fn, bad):
    # cold, then with the int degree memoised: 2.0 and True hash like 2 and 1
    schurkit.clear_caches()
    with pytest.raises(TypeError):
        fn(bad, 3)
    assert fn(int(bad), 3)
    with pytest.raises(TypeError):
        fn(bad, 3)


@pytest.mark.parametrize("bad", [3.0, True])
def test_h_monomial_variable_count_must_be_int(bad):
    # cold, then with the int count memoised
    schurkit.clear_caches()
    with pytest.raises(TypeError):
        eval_h_monomial((2, 1), bad)
    assert eval_h_monomial((2, 1), int(bad))
    with pytest.raises(TypeError):
        eval_h_monomial((2, 1), bad)


def test_eval_s_examples():
    assert eval_s_tableau((2,), (), 2) == eval_h(2, 2)
    assert eval_s_tableau((1, 1), (), 2) == eval_e(2, 2)
    h1 = eval_h(1, 2)
    assert eval_s_tableau((2, 1), (1,), 2) == h1 * h1
    assert eval_s_tableau((2, 1, 1), (), 2) == SparsePoly.zero(2)


def _tableau_content_sum(lam, mu, n):
    # check side of the merged walk: one content monomial per tableau that
    # enumerate_ssyt lists chain by chain; with no variables only the empty
    # filling of lam/lam exists
    if n == 0:
        return SparsePoly.one(0) if lam == mu else SparsePoly.zero(0)
    return SparsePoly(n, accumulate((t.content(n), 1) for t in enumerate_ssyt(lam, mu, n)))


def test_eval_s_matches_tableau_content_sum():
    for k in range(7):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                for n in range(6):
                    expected = _tableau_content_sum(lam, mu, n)
                    assert eval_s_tableau(lam, mu, n) == expected, (lam, mu, n)
    assert eval_s_tableau((2, 1), (2, 1), 0) == SparsePoly.one(0)
    assert eval_s_tableau((2, 1), (1,), 0) == SparsePoly.zero(0)
    assert eval_s_tableau((2, 1), (3,), 2) == SparsePoly.zero(2)  # mu not inside lam
    assert eval_s_tableau((1,), (1, 1), 0) == SparsePoly.zero(0)
    # exponents past one byte
    assert eval_s_tableau((300,), (), 2) == _tableau_content_sum((300,), (), 2)


def test_eval_s_is_symmetric():
    for k in range(7):
        for lam in partitions_of(k):
            for n in range(1, 5):
                p = eval_s_tableau(lam, (), n)
                for i in range(n - 1):
                    assert swap_vars(p, i, i + 1) == p, (lam, n, i)


def test_eval_s_stability():
    for k in range(7):
        for lam in partitions_of(k):
            for n in range(2, 5):
                assert restrict_vars(eval_s_tableau(lam, (), n), n - 1) == eval_s_tableau(
                    lam, (), n - 1
                )


def test_eval_sym_func_matches_conversions():
    f = SymFunc("h", {(2, 1): 1, (3,): -2})
    assert eval_sym_func(f, 3) == eval_sym_func(convert(f, "s"), 3)
    assert eval_sym_func(f, 3) == eval_sym_func(convert(f, "m"), 3)
    assert eval_h_monomial((2, 1), 3) == eval_h(2, 3) * eval_h(1, 3)


def test_alternant_examples():
    assert alternant((1, 0), 2) == SparsePoly(2, {(1, 0): 1, (0, 1): -1})
    assert alternant((2, 0), 2) == SparsePoly(2, {(2, 0): 1, (0, 2): -1})
    assert alternant((1, 1), 2) == SparsePoly.zero(2)  # repeated exponent cancels
    with pytest.raises(ValueError):
        alternant((2, -1), 2)
    with pytest.raises(ValueError):
        alternant((1, 1, 1), 2)


def test_bialternant_examples():
    assert bialternant_check((1,), 2)
    assert bialternant_check((2, 1), 2)
    with pytest.raises(ValueError):
        bialternant_check((1, 1, 1), 2)


def test_alternant_pieri_examples():
    assert alternant_pieri_check((), 1, 2)
    assert alternant_pieri_check((1,), 2, 2)
    assert alternant_pieri_check((2, 1), 1, 3)


def test_reduction_examples():
    assert reduction_check((2,), 2)
    assert reduction_check((2, 1), 2)
    assert reduction_check((1,), 1)
    assert reduction_check((3, 1, 1), 2)  # more parts than variables


@pytest.mark.parametrize("fault", ["drop one term", "double every polynomial"])
def test_reduction_check_keeps_its_chain_side(monkeypatch, fault):
    # the merged walk applies the reduction formula at its last step, so a
    # fault it makes consistently would pass a check that read it on both sides
    lam, n = (2, 1), 3
    assert reduction_check(lam, n)
    walk = polyval._eval_s

    def faulty(outer, inner, k):
        p = walk(outer, inner, k)
        if fault == "double every polynomial":
            return 2 * p
        if (outer, inner, k) != (lam, (), n - 1):
            return p
        terms = dict(p.terms)
        del terms[max(terms)]
        return SparsePoly(k, terms)

    monkeypatch.setattr(polyval, "_eval_s", faulty)
    assert not reduction_check(lam, n)


def test_product_oracle_examples():
    assert product_oracle((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    assert product_oracle((2, 1), (2, 1), 6) == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    assert product_oracle((4,), (), 4) == {(4,): 1}
    with pytest.raises(ValueError):
        product_oracle((2,), (2,), 3)  # too few variables for faithfulness


def test_product_oracle_agrees_with_ring_multiply():
    for a in range(5):
        for b in range(5 - a):
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    got = multiply(SymFunc.element("s", mu), SymFunc.element("s", nu))
                    assert got.terms == product_oracle(mu, nu, a + b if a + b else 1)


def test_peel_in_few_variables_matches_the_public_oracle():
    # no lam in s_mu s_nu is longer than l(mu) + l(nu), so that many variables
    # peel the same expansion as the |mu| + |nu| the public guard demands
    for k in range(8):
        for a in range(k + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(k - a):
                    n = max(len(mu) + len(nu), 1)
                    assert polyval._peel(mu, nu, n) == product_oracle(mu, nu, k)


def test_peel_variable_count_is_tight():
    # one variable short, the longest lam = (1, 1) has no monomial to peel
    assert polyval._peel((1,), (1,), 1) == {(2,): 1}
    assert polyval._peel((1,), (1,), 2) == {(2,): 1, (1, 1): 1}


def test_lr_oracle_sees_the_longest_term(monkeypatch):
    # lam = sort(mu + nu) is the one term of s_mu s_nu with l(mu) + l(nu)
    # parts, the most the oracle's variables hold; drop it from every product
    # of two nonempty factors and the suite must flag exactly those pairs
    def faulty(f, g):
        (mu,), (nu,) = f.terms, g.terms
        terms = dict(multiply(f, g).terms)
        if mu and nu:
            longest = tuple(sorted(mu + nu, reverse=True))
            terms[longest] -= 1
        return SymFunc("s", {lam: c for lam, c in terms.items() if c})

    monkeypatch.setattr(verification, "multiply", faulty)
    result = verification.run_suite("lr-oracle", 4)
    expected = [
        f"oracle mismatch: mu={mu}, nu={nu}"
        for a in range(1, 4)
        for b in range(1, 5 - a)
        for mu in partitions_of(a)
        for nu in partitions_of(b)
    ]
    assert result.checked == 38 and result.failures == expected


def test_multiply_matches_iterated_pieri_beyond_sweep():
    # degree-10 check through a different route: expand one factor into h
    # generators and push the other through chains of strip multiplications
    from schurkit.ring import pieri_h

    mu, nu = (3, 2), (3, 2)
    f = SymFunc.element("s", mu)
    total = SymFunc.zero("s")
    for beta, c in convert(SymFunc.element("s", nu), "h").terms.items():
        g = f
        for part in beta:
            g = pieri_h(part, g)
        total = total + c * g
    direct = multiply(f, SymFunc.element("s", nu))
    assert total == direct
    assert direct.coefficient((4, 3, 2, 1)) == 2


def test_cauchy_truncated_examples():
    assert cauchy_truncated_check(1, 2)
    assert cauchy_truncated_check(3, 3)
    assert cauchy_truncated_check(2, 1)
    assert cauchy_truncated_check(3, 3, dual=True)
    assert cauchy_truncated_check(0, 2) and cauchy_truncated_check(0, 2, dual=True)
    assert cauchy_truncated_check(5, 2, dual=True)  # more ones than entries: both sides 0
    for n in range(1, 4):
        for k in range(n * n + 2):
            assert sorted(polyval._zero_one_matrices(k, n)) == sorted(
                a for a in compositions_of(k, n * n) if max(a, default=0) <= 1
            )


def test_variable_split():
    for k in range(6):
        for lam in partitions_of(k):
            assert variable_split_check(lam, 2, 2)
    assert variable_split_check((3, 1), 1, 3)


def test_h_split():
    for k in range(6):
        for lam in partitions_of(k):
            assert h_split_check(lam, 2, 2)


def test_jacobi_trudi_eval():
    for k in range(6):
        for lam in partitions_of(k):
            assert jacobi_trudi_eval_check(lam, 4)


def test_joined_sum_matches_embedded_products():
    # the identity checks' disjoint-alphabet sum against embed and the packed product
    for k in range(5):
        for lam in partitions_of(k):
            for mu in subpartitions(lam):
                for a in range(5):
                    p = eval_s_tableau(lam, mu, a)
                    # 1 in no variables as the second factor: a linear combination
                    assert polyval._joined_sum(a, [(5, p, SparsePoly.one(0))]) == 5 * p
                    for b in range(5 - a):
                        n, q = a + b, eval_s_tableau(mu, (), b)
                        expected = embed(p, n) * embed(q, n, a)
                        assert polyval._joined_sum(n, [(3, p, q), (-2, p, q)]) == expected
                        assert not polyval._joined_sum(n, [(1, p, q), (-1, p, q)])


def test_generating_function_inverse_pair():
    # the degree-d slice of H(t) E(-t) vanishes for every d >= 1
    for d in range(1, 9):
        total = SparsePoly.zero(4)
        for i in range(d + 1):
            sign = 1 if (d - i) % 2 == 0 else -1
            total = total + sign * (eval_h(i, 4) * eval_e(d - i, 4))
        assert not total, d


def test_skew_eval_matches_skew_expansion():
    # the skew tableau polynomial equals its Schur expansion, evaluated
    from schurkit.ring import skew_schur

    for lam in partitions_of(5):
        for mu in subpartitions(lam):
            direct = eval_s_tableau(lam, mu, 3)
            via_ring = eval_sym_func(skew_schur(lam, mu), 3)
            assert direct == via_ring


def _tuple_add_product(p, q):
    # reference product: exponent tuples added entry by entry, no packing
    return accumulate(
        (tuple(map(add, e1, e2)), c1 * c2)
        for e1, c1 in p.terms.items()
        for e2, c2 in q.terms.items()
    )


_coeffs = st.integers(-3, 3) | st.integers(-(2**100), 2**100)


def _factors(n):
    terms = st.dictionaries(st.tuples(*[st.integers(0, 40)] * n), _coeffs, max_size=6)
    return st.tuples(st.just(n), terms, terms)


@given(st.integers(0, 4).flatmap(_factors))
@example((0, {(): 3}, {(): -5}))
@example((0, {}, {(): 2}))
@example((3, {(0, 0, 0): 7}, {(0, 0, 0): -2, (12, 0, 3): 1}))
@example((2, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}))  # cross terms cancel
@example((2, {(10, 0): 2**80, (0, 10): -(2**80)}, {(10, 0): 3, (0, 10): 3}))
@example((2, {(200, 0): 1, (0, 3): -1}, {(100, 7): 2, (0, 0): 1}))  # exponents past one byte
def test_packed_product_matches_tuple_addition(factors):
    n, a, b = factors
    p, q = SparsePoly(n, a), SparsePoly(n, b)
    prod = p * q
    assert prod.terms == _tuple_add_product(p, q)
    assert all(prod.terms.values())
    assert all(len(e) == n and all(type(x) is int for x in e) for e in prod.terms)
