"""Each input is checked once, at the public boundary.

A public function validates its arguments and then calls the trusted cores
behind it, never another public validator on values it already holds.  The
first test counts `normalize` calls to pin that; the tables below pin the
exception type and message (or the value) of the touched functions on bad
input, so that no check moved or went missing on the way.
"""

import collections
import importlib
import pkgutil
import sys

import pytest

import schurkit
from schurkit import partitions
from schurkit.partitions import (
    compositions_of,
    contains,
    dominates,
    horizontal_strip_extensions,
    horizontal_strip_reductions,
    horizontal_strips_within,
    vertical_strip_extensions,
)
from schurkit.polyval import (
    SparsePoly,
    alternant,
    alternant_pieri_check,
    bialternant_check,
    cauchy_truncated_check,
    eval_e,
    eval_h,
    eval_sym_func,
    h_split_check,
    jacobi_trudi_eval_check,
    product_oracle,
    reduction_check,
    variable_split_check,
)
from schurkit.raising import apply_raising, staircase
from schurkit.ring import (
    SymFunc,
    cauchy_transition_check,
    mirror_identity_check,
    newton_check,
    pieri_h,
    skew_mirror_check,
    skew_schur,
)
from schurkit.tableaux import (
    SignedPair,
    Tableau,
    bz_involution,
    enumerate_ssyt,
    kostka,
    lr_tableaux,
    signed_lr_pairs,
    signed_lr_sum,
)
from schurkit.verification import run_suite


@pytest.fixture
def normalize_calls(monkeypatch):
    """Count `normalize` calls by the name of the calling function."""
    calls = collections.Counter()
    original = partitions.normalize

    def counting(seq):
        calls[sys._getframe(1).f_code.co_name] += 1
        return original(seq)

    modules = [schurkit] + [
        importlib.import_module(f"schurkit.{info.name}")
        for info in pkgutil.iter_modules(schurkit.__path__)
    ]
    for mod in modules:
        if vars(mod).get("normalize") is original:
            monkeypatch.setattr(mod, "normalize", counting)
    return calls


LAM, MU, NU = (4, 2, 1), (2, 1), (2, 1, 1)


NORMALISED = [
    (signed_lr_sum, (LAM, MU, NU), {"signed_lr_sum": 3}),
    (signed_lr_pairs, (LAM, MU, NU), {"signed_lr_pairs": 3}),
    (lr_tableaux, (LAM, MU, NU), {"lr_tableaux": 3}),
    (skew_schur, (LAM, MU), {"skew_schur": 2}),
    # the check holds its two sides apart: the right side is the public
    # skew_schur, which validates its own arguments
    (skew_mirror_check, (LAM, MU), {"skew_mirror_check": 2, "skew_schur": 2}),
    # the walk goes through the public horizontal_strips_within, whose calls
    # the traced benchmark counts: it normalises lam[1:] and lam once more
    (horizontal_strip_reductions, (LAM, 2),
     {"horizontal_strip_reductions": 1, "horizontal_strips_within": 2}),
    # the strips of the conjugate are listed and conjugated back by the
    # trusted cores
    (vertical_strip_extensions, (LAM, 2), {"vertical_strip_extensions": 1}),
    # the identity checks evaluate and enumerate shapes with the trusted cores
    (bialternant_check, (LAM, 3), {"bialternant_check": 1}),
    (alternant_pieri_check, (LAM, 2, 3), {"alternant_pieri_check": 1}),
    (reduction_check, (LAM, 3), {"reduction_check": 1}),
    (jacobi_trudi_eval_check, (LAM, 3), {"jacobi_trudi_eval_check": 1}),
    (variable_split_check, (LAM, 2, 2), {"variable_split_check": 1}),
    (h_split_check, (LAM, 2, 2), {"h_split_check": 1}),
    (cauchy_truncated_check, (3, 2), {}),
    (cauchy_truncated_check, (3, 2, True), {}),
    (product_oracle, (MU, NU, 7), {"product_oracle": 2}),
    # the terms of a SymFunc are canonical already
    *((eval_sym_func, (SymFunc(basis, {LAM: 2, MU: -1}), 3), {}) for basis in "shem"),
]


@pytest.mark.parametrize("fn, args, expected", NORMALISED, ids=[c[0].__name__ for c in NORMALISED])
def test_library_calls_normalise_only_their_own_arguments(normalize_calls, fn, args, expected):
    assert fn(*args)
    assert dict(normalize_calls) == expected


# (call, exception type, message): each as the functions answered while they
# still called the public validators of the library internally
RAISES = [
    # not a partition, float parts, bool parts
    (lambda: signed_lr_sum((1, 2), (), (1,)), ValueError, "not a partition: (1, 2)"),
    (lambda: signed_lr_sum((3, 1), (2.0, 1), (1,)), TypeError,
     "partition parts must be int, got (2.0, 1)"),
    (lambda: signed_lr_sum((3, 1), (1,), (True,)), TypeError,
     "partition parts must be int, got (True,)"),
    (lambda: signed_lr_pairs((1, 2), (), (1,)), ValueError, "not a partition: (1, 2)"),
    (lambda: signed_lr_pairs((3, 1), (2.0, 1), (1,)), TypeError,
     "partition parts must be int, got (2.0, 1)"),
    (lambda: signed_lr_pairs((3, 1), (1,), (True,)), TypeError,
     "partition parts must be int, got (True,)"),
    (lambda: lr_tableaux((3, 1), (1, 2), (1,)), ValueError, "not a partition: (1, 2)"),
    (lambda: lr_tableaux((2.0, 1), (), (1,)), TypeError,
     "partition parts must be int, got (2.0, 1)"),
    (lambda: lr_tableaux((3, 1), (1,), (True,)), TypeError,
     "partition parts must be int, got (True,)"),
    (lambda: skew_schur((3, 1), (1, 2)), ValueError, "not a partition: (1, 2)"),
    (lambda: skew_schur((2.0, 1), ()), TypeError, "partition parts must be int, got (2.0, 1)"),
    (lambda: skew_schur((3, 1), (True,)), TypeError, "partition parts must be int, got (True,)"),
    (lambda: skew_mirror_check((1, 2), ()), ValueError, "not a partition: (1, 2)"),
    (lambda: skew_mirror_check((3, 1), (2.0, 1)), TypeError,
     "partition parts must be int, got (2.0, 1)"),
    (lambda: skew_mirror_check((True,), ()), TypeError,
     "partition parts must be int, got (True,)"),
    (lambda: horizontal_strip_reductions((1, 2), 1), ValueError, "not a partition: (1, 2)"),
    (lambda: horizontal_strip_reductions((2.0, 1), 1), TypeError,
     "partition parts must be int, got (2.0, 1)"),
    (lambda: horizontal_strip_reductions((True,), 1), TypeError,
     "partition parts must be int, got (True,)"),
    (lambda: kostka((2,), (1, 2), (1,)), ValueError, "not a partition: (1, 2)"),
    (lambda: kostka((2,), (), (2.0,)), TypeError, "content must be int, got (2.0,)"),
    (lambda: enumerate_ssyt((2,), (), 2, content=(True, 1)), TypeError,
     "content must be int, got (True, 1)"),
    (lambda: product_oracle((1,), (1, 2), 4), ValueError, "not a partition: (1, 2)"),
    (lambda: product_oracle((2.0,), (1,), 4), TypeError,
     "partition parts must be int, got (2.0,)"),
    (lambda: jacobi_trudi_eval_check((True,), 2), TypeError,
     "partition parts must be int, got (True,)"),
    # mu not inside lam
    (lambda: signed_lr_pairs((2, 1), (3,), (1,)), ValueError,
     "inner shape (3,) not contained in (2, 1)"),
    (lambda: signed_lr_pairs((2, 1), (1, 1, 1), ()), ValueError,
     "inner shape (1, 1, 1) not contained in (2, 1)"),
    (lambda: enumerate_ssyt((2, 1), (3,), 1), ValueError,
     "inner shape (3,) not contained in (2, 1)"),
    # negative, float and bool variable counts
    (lambda: product_oracle((1,), (1,), -1), ValueError,
     "need at least 2 variables for faithfulness"),
    (lambda: product_oracle((1,), (1,), 2.0), TypeError, "variable count must be int, got 2.0"),
    (lambda: product_oracle((), (), True), TypeError, "variable count must be int, got True"),
    (lambda: jacobi_trudi_eval_check((2, 1), -1), ValueError,
     "variable count must be nonnegative"),
    (lambda: jacobi_trudi_eval_check((2, 1), 2.0), TypeError,
     "variable count must be int, got 2.0"),
    (lambda: jacobi_trudi_eval_check((), True), TypeError, "variable count must be int, got True"),
    (lambda: bialternant_check((1,), -1), ValueError, "partition has more than -1 parts"),
    (lambda: bialternant_check((1,), True), TypeError, "variable count must be int, got True"),
    (lambda: cauchy_truncated_check(2, -1), ValueError, "need at least one variable per alphabet"),
    (lambda: cauchy_truncated_check(2, True), TypeError, "variable count must be int, got True"),
    (lambda: cauchy_truncated_check(0, True, dual=True), TypeError,
     "variable count must be int, got True"),
    (lambda: variable_split_check((2, 1), -1, 1), ValueError,
     "variable count must be nonnegative"),
    (lambda: variable_split_check((2, 1), 1, -1), ValueError,
     "variable count must be nonnegative"),
    (lambda: variable_split_check((2, 1), 1.0, 1), TypeError,
     "variable count must be int, got 1.0"),
    (lambda: variable_split_check((2, 1), 1, True), TypeError,
     "variable count must be int, got True"),
    (lambda: eval_h(2, True), TypeError, "variable count must be int, got True"),
    (lambda: eval_e(2.0, 2), TypeError, "degree must be int, got 2.0"),
    # counts, degrees and offsets checked at entry, not where first used
    (lambda: cauchy_truncated_check(2, 1.5), TypeError, "variable count must be int, got 1.5"),
    (lambda: cauchy_truncated_check(2, 2.0), TypeError, "variable count must be int, got 2.0"),
    (lambda: cauchy_truncated_check(1.0, 2), TypeError, "degree must be int, got 1.0"),
    (lambda: bialternant_check((1,), 1.0), TypeError, "variable count must be int, got 1.0"),
    (lambda: alternant_pieri_check((1,), 1, 2.0), TypeError,
     "variable count must be int, got 2.0"),
    (lambda: alternant_pieri_check((1,), 1.0, 2), TypeError, "strip size must be int, got 1.0"),
    (lambda: reduction_check((2, 1), 1.0), TypeError, "variable count must be int, got 1.0"),
    (lambda: reduction_check((2, 1), 0), ValueError, "need at least one variable"),
    (lambda: h_split_check((2, 1), 1, 2.0), TypeError, "variable count must be int, got 2.0"),
    (lambda: h_split_check((2, 1), -1, 2), ValueError, "variable count must be nonnegative"),
    (lambda: product_oracle((1,), (1,), 1.5), TypeError, "variable count must be int, got 1.5"),
    (lambda: eval_sym_func(SymFunc("e", {(1,): 1}), 1.5), TypeError,
     "variable count must be int, got 1.5"),
    (lambda: alternant((1,), 1.5), TypeError, "variable count must be int, got 1.5"),
    (lambda: alternant((1,), -1), ValueError, "variable count must be nonnegative"),
    (lambda: dominates((2.0,), (2,)), TypeError, "alpha entries must be int, got (2.0,)"),
    (lambda: dominates((2,), (1, True)), TypeError, "beta entries must be int, got (1, True)"),
    (lambda: contains((1.5,), (2,)), TypeError, "inner parts must be int, got (1.5,)"),
    (lambda: contains((1,), (2.0,)), TypeError, "outer parts must be int, got (2.0,)"),
    (lambda: SparsePoly(-1), ValueError, "variable count must be nonnegative"),
    (lambda: SparsePoly(2, {(1.0, 0): 2}), TypeError, "exponents must be int, got (1.0, 0)"),
    (lambda: SparsePoly(2, {(1, 0): 2.0}), TypeError, "coefficients must be int, got 2.0"),
    (lambda: SymFunc("s", {(1,): True}), TypeError, "coefficients must be int, got True"),
    # one nonnegative-int check serves every size, degree and bound
    (lambda: horizontal_strip_extensions((1,), -1), ValueError, "strip size must be nonnegative"),
    (lambda: vertical_strip_extensions((1,), -2), ValueError, "strip size must be nonnegative"),
    (lambda: pieri_h(-1, SymFunc.one()), ValueError, "strip size must be nonnegative"),
    (lambda: alternant_pieri_check((1,), -1, 2), ValueError, "strip size must be nonnegative"),
    (lambda: mirror_identity_check((1,), -1), ValueError, "strip size must be nonnegative"),
    (lambda: mirror_identity_check((1,), 2.0), TypeError, "strip size must be int, got 2.0"),
    # a bool size was a strip size and a memo key, a float failed in range()
    (lambda: horizontal_strips_within((1,), (3,), True), TypeError,
     "strip size must be int, got True"),
    (lambda: horizontal_strips_within((1,), (3,), 1.5), TypeError,
     "strip size must be int, got 1.5"),
    (lambda: cauchy_transition_check(-1), ValueError, "degree must be nonnegative"),
    (lambda: cauchy_transition_check(-1.0), TypeError, "degree must be int, got -1.0"),
    (lambda: cauchy_truncated_check(-1, 2), ValueError, "degree must be nonnegative"),
    (lambda: run_suite("newton", -1), ValueError, "bound must be nonnegative"),
    # degrees and length bounds that were used unchecked
    (lambda: newton_check(True), TypeError, "degree must be int, got True"),
    (lambda: newton_check(3.0), TypeError, "degree must be int, got 3.0"),
    (lambda: newton_check(0), ValueError, "degree must be positive"),
    (lambda: mirror_identity_check((1,), 1, 2.0), TypeError, "length bound must be int, got 2.0"),
    (lambda: mirror_identity_check((1,), 1, True), TypeError,
     "length bound must be int, got True"),
    # the exported enumeration helpers, which checked no argument
    (lambda: compositions_of(2, -1), ValueError, "length must be nonnegative"),
    (lambda: compositions_of(True, 1), TypeError, "total must be int, got True"),
    (lambda: compositions_of(2.0, 2), TypeError, "total must be int, got 2.0"),
    (lambda: compositions_of(2, 1.0), TypeError, "length must be int, got 1.0"),
    (lambda: staircase(True), TypeError, "staircase length must be int, got True"),
    (lambda: staircase(-1), ValueError, "staircase length must be nonnegative"),
    # the slots of a raising operator, which were used unchecked
    (lambda: apply_raising((1, 2), True, 2), TypeError, "slot i must be int, got True"),
    (lambda: apply_raising((1, 2), 1.0, 2), TypeError, "slot i must be int, got 1.0"),
    (lambda: apply_raising((1, 2), 1, 2.0), TypeError, "slot j must be int, got 2.0"),
    (lambda: apply_raising((1, 2), 0, 2.0), TypeError, "slot j must be int, got 2.0"),
    # an entry above len(w) is an inconsistent pair, told as such rather
    # than by Tableau.content refusing to cut the content at len(w)
    (lambda: bz_involution(SignedPair((0,), Tableau((2,), (), [(1, 2)])), (2,)), ValueError,
     "pair is inconsistent: content does not match w"),
    # a bool length was compared as 0 or 1, a float failed in list repetition
    (lambda: Tableau((2, 2), (1,), [(1,), (1, 2)]).content(True), TypeError,
     "length must be int, got True"),
    (lambda: Tableau((2, 2), (1,), [(1,), (1, 2)]).content(2.0), TypeError,
     "length must be int, got 2.0"),
    # the JSON readers name a missing field, which was a bare KeyError
    (lambda: SymFunc.from_json_dict({}), ValueError, "missing field 'basis'"),
    (lambda: SymFunc.from_json_dict({"basis": "s"}), ValueError, "missing field 'terms'"),
    (lambda: SymFunc.from_json_dict({"basis": "s", "terms": [{"partition": [1]}]}), ValueError,
     "missing field 'coeff'"),
    (lambda: SymFunc.from_json_dict({"basis": "s", "terms": [{"coeff": "1"}]}), ValueError,
     "missing field 'partition'"),
    (lambda: SparsePoly.from_json_dict({"terms": []}), ValueError, "missing field 'n'"),
    (lambda: SparsePoly.from_json_dict({"n": 1, "terms": [{"coeff": "1"}]}), ValueError,
     "missing field 'exps'"),
    (lambda: Tableau.from_json_dict({}), ValueError, "missing field 'outer'"),
    (lambda: Tableau.from_json_dict({"outer": [1]}), ValueError, "missing field 'inner'"),
    (lambda: Tableau.from_json_dict({"outer": [1], "inner": []}), ValueError,
     "missing field 'rows'"),
]


@pytest.mark.parametrize("call, kind, message", RAISES)
def test_bad_input_raises_as_before(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message


# (call, value) on inputs that are not errors but count nothing
RETURNS = [
    (lambda: signed_lr_sum((2, 1), (3,), (1,)), 0),
    (lambda: signed_lr_sum((2, 1), (1,), (3,)), 0),
    (lambda: signed_lr_pairs((2, 1), (1,), (1, 1, 1)), []),
    (lambda: signed_lr_pairs((2, 1), (1,), (1,)), []),
    (lambda: lr_tableaux((2, 1), (3,), (1,)), []),
    (lambda: kostka((2, 1), (3,), (1,)), 0),
    (lambda: kostka((2,), (), (1, 2)), 0),
    (lambda: skew_schur((2, 1), (3,)), SymFunc.zero("s")),
    (lambda: skew_mirror_check((2, 1), (3,)), True),
    (lambda: horizontal_strip_reductions((2, 1), 4), []),
    (lambda: horizontal_strip_reductions((), 0), [()]),
    # a negative total has no compositions
    (lambda: list(compositions_of(-1, 2)), []),
]


@pytest.mark.parametrize("call, value", RETURNS)
def test_empty_cases_answer_as_before(call, value):
    assert call() == value
