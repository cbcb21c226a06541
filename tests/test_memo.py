import importlib
import pkgutil
import re
from pathlib import Path

import schurkit
from schurkit import _memo, cli, polyval, ring
from schurkit.partitions import partition_count
from schurkit.polyval import (
    eval_e,
    eval_h,
    eval_s_tableau,
    eval_sym_func,
    jacobi_trudi_eval_check,
)
from schurkit.ring import BASES, SymFunc, convert, kostka_inverse, kostka_matrix, multiply
from schurkit.tableaux import kostka, lr_coefficient, signed_lr_sum


def test_one_clear_empties_every_memo(capsys):
    # every pair of bases: m -> s fills the inverse Kostka entries
    # (_s_h_entry), h -> m and e -> m the matrix counts and the run shares
    for a in BASES:
        for b in BASES:
            convert(SymFunc.element(a, (2, 1)), b)
    multiply(SymFunc.element("s", (2, 1)), SymFunc.element("s", (1,)))
    lr_coefficient((3, 2, 1), (2, 1), (2, 1))
    signed_lr_sum((3, 2, 1), (2, 1), (2, 1))
    kostka((3, 1), (), (2, 1, 1))
    eval_s_tableau((2, 1), (), 3)
    kostka_matrix(4)
    kostka_inverse(4)
    eval_h(2, 3)
    eval_e(2, 3)
    eval_sym_func(SymFunc.element("h", (2, 1)), 3)
    # the h side of the Jacobi-Trudi check fills the peel memo
    jacobi_trudi_eval_check((2, 1), 3)
    partition_count(10)
    assert cli.main(["mult", "s[1]*s[1]"]) == 0
    # a malformed argv is left to argparse, whose parser is a memo too
    assert cli.main(["mult"]) == 2
    capsys.readouterr()
    assert _memo._registry
    empty = [f.__qualname__ for f in _memo._registry if not f.cache_info().currsize]
    assert empty == []
    schurkit.clear_caches()
    assert all(f.cache_info().currsize == 0 for f in _memo._registry)


def _modules():
    # the package and every module in it, each imported
    return [schurkit] + [
        importlib.import_module(f"schurkit.{info.name}")
        for info in pkgutil.iter_modules(schurkit.__path__)
    ]


def test_every_cache_is_registered():
    # a bare functools.cache or lru_cache would escape clear_caches()
    modules = _modules()
    registered = {id(f) for f in _memo._registry}
    for mod in modules:
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear"):
                assert id(obj) in registered, f"{mod.__name__}.{name}"


def test_unread_values_are_not_memoised():
    # the whole-degree matrices are rebuilt from the per-term memos, h_r and
    # e_r in n variables are cheap to rebuild, and an h or e row in m is read
    # once per conversion while the matrix counts below it keep their memo
    registered = {id(f) for f in _memo._registry}
    fns = (ring.kostka_matrix, ring.kostka_inverse, polyval.eval_h, polyval.eval_e, ring._in_m)
    for fn in fns:
        assert id(fn) not in registered and not hasattr(fn, "cache_info"), fn.__name__


def test_readme_counts_the_memos():
    _modules()
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    match = re.search(r"each of the (\d+) is a\s+`functools\.lru_cache`", text)
    assert match, "the README no longer states the memo count"
    assert int(match.group(1)) == len(_memo._registry)
