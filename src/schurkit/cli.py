"""Command-line front end.

Subcommands: mult, convert, lr, kostka, skew, eval, verify.  Output on
stdout is deterministic and machine-parsable (text or --json); progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage or parse error.

The grammar is one table, `_COMMANDS`.  A plain, well-formed argv is read
from it directly (`_read_argv`); anything else, help requests and errors
among it, goes to the argparse parser built from the same table, which is
imported and built only then.  Building it costs several times a small
request, so a well-formed cold request never pays for it.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from ._memo import clear_caches, memo
from .partitions import format_partition, parse_composition, parse_partition
from .polyval import eval_s_tableau
from .ring import BASES, SymFunc, convert, multiply, skew_schur
from .tableaux import enumerate_ssyt, kostka, lr_coefficient, lr_tableaux
from .verification import ACCEPTANCE_BOUNDS, SUITES, run_suite

DEFAULT_MAX_DEGREE = 20


class UsageError(ValueError):
    """Bad input on the command line (exit code 2)."""


def _max_degree() -> int:
    raw = os.environ.get("SCHURKIT_MAX_DEGREE", str(DEFAULT_MAX_DEGREE))
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"SCHURKIT_MAX_DEGREE is not an integer: {raw!r}")
    if cap < 0:
        raise UsageError(f"SCHURKIT_MAX_DEGREE must be nonnegative: {cap}")
    return cap


def _check_cap(size: int, what: str) -> None:
    cap = _max_degree()
    if size > cap:
        raise UsageError(
            f"{what} has size {size}, above the cap {cap} "
            "(raise SCHURKIT_MAX_DEGREE to allow it)"
        )


# compiled at import, so that no request compiles a pattern
_ELEMENT_RE = re.compile(r"\s*([shem])\s*(\[[\d,\s]*\])\s*")
_TERM_RE = re.compile(
    r"\s*(?P<op>[+-])?\s*(?:(?P<coeff>\d+)\s*\*\s*)?(?P<basis>[shem])\s*(?P<body>\[[\d,\s]*\])"
)
_MULT_RE = re.compile(r"(.+?)\*\s*([shem]\s*\[.*)", re.S)


def parse_element(text: str) -> SymFunc:
    """Parse a single basis element like `s[2,1]`."""
    m = _ELEMENT_RE.fullmatch(text)
    if not m:
        raise UsageError(f"expected a basis element like s[2,1], got {text!r}")
    lam = parse_partition(m.group(2))
    return SymFunc.element(m.group(1), lam)


def parse_symfunc(text: str) -> SymFunc:
    """Parse the linear-combination text form, e.g. `2*s[3,2,1] + s[4,2]`."""
    if text.strip() == "0":
        return SymFunc.zero("s")
    pos = 0
    basis: Optional[str] = None
    terms: list[tuple[tuple[int, ...], int]] = []
    first = True
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TERM_RE.match(text, pos)
        if not m:
            raise UsageError(f"cannot parse expression at ...{text[pos:]!r}")
        op = m.group("op")
        if not first and op is None:
            raise UsageError(f"missing + or - before ...{text[pos:]!r}")
        sign = -1 if op == "-" else 1
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if basis is None:
            basis = m.group("basis")
        elif basis != m.group("basis"):
            raise UsageError(
                f"mixed bases {basis!r} and {m.group('basis')!r} in one expression"
            )
        terms.append((parse_partition(m.group("body")), sign * coeff))
        pos = m.end()
        first = False
    if basis is None:
        raise UsageError(f"empty expression: {text!r}")
    return SymFunc(basis, terms)


def _emit_symfunc(f: SymFunc, basis: str, as_json: bool) -> None:
    out = convert(f, basis)
    print(out.to_json() if as_json else str(out))


def _cmd_mult(args) -> int:
    m = _MULT_RE.fullmatch(args.expr)
    if not m:
        raise UsageError(f"expected B[parts]*B[parts], got {args.expr!r}")
    left = parse_element(m.group(1))
    right = parse_element(m.group(2))
    degrees = [sum(lam) for lam in (*left._terms, *right._terms)]
    _check_cap(sum(degrees), "product degree")
    _emit_symfunc(multiply(left, right), args.basis, args.json)
    return 0


def _cmd_convert(args) -> int:
    f = parse_symfunc(args.expr)
    for lam in f._terms:
        _check_cap(sum(lam), f"partition {format_partition(lam)}")
    _emit_symfunc(f, args.basis, args.json)
    return 0


def _cmd_lr(args) -> int:
    lam = parse_partition(args.outer)
    mu = parse_partition(args.inner)
    nu = parse_partition(args.content)
    _check_cap(sum(lam), f"partition {format_partition(lam)}")
    witnesses = lr_tableaux(lam, mu, nu) if args.witnesses else None
    _print_count(lr_coefficient(lam, mu, nu), witnesses, args.json)
    return 0


def _cmd_kostka(args) -> int:
    lam = parse_partition(args.outer)
    mu = parse_partition(args.inner)
    alpha = parse_composition(args.content)
    _check_cap(sum(lam), f"partition {format_partition(lam)}")
    count = kostka(lam, mu, alpha)
    witnesses = None
    if args.witnesses:
        witnesses = (
            enumerate_ssyt(lam, mu, max_entry=max(len(alpha), 1), content=alpha)
            if count
            else []
        )
    _print_count(count, witnesses, args.json)
    return 0


def _print_count(count: int, witnesses, as_json: bool) -> None:
    if as_json:
        payload: dict = {"count": count}
        if witnesses is not None:
            payload["witnesses"] = [t.to_json_dict() for t in witnesses]
        print(json.dumps(payload))
        return
    print(count)
    if witnesses is not None:
        print(json.dumps([t.to_json_dict() for t in witnesses]))


def _cmd_skew(args) -> int:
    lam = parse_partition(args.outer)
    mu = parse_partition(args.inner)
    _check_cap(sum(lam), f"partition {format_partition(lam)}")
    _emit_symfunc(skew_schur(lam, mu), args.basis, args.json)
    return 0


def _cmd_eval(args) -> int:
    lam = parse_partition(args.outer)
    mu = parse_partition(args.inner) if args.inner is not None else ()
    _check_cap(sum(lam), f"partition {format_partition(lam)}")
    if args.vars < 0:
        raise UsageError("--vars must be nonnegative")
    _check_cap(args.vars, "variable count")
    poly = eval_s_tableau(lam, mu, args.vars)
    print(poly.to_json() if args.json else str(poly))
    return 0


def _cmd_verify(args) -> int:
    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)} or all")
    failed = False
    for i, name in enumerate(names):
        if i:
            # a suite reuses little of another's memos: dropping them keeps
            # `verify all` at the memory of its largest suite
            clear_caches()
        bound = args.bound if args.bound is not None else ACCEPTANCE_BOUNDS[name]
        _check_cap(bound, "verification bound")
        result = run_suite(name, bound, progress if not args.quiet else None)
        prefix = f"{name}: " if args.suite == "all" else ""
        if result.ok:
            print(f"{prefix}PASS {result.checked} instances")
        else:
            failed = True
            print(f"{prefix}FAIL {len(result.failures)}/{result.checked} instances")
            print(result.failures[0], file=sys.stderr)
    return 1 if failed else 0


# The grammar: command name -> (handler, help, arguments).  Each argument
# is (name, argparse keywords), in the order argparse lists them; a name
# starting with "--" is an option, any other a positional.  _build_parser
# and _read_argv both read it, so the two cannot disagree on a command.
_JSON = ("--json", {"action": "store_true", "help": "emit JSON instead of text"})
_BASIS = ("--basis", {"choices": BASES, "default": "s", "help": "output basis (default s)"})
_WITNESSES = ("--witnesses", {"action": "store_true", "help": "also print the tableaux as JSON"})
_OUTER = ("outer", {"help": "partition literal"})
_INNER = ("inner", {"help": "partition literal"})

_COMMANDS = {
    "mult": (
        _cmd_mult,
        "multiply two basis elements",
        (("expr", {"help": "expression like 's[2,1]*s[2,1]' or 'h[1]*s[1]'"}), _JSON, _BASIS),
    ),
    "convert": (
        _cmd_convert,
        "change the basis of a linear combination",
        (("expr", {"help": "expression like '2*s[3,2,1] + s[4,2]'"}), _JSON, _BASIS),
    ),
    "lr": (
        _cmd_lr,
        "Littlewood-Richardson coefficient",
        (
            ("outer", {"help": "partition literal like [3,2,1]"}),
            _INNER,
            ("content", {"help": "partition literal"}),
            _WITNESSES,
            _JSON,
        ),
    ),
    "kostka": (
        _cmd_kostka,
        "Kostka number of a skew shape and content",
        (
            _OUTER,
            _INNER,
            ("content", {"help": "composition literal like [1,0,2]"}),
            _WITNESSES,
            _JSON,
        ),
    ),
    "skew": (_cmd_skew, "Schur expansion of a skew shape", (_OUTER, _INNER, _JSON, _BASIS)),
    "eval": (
        _cmd_eval,
        "tableau polynomial in N variables",
        (
            _OUTER,
            ("inner", {"nargs": "?", "default": None, "help": "optional inner shape"}),
            (
                "--vars",
                {"type": int, "required": True, "metavar": "N", "help": "number of variables"},
            ),
            _JSON,
        ),
    ),
    "verify": (
        _cmd_verify,
        "run a property suite up to a size bound",
        (
            ("suite", {"help": f"one of {sorted(SUITES)} or 'all'"}),
            (
                "bound",
                {
                    "nargs": "?",
                    "type": int,
                    "default": None,
                    "help": "size bound (default: the acceptance bound for the suite)",
                },
            ),
            ("--quiet", {"action": "store_true", "help": "suppress progress on stderr"}),
        ),
    ),
}


@memo
def _build_parser():
    # argparse parses only what _read_argv leaves: help requests, errors
    # and the spellings it alone accepts.  Built once per process, since
    # parsing leaves the parser unchanged and building it (with the import)
    # costs more than a warm request.
    import argparse

    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Exact Schur polynomial calculus: products, coefficients, "
        "basis changes, polynomial evaluation, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def _value(keywords: dict, token: str):
    """token converted and checked as argparse does for this argument, or
    None when argparse would refuse it or could read it differently."""
    if token.startswith("-"):
        return None
    try:
        value = keywords.get("type", str)(token)
    except ValueError:
        return None
    choices = keywords.get("choices")
    return value if choices is None or value in choices else None


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace that `_build_parser().parse_args(argv)` returns, for a
    plain, well-formed argv; None for anything else.

    Plain means: an exact command name, then positionals that do not start
    with "-" and exact long options of that command, each at most once, a
    valued option followed by a value that passes its type and choices.
    Every argv read here is one argparse accepts the same way; what it
    leaves (help, errors, `--basis=h`, abbreviations, `--`) goes to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    options = {name: keywords for name, keywords in arguments if name.startswith("--")}
    positionals = [keywords for name, keywords in arguments if not name.startswith("--")]
    # argparse fills an optional positional, empty, at the first positional
    # token, so a positional after an option would be one too many for it
    optional = sum(keywords.get("nargs") == "?" for keywords in positionals)
    given: dict = {}
    words: list = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if optional and given:
                return None
            words.append(token)
        elif token in options and token not in given:
            keywords = options[token]
            if keywords.get("action") == "store_true":
                given[token] = True
            else:
                given[token] = _value(keywords, next(tokens, "-"))
                if given[token] is None:
                    return None
        else:
            return None
    if not len(positionals) - optional <= len(words) <= len(positionals):
        return None
    values = {"command": argv[0]}
    for name, keywords in arguments:
        if name.startswith("--"):
            if name not in given and keywords.get("required"):
                return None
            flag = keywords.get("action") == "store_true"
            values[name[2:]] = given.get(name, False if flag else keywords.get("default"))
        elif words:
            values[name] = _value(keywords, words.pop(0))
            if values[name] is None:
                return None
        else:
            values[name] = keywords.get("default")
    return SimpleNamespace(**values, func=func)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
