import contextlib
import importlib.util
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from schurkit import cli, clear_caches, verification
from schurkit.cli import _build_parser, _read_argv, main
from schurkit.polyval import SparsePoly
from schurkit.ring import SymFunc
from schurkit.tableaux import SignedPair, Tableau, bz_involution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_examples(capsys):
    code, out, _ = run(capsys, "mult", "s[2,1]*s[2,1]")
    assert code == 0
    assert out.strip() == (
        "s[4,2] + s[4,1,1] + s[3,3] + 2*s[3,2,1] + s[3,1,1,1] + s[2,2,2] + s[2,2,1,1]"
    )
    code, out, _ = run(capsys, "mult", "s[]*s[3]")
    assert code == 0 and out.strip() == "s[3]"
    code, out, _ = run(capsys, "mult", "h[1]*s[1]", "--basis", "m")
    assert code == 0 and out.strip() == "m[2] + 2*m[1,1]"


def test_mult_json_round_trips(capsys):
    code, out, _ = run(capsys, "mult", "s[2,1]*s[1]", "--json")
    assert code == 0
    f = SymFunc.from_json(out)
    assert f == SymFunc("s", {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})


def test_convert(capsys):
    code, out, _ = run(capsys, "convert", "h[1,1]", "--basis", "s")
    assert code == 0 and out.strip() == "s[2] + s[1,1]"
    code, out, _ = run(capsys, "convert", "2*s[3,2,1] + s[4,2]", "--basis", "s")
    assert code == 0 and out.strip() == "s[4,2] + 2*s[3,2,1]"
    code, out, _ = run(capsys, "convert", "s[2,1]", "--basis", "m")
    assert code == 0 and out.strip() == "m[2,1] + 2*m[1,1,1]"
    code, out, _ = run(capsys, "convert", "2*s[3,2,1] + s[4,2]", "--basis", "h")
    assert code == 0 and out == "h[5,1] + h[4,2] - 2*h[4,1,1] - 2*h[3,3] + 2*h[3,2,1]\n"
    code, out, _ = run(capsys, "convert", "2*s[3,2,1] + s[4,2]", "--basis", "e")
    assert code == 0 and out == (
        "e[5,1] + e[4,2] - e[4,1,1] - 2*e[3,3] + 2*e[3,2,1] - e[3,1,1,1] - e[2,2,2] + e[2,2,1,1]\n"
    )
    code, out, _ = run(capsys, "convert", "s[1,1] - 3*s[2]", "--basis", "s")
    assert code == 0 and out == "-3*s[2] + s[1,1]\n"


def test_lr_and_kostka(capsys):
    code, out, _ = run(capsys, "lr", "[3,2,1]", "[2,1]", "[2,1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "lr", "[2]", "[]", "[1,1]")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "kostka", "[2,1]", "[]", "[1,1,1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "kostka", "[2,2]", "[1]", "[1,0,2]")
    assert code == 0 and out.strip() == "1"
    # a 0 part adds no boxes, so 3,000 of them are no deeper a walk
    code, out, err = run(capsys, "kostka", "[1]", "[]", "[" + "0," * 3000 + "1]")
    assert (code, out, err) == (0, "1\n", "")


def test_witnesses(capsys):
    code, out, _ = run(capsys, "lr", "[3,2,1]", "[2,1]", "[2,1]", "--witnesses")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "2"
    tableaux = json.loads(lines[1])
    assert len(tableaux) == 2
    assert all(t["outer"] == [3, 2, 1] and t["inner"] == [2, 1] for t in tableaux)
    code, out, _ = run(capsys, "kostka", "[2,1]", "[]", "[1,1,1]", "--witnesses", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 2 and len(payload["witnesses"]) == 2
    # the witnesses keep the entries that the count's zero parts skip
    code, out, _ = run(capsys, "kostka", "[2,1]", "[]", "[0,1,0,2]", "--witnesses")
    assert code == 0 and out == '1\n[{"outer": [2, 1], "inner": [], "rows": [[2, 4], [4]]}]\n'


def test_skew(capsys):
    code, out, _ = run(capsys, "skew", "[2,1]", "[1]")
    assert code == 0 and out.strip() == "s[2] + s[1,1]"
    code, out, _ = run(capsys, "skew", "[2,2]", "[1]", "--basis", "m")
    assert code == 0 and out.strip() == "m[2,1] + 2*m[1,1,1]"


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "[2]", "--vars", "2")
    assert code == 0 and out.strip() == "x1^2 + x1*x2 + x2^2"
    code, out, _ = run(capsys, "eval", "[2,1]", "[1]", "--vars", "2", "--json")
    assert code == 0
    poly = SparsePoly.from_json(out)
    assert poly == SparsePoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    code, out, _ = run(capsys, "eval", "[2,1]", "--vars", "2", "--json")
    assert code == 0 and out == (
        '{"n": 2, "terms": [{"exps": [2, 1], "coeff": "1"}, {"exps": [1, 2], "coeff": "1"}]}\n'
    )
    code, out, _ = run(capsys, "eval", "[]", "--vars", "2", "--json")
    assert code == 0 and out == '{"n": 2, "terms": [{"exps": [0, 0], "coeff": "1"}]}\n'


def test_deterministic_output(capsys):
    first = run(capsys, "mult", "s[3,1]*s[2,1]")
    second = run(capsys, "mult", "s[3,1]*s[2,1]")
    assert first == second


def test_parse_errors_exit_2(capsys):
    assert run(capsys, "mult", "s[1,2]*s[1]")[0] == 2
    assert run(capsys, "mult", "s[1]")[0] == 2
    assert run(capsys, "mult", "q[1]*s[1]")[0] == 2
    assert run(capsys, "convert", "s[1] + h[1]")[0] == 2
    assert run(capsys, "convert", "garbage")[0] == 2
    assert run(capsys, "lr", "[2,3]", "[]", "[1]")[0] == 2
    assert run(capsys, "verify", "nosuch", "3")[0] == 2
    assert run(capsys, "verify", "mirror", "-1") == (2, "", "error: bound must be nonnegative\n")
    assert run(capsys, "nosuchcommand")[0] == 2


# (expression, exit code, stdout, stderr) of malformed and unusual products,
# as the request path answered while it compiled its pattern per call
MULT_CORPUS = [
    ("s[1]**s[2]", 2, "", "error: expected a basis element like s[2,1], got 's[1]*'\n"),
    ("*s[1]", 2, "", "error: expected B[parts]*B[parts], got '*s[1]'\n"),
    ("s[1]*", 2, "", "error: expected B[parts]*B[parts], got 's[1]*'\n"),
    ("s[1]*t[2]", 2, "", "error: expected B[parts]*B[parts], got 's[1]*t[2]'\n"),
    ("s[1] *\n s[2]", 0, "s[3] + s[2,1]\n", ""),
    ("s[1]*s[2]*s[3]", 2, "", "error: expected a basis element like s[2,1], got 's[2]*s[3]'\n"),
    ("s[1]\u00a0*s[2]", 0, "s[3] + s[2,1]\n", ""),
]


def test_mult_splits_and_errors_as_before(capsys):
    for expr, *expected in MULT_CORPUS:
        assert list(run(capsys, "mult", expr)) == expected, expr


def test_verify_small_bounds(capsys):
    code, out, err = run(capsys, "verify", "mirror", "0", "--quiet")
    assert code == 0 and out.startswith("PASS")
    code, out, err = run(capsys, "verify", "newton", "3", "--quiet")
    assert code == 0 and out.startswith("PASS")
    # progress goes to stderr, stdout stays machine-parsable
    code, out, err = run(capsys, "verify", "kostka", "2")
    assert code == 0 and out.startswith("PASS") and "degree" in err


def test_verify_all_clears_memos_between_suites(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "clear_caches", lambda: calls.append(clear_caches()))
    assert main(["verify", "all", "2", "--quiet"]) == 0
    assert len(calls) == len(verification.SUITES) - 1
    # a single suite keeps the memos it finds
    assert main(["verify", "newton", "2", "--quiet"]) == 0
    assert len(calls) == len(verification.SUITES) - 1


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(verification, "newton_check", lambda r: False)
    code, out, err = run(capsys, "verify", "newton", "2", "--quiet")
    assert code == 1
    assert out.startswith("FAIL")
    assert "nonzero" in err


# check counts of every suite at bound 4, one per verdict
SUITE_CHECKS_AT_4 = {
    "bialternant": 185,
    "cauchy": 40,
    "duality": 88,
    "kostka": 49,
    "lr-oracle": 38,
    "lr-signed": 199,
    "mirror": 240,
    "newton": 4,
    "pieri": 120,
    "reduction": 48,
    "skew-jt": 232,
}


def test_run_suite_counts_every_check():
    assert sorted(verification.SUITES) == sorted(SUITE_CHECKS_AT_4)
    for name, checks in SUITE_CHECKS_AT_4.items():
        result = verification.run_suite(name, 4)
        assert (result.name, result.checked, result.failures) == (name, checks, [])


# the verify-sweep benchmark's pinned bounds and check counts, for the
# suites that read the packed and trusted cores
@pytest.mark.parametrize("name, bound, checks", [("lr-signed", 7, 4165), ("skew-jt", 7, 1871), ("mirror", 5, 380)])
def test_run_suite_counts_at_the_benchmark_bounds(name, bound, checks):
    result = verification.run_suite(name, bound)
    assert (result.checked, result.failures) == (checks, [])


def test_run_suite_collects_every_failure_in_order(monkeypatch):
    monkeypatch.setattr(verification, "bialternant_check", lambda lam, n: n != 4)
    monkeypatch.setattr(verification, "alternant_pieri_check", lambda lam, r, n: r != 1)
    result = verification.run_suite("bialternant", 1)
    assert result.checked == 40 and not result.ok
    expected = []
    for lam in ("()", "(1,)"):
        expected += [f"alternant strip fails: lam={lam}, r=1, n={n}" for n in (1, 2, 3)]
        expected += [
            f"bialternant fails: lam={lam}, n=4",
            f"alternant strip fails: lam={lam}, r=1, n=4",
        ]
    assert result.failures == expected


def test_run_suite_reports_a_fixed_involution(monkeypatch):
    monkeypatch.setattr(verification, "bz_involution", lambda pair, nu: pair)
    result = verification.run_suite("lr-signed", 3)
    assert result.checked == 49 and len(result.failures) == 16
    assert all(f.startswith("involution has a fixed point: ") for f in result.failures)
    assert result.failures[0] == (
        "involution has a fixed point: SignedPair(w=(0, 1), tableau=Tableau(1 2)) in (2,)/()"
    )


def test_run_suite_reports_an_involution_leaving_the_bad_set(monkeypatch):
    good = SignedPair((0,), Tableau((1,), (), [(1,)]))
    monkeypatch.setattr(verification, "bz_involution", lambda pair, nu: good)
    result = verification.run_suite("lr-signed", 3)
    assert result.checked == 49 and len(result.failures) == 16
    assert all(f.startswith("involution left the bad set: ") for f in result.failures)
    assert result.failures[-1] == (
        "involution left the bad set: SignedPair(w=(1, 0), tableau=Tableau(. 2 / 2)) in (2, 1)/(1,)"
    )


def test_run_suite_reports_an_involution_keeping_the_sign(monkeypatch):
    # the true image's filling under the pair's own w: bad, but not one of
    # the triple's bad pairs, so its badness is read from the filling
    monkeypatch.setattr(
        verification, "bz_involution", lambda pair, nu: SignedPair(pair.w, bz_involution(pair, nu).tableau)
    )
    result = verification.run_suite("lr-signed", 3)
    assert result.checked == 49 and len(result.failures) == 16
    assert all(f.startswith("involution kept the sign: ") for f in result.failures)


def test_run_suite_reports_an_involution_that_is_not_involutive(monkeypatch):
    # s[3] with nu = (1,1,1) has two bad pairs of each sign: a sign-reversing
    # 4-cycle over them.  One pair of s[2] with nu = (1,1) goes to a bad pair
    # of opposite sign outside its triple, whose image is computed afresh;
    # the other pair of s[2] still goes to it, which then goes elsewhere.
    a, b, c, d = (
        SignedPair(w, Tableau((3,), (), [rows]))
        for w, rows in (((0, 1, 2), (1, 2, 3)), ((0, 2, 1), (1, 3, 3)), ((1, 2, 0), (3, 3, 3)), ((1, 0, 2), (2, 2, 3)))
    )
    e = SignedPair((0, 1), Tableau((2,), (), [(1, 2)]))
    foreign = SignedPair((1, 0), Tableau((3,), (1,), [(2, 2)]))
    moves = {a: b, b: c, c: d, d: a, e: foreign}
    calls = []

    def involution(pair, nu):
        calls.append(pair)
        return moves.get(pair) or bz_involution(pair, nu)

    monkeypatch.setattr(verification, "bz_involution", involution)
    result = verification.run_suite("lr-signed", 3)
    assert result.checked == 49 and len(result.failures) == 6
    assert all(f.startswith("involution not involutive: ") for f in result.failures)
    assert result.failures[:2] == [
        "involution not involutive: SignedPair(w=(0, 1), tableau=Tableau(1 2)) in (2,)/()",
        "involution not involutive: SignedPair(w=(1, 0), tableau=Tableau(2 2)) in (2,)/()",
    ]
    assert all(f.endswith(" in (3,)/()") for f in result.failures[2:])
    # one image per bad pair, and one more for the image outside its triple
    # (a bad pair of s[3]/s[1] too, so it is asked twice in all)
    assert len(calls) == 16 + 1 and calls.count(foreign) == 2


def test_a_command_reads_the_degree_cap_once(capsys, monkeypatch):
    # the first cap check of a command reads SCHURKIT_MAX_DEGREE; the later
    # ones (the variable count, each term, each suite) reuse it
    monkeypatch.setattr(cli, "run_suite", lambda name, bound, progress: verification.SuiteResult(name, 1, []))
    getitem = os._Environ.__getitem__.__code__
    for argv in (
        ["eval", "[2,1]", "--vars", "2"],
        ["convert", "s[2] + s[1,1] + s[3]", "--basis", "h"],
        ["verify", "all", "--quiet"],
    ):
        reads = []

        def watch(frame, event, arg):
            if event == "call" and frame.f_code is getitem and frame.f_locals["key"] == "SCHURKIT_MAX_DEGREE":
                reads.append(argv)

        sys.setprofile(watch)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert (code, len(reads)) == (0, 1), argv


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "SCHURKIT_MAX_DEGREE is not an integer: 'abc'"),
        ("-1", "SCHURKIT_MAX_DEGREE must be nonnegative: -1"),
    ],
)
def test_a_bad_degree_cap_is_reported_after_input_errors(capsys, monkeypatch, value, message):
    monkeypatch.setenv("SCHURKIT_MAX_DEGREE", value)
    for argv in (["eval", "[2,1]", "--vars", "2"], ["verify", "all", "--quiet"]):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    # a malformed partition is found before the first cap check
    assert run(capsys, "lr", "[2,x]", "[1]", "[1]") == (2, "", "error: bad partition literal: '[2,x]'\n")


def test_degree_cap(capsys, monkeypatch):
    monkeypatch.setenv("SCHURKIT_MAX_DEGREE", "3")
    code, _, err = run(capsys, "lr", "[4,2]", "[1]", "[5]")
    assert code == 2 and "cap" in err
    code, _, _ = run(capsys, "lr", "[2,1]", "[1]", "[2]")
    assert code == 0
    monkeypatch.setenv("SCHURKIT_MAX_DEGREE", "junk")
    assert run(capsys, "lr", "[2,1]", "[1]", "[2]")[0] == 2


# ---------------------------------------------------------------------------
# argv routing: _read_argv reads plain argv from the command table, argparse
# parses the rest


ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("mult", "convert", "lr", "kostka", "skew", "eval", "verify")


def parsed(argv):
    """vars() of the namespace argparse returns for argv, or None when it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_build_parser().parse_args(argv))
    except SystemExit:
        return None


def assert_read_as_argparse(argv):
    """The reader declines argv, or returns what argparse returns for it;
    True when it read argv."""
    read = _read_argv(argv)
    if read is None:
        return False
    assert vars(read) == parsed(argv), argv
    return True


# values, well-formed or not, and every option spelling, right or wrong
TOKENS = (
    "[2,1]", "[]", "s[2,1]*s[1]", "2*s[2] + s[1,1]", "", "3", "0", "٣", "3.5", "x",
    "all", "h", "-1", "-x", "-", "--", "-h", "--help", "--json", "--basis", "--basis=h",
    "--bas", "--vars", "--vars=2", "--witnesses", "--quiet",
)


def argv_corpus():
    """Every command followed by up to three tokens, then random longer argv."""
    heads = [[c] for c in COMMANDS] + [[], ["nosuch"], ["Mult"], ["--json"]]
    for head in heads:
        for n in range(4):
            for tail in itertools.product(TOKENS, repeat=n):
                yield head + list(tail)
    rng = random.Random(15)
    for _ in range(3000):
        yield [rng.choice(COMMANDS)] + rng.choices(TOKENS, k=rng.randint(4, 7))


def test_reader_agrees_with_argparse():
    read = sum(assert_read_as_argparse(argv) for argv in argv_corpus())
    assert read > 1000


def test_reader_declines_what_argparse_alone_reads():
    # argparse accepts these, with the same or another meaning; the reader
    # leaves every one of them to it
    for argv in (
        ["mult", "s[1]*s[1]", "--basis=h"],
        ["mult", "s[1]*s[1]", "--bas", "h"],
        ["mult", "--", "s[1]*s[1]"],
        ["mult", "s[1]*s[1]", "--basis", "h", "--basis", "m"],
        ["mult", "s[1]*s[1]", "--json", "--json"],
        ["eval", "[2]", "--vars", "-1"],
        ["verify", "mirror", "-1"],
        ["verify", "--quiet", "mirror", "3"],
        ["eval", "--vars", "2", "[2,1]", "[1]"],
    ):
        assert _read_argv(argv) is None and parsed(argv) is not None, argv
    # argparse refuses these two: the optional positional is filled, empty,
    # before the option, and the later positional is one too many
    for argv in (["verify", "pieri", "--quiet", "3"], ["eval", "[2,1]", "--vars", "2", "[1]"]):
        assert _read_argv(argv) is None and parsed(argv) is None, argv


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_examples():
    block = (ROOT / "README.md").read_text().split("## Command line")[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("schurkit ")
    ]


def test_reader_reads_every_benchmark_and_readme_argv():
    workloads = load_workloads()
    argvs = [r["argv"] for rounds in (workloads.lr_rounds(1), workloads.convert_rounds(1))
             for _ in range(4) for r in next(rounds)]
    argvs += [r["argv"] for r in workloads.verify_requests()]
    examples = readme_examples()
    assert len(examples) == 10
    argvs += examples + [argv + ["--json"] for argv in examples if argv[0] != "verify"]
    for argv in argvs:
        assert assert_read_as_argparse(argv), argv


def test_readme_quick_tour_runs():
    # the library tour runs as written, and its comments that state a value hold
    block = (ROOT / "README.md").read_text().split("```python\n")[1].split("```")[0]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(block, namespace)
    claims = {}
    for line in block.splitlines():
        code, _, claim = line.partition("#")
        if claim:
            claims[code.strip()] = claim.strip().split("  ")[0]  # minus a remark
    printed = out.getvalue().splitlines()
    head, tail = claims["print(multiply(f, f))"].split(" ... ")
    assert printed[0].startswith(head) and printed[0].endswith(tail)
    assert printed[1:] == [claims['print(convert(f, "m"))'], claims["print(omega(f))"]]
    for code in (
        "straighten((1, 3))",
        "lr_coefficient((3, 2, 1), (2, 1), (2, 1))",
        "kostka((2, 1), (), (1, 1, 1))",
        "skew_schur((2, 2), (1,))",
        "eval_h(2, 2)",
        "eval_e(2, 3)",
        "eval_m((2, 1), 2)",
    ):
        assert str(eval(code, namespace)) == claims[code], code


def test_well_formed_argv_builds_no_parser(capsys):
    clear_caches()
    assert run(capsys, "mult", "s[1]*s[1]") == (0, "s[2] + s[1,1]\n", "")
    assert _build_parser.cache_info().currsize == 0


def test_help_is_argparse_usage_on_stdout(capsys):
    code, out, err = run(capsys, "--help")
    assert (code, out, err) == (0, _build_parser().format_help(), "")
    code, out, err = run(capsys, "mult", "--help")
    assert code == 0 and out.startswith("usage: schurkit mult [-h]") and err == ""


def test_malformed_argv_prints_usage_and_exits_2(capsys):
    for argv in (
        [],
        ["nosuch"],
        ["mult"],
        ["mult", "s[1]*s[1]", "--basis", "q"],
        ["eval", "[2,1]", "--vars", "2", "[1]"],
        ["verify", "pieri", "--quiet", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: schurkit"), argv


# Each argv runs in a child forked from a fresh interpreter that has only
# imported schurkit.cli, as the benchmark's request children are.  The child
# reports the watched functions that ran inside main.
_COLD_REQUEST_WATCH = """
import abc, io, json, os, sys, typing

try:
    from re import _compiler, _parser
except ImportError:  # Python 3.10
    import sre_compile as _compiler, sre_parse as _parser

sys.path.insert(0, sys.argv[1])
import schurkit.cli

FILES = {_parser.__file__, _compiler.__file__, typing.__file__}
CODES = {abc.ABCMeta.__instancecheck__.__code__, abc.ABCMeta.__subclasscheck__.__code__}
for argv in json.loads(sys.argv[2]):
    pid = os.fork()
    if pid:
        assert os.waitpid(pid, 0)[1] == 0, argv
        continue
    try:
        ran = set()

        def watch(frame, event, arg):
            code = frame.f_code
            if event == "call" and (code.co_filename in FILES or code in CODES):
                ran.add(f"{os.path.basename(code.co_filename)}:{code.co_name}")

        sys.stdout = sys.stderr = io.StringIO()
        sys.setprofile(watch)
        rc = schurkit.cli.main(argv)
        sys.setprofile(None)
        os.write(1, (json.dumps([argv, rc, sorted(ran)]) + "\\n").encode())
    finally:
        os._exit(0)
"""

COLD_ARGVS = [
    ["mult", "s[3,1]*s[2,2,1]"],
    *(["convert", f"{b}[3,1] + 2*{b}[2,2]", "--basis", "s" if b != "s" else "h"] for b in "shem"),
    ["lr", "[3,2,1]", "[2,1]", "[2,1]"],
    ["kostka", "[3,2]", "[1]", "[2,1,1]"],
    ["skew", "[3,2]", "[1]"],
    ["eval", "[2,1]", "--vars", "2"],
    ["verify", "newton", "3"],
]


def test_cold_requests_compile_no_pattern_and_run_no_abc_check():
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_REQUEST_WATCH, src, json.dumps(COLD_ARGVS)],
        capture_output=True,
        text=True,
        check=True,
    )
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [argv for argv, _, _ in reports] == COLD_ARGVS
    assert [report for report in reports if report[1:] != [0, []]] == []
