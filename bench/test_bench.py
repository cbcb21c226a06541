"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

harness.import_library()


def perturbed(basis: str, stdout: str):
    """Every output with exactly one coefficient moved by +1 or -1."""
    terms = checker.parse_expansion(stdout.rstrip("\n"), basis)
    for lam in terms:
        for delta in (1, -1):
            changed = dict(terms)
            changed[lam] += delta
            if not changed[lam]:
                del changed[lam]
            yield (workloads.expression(basis, list(changed.items())) or "0") + "\n"


def cold_stdout(argv: list[str]) -> str:
    outcome = harness.run_child([argv]).outcomes[0]
    assert outcome.rc == 0, outcome.stdout
    return outcome.stdout


@pytest.mark.parametrize(
    "mu, nu", [((2, 1), (3, 1, 1)), ((1,), (2, 2, 1, 1)), ((4, 2), (3, 3)), ((), (2, 1))]
)
def test_checker_rejects_each_mult_coefficient_off_by_one(mu, nu):
    stdout = cold_stdout(["mult", f"{workloads.fmt('s', mu)}*{workloads.fmt('s', nu)}"])
    checker.check_mult(mu, nu, stdout)
    for wrong in perturbed("s", stdout):
        with pytest.raises(checker.CheckError):
            checker.check_mult(mu, nu, wrong)


@pytest.mark.parametrize("source, target", workloads.BASIS_PAIRS)
def test_checker_rejects_each_convert_coefficient_off_by_one(source, target):
    terms = [((4, 2, 1), 2), ((3, 3, 1), -1), ((2, 2, 1, 1, 1), 3)]
    argv = ["convert", workloads.expression(source, terms), "--basis", target]
    stdout = cold_stdout(argv)
    checker.check_convert(source, terms, target, stdout)
    for wrong in perturbed(target, stdout):
        with pytest.raises(checker.CheckError):
            checker.check_convert(source, terms, target, wrong)


def test_checker_rejects_wrong_verify_count():
    checker.check_verify(7, "PASS 7 instances\n")
    for wrong in ("PASS 6 instances\n", "FAIL 1/7 instances\n", "PASS 7 instances"):
        with pytest.raises(checker.CheckError):
            checker.check_verify(7, wrong)


def test_closed_forms_on_small_cases():
    assert [checker.syt_count(lam) for lam in ((3,), (2, 1), (3, 2), (2, 2, 1))] == [1, 2, 5, 5]
    # s_[2,1](x1,x2) = x1^2 x2 + x1 x2^2; s_[2](1^3) = h_2(1^3) = 6
    assert checker.schur_ones((2, 1), 2) == 2 and checker.schur_ones((2,), 3) == 6
    assert checker.m_ones((2, 1), 3) == 6 and checker.m_ones((1, 1), 3) == 3
    assert checker.h_ones((2,), 3) == 6 and checker.e_ones((1, 1), 3) == 9


def test_reference_work_is_fixed():
    # the unit of every end-to-end time: other work would change the unit
    assert harness.reference() == 8500


def test_fillings_count_tableaux():
    # standard tableaux of all shapes with n boxes: the involutions of n
    assert [workloads.fillings((), (1,) * n) for n in range(1, 7)] == [1, 2, 4, 10, 26, 76]
    # s[1] * h[2] = s[3] + s[2,1]; s[2,1] * h[1] adds one box in 3 ways
    assert workloads.fillings((1,), (2,)) == 2 and workloads.fillings((2, 1), (1,)) == 3


def test_cold_requests_do_not_share_memos():
    argv = ["convert", "h[12]", "--basis", "s"]
    first, second = (harness.run_child([argv]).outcomes[0].wall for _ in range(2))
    assert 1 / 2 < second / first < 2, (first, second)
    # the same two requests in one process: the second finds the matrix built
    warm = harness.run_child([argv, argv]).outcomes
    assert warm[1].wall < warm[0].wall / 5, warm


def test_both_orders_must_print_the_same_bytes():
    requests = [{"argv": ["x"], "pair": "0.1"}, {"argv": ["y"], "pair": "0.1"}, {"argv": ["z"]}]
    same = run.Run()
    run._check_pairs(same, requests, {0: "s[2]\n", 1: "s[2]\n", 2: "s[1]\n"})
    assert same.failed == 0
    differ = run.Run()
    run._check_pairs(differ, requests, {0: "s[2]\n", 1: "s[1,1]\n"})
    assert differ.failed == 1


def test_cold_run_repeats_requests_and_counts_each_once():
    requests = next(workloads.lr_rounds(7))[:4]  # two pairs, both orders
    measured = run.Run()
    clock = run.SetupClock(measured, 1.0)
    run._run_cold(measured, requests, 1.0, 7, clock, run._describe_mult, run._check_mult)
    clock.finish()
    assert measured.failed == 0 and measured.attempted > len(requests)
    assert len(measured.samples) == len(requests) and measured.runs() == measured.attempted
    assert len(measured.setup) == run.SETUP_SAMPLES


def _small_requests() -> list[list[str]]:
    lr = next(workloads.lr_rounds(7))
    rounds = workloads.convert_rounds(7)
    convert = next(rounds) + next(rounds)
    verify = [["verify", suite, "3", "--quiet"] for suite in sorted(workloads.VERIFY_BOUNDS)]
    return [req["argv"] for req in lr + convert] + verify


def test_traced_library_prints_the_same_bytes():
    argvs = _small_requests()
    plain = harness.run_child(argvs)
    traced = harness.run_child(argvs, traced=True)
    assert [o.stdout for o in traced.outcomes] == [o.stdout for o in plain.outcomes]
    assert all(o.rc == 0 for o in plain.outcomes)
    trace = traced.trace
    # the wrappers saw calls from one module into another
    assert trace["stats"]["tableaux.lr_coefficient"][0] > 0
    assert trace["stats"]["partitions.horizontal_strips_within"][0] > 0
    assert trace["stats"]["polyval.SparsePoly.mul"][0] > 0
    assert trace["stats"]["verification.suite_pieri"][0] == 1
    # module self times add up to the time spent inside cli.main
    wall = sum(o.wall for o in traced.outcomes)
    assert abs(sum(trace["self_time"].values()) / wall - 1) < 0.02


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    def first(rounds):
        return [req["argv"] for _ in range(3) for req in next(rounds)]

    assert first(workloads.lr_rounds(3)) == first(workloads.lr_rounds(3))
    assert first(workloads.lr_rounds(3)) != first(workloads.lr_rounds(4))
    assert first(workloads.convert_rounds(3)) == first(workloads.convert_rounds(3))
    assert first(workloads.convert_rounds(3)) != first(workloads.convert_rounds(4))
