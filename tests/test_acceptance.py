"""Acceptance sweep: every criterion at its full size bound.

Each test prints one PASS/FAIL line so the whole gate can be read off a
`pytest -s tests/test_acceptance.py` run.  The same sweeps are reachable
from the command line via `schurkit verify all`.
"""

import time

from schurkit.verification import run_suite


def _report(number, label, result, extra=""):
    status = "PASS" if result.ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} {result.checked} checks{extra}")
    assert result.ok, f"{label}: {result.failures[:5]}"


def test_acceptance_01_lr_vs_oracle():
    start = time.time()
    result = run_suite("lr-oracle", 10)
    elapsed = time.time() - start
    _report(1, "LR products vs polynomial oracle, degree <= 10, n = l(mu) + l(nu)", result,
            f", {elapsed:.1f}s")
    assert elapsed < 120.0


def test_acceptance_02_signed_cancellation():
    result = run_suite("lr-signed", 9)
    _report(2, "signed pair sums and involution", result)


def test_acceptance_03_jacobi_trudi_consistency():
    from schurkit.partitions import partitions_of
    from schurkit.polyval import jacobi_trudi_eval_check
    from schurkit.verification import SuiteResult

    failures = []
    checked = 0
    for k in range(9):
        for lam in partitions_of(k):
            checked += 1
            if not jacobi_trudi_eval_check(lam, 8):
                failures.append(f"determinant evaluation fails: lam={lam}")
    _report(3, "determinant expansion vs tableau polynomials, n = 8",
            SuiteResult("jacobi-trudi", checked, failures))


def test_acceptance_04_bialternant():
    result = run_suite("bialternant", 6)
    _report(4, "quotient of alternants and alternant strips", result)


def test_acceptance_05_duality():
    result = run_suite("duality", 8)
    _report(5, "duality involution", result, " [duality]")
    newton = run_suite("newton", 8)
    _report(5, "alternating h/e convolution", newton, " [newton]")
    pieri = run_suite("pieri", 7)
    _report(5, "strip rules vs products, incl. dual flavor", pieri, " [pieri]")


def test_acceptance_06_mirror_identities():
    result = run_suite("mirror", 6)
    _report(6, "strip mirror identities, bounded and unbounded", result)


def test_acceptance_07_cauchy():
    result = run_suite("cauchy", 5)
    _report(7, "Cauchy kernels, slices and transition form", result)


def test_acceptance_08_skew_suite():
    result = run_suite("skew-jt", 8)
    _report(8, "skew determinants, skew coefficients, two alphabets", result)


def test_acceptance_09_kostka_matrix():
    result = run_suite("kostka", 8)
    _report(9, "Kostka unitriangularity and partition counts", result)


def test_acceptance_10_reduction():
    result = run_suite("reduction", 6)
    _report(10, "variable reduction formula", result)
