"""Named property suites over bounded instance ranges.

Each suite sweeps every instance inside its size bound, counts checks, and
collects human-readable counterexample descriptions.  The CLI exposes these
as `schurkit verify SUITE BOUND`; the acceptance tests run them at their
canonical bounds.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

from .partitions import (
    conjugate,
    dominates,
    partition_count,
    partitions_of,
    subpartitions,
)
from .polyval import (
    alternant_pieri_check,
    bialternant_check,
    cauchy_truncated_check,
    jacobi_trudi_eval_check,
    product_oracle,
    reduction_check,
    variable_split_check,
)
from .ring import (
    SymFunc,
    cauchy_transition_check,
    convert,
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
from .tableaux import (
    bz_involution,
    is_bad_pair,
    kostka,
    lr_coefficient,
    signed_lr_pairs,
    signed_lr_sum,
)

Progress = Optional[Callable[[str], None]]


class SuiteResult(NamedTuple):
    name: str
    checked: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _partitions_up_to(bound: int):
    for k in range(bound + 1):
        yield from partitions_of(k)


def _tick(progress: Progress, message: str) -> None:
    if progress is not None:
        progress(message)


def suite_pieri(bound: int, progress: Progress = None) -> SuiteResult:
    """Strip expansion agrees with the generic product, both flavors."""
    checked, failures = 0, []
    for lam in _partitions_up_to(bound):
        _tick(progress, f"pieri: base {lam}")
        f = SymFunc.element("s", lam)
        for p in range(5):
            row = SymFunc.element("s", (p,) if p else ())
            col = SymFunc.element("s", (1,) * p)
            checked += 2
            if pieri_h(p, f) != multiply(row, f):
                failures.append(f"horizontal strips vs product: lam={lam}, p={p}")
            if pieri_e(p, f) != multiply(col, f):
                failures.append(f"vertical strips vs product: lam={lam}, p={p}")
    return SuiteResult("pieri", checked, failures)


def _lr_triples(bound: int):
    for lam in _partitions_up_to(bound):
        for mu in subpartitions(lam):
            for nu in partitions_of(sum(lam) - sum(mu)):
                yield lam, mu, nu


def suite_lr_signed(bound: int, progress: Progress = None) -> SuiteResult:
    """The alternating pair sum collapses to the plain LR count, and the
    sign-reversing involution behaves on every bad pair (smaller range)."""
    checked, failures = 0, []
    for lam, mu, nu in _lr_triples(bound):
        checked += 1
        if lr_coefficient(lam, mu, nu) != signed_lr_sum(lam, mu, nu):
            failures.append(f"signed sum mismatch: lam={lam}, mu={mu}, nu={nu}")
    _tick(progress, "lr-signed: signed sums done")
    involution_bound = min(bound, 6)
    for lam, mu, nu in _lr_triples(involution_bound):
        bad = [p for p in signed_lr_pairs(lam, mu, nu) if is_bad_pair(p)]
        for pair in bad:
            checked += 1
            image = bz_involution(pair, nu)
            if image == pair:
                failures.append(f"involution has a fixed point: {pair} in {lam}/{mu}")
            elif not is_bad_pair(image):
                failures.append(f"involution left the bad set: {pair} in {lam}/{mu}")
            elif image.sign != -pair.sign:
                failures.append(f"involution kept the sign: {pair} in {lam}/{mu}")
            elif bz_involution(image, nu) != pair:
                failures.append(f"involution not involutive: {pair} in {lam}/{mu}")
    _tick(progress, "lr-signed: involution done")
    return SuiteResult("lr-signed", checked, failures)


def suite_lr_oracle(bound: int, progress: Progress = None) -> SuiteResult:
    """Generic products agree with the brute-force polynomial oracle."""
    checked, failures = 0, []
    n = max(bound, 1)
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            _tick(progress, f"lr-oracle: degrees ({a},{b})")
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    checked += 1
                    got = multiply(SymFunc.element("s", mu), SymFunc.element("s", nu))
                    want = product_oracle(mu, nu, n)
                    if got._terms != want:
                        failures.append(f"oracle mismatch: mu={mu}, nu={nu}")
    return SuiteResult("lr-oracle", checked, failures)


def suite_mirror(bound: int, progress: Progress = None) -> SuiteResult:
    """Both strip identities, unbounded and length-restricted."""
    checked, failures = 0, []
    for lam in _partitions_up_to(bound):
        _tick(progress, f"mirror: base {lam}")
        ell = len(lam)
        for p in range(5):
            for n in (None, ell, ell + 1, ell + 2):
                checked += 1
                if not mirror_identity_check(lam, p, n):
                    failures.append(f"mirror identity fails: lam={lam}, p={p}, n={n}")
    return SuiteResult("mirror", checked, failures)


def suite_cauchy(bound: int, progress: Progress = None) -> SuiteResult:
    """Kernel slices against diagonal Schur sums, plus the transition-matrix
    form of the same pairing, both flavors."""
    checked, failures = 0, []
    for k in range(bound + 1):
        _tick(progress, f"cauchy: degree {k}")
        for dual in (False, True):
            kind = "dual" if dual else "plain"
            for n in (1, 2, 3):
                checked += 1
                if not cauchy_truncated_check(k, n, dual=dual):
                    failures.append(f"{kind} kernel slice fails: k={k}, n={n}")
            checked += 1
            if not cauchy_transition_check(k, dual=dual):
                failures.append(f"{kind} transition pairing fails: k={k}")
    return SuiteResult("cauchy", checked, failures)


def suite_bialternant(bound: int, progress: Progress = None) -> SuiteResult:
    """Quotient-of-alternants and the alternant strip expansion."""
    checked, failures = 0, []
    for lam in _partitions_up_to(bound):
        for n in range(max(len(lam), 1), 5):
            checked += 1
            if not bialternant_check(lam, n):
                failures.append(f"bialternant fails: lam={lam}, n={n}")
            for r in range(4):
                checked += 1
                if not alternant_pieri_check(lam, r, n):
                    failures.append(f"alternant strip fails: lam={lam}, r={r}, n={n}")
        _tick(progress, f"bialternant: {lam} done")
    return SuiteResult("bialternant", checked, failures)


def suite_reduction(bound: int, progress: Progress = None) -> SuiteResult:
    """Last-variable reduction of tableau polynomials."""
    checked, failures = 0, []
    for lam in _partitions_up_to(bound):
        for n in range(1, 5):
            checked += 1
            if not reduction_check(lam, n):
                failures.append(f"reduction fails: lam={lam}, n={n}")
        _tick(progress, f"reduction: {lam} done")
    return SuiteResult("reduction", checked, failures)


def suite_skew_jt(bound: int, progress: Progress = None) -> SuiteResult:
    """Skew determinants against LR expansions, skew monomial coefficients
    against tableau counts, the skew mirror sum, the two-alphabet split, and
    the determinant evaluated as polynomials."""
    checked, failures = 0, []
    for lam in _partitions_up_to(bound):
        _tick(progress, f"skew-jt: outer {lam}")
        size = sum(lam)
        for mu in subpartitions(lam):
            target = skew_schur(lam, mu)
            checked += 1
            if convert(skew_jacobi_trudi(lam, mu, "h"), "s") != target:
                failures.append(f"h determinant mismatch: lam={lam}, mu={mu}")
            checked += 1
            dual = skew_schur(conjugate(lam), conjugate(mu))
            if convert(skew_jacobi_trudi(lam, mu, "e"), "s") != dual:
                failures.append(f"e determinant mismatch: lam={lam}, mu={mu}")
            checked += 1
            weights = convert(target, "m")._terms
            expected = {
                nu: v
                for nu in partitions_of(size - sum(mu))
                if (v := kostka(lam, mu, nu))
            }
            if weights != expected:
                failures.append(f"skew monomial coefficients: lam={lam}, mu={mu}")
            if size <= min(bound, 7):
                checked += 1
                if not skew_mirror_check(lam, mu):
                    failures.append(f"skew mirror sum fails: lam={lam}, mu={mu}")
        if size <= min(bound, 6):
            checked += 1
            if not variable_split_check(lam, 2, 2):
                failures.append(f"two-alphabet split fails: lam={lam}")
        checked += 1
        if not jacobi_trudi_eval_check(lam, max(bound, 1)):
            failures.append(f"determinant evaluation fails: lam={lam}")
    return SuiteResult("skew-jt", checked, failures)


def suite_duality(bound: int, progress: Progress = None) -> SuiteResult:
    """The duality involution: conjugation on Schur indices, tag swap on the
    generator bases, involutivity, and multiplicativity on sampled pairs."""
    checked, failures = 0, []
    for lam in _partitions_up_to(bound):
        f = SymFunc.element("s", lam)
        checked += 1
        if omega(f) != SymFunc.element("s", conjugate(lam)):
            failures.append(f"conjugation mismatch: lam={lam}")
        checked += 1
        if omega(omega(f)) != f:
            failures.append(f"not involutive on s: lam={lam}")
        checked += 1
        if omega(SymFunc.element("h", lam)) != SymFunc.element("e", lam):
            failures.append(f"tag swap mismatch: lam={lam}")
        checked += 1
        g = SymFunc.element("m", lam)
        if omega(omega(g)) != g:
            failures.append(f"not involutive on m: lam={lam}")
    _tick(progress, "duality: pointwise checks done")
    rng = random.Random(0)
    pool = [lam for lam in _partitions_up_to(min(bound, 6)) if lam]
    for _ in range(40):
        lam, mu = rng.choice(pool), rng.choice(pool)
        f, g = SymFunc.element("s", lam), SymFunc.element("s", mu)
        checked += 1
        if omega(multiply(f, g)) != multiply(omega(f), omega(g)):
            failures.append(f"not multiplicative: lam={lam}, mu={mu}")
    _tick(progress, "duality: sampled products done")
    return SuiteResult("duality", checked, failures)


def suite_newton(bound: int, progress: Progress = None) -> SuiteResult:
    """The alternating h/e convolution vanishes in every degree."""
    checked, failures = 0, []
    for r in range(1, bound + 1):
        checked += 1
        if not newton_check(r):
            failures.append(f"alternating convolution nonzero: r={r}")
        _tick(progress, f"newton: degree {r} done")
    return SuiteResult("newton", checked, failures)


def suite_kostka(bound: int, progress: Progress = None) -> SuiteResult:
    """Kostka matrices are dominance-unitriangular, and the partition
    enumeration agrees with the recurrence count."""
    checked, failures = 0, []
    for k in range(bound + 1):
        matrix = kostka_matrix(k)
        for lam, row in matrix.items():
            checked += 1
            if row.get(lam) != 1:
                failures.append(f"diagonal entry not 1: lam={lam}")
            for mu in row:
                checked += 1
                if not dominates(lam, mu):
                    failures.append(f"entry outside dominance: lam={lam}, mu={mu}")
        _tick(progress, f"kostka: degree {k} done")
    for k in range(max(bound, 10) + 1):
        checked += 1
        if len(partitions_of(k)) != partition_count(k):
            failures.append(f"partition count mismatch at k={k}")
    return SuiteResult("kostka", checked, failures)


SUITES: dict[str, Callable[[int, Progress], SuiteResult]] = {
    "pieri": suite_pieri,
    "lr-signed": suite_lr_signed,
    "lr-oracle": suite_lr_oracle,
    "mirror": suite_mirror,
    "cauchy": suite_cauchy,
    "bialternant": suite_bialternant,
    "reduction": suite_reduction,
    "skew-jt": suite_skew_jt,
    "duality": suite_duality,
    "newton": suite_newton,
    "kostka": suite_kostka,
}

# bounds at which the suites constitute the full acceptance sweep
ACCEPTANCE_BOUNDS: dict[str, int] = {
    "pieri": 7,
    "lr-signed": 8,
    "lr-oracle": 8,
    "mirror": 6,
    "cauchy": 5,
    "bialternant": 6,
    "reduction": 6,
    "skew-jt": 8,
    "duality": 8,
    "newton": 8,
    "kostka": 8,
}


def run_suite(name: str, bound: int, progress: Progress = None) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    return SUITES[name](bound, progress)
