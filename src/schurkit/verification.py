"""Named property suites over bounded instance ranges.

Each suite is a generator that sweeps every instance inside its size bound
and yields one verdict per check: True, or a human-readable description of
the counterexample, built only when the check fails.  `run_suite` is the one
place that counts the verdicts and collects the failures.  The CLI exposes
the suites as `schurkit verify SUITE BOUND`; the acceptance tests run them at
their canonical bounds.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple, Optional, Union

from .partitions import (
    _nonneg,
    conjugate,
    dominates,
    partition_count,
    partitions_of,
    subpartitions,
)
from .polyval import (
    _peel,
    alternant_pieri_check,
    bialternant_check,
    cauchy_truncated_check,
    jacobi_trudi_eval_check,
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
# one per check: True, or the description of the failed instance
Verdicts = Iterator[Union[bool, str]]


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


def suite_pieri(bound: int, progress: Progress = None) -> Verdicts:
    """Strip expansion agrees with the generic product, both flavors."""
    for lam in _partitions_up_to(bound):
        _tick(progress, f"pieri: base {lam}")
        f = SymFunc.element("s", lam)
        for p in range(5):
            row = SymFunc.element("s", (p,) if p else ())
            col = SymFunc.element("s", (1,) * p)
            yield pieri_h(p, f) == multiply(row, f) or (
                f"horizontal strips vs product: lam={lam}, p={p}"
            )
            yield pieri_e(p, f) == multiply(col, f) or (
                f"vertical strips vs product: lam={lam}, p={p}"
            )


def _lr_triples(bound: int):
    for lam in _partitions_up_to(bound):
        for mu in subpartitions(lam):
            for nu in partitions_of(sum(lam) - sum(mu)):
                yield lam, mu, nu


def suite_lr_signed(bound: int, progress: Progress = None) -> Verdicts:
    """The alternating pair sum collapses to the plain LR count, and the
    sign-reversing involution behaves on every bad pair (smaller range)."""
    for lam, mu, nu in _lr_triples(bound):
        yield lr_coefficient(lam, mu, nu) == signed_lr_sum(lam, mu, nu) or (
            f"signed sum mismatch: lam={lam}, mu={mu}, nu={nu}"
        )
    _tick(progress, "lr-signed: signed sums done")
    for lam, mu, nu in _lr_triples(min(bound, 6)):
        # each bad pair's image is computed once; an image that is one of
        # these bad pairs has its own image here already
        images = {
            pair: bz_involution(pair, nu)
            for pair in signed_lr_pairs(lam, mu, nu)
            if is_bad_pair(pair)
        }
        for pair, image in images.items():
            known = image in images
            fault = (
                "has a fixed point" if image == pair
                else "left the bad set" if not (known or is_bad_pair(image))
                else "kept the sign" if image.sign != -pair.sign
                else "not involutive"
                if (images[image] if known else bz_involution(image, nu)) != pair
                else None
            )
            yield fault is None or f"involution {fault}: {pair} in {lam}/{mu}"
    _tick(progress, "lr-signed: involution done")


def suite_lr_oracle(bound: int, progress: Progress = None) -> Verdicts:
    """Generic products agree with the brute-force polynomial oracle, peeled
    in l(mu) + l(nu) variables: no lam in s_mu s_nu is longer."""
    for a in range(bound + 1):
        for b in range(bound + 1 - a):
            _tick(progress, f"lr-oracle: degrees ({a},{b})")
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    got = multiply(SymFunc.element("s", mu), SymFunc.element("s", nu))
                    n = max(len(mu) + len(nu), 1)
                    yield got._terms == _peel(mu, nu, n) or (
                        f"oracle mismatch: mu={mu}, nu={nu}"
                    )


def suite_mirror(bound: int, progress: Progress = None) -> Verdicts:
    """Both strip identities, unbounded and length-restricted."""
    for lam in _partitions_up_to(bound):
        _tick(progress, f"mirror: base {lam}")
        ell = len(lam)
        for p in range(5):
            for n in (None, ell, ell + 1, ell + 2):
                yield mirror_identity_check(lam, p, n) or (
                    f"mirror identity fails: lam={lam}, p={p}, n={n}"
                )


def suite_cauchy(bound: int, progress: Progress = None) -> Verdicts:
    """Kernel slices against diagonal Schur sums, plus the transition-matrix
    form of the same pairing, both flavors."""
    for k in range(bound + 1):
        _tick(progress, f"cauchy: degree {k}")
        for dual in (False, True):
            kind = "dual" if dual else "plain"
            for n in (1, 2, 3):
                yield cauchy_truncated_check(k, n, dual=dual) or (
                    f"{kind} kernel slice fails: k={k}, n={n}"
                )
            yield cauchy_transition_check(k, dual=dual) or (
                f"{kind} transition pairing fails: k={k}"
            )


def suite_bialternant(bound: int, progress: Progress = None) -> Verdicts:
    """Quotient-of-alternants and the alternant strip expansion."""
    for lam in _partitions_up_to(bound):
        for n in range(max(len(lam), 1), 5):
            yield bialternant_check(lam, n) or f"bialternant fails: lam={lam}, n={n}"
            for r in range(4):
                yield alternant_pieri_check(lam, r, n) or (
                    f"alternant strip fails: lam={lam}, r={r}, n={n}"
                )
        _tick(progress, f"bialternant: {lam} done")


def suite_reduction(bound: int, progress: Progress = None) -> Verdicts:
    """Last-variable reduction of tableau polynomials."""
    for lam in _partitions_up_to(bound):
        for n in range(1, 5):
            yield reduction_check(lam, n) or f"reduction fails: lam={lam}, n={n}"
        _tick(progress, f"reduction: {lam} done")


def suite_skew_jt(bound: int, progress: Progress = None) -> Verdicts:
    """Skew determinants against LR expansions, skew monomial coefficients
    against tableau counts, the skew mirror sum, the two-alphabet split, and
    the determinant evaluated as polynomials."""
    for lam in _partitions_up_to(bound):
        _tick(progress, f"skew-jt: outer {lam}")
        size = sum(lam)
        for mu in subpartitions(lam):
            target = skew_schur(lam, mu)
            yield convert(skew_jacobi_trudi(lam, mu, "h"), "s") == target or (
                f"h determinant mismatch: lam={lam}, mu={mu}"
            )
            dual = skew_schur(conjugate(lam), conjugate(mu))
            yield convert(skew_jacobi_trudi(lam, mu, "e"), "s") == dual or (
                f"e determinant mismatch: lam={lam}, mu={mu}"
            )
            expected = {
                nu: v
                for nu in partitions_of(size - sum(mu))
                if (v := kostka(lam, mu, nu))
            }
            yield convert(target, "m")._terms == expected or (
                f"skew monomial coefficients: lam={lam}, mu={mu}"
            )
            if size <= min(bound, 7):
                yield skew_mirror_check(lam, mu) or f"skew mirror sum fails: lam={lam}, mu={mu}"
        if size <= min(bound, 6):
            yield variable_split_check(lam, 2, 2) or f"two-alphabet split fails: lam={lam}"
        yield jacobi_trudi_eval_check(lam, max(bound, 1)) or (
            f"determinant evaluation fails: lam={lam}"
        )


def suite_duality(bound: int, progress: Progress = None) -> Verdicts:
    """The duality involution: conjugation on Schur indices, tag swap on the
    generator bases, involutivity, and multiplicativity on sampled pairs."""
    for lam in _partitions_up_to(bound):
        f = SymFunc.element("s", lam)
        yield omega(f) == SymFunc.element("s", conjugate(lam)) or (
            f"conjugation mismatch: lam={lam}"
        )
        yield omega(omega(f)) == f or f"not involutive on s: lam={lam}"
        yield omega(SymFunc.element("h", lam)) == SymFunc.element("e", lam) or (
            f"tag swap mismatch: lam={lam}"
        )
        g = SymFunc.element("m", lam)
        yield omega(omega(g)) == g or f"not involutive on m: lam={lam}"
    _tick(progress, "duality: pointwise checks done")
    rng = random.Random(0)
    pool = [lam for lam in _partitions_up_to(min(bound, 6)) if lam]
    for _ in range(40):
        lam, mu = rng.choice(pool), rng.choice(pool)
        f, g = SymFunc.element("s", lam), SymFunc.element("s", mu)
        yield omega(multiply(f, g)) == multiply(omega(f), omega(g)) or (
            f"not multiplicative: lam={lam}, mu={mu}"
        )
    _tick(progress, "duality: sampled products done")


def suite_newton(bound: int, progress: Progress = None) -> Verdicts:
    """The alternating h/e convolution vanishes in every degree."""
    for r in range(1, bound + 1):
        yield newton_check(r) or f"alternating convolution nonzero: r={r}"
        _tick(progress, f"newton: degree {r} done")


def suite_kostka(bound: int, progress: Progress = None) -> Verdicts:
    """Kostka matrices are dominance-unitriangular, and the partition
    enumeration agrees with the recurrence count."""
    for k in range(bound + 1):
        for lam, row in kostka_matrix(k).items():
            yield row.get(lam) == 1 or f"diagonal entry not 1: lam={lam}"
            for mu in row:
                yield dominates(lam, mu) or f"entry outside dominance: lam={lam}, mu={mu}"
        _tick(progress, f"kostka: degree {k} done")
    for k in range(max(bound, 10) + 1):
        yield len(partitions_of(k)) == partition_count(k) or f"partition count mismatch at k={k}"


SUITES: dict[str, Callable[[int, Progress], Verdicts]] = {
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
    "lr-signed": 9,
    "lr-oracle": 10,
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
    _nonneg(bound, "bound")
    checked, failures = 0, []
    for verdict in SUITES[name](bound, progress):
        checked += 1
        if isinstance(verdict, str):
            failures.append(verdict)
    return SuiteResult(name, checked, failures)
