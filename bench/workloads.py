"""Seeded inputs for the three workloads.

Inputs come from the seed alone and are built with this file's own partition
enumeration, so generating them neither calls nor warms the library.  Each
cold workload is a sequence of rounds.  A run measures every request of the
first *_RUN_ROUNDS rounds of its seed at least once, so every run sees the
same mix of strata, degrees and routes, and counts each distinct request
once (run.py), so the speed of the host decides how often requests repeat,
not how much each weighs.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from typing import Iterator

Partition = tuple[int, ...]

# lr-products: the right factor's length l(nu) is the LR content length and
# drives the cost (about 4x per extra part).  l(nu) = 9 and degrees 13-14
# are left out: single requests there take up to 8 s, so a few draws would
# decide a whole run.
LR_STRATA = tuple(range(1, 9))
LR_DEGREES = (9, 10, 11, 12)
# A run's 256 requests visit each (stratum, degree) cell four times, once
# in each quarter of the cell's pairs ordered by cost: about 25 s at the
# seed commit on a 2-core host.
LR_VISITS = 4
LR_RUN_ROUNDS = LR_VISITS * len(LR_DEGREES)

# basis-change: a cold request is dominated by kostka_matrix(k), about x1.7
# per degree; one degree per request keeps the cost a function of k alone.
# Degree 13 (about 1 s a request) is left out so that a run can repeat its
# requests.
BASES = ("s", "h", "e", "m")
BASIS_PAIRS = tuple((a, b) for a in BASES for b in BASES if a != b)
CONVERT_DEGREES = (6, 7, 8, 9, 10, 11, 12)
# 84 requests, each (pair, degree) once: about 18 s at the seed commit on a
# 2-core host, so that a run can repeat them.
CONVERT_RUN_ROUNDS = len(BASIS_PAIRS)
COEFFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)

# verify-sweep: each suite at its acceptance bound minus one, pinned here so
# that a change to the library's own bounds does not change the workload,
# with the number of checks each must report.
VERIFY_BOUNDS = {
    "bialternant": 5,
    "cauchy": 4,
    "duality": 7,
    "kostka": 7,
    "lr-oracle": 7,
    "lr-signed": 7,
    "mirror": 5,
    "newton": 7,
    "pieri": 6,
    "reduction": 5,
    "skew-jt": 7,
}
VERIFY_CHECKS = {
    "bialternant": 260,
    "cauchy": 40,
    "duality": 220,
    "kostka": 290,
    "lr-oracle": 249,
    "lr-signed": 4165,
    "mirror": 380,
    "newton": 7,
    "pieri": 300,
    "reduction": 76,
    "skew-jt": 1871,
}


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts at most max_part, largest first."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions(n - first, first)
    )


def partitions_with_length(n: int, length: int) -> list[Partition]:
    return [p for p in partitions(n) if len(p) == length]


def fmt(basis: str, lam: Partition) -> str:
    return f"{basis}[{','.join(map(str, lam))}]"


@lru_cache(maxsize=None)
def horizontal_strips(lam: Partition, boxes: int) -> tuple[Partition, ...]:
    """Every partition obtained from lam by adding a horizontal strip of
    `boxes` boxes: row i grows to at most the old length of row i - 1."""
    rows = lam + (0,)
    out = []

    def grow(i: int, left: int, acc: tuple[int, ...]) -> None:
        if i == len(rows):
            if not left:
                out.append(tuple(x for x in acc if x))
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            grow(i + 1, left - add, acc + (rows[i] + add,))

    grow(0, boxes, ())
    return tuple(out)


def fillings(mu: Partition, nu: Partition) -> int:
    """Number of semistandard fillings of content nu over all skew shapes
    lam/mu (the sum over lam of K_{lam/mu, nu}), counted as chains of
    horizontal strips.  These are the tableaux the LR path of
    `mult s[mu]*s[nu]` enumerates; the count tracks a request's latency
    (log-log correlation 0.94 over 1280 measured requests)."""
    shapes = Counter({mu: 1})
    for part in nu:
        grown: Counter = Counter()
        for lam, ways in shapes.items():
            for bigger in horizontal_strips(lam, part):
                grown[bigger] += ways
        shapes = grown
    return sum(shapes.values())


@lru_cache(maxsize=None)
def lr_cell(length: int, degree: int) -> list[tuple[Partition, Partition]]:
    """Every pair (mu, nu) with l(nu) = length, mu nonempty and
    |mu| + |nu| = degree, cheapest first: ordered by the fillings of both
    orders, the work a round requests for the pair.  l(mu) stays within the
    strata too, since the swapped order s[nu]*s[mu] has content mu: without
    that, s[1]*s[1^11] (13.8 s, content length 11) came up in the top
    quarter of cell (1, 12) and alone decided the runs that drew it."""
    cell = [
        (mu, nu)
        for size in range(length, degree)
        for nu in partitions_with_length(size, length)
        for mu in partitions(degree - size)
        if len(mu) <= LR_STRATA[-1]
    ]
    return sorted(cell, key=lambda pair: (fillings(*pair) + fillings(pair[1], pair[0]), pair))


def lr_rounds(seed: int) -> Iterator[list[dict]]:
    """Rounds of `mult` requests: one pair per l(nu) stratum, each pair in
    both orders.  Stratum l in round r is drawn at degree
    LR_DEGREES[(r + l) % len(LR_DEGREES)], so every len(LR_DEGREES) rounds
    visit each (stratum, degree) cell once.

    The k-th visit to a cell takes the pair at fraction (u + k / LR_VISITS)
    mod 1 of the cell's list, ordered by cost, u drawn from the seed per
    cell.  Every LR_VISITS visits thus take one pair from each quantile of
    the cell's costs, which vary about 50x, and different seeds give
    different pairs with the same mix of costs."""
    rng = random.Random(seed)
    shift = {
        (length, d): rng.random() for length in LR_STRATA for d in LR_DEGREES
    }
    r = 0
    while True:
        batch = []
        for length in LR_STRATA:
            d = LR_DEGREES[(r + length) % len(LR_DEGREES)]
            cell = lr_cell(length, d)
            visit = r // len(LR_DEGREES)
            mu, nu = cell[int((shift[length, d] + visit / LR_VISITS) % 1.0 * len(cell))]
            for order, (left, right) in (("drawn", (mu, nu)), ("swapped", (nu, mu))):
                batch.append(
                    {
                        "argv": ["mult", f"{fmt('s', left)}*{fmt('s', right)}"],
                        "left": left,
                        "right": right,
                        "order": order,
                        "pair": f"{r}.{length}",
                        "class": f"{order}.{length}.{d}",
                    }
                )
        yield batch
        r += 1


def is_inverse_route(source: str, target: str) -> bool:
    """True when the conversion needs the inverse Kostka matrix: out of m,
    or into h or e."""
    return source == "m" or target in ("h", "e")


def convert_rounds(seed: int) -> Iterator[list[dict]]:
    """Rounds of `convert` requests, one per degree in CONVERT_DEGREES.
    Request i uses basis pair i mod 12 and degree i mod 7, so every 84
    requests cover each (pair, degree) once.  Seven degrees put the median
    and the 90th percentile inside one degree's cluster of latencies, not
    in the gap between two.  Each expression is 1 to 3
    distinct partitions of the degree with nonzero coefficients in -5..5,
    the first one positive."""
    rng = random.Random(seed)
    i = 0
    while True:
        batch = []
        for _ in CONVERT_DEGREES:
            source, target = BASIS_PAIRS[i % len(BASIS_PAIRS)]
            d = CONVERT_DEGREES[i % len(CONVERT_DEGREES)]
            shapes = rng.sample(partitions(d), rng.randint(1, 3))
            # a leading minus sign would read as an option to the CLI parser
            coeffs = [rng.randint(1, 5)] + [rng.choice(COEFFS) for _ in shapes[1:]]
            terms = list(zip(shapes, coeffs))
            batch.append(
                {
                    "argv": ["convert", expression(source, terms), "--basis", target],
                    "source": source,
                    "target": target,
                    "terms": terms,
                    "degree": d,
                    "class": f"degree.{d}",
                }
            )
            i += 1
        yield batch


def expression(basis: str, terms: list[tuple[Partition, int]]) -> str:
    out = []
    for k, (lam, c) in enumerate(terms):
        body = fmt(basis, lam) if abs(c) == 1 else f"{abs(c)}*{fmt(basis, lam)}"
        if k == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def verify_requests() -> list[dict]:
    """One sweep: every suite at its pinned bound, in sorted order like `verify all`."""
    return [
        {"argv": ["verify", name, str(VERIFY_BOUNDS[name]), "--quiet"], "suite": name}
        for name in sorted(VERIFY_BOUNDS)
    ]
