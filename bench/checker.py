"""Output checks from closed forms only.

Nothing here calls schurkit: an oracle that shares code with the path it
checks proves nothing.  Each check raises CheckError on a wrong output.

mult s[mu]*s[nu] -> sum c_lam s[lam]:
  * every lam has |mu| + |nu| boxes and contains mu and nu, every c_lam > 0;
  * sum c_lam f^lam = C(|mu|+|nu|, |mu|) f^mu f^nu (hook-length formula);
  * sum c_lam s_lam(1^n) = s_mu(1^n) s_nu(1^n) for n = 0..|mu|+|nu|
    (hook-content formula).  Both sides are polynomials in n of degree at
    most |mu|+|nu|, so these points prove the principal specialisation equal.
convert: per degree k, the principal specialisation at 1^n (n = 0..k) and
  the exponential specialisation (scaled by k!) agree between the input and
  the output.
verify: `PASS <count> instances` with the pinned count.
"""

from __future__ import annotations

import re
from collections import Counter
from math import comb, factorial, prod

Partition = tuple[int, ...]


class CheckError(ValueError):
    """An output that is malformed or disagrees with a closed form."""


_TERM_RE = re.compile(r"(?:([1-9]\d*)\*)?([shem])\[(\d+(?:,\d+)*)?\]")


def parse_expansion(text: str, basis: str) -> dict[Partition, int]:
    """Parse one printed ring element, e.g. `s[4,2] - 2*s[3,2,1]`, strictly."""
    if text == "0":
        return {}
    terms: dict[Partition, int] = {}
    pos, sign = 0, 1
    if text.startswith("-"):
        pos, sign = 1, -1
    while True:
        m = _TERM_RE.match(text, pos)
        if not m or m.group(2) != basis:
            raise CheckError(f"bad term at {text[pos:pos + 40]!r}")
        lam = tuple(int(x) for x in m.group(3).split(",")) if m.group(3) else ()
        if any(p <= 0 for p in lam) or any(a < b for a, b in zip(lam, lam[1:])):
            raise CheckError(f"not a partition: {lam}")
        if lam in terms:
            raise CheckError(f"repeated term {lam}")
        terms[lam] = sign * int(m.group(1) or 1)
        pos = m.end()
        if pos == len(text):
            return terms
        if text.startswith(" + ", pos):
            sign = 1
        elif text.startswith(" - ", pos):
            sign = -1
        else:
            raise CheckError(f"bad separator at {text[pos:pos + 40]!r}")
        pos += 3


def one_line(stdout: str) -> str:
    if not stdout.endswith("\n") or "\n" in stdout[:-1]:
        raise CheckError("expected exactly one line of output")
    return stdout[:-1]


def _cells(lam: Partition):
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    for i, row in enumerate(lam):
        for j in range(row):
            yield j - i, (row - j - 1) + (conj[j] - i - 1) + 1  # content, hook


def hook_product(lam: Partition) -> int:
    return prod(h for _, h in _cells(lam))


def syt_count(lam: Partition) -> int:
    """f^lam, the number of standard tableaux, by the hook-length formula."""
    return factorial(sum(lam)) // hook_product(lam)


def schur_ones(lam: Partition, n: int) -> int:
    """s_lam(1^n) by the hook-content formula."""
    num = prod(n + c for c, _ in _cells(lam))
    value, rem = divmod(num, hook_product(lam))
    if rem:
        raise ArithmeticError(f"hook-content quotient not integral for {lam}")
    return value


def h_ones(lam: Partition, n: int) -> int:
    return prod(comb(n + p - 1, p) for p in lam)


def e_ones(lam: Partition, n: int) -> int:
    return prod(comb(n, p) for p in lam)


def m_ones(lam: Partition, n: int) -> int:
    """Distinct rearrangements of lam padded with zeros to n slots."""
    if len(lam) > n:
        return 0
    return factorial(n) // (
        factorial(n - len(lam)) * prod(factorial(m) for m in Counter(lam).values())
    )


PRINCIPAL = {"s": schur_ones, "h": h_ones, "e": e_ones, "m": m_ones}


def exponential(basis: str, lam: Partition) -> int:
    """k! times the exponential specialisation (p1 -> t, p_r -> 0 for r > 1)."""
    k = sum(lam)
    if basis == "s":
        return syt_count(lam)
    if basis in ("h", "e"):
        return factorial(k) // prod(factorial(p) for p in lam)
    return 1 if all(p == 1 for p in lam) else 0


def _contains(inner: Partition, outer: Partition) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def check_mult(mu: Partition, nu: Partition, stdout: str) -> None:
    got = parse_expansion(one_line(stdout), "s")
    d = sum(mu) + sum(nu)
    for lam, c in got.items():
        if sum(lam) != d or c <= 0 or not (_contains(mu, lam) and _contains(nu, lam)):
            raise CheckError(f"impossible term {c}*s{list(lam)} in s{list(mu)}*s{list(nu)}")
    if sum(c * syt_count(lam) for lam, c in got.items()) != comb(d, sum(mu)) * syt_count(
        mu
    ) * syt_count(nu):
        raise CheckError(f"hook-length sum fails for s{list(mu)}*s{list(nu)}")
    for n in range(d + 1):
        want = schur_ones(mu, n) * schur_ones(nu, n)
        if sum(c * schur_ones(lam, n) for lam, c in got.items()) != want:
            raise CheckError(f"hook-content sum fails at n={n} for s{list(mu)}*s{list(nu)}")


def _by_degree(terms) -> dict[int, dict[Partition, int]]:
    out: dict[int, dict[Partition, int]] = {}
    for lam, c in terms:
        out.setdefault(sum(lam), {})[lam] = c
    return out


def check_convert(source: str, terms, target: str, stdout: str) -> None:
    want = _by_degree(terms)
    got = _by_degree(parse_expansion(one_line(stdout), target).items())
    if any(k not in want for k in got):
        raise CheckError(f"output has degrees {sorted(got)}, input {sorted(want)}")
    for k, src in want.items():
        out = got.get(k, {})
        pairs = ((source, src), (target, out))
        for n in range(k + 1):
            a, b = (sum(c * PRINCIPAL[basis](lam, n) for lam, c in t.items()) for basis, t in pairs)
            if a != b:
                raise CheckError(f"principal specialisation at n={n} differs in degree {k}")
        a, b = (sum(c * exponential(basis, lam) for lam, c in t.items()) for basis, t in pairs)
        if a != b:
            raise CheckError(f"exponential specialisation differs in degree {k}")


def check_verify(expected_checks: int, stdout: str) -> int:
    line = one_line(stdout)
    if line != f"PASS {expected_checks} instances":
        raise CheckError(f"expected PASS {expected_checks} instances, got {line!r}")
    return expected_checks
