"""Exact sparse polynomials in finitely many variables.

This is the ground-truth side of the library: every ring-level identity has
a brute-force counterpart here, computed monomial by monomial with integer
coefficients.  Exponent vectors are dense tuples of fixed length n inside a
sparse term map.  Only inside a product and inside the tableau walk of
eval_s_tableau are they packed into single integers, a fixed number of
bytes per variable with x_1 most significant (Kronecker substitution);
every value either returns carries tuples again.  A product over disjoint
alphabets joins exponent vectors end to end instead: the identity checks
sum such products, and plain linear combinations, in one pass.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import mul, sub
from typing import Sequence

from .partitions import (
    Partition,
    _contains,
    _int,
    _interleaves,
    _ints,
    _nonneg,
    _strip_chains,
    _strip_extensions,
    _compositions,
    _conjugate,
    _strips,
    _subpartitions,
    normalize,
    pad,
    partitions_of,
)
from ._memo import memo
from ._sparse import SparseCombination, accumulate
from .raising import _staircase, jacobi_trudi_expand, perm_sign, straighten


class SparsePoly(SparseCombination):
    """A multivariate polynomial with big-integer coefficients.

    terms maps exponent tuples (length exactly n, nonnegative entries) to
    nonzero integers.  Values are immutable; arithmetic returns new objects.
    """

    __slots__ = ()
    _head_name = "n"
    _key_name = "exps"

    @staticmethod
    def _check_head(n) -> None:
        _nonneg(n, "variable count")

    def _key(self, exps) -> tuple[int, ...]:
        exps = _ints(exps, "exponents")
        if len(exps) != self._head or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for {self._head} variables")
        return exps

    @staticmethod
    def _body(exps: tuple[int, ...]) -> str:
        return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)

    @property
    def n(self) -> int:
        return self._head

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "SparsePoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n: int, exps: Sequence[int], coeff: int = 1) -> "SparsePoly":
        return cls(n, {tuple(exps): coeff})

    def _require_same_head(self, other: "SparsePoly") -> None:
        if self._head != other._head:
            raise ValueError(f"variable counts differ: {self._head} vs {other._head}")

    def __mul__(self, other):
        """The product with an int or a SparsePoly over the same variables.

        Polynomial products add exponent vectors packed into ints (one
        int add per term pair) and unpack each result term once.
        """
        if type(other) is int:
            return self.__rmul__(other)
        if type(other) is not SparsePoly:
            return NotImplemented
        self._require_same_head(other)
        # Kronecker substitution: every exponent of the product fits in
        # `width` bytes, so x^e packs to the int whose big-endian bytes are
        # those of e_1, ..., e_n, and adding packed keys adds exponent
        # vectors without carries
        n, width = self._head, _byte_width(self.degree() + other.degree())
        weights = [256 ** (width * i) for i in range(n - 1, -1, -1)]
        left = [(sum(map(mul, e, weights)), c) for e, c in self._terms.items()]
        right = [(sum(map(mul, e, weights)), c) for e, c in other._terms.items()]
        packed = accumulate((k1 + k2, c1 * c2) for k1, c1 in left for k2, c2 in right)
        return self._like({_unpack(k, width, n): c for k, c in packed.items()})

    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def __repr__(self) -> str:
        return f"SparsePoly({self._head}, {self})"


def _byte_width(degree: int) -> int:
    # bytes that hold any exponent up to degree
    return max(1, (degree.bit_length() + 7) // 8)


def _unpack(key: int, width: int, n: int) -> tuple[int, ...]:
    # inverse of packing n exponents of `width` bytes each, x_1 first
    raw = key.to_bytes(n * width, "big")
    if width == 1:  # every degree below 256: each byte is an exponent
        return tuple(raw)
    return tuple(int.from_bytes(raw[i : i + width], "big") for i in range(0, n * width, width))


# ---------------------------------------------------------------------------
# classical generators


def _symmetric_sum(r: int, n: int, choose) -> SparsePoly:
    # the monomials x_{i_1} ... x_{i_r} over the index tuples choose(range(n), r)
    if r < 0:
        return SparsePoly.zero(n)
    terms: dict[tuple[int, ...], int] = {}
    for combo in choose(range(n), r):
        e = [0] * n
        for i in combo:
            e[i] += 1
        terms[tuple(e)] = 1
    return SparsePoly._trusted(n, terms)


@memo
def _eval_h(r: int, n: int) -> SparsePoly:
    return _symmetric_sum(r, n, itertools.combinations_with_replacement)


def eval_h(r: int, n: int) -> SparsePoly:
    """The complete homogeneous function of degree r in n variables."""
    # before the memo: 2.0 and True hash equal to 2 and 1
    _int(r, "degree")
    SparsePoly._check_head(n)
    return _eval_h(r, n)


def eval_e(r: int, n: int) -> SparsePoly:
    """The elementary function of degree r in n variables (zero for r > n)."""
    _int(r, "degree")
    SparsePoly._check_head(n)
    return _symmetric_sum(r, n, itertools.combinations)


def _distinct_permutations(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Each rearrangement of a multiset exactly once (not n! with repeats)."""
    counts = dict.fromkeys(sorted(set(values)), 0)
    for v in values:
        counts[v] += 1
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk():
        if len(prefix) == len(values):
            out.append(tuple(prefix))
            return
        for v in counts:
            if counts[v]:
                counts[v] -= 1
                prefix.append(v)
                walk()
                prefix.pop()
                counts[v] += 1

    walk()
    return out


def eval_m(lam: Sequence[int], n: int) -> SparsePoly:
    """The monomial function: the sum over distinct rearrangements of lam
    into n exponent slots; zero when lam has more parts than variables."""
    lam = normalize(lam)
    SparsePoly._check_head(n)
    return _eval_m(lam, n)


def _eval_m(lam: Partition, n: int) -> SparsePoly:
    if len(lam) > n:
        return SparsePoly.zero(n)
    return SparsePoly._trusted(n, dict.fromkeys(_distinct_permutations(pad(lam, n)), 1))


@memo
def _h_monomial(beta: tuple[int, ...], n: int) -> SparsePoly:
    # beta sorted descending so prefixes are shared across callers
    if not beta:
        return SparsePoly.one(n)
    return _h_monomial(beta[:-1], n) * _eval_h(beta[-1], n)


def eval_h_monomial(beta: Sequence[int], n: int) -> SparsePoly:
    """Product of complete homogeneous functions indexed by beta."""
    SparsePoly._check_head(n)
    key = tuple(sorted((b for b in _ints(beta, "h indices") if b), reverse=True))
    if any(b < 0 for b in key):
        return SparsePoly.zero(n)
    return _h_monomial(key, n)


@memo
def _eval_s(lam: Partition, mu: Partition, n: int) -> SparsePoly:
    if not _contains(mu, lam):
        return SparsePoly.zero(n)
    if not n:
        return SparsePoly.one(0) if lam == mu else SparsePoly.zero(0)
    # shape nu -> {monomial in x_1..x_i: number of chains mu -> nu}; the
    # chains that meet in one shape continue together.  Monomials are packed
    # as in a product, x_1 most significant, so x_{i+1} appends one digit.
    width = _byte_width(sum(lam) - sum(mu))
    shift = 8 * width
    level: dict[Partition, dict[int, int]] = {mu: {0: 1}}
    for _ in range(n - 1):
        nxt: dict[Partition, dict[int, int]] = {}
        for nu, prefixes in level.items():
            size = sum(nu)
            for sigma in _strips(nu, lam, None):
                step = sum(sigma) - size
                acc = nxt.setdefault(sigma, {})
                get = acc.get
                for e, c in prefixes.items():
                    e = e << shift | step
                    acc[e] = get(e, 0) + c
        level = nxt
    # x_n adds the boxes of lam/nu, which must form a horizontal strip
    total = sum(lam)
    packed = accumulate(
        (e << shift | total - sum(nu), c)
        for nu, prefixes in level.items()
        if _interleaves(nu, lam)
        for e, c in prefixes.items()
    )
    return SparsePoly._trusted(n, {_unpack(e, width, n): c for e, c in packed.items()})


def eval_s_tableau(lam: Sequence[int], mu: Sequence[int] = (), n: int = 1) -> SparsePoly:
    """The (skew) Schur polynomial as a sum over tableaux of content monomials.

    A tableau is a chain of horizontal strips from mu up to lam in n steps,
    one step per variable; the number of boxes added at step i is the
    exponent of x_i.  Chains are not walked one by one: step i keeps, for
    each shape reached, its monomials in x_1..x_i with their counts, and the
    chains that reach one shape continue together, so the cost follows
    (shape, monomial) pairs rather than tableaux.
    """
    SparsePoly._check_head(n)
    return _eval_s(normalize(lam), normalize(mu), n)


def eval_sym_func(f, n: int) -> SparsePoly:
    """Evaluate a basis-tagged symmetric function in n variables, termwise."""
    SparsePoly._check_head(n)

    def image(lam: Partition) -> SparsePoly:
        if f.basis == "s":
            return _eval_s(lam, (), n)
        if f.basis == "h":
            return _h_monomial(lam, n)
        if f.basis == "e":
            return reduce(mul, (eval_e(part, n) for part in lam), SparsePoly.one(n))
        return _eval_m(lam, n)

    return _joined_sum(n, ((c, image(lam), _ONE) for lam, c in f._terms.items()))


_ONE = SparsePoly.one(0)  # as q in _joined_sum: a plain linear combination


def _joined_sum(n: int, terms) -> SparsePoly:
    """The sum of c * p(x) * q(y) over the (c, p, q) in terms, x the first p.n
    and y the last q.n of the n variables, in one accumulate pass: a term of
    p(x) q(y) joins an exponent vector of p to one of q."""
    pairs = (
        (ex + ey, c * cx * cy)
        for c, p, q in terms
        for ex, cx in p._terms.items()
        for ey, cy in q._terms.items()
    )
    return SparsePoly._trusted(n, accumulate(pairs))


# ---------------------------------------------------------------------------
# alternants and the classical quotient definition


def alternant(alpha: Sequence[int], n: int) -> SparsePoly:
    """The antisymmetrized monomial: sum of sign(w) x^{w(alpha)} over all
    permutations w of the n variables."""
    SparsePoly._check_head(n)
    alpha = _ints(alpha, "exponents")
    if any(a < 0 for a in alpha):
        raise ValueError("alternant exponents must be nonnegative")
    if len(alpha) > n:
        raise ValueError(f"exponent vector longer than {n} variables")
    padded = pad(alpha, n)
    return SparsePoly._trusted(
        n,
        accumulate(
            (tuple(padded[perm[i]] for i in range(n)), perm_sign(perm))
            for perm in itertools.permutations(range(n))
        ),
    )


def _staircase_shift(lam: Partition, n: int) -> tuple[int, ...]:
    rho = _staircase(n)
    lam_p = pad(lam, n)
    return tuple(lam_p[i] + rho[i] for i in range(n))


def bialternant_check(lam: Sequence[int], n: int) -> bool:
    """Division-free check of the quotient-of-alternants formula: the
    staircase-shifted alternant equals the tableau polynomial times the
    staircase alternant."""
    lam = normalize(lam)
    if len(lam) > _int(n, "variable count"):
        raise ValueError(f"partition has more than {n} parts")
    lhs = alternant(_staircase_shift(lam, n), n)
    rhs = _eval_s(lam, (), n) * alternant(_staircase(n), n)
    return lhs == rhs


def alternant_pieri_check(lam: Sequence[int], r: int, n: int) -> bool:
    """Check that multiplying a shifted alternant by a complete function
    expands over horizontal r-strip extensions of bounded length."""
    lam = normalize(lam)
    if len(lam) > _int(n, "variable count"):
        raise ValueError(f"partition has more than {n} parts")
    strips = _strip_extensions(lam, _nonneg(r, "strip size"), n)
    lhs = alternant(_staircase_shift(lam, n), n) * _eval_h(r, n)
    rhs = _joined_sum(n, ((1, alternant(_staircase_shift(mu, n), n), _ONE) for mu in strips))
    return lhs == rhs


# ---------------------------------------------------------------------------
# reduction, splitting, and consistency checks


def reduction_check(lam: Sequence[int], n: int) -> bool:
    """Check the variable-reduction formula: the tableau polynomial in n
    variables equals the sum over powers p of x_n^p times the tableau
    polynomials of the horizontal p-strip reductions in n-1 variables."""
    lam = normalize(lam)
    if _int(n, "variable count") < 1:
        raise ValueError("need at least one variable")
    # the merged walk of _eval_s applies this formula at its last step, so
    # the left side sums one monomial per tableau, walked chain by chain
    sizes = (list(map(sum, chain)) for chain in _strip_chains(lam, (), (None,) * n))
    lhs = SparsePoly._trusted(n, accumulate((tuple(map(sub, s[1:], s)), 1) for s in sizes))
    # the mu with lam/mu a horizontal strip are the strips over lam[1:] inside
    # lam, and x_n^|lam/mu| joins s_mu(x_1, ..., x_{n-1}) as its last exponent
    rhs = (
        (1, _eval_s(mu, (), n - 1), SparsePoly._trusted(1, {(sum(lam) - sum(mu),): 1}))
        for mu in _strips(lam[1:], lam, None)
    )
    return lhs == _joined_sum(n, rhs)


def jacobi_trudi_eval_check(lam: Sequence[int], n: int) -> bool:
    """Check the determinant expansion against the tableau polynomial: the
    signed h-index expansion, evaluated as products of complete functions,
    reproduces the tableau sum exactly."""
    lam = normalize(lam)
    SparsePoly._check_head(n)
    # the h-indices come sorted descending, as _h_monomial keys them
    terms = jacobi_trudi_expand(lam).items()
    total = _joined_sum(n, ((c, _h_monomial(beta, n), _ONE) for beta, c in terms))
    return total == _eval_s(lam, (), n)


def variable_split_check(lam: Sequence[int], a: int, b: int) -> bool:
    """Check the two-alphabet expansion: the tableau polynomial in a+b
    variables equals the sum over inner shapes mu of the skew polynomial in
    the first a variables times the straight polynomial in the last b."""
    lam = normalize(lam)
    SparsePoly._check_head(a)
    SparsePoly._check_head(b)
    rhs = ((1, _eval_s(lam, mu, a), _eval_s(mu, (), b)) for mu in _subpartitions(lam))
    return _eval_s(lam, (), a + b) == _joined_sum(a + b, rhs)


def h_split_check(lam: Sequence[int], a: int, b: int) -> bool:
    """Check the composition-indexed split: the tableau polynomial in a+b
    variables equals the signed sum of h-products in the first alphabet times
    straightened difference polynomials in the second."""
    lam = normalize(lam)
    SparsePoly._check_head(a)
    SparsePoly._check_head(b)

    def splits():
        for total in range(sum(lam) + 1):
            for alpha in _compositions(total, len(lam)):
                sp = straighten(tuple(map(sub, lam, alpha)))
                if sp.sign:
                    h_alpha = _h_monomial(tuple(sorted(filter(None, alpha), reverse=True)), a)
                    yield sp.sign, h_alpha, _eval_s(sp.partition, (), b)

    return _eval_s(lam, (), a + b) == _joined_sum(a + b, splits())


def product_oracle(
    mu: Sequence[int], nu: Sequence[int], n: int
) -> dict[Partition, int]:
    """Recover the Schur expansion of a product by brute polynomial force.

    Multiplies the two tableau polynomials in n variables and repeatedly
    peels the lexicographically leading term, which is the leading monomial
    of a unique Schur polynomial with unit coefficient.  Requires
    n >= |mu| + |nu| so that no contributing partition outruns the variables.
    """
    mu, nu = normalize(mu), normalize(nu)
    if _int(n, "variable count") < sum(mu) + sum(nu):
        raise ValueError(f"need at least {sum(mu) + sum(nu)} variables for faithfulness")
    return _peel(mu, nu, n)


def _peel(mu: Partition, nu: Partition, n: int) -> dict[Partition, int]:
    """The peel of product_oracle.  Trusted: canonical partitions and
    n >= max(l(mu) + l(nu), 1).  That many variables are faithful: every
    lam in s_mu s_nu has l(lam) <= l(mu) + l(nu), and in n >= l(lam)
    variables s_lam is nonzero with lex-leading monomial x^lam, coefficient
    1, so each peeled lead names one lam and no lam is lost."""
    prod = _eval_s(mu, (), n) * _eval_s(nu, (), n)
    work = dict(prod._terms)
    coeffs: dict[Partition, int] = {}
    while work:
        lead = max(work)
        lam = tuple(p for p in lead if p)
        if any(lead[i] < lead[i + 1] for i in range(len(lead) - 1)):
            raise ArithmeticError(
                f"leading exponent {lead} is not a partition; peeling failed"
            )
        c = work[lead]
        coeffs[lam] = c
        for e, v in _eval_s(lam, (), n)._terms.items():
            w = work.get(e, 0) - c * v
            if w:
                work[e] = w
            else:
                work.pop(e, None)
    return coeffs


def _zero_one_matrices(k: int, n: int):
    # the n x n 0/1 matrices with k ones, flattened row by row
    for ones in itertools.combinations(range(n * n), k):
        yield tuple(int(i in ones) for i in range(n * n))


def cauchy_truncated_check(k: int, n: int, dual: bool = False) -> bool:
    """Compare the degree-(k, k) slice of the Cauchy kernel in two alphabets
    of n variables against the diagonal sum of Schur polynomial products.

    The plain kernel is the product of geometric series 1/(1 - x_i y_j), the
    dual kernel the finite product of (1 + x_i y_j), paired with conjugate
    shapes on the Schur side.  Expanded, either is the sum over n x n
    matrices a of x^(row sums of a) y^(column sums of a): entries >= 0 for
    the plain kernel, 0 or 1 for the dual.  The slice keeps total k.
    """
    _nonneg(k, "degree")
    if _int(n, "variable count") < 1:
        raise ValueError("need at least one variable per alphabet")
    lhs = accumulate(
        (
            tuple(sum(a[i * n : i * n + n]) for i in range(n))
            + tuple(sum(a[j::n]) for j in range(n)),
            1,
        )
        for a in (_zero_one_matrices(k, n) if dual else _compositions(k, n * n))
    )
    rhs = (
        (1, _eval_s(lam, (), n), _eval_s(_conjugate(lam) if dual else lam, (), n))
        for lam in partitions_of(k)
    )
    return lhs == _joined_sum(2 * n, rhs)._terms
