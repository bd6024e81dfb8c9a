"""Sparse Laurent polynomials over arbitrary-precision integers, and
period sequences: constant terms of successive powers of the vertex
polynomial of a fan polytope.

Two period engines live here on purpose.  ``period_sequence`` is the fast
path: it pairs half powers of W by the identity

    c_{a+b} = const(W^a * W^b) = sum_e [W^a]_e * [W^b]_{-e},

so c_0 .. c_dmax need powers of W only up to top = ceil(dmax / 2).  The
identity is the definition of the coefficient of z^0 in a product of
Laurent polynomials; it holds for every coefficient ring and every
support, so it needs no condition on the Newton polytope of W.

Inside ``period_sequence`` an exponent vector e is packed into one int,
key(e) = sum_i e_i * B^i, in the balanced base B = 2 * top * M + 1, where
M is the largest |coordinate| in the support of W.  The key map is linear,
so key(e + f) = key(e) + key(f) and key(-e) = -key(e).  Every exponent of
W^a with a <= top has coordinates in [-top*M, top*M], which are exactly
the B digits of the balanced base, and a balanced-base expansion with
such digits is unique; so the map is injective on every exponent the
engine forms or looks up (a base one smaller lets distinct exponents
collide).  W^{a+1} is then W^a shifted once per monomial (s, c_v) of W,
acc[k + key(s)] += c_v * c, and the pairing looks up [W^b] at -k.  A
shift with c_v = 1, as for every monomial of a vertex polynomial, adds c
without a multiply.  Zero coefficients are dropped from W^{a+1} only when
W has a coefficient that is not positive: with positive coefficients
every sum is positive, so nothing cancels.

``period_term_direct`` recomputes a single term from scratch as a sum
over exponent multi-combinations; it shares no code with the fast path
and exists to check it.  ``LaurentPolynomial`` keeps tuple exponents and
a general sparse product, which the tests use as a third reference.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import comb, factorial
from operator import mul, neg

from . import lattice
from .errors import BudgetExceeded, DimensionMismatch

ORACLE_DEGREE_CAP = 16
PERIOD_WORK_BUDGET = 10**7


class LaurentPolynomial:
    """Immutable sparse map: exponent tuple -> nonzero integer coefficient.

    Do not mutate ``terms`` after construction; all operations return new
    objects.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms):
        items = terms.items() if hasattr(terms, "items") else terms
        clean: dict = {}
        for exp, coeff in items:
            e = tuple(exp)
            if len(e) != dim:
                raise DimensionMismatch(
                    f"exponent {e} has length {len(e)}, expected {dim}"
                )
            c = clean.get(e, 0) + coeff
            if c == 0:
                clean.pop(e, None)
            else:
                clean[e] = c
        self.dim = dim
        self.terms = clean

    @classmethod
    def one(cls, dim: int) -> "LaurentPolynomial":
        return cls(dim, {(0,) * dim: 1})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"cannot multiply polynomials in {self.dim} and {other.dim} variables"
            )
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        acc: dict = {}
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = acc.get(e, 0) + c1 * c2
                if c == 0:
                    acc.pop(e, None)
                else:
                    acc[e] = c
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.dim = self.dim
        out.terms = acc
        return out

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.dim, 0)


class PeriodSequence(namedtuple("PeriodSequence", "terms")):
    """Constant terms c_d of W^d for d = 0 .. dmax."""

    __slots__ = ()


def from_fan_polytope(p) -> LaurentPolynomial:
    """The vertex polynomial sum_v z^v of a polytope with the origin
    strictly inside; non-vertex boundary points contribute no term."""
    lattice.require_origin_interior(p)
    return LaurentPolynomial(p.dim, [(v, 1) for v in p.vertices])


def _over_budget(dmax: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"periods to degree {dmax} need more than "
        f"{PERIOD_WORK_BUDGET} term updates"
    )


def period_sequence(w: LaurentPolynomial, dmax: int) -> PeriodSequence:
    """c_d = constant term of W^d for d = 0 .. dmax.  c_{2a} pairs W^a
    with itself and c_{2a+1} pairs W^a with W^{a+1}, so the highest power
    formed is W^{ceil(dmax/2)}.  Exponents are packed into single ints
    (see the module docstring) and W^{a+1} is formed from W^a by one
    shifted add per monomial of W, with no multiply when its coefficient
    is 1.  The pass that drops zero coefficients from W^{a+1} runs only
    when W has a coefficient that is not positive, since positive terms
    cannot cancel.  Raises BudgetExceeded once the term updates would
    pass ``PERIOD_WORK_BUDGET``.

    Forming W^{a+1} charges |W^a| * |W| term updates, for a = 0 .. top - 1.
    When every coefficient of W is positive nothing cancels, so W^a holds
    the C(a + r, r) distinct sums of a points drawn from r + 1 affinely
    independent points of its support, r the support's affine rank, and
    the charges sum to at least |W| * C(top + r, r + 1).  A run whose
    bound passes the budget is refused before any work; the bound grows
    with r, so the rank is taken only when the bound with r = dim already
    passes."""
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    top = (dmax + 1) // 2
    positive = all(c > 0 for c in w.terms.values())
    if positive:
        def least_work(r):
            return len(w.terms) * comb(top + r, r + 1)

        if (least_work(w.dim) > PERIOD_WORK_BUDGET
                and least_work(lattice._affine_rank(list(w.terms))) > PERIOD_WORK_BUDGET):
            raise _over_budget(dmax)
    base = 2 * top * max((abs(x) for e in w.terms for x in e), default=0) + 1
    shifts = [
        (sum(x * base**i for i, x in enumerate(e)), c) for e, c in w.terms.items()
    ]
    cs = []
    low = {0: 1}
    work = 0
    for a in range(dmax // 2 + 1):
        cs.append(sum(map(mul, low.values(), map(low.get, map(neg, low), repeat(0)))))
        if 2 * a < dmax:
            work += len(low) * len(shifts)
            if work > PERIOD_WORK_BUDGET:
                raise _over_budget(dmax)
            acc: dict = {}
            get = acc.get
            for s, cv in shifts:
                for k, c in (low.items() if cv == 1
                             else [(k, cv * c) for k, c in low.items()]):
                    k += s
                    acc[k] = get(k, 0) + c
            high = acc if positive else {k: c for k, c in acc.items() if c}
            cs.append(sum(map(mul, low.values(), map(high.get, map(neg, low), repeat(0)))))
            low = high
    return PeriodSequence(tuple(cs))


def period_term_direct(w: LaurentPolynomial, d: int) -> int:
    """Brute-force oracle for one period term.

    Enumerates every way to pick d monomials of W whose exponents sum to
    zero and adds the multinomial d! / prod(a_v!) times the coefficient
    product.  Exponential in d, so refuses d above ``ORACLE_DEGREE_CAP``.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > ORACLE_DEGREE_CAP:
        raise BudgetExceeded(
            f"direct period term at degree {d} exceeds the cap of {ORACLE_DEGREE_CAP}"
        )
    items = sorted(w.terms.items())
    if not items:
        return 0
    n = len(items)
    dim = w.dim
    # suffix-wise coordinate bounds let us cut branches whose partial sum
    # cannot return to the origin with the remaining degree budget
    suf_min = [[0] * dim for _ in range(n + 1)]
    suf_max = [[0] * dim for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        e = items[i][0]
        for j in range(dim):
            suf_min[i][j] = min(e[j], suf_min[i + 1][j]) if i < n - 1 else e[j]
            suf_max[i][j] = max(e[j], suf_max[i + 1][j]) if i < n - 1 else e[j]
    fact = factorial(d)
    total = 0

    def walk(i: int, remaining: int, partial: tuple, denom: int, coeff: int):
        nonlocal total
        if remaining == 0:
            if all(x == 0 for x in partial):
                total += (fact // denom) * coeff
            return
        if i == n:
            return
        for j in range(dim):
            lo = partial[j] + remaining * suf_min[i][j]
            hi = partial[j] + remaining * suf_max[i][j]
            if lo > 0 or hi < 0:
                return
        e, c = items[i]
        # choose multiplicity a for monomial i
        power = 1
        for a in range(remaining + 1):
            if a:
                power *= c
            walk(
                i + 1,
                remaining - a,
                tuple(p + a * x for p, x in zip(partial, e)) if a else partial,
                denom * factorial(a),
                coeff * power,
            )

    walk(0, d, (0,) * dim, 1, 1)
    return total
