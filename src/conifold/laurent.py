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
collide).  The pairing looks up [W^b] at -k.

W^{a+1} = W^a * W is formed through W's binomial factors.  A conifold
square puts x^v (1 + x^a)(1 + x^b) into the vertex polynomial, as in
nodal_03's W = (1 + x)(1 + y)(z + 1/(xyz)) (Minkowski polynomials,
Akhtar-Coates-Galkin-Kasprzyk, SIGMA 8 (2012) 094).  ``_plan`` writes
W = (1 + y^t) A + R once per call, and G = W^a is multiplied by A's leaf
monomial in one dict comprehension, by each lone monomial (s, c) in one
shifted add acc[k + s] += c * G[k] (with no multiply when c = 1), and by
each 1 + y^t in one in-place pass.  A and A + t lie in supp W, so every
exponent formed lies in (a + 1) P, where the packing is injective.  The
term updates stay within the |W^a| * |W| the budget charges: by
induction, cost(W) <= cost(A) + |A| |G| + |R| |G| <= |W| |G|, as G A has
at most |A| |G| terms and |W| = 2 |A| + |R|.  Zero coefficients are
dropped from W^{a+1} only when W has a coefficient that is not positive:
with positive coefficients nothing cancels.

Every monomial of W^d lies in d v0 + L, L the lattice spanned by the
differences of W's monomials, so c_d = 0 unless m = [L' : L] divides d,
L' the lattice spanned by the monomials (a Fano of index r has its period
in t^r: Coates-Corti-Galkin-Kasprzyk, Geom. Topol. 20 (2016)).  On the
bundled corpus m is 4 (p3), 3 (nodal_01), 2 (octahedron, nodal_03) and
1 (p2xp1, nodal_02).  In dimension 3 ``_grading`` finds m =
index(L) / index(L') when L and L' have one rank k, each index the gcd of
the k x k minors of a spanning set (``_index``); m = 1 in other
dimensions or ranks, which is always sound.  So a free-sum part below
that runs the engine, of rank 1 or 2, is graded in its own plane or
line, as p2xp1's part x + y + 1/(xy) would be with m = 3.
From d = 4 on the pairing runs only where m divides d.  m is not taken
when c_2 and c_3 are both nonzero, since c_d != 0 forces m | d.

The plan also writes W in the Minkowski form
W = sum_k c_k y^(rho_k) prod_(j in B_k) (1 + y^(t_j)): the leaf and the
lone monomials are the K monomials c_k y^(rho_k), the J binomial steps
are the factors, and B_k holds the binomials planned after monomial k.
By the multinomial and binomial theorems c_d is one sum

    c_d = sum d! / prod_k n_k! * prod_k c_k^(n_k) * prod_j C(N_j, m_j),

N_j = sum_(k : j in B_k) n_k, over the lattice points (n, m) of the fibre
n >= 0, 0 <= m <= N, sum_k n_k = d, sum_k n_k rho_k + sum_j m_j t_j = 0.
The fibre lies in the solutions of a 4 x (K + J + 1) integer system in
(n, m, d), of dimension f = K + J - rank over the columns of n and m.
``_fibre`` takes the system to fraction-free reduced echelon form
(``linalg.integer_rref``), so that every variable is (a x + b d) / D, D
the form's denominator, in the one free variable x when f = 1 and in d
alone (a = 0) when f = 0.  The (x, d) at which all of them are integers
form a lattice with a basis (s, 0), (r, e), found one variable at a time
by a gcd and a modular inverse: the fibre has points only at the d
divisible by e, and there at the x = r d / e mod s that the inequalities
bound to an interval.  That costs O(rows) per degree and one term per
point, never O(D): D is a minor of the exponents and grows with an
image's coordinates, so a scan over its residues would not.  When the
degree's column is a pivot, the fibre is empty past d = 0.  f is 0 or 1
on every bundled polytope and on each of its free-sum parts, with (K, J,
f) = (4, 0, 0) for p3, (3, 1, 0) for nodal_01, (4, 1, 1) for nodal_02,
(2, 2, 0) for nodal_03, (2, 0, 0) for each of the octahedron's three
segments, and (3, 0, 0) and (2, 0, 0) for p2xp1's triangle and segment:
p3's c_d = d! / ((d/4)!)^4 is one multinomial.  A W or part with f >= 2,
such as the hexagonal prism (4, 2, 2), runs the engine.

A product polytope's W, such as the octahedron's or p2xp1's, splits into
the parts that ``_parts`` finds, the components of the linear matroid of
a support spanning Q^3 or a plane.  Parts W_1, W_2 span complementary
subspaces, so f_1 + f_2 = 0 with f_i in W_i's span only when f_1 = f_2 =
0, and so const(W_1^k W_2^(d-k)) = const(W_1^k) const(W_2^(d-k)), and c_d
= sum_k C(d, k) a_k b_{d-k} from the parts' periods a and b (a third
part is folded in the same way).  A whole-W fibre would read a free sum
too, but the convolution of its parts' fibres is faster.

Parts and fibres are taken only when |W| C(top + |W| - 1, |W|) <=
PERIOD_WORK_BUDGET: W^a has at most C(a + |W| - 1, |W| - 1) terms, one
per multiset of a monomials, so the unsplit engine could not have
refused.  The parts hold |W| terms between them, and C(top + k - 1, k)
grows with k, so the engine's charges on the parts with f >= 2 sum to at
most the same bound; a fibre forms no power, charges nothing and raises
nothing.  So no run inside the guard is refused, and every other run is
unsplit, with the same charges, messages and exit codes as the engine.

``period_term_direct`` recomputes a single term from scratch as a sum
over exponent multi-combinations; it shares no code with the fast path
and exists to check it.  ``LaurentPolynomial`` only holds W's tuple
exponents; the general sparse product, which the tests use as a third
reference, is ``multiply`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, combinations, compress, repeat, starmap
from math import comb, factorial, gcd
from operator import add, eq, mul, neg, sub

from . import lattice, linalg
from .errors import BudgetExceeded, DimensionMismatch

ORACLE_DEGREE_CAP = 16
PERIOD_WORK_BUDGET = 10**7


class LaurentPolynomial:
    """Sparse map ``terms``: exponent tuple of length ``dim`` -> nonzero
    integer coefficient.  Equal exponents are summed on construction and
    zero sums dropped.  Do not mutate ``terms`` afterwards."""

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


def _plan(terms: dict):
    """How ``period_sequence`` multiplies by W, given W's packed terms
    {key: coefficient}: a leaf monomial and the steps after it, from
    W = (1 + y^t) * A + R with A planned the same way.  t is the most
    frequent difference between keys with equal coefficients, A the lower
    members of disjoint pairs {k, k + t} with equal coefficients, and R
    the unpaired monomials.  A step (t, None) multiplies by 1 + y^t and a
    step (s, c) adds c * y^s times the power being multiplied.  A factor
    is used only when it pairs at least two monomials; otherwise the leaf
    is the first monomial and every other one is a step of its own."""
    # two disjoint pairs {k1, k1 + t}, {k2, k2 + t} have k1 + (k2 + t) =
    # k2 + (k1 + t), so a factor needs a repeated sum of two monomials
    n = len(terms)
    if n > 3 and len(set(starmap(add, combinations(terms, 2)))) < n * (n - 1) // 2:
        keys = sorted(terms)
        diffs = starmap(sub, combinations(keys[::-1], 2))
        if len(set(terms.values())) > 1:
            diffs = compress(diffs, starmap(eq, combinations(map(terms.get, keys[::-1]), 2)))
        diffs = sorted(diffs)
        t = None
        # each pass keeps one copy fewer of every repeated difference
        while diffs := list(compress(diffs, map(eq, diffs, diffs[1:]))):
            t = diffs[0]
        if t is not None:
            lower, rest, free = {}, [], set(keys)
            for k in keys:
                if k in free:
                    c = terms[k]
                    if k + t in free and terms[k + t] == c:
                        free.remove(k + t)
                        lower[k] = c
                    else:
                        rest.append((k, c))
            if len(lower) > 1:
                leaf, steps = _plan(lower)
                return leaf, steps + [(t, None)] + rest
    items = list(terms.items())
    return items[0], items[1:]


def _index(vectors) -> tuple:
    """(k, g) for 3-vectors spanning a lattice L of rank k: g is the gcd of
    their k x k minors, which is [L_sat : L], L_sat the integer points of
    L's span (Cauchy-Binet on vectors = M B with B a basis of L and M an
    integer matrix whose k x k minors are coprime); (0, 0) when k = 0.
    The 3 x 3 minors are a . (b x e), and the 2 x 2 minors the entries of
    a x b; the scan stops once a 3 x 3 minor makes the gcd 1."""
    g3 = g2 = 0
    for i, a in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            c0, c1, c2 = lattice.cross(a, vectors[j])
            g2 = gcd(g2, c0, c1, c2)
            for e0, e1, e2 in vectors[j + 1:]:
                g3 = gcd(g3, c0 * e0 + c1 * e1 + c2 * e2)
            if g3 == 1:
                return 3, 1
    if g3 or g2:
        return (3, g3) if g3 else (2, g2)
    g1 = gcd(*chain.from_iterable(vectors))
    return (1, g1) if g1 else (0, 0)


def _grading(exponent: dict, leaf, steps) -> int:
    """m = [L' : L] for a W in 3 variables planned as ``leaf, steps``,
    ``exponent`` mapping W's keys to its exponents.  Every monomial is the
    leaf or a lone monomial plus some binomial shifts t, and the leaf plus
    each t is a monomial, so L is spanned by the differences from the leaf
    of the lone monomials and of each leaf + t.  That needs the keys to be
    injective on differences of monomials, as they are once top >= 2.
    When L' has L's rank, both lie in one L_sat and m is the ratio of
    their ``_index``; otherwise m = 1."""
    e = x0, y0, z0 = exponent[leaf]
    gens = [(x - x0, y - y0, z - z0) for x, y, z in
            [exponent[leaf + s if c is None else s] for s, c in steps]]
    k, index = _index(gens)
    if index < 2:
        return 1
    k1, index1 = _index([e] + gens)
    return index // index1 if k1 == k else 1


def _minkowski(terms: dict) -> tuple:
    """W's Minkowski form sum_k c_k y^(rho_k) prod_(j in B_k) (1 + y^(t_j))
    from its plan, for W in 3 variables: (coeffs, columns) in plan order,
    c_k and the column (rho_k, 1) for the leaf and each lone monomial, and
    None and (t_j, 0) for each binomial j, which multiplies the monomials
    planned before it (the k with j in B_k).  Keys in the balanced base
    4 M + 1 are injective on the sums and differences of two monomials
    that ``_plan`` compares, and the leaf plus each t_j is a monomial
    (``_grading``)."""
    base = 4 * max(map(abs, chain.from_iterable(terms))) + 1
    exponent = {x + base * (y + base * z): (x, y, z) for x, y, z in terms}
    (leaf, c), steps = _plan({k: terms[e] for k, e in exponent.items()})
    x0, y0, z0 = exponent[leaf]
    coeffs, columns = [c], [(x0, y0, z0, 1)]
    for s, c in steps:
        coeffs.append(c)
        if c is None:
            x, y, z = exponent[leaf + s]
            columns.append((x - x0, y - y0, z - z0, 0))
        else:
            columns.append((*exponent[s], 1))
    return coeffs, columns


def _fibre(terms: dict, dmax: int):
    """c_0 .. c_dmax of W in 3 variables as sums over the lattice points of
    its fibres (module docstring), or None when they have dimension f >=
    2.  Each variable is (a x + b d) / D in the free variable x (a = 0
    when f = 0), and it and each N_j - m_j must be a nonnegative integer.
    The (x, d) at which every variable is an integer form a lattice, built
    one variable at a time in the basis (step, 0), (r, every): d runs over
    the multiples of every, x over one class mod step, and the
    inequalities bound x to an interval.  The basis costs O(rows), never
    O(D): D is a minor of the exponents and grows with their size."""
    coeffs, columns = _minkowski(terms)
    n = len(columns)
    rows, pivots, det = linalg.integer_rref(list(zip(*columns, (0, 0, 0, -1))))
    free = [c for c in range(n) if c not in pivots]
    if len(free) > 1:
        return None
    cs = [1] + [0] * dmax
    if n in pivots:  # the degree's column: d = 0 is the one degree reached
        return cs
    sign = -1 if det > 0 else 1
    forms = [None] * n
    for row, c in zip(rows, pivots):
        forms[c] = (sign * row[free[0]] if free else 0, sign * row[n])
    det = abs(det)
    if free:
        forms[free[0]] = (det, 0)
    bounds, na, nb = list(forms), 0, 0
    for (a, b), c in zip(forms, coeffs):
        if c is None:
            bounds.append((na - a, nb - b))  # N_j - m_j
        else:
            na, nb = na + a, nb + b
    if any(b < 0 for a, b in bounds if not a):
        return cs
    bounds = [(a, b) for a, b in bounds if a]
    step, r, every = 1, 0, 1
    for a, b in forms:
        # a x + b d = 0 mod D, with x = u step + v r and d = v every
        alpha, beta = a * step, a * r + b * every
        g = gcd(alpha, det)
        v, m = g // gcd(g, beta), det // g
        r = (v * r - beta * v // g * pow(alpha // g, -1, m) * step) % (step * m)
        step, every = step * m, every * v
    for d in range(every, dmax + 1, every):
        lo, hi = 0, d if free else 0
        for a, b in bounds:
            if a > 0:
                lo = max(lo, -(b * d // a))
            else:
                hi = min(hi, b * d // -a)
        for x in range(lo + (r * (d // every) - lo) % step, hi + 1, step):
            # d! / prod n_k! is the product of C(n_0 + .. + n_k, n_k)
            term, total = 1, 0
            for (a, b), c in zip(forms, coeffs):
                e = (a * x + b * d) // det
                if c is not None:
                    total += e
                    term *= c ** e
                term *= comb(total, e)
            cs[d] += term
    return cs


# With a basis u, v, e of exponents, f = x u + y v + z e has x, y, z =
# f.(v x e), f.(e x u), f.(u x v) over det(u, v, e) (Cramer's rule).  Bit i
# of f's mask is set when f uses the i-th of u, v, e, and the basis vectors
# one f uses are joined: a matroid's components are those of the
# fundamental circuits of any basis.  On a plane, e is its normal u x v,
# which no exponent uses.
def _parts(terms: dict) -> list:
    """W's terms grouped by the components of the matroid of a support
    spanning Q^3 or a plane, the constant monomial joining u's; [terms]
    when there is one component or the support spans less."""
    u = v = e = None
    for f in terms:
        if u is None:
            u = f if any(f) else None
        elif v is None:
            v = f if any(n := lattice.cross(u, f)) else None
        elif lattice.dot(n, f):
            e = f
            break
    if v is None:
        return [terms]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = lattice.cross(v, e or n), lattice.cross(e or n, u), n
    parts = {1: {}, 2: {}, 4: {}} if e else {1: {}, 2: {}}  # basis vectors -> terms
    for (x, y, z), c in terms.items():
        mask = ((x * a0 + y * a1 + z * a2 != 0) | (x * b0 + y * b1 + z * b2 != 0) << 1
                | (x * c0 + y * c1 + z * c2 != 0) << 2 or 1)
        if mask not in parts:
            joined = {}
            for k in list(parts):
                if k & mask:
                    joined.update(parts.pop(k))
                    mask |= k
            if not parts:
                return [terms]
            parts[mask] = joined
        parts[mask][x, y, z] = c
    return list(parts.values())


def period_sequence(w: LaurentPolynomial, dmax: int) -> PeriodSequence:
    """c_d = constant term of W^d for d = 0 .. dmax.  c_{2a} pairs W^a
    with itself and c_{2a+1} pairs W^a with W^{a+1}, so the highest power
    formed is W^{ceil(dmax/2)}.  Exponents are packed into single ints,
    W^{a+1} is formed from W^a through the binomial factors of W's plan,
    and c_d is paired only when the grading m divides d; every other c_d
    is 0 (see the module docstring).  The pass that drops zero
    coefficients from W^{a+1} runs only when W has a coefficient that is
    not positive, since positive terms cannot cancel.  Raises
    BudgetExceeded once the term updates would pass
    ``PERIOD_WORK_BUDGET``.

    Forming W^{a+1} charges |W^a| * |W| term updates, for a = 0 .. top - 1,
    a bound on the updates the factored product makes.  When every
    coefficient of W is positive nothing cancels, so W^a holds the
    C(a + r, r) distinct sums of a points drawn from r + 1 affinely
    independent points of its support, r the support's affine rank, and
    the charges sum to at least |W| * C(top + r, r + 1).  A run whose
    bound passes the budget is refused before any work; the bound grows
    with r, so the rank is taken only when the bound with r = dim already
    passes.  Only when the unsplit engine could not have refused is a W in
    3 variables split into free-sum parts whose periods are convolved,
    each part, or W itself, read as a sum over its fibres when they have
    dimension 0 or 1 (module docstring)."""
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    size = len(w.terms)
    if w.dim == 3 and size and size * comb((dmax + 1) // 2 + size - 1, size) <= PERIOD_WORK_BUDGET:
        return PeriodSequence(tuple(_convolved(_parts(w.terms), dmax)))
    return PeriodSequence(tuple(_periods(w.terms, w.dim, dmax)))


def _convolved(parts: list, dmax: int) -> list:
    """c_0 .. c_dmax of the sum of free-sum parts in 3 variables, c_d =
    sum_k C(d, k) a_k b_(d - k) from two parts' periods a and b, each part
    read by ``_fibre``, or by the engine when its fibres have dimension 2
    or more; only the nonzero products are formed."""
    cs, *rest = [_fibre(part, dmax) or _periods(part, 3, dmax) for part in parts]
    for b in rest:
        a, cs = cs, [0] * (dmax + 1)
        for k, x in enumerate(a):
            if x:
                for l, y in enumerate(b[:dmax + 1 - k]):
                    if y:
                        cs[k + l] += comb(k + l, k) * x * y
    return cs


def _times(low: dict, s0, c0, steps, positive: bool) -> dict:
    """low * P on packed keys, for a P planned by ``_plan`` as the leaf
    (s0, c0) and ``steps``; zero coefficients are dropped unless every
    coefficient of P is positive."""
    high = ({k + s0: c for k, c in low.items()} if c0 == 1
            else {k + s0: c0 * c for k, c in low.items()})
    get = high.get
    for s, cv in steps:
        if cv is None:
            # in place: k + s gains the old value at k, read from a snapshot
            # of lists, not a second dict, that is let go 1024 entries at a
            # time so that old values do not pile up
            ks, vs = list(high), list(high.values())
            while ks:
                for k, c in zip(ks[-1024:], vs[-1024:]):
                    k += s
                    high[k] = get(k, 0) + c
                del ks[-1024:], vs[-1024:]
        else:
            for k, c in (low.items() if cv == 1
                         else [(k, cv * c) for k, c in low.items()]):
                k += s
                high[k] = get(k, 0) + c
    return high if positive else {k: c for k, c in high.items() if c}


def _periods(terms, dim, dmax):
    """``period_sequence``'s engine on W's terms in ``dim`` variables."""
    top = (dmax + 1) // 2
    size = len(terms)
    positive = min(terms.values(), default=1) > 0
    if positive and size * comb(top + dim, dim + 1) > PERIOD_WORK_BUDGET:
        r = lattice._affine_rank(list(terms))
        if size * comb(top + r, r + 1) > PERIOD_WORK_BUDGET:
            raise _over_budget(dmax)
    base = 2 * top * max(map(abs, chain.from_iterable(terms)), default=0) + 1
    powers = [base**i for i in range(dim)]
    keys = [sum(map(mul, e, powers)) for e in terms]
    if size and top:
        (s0, c0), steps = _plan(dict(zip(keys, terms.values())))
    else:  # dmax 0 forms no power, and W = 0 is the leaf 0 * y^0
        (s0, c0), steps = (0, 0), []
    cs = []
    low = {0: 1}
    work = 0
    m = 1
    for a in range(dmax // 2 + 1):
        if a == 2 and dim == 3 and size and not cs[2] * cs[3]:
            m = _grading(dict(zip(keys, terms)), s0, steps)
        cs.append(0 if 2 * a % m else
                  sum(map(mul, low.values(), map(low.get, map(neg, low), repeat(0)))))
        if 2 * a < dmax:
            work += len(low) * size
            if work > PERIOD_WORK_BUDGET:
                raise _over_budget(dmax)
            high = _times(low, s0, c0, steps, positive)
            cs.append(0 if (2 * a + 1) % m else
                      sum(map(mul, low.values(), map(high.get, map(neg, low), repeat(0)))))
            low = high
    return cs


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
