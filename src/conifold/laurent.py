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
dimensions or ranks, which is always sound.  So the parts and prism
bases below that run the engine, of rank 1 or 2, are graded in their
own plane or line, as nodal_03's A' would be with m = 2 and p2xp1's part
x + y + 1/(xy) with m = 3.
From d = 4 on the pairing runs only where m divides d.  m is not taken
when c_2 and c_3 are both nonzero, since c_d != 0 forces m | d.

A simplex, a polynomial A = sum_k c_k y^(p_k) whose exponents p_0 ..
p_r are affinely independent (r <= 3), needs no powers.  By the
multinomial theorem [A^i]_q is the sum of i! / prod m_k! prod c_k^m_k over
the multisets m with sum m_k = i and sum m_k p_k = q, and affine
independence leaves at most one: sum_(k >= 1) m_k (p_k - p_0) = q - i p_0
fixes m_1 .. m_r, and then m_0.  ``_simplex`` completes the p_k - p_0 by
cross products to a basis of Q^3 and takes m from the dual vectors of
Cramer's rule; [A^i]_q = 0 unless m is a vector of nonnegative integers
and q - i p_0 has no coordinate along the completion.  So p3's c_d =
d! / ((d/4)!)^4 is one multinomial.  The splits below read every
polynomial they split W into as one multinomial when it is a simplex,
as every one of them is on the corpus, and run the engine or form powers
on any other; a read charges nothing and raises nothing.

A product polytope's W, such as the octahedron's or p2xp1's, splits into
the parts that ``_parts`` finds, the components of the linear matroid of
a support spanning Q^3 or a plane.  Parts W_1, W_2 span complementary
subspaces, so f_1 + f_2 = 0 with f_i in W_i's span only when f_1 = f_2 =
0, and so const(W_1^k W_2^(d-k)) = const(W_1^k) const(W_2^(d-k)), and c_d
= sum_k C(d, k) a_k b_{d-k} from the parts' periods a and b (a third
part is folded in the same way).  The octahedron's three segments and
p2xp1's triangle and segment are simplices.  The split is taken only
when |W| C(top + |W| - 1, |W|) <= PERIOD_WORK_BUDGET: W^a has at most
C(a + |W| - 1, |W| - 1) terms, one per multiset of a monomials, so the
unsplit engine could not have refused.  The parts hold |W| terms between
them, and C(top + k - 1, k) grows with k, so the engine's charges on the
parts sum to at most the same bound, and the split refuses no run
either; any other run is unsplit, with the same charges and messages.

A prism's W, such as nodal_03's, has the form W = (1 + y^t) A with A's
exponents of affine rank 1 or 2 on a plane phi = h, phi an integer
functional and phi(t) != 0 (nodal_03 has t = (1, 0, 0), phi = (2, 0,
-1), h = -1).  ``_prism`` finds this split.  W^d = sum_j C(d, j) y^(jt)
A^d, and phi is d h + j phi(t) on every exponent of y^(jt) A^d, so only
j = lambda d, with lambda = -h / phi(t) = p / q in lowest terms and q >
0, can reach the origin.  So c_d = C(d, lambda d) c'_d when lambda d is
an integer in [0, d], and c_d = 0 otherwise, where c' are the periods of
A' = {q a + p t : c_a}, which lies on the plane phi = 0: the constant
term of A'^d is the coefficient of y^(-lambda d t) in A^d, since scaling
by q is injective.  A' is split into parts like a product's W: nodal_03's
A' is the two segments 1/(x y^2 z^2) + x y^2 z^2 and 1/(x z^2) + x z^2
through the origin, and its c'_d the convolution of two central binomial
sequences.  The split is taken under the same bound as ``_parts``.  A'
has half W's terms, so the engine's charges on A''s parts sum to at most
|A'| C(top + |A'| - 1, |A'|) <= |W| C(top + |W| - 1, |W|) <=
PERIOD_WORK_BUDGET.  So the split refuses no run, and every run it
takes is one the unsplit engine admits; any other run is unsplit, with
the same charges, messages and exit codes as before.

An apexed prism's or a pyramid's W has one more monomial, the apex: W =
(1 + y^t)^eps A + c y^rho, eps in {0, 1}, with A of affine rank 1 or 2
on a plane phi = h, phi(t) != 0 when eps = 1 and phi(rho) != h when eps
= 0.  nodal_02 is (1 + x)(z + yz + 1/y) + 1/(xz) and nodal_01 is (1 +
x)(z + yz) + 1/(xyz^2), with A a triangle and a segment; p3 is a pyramid
over three of its vertices.  ``_prism`` finds an apexed prism in its
scan for prisms, which may leave one exponent unpaired, and a pyramid
from an affine basis of the support, which must hold the apex.  By the
binomial theorem W^d = sum_i C(d, i) c^(d - i) y^((d - i) rho) (1 +
y^t)^(eps i) A^i, and phi is j phi(t) + i h + (d - i) phi(rho) on every
exponent of y^(jt + (d - i) rho) A^i.  That level is 0 at the origin,
which forces j from d and i when eps = 1, and i from d when eps = 0
(then j = 0).  So c_d = sum_i C(d, i) C(eps i, j)
c^(d - i) [A^i]_(-jt - (d - i) rho), over the i at which j is an integer
in [0, eps i].  ``_reach`` lists those d for each i as an arithmetic
progression.  ``_apexed`` reads each [A^i] as one multinomial when A is
a simplex, as on the corpus, with q - i p_0 linear in (i, j, d - i), so
that a read is a few products of small integers; any other A has A^0,
A^1, ... formed once, each read at its degrees and dropped.

The apex split is taken under the bound of ``_parts``, and only when
|A| C(imax + |A| - 1, |A|) <= PERIOD_WORK_BUDGET, imax the last power it
reads: forming A^(i+1) through A's plan makes at most |A^i| |A| <= |A|
C(i + |A| - 1, |A| - 1) term updates (the induction above), which sum to
that bound.  The bound is kept for a simplex A too, whose powers are not
formed, so that the split is taken on the same runs whatever A is.  The
split charges nothing and raises nothing.  Under the
first bound the unsplit engine's charges sum to at most |W| C(top + |W| -
1, |W|) <= PERIOD_WORK_BUDGET, so the unsplit engine admits every run the
split takes, and returns the same integers (the identity above).  Every
other run is unsplit, with the charges, messages and exit codes of the
unsplit engine.  So no refusal, message or exit code moves.

In process at dmax 32 (2-vCPU host, Python 3.11, best of 15 runs
interleaved with the engine that formed powers), the six corpus periods
take 0.9 ms against 5.1 ms: p3 0.055 ms (0.96), nodal_01 0.15 (0.26),
nodal_02 0.29 (2.0), nodal_03 0.15 (0.87), the octahedron 0.17 (0.44)
and p2xp1 0.10 (0.58).

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

from . import lattice
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


def _simplex(terms: dict, t=(0, 0, 0), rho=(0, 0, 0)):
    """read(i, j, e) = [A^i]_q at q = -j t - e rho for A's terms in 3
    variables, or None unless A's exponents p_0 .. p_r are affinely
    independent.  The p_k - p_0 (k = 1 .. r), completed by cross products
    to a basis b_1, b_2, b_3 of Q^3, give each f its coordinates f . D_k /
    det in b, D_k = b_(k+1) x b_(k+2) with indices mod 3 (Cramer's rule).
    So the one multiset m with q - i p_0 = sum m_k (p_k - p_0) has m_k =
    (q - i p_0) . D_k / det for k <= r, needs (q - i p_0) . D_k = 0 for k
    > r, and gives [A^i]_q = i! / prod m_k! prod c_k^m_k (module
    docstring)."""
    (p0, c0), *rest = terms.items()
    b = [lattice.vsub(p, p0) for p, _ in rest] or [(1, 0, 0)]
    if len(b) == 1:
        b.append((0, b[0][2], -b[0][1]) if any(b[0][1:]) else (0, 1, 0))
    if len(b) == 2:
        b.append(lattice.cross(*b))
    duals = [lattice.cross(b[k - 2], b[k - 1]) for k in range(3)]
    if len(b) > 3 or not (det := lattice.dot(b[0], duals[0])):
        return None
    # the row of D_k holds -p_0 . D_k, -t . D_k and -rho . D_k
    rows = [(-lattice.dot(p0, v), -lattice.dot(t, v), -lattice.dot(rho, v)) for v in duals]
    checks, rows = rows[len(rest):], list(zip(rows, (c for _, c in rest)))

    def read(i, j=0, e=0):
        for p, s, r in checks:
            if i * p + j * s + e * r:
                return 0
        value, left = 1, i
        for (p, s, r), c in rows:
            m, rem = divmod(i * p + j * s + e * r, det)
            if rem or not 0 <= m <= left:
                return 0
            value *= comb(left, m) * c ** m
            left -= m
        return value * c0 ** left

    return read


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


def _plane(points: list, t):
    """(phi, h) with phi = h on ``points``, of affine rank 1 or 2, and
    phi(t) != 0; None otherwise.  phi is the points' normal when they span
    a plane, and u x (t x u) when they lie on a line of direction u."""
    a0 = points[0]
    u = None
    for a in points[1:]:
        d = lattice.vsub(a, a0)
        if u is None:
            u = d
        elif any(phi := lattice.cross(u, d)):
            break
    else:
        phi = lattice.cross(u, lattice.cross(t, u))
    h = lattice.dot(phi, a0)
    if lattice.dot(phi, t) and all(lattice.dot(phi, a) == h for a in points):
        return phi, h
    return None


def _prism(terms: dict):
    """W as (1 + y^t)^eps A + c y^rho, with A = {a: c_a for a in lower}
    on the plane phi = h: (t, lower, rho, phi, h), where t is None when
    eps = 0 and rho is None for an exact prism; None when W has no such
    form.  An exact prism (even |W| >= 6) and an apexed one (odd |W| >= 5)
    have A of affine rank 1 or 2 and phi(t) != 0; a pyramid (eps = 0,
    |W| >= 4) has rho off A's plane.

    Either of t and -t splits W, so t may be taken lexicographically
    positive: then the least exponent lies in A, or is the apex and the
    second least lies in A, and t is the difference from it of a later
    exponent.  A is the lower members of the pairs {a, a + t} taken in
    increasing order, each with a + t unpaired and of a's coefficient, and
    the one exponent left unpaired, if |W| is odd, is the apex.  As phi(t)
    != 0, a chain of W's exponents along t holds at most one of A and one
    of A + t besides the apex.  An apex one step of t below a member of A
    with that member's coefficient is paired with it, which leaves the
    chain's last member unpaired; when A then fails the plane test, the
    pairing is retried once with the chain's first member, two steps of t
    below the unpaired one, as the apex.  A pyramid's support spans Q^3
    only through its apex, so the apex is in every affine basis of it, and
    A's plane passes through the other three basis points."""
    n = len(terms)
    if n > 4:
        # keys in the balanced base 6 M + 1 order the exponents as their
        # (z, y, x) do, and are injective on a + t, with coordinates in
        # [-3 M, 3 M]
        base = 6 * max(map(abs, chain.from_iterable(terms))) + 1
        exponent = {x + base * (y + base * z): (x, y, z) for x, y, z in terms}
        coeff = {k: terms[e] for k, e in exponent.items()}
        keys = sorted(exponent)
        odd = n % 2
        for first in keys[:1 + odd]:
            for k in keys[keys.index(first) + 1:]:
                s, retry = k - first, odd
                lower, upper, apex = [], set(), None
                while True:
                    for a in keys:
                        if a not in upper:
                            if coeff.get(a + s) == coeff[a]:
                                lower.append(exponent[a])
                                upper.add(a + s)
                            elif odd and apex is None:
                                apex = a
                            else:
                                break
                    else:
                        t = lattice.vsub(exponent[k], exponent[first])
                        if plane := _plane(lower, t):
                            return (t, lower, exponent.get(apex), *plane)
                        if retry and apex - s in coeff:
                            retry, apex = False, apex - 2 * s
                            lower, upper = [], {apex}
                            continue
                    break
    exps = list(terms)
    # an affine basis e0, e1, e2, e of the support
    e0, e1, e2 = exps[0], None, None
    for e in exps:
        v = lattice.vsub(e, e0)
        if e1 is None:
            if any(v):
                e1, u = e, v
        elif e2 is None:
            if any(normal := lattice.cross(u, v)):
                e2 = e
        elif lattice.dot(normal, v):
            break
    else:
        return None
    basis = [e0, e1, e2, e]
    for k in (3, 2, 1, 0):
        apex, (p0, p1, p2) = basis[k], basis[:k] + basis[k + 1:]
        phi = lattice.cross(lattice.vsub(p1, p0), lattice.vsub(p2, p0))
        h = lattice.dot(phi, p0)
        lower = [a for a in exps if lattice.dot(phi, a) == h]
        if len(lower) == n - 1:
            return None, lower, apex, phi, h
    return None


def _level(prism) -> tuple:
    """(a, b, f, eps) with f > 0 for an apex split: phi is j phi(t) + i h +
    (d - i) phi(rho) on the exponents of y^(jt + (d - i) rho) A^i, and
    that level is 0 exactly when j f + i b + d a = 0.  A pyramid has eps =
    0 and j = 0, and takes f = |a|, or 1 when a = 0."""
    t, _, rho, phi, h = prism
    a = lattice.dot(phi, rho)
    b = h - a
    f, eps = (lattice.dot(phi, t), 1) if t else (abs(a) or 1, 0)
    return (a, b, f, eps) if f > 0 else (-a, -b, -f, eps)


def _reach(prism, dmax: int) -> list:
    """The powers i of A that the apex split reads to degree dmax, each
    with the degrees d that read it, as pairs (i, range of d) in
    increasing i.  An i reaches d when j f + i b + d a = 0 (``_level``)
    for an integer j in [0, eps i]: d a lies between -(eps f + b) i and
    -b i, and d a = -b i mod f, which needs g = gcd(a, f) to divide b i
    and then takes one residue of d mod f / g."""
    a, b, f, eps = _level(prism)
    g = gcd(a, f)
    step = f // g
    inverse = pow(a // g, -1, step)
    reach = []
    for i in range(0, dmax + 1, g // gcd(g, b)):
        low, high = -(eps * f + b) * i, -b * i
        if a > 0:
            lo, hi = -(-low // a), high // a
        elif a < 0:
            lo, hi = -(-high // a), low // a
        else:
            lo, hi = (i, dmax) if low <= 0 <= high else (1, 0)
        lo = max(lo, i)
        if ds := range(lo + (high // g * inverse - lo) % step, min(hi, dmax) + 1, step):
            reach.append((i, ds))
    return reach


def _apexed(terms: dict, prism, reach: list, dmax: int) -> list:
    """c_0 .. c_dmax of W = (1 + y^t)^eps A + c y^rho from [A^i] at the
    degrees ``_reach`` gives each i: W^d = sum_i C(d, i) c^(d - i)
    y^((d - i) rho) (1 + y^t)^(eps i) A^i, so c_d = sum C(d, i) C(i, j)
    c^(d - i) [A^i]_(-j t - (d - i) rho) over those (i, j).  A simplex's
    [A^i] is one multinomial (``_simplex``).  Any other A's powers are
    formed once, each read at its degrees and then dropped, with keys
    packed in the balanced base 2 dmax M + 1, M the largest |coordinate|
    of A, t and rho, whose digits hold every coordinate of A^i (i <= dmax)
    and of every exponent looked up."""
    t, lower, rho, _, _ = prism
    t = t or (0, 0, 0)
    c = terms[rho]
    a, b, f, _ = _level(prism)
    terms_a = {e: terms[e] for e in lower}
    if not (read := _simplex(terms_a, t, rho)):
        base = 2 * dmax * max(map(abs, chain(t, rho, *lower))) + 1
        kt, kr = (x + base * (y + base * z) for x, y, z in (t, rho))
        (s0, c0), steps = _plan({x + base * (y + base * z): v for (x, y, z), v in terms_a.items()})
        positive = min(terms_a.values()) > 0
        power, formed = {0: 1}, 0
    cs = [0] * (dmax + 1)
    for i, ds in reach:
        while not read and formed < i:
            power = _times(power, s0, c0, steps, positive)
            formed += 1
        for d in ds:
            j = -(i * b + d * a) // f
            if v := read(i, j, d - i) if read else power.get(-j * kt - (d - i) * kr):
                cs[d] += comb(d, i) * comb(i, j) * c ** (d - i) * v
    return cs


def _split(w: LaurentPolynomial, dmax: int):
    """W's free-sum parts and its prism split (``_parts`` and ``_prism``)
    as ``period_sequence`` takes them to degree dmax, with the apex
    split's ``_reach``: ([W's terms], None, None) unless W is in 3
    variables and |W| C(top + |W| - 1, |W|) is within the budget, and
    an apex split only when |A| C(imax + |A| - 1, |A|) is within it too."""
    size = len(w.terms)
    if w.dim == 3 and size and size * comb((dmax + 1) // 2 + size - 1, size) <= PERIOD_WORK_BUDGET:
        parts = _parts(w.terms)
        if len(parts) == 1 and (prism := _prism(w.terms)):
            if prism[2] is None:
                return parts, prism, None
            reach = _reach(prism, dmax)
            n = len(prism[1])
            if n * comb(reach[-1][0] + n - 1, n) <= PERIOD_WORK_BUDGET:
                return parts, prism, reach
        return parts, None, None
    return [w.terms], None, None


def _flat(terms: dict, prism):
    """(p, q, A') for an exact prism: p / q = -h / phi(t) in lowest terms
    with q > 0 and A' = {q a + p t : c_a}."""
    t, lower, _, phi, h = prism
    ft = lattice.dot(phi, t)
    g = gcd(h, ft) if ft > 0 else -gcd(h, ft)
    p, q = -h // g, ft // g
    return p, q, {tuple(q * x + p * y for x, y in zip(a, t)): terms[a] for a in lower}


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
    passes.  A product's W is split into parts whose periods are
    convolved, a prism's W = (1 + y^t) A into A' and its parts, whose
    periods times one binomial coefficient per degree are W's, and an
    apexed prism's or a pyramid's W = (1 + y^t)^eps A + c y^rho into the
    coefficients of the powers of A at the degrees whose level they
    reach, only when the unsplit engine could not have refused; a part or
    an A that is a simplex is read as one multinomial (module
    docstring)."""
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")
    parts, prism, reach = _split(w, dmax)
    if reach:
        return PeriodSequence(tuple(_apexed(w.terms, prism, reach, dmax)))
    if prism:
        p, q, flat = _flat(w.terms, prism)
        return PeriodSequence(tuple(
            comb(d, p * d // q) * c if d % q == 0 and 0 <= p * d <= q * d else 0
            for d, c in enumerate(_convolved(_parts(flat), dmax))))
    if len(parts) > 1:
        return PeriodSequence(tuple(_convolved(parts, dmax)))
    return PeriodSequence(tuple(_periods(parts[0], w.dim, dmax)))


def _convolved(parts: list, dmax: int) -> list:
    """c_0 .. c_dmax of the sum of free-sum parts in 3 variables, c_d =
    sum_k C(d, k) a_k b_(d - k) from two parts' periods a and b, each part
    read by ``_simplex`` when it is a simplex and by the engine otherwise;
    only the nonzero products are formed."""
    cs = [1] + [0] * dmax
    for part in parts:
        read = _simplex(part)
        b = [read(d) for d in range(dmax + 1)] if read else _periods(part, 3, dmax)
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
