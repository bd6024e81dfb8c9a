"""Shared hypothesis strategies for geometry tests, the reference period
engine, subset hull scan (with its ``primitive`` normals), Fraction
elimination, rank by minors, unscreened recurrence search and arrangement
region count the fast ones are checked against, the image of a polytope
under a matrix, and closed forms of four bundled period sequences."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

from hypothesis import strategies as st

from conifold import linalg
from conifold.errors import InsufficientData
from conifold.lattice import convex_hull, dot, vsub
from conifold.laurent import LaurentPolynomial
from conifold.recurrence import HOLDOUT, Recurrence, _solve_cell, verify_recurrence


def iterated_periods(w, dmax):
    """Reference engine: c_d = constant term of W^d by plain repeated
    multiplication, for d = 0 .. dmax."""
    power, cs = LaurentPolynomial.one(w.dim), [1]
    for _ in range(dmax):
        power = power * w
        cs.append(power.constant_term())
    return cs


def transform(p, m):
    """The image of polytope ``p`` under the integer matrix ``m`` (rows act
    on column vectors), hulled afresh."""
    return convex_hull([tuple(dot(row, v) for row in m) for v in p.vertices])


def primitive(vec) -> tuple:
    """The primitive integer vector on the ray of a nonzero integer
    vector."""
    g = gcd(*vec)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in vec)


def hull_facets_by_subsets(points: list, dim: int) -> list:
    """Reference hull scan: ``lattice._hull_facets`` without its seen set,
    eliminating and scanning the hyperplane of every dim-subset of the
    points, so a hyperplane through k points is tested C(k, dim) times."""
    n = len(points)
    found: dict = {}
    for subset in combinations(range(n), dim):
        base = points[subset[0]]
        kernel = linalg.kernel_basis(
            [list(vsub(points[i], base)) for i in subset[1:]], ncols=dim
        )
        if len(kernel) != 1:  # the subset spans less than a hyperplane
            continue
        u = primitive(kernel[0])
        c = dot(u, base)
        vals = [dot(u, p) for p in points]
        below = any(v < c for v in vals)
        above = any(v > c for v in vals)
        if below and above:
            continue
        assert below or above, "input not full-dimensional"
        if below:  # flip so the normal points inward
            u = tuple(-a for a in u)
            c = -c
            vals = [-v for v in vals]
        key = (u, c)
        if key not in found:
            found[key] = tuple(i for i, v in enumerate(vals) if v == c)
    return [(u, c, idx) for (u, c), idx in sorted(found.items())]


def arrangement_region_count(rows) -> int:
    """Regions of the central arrangement {g : R_i . g = 0} of ``rows``, by
    Whitney's formula at t = -1 (Zaslavsky, "Facing up to arrangements",
    Mem. AMS 1975): the sum over row subsets S of (-1)^(|S| - rank S).
    Each region is the set of g with one strict sign vector s_i (R_i . g),
    so this counts the regular small resolutions with no circuit and no
    LP."""
    total = 0
    for mask in range(2 ** len(rows)):
        subset = [row for i, row in enumerate(rows) if mask >> i & 1]
        total += (-1) ** (len(subset) - linalg.rank(subset))
    return total


def _p3_period(d):
    return factorial(d) // factorial(d // 4) ** 4 if d % 4 == 0 else 0


def _octahedron_period(d):
    if d % 2:
        return 0
    n = d // 2
    trinomials = (factorial(n) // (factorial(a) * factorial(b) * factorial(n - a - b))
                  for a in range(n + 1) for b in range(n + 1 - a))
    return comb(d, n) * sum(t * t for t in trinomials)


def _p2xp1_period(d):
    return sum(factorial(d) // (factorial(a) ** 3 * factorial((d - 3 * a) // 2) ** 2)
               for a in range(d // 3 + 1) if (d - 3 * a) % 2 == 0)


def _nodal_01_period(d):
    if d % 3:
        return 0
    n = d // 3
    return factorial(3 * n) * factorial(2 * n) // factorial(n) ** 5


def _nodal_03_period(d):
    return comb(d, d // 2) ** 3 if d % 2 == 0 else 0


# c_d as a function of d: (4n)!/(n!)^4, C(2n,n) * sum of squared
# trinomials, sum over 3a + 2b = d of d!/(a!^3 b!^2), (3n)!(2n)!/(n!)^5
# (the quantum period of the quadric threefold) and C(2n,n)^3
CLOSED_FORM_PERIODS = {
    "p3": _p3_period,
    "octahedron": _octahedron_period,
    "p2xp1": _p2xp1_period,
    "nodal_01": _nodal_01_period,
    "nodal_03": _nodal_03_period,
}


def row_reduce(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction.

    Returns the reduced rows and the list of pivot columns.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank_by_minors(rows: list[list]) -> int:
    """Rank as the size of the largest nonzero minor.

    Exhaustive over all square submatrices, largest first; this is the slow
    but independent cross-check for ``linalg.rank`` and only suits small
    matrices.
    """
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    for size in range(min(m, n), 0, -1):
        for ri in combinations(range(m), size):
            for ci in combinations(range(n), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if linalg.det(sub) != 0:
                    return size
    return 0


def fraction_kernel_basis(rows, ncols):
    """Reference kernel: the vector of free column fc has 1 there and
    -RREF[r][fc] in the r-th pivot column, RREF taken by ``row_reduce``."""
    reduced, pivots = row_reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def find_recurrence_unscreened(terms, rmax: int, degree_max: int) -> Recurrence | None:
    """Reference search: ``find_recurrence`` without its per-order screen,
    solving every (r, D) cell in lexicographic order until one has a
    solution."""
    if rmax < 1 or degree_max < 0:
        raise ValueError("need rmax >= 1 and degree_max >= 0")
    needed = (rmax + 1) * (degree_max + 1) + rmax + HOLDOUT
    if len(terms) < needed:
        raise InsufficientData(
            f"{len(terms)} terms provided; the ({rmax}, {degree_max}) search "
            f"with holdout {HOLDOUT} needs at least {needed}"
        )
    for r in range(1, rmax + 1):
        for dD in range(0, degree_max + 1):
            sol = _solve_cell(terms, r, dD)
            if sol is None:
                continue
            rec = Recurrence(
                order=r,
                degree=max(len(p) - 1 for p in sol),
                coeffs=sol,
            )
            assert verify_recurrence(rec, terms)
            return rec
    return None


def _apply_op(m, op):
    kind, i, j, c = op
    n = len(m)
    i %= n
    j %= n
    if kind == 0 and i != j:  # shear: row_i += c * row_j
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    elif kind == 1:  # swap
        m[i], m[j] = m[j], m[i]
    elif kind == 2:  # negate
        m[i] = [-a for a in m[i]]
    return m


@st.composite
def unimodular_matrices(draw, dim=3, max_ops=6):
    """Integer matrices of determinant +-1, built from elementary ops."""
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, dim - 1),
                st.integers(0, dim - 1),
                st.integers(-2, 2),
            ),
            max_size=max_ops,
        )
    )
    m = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    for op in ops:
        m = _apply_op(m, op)
    return tuple(tuple(row) for row in m)


@st.composite
def point_sets(draw, dim=3, min_points=None, max_points=7, span=3):
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(-span, span) for _ in range(dim)]),
            min_size=min_points or dim + 1,
            max_size=max_points,
        )
    )
    return [tuple(p) for p in pts]
