"""Pure oracles the fast paths are checked against, importing only the
standard library and ``conifold``, so that ``scripts/build_corpus.py``
can use them as well as the tests: the general sparse product of Laurent
polynomials and the period engine of plain repeated multiplication, the
subset hull scan (with its ``primitive`` normals), Fraction elimination,
elimination mod p, rank by minors, the per-window recurrence check, the
every-row recurrence cell solve, the unscreened search and the budget
charges of capped screens, the arrangement region count, the image of a
polytope under a matrix, the map of a conifold square onto the local
model, and closed forms of the six bundled period sequences."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd
from operator import add

from conifold import linalg
from conifold.errors import InsufficientData
from conifold.lattice import convex_hull, dot, vsub
from conifold.laurent import LaurentPolynomial
from conifold.nodal import LOCAL_MODEL_SQUARE
from conifold.recurrence import HOLDOUT, Recurrence, _normalize, verify_recurrence


def multiply(a, b):
    """The product of two Laurent polynomials in the same variables, term
    by term."""
    acc: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return LaurentPolynomial(a.dim, acc)


def iterated_periods(w, dmax):
    """Reference engine: c_d = constant term of W^d by plain repeated
    multiplication, for d = 0 .. dmax."""
    origin = (0,) * w.dim
    power, cs = LaurentPolynomial(w.dim, {origin: 1}), [1]
    for _ in range(dmax):
        power = multiply(power, w)
        cs.append(power.terms.get(origin, 0))
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


def _nodal_02_period(d):
    """nodal_02's W is (1 + x) A + 1/(xz) with A = z + yz + 1/y, so W^d =
    sum_k C(d, k) (xz)^(k - d) (1 + x)^k A^k.  A has no x, so x^0 takes
    x^(d - k) from (1 + x)^k, with coefficient C(k, d - k).  A^k holds
    y^0 z^(d - k) only as z^(2d - 3k) (yz)^(2k - d) y^(d - 2k), with the
    multinomial k! / ((2d - 3k)! (2k - d)!^2) = C(k, d - k) C(d - k, 2k -
    d).  So c_d = sum_k C(d, k) C(k, d - k)^2 C(d - k, 2k - d), over the k
    with 2k >= d."""
    return sum(comb(d, k) * comb(k, d - k) ** 2 * comb(d - k, 2 * k - d)
               for k in range((d + 1) // 2, d + 1))


def _nodal_03_period(d):
    return comb(d, d // 2) ** 3 if d % 2 == 0 else 0


# c_d as a function of d: (4n)!/(n!)^4, C(2n,n) * sum of squared
# trinomials, sum over 3a + 2b = d of d!/(a!^3 b!^2), (3n)!(2n)!/(n!)^5
# (the quantum period of the quadric threefold), sum over k of
# C(d,k) C(k,d-k)^2 C(d-k,2k-d) and C(2n,n)^3
CLOSED_FORM_PERIODS = {
    "p3": _p3_period,
    "octahedron": _octahedron_period,
    "p2xp1": _p2xp1_period,
    "nodal_01": _nodal_01_period,
    "nodal_02": _nodal_02_period,
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


def packed_rows(rows, p: int) -> list[int]:
    """Integer rows packed for ``linalg.modular_pivots``: entry c of a row,
    reduced mod p, in the ``linalg.SLOT_BITS``-bit slot c of one int."""
    size = linalg.SLOT_BITS // 8
    return [int.from_bytes(b"".join((a % p).to_bytes(size, "little") for a in row), "little")
            for row in rows]


def unpacked(row: int, ncols: int) -> list[int]:
    """The ncols ``linalg.SLOT_BITS``-bit slots of a packed row, column 0 first."""
    bits = linalg.SLOT_BITS
    return [row >> bits * c & (1 << bits) - 1 for c in range(ncols)]


def pivots_mod(rows, p: int) -> tuple[list[int], list[int]]:
    """Reference ``linalg.modular_pivots`` on lists of residues mod p:
    pivot columns and the original index of each pivot row."""
    live = [(i, [a % p for a in row]) for i, row in enumerate(rows)]
    pivots, pivot_rows = [], []
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k, (_, row) in enumerate(live) if row[c]), None)
        if k is None:
            continue
        i, top = live.pop(k)
        inv = pow(top[c], -1, p)
        live = [(j, [(a - row[c] * inv * b) % p for a, b in zip(row, top)])
                for j, row in live]
        pivots.append(c)
        pivot_rows.append(i)
    return pivots, pivot_rows


def collected_pivots(rows, ncols: int) -> tuple[list[int], list[int]]:
    """``linalg.modular_pivots`` run over all ncols columns, one item each,
    and collected in the form of ``pivots_mod``: the pivot columns and
    the original index of each pivot row."""
    found = list(linalg.modular_pivots(rows, ncols))
    assert len(found) == ncols
    return ([c for c, k in enumerate(found) if k is not None],
            [k for k in found if k is not None])


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


def poly_value(rec, i: int, d: int) -> int:
    """p_i(d) of a recurrence, power by power."""
    return sum(a * d**j for j, a in enumerate(rec.coeffs[i]))


def window_value(rec, seq, d: int) -> int:
    """Reference per-window check: sum_i p_i(d) * seq[d + i], which
    ``verify_recurrence`` requires to be 0 at every window d."""
    return sum(poly_value(rec, i, d) * seq[d + i] for i in range(rec.order + 1))


def solve_cell_on_every_row(terms, r: int, dD: int) -> tuple | None:
    """Reference ``recurrence._solve_cell``: the kernel of the (r, D) cell's
    matrix taken on all of its rows at once, with no modular pass."""
    nvars = (r + 1) * (dD + 1)
    rows = [[terms[d + i] * d**j for i in range(r + 1) for j in range(dD + 1)]
            for d in range(len(terms) - r)]
    for vec in linalg.kernel_basis(rows, ncols=nvars):
        if any(vec[r * (dD + 1):]):
            return _normalize(vec, r, dD)
    return None


def find_recurrence_unscreened(terms, rmax: int, degree_max: int) -> Recurrence | None:
    """Reference search: ``find_recurrence`` without its per-order screen,
    solving every (r, D) cell in lexicographic order, each on all of its
    rows, until one has a solution."""
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
            sol = solve_cell_on_every_row(terms, r, dD)
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


def charge_schedule(terms, rmax: int, degree_max: int) -> list[tuple[int, int, int]]:
    """Reference for the (nrows, ncols, words) of every budget charge of
    ``find_recurrence``, in order, replayed from ``pivots_mod`` on each
    order's capped rows d < nrows: one charge per order for them, then one
    on all L + 1 - r rows for each D whose first (r+1)(D+1) columns are
    deficient there, up to the cell of the unscreened search's answer."""
    rec = find_recurrence_unscreened(terms, rmax, degree_max)
    stop = (rec.order, rec.degree) if rec else (rmax, degree_max)
    words = (max(map(abs, terms)).bit_length()
             + degree_max * len(terms).bit_length()) // 64 + 1
    schedule = []
    for r in range(1, stop[0] + 1):
        ncols = (r + 1) * (degree_max + 1)
        nrows = min(len(terms) - r, ncols + HOLDOUT)
        schedule.append((nrows, ncols, words))
        block = [[terms[d + i] * d**j for j in range(degree_max + 1) for i in range(r + 1)]
                 for d in range(nrows)]
        pivots = pivots_mod(block, linalg.PRIME)[0]
        for dD in range(stop[1] + 1 if r == stop[0] else degree_max + 1):
            width = (r + 1) * (dD + 1)
            if sum(c < width for c in pivots) < width:
                schedule.append((len(terms) - r, width, words))
    return schedule


def square_to_model_map(cycle):
    """The unimodular integer matrix M (rows act on column vectors) with
    M v_i = t_i, for a square's cycle (v1, v2, v3, v4) and the local model
    square's cycle (t1, t2, t3, t4), or None when there is none.  M is
    solved from v1, v2, v4 by Cramer's rule, independently of
    ``nodal.classify_facet``; it exists exactly when the cone over the
    square is the xy = zw chart."""
    t1, t2, t4, t3 = LOCAL_MODEL_SQUARE
    bt = [list(v) for v in (cycle[0], cycle[1], cycle[3])]  # basis transposed
    d = linalg.det(bt)
    if d == 0:
        return None
    m = []
    for i in range(3):
        target = [t1[i], t2[i], t4[i]]
        row = []
        for j in range(3):
            a = [r[:] for r in bt]
            for r in range(3):
                a[r][j] = target[r]
            q, rem = divmod(linalg.det(a), d)
            if rem:
                return None
            row.append(q)
        m.append(row)
    image = tuple(tuple(dot(row, v) for row in m) for v in cycle)
    if abs(linalg.det(m)) != 1 or image != (t1, t2, t3, t4):
        return None
    return m
