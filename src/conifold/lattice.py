"""Exact lattice-polytope geometry: hulls, facets, polar duals, volumes.

Vectors are plain tuples of Python ints and every predicate is decided in
exact integer arithmetic; no floating point enters this module.  A
rational point set (a polar dual) is hulled as its points times their
common denominator L and scaled back by 1/L, so ``Fraction`` appears only
in volumes and in the vertices and levels of a rational hull, which is a
``Polytope`` like any other (its normals stay primitive integer vectors).
No command calls those oracles, so each imports ``Fraction`` itself:
``fractions`` (with ``decimal``) would add milliseconds to every
command's start-up.  So would ``dataclasses``: the records are
namedtuples, so they compare equal to plain tuples of the same fields.
Hulls are computed by exhaustive supporting-hyperplane enumeration.  The
normal of a triple abc of points in dimension 3 is the cross product
(b - a) x (c - a) (``cross``), zero exactly when the triple is
collinear; in any other dimension it is the single vector of
``linalg.kernel_basis`` of the subset's difference rows (none when the
subset is degenerate).  The points are scanned with that vector as it
comes, and the hyperplane is kept when no point lies strictly on each
side; only then is the normal reduced to the primitive inward one, once
per facet.  Each distinct hyperplane is tested once: after its n-point
scan every dim-subset of the points on it is marked seen and skipped.
A flat input shows in the scan itself (no subset gives a normal, or the
first normal holds every point), so a hull takes no rank when it
succeeds: ``linalg.rank`` only words the NotFullDimensional refusal.
That costs one normal and one n-point scan per distinct hyperplane, at
most C(n, dim) of each, and is entirely robust, which is the right trade
at the scale this package targets (tens of points, ambient dimension 2
to 4); ``HULL_WORK_BUDGET`` refuses larger inputs before the scan, by
point tests and, for the eliminations of the kernel normals, by entry
updates (see ``_hull_facets``).  Vertices
come from facet incidence: a point is a vertex iff no other point lies on
every facet through it, because those facets cut out the least face that
contains it (Ziegler, Lectures on Polytopes, 1995).  No hull reads a
determinant: ``linalg.det``, like ``linalg.max_slack``, serves only
oracles, here ``normalized_volume``.

Canonical ordering, used everywhere: polytope vertices sorted
lexicographically, facets sorted lexicographically by primitive inward
normal, vertices and lattice points within a facet again lexicographic.
Two polytopes are equal exactly when their canonical forms coincide;
lattice-normal-form equivalence is deliberately out of scope.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations, product as cartesian
from math import comb, gcd, lcm
from operator import mul

from . import linalg
from .errors import (
    BudgetExceeded,
    EmptyInput,
    NotFullDimensional,
    OriginNotInterior,
    ParseError,
)

HULL_WORK_BUDGET = 10**6

Vec = tuple


def dot(u: Vec, v: Vec):
    return sum(map(mul, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def cross(u: Vec, v: Vec) -> Vec:
    """The cross product u x v of two 3-vectors: orthogonal to both, and
    zero exactly when they are linearly dependent."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)


def _affine_rank(points: list) -> int:
    if len(points) <= 1:
        return 0
    base = points[0]
    return linalg.rank([list(vsub(p, base)) for p in points[1:]])


def _require_full_dimensional(points: list, dim: int) -> None:
    """Raise NotFullDimensional, naming the dimension of the affine span,
    when the points span less than dimension dim."""
    span = _affine_rank(points)
    if span < dim:
        raise NotFullDimensional(
            f"points span an affine subspace of dimension {span} < {dim}"
        )


def _hull_facets(points: list, dim: int) -> list[tuple[Vec, object, tuple[int, ...]]]:
    """All facets of conv(points) as (inward primitive normal, level,
    indices of the points lying on the facet), sorted by normal.

    A hyperplane supports the hull iff every point sits on one side of
    it; the facet is the full equality set, so non-simplicial facets come
    out whole.  Each distinct hyperplane costs one normal w and one
    n-point scan with w as it comes (a common factor of w scales every
    value alike, so the sides and the equality set are those of the
    primitive normal).  In dimension 3 w is the cross product
    (b - a) x (c - a) of the triple abc, zero exactly when the triple is
    collinear, and a point's value is the three-term sum
    w0*x + w1*y + w2*z; in other dimensions w is the single kernel vector
    of the dim - 1 difference rows, none when the subset is degenerate.  After the scan every dim-subset of the hyperplane's
    equality set is skipped, so a conifold square is tested once rather
    than once per triple of its corners; the equality set is built only
    for a supporting hyperplane or when more than dim points lie on it.
    A supporting w, with c its value on the subset, is divided by
    g = gcd(w), negated when c is the largest value, and c by the same g.
    Raises BudgetExceeded, before the scan, when C(n, dim) * n point tests
    or the entry updates of C(n, dim) eliminations (dim - 1 pivots, each
    updating dim - 2 rows of dim entries) pass the budget: the scan makes
    at most that many.  The elimination term stays although dimension 3
    eliminates nothing: there its 6 * C(n, 3) passes the budget only when
    the point tests do too, so one bound admits the same inputs in every
    dimension, and above dimension 4 the eliminations run and bind first.

    Returns no facets when the points span less than the ambient space.
    The scan sees that without a rank: no dim-subset spans a hyperplane,
    or the first that does holds every point (and so did not support the
    hull before it).  Before a refusal on budget the rank is taken, so
    that a flat input is refused as NotFullDimensional whatever its size.
    """
    n = len(points)
    for per_subset, unit in ((n, "point tests"),
                             (dim * (dim - 1) * (dim - 2), "entry updates")):
        if comb(n, dim) * per_subset > HULL_WORK_BUDGET:
            _require_full_dimensional(points, dim)
            raise BudgetExceeded(
                f"hull of {n} points in dimension {dim} needs "
                f"C({n}, {dim}) * {per_subset} > {HULL_WORK_BUDGET} {unit}"
            )
    three = dim == 3
    found: dict = {}
    seen: set = set()  # dim-subsets of every hyperplane tested so far
    for subset in combinations(range(n), dim):
        if subset in seen:
            continue
        if three:
            ax, ay, az = points[subset[0]]
            bx, by, bz = points[subset[1]]
            cx, cy, cz = points[subset[2]]
            w0, w1, w2 = w = cross((bx - ax, by - ay, bz - az),
                                   (cx - ax, cy - ay, cz - az))
            if not (w0 or w1 or w2):  # a collinear triple
                continue
            vals = [w0 * x + w1 * y + w2 * z for x, y, z in points]
        else:
            base = points[subset[0]]
            kernel = linalg.kernel_basis(
                [[a - b for a, b in zip(points[i], base)] for i in subset[1:]],
                ncols=dim,
            )
            if len(kernel) != 1:  # the subset spans less than a hyperplane
                continue
            w = kernel[0]
            vals = [sum(map(mul, w, p)) for p in points]
        c = vals[subset[0]]
        lo, hi = min(vals), max(vals)
        inside = lo < c < hi
        if inside and vals.count(c) <= dim:
            continue  # no facet, and no other subset on the hyperplane
        on = tuple(i for i, v in enumerate(vals) if v == c)
        if len(on) > dim:
            seen.update(combinations(on, dim))
        if inside:
            continue
        if lo == hi:  # a flat input: the first hyperplane holds every point
            return []
        g = gcd(*w) if c == lo else -gcd(*w)  # negative flips w inward
        found[(tuple(x // g for x in w), c // g)] = on
    return [(u, c, idx) for (u, c), idx in sorted(found.items())]


class Facet(namedtuple("Facet", "normal level vertices")):
    """One facet: <normal, x> == level on the facet and > level strictly
    inside.  ``lattice_points`` holds every lattice point of the facet for
    integral polytopes and is empty for rational ones.  It is computed on
    first read by a bounding-box scan, whose cost grows with the facet's
    coordinates, and kept in the instance ``__dict__`` (no ``__slots__``);
    facet classification never reads it."""

    @cached_property
    def lattice_points(self) -> tuple:
        # an integral polytope has int levels, a rational hull Fraction ones
        if not isinstance(self.level, int):
            return ()
        return _facet_lattice_points(
            self.vertices, self.normal, self.level, len(self.normal)
        )


class Polytope(namedtuple("Polytope", "dim vertices facets")):
    """Full-dimensional polytope in canonical form.  Facet normals are
    primitive integer vectors.  Vertices and levels are ints for a lattice
    polytope (``convex_hull``) and Fractions for a rational one
    (``rational_hull``, ``polar_dual``)."""

    __slots__ = ()


def _vertex_indices(points: list, facets_raw: list) -> list[int]:
    """A point is a vertex iff no other point lies on every facet through
    it (module docstring); bit k of a point's mask marks facet k."""
    masks = [0] * len(points)
    for k, (_u, _c, idx) in enumerate(facets_raw):
        for i in idx:
            masks[i] |= 1 << k
    return [
        i
        for i, mask in enumerate(masks)
        if all(mask & other != mask for j, other in enumerate(masks) if j != i)
    ]


def _build_hull(points, dim: int):
    pts = sorted(set(map(tuple, points)))
    for p in pts:
        if len(p) != dim:
            raise NotFullDimensional(
                f"point {p} does not live in dimension {dim}"
            )
    facets_raw = _hull_facets(pts, dim)
    if not facets_raw:  # the rank only words the refusal
        _require_full_dimensional(pts, dim)
        raise AssertionError("full-dimensional points without a facet")
    vertex_idx = _vertex_indices(pts, facets_raw)
    vertex_set = set(vertex_idx)
    vertices = tuple(pts[i] for i in sorted(vertex_idx))
    facets = []
    for u, c, idx in facets_raw:
        fverts = tuple(sorted(pts[i] for i in idx if i in vertex_set))
        facets.append(Facet(u, c, fverts))
    return vertices, tuple(facets)


def convex_hull(points) -> Polytope:
    """Convex hull of integer points as a canonical Polytope, in the
    dimension of the first point.

    Raises EmptyInput for no points and NotFullDimensional when a point
    has another dimension or the affine span is a proper subspace.
    """
    pts = list(points)
    if not pts:
        raise EmptyInput("cannot take the hull of no points")
    dim = len(pts[0])
    for p in pts:
        for x in p:
            if not isinstance(x, int):
                raise ValueError(f"lattice polytope vertices must be ints, got {x!r}")
    vertices, facets = _build_hull(pts, dim)
    return Polytope(dim, vertices, facets)


def _clear_denominators(points) -> tuple[int, list]:
    """(L, the points times L) for L the least common denominator of the
    coordinates (ints or Fractions): integer points."""
    big = lcm(*(x.denominator for p in points for x in p))
    return big, [tuple(x.numerator * (big // x.denominator) for x in p) for p in points]


def rational_hull(points) -> Polytope:
    """Convex hull of points with int or Fraction coordinates: the lattice
    hull of the points times their common denominator L, scaled by 1/L.
    Positive scaling keeps the canonical vertex and facet order and the
    primitive normals; only the vertices and levels become Fractions."""
    from fractions import Fraction
    pts = list(points)
    if not pts:
        raise EmptyInput("cannot take the hull of no points")
    dim = len(pts[0])
    big, scaled = _clear_denominators(pts)
    vertices, facets = _build_hull(scaled, dim)

    def unscale(vs):
        return tuple(tuple(Fraction(x, big) for x in v) for v in vs)

    facets = [Facet(f.normal, Fraction(f.level, big), unscale(f.vertices)) for f in facets]
    return Polytope(dim, unscale(vertices), tuple(facets))


def _facet_lattice_points(fvertices, normal, level, dim) -> tuple:
    """Every lattice point on a facet, by scanning the bounding box of the
    facet projected out of one coordinate with nonzero normal entry (an
    affine bijection on the facet's hyperplane)."""
    k = next(j for j in range(dim) if normal[j] != 0)
    proj = [v[:k] + v[k + 1 :] for v in fvertices]
    if dim == 1:
        return tuple(sorted(fvertices))
    edges = _hull_facets(proj, dim - 1) if len(proj[0]) > 0 else []
    ranges = [
        range(min(p[j] for p in proj), max(p[j] for p in proj) + 1)
        for j in range(dim - 1)
    ]
    out = []
    for free in cartesian(*ranges):
        if not all(dot(u, free) >= c for u, c, _ in edges):
            continue
        rest = level - sum(
            normal[j] * x for j, x in zip([j for j in range(dim) if j != k], free)
        )
        if rest % normal[k] != 0:
            continue
        xk = rest // normal[k]
        out.append(free[:k] + (xk,) + free[k:])
    return tuple(sorted(out))


def require_origin_interior(p) -> None:
    """Raise OriginNotInterior, naming the first facet at a level >= 0,
    unless the origin lies strictly inside p."""
    for f in p.facets:
        if f.level >= 0:
            raise OriginNotInterior(
                "origin not interior: facet at level "
                f"{f.level} with normal {f.normal}"
            )


def polar_dual(p) -> Polytope:
    """Polar dual {u : <u, v> >= -1 for all v in P}.

    Requires the origin strictly inside P; vertices of the dual are the
    facet normals scaled to level -1.  Public API and test oracle only:
    no command calls it, because ``nodal.transition_invariants`` sums the
    degree from the facet normals without building the dual.
    """
    from fractions import Fraction
    require_origin_interior(p)
    verts = [tuple(Fraction(x, -f.level) for x in f.normal) for f in p.facets]
    return rational_hull(verts)


def is_reflexive(p: Polytope) -> bool:
    """True iff every facet lies at level -1 (normals are primitive by
    construction).  Raises OriginNotInterior when the origin is not
    strictly inside."""
    require_origin_interior(p)
    return all(f.level == -1 for f in p.facets)


def _triangulate_full(points: list, dim: int) -> list[tuple[int, ...]]:
    """Full triangulation of conv(points) by pulling from the least
    vertex; returns index simplices.  Points need not all be extremal."""
    if dim == 1:
        lo = min(range(len(points)), key=lambda i: points[i])
        hi = max(range(len(points)), key=lambda i: points[i])
        return [(lo, hi)]
    p0 = min(range(len(points)), key=lambda i: points[i])
    simplices = []
    for u, c, idx in _hull_facets(points, dim):
        if dot(u, points[p0]) == c:
            continue
        k = next(j for j in range(dim) if u[j] != 0)
        sub = [points[i][:k] + points[i][k + 1 :] for i in idx]
        for simp in _triangulate_full(sub, dim - 1):
            simplices.append((p0,) + tuple(idx[j] for j in simp))
    return simplices


def normalized_volume(q):
    """dim! times the Euclidean volume, as an exact Fraction: the sum of
    |det(v_i - v_0)| over the simplices of ``_triangulate_full`` on the
    vertices times their common denominator L, divided by L^dim.  Public
    API and test oracle only: no command calls it;
    ``normalized_volume(polar_dual(p))`` is the reference that the degree
    of ``nodal.transition_invariants`` is checked against.
    """
    from fractions import Fraction
    big, pts = _clear_denominators(q.vertices)
    total = 0
    for simp in _triangulate_full(pts, q.dim):
        base = pts[simp[0]]
        total += abs(linalg.det([list(vsub(pts[i], base)) for i in simp[1:]]))
    return Fraction(total, big**q.dim)


def polytope_from_json_dict(data: dict) -> Polytope:
    """Build a polytope from a parsed JSON object.

    The object needs a ``vertices`` list; ``dim`` is optional and
    inferred from the first vertex when missing.  Other keys (``name``,
    comments, ...) are ignored.
    """
    if not isinstance(data, dict) or "vertices" not in data:
        raise ParseError("polytope JSON needs a 'vertices' list")
    raw = data["vertices"]
    if not isinstance(raw, list) or not raw:
        raise ParseError("polytope JSON: 'vertices' must be a non-empty list")
    verts = []
    for v in raw:
        if not isinstance(v, list) or not all(type(x) is int for x in v):
            raise ParseError(f"polytope JSON: bad vertex {v!r}")
        verts.append(tuple(v))
    dim = data.get("dim", len(verts[0]))
    if type(dim) is not int or dim < 1:
        raise ParseError(f"polytope JSON: bad dimension {dim!r}")
    if any(len(v) != dim for v in verts):
        raise ParseError(f"polytope JSON: vertices are not all of dimension {dim}")
    return convex_hull(verts)
