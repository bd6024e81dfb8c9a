"""Nodal analysis of reflexive 3-polytopes.

A facet of a reflexive 3-polytope whose cone is smooth is a unimodular
triangle; a facet carrying exactly one ordinary double point is an empty
parallelogram (four lattice points, opposite vertex sums equal, both
triangle halves unimodular), the cone over the local model
{(0,0,1), (1,0,1), (0,1,1), (1,1,1)} with singularity xy = zw.  Each such
square admits two triangulations, one per diagonal, matching the two small
resolutions of the node; globally the 2^N diagonal assignments enumerate
all small resolutions.

Both facet kinds are recognised from their vertices alone, and
``classify_facet`` names them by plain values: "triangle", a square's
vertex cycle, or None for any other facet.  A reflexive
facet lies at lattice distance 1 from the origin, so |det(a, b, c)| is the
normalized area of the triangle abc in the facet's plane; by Pick's
theorem a triangle of area 1 holds no lattice point besides its vertices,
and a parallelogram made of two such halves holds none besides its four.
Every 3x3 determinant on a command path, here and in the degree below,
is the closed-form triple product a . (b x c) (``_det3``), built on
``lattice.cross``, the cross product that also gives the hull's facet
normals in dimension 3; the general
elimination ``linalg.det``, like ``linalg.max_slack``, serves only
oracles, among them the wall rows of ``is_regular_triangulation``, which
thus stay independent of ``_det3``.

A resolution is projective exactly when its triangulation is regular:
some height vector on the vertices bends strictly across every interior
wall of the induced fan (De Loera-Rambau-Santos, *Triangulations*, 2010).
Only the square diagonals matter.  Let R be the exceptional relation
matrix and s_i = -1 when square i is split along v1-v3, +1 along v2-v4.
The triangulation is regular iff some g has s_i * (R_i . g) > 0 for every
i.  Proof: the gauge of the polytope, 1 on every vertex, equals
-<u_F, x> on the cone over each facet F and is the maximum of these, so
it bends strictly across every wall between two facets and is flat across
every diagonal.  Heights 1 + eps*g keep the strict bends for small
eps > 0 and bend across diagonal i by eps * s_i * (R_i . g).  Conversely
the wall inequality of diagonal i is exactly s_i * (R_i . h) > 0, so
heights h that bend everywhere give g = h.

No LP is needed to decide this.  By Gordan's alternative no such g exists
iff some nonzero lambda >= 0 has sum_i lambda_i * s_i * R_i = 0, that is,
iff the left kernel of R holds a nonzero vector mu (mu_i = lambda_i * s_i)
whose nonzero entries all carry the sign of s.  Every vector of a
subspace is a conformal sum of its elementary vectors, those of minimal
support, each summand agreeing in sign with the sum wherever it is
nonzero (Rockafellar, "The elementary vectors of a subspace of R^N",
1969; Bjorner-Las Vergnas-Sturmfels-White-Ziegler, *Oriented Matroids*,
1993).  So such a mu exists iff some circuit c of the left kernel K has
the sign pattern of s, or of -s, on its support.  Take a basis of K as
the rows of an m x N matrix B, m = N - rank(R).  The vector y^T B of K
vanishes at row i iff y is orthogonal to column B_i, so it is a circuit
iff its zero set is a hyperplane of the column matroid of B, spanned by
some m - 1 columns Z; y then spans the left kernel of the m x (m - 1)
matrix B_Z (Bjorner et al., *Oriented Matroids*, 1993).
``nodal_profile`` builds R once; the profile takes B from it by one
``linalg.kernel_basis`` of R^T on first use, and k = N - m, the circuits
(``signed_circuits``, which ``check_regularity`` tests each of the 2^N
sign vectors against) and the Calabi-Yau certificate are all read off B.
Triangles (``resolution_triangles``) are built only for
``is_regular_triangulation``, the LP over every wall, which stays with the
exact LP on the rows s_i * R_i (``linalg.strictly_feasible``) as the
independent check that tests hold this to.

Topology bookkeeping across the transition (resolve all nodes versus
smooth them): each node surgery trades a 2-sphere for a 3-sphere, so the
Euler number drops by 2 per node on the smoothing side, and the second
and third Betti numbers split according to the rank k of the matrix of
relations among the exceptional curve classes.  ``transition_invariants``
returns these numbers as the JSON object that ``conifold transition``
prints, under its keys (N, k, e_res, e_sm, ...), with the smoothing mode
as the string it prints, "fano" or "cy"; ``report_json_dict`` only adds
the census.

The degree (-K)^3 is the normalized volume of the polar dual P*
(Batyrev, "Dual polyhedra and mirror symmetry for Calabi-Yau
hypersurfaces in toric varieties", 1994).  Every facet F sits at level
-1, so the vertices of P* are the normals u_F, and a vertex v of P is
dual to the polygon Q_v = conv{u_F : F contains v}, a facet of P* with an
edge u_F u_G for each edge of P through v shared by F and G.  Fanning
each Q_v out from one of its vertices c_v cuts P* into the simplices
conv(0, c_v, u_F, u_G), so the degree sums |det(c_v, u_F, u_G)| over the
edges {F, G} of P (facets sharing two vertices) and both endpoints v;
an edge through c_v adds 0.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd

from . import linalg
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotReflexive,
    NotReflexiveFacet,
    WorseThanNodal,
)
from .lattice import Facet, Polytope, cross, dot, is_reflexive

# Most squares whose 2^N resolutions are listed; the bundled N are <= 6.
RESOLUTION_CAP = 20

# Most subset kernels ``signed_circuits`` may take, C(N, m - 1).  Every R
# with at most 15 rows fits, as C(15, 7) = 6435; nodal_03 takes C(6, 1).
CIRCUIT_WORK_BUDGET = 10**4

LOCAL_MODEL_SQUARE = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))


class NodalProfile(namedtuple("NodalProfile", "node_count squares relations")):
    """node_count is N; squares pairs each conifold facet's index (in the
    polytope's canonical facet order) with its vertex cycle; relations is
    the exceptional relation matrix R of those squares.  No ``__slots__``:
    ``left_kernel`` is kept in the instance ``__dict__``."""

    @cached_property
    def left_kernel(self) -> tuple:
        """Integer basis B of {y : y^T R = 0}, one row of length N per
        vector; taken once, on first use."""
        rows_t = [list(col) for col in zip(*self.relations)]
        return tuple(map(tuple, linalg.kernel_basis(rows_t, ncols=self.node_count)))


class SmallResolution(namedtuple("SmallResolution", "diagonals regular")):
    """One row of the census of ``check_regularity``: a small resolution,
    by its diagonal string (``enumerate_small_resolutions``), and whether
    it is projective."""

    __slots__ = ()


def _det3(a, b, c) -> int:
    """det of the 3x3 matrix with rows a, b, c: the triple product
    a . (b x c), with the package's one cross product ``lattice.cross``."""
    return dot(a, cross(b, c))


def _triangle_unimodular(a, b, c) -> bool:
    return abs(_det3(a, b, c)) == 1


def classify_facet(facet: Facet):
    """Classify one facet of a reflexive 3-polytope: "triangle" for three
    vertices spanning a unimodular cone; for a conifold square, four
    vertices forming a parallelogram whose triangle halves are unimodular
    (so, as the module docstring shows, its only lattice points are its
    vertices), its cycle (v1, v2, v3, v4), with v1 + v3 == v2 + v4, v1 the
    lexicographically least vertex and v2 the lesser of its neighbours;
    None for everything else.
    """
    if facet.level != -1:
        raise NotReflexiveFacet(
            f"facet at level {facet.level}; a reflexive facet sits at -1"
        )
    verts = facet.vertices
    if len(verts) == 3 and _triangle_unimodular(*verts):
        return "triangle"
    if len(verts) == 4:
        a, b, c, d = verts  # lexicographic
        # the order is compatible with addition, so a + b < c + d and
        # a + c < b + d: only a + d == b + c can make a parallelogram, and
        # its halves all share one absolute determinant
        if all(x + y == z + w for x, y, z, w in zip(a, d, b, c)) and (
            _triangle_unimodular(a, b, d)
        ):
            return (a, b, d, c)
    return None


def nodal_profile(p: Polytope) -> NodalProfile:
    """Locate the conifold squares of a reflexive 3-polytope.

    Raises NotReflexive for non-reflexive input and WorseThanNodal (with
    the offending facet indices) when any facet is neither a unimodular
    triangle nor a conifold square.
    """
    if p.dim != 3:
        raise DimensionMismatch(f"nodal analysis is for dimension 3, got {p.dim}")
    if not is_reflexive(p):
        raise NotReflexive("polytope has a facet at level other than -1")
    squares = []
    offenders = []
    for i, facet in enumerate(p.facets):
        kind = classify_facet(facet)
        if kind is None:
            offenders.append(i)
        elif kind != "triangle":
            squares.append((i, kind))
    if offenders:
        raise WorseThanNodal(
            "facets "
            + ", ".join(str(i) for i in offenders)
            + " are neither unimodular triangles nor conifold squares",
            facets=offenders,
        )
    squares = tuple(squares)
    return NodalProfile(len(squares), squares, exceptional_relation_matrix(p, squares))


def enumerate_small_resolutions(profile: NodalProfile) -> list[str]:
    """All 2^N small resolutions as diagonal strings, in lexicographic
    order.  Character i of a string is square i of the profile, "0" for
    the split along v1-v3 of its cycle (v1, v2, v3, v4) and "1" along
    v2-v4 (s_i = +1).  The two splits are the two small resolutions of
    the node; for the local model they are the graph closures of
    (x:z) = (w:y) and of (x:w) = (z:y).  Raises BudgetExceeded when N
    passes ``RESOLUTION_CAP``."""
    n = profile.node_count
    if n > RESOLUTION_CAP:
        raise BudgetExceeded(
            f"{n} nodes would mean 2^{n} resolutions; cap is {RESOLUTION_CAP}"
        )
    return ["".join(b) for b in product("01", repeat=n)]


def resolution_triangles(p: Polytope, profile: NodalProfile, diagonals: str) -> list[tuple]:
    """The lattice triangles of the boundary triangulation, in facet order:
    each triangle facet, and each square's two halves on its chosen
    diagonal, with every triangle's vertices sorted.  Only the wall LP
    needs them; their number is F + N for every resolution."""
    choice = {i: (cyc, d) for (i, cyc), d in zip(profile.squares, diagonals)}
    triangles = []
    for i, facet in enumerate(p.facets):
        if i not in choice:
            triangles.append(tuple(sorted(facet.vertices)))
            continue
        (v1, v2, v3, v4), diagonal = choice[i]
        if diagonal == "0":
            halves = [(v1, v2, v3), (v1, v3, v4)]
        else:
            halves = [(v1, v2, v4), (v2, v3, v4)]
        triangles.extend(tuple(sorted(t)) for t in halves)
    return triangles


def _wall_rows(p: Polytope, profile: NodalProfile, diagonals: str) -> list[list[int]]:
    """One integer row per interior wall of the fan over the triangulation.

    For the triangle abc on one side of wall ab and c' across it, Cramer's
    rule gives d0*c' = det(c',b,c)*a + det(a,c',c)*b + det(a,b,c')*c with
    d0 = det(a,b,c).  A height vector h is strictly convex across the wall
    iff the row d0*e_c' - det(c',b,c)*e_a - det(a,c',c)*e_b - det(a,b,c')*e_c,
    over its gcd and signed so its c' entry is positive, is positive on h
    (the same inequality, up to positive scale, seen from either side,
    because the e_c entry has the sign of d0 for any genuine fan).
    """
    index = {v: i for i, v in enumerate(p.vertices)}
    edge_tris: dict = {}
    for tri in resolution_triangles(p, profile, diagonals):
        t = [index[v] for v in tri]
        for edge in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edge_tris.setdefault(tuple(sorted(edge)), []).append(t)
    rows = []
    for edge, owners in sorted(edge_tris.items()):
        assert len(owners) == 2, "boundary triangulation must close up"
        t1, t2 = owners
        a, b = edge
        c = next(v for v in t1 if v not in edge)
        cp = next(v for v in t2 if v not in edge)
        va, vb, vc, vcp = (list(p.vertices[i]) for i in (a, b, c, cp))
        d0 = linalg.det([va, vb, vc])
        assert d0 != 0, "triangle rays must be linearly independent"
        coeff = [0] * len(p.vertices)
        coeff[cp] = d0
        coeff[a] = -linalg.det([vcp, vb, vc])
        coeff[b] = -linalg.det([va, vcp, vc])
        coeff[c] = -linalg.det([va, vb, vcp])
        assert coeff[c] * d0 > 0, "adjacent cones must sit on opposite sides of a wall"
        g = gcd(*coeff) if d0 > 0 else -gcd(*coeff)
        rows.append([x // g for x in coeff])
    return rows


def is_regular_triangulation(p: Polytope, profile: NodalProfile, diagonals: str) -> bool:
    """Exact regularity: does some rational height vector on the vertices
    induce a strictly convex piecewise-linear function on the fan over the
    triangulation?  Feasibility with positive slack is decided by the
    exact simplex in linalg, over one row per interior wall.  This is the
    reference that tests hold ``check_regularity`` to."""
    rows = _wall_rows(p, profile, diagonals)
    return linalg.strictly_feasible(rows, len(p.vertices))


def check_regularity(profile: NodalProfile) -> list[SmallResolution]:
    """The census: each of ``enumerate_small_resolutions(profile)`` with
    its regularity decided by the circuit test of the module docstring: no
    signed circuit of the exceptional relation matrix may match the
    resolution's sign vector or its negative.  The exact simplex
    (``linalg.strictly_feasible`` on the rows s_i * R_i) is only the test
    oracle for this."""
    resolutions = enumerate_small_resolutions(profile)
    circuits = signed_circuits(profile.left_kernel)
    out = []
    for r in resolutions:
        plus = sum(1 << i for i, d in enumerate(r) if d == "1")
        out.append(SmallResolution(r, is_regular_sign_vector(circuits, plus)))
    return out


def signed_circuits(basis: tuple) -> list[tuple[int, int]]:
    """The circuits of the row space of B = ``basis``, the left kernel
    basis of the relation matrix (``NodalProfile.left_kernel``), sorted,
    as bit masks (support, plus) over the matrix's row indices: bit i of
    support is set where c_i != 0 and bit i of plus where c_i > 0.  Of c
    and -c, the one positive at its lowest support bit is kept.

    Each (m - 1)-subset of rows on which B has rank m - 1 gives the
    circuit vanishing there (module docstring).  Raises BudgetExceeded,
    before any subset kernel, when the C(N, m - 1) subsets pass
    ``CIRCUIT_WORK_BUDGET``.
    """
    m = len(basis)
    if m == 0:
        return []
    n = len(basis[0])
    if comb(n, m - 1) > CIRCUIT_WORK_BUDGET:
        raise BudgetExceeded(
            f"circuits of {n} relation rows with a {m}-dimensional left kernel "
            f"need C({n}, {m - 1}) > {CIRCUIT_WORK_BUDGET} subset kernels"
        )
    circuits = set()
    for zeros in combinations(range(n), m - 1):
        ys = linalg.kernel_basis([[b[i] for b in basis] for i in zeros], ncols=m)
        if len(ys) > 1:  # B has rank < m - 1 on these rows
            continue
        c = [sum(y * b[i] for y, b in zip(ys[0], basis)) for i in range(n)]
        support = sum(1 << i for i, x in enumerate(c) if x)
        plus = sum(1 << i for i, x in enumerate(c) if x > 0)
        if not plus & support & -support:
            plus ^= support
        circuits.add((support, plus))
    return sorted(circuits)


def is_regular_sign_vector(circuits: list[tuple[int, int]], plus: int) -> bool:
    """Is some g strictly positive on every row s_i * R_i, where s_i = +1
    on the bits of ``plus`` and -1 elsewhere?  True iff no circuit from
    ``signed_circuits(R)`` agrees with s, or with -s, on its whole
    support."""
    return all((plus ^ c_plus) & sup not in (0, sup) for sup, c_plus in circuits)


def exceptional_relation_matrix(p: Polytope, squares: tuple) -> tuple:
    """Row per square of ``squares`` (pairs of facet index and vertex
    cycle, as in ``NodalProfile``): +1 at v1 and v3, -1 at v2 and v4,
    indexed by the polytope's canonical vertex order.  Rows express the
    linear relations among the exceptional curve classes of a small
    resolution."""
    index = {v: i for i, v in enumerate(p.vertices)}
    rows = []
    for _fi, (v1, v2, v3, v4) in squares:
        row = [0] * len(p.vertices)
        row[index[v1]] += 1
        row[index[v3]] += 1
        row[index[v2]] -= 1
        row[index[v4]] -= 1
        rows.append(tuple(row))
    return tuple(rows)


def exceptional_relation_rank(profile: NodalProfile) -> int:
    """k = N - m for the m vectors of the left kernel basis."""
    k = profile.node_count - len(profile.left_kernel)
    assert 0 <= k <= profile.node_count
    return k


def friedman_smoothable(profile: NodalProfile, mode: str = "fano"):
    """(smoothable?, certificate).

    "fano": a Fano threefold with ordinary double points always smooths
    (and the smoothing is unique); the certificate is that statement.
    "cy": a smoothing exists iff some relation lambda^T R = 0 holds
    with every lambda_i nonzero, i.e. the left kernel of the relation
    matrix sits inside no coordinate hyperplane; the certificate is such a
    lambda.  Any other mode raises ValueError.
    """
    if mode == "fano":
        return True, "ordinary double points on a Fano threefold always smooth"
    if mode != "cy":
        raise ValueError(f"smoothing mode must be 'fano' or 'cy', got {mode!r}")
    n = profile.node_count
    if n == 0:
        return True, ()
    basis = profile.left_kernel
    for i in range(n):
        if all(vec[i] == 0 for vec in basis):
            return False, None
    # a generic combination of the kernel basis avoids every coordinate
    # hyperplane; weights 1, w, w^2, ... work for some small w
    for w in range(1, n * len(basis) + 2):
        lam = [
            sum(vec[i] * w**j for j, vec in enumerate(basis)) for i in range(n)
        ]
        if all(x != 0 for x in lam):
            content = gcd(*lam)
            return True, tuple(x // content for x in lam)
    raise AssertionError("generic weights must eventually miss all hyperplanes")


def transition_invariants(
    p: Polytope, profile: NodalProfile, mode: str = "fano"
) -> dict:
    """Topology of the two sides of the conifold transition, for ``profile``
    = ``nodal_profile(p)``, as the JSON object that ``conifold transition``
    prints without its ``resolutions``: N nodes, relation rank k, e_res,
    e_sm, b2_res, b2_sm, b3_sm, degree, smoothable, mode and a note.

    e_res counts the triangles of any small resolution (all 2^N share the
    count), b2_res = V - 3 for V boundary rays.  Smoothing all N nodes
    drops the Euler number by 2N and transfers rank: with k the rank of
    the exceptional relation matrix, b2_sm = b2_res - k and
    b3_sm = 2(N - k).  The degree, the normalized volume of the polar
    dual, is summed from the facet normals as the module docstring shows.
    """
    n = profile.node_count
    e_res = len(p.facets) + n  # F - N triangles and two halves per square
    b2_res = len(p.vertices) - 3
    k = exceptional_relation_rank(profile)
    # c_v may be any vertex of Q_v: the normal of any facet through v
    corner = {v: f.normal for f in p.facets for v in f.vertices}
    sides = [(f.normal, set(f.vertices)) for f in p.facets]  # once per facet
    degree = 0
    for (u, fv), (w, gv) in combinations(sides, 2):
        edge = fv & gv
        if len(edge) == 2:
            for v in edge:
                degree += abs(_det3(corner[v], u, w))
    return {
        "N": n,
        "k": k,
        "e_res": e_res,
        "e_sm": e_res - 2 * n,
        "b2_res": b2_res,
        "b2_sm": b2_res - k,
        "b3_sm": 2 * (n - k),
        "degree": degree,
        "smoothable": friedman_smoothable(profile, mode)[0],
        "mode": mode,
        "note": "b2_sm/b3_sm split is derived bookkeeping; the intrinsic "
        "statement is the Euler-number drop of 2 per node",
    }


def report_json_dict(report: dict, resolutions) -> dict:
    """``report`` from ``transition_invariants`` with the census of
    ``check_regularity`` as its ``resolutions``."""
    return {
        **report,
        "resolutions": [
            {"diagonals": r.diagonals, "regular": r.regular} for r in resolutions
        ],
    }
