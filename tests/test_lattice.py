"""Convex hulls, reflexivity, polar duals, and normalized volumes."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold import linalg
from conifold.errors import (
    BudgetExceeded,
    EmptyInput,
    NotFullDimensional,
    OriginNotInterior,
    ParseError,
)
from conifold.lattice import (
    HULL_WORK_BUDGET,
    _affine_rank,
    _hull_facets,
    convex_hull,
    cross,
    dot,
    is_reflexive,
    normalized_volume,
    polar_dual,
    polytope_from_json_dict,
    rational_hull,
    vsub,
)
from conifold.linalg import strictly_feasible
from oracles import hull_facets_by_subsets, transform
from strategies import point_sets, unimodular_matrices

P3_VERTICES = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def boundary_lattice_points(p) -> tuple:
    return tuple(sorted({x for f in p.facets for x in f.lattice_points}))


def is_integral(q) -> bool:
    return all(x.denominator == 1 for v in q.vertices for x in v)


def as_lattice(q):
    """The lattice polytope with the vertices of an integral polar dual."""
    assert is_integral(q)
    return convex_hull([tuple(int(x) for x in v) for v in q.vertices])


# ---------------------------------------------------------------- hulls


def test_hull_canonical_vertex_order():
    p = convex_hull(list(reversed(OCTAHEDRON)))
    assert p.vertices == tuple(sorted(OCTAHEDRON))


def test_hull_drops_interior_and_duplicate_points():
    p = convex_hull(CUBE + [(0, 0, 0), (1, 1, 1), (0, 0, 1)])
    assert p.vertices == tuple(sorted(CUBE))


def test_hull_drops_non_vertex_boundary_points():
    # edge midpoints are boundary but not vertices
    p = convex_hull([(2, 0), (0, 2), (-2, -2), (1, 1)])
    assert p.vertices == ((-2, -2), (0, 2), (2, 0))


def test_hull_empty_input():
    with pytest.raises(EmptyInput):
        convex_hull([])


def test_hull_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)])


# independent directions in every dimension 2-4 once cut to its length
FLAT_DIRECTIONS = [(1, 2, -1, 3), (0, 1, -1, 1), (2, 0, 1, -1)]


def flat_set(dim, span) -> list:
    """The points (2, -1, 0, 1) + sum c_i d_i over c in {-1, 0, 1}^span
    for the first ``span`` of FLAT_DIRECTIONS, cut to dimension ``dim``,
    each point twice: an affine span of dimension ``span`` exactly."""
    directions = [d[:dim] for d in FLAT_DIRECTIONS[:span]]
    points = [tuple(x + sum(c * d[k] for c, d in zip(cs, directions))
                    for k, x in enumerate((2, -1, 0, 1)[:dim]))
              for cs in product((-1, 0, 1), repeat=span)]
    return points * 2


@pytest.mark.parametrize("dim, span", [(dim, span) for dim in (2, 3, 4)
                                       for span in range(dim)])
def test_flat_input_names_the_dimension_of_its_span(dim, span):
    # a repeated point (span 0), a collinear set, a coplanar set and, in
    # dimension 4, a set in a hyperplane
    points = flat_set(dim, span)
    message = f"points span an affine subspace of dimension {span} < {dim}"
    assert _affine_rank(sorted(set(points))) == span
    for hull in (convex_hull, rational_hull):
        with pytest.raises(NotFullDimensional) as refusal:
            hull(points)
        assert str(refusal.value) == message


def test_flat_input_past_the_hull_budget_is_refused_as_flat():
    # 64 coplanar points need C(64, 3) * 64 point tests, past the budget;
    # the flat input is still refused as such, and one point off the plane
    # makes it a budget refusal
    plane = [(x, y, x - y) for x in range(8) for y in range(8)]
    assert comb(64, 3) * 64 > HULL_WORK_BUDGET
    with pytest.raises(NotFullDimensional) as refusal:
        convex_hull(plane)
    assert str(refusal.value) == "points span an affine subspace of dimension 2 < 3"
    with pytest.raises(BudgetExceeded, match="point tests"):
        convex_hull(plane + [(0, 0, 1)])


def test_a_hull_that_succeeds_takes_no_rank(corpus, monkeypatch):
    # flatness shows in the facet scan itself, so the rank is only taken to
    # word a refusal
    from test_laurent import NODAL_02_MUTANT
    from test_root_polytopes import A3_ROOTS, RHOMBIC_DODECAHEDRON

    def no_rank(rows):
        raise AssertionError("a hull that succeeds takes no rank")

    monkeypatch.setattr(linalg, "rank", no_rank)
    point_sets = [list(p.vertices) for _stem, p in sorted(corpus.items())] + [
        A3_ROOTS, RHOMBIC_DODECAHEDRON, NODAL_02_MUTANT, P3_VERTICES, OCTAHEDRON,
        CUBE, CUBE_GRID, [(2, 0), (0, 2), (-2, -2), (1, 1)],
        [tuple(t**j for j in range(1, 5)) for t in range(9)],
    ]
    for points in point_sets:
        p = convex_hull(points)
        assert len(p.facets) > p.dim
    for p in corpus.values():
        assert polar_dual(p).dim == 3


def test_hull_rejects_ragged_points():
    # the dimension is the first point's, and every point must share it
    with pytest.raises(NotFullDimensional, match="does not live in dimension 3"):
        convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1)])
    with pytest.raises(NotFullDimensional, match="does not live in dimension 2"):
        rational_hull([(0, 0), (1, 0), (0, 1, 0)])


def test_hull_rejects_non_integers():
    with pytest.raises(ValueError):
        convex_hull([(0.5, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_simplex_facets():
    p = convex_hull(P3_VERTICES)
    assert len(p.facets) == 4
    assert all(f.level == -1 for f in p.facets)
    # facet normals of a reflexive polytope are the polar dual's vertices
    normals = {f.normal for f in p.facets}
    assert normals == {(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)}


def test_octahedron_facets():
    p = convex_hull(OCTAHEDRON)
    assert len(p.facets) == 8
    assert {f.normal for f in p.facets} == {
        (sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
    }
    assert all(f.level == -1 for f in p.facets)


def test_facet_vertices_lie_on_facet():
    p = convex_hull(CUBE)
    for f in p.facets:
        for v in f.vertices:
            assert sum(a * b for a, b in zip(f.normal, v)) == f.level


def test_cube_facet_lattice_points():
    p = convex_hull(CUBE)
    for f in p.facets:
        assert len(f.vertices) == 4
        assert len(f.lattice_points) == 9  # 3x3 grid on each face
        assert f.lattice_points is f.lattice_points  # scanned once


def test_two_dimensional_hull():
    p = convex_hull([(1, 0), (0, 1), (-1, -1)])
    assert len(p.facets) == 3
    assert all(f.level == -1 for f in p.facets)
    assert boundary_lattice_points(p) == tuple(sorted([(1, 0), (0, 1), (-1, -1)]))


# ------------------------------------------------------- duals, volumes


def test_p3_polar_dual_vertices():
    q = polar_dual(convex_hull(P3_VERTICES))
    assert is_integral(q)
    assert tuple(sorted(q.vertices)) == tuple(
        sorted([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
    )


def test_octahedron_dual_is_cube():
    q = polar_dual(convex_hull(OCTAHEDRON))
    assert as_lattice(q).vertices == tuple(sorted(CUBE))


def test_biduality():
    for verts in (P3_VERTICES, OCTAHEDRON, CUBE):
        p = convex_hull(verts)
        q = as_lattice(polar_dual(p))
        back = as_lattice(polar_dual(q))
        assert back.vertices == p.vertices


# vertices of the polar duals of the bundled polytopes, frozen from the
# Fraction elimination that preceded the integer one
CORPUS_DUAL_VERTICES = {
    "p3": [(-1, -1, -1), (-1, -1, 3), (-1, 3, -1), (3, -1, -1)],
    "octahedron": sorted(CUBE),
    "p2xp1": [(-1, -1, -1), (-1, -1, 1), (-1, 2, -1), (-1, 2, 1), (2, -1, -1), (2, -1, 1)],
    "nodal_01": [(-3, 0, 2), (0, -3, 2), (0, 0, -1), (0, 3, -1), (3, 0, -1)],
    "nodal_02": [(-3, -2, 4), (-1, 0, 0), (0, -2, 1), (0, 0, -1), (0, 1, -1),
                 (0, 1, 1), (2, 0, -1), (2, 1, -1)],
    "nodal_03": [(-2, 0, 1), (0, -2, 1), (0, 0, -1), (0, 0, 1), (0, 2, -1), (2, 0, -1)],
}


def test_polar_duals_of_corpus_unchanged(corpus):
    # every dual here but the last is integral; the last is hulled over
    # the common denominator 2 and scaled back
    assert set(corpus) == set(CORPUS_DUAL_VERTICES)
    for stem, p in corpus.items():
        q = polar_dual(p)
        assert list(q.vertices) == CORPUS_DUAL_VERTICES[stem], stem
        assert {(f.normal, f.level) for f in q.facets} == {(v, -1) for v in p.vertices}
    half = Fraction(1, 2)
    q = polar_dual(convex_hull([(2 * x, 2 * y, 2 * z) for x, y, z in P3_VERTICES]))
    assert list(q.vertices) == [(-half, -half, -half), (-half, -half, 3 * half),
                                (-half, 3 * half, -half), (3 * half, -half, -half)]


@pytest.mark.parametrize("k", [2, 3])
def test_dual_of_a_multiple_is_the_dual_scaled_down(corpus, k):
    # the dual of k * P has denominator k: its hull is taken over L = k
    for stem, p in corpus.items():
        q = polar_dual(p)
        qk = polar_dual(convex_hull([tuple(k * x for x in v) for v in p.vertices]))
        assert qk.vertices == tuple(tuple(x / k for x in v) for v in q.vertices), stem
        assert k**3 * normalized_volume(qk) == normalized_volume(q), stem


@st.composite
def rational_point_sets(draw):
    dim = draw(st.integers(2, 3))
    coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=8))
    return dim, pts


@given(rational_point_sets())
@settings(max_examples=100, deadline=None)
def test_rational_hull_over_a_common_denominator(case):
    dim, pts = case
    try:
        q = rational_hull(pts)
    except NotFullDimensional:
        return
    assert set(q.vertices) <= set(pts)
    for f in q.facets:
        assert all(type(x) is int for x in f.normal) and gcd(*f.normal) == 1
        assert all(sum(a * b for a, b in zip(f.normal, x)) >= f.level for x in pts)
        assert all(sum(a * b for a, b in zip(f.normal, v)) == f.level for v in f.vertices)


def test_polar_dual_requires_interior_origin():
    with pytest.raises(OriginNotInterior):
        polar_dual(convex_hull([(v[0] + 2, v[1], v[2]) for v in OCTAHEDRON]))


def test_scaled_simplex_not_reflexive():
    p = convex_hull([(2 * x, 2 * y, 2 * z) for x, y, z in P3_VERTICES])
    assert not is_reflexive(p)
    assert not is_integral(polar_dual(p))


def test_reflexive_corpus_members():
    assert is_reflexive(convex_hull(P3_VERTICES))
    assert is_reflexive(convex_hull(OCTAHEDRON))
    assert is_reflexive(convex_hull(CUBE))


def test_normalized_volume_basics():
    unit_simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert normalized_volume(unit_simplex) == 1
    assert normalized_volume(convex_hull(CUBE)) == 48
    assert normalized_volume(convex_hull(P3_VERTICES)) == 4
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert normalized_volume(square) == 2


def test_normalized_volume_of_duals():
    assert normalized_volume(polar_dual(convex_hull(P3_VERTICES))) == 64
    assert normalized_volume(polar_dual(convex_hull(OCTAHEDRON))) == 48


def test_boundary_lattice_points_octahedron():
    assert boundary_lattice_points(convex_hull(OCTAHEDRON)) == tuple(
        sorted(OCTAHEDRON)
    )


def test_boundary_lattice_points_cube():
    pts = boundary_lattice_points(convex_hull(CUBE))
    assert len(pts) == 26  # all of {-1,0,1}^3 except the origin
    assert (0, 0, 0) not in pts


# ------------------------------------------------------------ parsing


def test_polytope_from_json_dict_roundtrip():
    p = convex_hull(OCTAHEDRON)
    q = polytope_from_json_dict(
        {"dim": p.dim, "vertices": [list(v) for v in p.vertices]}
    )
    assert q.vertices == p.vertices


def test_polytope_from_json_rejects_bool_coordinates():
    with pytest.raises(ParseError):
        polytope_from_json_dict({"vertices": [[True, 0, 0], [0, 1, 0]]})


def test_polytope_from_json_rejects_missing_vertices():
    with pytest.raises(ParseError):
        polytope_from_json_dict({"dim": 3})


def test_polytope_from_json_rejects_ragged_vertices():
    with pytest.raises(ParseError):
        polytope_from_json_dict({"vertices": [[1, 0, 0], [0, 1]]})


def test_polytope_from_json_infers_dimension():
    p = polytope_from_json_dict({"vertices": [list(v) for v in P3_VERTICES]})
    assert p.dim == 3


# ------------------------------------------------------------ properties


@given(point_sets(dim=3))
@settings(max_examples=120, deadline=None)
def test_hull_facet_inequalities_hold(pts):
    try:
        p = convex_hull(pts)
    except (EmptyInput, NotFullDimensional):
        return
    for f in p.facets:
        for x in pts:
            assert sum(a * b for a, b in zip(f.normal, x)) >= f.level
    assert set(p.vertices) <= set(pts)


@given(point_sets(dim=3))
@settings(max_examples=80, deadline=None)
def test_hull_idempotent(pts):
    try:
        p = convex_hull(pts)
    except (EmptyInput, NotFullDimensional):
        return
    again = convex_hull(list(p.vertices))
    assert again.vertices == p.vertices
    assert [(f.normal, f.level) for f in again.facets] == [
        (f.normal, f.level) for f in p.facets
    ]


@st.composite
def spliced_point_sets(draw):
    """(dim, points): a point set in dimension 2, 3 or 4 scaled by 2n,
    with the midpoints of some pairs, the centroid and some repeats
    spliced in; none of the spliced points is a new vertex."""
    dim = draw(st.sampled_from([2, 3, 4]))
    pts = draw(point_sets(dim=dim, max_points=dim + 4, span=2))
    n = len(pts)
    scaled = [tuple(2 * n * x for x in p) for p in pts]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3))
    mids = [tuple(n * (a + b) for a, b in zip(pts[i], pts[j])) for i, j in pairs]
    centroid = tuple(2 * sum(col) for col in zip(*pts))
    repeats = draw(st.lists(st.sampled_from(scaled), max_size=2))
    return dim, draw(st.permutations(scaled + mids + [centroid] + repeats))


@given(spliced_point_sets())
@settings(max_examples=150, deadline=None)
def test_hull_vertices_are_the_unique_minima_of_linear_functionals(case):
    # p is a vertex iff some h has <h, q - p> > 0 for every other point q
    dim, pts = case
    try:
        p = convex_hull(pts)
    except NotFullDimensional:
        return
    distinct = sorted(set(pts))
    oracle = [x for x in distinct
              if strictly_feasible([vsub(q, x) for q in distinct if q != x], dim)]
    assert list(p.vertices) == oracle


def assert_hull_scan_matches_subset_scan(pts, dim):
    """The seen-set scan returns what testing every dim-subset returns:
    the same facets, equality sets and order."""
    pts = sorted(set(pts))
    if _affine_rank(pts) < dim:
        return
    assert _hull_facets(pts, dim) == hull_facets_by_subsets(pts, dim)


@st.composite
def small_span_point_sets(draw):
    """(dim, points) in dimension 2, 3 or 4 with coordinates within 1 or
    2 of the origin, where many points share a hyperplane."""
    dim = draw(st.sampled_from([2, 3, 4]))
    span = draw(st.integers(1, 2))
    return dim, draw(point_sets(dim=dim, max_points=dim + 6, span=span))


@given(st.one_of(spliced_point_sets(), small_span_point_sets()))
@settings(max_examples=300, deadline=None)
def test_hull_scan_matches_the_subset_scan(case):
    dim, pts = case
    assert_hull_scan_matches_subset_scan(pts, dim)


@given(st.one_of(spliced_point_sets(), small_span_point_sets()))
@settings(max_examples=300, deadline=None)
def test_hull_normals_are_primitive_and_cut_out_their_facets(case):
    # the scan reduces each kernel vector only once it supports the hull;
    # the 2n-scaled sets have kernel vectors with a common factor
    dim, pts = case
    pts = sorted(set(pts))
    if _affine_rank(pts) < dim:
        return
    for u, c, on in _hull_facets(pts, dim):
        assert gcd(*u) == 1
        vals = [dot(u, p) for p in pts]
        assert all(v >= c for v in vals)
        assert on == tuple(i for i, v in enumerate(vals) if v == c)


@given(unimodular_matrices(dim=3))
@settings(max_examples=25, deadline=None)
def test_hull_scan_matches_the_subset_scan_on_corpus_images(corpus, m):
    for p in corpus.values():
        assert_hull_scan_matches_subset_scan(
            [tuple(dot(row, v) for row in m) for v in p.vertices], 3)


# the 27 points of {-1, 0, 1}^3: 49 collinear triples, whose cross
# products vanish, and planes through 9 points, whose triples are marked
# seen after one scan
CUBE_GRID = [(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
# the bands of largest |coordinate| that command-mix benchmark images fall in
COORDINATE_BANDS = ((10, 19), (20, 29), (30, 39), (40, 49), (50, 60))


def banded_image(points, rng, lo, hi) -> list:
    """The points under a seeded walk of unimodular shears that stops once
    the largest |coordinate| reaches ``lo``, skipping any shear that takes
    one above ``hi``; a walk stuck below ``lo`` starts again."""
    while True:
        image = [list(p) for p in points]
        for _ in range(200):
            i, j = rng.sample(range(3), 2)
            c = rng.choice((-2, -1, 1, 2))
            column = [p[i] + c * p[j] for p in image]
            if max(map(abs, column)) > hi:
                continue
            for p, x in zip(image, column):
                p[i] = x
            if max(abs(x) for p in image for x in p) >= lo:
                return [tuple(p) for p in image]


def test_hull_scan_matches_the_subset_scan_on_degenerate_triples():
    assert_hull_scan_matches_subset_scan(CUBE_GRID, 3)
    assert [len(on) for _u, _c, on in _hull_facets(CUBE_GRID, 3)] == [9] * 6


@pytest.mark.parametrize("lo, hi", COORDINATE_BANDS)
def test_hull_scan_matches_the_subset_scan_in_the_coordinate_bands(corpus, lo, hi):
    # the grid and each corpus polytope with the origin (the octahedron's
    # opposite vertices make collinear triples through it, the nodal
    # polytopes' conifold squares four-point facets) in one band
    rng = random.Random(f"hull-bands:{lo}")
    sets = [CUBE_GRID] + [list(p.vertices) + [(0, 0, 0)]
                          for _name, p in sorted(corpus.items())]
    for pts in sets:
        image = banded_image(pts, rng, lo, hi)
        assert lo <= max(abs(x) for p in image for x in p) <= hi
        assert_hull_scan_matches_subset_scan(image, 3)


ENTRIES = st.integers(-10**12, 10**12)


@st.composite
def row_pairs(draw):
    """Two rows of length 3 with entries up to 10^12 in absolute value;
    about half of them linearly dependent (one a multiple of the other,
    or zero)."""
    u = draw(st.tuples(ENTRIES, ENTRIES, ENTRIES))
    if draw(st.booleans()):
        return u, draw(st.tuples(ENTRIES, ENTRIES, ENTRIES))
    k = draw(st.integers(-3, 3))
    small = tuple(x // 3 for x in u)
    return small, tuple(k * x for x in small)


@given(row_pairs())
@settings(max_examples=300, deadline=None)
def test_cross_product_is_the_kernel_of_two_rows(rows):
    u, v = rows
    kernel = linalg.kernel_basis([list(u), list(v)], ncols=3)
    w = cross(u, v)
    if len(kernel) > 1:  # dependent rows
        assert w == (0, 0, 0)
    else:
        (k,) = kernel
        assert w in (tuple(k), tuple(-x for x in k))
        assert w != (0, 0, 0)


@given(point_sets(dim=2, max_points=6, span=4))
@settings(max_examples=100, deadline=None)
def test_hull_2d_contains_input(pts):
    try:
        p = convex_hull(pts)
    except (EmptyInput, NotFullDimensional):
        return
    assert all(dot(f.normal, x) >= f.level for f in p.facets for x in pts)


@given(unimodular_matrices(dim=3))
@settings(max_examples=100, deadline=None)
def test_volume_and_reflexivity_are_unimodular_invariants(m):
    p = convex_hull(OCTAHEDRON)
    q = transform(p, m)
    assert normalized_volume(q) == normalized_volume(p)
    assert is_reflexive(q)
    assert len(q.facets) == len(p.facets)


@given(unimodular_matrices(dim=3))
@settings(max_examples=60, deadline=None)
def test_dual_volume_is_unimodular_invariant(m):
    p = convex_hull(P3_VERTICES)
    q = transform(p, m)
    assert normalized_volume(polar_dual(q)) == 64


@pytest.mark.parametrize("dim, largest", [(3, 50), (4, 31)])
def test_hull_budget_in_low_dimension_counts_point_tests_only(monkeypatch, dim, largest):
    # in dimensions 3-4 the eliminations' entry updates stay under the
    # budget whenever the point tests do, so the largest admitted point set
    # is the one C(n, dim) * n allows; stubbing the normal (the cross
    # product in dimension 3, the kernel elsewhere) to a degenerate one
    # makes the scan free
    from conifold import lattice

    monkeypatch.setattr(lattice, "cross", lambda u, v: (0, 0, 0))
    monkeypatch.setattr(lattice.linalg, "kernel_basis", lambda rows, ncols: [])
    points = [tuple(i ** k for k in range(1, dim + 1)) for i in range(largest + 1)]
    assert lattice._hull_facets(points[:largest], dim) == []
    with pytest.raises(BudgetExceeded, match="point tests"):
        lattice._hull_facets(points, dim)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_hull_budget_edge_on_the_moment_curve(dim):
    # in dimensions 2-4 the eliminations' entry updates stay under the
    # budget whenever the point tests do, so the most points admitted are
    # the most the point tests admit: C(126, 2) * 126 = 992,250 in
    # dimension 2, C(50, 3) * 50 = 980,000 in dimension 3 and
    # C(31, 4) * 31 = 975,415 in dimension 4.  On the moment curve every
    # dim-subset spans a hyperplane, so all of them are scanned, and the
    # hull is the cyclic polytope, with n facets in dimension 2, 2(n - 2)
    # in dimension 3 and n(n - 3)/2 in dimension 4.  One point more is
    # refused before any scan.
    admitted, facets = {2: (126, 126), 3: (50, 96), 4: (31, 434)}[dim]
    curve = [tuple(t**j for j in range(1, dim + 1)) for t in range(admitted + 1)]
    start = time.perf_counter()
    assert len(convex_hull(curve[:admitted]).facets) == facets
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="point tests"):
        convex_hull(curve)
    assert time.perf_counter() - start < 0.1
