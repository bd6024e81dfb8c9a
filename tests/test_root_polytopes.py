"""Two nodal reflexive polytopes beyond the bundled corpus: the A3 root
polytope (cuboctahedron) and its polar dual, the rhombic dodecahedron.

They are built here, not bundled with the package, so the golden data
and the CLI bytes stay as they are.  Every square facet of either one is
a conifold square, so N = F - 8 and N = F, and the hull scan meets many
points on one hyperplane.
"""

import random
from itertools import product

import pytest

from conifold.lattice import (
    _hull_facets,
    convex_hull,
    normalized_volume,
    polar_dual,
)
from conifold.laurent import from_fan_polytope, period_sequence
from conifold.nodal import (
    check_regularity,
    exceptional_relation_rank,
    is_regular_triangulation,
    nodal_profile,
    transition_invariants,
)
from oracles import arrangement_region_count, hull_facets_by_subsets, iterated_periods

UNIT = [tuple(int(i == j) for j in range(3)) for i in range(3)]
# the 12 roots +-e_i and +-(e_i - e_j) of A3
A3_ROOTS = ([tuple(s * x for x in e) for e in UNIT for s in (1, -1)]
            + [tuple(a - b for a, b in zip(UNIT[i], UNIT[j]))
               for i in range(3) for j in range(3) if i != j])
# the 14 nonzero points of {0,1}^3 and {0,-1}^3
RHOMBIC_DODECAHEDRON = [tuple(s * x for x in v)
                        for v in product((0, 1), repeat=3) if any(v) for s in (1, -1)]

# stem: (points, V, F, N, k, degree, regular resolutions of the 2^N)
ROOT_POLYTOPES = {
    "a3_roots": (A3_ROOTS, 12, 14, 6, 5, 24, 62),
    "rhombic_dodecahedron": (RHOMBIC_DODECAHEDRON, 14, 12, 12, 9, 20, 3608),
}


def lattice_point_count(q) -> int:
    """|q ∩ Z^dim|, by testing every point of the bounding box against
    every facet inequality."""
    box = product(*(range(int(min(col)) - 1, int(max(col)) + 2)
                    for col in zip(*q.vertices)))
    return sum(all(sum(a * b for a, b in zip(f.normal, x)) >= f.level for f in q.facets)
               for x in box)


@pytest.mark.parametrize("stem", sorted(ROOT_POLYTOPES))
def test_root_polytope_invariants(stem):
    points, v, f, n, k, degree, _ = ROOT_POLYTOPES[stem]
    assert len(set(points)) == len(points) == v
    pts = sorted(points)
    assert _hull_facets(pts, 3) == hull_facets_by_subsets(pts, 3)
    p = convex_hull(points)
    profile = nodal_profile(p)
    report = transition_invariants(p, profile)
    assert (len(p.vertices), len(p.facets), profile.node_count) == (v, f, n)
    assert exceptional_relation_rank(profile) == report["k"] == k
    assert report["e_res"] == f + n
    dual = polar_dual(p)
    assert report["degree"] == normalized_volume(dual) == degree
    # Riemann-Roch on the toric Fano threefold: h^0(-K) = (-K)^3 / 2 + 3
    assert lattice_point_count(dual) == degree // 2 + 3


def test_root_polytopes_are_each_others_polar_duals():
    a3 = convex_hull(A3_ROOTS)
    rd = convex_hull(RHOMBIC_DODECAHEDRON)
    assert polar_dual(a3).vertices == rd.vertices
    assert polar_dual(rd).vertices == a3.vertices


@pytest.mark.parametrize("stem", sorted(ROOT_POLYTOPES))
def test_root_census_counts_the_arrangement_regions(stem):
    # the circuit census against Whitney's count of the regions of
    # {g : R_i . g = 0}, which lists no sign vector
    points, *_, regular = ROOT_POLYTOPES[stem]
    profile = nodal_profile(convex_hull(points))
    census = check_regularity(profile)
    assert len(census) == 2 ** profile.node_count
    assert sum(r.regular for r in census) == arrangement_region_count(profile.relations)
    assert sum(r.regular for r in census) == regular


@pytest.mark.parametrize("stem", sorted(ROOT_POLYTOPES))
def test_root_periods_match_iterated_multiplication(stem):
    w = from_fan_polytope(convex_hull(ROOT_POLYTOPES[stem][0]))
    assert list(period_sequence(w, 10).terms) == iterated_periods(w, 10)


def test_rhombic_census_matches_the_wall_lp_on_a_sample():
    # the wall LP takes about 0.3 s a resolution at N = 12, so it checks
    # a seeded sample: four regular resolutions and four that are not
    p = convex_hull(RHOMBIC_DODECAHEDRON)
    profile = nodal_profile(p)
    census = check_regularity(profile)
    rng = random.Random(12)
    for regular in (True, False):
        for r in rng.sample([r for r in census if r.regular is regular], 4):
            assert is_regular_triangulation(p, profile, r.diagonals) is regular, r.diagonals
