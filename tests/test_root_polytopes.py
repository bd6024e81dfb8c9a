"""Two nodal reflexive polytopes beyond the bundled corpus: the A3 root
polytope (cuboctahedron) and its polar dual, the rhombic dodecahedron.

They are built here, not bundled with the package, so the golden data
and the CLI bytes stay as they are.  Every square facet of either one is
a conifold square, so N = F - 8 and N = F, and the hull scan meets many
points on one hyperplane.
"""

from itertools import product

import pytest

from conifold.lattice import (
    _hull_facets,
    convex_hull,
    normalized_volume,
    polar_dual,
)
from conifold.nodal import exceptional_relation_rank, nodal_profile, transition_invariants
from strategies import hull_facets_by_subsets

UNIT = [tuple(int(i == j) for j in range(3)) for i in range(3)]
# the 12 roots +-e_i and +-(e_i - e_j) of A3
A3_ROOTS = ([tuple(s * x for x in e) for e in UNIT for s in (1, -1)]
            + [tuple(a - b for a, b in zip(UNIT[i], UNIT[j]))
               for i in range(3) for j in range(3) if i != j])
# the 14 nonzero points of {0,1}^3 and {0,-1}^3
RHOMBIC_DODECAHEDRON = [tuple(s * x for x in v)
                        for v in product((0, 1), repeat=3) if any(v) for s in (1, -1)]

# stem: (points, V, F, N, k, degree)
ROOT_POLYTOPES = {
    "a3_roots": (A3_ROOTS, 12, 14, 6, 5, 24),
    "rhombic_dodecahedron": (RHOMBIC_DODECAHEDRON, 14, 12, 12, 9, 20),
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
    points, v, f, n, k, degree = ROOT_POLYTOPES[stem]
    assert len(set(points)) == len(points) == v
    pts = sorted(points)
    assert _hull_facets(pts, 3) == hull_facets_by_subsets(pts, 3)
    p = convex_hull(points)
    profile = nodal_profile(p)
    report = transition_invariants(p, profile)
    assert (len(p.vertices), len(p.facets), profile.node_count) == (v, f, n)
    assert exceptional_relation_rank(profile) == report.relation_rank == k
    assert report.e_res == f + n
    dual = polar_dual(p)
    assert report.degree == normalized_volume(dual) == degree
    # Riemann-Roch on the toric Fano threefold: h^0(-K) = (-K)^3 / 2 + 3
    assert lattice_point_count(dual) == degree // 2 + 3


def test_root_polytopes_are_each_others_polar_duals():
    a3 = convex_hull(A3_ROOTS)
    rd = convex_hull(RHOMBIC_DODECAHEDRON)
    assert polar_dual(a3).vertices == rd.vertices
    assert polar_dual(rd).vertices == a3.vertices
