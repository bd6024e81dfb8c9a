"""Conifold squares, small resolutions, regularity, transition reports."""

import random
import sys
import time
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conifold import linalg, nodal
from conifold.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotFullDimensional,
    NotReflexive,
    NotReflexiveFacet,
    WorseThanNodal,
)
from conifold.lattice import convex_hull, dot, normalized_volume, polar_dual
from conifold.laurent import from_fan_polytope, period_sequence
from conifold.nodal import (
    LOCAL_MODEL_SQUARE,
    NodalProfile,
    check_regularity,
    classify_facet,
    enumerate_small_resolutions,
    exceptional_relation_matrix,
    exceptional_relation_rank,
    friedman_smoothable,
    is_regular_sign_vector,
    is_regular_triangulation,
    nodal_profile,
    report_json_dict,
    resolution_triangles,
    signed_circuits,
    transition_invariants,
)
from conifold.recurrence import Recurrence
from oracles import arrangement_region_count, rank_by_minors, square_to_model_map, transform
from strategies import point_sets, unimodular_matrices

PYRAMID = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (-1, -1, -2)]
CORPUS_STEMS = ("nodal_01", "nodal_02", "nodal_03", "octahedron", "p2xp1", "p3")
CUBE = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def square_facets(p):
    return [f for f in p.facets if len(f.vertices) == 4]


def left_kernel(rows):
    # the basis NodalProfile.left_kernel holds, for any relation matrix
    basis = linalg.kernel_basis([list(col) for col in zip(*rows)], ncols=len(rows))
    return tuple(map(tuple, basis))


# ------------------------------------------------------- determinants

# entries up to 10^12 in absolute value, with small ones mixed in so that
# singular matrices come up on their own
det_entries = st.one_of(st.integers(-(10**12), 10**12), st.integers(-2, 2))


@given(st.lists(st.tuples(det_entries, det_entries, det_entries), min_size=3,
                max_size=3),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_triple_product_equals_the_elimination_determinant(rows, s, t):
    # linalg.det, the last Bareiss pivot, is the oracle; a row that is
    # s * a + t * b makes the matrix singular wherever it stands
    a, b, c = rows
    dep = tuple(s * x + t * y for x, y in zip(a, b))
    for m in ((a, b, c), (dep, a, b), (a, dep, b), (a, b, dep)):
        assert nodal._det3(*m) == linalg.det([list(r) for r in m])


@given(unimodular_matrices(dim=3))
@settings(max_examples=20, deadline=None)
def test_triple_product_equals_the_elimination_on_corpus_facets(corpus, m):
    for p in corpus.values():
        for q in (p, transform(p, m)):
            for f in q.facets:
                for tri in combinations(f.vertices, 3):
                    assert nodal._det3(*tri) == linalg.det([list(v) for v in tri])


# ------------------------------------------------------- classification


def test_local_model_square_detected():
    p = convex_hull(PYRAMID)
    squares = square_facets(p)
    assert len(squares) == 1
    cycle = classify_facet(squares[0])
    assert isinstance(cycle, tuple)
    v1, v2, v3, v4 = cycle
    assert set(cycle) == set(LOCAL_MODEL_SQUARE)
    # opposite corners of the cycle sum equally: an empty parallelogram
    assert tuple(a + b for a, b in zip(v1, v3)) == tuple(
        a + b for a, b in zip(v2, v4)
    )


def test_smooth_triangles_detected():
    p = convex_hull([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])
    for f in p.facets:
        assert classify_facet(f) == "triangle"


def test_neither_kind_is_other():
    p = convex_hull(CUBE)
    for f in p.facets:
        assert classify_facet(f) is None


def test_classify_requires_level_minus_one():
    p = convex_hull([(2 * x, 2 * y, 2 * z) for x, y, z in CUBE])
    with pytest.raises(NotReflexiveFacet):
        classify_facet(p.facets[0])


@given(unimodular_matrices(dim=3))
@settings(max_examples=100, deadline=None)
def test_classification_is_lattice_invariant(m):
    p = transform(convex_hull(PYRAMID), m)
    kinds = [classify_facet(f) for f in p.facets]
    assert sum(isinstance(k, tuple) for k in kinds) == 1
    assert kinds.count("triangle") == len(p.facets) - 1


def test_every_corpus_square_cone_is_the_local_model(corpus, golden):
    for stem, p in corpus.items():
        if golden["polytopes"][stem]["N"] == 0:
            continue
        for _, cycle in nodal_profile(p).squares:
            assert square_to_model_map(cycle) is not None, (stem, cycle)


# ------------------------------------------------------------ profiles


def test_corpus_profiles_match_golden(corpus, golden):
    for stem, p in corpus.items():
        assert nodal_profile(p).node_count == golden["polytopes"][stem]["N"]


def test_cube_is_worse_than_nodal():
    with pytest.raises(WorseThanNodal) as err:
        nodal_profile(convex_hull(CUBE))
    assert tuple(err.value.facets) == (0, 1, 2, 3, 4, 5)


def test_profile_requires_dimension_three():
    p = convex_hull([(1, 0), (0, 1), (-1, -1)])
    with pytest.raises(DimensionMismatch):
        nodal_profile(p)


def test_profile_requires_reflexive():
    p = convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2), (0, 0, -1)]
    )
    with pytest.raises(NotReflexive):
        nodal_profile(p)


# --------------------------------------------------------- resolutions


def test_resolution_count_and_diagonal_strings(corpus, golden):
    for stem, p in corpus.items():
        g = golden["polytopes"][stem]
        profile = nodal_profile(p)
        rs = enumerate_small_resolutions(profile)
        assert len(rs) == 2 ** g["N"] == g["resolution_count"]
        assert rs == sorted(rs)
        assert len(set(rs)) == len(rs)
        counts = {len(resolution_triangles(p, profile, r)) for r in rs}
        assert counts == {g["e_res"]} == {len(p.facets) + g["N"]}


def test_resolution_triangles_are_unimodular(corpus):
    p = corpus["nodal_03"]
    profile = nodal_profile(p)
    for res in enumerate_small_resolutions(profile):
        for tri in resolution_triangles(p, profile, res):
            a, b, c = tri
            assert abs(linalg.det([list(a), list(b), list(c)])) == 1


def test_resolution_budget(monkeypatch):
    p = convex_hull(
        [
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
            (-1, -1, -1),
            (0, -1, -1),
            (-1, 0, -1),
            (0, 0, -1),
        ]
    )
    profile = nodal_profile(p)
    monkeypatch.setattr(nodal, "RESOLUTION_CAP", profile.node_count)
    assert len(enumerate_small_resolutions(profile)) == 2 ** profile.node_count
    monkeypatch.setattr(nodal, "RESOLUTION_CAP", profile.node_count - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_small_resolutions(profile)


def test_regular_counts_match_golden(corpus, golden):
    # 1/1/1/2/4/46 on the corpus; Whitney's region count of the
    # arrangement {g : R_i . g = 0} is the independent second count
    for stem, p in corpus.items():
        profile = nodal_profile(p)
        regular = sum(1 for r in check_regularity(profile) if r.regular)
        assert regular == golden["polytopes"][stem]["regular_count"], stem
        assert regular == arrangement_region_count(profile.relations), stem


def test_face_fan_of_smooth_polytope_is_regular(corpus):
    p = corpus["p3"]
    profile = nodal_profile(p)
    (only,) = enumerate_small_resolutions(profile)
    assert is_regular_triangulation(p, profile, only)


def test_sign_vector_regularity_matches_wall_lp(corpus):
    for p in corpus.values():
        profile = nodal_profile(p)
        for r in check_regularity(profile):
            assert r.regular == is_regular_triangulation(p, profile, r.diagonals), (
                r.diagonals
            )


@given(
    unimodular_matrices(dim=3),
    st.sampled_from(CORPUS_STEMS),
    st.lists(st.integers(0, 63), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=20, deadline=None)
def test_sign_vector_regularity_matches_wall_lp_on_images(corpus, m, stem, picks):
    # the wall LP is the slow side, so each image checks a few resolutions
    p = transform(corpus[stem], m)
    profile = nodal_profile(p)
    rs = check_regularity(profile)
    for i in picks:
        r = rs[i % len(rs)]
        assert r.regular == is_regular_triangulation(p, profile, r.diagonals), (
            stem, r.diagonals
        )


def relation_matrices(max_rows=6, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda m: st.integers(1, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def regular_flags(p):
    profile = nodal_profile(p)
    rs = check_regularity(profile)
    return [r.regular for r in rs]


@given(relation_matrices())
@example([[0, 0]])
@example([[1, 2, -1], [0, 0, 0], [2, 1, 1]])
@example([[1, -1, 2], [1, -1, 2]])
@example([[1, 2], [-1, -2]])
@example([[2, -1, 0], [1, 1, 1], [0, 0, 1]])
@example([[1], [1], [1], [1]])
@example([[1, 0], [0, 1], [1, 1], [1, -1], [2, 1]])
@settings(max_examples=100, deadline=None)
def test_circuit_test_matches_sign_vector_lp(rows):
    # every sign vector s against the exact simplex on the rows s_i * R_i
    circuits = signed_circuits(left_kernel(rows))
    # sorted, one circuit per support, each positive at its lowest support
    # bit, and each support a minimal dependent set of rows
    assert circuits == sorted(circuits)
    supports = [support for support, _ in circuits]
    assert len(set(supports)) == len(supports)
    for support, plus in circuits:
        assert plus & support & -support and plus & ~support == 0
        picked = [rows[i] for i in range(len(rows)) if support >> i & 1]
        assert linalg.rank(picked) == len(picked) - 1
        assert all(linalg.rank(picked[:j] + picked[j + 1 :]) == len(picked) - 1
                   for j in range(len(picked)))
    for plus in range(2 ** len(rows)):
        signed = [r if plus >> i & 1 else [-x for x in r] for i, r in enumerate(rows)]
        expected = linalg.strictly_feasible(signed, len(rows[0]))
        assert is_regular_sign_vector(circuits, plus) == expected, (rows, plus)


def test_circuits_of_nodal_03(corpus):
    # three circuits (one per +-pair), each on four of the six squares
    profile = nodal_profile(corpus["nodal_03"])
    rows = profile.relations
    circuits = signed_circuits(profile.left_kernel)
    assert profile.left_kernel is profile.left_kernel  # taken once
    assert len(circuits) == 3
    for support, plus in circuits:
        subset = [i for i in range(len(rows)) if support >> i & 1]
        assert len(subset) == 4 and plus & ~support == 0
        picked = [rows[i] for i in subset]
        assert rank_by_minors(picked) == len(subset) - 1


def test_regularity_is_symmetric_under_negating_signs(corpus):
    # s and -s give the same LP up to g -> -g; flipping every diagonal
    # reverses the binary-counter order of the resolutions
    counts = {}
    for stem, p in corpus.items():
        flags = regular_flags(p)
        assert flags == flags[::-1], stem
        counts[stem] = sum(flags)
    assert counts == {"nodal_01": 2, "nodal_02": 4, "nodal_03": 46,
                      "octahedron": 1, "p2xp1": 1, "p3": 1}


@given(unimodular_matrices(dim=3), st.sampled_from(CORPUS_STEMS))
@settings(max_examples=20, deadline=None)
def test_regularity_is_symmetric_under_negating_signs_on_images(corpus, m, stem):
    flags = regular_flags(transform(corpus[stem], m))
    assert flags == flags[::-1]
    assert sum(flags) == sum(regular_flags(corpus[stem]))


@given(relation_matrices())
@settings(max_examples=100, deadline=None)
def test_full_row_rank_makes_every_sign_vector_regular(rows):
    # R g = s is solvable for every s: the left kernel is zero
    assume(linalg.rank(rows) == len(rows))
    circuits = signed_circuits(left_kernel(rows))
    assert circuits == []
    assert all(is_regular_sign_vector(circuits, plus) for plus in range(2 ** len(rows)))


def test_circuit_work_budget_counts_subset_kernels(corpus, monkeypatch):
    # one kernel per (m - 1)-subset of the N rows, m = N - k the dimension
    # of the left kernel; the budget is checked before the first one
    p = corpus["nodal_03"]
    profile = nodal_profile(p)
    rows = profile.relations
    n, k = len(rows), rank_by_minors(rows)
    kernels = comb(n, n - k - 1)
    assert kernels == 6
    monkeypatch.setattr(nodal, "CIRCUIT_WORK_BUDGET", kernels)
    assert sum(r.regular for r in check_regularity(profile)) == 46
    monkeypatch.setattr(nodal, "CIRCUIT_WORK_BUDGET", kernels - 1)
    with pytest.raises(BudgetExceeded):
        check_regularity(profile)


def test_circuit_budget_edge_on_an_eight_dimensional_left_kernel():
    # R = A . C with A n x (n - 8) and C (n - 8) x 10 random integer
    # matrices has rank n - 8, so m = 8.  Fifteen rows take the
    # C(15, 7) = 6,435 subset kernels the budget admits; sixteen would
    # take C(16, 7) = 11,440 and are refused before the first.
    rng = random.Random(8)
    bases = {}
    for n in (15, 16):
        a = [[rng.randint(-3, 3) for _ in range(n - 8)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(10)] for _ in range(n - 8)]
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in a]
        bases[n] = left_kernel(rows)
        assert len(bases[n]) == 8
    start = time.perf_counter()
    assert signed_circuits(bases[15])
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="C\\(16, 7\\)"):
        signed_circuits(bases[16])
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("argv, kernels", [
    (["transition"], 1 + 6),
    (["transition", "--mode", "cy"], 1 + 6),
    (["match", "DB", "--dmax", "10"], 1),
    (["resolve"], 0),
])
def test_relation_matrix_is_eliminated_once(corpus, corpus_paths, data_dir,
                                            monkeypatch, capsys, argv, kernels):
    # nodal_03: R is built once per command and its left kernel B taken at
    # most once, by one kernel_basis of R^T; k, the C(6, 1) = 6 subset
    # kernels of the circuits and the CY certificate are read off B, no
    # rank runs on R, and no command lists a triangle.  Only linalg calls
    # made from conifold.nodal count: the hull takes its own kernels.
    from conifold import cli

    profile = nodal_profile(corpus["nodal_03"])
    relation_rows = [list(r) for r in profile.relations]
    transposed = [list(col) for col in zip(*profile.relations)]
    calls = {name: [] for name in ("exceptional_relation_matrix",
                                   "resolution_triangles", "rank", "kernel_basis")}

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals["__name__"]
            if module is nodal or caller == "conifold.nodal":
                calls[name].append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((nodal, "exceptional_relation_matrix"),
                         (nodal, "resolution_triangles"),
                         (linalg, "rank"), (linalg, "kernel_basis")):
        spy(module, name)
    command, *rest = argv
    rest = [str(data_dir / "fano.jsonl") if a == "DB" else a for a in rest]
    assert cli.main([command, str(corpus_paths["nodal_03"]), *rest]) == 0
    capsys.readouterr()
    assert len(calls["exceptional_relation_matrix"]) == 1
    assert calls["resolution_triangles"] == []
    assert [[list(r) for r in rows] for rows in calls["rank"]].count(relation_rows) == 0
    assert len(calls["kernel_basis"]) == kernels
    assert calls["kernel_basis"][:1] == [transposed][:kernels]


@given(unimodular_matrices(dim=3), st.sampled_from(CORPUS_STEMS), point_sets(span=2))
@settings(max_examples=50, deadline=None)
def test_classified_facets_hold_no_lattice_points_but_vertices(corpus, m, stem, pts):
    polytopes = [corpus[stem], transform(corpus[stem], m)]
    try:
        polytopes.append(convex_hull(pts))
    except NotFullDimensional:
        pass
    for p in polytopes:
        for f in p.facets:
            if f.level == -1 and classify_facet(f) is not None:
                assert len(f.lattice_points) == len(f.vertices), f


def test_records_refuse_field_assignment(corpus):
    p = corpus["nodal_03"]
    profile = nodal_profile(p)
    records = [
        (p, "facets"), (p.facets[0], "level"), (classify_facet(p.facets[0]), "cycle"),
        (profile, "relations"), (check_regularity(profile)[0], "regular"),
        (period_sequence(from_fan_polytope(p), 4), "terms"),
        (Recurrence(1, 0, ((-1,), (1,))), "coeffs"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


# ------------------------------------------------- relations, friedman


def test_relation_matrix_shape_and_support(corpus, golden):
    for stem, p in corpus.items():
        profile = nodal_profile(p)
        rows = exceptional_relation_matrix(p, profile.squares)
        assert rows == profile.relations
        assert len(rows) == profile.node_count
        for row in rows:
            assert len(row) == len(p.vertices)
            assert sorted(x for x in row if x) == [-1, -1, 1, 1]
            # the row really is a lattice relation among the vertices
            combo = [
                sum(c * v[i] for c, v in zip(row, p.vertices)) for i in range(3)
            ]
            assert combo == [0, 0, 0]


def test_relation_rank_cross_checked_by_minors(corpus, golden):
    for stem, p in corpus.items():
        profile = nodal_profile(p)
        rows = profile.relations
        k = exceptional_relation_rank(profile)
        assert k == golden["polytopes"][stem]["k"]
        assert k == rank_by_minors([list(r) for r in rows])


def test_friedman_fano_mode_always_smoothable(corpus):
    for p in corpus.values():
        ok, note = friedman_smoothable(nodal_profile(p), "fano")
        assert ok and isinstance(note, str)


def test_friedman_cy_full_rank_profiles(corpus, golden):
    for stem in ("nodal_01", "nodal_02"):
        g = golden["polytopes"][stem]
        assert g["k"] == g["N"]  # these profiles have full relation rank
        ok, cert = friedman_smoothable(nodal_profile(corpus[stem]), "cy")
        assert not ok and cert is None


def test_friedman_cy_certificate(corpus, golden):
    p = corpus["nodal_03"]
    profile = nodal_profile(p)
    ok, cert = friedman_smoothable(profile, "cy")
    assert ok
    assert list(cert) == golden["polytopes"]["nodal_03"]["cy_certificate"]
    assert all(c != 0 for c in cert)
    rows = profile.relations
    for j in range(len(p.vertices)):
        assert sum(cert[i] * rows[i][j] for i in range(len(rows))) == 0


def test_friedman_cy_smooth_polytope(corpus):
    ok, cert = friedman_smoothable(nodal_profile(corpus["p3"]), "cy")
    assert ok and cert == ()


def test_friedman_cy_proportional_rows_smoothable(corpus):
    # a synthetic profile listing the same square twice produces two
    # proportional relation rows; the left kernel then avoids every
    # coordinate hyperplane and a certificate must come back
    p = corpus["nodal_01"]
    (pair,) = nodal_profile(p).squares
    doubled = NodalProfile(2, (pair, pair), exceptional_relation_matrix(p, (pair, pair)))
    ok, cert = friedman_smoothable(doubled, "cy")
    assert ok
    assert len(cert) == 2 and all(c != 0 for c in cert)


def test_smoothing_modes_are_the_strings_the_json_prints(corpus, golden):
    # "fano" always smooths; "cy" gives the answer and certificate frozen
    # in golden.json; any other string, even "FANO", is refused
    for stem, p in corpus.items():
        g = golden["polytopes"][stem]
        profile = nodal_profile(p)
        ok, note = friedman_smoothable(profile, "fano")
        assert ok is True and isinstance(note, str), stem
        assert friedman_smoothable(profile) == (ok, note)
        ok, cert = friedman_smoothable(profile, "cy")
        assert ok is g["smoothable_cy"], stem
        assert (None if cert is None else list(cert)) == g["cy_certificate"], stem
        for mode, smoothable in (("fano", True), ("cy", g["smoothable_cy"])):
            rep = transition_invariants(p, profile, mode)
            assert rep["mode"] == mode and rep["smoothable"] is smoothable, stem
        for bad in ("FANO", "x"):
            with pytest.raises(ValueError):
                friedman_smoothable(profile, bad)
            with pytest.raises(ValueError):
                transition_invariants(p, profile, bad)


# --------------------------------------------------------------- reports


def test_reports_match_golden(corpus, golden):
    for stem, p in corpus.items():
        g = golden["polytopes"][stem]
        rep = transition_invariants(p, nodal_profile(p), "fano")
        assert rep["N"] == g["N"]
        assert rep["k"] == g["k"]
        assert rep["degree"] == g["degree"]
        assert rep["e_res"] == g["e_res"]
        assert rep["e_sm"] == g["e_sm"]
        assert rep["b2_res"] == g["b2_res"]
        assert rep["b2_sm"] == g["b2_sm"]
        assert rep["b3_sm"] == g["b3_sm"]
        assert rep["smoothable"] is True


def test_report_bookkeeping_identities(corpus):
    for p in corpus.values():
        rep = transition_invariants(p, nodal_profile(p))
        assert rep["e_sm"] == rep["e_res"] - 2 * rep["N"]
        assert rep["e_sm"] == 2 + 2 * rep["b2_sm"] - rep["b3_sm"]
        assert rep["b2_res"] == len(p.vertices) - 3
        assert 0 <= rep["k"] <= rep["N"]
        assert (rep["k"] == 0) == (rep["N"] == 0)


def test_report_cy_mode(corpus):
    p = corpus["nodal_03"]
    rep = transition_invariants(p, nodal_profile(p), "cy")
    assert rep["mode"] == "cy" and rep["smoothable"] is True
    p = corpus["nodal_01"]
    rep = transition_invariants(p, nodal_profile(p), "cy")
    assert rep["smoothable"] is False


def test_report_json_shape(corpus):
    p = corpus["nodal_01"]
    profile = nodal_profile(p)
    rs = check_regularity(profile)
    payload = report_json_dict(transition_invariants(p, profile), resolutions=rs)
    for key in ("N", "k", "e_res", "e_sm", "b2_res", "b2_sm", "b3_sm",
                "degree", "smoothable", "mode"):
        assert key in payload
    assert payload["N"] == 1
    assert payload["mode"] == "fano"
    assert [r["diagonals"] for r in payload["resolutions"]] == ["0", "1"]
    assert all(isinstance(r["regular"], bool) for r in payload["resolutions"])


@given(unimodular_matrices(dim=3), st.sampled_from(CORPUS_STEMS))
@settings(max_examples=30, deadline=None)
def test_degree_is_the_dual_volume_on_images(corpus, m, stem):
    q = transform(corpus[stem], m)
    degree = transition_invariants(q, nodal_profile(q))["degree"]
    assert degree == normalized_volume(polar_dual(q))


def test_degree_obeys_riemann_roch(corpus):
    # h^0(-K) = |P* cap Z^3| = (-K)^3 / 2 + 3 on a Gorenstein toric Fano
    # threefold; the dual's points are counted in the box of its vertices
    counts = {}
    for stem, p in corpus.items():
        normals = [f.normal for f in p.facets]
        box = [range(min(u[j] for u in normals), max(u[j] for u in normals) + 1)
               for j in range(3)]
        counts[stem] = sum(all(dot(u, v) >= -1 for v in p.vertices)
                           for u in product(*box))
        degree = transition_invariants(p, nodal_profile(p))["degree"]
        assert degree == 2 * (counts[stem] - 3), stem
    assert counts == {"nodal_01": 30, "nodal_02": 26, "nodal_03": 19,
                      "octahedron": 27, "p2xp1": 30, "p3": 35}


@given(unimodular_matrices(dim=3))
@settings(max_examples=50, deadline=None)
def test_report_is_lattice_invariant(m):
    p = convex_hull(PYRAMID)
    q = transform(p, m)
    a = transition_invariants(p, nodal_profile(p))
    b = transition_invariants(q, nodal_profile(q))
    assert (a["N"], a["k"], a["degree"], a["e_sm"], a["b2_sm"], a["b3_sm"]) == (
        b["N"],
        b["k"],
        b["degree"],
        b["e_sm"],
        b["b2_sm"],
        b["b3_sm"],
    )
