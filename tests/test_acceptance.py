"""Acceptance checks: one test per headline guarantee of the package.

Each test prints a single PASS line (visible with ``pytest -s``) so the
suite doubles as a checklist.  Expected numbers are either classical
(binomial identities, products of small factorials) or frozen from the
independent brute-force oracle in ``laurent.period_term_direct``.
"""

import json
import math
import random
import time

from conifold import (
    NodalProfile,
    check_regularity,
    classify_facet,
    enumerate_small_resolutions,
    exceptional_relation_matrix,
    find_recurrence,
    friedman_smoothable,
    from_fan_polytope,
    nodal_profile,
    normalized_volume,
    period_sequence,
    period_term_direct,
    polar_dual,
    transition_invariants,
    verify_recurrence,
)
from conifold.linalg import rank
from conifold.nodal import resolution_triangles
from oracles import CLOSED_FORM_PERIODS, iterated_periods, rank_by_minors, transform

ALL_STEMS = ("p3", "octahedron", "p2xp1", "nodal_01", "nodal_02", "nodal_03")


def test_p3_periods_match_oracle(corpus):
    start = time.perf_counter()
    w = from_fan_polytope(corpus["p3"])
    seq = period_sequence(w, 12)
    direct = [period_term_direct(w, d) for d in range(13)]
    assert list(seq.terms) == direct
    assert seq.terms[4] == 24
    assert seq.terms[8] == 2520
    assert seq.terms[12] == math.factorial(12) // math.factorial(3) ** 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nPASS: projective-space periods equal the brute-force oracle "
          f"through degree 12 in {elapsed:.3f}s")


def test_periods_iterative_equals_direct_everywhere(corpus, golden):
    start = time.perf_counter()
    for stem in ALL_STEMS:
        w = from_fan_polytope(corpus[stem])
        engine = list(period_sequence(w, 10).terms)
        assert engine == iterated_periods(w, 10), stem
        assert engine == [period_term_direct(w, d) for d in range(11)], stem
        assert engine == golden["polytopes"][stem]["periods"], stem
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"\nPASS: half-power, iterated, and direct periods agree on all "
          f"{len(ALL_STEMS)} bundled polytopes through degree 10 "
          f"in {elapsed:.2f}s")


def test_high_degree_periods_match_closed_forms(corpus):
    start = time.perf_counter()
    for stem, dmax in (("p3", 40), ("nodal_03", 40), ("octahedron", 30), ("nodal_01", 90)):
        closed_form = CLOSED_FORM_PERIODS[stem]
        seq = period_sequence(from_fan_polytope(corpus[stem]), dmax)
        assert list(seq.terms) == [closed_form(d) for d in range(dmax + 1)], stem
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"\nPASS: p3 and nodal_03 periods through degree 40, octahedron "
          f"periods through degree 30 and nodal_01 periods through degree 90 "
          f"equal their closed forms in {elapsed:.2f}s")


def _random_unimodular(rng):
    m = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        op = rng.randrange(4)
        if op == 3:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-a for a in m[i]]
        else:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _kind_counts(p):
    kinds = [classify_facet(f) for f in p.facets]
    return sorted("square" if isinstance(k, tuple) else str(k) for k in kinds)


def test_facet_classification_is_unimodular_invariant(corpus):
    square_poly = corpus["nodal_01"]
    tri_poly = corpus["p3"]

    squares = [f for f in square_poly.facets if len(f.vertices) == 4]
    assert len(squares) == 1
    cycle = classify_facet(squares[0])
    assert isinstance(cycle, tuple)
    v1, v2, v3, v4 = cycle
    assert tuple(a + b for a, b in zip(v1, v3)) == tuple(
        a + b for a, b in zip(v2, v4)
    )
    assert all(
        classify_facet(f) == "triangle"
        for f in tri_poly.facets
    )

    rng = random.Random(20260816)
    for poly in (square_poly, tri_poly):
        reference = _kind_counts(poly)
        for _ in range(100):
            assert _kind_counts(transform(poly, _random_unimodular(rng))) == reference
    print("\nPASS: facet classification fixed under 100 random unimodular "
          "changes of lattice basis per polytope")


def test_small_resolution_census(corpus, nodal_stems):
    for stem in nodal_stems:
        p = corpus[stem]
        profile = nodal_profile(p)
        rep = transition_invariants(p, profile)
        res = enumerate_small_resolutions(profile)
        assert len(res) == 2 ** profile.node_count
        counts = {len(resolution_triangles(p, profile, r)) for r in res}
        assert counts == {rep["e_res"]}
        assert rep["e_sm"] == rep["e_res"] - 2 * rep["N"]
        assert len(set(res)) == len(res)
        assert all(len(r) == profile.node_count and set(r) <= {"0", "1"} for r in res)
    print("\nPASS: every nodal polytope has exactly 2^N small resolutions "
          "with a shared triangle count and e_sm = e_res - 2N")


def test_each_nodal_polytope_has_a_projective_resolution(corpus, nodal_stems, golden):
    for stem in nodal_stems:
        p = corpus[stem]
        profile = nodal_profile(p)
        checked = check_regularity(profile)
        regular = sum(1 for r in checked if r.regular)
        assert regular >= 1, stem
        assert regular == golden["polytopes"][stem]["regular_count"], stem
    print("\nPASS: at least one small resolution per nodal polytope is "
          "projective (regular triangulation)")


def test_topological_bookkeeping(corpus):
    for stem in ALL_STEMS:
        p = corpus[stem]
        profile = nodal_profile(p)
        rep = transition_invariants(p, profile)
        assert rep["e_sm"] == 2 + 2 * rep["b2_sm"] - rep["b3_sm"], stem
        assert 0 <= rep["k"] <= rep["N"], stem
        assert (rep["k"] == 0) == (rep["N"] == 0), stem
        rows = profile.relations
        if rows:
            assert rank(rows) == rank_by_minors(rows) == rep["k"], stem
    print("\nPASS: Euler/Betti bookkeeping consistent on all bundled "
          "polytopes, with the relation rank confirmed two ways")


def test_smoothability_criteria(corpus, nodal_stems):
    for stem in ALL_STEMS:
        p = corpus[stem]
        ok, _ = friedman_smoothable(nodal_profile(p), "fano")
        assert ok, stem

    for stem in ("nodal_01", "nodal_02"):
        p = corpus[stem]
        profile = nodal_profile(p)
        rows = profile.relations
        assert rank(rows) == profile.node_count
        ok, cert = friedman_smoothable(profile, "cy")
        assert not ok and cert is None, stem

    p = corpus["nodal_01"]
    pair = nodal_profile(p).squares[0]
    rows = exceptional_relation_matrix(p, (pair, pair))
    doubled = NodalProfile(node_count=2, squares=(pair, pair), relations=rows)
    ok, lam = friedman_smoothable(doubled, "cy")
    assert ok and len(lam) == 2 and all(x != 0 for x in lam)
    assert all(
        sum(lam[i] * rows[i][j] for i in range(2)) == 0
        for j in range(len(p.vertices))
    )

    p = corpus["nodal_03"]
    profile = nodal_profile(p)
    ok, lam = friedman_smoothable(profile, "cy")
    rows = profile.relations
    assert ok and len(lam) == 6 and all(x != 0 for x in lam)
    assert all(
        sum(lam[i] * rows[i][j] for i in range(6)) == 0
        for j in range(len(p.vertices))
    )
    print("\nPASS: Fano smoothability always holds; Calabi-Yau criterion "
          "rejects full-rank relation matrices and certifies degenerate ones")


def test_recurrence_guesser(corpus, golden):
    start = time.perf_counter()
    doubling = [2 ** d for d in range(20)]
    rec = find_recurrence(doubling, rmax=2, degree_max=1)
    assert rec is not None and (rec.order, rec.degree) == (1, 0)
    assert rec.coeffs == ((-2,), (1,))

    central = [math.comb(2 * d, d) for d in range(24)]
    rec = find_recurrence(central, rmax=2, degree_max=2)
    assert rec is not None and (rec.order, rec.degree) == (1, 1)
    assert rec.coeffs == ((-2, -4), (1, 1))

    w = from_fan_polytope(corpus["p3"])
    seq = period_sequence(w, 40).terms
    rec = find_recurrence(seq, rmax=4, degree_max=3)
    assert rec is not None
    frozen = golden["p3_recurrence"]
    assert rec.order == frozen["order"] and rec.degree == frozen["degree"]
    assert [[str(c) for c in poly] for poly in rec.coeffs] == frozen["coeffs"]
    fresh = period_sequence(w, 60).terms
    assert verify_recurrence(rec, fresh)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"\nPASS: recurrence search recovers doubling, central-binomial, "
          f"and the degree-40 period recurrence (re-verified to degree 60) "
          f"in {elapsed:.2f}s")


def test_anticanonical_degrees(corpus):
    assert normalized_volume(polar_dual(corpus["p3"])) == 64
    assert normalized_volume(polar_dual(corpus["octahedron"])) == 48
    print("\nPASS: anticanonical degrees 64 and 48 recovered exactly from "
          "dual volumes")


# The smoothing of each corpus polytope as a Mori-Mukai family, with its
# Picard rank rho, degree (-K)^3 and h^{1,2}, from the classification
# tables (Chapter 12) of Iskovskikh-Prokhorov, *Fano Varieties*
# (Encyclopaedia Math. Sci. 47, 1999).  2-30 (P^3 blown up in a conic) and
# 2-31 (Q blown up in a line) share one triple, and which of them nodal_02
# smooths to is left undecided.
SMOOTHINGS = {
    "p3": ("1-17, P^3", 1, 64, 0),
    "nodal_01": ("1-16, the quadric Q", 1, 54, 0),
    "nodal_03": ("1-14, V_{2,2}", 1, 32, 2),
    "octahedron": ("3-27, (P^1)^3", 3, 48, 0),
    "p2xp1": ("2-34, P^2 x P^1", 2, 54, 0),
    "nodal_02": ("2-30 or 2-31", 2, 46, 0),
}


def test_smoothings_match_iskovskikh_prokhorov(cli, corpus_paths):
    for stem, (family, rho, degree, h12) in SMOOTHINGS.items():
        _, out, _ = cli("transition", corpus_paths[stem])
        rep = json.loads(out)
        assert (rep["b2_sm"], rep["degree"], rep["b3_sm"], rep["e_sm"]) == (
            rho, degree, 2 * h12, 2 + 2 * rho - 2 * h12), (stem, family)
    print("\nPASS: the six smoothings have the Picard rank, degree and h^{1,2} "
          "of their Mori-Mukai families")


def test_cli_is_deterministic_on_corpus(cli, corpus_paths):
    for stem in ALL_STEMS:
        _, first, _ = cli("transition", corpus_paths[stem])
        _, second, _ = cli("transition", corpus_paths[stem])
        assert first == second, stem
    for stem in ("p3", "nodal_03"):
        _, first, _ = cli("periods", corpus_paths[stem], "--dmax", 10)
        _, second, _ = cli("periods", corpus_paths[stem], "--dmax", 10)
        assert first == second, stem
    print("\nPASS: repeated command-line runs are byte-identical across "
          "the bundled corpus")
