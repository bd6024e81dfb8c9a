"""Laurent polynomials and period sequences."""

import time
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conifold import laurent
from conifold.errors import BudgetExceeded, DimensionMismatch, OriginNotInterior
from conifold.lattice import _affine_rank, convex_hull, dot
from conifold.linalg import rank
from conifold.laurent import (
    ORACLE_DEGREE_CAP,
    LaurentPolynomial,
    from_fan_polytope,
    period_sequence,
    period_term_direct,
)
from oracles import CLOSED_FORM_PERIODS, iterated_periods, multiply, transform
from strategies import unimodular_matrices

P3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
P3_PERIODS_12 = [1, 0, 0, 0, 24, 0, 0, 0, 2520, 0, 0, 0, 369600]


def w_p3():
    return from_fan_polytope(convex_hull(P3))


# ----------------------------------------------------------- arithmetic


def test_terms_accumulate_and_cancel():
    w = LaurentPolynomial(2, [((0, 1), 3), ((0, 1), -3), ((1, 0), 2)])
    assert w.terms == {(1, 0): 2}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LaurentPolynomial(2, {(1, 2, 3): 1})


def test_one_is_multiplicative_identity():
    w = w_p3()
    assert multiply(w, LaurentPolynomial(3, {(0, 0, 0): 1})).terms == w.terms


def test_known_constant_term():
    # (x + y + 1/(xy))^3 picks up the single balanced triple
    w = LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
    assert multiply(multiply(w, w), w).terms.get((0, 0), 0) == 6
    assert multiply(w, w).terms.get((0, 0), 0) == 0


small_poly = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(-4, 4),
    min_size=1,
    max_size=4,
).map(lambda d: LaurentPolynomial(2, d))


@given(small_poly, small_poly)
@settings(max_examples=60, deadline=None)
def test_multiplication_commutes(a, b):
    assert multiply(a, b).terms == multiply(b, a).terms


@given(small_poly, small_poly, small_poly)
@settings(max_examples=40, deadline=None)
def test_multiplication_associates(a, b, c):
    assert multiply(multiply(a, b), c).terms == multiply(a, multiply(b, c)).terms


@given(small_poly, small_poly)
@settings(max_examples=40, deadline=None)
def test_constant_term_of_product_is_diagonal_sum(a, b):
    expected = sum(
        ca * b.terms.get(tuple(-x for x in ea), 0) for ea, ca in a.terms.items()
    )
    assert multiply(a, b).terms.get((0, 0), 0) == expected


# ------------------------------------------------------------- periods


def test_from_fan_polytope_uses_vertices():
    w = w_p3()
    assert w.terms == {v: 1 for v in convex_hull(P3).vertices}


def test_from_fan_polytope_requires_interior_origin():
    shifted = convex_hull([(v[0] + 2, v[1], v[2]) for v in P3])
    with pytest.raises(OriginNotInterior):
        from_fan_polytope(shifted)


def test_p3_periods():
    seq = period_sequence(w_p3(), 12)
    assert list(seq.terms) == P3_PERIODS_12


def test_dmax_zero():
    seq = period_sequence(w_p3(), 0)
    assert list(seq.terms) == [1]


def test_direct_oracle_agrees_with_iteration():
    w = w_p3()
    seq = period_sequence(w, 12).terms
    for d in range(13):
        assert period_term_direct(w, d) == seq[d]


def test_direct_oracle_budget():
    with pytest.raises(BudgetExceeded):
        period_term_direct(w_p3(), ORACLE_DEGREE_CAP + 1)


def charged_term_updates(w, dmax):
    """The term updates ``period_sequence`` charges up to dmax:
    len(W^a) * len(W) for a = 0 .. ceil(dmax / 2) - 1."""
    power, work = LaurentPolynomial(w.dim, {(0,) * w.dim: 1}), 0
    for _ in range((dmax + 1) // 2):
        work += len(power.terms) * len(w.terms)
        power = multiply(power, w)
    return work


def test_period_work_budget_counts_term_updates(monkeypatch):
    # forming W^(a+1) from W^a costs len(W^a) * len(W) term updates, and
    # dmax 16 forms W^1 .. W^8
    w = w_p3()
    monkeypatch.setattr(laurent, "PERIOD_WORK_BUDGET", charged_term_updates(w, 16))
    assert list(period_sequence(w, 16).terms) == iterated_periods(w, 16)
    with pytest.raises(BudgetExceeded):
        period_sequence(w, 17)


@st.composite
def positive_polys(draw):
    """Laurent polynomials in 1-3 variables with exponents in [-3, 3] and
    positive coefficients, whose supports include affinely dependent
    ones."""
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * dim)
    terms = draw(st.dictionaries(exps, st.integers(1, 3), min_size=1, max_size=6))
    return LaurentPolynomial(dim, terms)


@given(positive_polys(), st.integers(0, 12))
@example(LaurentPolynomial(2, {(1, 0): 1, (2, 0): 1, (3, 0): 1}), 9)
@example(w_p3(), 16)
@settings(max_examples=100, deadline=None)
def test_positive_work_bound_never_passes_the_charged_work(w, dmax):
    # with positive coefficients W^a holds at least C(a + r, r) terms, r the
    # affine rank of supp W, so the pre-check's bound never passes the
    # charge: a budget of exactly the charge is admitted, one less refused
    r = _affine_rank(list(w.terms))
    work = charged_term_updates(w, dmax)
    assert len(w.terms) * comb((dmax + 1) // 2 + r, r + 1) <= work
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "PERIOD_WORK_BUDGET", work)
        assert list(period_sequence(w, dmax).terms) == iterated_periods(w, dmax)
        if work:
            mp.setattr(laurent, "PERIOD_WORK_BUDGET", work - 1)
            with pytest.raises(BudgetExceeded, match=f"more than {work - 1} term"):
                period_sequence(w, dmax)


def test_period_work_budget_counts_terms_left_after_cancellation():
    # W = x - 1 - 1/x has coefficients that are not 1 and not positive:
    # W^3 = x^3 - 3x^2 + 5 - 3/x^2 - 1/x^3 loses its terms at x and 1/x,
    # so forming W^4 charges 5 * 3 term updates, not 7 * 3
    w = LaurentPolynomial(1, {(1,): 1, (0,): -1, (-1,): -1})
    assert charged_term_updates(w, 7) == 3 * (1 + 3 + 5 + 5)
    for dmax in range(5, 10):
        work = charged_term_updates(w, dmax)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(laurent, "PERIOD_WORK_BUDGET", work)
            assert list(period_sequence(w, dmax).terms) == iterated_periods(w, dmax)
            mp.setattr(laurent, "PERIOD_WORK_BUDGET", work - 1)
            with pytest.raises(BudgetExceeded, match=f"more than {work - 1} term"):
                period_sequence(w, dmax)


def test_doomed_period_runs_are_refused_before_any_work(corpus):
    # p3's bound is exact: dmax 172 charges 4 * C(89, 4) = 9,766,504 term
    # updates and dmax 173 charges 4 * C(90, 4) = 10,220,760, which the
    # term-update loop would take seconds to reach
    runs = [("p3", 173)] + [(name, 10**9) for name in sorted(corpus)]
    for name, dmax in runs:
        w = from_fan_polytope(corpus[name])
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match=f"periods to degree {dmax} need more than 10000000"):
            period_sequence(w, dmax)
        assert time.perf_counter() - start < 0.1, name


def test_c12_is_the_multinomial():
    import math

    # each balanced selection of 12 vertex factors is 3 of each vertex
    assert period_term_direct(w_p3(), 12) == math.factorial(12) // 6 ** 4


@given(unimodular_matrices(dim=3))
@settings(max_examples=50, deadline=None)
def test_periods_invariant_under_lattice_isomorphism(m):
    w = w_p3()
    transformed = from_fan_polytope(transform(convex_hull(P3), m))
    assert period_sequence(transformed, 8).terms == period_sequence(w, 8).terms


@st.composite
def sparse_polys(draw):
    """Sparse Laurent polynomials in 1-4 variables with exponents in
    [-5, 5] and coefficients in [-3, 3]; the support need not surround
    the origin."""
    dim = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-5, 5)] * dim)
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=5))
    return LaurentPolynomial(dim, terms)


# The first example packs exponents into keys whose digits reach exactly
# +-ceil(dmax/2) * max|coordinate|; a packing base one too small makes
# distinct exponents of W^3 collide and gives c_6 != 0.
@given(sparse_polys(), st.integers(0, 10))
@example(LaurentPolynomial(2, {(1, 0): 2, (1, -1): 2}), 6)
@example(LaurentPolynomial(2, {}), 5)
@example(LaurentPolynomial(0, {(): 3}), 4)
@example(LaurentPolynomial(1, {(1,): 1, (-1,): 1}), 0)
@example(LaurentPolynomial(1, {(1,): 1, (-1,): 1}), 1)
@example(LaurentPolynomial(1, {(1,): 1, (-1,): 1}), 2)
@settings(max_examples=150, deadline=None)
def test_half_powers_equal_iterated_multiplication(w, dmax):
    assert list(period_sequence(w, dmax).terms) == iterated_periods(w, dmax)


# The two tests below once compared Newton-polytope pruning against the
# unpruned product. Pairing half powers of W replaced pruning, so they now
# hold that engine to plain iterated multiplication on the same inputs.


def test_pruned_equals_unpruned_p3():
    w = w_p3()
    assert list(period_sequence(w, 16).terms) == iterated_periods(w, 16)


@given(unimodular_matrices(dim=3))
@settings(max_examples=30, deadline=None)
def test_pruning_safe_under_lattice_isomorphism(m):
    w = from_fan_polytope(transform(convex_hull(P3), m))
    assert list(period_sequence(w, 10).terms) == iterated_periods(w, 10)


# ------------------------------------------------- factored multiply and grading

NODAL_03 = [(-1, -1, -1), (-1, 0, -1), (0, -1, -1), (0, 0, -1),
            (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
# the six-vertex square mutant of nodal_02 in test_fanodb
NODAL_02_MUTANT = [(-1, -1, 0), (-1, -1, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)]
GRADINGS = {"p3": 4, "nodal_01": 3, "octahedron": 2, "nodal_03": 2, "p2xp1": 1, "nodal_02": 1}


def periods_and_charge(w, dmax):
    """``iterated_periods`` and ``charged_term_updates`` from one run of
    plain repeated multiplication."""
    origin = (0,) * w.dim
    power, cs, work = LaurentPolynomial(w.dim, {origin: 1}), [1], 0
    for d in range(1, dmax + 1):
        if d <= (dmax + 1) // 2:
            work += len(power.terms) * len(w.terms)
        power = multiply(power, w)
        cs.append(power.terms.get(origin, 0))
    return cs, work


def admitted_at_its_charge(w, dmax):
    """``period_sequence`` under a budget of exactly the charge of plain
    repeated multiplication equals its periods, and one less is refused."""
    periods, work = periods_and_charge(w, dmax)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "PERIOD_WORK_BUDGET", work)
        assert list(period_sequence(w, dmax).terms) == periods
        if work:
            mp.setattr(laurent, "PERIOD_WORK_BUDGET", work - 1)
            with pytest.raises(BudgetExceeded, match=f"more than {work - 1} term"):
                period_sequence(w, dmax)


def grading(w):
    """m as ``period_sequence`` plans it, in the packing base of dmax 32."""
    base = 32 * max(abs(x) for e in w.terms for x in e) + 1
    keys = [sum(x * base**i for i, x in enumerate(e)) for e in w.terms]
    (leaf, _), steps = laurent._plan(dict(zip(keys, w.terms.values())))
    return laurent._grading(dict(zip(keys, w.terms)), leaf, steps)


@st.composite
def factored_polys(draw):
    """c x^o (1 + x^t_1) ... (1 + x^t_n) with 1-3 binomials, plus 0-3 lone
    monomials, in 3 variables with coefficients in +-1..3."""
    coeff = st.integers(-3, 3).filter(bool)
    vec = st.tuples(*[st.integers(-1, 1)] * 3)
    w = LaurentPolynomial(3, {draw(vec): draw(coeff)})
    for t in draw(st.lists(vec.filter(any), min_size=1, max_size=3)):
        w = multiply(w, LaurentPolynomial(3, {(0, 0, 0): 1, t: 1}))
    lone = draw(st.dictionaries(st.tuples(*[st.integers(-2, 2)] * 3), coeff, max_size=3))
    return LaurentPolynomial(3, [*w.terms.items(), *lone.items()])


# The examples: nodal_03's W = (1 + x)(1 + y)(z + 1/(xyz)), planned as two
# binomials; a signed W with m = 4, so the zero-drop pass runs and three
# pairings in four are skipped; pairs along z whose members have unequal
# coefficients, which must not be taken for a factor (1 + z); W = 0; and
# W in no variables.
@given(factored_polys(), st.integers(0, 12))
@example(LaurentPolynomial(3, {v: 1 for v in NODAL_03}), 12)
@example(LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                               (-1, -1, -1): -1}), 12)
@example(LaurentPolynomial(3, {(1, 0, 0): 1, (1, 0, 1): 2, (0, 1, 0): 3, (0, 1, 1): 6,
                               (-1, -1, -1): 1}), 9)
@example(LaurentPolynomial(3, {}), 6)
@example(LaurentPolynomial(0, {(): 3}), 5)
@settings(max_examples=40, deadline=None)
def test_factored_multiply_equals_iterated_multiplication(w, dmax):
    # the factored product makes no more term updates than the charge, so
    # a budget of exactly the charge is admitted and one less refused
    admitted_at_its_charge(w, dmax)


def test_plans_factor_the_conifold_squares():
    # nodal_03's W = (1 + x)(1 + y)(z + 1/(xyz)) is planned as the leaf
    # 1/(xyz), the lone z, then the binomials in y and in x; p3's four
    # vertices have no repeated difference, so its plan is the plain
    # shift loop
    key = {v: v[0] + 33 * v[1] + 33**2 * v[2] for v in NODAL_03}
    leaf, steps = laurent._plan({key[v]: 1 for v in NODAL_03})
    assert leaf == (key[(-1, -1, -1)], 1)
    assert steps == [(key[(0, 0, 1)], 1), (33, None), (1, None)]
    p3 = {1: 1, 33: 1, 33**2: 1, -1 - 33 - 33**2: 1}
    assert laurent._plan(p3) == ((1, 1), [(33, 1), (33**2, 1), (-1 - 33 - 33**2, 1)])


def test_grading_of_the_corpus(corpus):
    assert {stem: grading(from_fan_polytope(p)) for stem, p in corpus.items()} == GRADINGS


@given(unimodular_matrices(dim=3))
@settings(max_examples=20, deadline=None)
def test_grading_is_invariant_under_lattice_isomorphism(corpus, m):
    for stem, p in corpus.items():
        assert grading(from_fan_polytope(transform(p, m))) == GRADINGS[stem], stem


def test_periods_vanish_off_multiples_of_the_grading(corpus):
    # every monomial of W^d lies in d v0 + L, which holds 0 only when m
    # divides d (Coates-Corti-Galkin-Kasprzyk, Geom. Topol. 20 (2016): a
    # Fano of index r has its period in t^r)
    from test_root_polytopes import A3_ROOTS, RHOMBIC_DODECAHEDRON

    polytopes = dict(corpus, a3_roots=convex_hull(A3_ROOTS),
                     rhombic_dodecahedron=convex_hull(RHOMBIC_DODECAHEDRON),
                     nodal_02_mutant=convex_hull(NODAL_02_MUTANT))
    for name, p in polytopes.items():
        w = from_fan_polytope(p)
        m = grading(w)
        assert m == GRADINGS.get(name, 1), name
        if m > 1:
            cs = iterated_periods(w, 16)
            assert [d for d in range(17) if cs[d]] == list(range(0, 17, m)), name


def test_grading_in_a_plane_or_a_line(corpus):
    # the polynomials of the splits are graded in their own lattice:
    # nodal_03's A' has c'_d = 0 at odd d, and p2xp1's parts z + 1/z and
    # x + y + 1/(xy) at odd d and at d prime to 3
    w = from_fan_polytope(corpus["nodal_03"])
    flat = laurent._flat(w.terms, laurent._prism(w.terms))[2]
    parts = sorted(laurent._parts(from_fan_polytope(corpus["p2xp1"]).terms), key=len)
    for terms, m in [(flat, 2), (parts[0], 2), (parts[1], 3)]:
        v = LaurentPolynomial(3, terms)
        assert grading(v) == m
        cs = iterated_periods(v, 12)
        assert [d for d in range(13) if cs[d]] == list(range(0, 13, m))


@pytest.mark.parametrize("stem", ["p2xp1", "nodal_02"])
def test_periods_to_degree_20_equal_iterated_multiplication(corpus, stem):
    # period_sequence splits both, so the engine is also run on the whole
    # W: nodal_02's plan is the one with a lone monomial inside a binomial
    w = from_fan_polytope(corpus[stem])
    periods = iterated_periods(w, 20)
    assert list(period_sequence(w, 20).terms) == periods
    assert laurent._periods(w.terms, 3, 20) == periods


# ------------------------------------------------------- product polytopes

DP6XP1 = [(1, 0, 0), (1, 1, 0), (0, 1, 0), (0, -1, 0), (-1, 0, 0), (-1, -1, 0),
          (0, 0, 1), (0, 0, -1)]
PARTS = {"octahedron": 3, "p2xp1": 2, "p3": 1, "nodal_01": 1, "nodal_02": 1, "nodal_03": 1}


@st.composite
def free_sums(draw):
    """W = W_1 + ... + W_k, k = 2 or 3, each W_i of rank 1 or 2 on its own
    coordinates with coefficients in +-1..3, plus maybe a constant
    monomial, in any order and mapped by a unimodular matrix: the W of a
    product, with signs."""
    coeff = st.integers(-3, 3).filter(bool)
    terms, start = {}, 0
    for r in draw(st.sampled_from([(1, 2), (2, 1), (1, 1, 1)])):
        exps = st.tuples(*[st.integers(-2, 2)] * r).filter(any)
        for e, c in draw(st.dictionaries(exps, coeff, min_size=r, max_size=6)).items():
            terms[(0,) * start + e + (0,) * (3 - start - r)] = c
        start += r
    if draw(st.booleans()):
        terms[(0, 0, 0)] = draw(coeff)
    assume(rank([list(e) for e in terms]) == 3)
    m = draw(unimodular_matrices(dim=3))
    items = draw(st.permutations(list(terms.items())))
    return LaurentPolynomial(3, {tuple(dot(row, e) for row in m): c for e, c in items})


# The examples: signed parts of rank 1 and 2 with a constant monomial; and
# dP6 x P1 in an order that joins the hexagon's basis vectors u, v before
# it meets -u and then -v, with no later vertex using both.
@given(free_sums(), st.integers(0, 14))
@example(LaurentPolynomial(3, {(1, 0, 0): 1, (-1, 0, 0): -2, (0, 1, 0): 1, (0, -1, 1): 3,
                               (0, 0, -1): 1, (0, 0, 0): -1}), 14)
@example(LaurentPolynomial(3, {v: 1 for v in DP6XP1}), 12)
@settings(max_examples=80, deadline=None)
def test_free_sums_split_and_equal_iterated_multiplication(w, dmax):
    # the parts that are simplices, such as the octahedron's segments, are
    # read as multinomials; the rest, such as dP6's hexagon, run the engine
    parts = laurent._parts(w.terms)
    assert len(parts) > 1
    periods, sizes = engine_sizes(w, dmax)
    assert sizes == unsimplicial_sizes(parts)
    assert periods == iterated_periods(w, dmax)


@given(free_sums(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_split_moves_no_budget_edge(w, dmax):
    # the split runs only under a budget that the unsplit charge cannot
    # pass: a budget of exactly that charge is admitted, one less refused
    # (to dmax 4 the multiset bound is the charge, so the split runs at it)
    admitted_at_its_charge(w, dmax)


def test_parts_of_the_corpus(corpus):
    assert {stem: len(laurent._parts(from_fan_polytope(p).terms))
            for stem, p in corpus.items()} == PARTS


@given(unimodular_matrices(dim=3))
@settings(max_examples=20, deadline=None)
def test_parts_are_invariant_under_lattice_isomorphism(corpus, m):
    for stem, p in corpus.items():
        w = from_fan_polytope(transform(p, m))
        assert len(laurent._parts(w.terms)) == PARTS[stem], stem


@pytest.mark.parametrize("stem, dmax", [("octahedron", 60), ("p2xp1", 80), ("p3", 172)])
def test_split_periods_equal_the_closed_forms(corpus, stem, dmax):
    # the octahedron at dmax 60 and p3 at 172 are the last degrees inside
    # the splits' guards (p3 at 173 is refused before any work); every
    # part, and p3's base, is a simplex read as multinomials, not by the
    # engine
    w = from_fan_polytope(corpus[stem])
    closed_form = CLOSED_FORM_PERIODS[stem]
    periods, sizes = engine_sizes(w, dmax)
    assert sizes == [] and periods == [closed_form(d) for d in range(dmax + 1)]


# ------------------------------------------------------------------ prisms

PRISMS = {"nodal_03": (1, 2)}  # p / q = lambda = -h / phi(t)


@st.composite
def prisms(draw):
    """W = (1 + y^t) A with A's 3-6 signed monomials of affine rank 2 on
    the plane z = h, h in -2..2, and t's last coordinate in +-1..3, so
    that lambda = -h / t_z takes the values 0, 1/2, 1/3, 2/3 and others
    outside [0, 1]; mapped by a unimodular matrix, which takes the plane to
    a random lattice plane."""
    coeff = st.integers(-3, 3).filter(bool)
    h = draw(st.integers(-2, 2))
    base = draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff,
                                min_size=3, max_size=6))
    assume(_affine_rank(list(base)) == 2)
    t = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)),
         draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
    a = LaurentPolynomial(3, {(x, y, h): c for (x, y), c in base.items()})
    w = multiply(LaurentPolynomial(3, {(0, 0, 0): 1, t: 1}), a)
    m = draw(unimodular_matrices(dim=3))
    return LaurentPolynomial(3, {tuple(dot(row, e) for row in m): c for e, c in w.terms.items()})


def unsimplicial_sizes(parts):
    """The term counts of the parts that are not simplices, which the
    engine runs on; a simplex is read as one multinomial."""
    return [len(part) for part in parts if _affine_rank(list(part)) < len(part) - 1]


def engine_sizes(w, dmax):
    """``period_sequence(w, dmax)`` and the term counts of the polynomials
    it hands the engine."""
    sizes, engine = [], laurent._periods
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_periods",
                   lambda terms, dim, dmax: sizes.append(len(terms)) or engine(terms, dim, dmax))
        return list(period_sequence(w, dmax).terms), sizes


HEXAGONAL_PRISM = [(x, y, z) for x, y in [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
                   for z in (-1, 1)]


# The examples: nodal_03, lambda = 1/2; the hexagonal prism, whose t =
# (0, 0, 2) is not primitive, so that A' has nonzero periods in odd degree
# where lambda d is not an integer; A on a plane through the origin,
# lambda = 0; and lambda = 2/3 with signs, where lambda d is an integer
# only for d divisible by 3.
@given(prisms(), st.integers(0, 12))
@example(LaurentPolynomial(3, {v: 1 for v in NODAL_03}), 12)
@example(LaurentPolynomial(3, {v: 1 for v in HEXAGONAL_PRISM}), 12)
@example(LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): -2, (-1, -1, 0): 1, (1, 0, 1): 1,
                               (0, 1, 1): -2, (-1, -1, 1): 1}), 12)
@example(LaurentPolynomial(3, {(1, 0, -2): 1, (0, 1, -2): 2, (-1, -1, -2): -1, (1, 0, 1): 1,
                               (0, 1, 1): 2, (-1, -1, 1): -1}), 12)
@settings(max_examples=80, deadline=None)
def test_prisms_split_and_equal_iterated_multiplication(w, dmax):
    prism = laurent._prism(w.terms)
    _, a, apex, _, _ = prism
    assert apex is None and 2 * len(a) == len(w.terms) and _affine_rank(a) == 2
    periods, sizes = engine_sizes(w, dmax)
    assert sizes == unsimplicial_sizes(laurent._parts(laurent._flat(w.terms, prism)[2]))
    assert periods == iterated_periods(w, dmax)


@st.composite
def paired_polys(draw):
    """W = (1 + c y^t) A + R with c in {1, 2, -1}, A of 3-5 signed monomials
    anywhere or on the plane z = 1 with t in that plane, and R of 0-1
    monomials, mapped by a unimodular matrix: near misses of a prism, and
    some prisms."""
    coeff = st.integers(-3, 3).filter(bool)
    vec = st.tuples(*[st.integers(-2, 2)] * 3)
    if draw(st.booleans()):
        a = draw(st.dictionaries(vec, coeff, min_size=3, max_size=5))
        t = draw(vec.filter(any))
    else:
        flat = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.just(1))
        a = draw(st.dictionaries(flat, coeff, min_size=3, max_size=5))
        t = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.just(0)).filter(any))
    w = multiply(LaurentPolynomial(3, {(0, 0, 0): 1, t: draw(st.sampled_from([1, 2, -1]))}),
                 LaurentPolynomial(3, a))
    rest = draw(st.dictionaries(vec, coeff, max_size=1))
    m = draw(unimodular_matrices(dim=3))
    return LaurentPolynomial(3, [(tuple(dot(row, e) for row in m), c)
                                 for e, c in [*w.terms.items(), *rest.items()]])


# The examples: the two-level sets that are not prisms, which ``_prism``
# must not split: A off a plane, a factor 1 + 2z^2, and t in A's plane.
@given(paired_polys(), st.integers(0, 10))
@example(LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1,
                               (1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1, (-1, -1, 0): 1}), 8)
@example(LaurentPolynomial(3, {(1, 0, -1): 1, (0, 1, -1): 1, (-1, -1, -1): 1, (1, 0, 1): 2,
                               (0, 1, 1): 2, (-1, -1, 1): 2}), 6)
@example(LaurentPolynomial(3, {(0, 0, 1): 1, (0, 2, 1): 1, (3, 3, 1): 1, (1, 0, 1): 1,
                               (1, 2, 1): 1, (4, 3, 1): 1}), 6)
@settings(max_examples=80, deadline=None)
def test_near_prisms_equal_iterated_multiplication(w, dmax):
    assert list(period_sequence(w, dmax).terms) == iterated_periods(w, dmax)


@given(prisms(), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_prism_split_moves_no_budget_edge(w, dmax):
    # as for free sums: a budget of exactly the unsplit charge is admitted,
    # one less refused, since the split runs only where that charge cannot
    # pass the budget and charges less itself
    admitted_at_its_charge(w, dmax)


def prism_ratio(w):
    prism = laurent._prism(w.terms)
    if prism and prism[2] is None:
        return laurent._flat(w.terms, prism)[:2]


def test_prisms_of_the_corpus(corpus):
    assert {stem: ratio for stem, p in corpus.items()
            if (ratio := prism_ratio(from_fan_polytope(p)))} == PRISMS


@given(unimodular_matrices(dim=3))
@settings(max_examples=20, deadline=None)
def test_prisms_are_invariant_under_lattice_isomorphism(corpus, m):
    for stem, p in corpus.items():
        assert prism_ratio(from_fan_polytope(transform(p, m))) == PRISMS.get(stem), stem


@pytest.mark.parametrize("dmax, split", [(36, True), (37, False)])
def test_nodal_03_periods_equal_the_closed_form(corpus, dmax, split):
    # 8 C(top + 7, 8) is 8,652,600 at dmax 36 and 12,498,200 at dmax 37,
    # so dmax 36 is the last degree inside the split's guard; A' is two
    # segments, each read as one multinomial
    w = from_fan_polytope(corpus["nodal_03"])
    periods, sizes = engine_sizes(w, dmax)
    assert sizes == ([] if split else [8])
    assert periods == [CLOSED_FORM_PERIODS["nodal_03"](d) for d in range(dmax + 1)]


# ------------------------------------------------- apexed prisms and pyramids

APEXES = {"p3": (0, 3), "nodal_01": (1, 2), "nodal_02": (1, 3)}  # (eps, |A|)


@st.composite
def apexed(draw):
    """W = (1 + y^t)^eps A + c y^rho, mapped by a unimodular matrix: A of
    2-5 signed monomials on the plane z = h, h in -2..2.  A pyramid (eps =
    0) has A of affine rank 2 and rho's last coordinate not h; an apexed
    prism (eps = 1) has A of rank 1 or 2, t's last coordinate in +-1..3,
    and rho anywhere but at a monomial of (1 + y^t) A or at 1 or 2 steps
    of t from one, where pairing rho would hide the split.  W is not a free
    sum."""
    coeff = st.integers(-3, 3).filter(bool)
    h, eps = draw(st.integers(-2, 2)), draw(st.booleans())
    base = draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff,
                                min_size=3 - eps, max_size=5))
    assume(eps or _affine_rank(list(base)) == 2)
    body = LaurentPolynomial(3, {(x, y, h): c for (x, y), c in base.items()})
    if eps:
        t = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)),
             draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        body = multiply(LaurentPolynomial(3, {(0, 0, 0): 1, t: 1}), body)
        rho = draw(st.tuples(*[st.integers(-3, 3)] * 3))
        assume(all(tuple(r + k * s for r, s in zip(rho, t)) not in body.terms
                   for k in range(-2, 3)))
    else:
        rho = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)),
               draw(st.integers(-3, 3).filter(lambda z: z != h)))
    w = LaurentPolynomial(3, [*body.terms.items(), (rho, draw(coeff))])
    assume(len(laurent._parts(w.terms)) == 1)  # a free sum splits into parts first
    m = draw(unimodular_matrices(dim=3))
    return LaurentPolynomial(3, {tuple(dot(row, e) for row in m): c for e, c in w.terms.items()})


def apex_shape(w):
    """(eps, |A|) of the apex split ``_prism`` finds on W, or None."""
    prism = laurent._prism(w.terms)
    if prism and prism[2] is not None:
        return int(prism[0] is not None), len(prism[1])


# The examples: p3, a pyramid whose c_d reads A^(3d/4); nodal_01 and
# nodal_02, apexed prisms over a segment and a triangle; an apex at the
# origin, which only A^0 reaches; (1 + z) y (x - 1 - 1/x) - 2/y, an
# apex with coefficient -2 over a signed segment whose cube loses its
# terms at x and 1/x; and (1 + x)(z + yz + 1/y + yz^2) + z/x, whose apex
# sits one step of t below z, so that pairing in increasing order pairs
# the apex with z and leaves xz unpaired.
@given(apexed(), st.integers(0, 10))
@example(w_p3(), 10)
@example(LaurentPolynomial(3, {(-1, -1, -2): 1, (0, 0, 1): 1, (0, 1, 1): 1, (1, 0, 1): 1,
                               (1, 1, 1): 1}), 10)
@example(LaurentPolynomial(3, {(-1, 0, -1): 1, (0, -1, 0): 1, (0, 0, 1): 1, (0, 1, 1): 1,
                               (1, -1, 0): 1, (1, 0, 1): 1, (1, 1, 1): 1}), 10)
@example(LaurentPolynomial(3, {(1, 0, 1): 1, (0, 1, 1): 1, (-1, -1, 1): 1, (1, 1, 1): 1,
                               (0, 0, 0): 3}), 8)
@example(LaurentPolynomial(3, {(1, 1, 0): 1, (0, 1, 0): -1, (-1, 1, 0): -1, (1, 1, 1): 1,
                               (0, 1, 1): -1, (-1, 1, 1): -1, (0, -1, 0): -2}), 10)
@example(LaurentPolynomial(3, {(0, 0, 1): 1, (0, 1, 1): 1, (0, -1, 0): 1, (0, 1, 2): 1,
                               (1, 0, 1): 1, (1, 1, 1): 1, (1, -1, 0): 1, (1, 1, 2): 1,
                               (-1, 0, 1): 1}), 10)
@settings(max_examples=80, deadline=None)
def test_apexes_split_and_equal_iterated_multiplication(w, dmax):
    assert apex_shape(w)
    periods, sizes = engine_sizes(w, dmax)
    assert sizes == []
    assert periods == iterated_periods(w, dmax)


@given(apexed(), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_apex_split_moves_no_budget_edge(w, dmax):
    # as for prisms: the split runs only where the unsplit charge cannot
    # pass the budget, and charges nothing itself
    admitted_at_its_charge(w, dmax)


def test_apex_split_needs_its_own_bound(monkeypatch):
    # p3 to dmax 8: the guard's bound is 4 C(7, 4) = 140 and the split's
    # own, for forming A^1 .. A^6, is 3 C(8, 3) = 168; under a budget
    # between them the unsplit engine runs, and charges 140
    for budget, sizes in [(150, [4]), (168, [])]:
        monkeypatch.setattr(laurent, "PERIOD_WORK_BUDGET", budget)
        assert engine_sizes(w_p3(), 8) == (P3_PERIODS_12[:9], sizes)


def test_apexes_of_the_corpus(corpus):
    assert {stem: shape for stem, p in corpus.items()
            if (shape := apex_shape(from_fan_polytope(p)))} == APEXES


@given(unimodular_matrices(dim=3))
@settings(max_examples=20, deadline=None)
def test_apexes_are_invariant_under_lattice_isomorphism(corpus, m):
    for stem, p in corpus.items():
        assert apex_shape(from_fan_polytope(transform(p, m))) == APEXES.get(stem), stem


# The near misses: a pyramid's apex on A's plane; two monomials left
# unpaired by (1 + z) A, A of rank 2; and t in A's plane, with the apex
# there too, since an apex off that plane makes W a pyramid over (1 + y^t) A.
@pytest.mark.parametrize("w", [
    LaurentPolynomial(3, {(1, 0, 1): 1, (0, 1, 1): 1, (-1, -1, 1): 1, (2, 2, 1): 1}),
    LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (-1, -1, 0): 1, (1, 0, 1): 1,
                          (0, 1, 1): 1, (-1, -1, 1): 1, (0, 0, -1): 1, (2, 2, 3): 1}),
    LaurentPolynomial(3, {(1, 0, 1): 1, (0, 1, 1): 1, (-1, -1, 1): 1, (2, 0, 1): 1,
                          (1, 1, 1): 1, (0, -1, 1): 1, (3, 3, 1): 1}),
])
def test_near_apexes_do_not_split_and_equal_iterated_multiplication(w):
    assert laurent._prism(w.terms) is None
    periods, sizes = engine_sizes(w, 10)
    assert sizes == [len(w.terms)]
    assert periods == iterated_periods(w, 10)


@pytest.mark.parametrize("dmax, split", [(44, True), (45, False)])
def test_nodal_02_periods_equal_the_closed_form(corpus, dmax, split):
    # 7 C(top + 6, 7) is 8,288,280 at dmax 44 and 10,925,460 at dmax 45,
    # so dmax 44 is the last degree inside the split's guard
    w = from_fan_polytope(corpus["nodal_02"])
    periods, sizes = engine_sizes(w, dmax)
    assert sizes == ([] if split else [7])
    assert periods == [CLOSED_FORM_PERIODS["nodal_02"](d) for d in range(dmax + 1)]


# ------------------------------------------------ simplices, one multinomial

@st.composite
def simplices(draw):
    """A's terms: 1-4 monomials with coefficients +-1..3 at affinely
    independent exponents, of affine rank 0-3, mapped by a unimodular
    matrix."""
    n = draw(st.integers(1, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=n, max_size=n,
                         unique=True))
    assume(_affine_rank(exps) == n - 1)
    m = draw(unimodular_matrices(dim=3))
    coeff = st.integers(-3, 3).filter(bool)
    return {tuple(dot(row, e) for row in m): draw(coeff) for e in exps}


# The examples: p3, whose c_d is d! / ((d/4)!)^4 at d divisible by 4; a
# signed segment, x^2 - 2/x, with c_d nonzero at d divisible by 3; a lone
# monomial; and a triangle whose plane misses the origin, so that every
# c_d with d > 0 is 0.
@given(simplices(), st.integers(0, 12))
@example({v: 1 for v in P3}, 12)
@example({(2, 0, 0): 1, (-1, 0, 0): -2}, 12)
@example({(0, 0, 0): 3}, 5)
@example({(1, 0, 1): 1, (0, 1, 1): 2, (-1, -1, 1): 1}, 6)
@settings(max_examples=100, deadline=None)
def test_simplex_periods_equal_the_engine_and_iterated_multiplication(a, dmax):
    read = laurent._simplex(a)
    assert ([read(d) for d in range(dmax + 1)] == laurent._periods(a, 3, dmax)
            == iterated_periods(LaurentPolynomial(3, a), dmax))


vectors = st.tuples(*[st.integers(-2, 2)] * 3)


@given(simplices(), vectors, vectors)
@settings(max_examples=60, deadline=None)
def test_simplex_reads_every_coefficient_of_its_powers(a, t, rho):
    # read(i, j, e) is [A^i] at -j t - e rho, for j and e of either sign
    read = laurent._simplex(a, t, rho)
    power = LaurentPolynomial(3, {(0, 0, 0): 1})
    for i in range(6):
        for j in range(-2, 3):
            for e in range(-2, 3):
                q = tuple(-j * x - e * y for x, y in zip(t, rho))
                assert read(i, j, e) == power.terms.get(q, 0), (i, j, e)
        power = multiply(power, LaurentPolynomial(3, a))


@given(st.dictionaries(vectors, st.integers(-3, 3).filter(bool), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_simplex_is_none_off_affinely_independent_exponents(terms):
    assert (laurent._simplex(terms) is None) == (_affine_rank(list(terms)) < len(terms) - 1)


@given(apexed(), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_simplex_bases_read_as_their_powers(w, dmax):
    # at every (i, d) the apex split reads, one multinomial equals the
    # coefficient of A^i at -j t - (d - i) rho
    prism = laurent._prism(w.terms)
    t, lower, rho = prism[0] or (0, 0, 0), prism[1], prism[2]
    base = LaurentPolynomial(3, {e: w.terms[e] for e in lower})
    read = laurent._simplex(base.terms, t, rho)
    assert (read is None) == (_affine_rank(lower) < len(lower) - 1)
    assume(read)
    a, b, f, _ = laurent._level(prism)
    power, formed = LaurentPolynomial(3, {(0, 0, 0): 1}), 0
    for i, ds in laurent._reach(prism, dmax):
        for _ in range(formed, i):
            power = multiply(power, base)
        formed = i
        for d in ds:
            j = -(i * b + d * a) // f
            q = tuple(-j * x - (d - i) * y for x, y in zip(t, rho))
            assert read(i, j, d - i) == power.terms.get(q, 0), (i, d)


def test_parts_on_a_plane():
    # nodal_03's A' is two segments through the origin and the hexagonal
    # prism's A' one hexagon; a W on a plane splits as a free sum too
    for vertices, n in [(NODAL_03, 2), (HEXAGONAL_PRISM, 1)]:
        terms = {v: 1 for v in vertices}
        assert len(laurent._parts(laurent._flat(terms, laurent._prism(terms))[2])) == n
    w = LaurentPolynomial(3, {(1, 1, 0): 2, (-1, -1, 0): 1, (0, 1, 0): 1, (0, -2, 0): -1})
    assert list(map(len, laurent._parts(w.terms))) == [2, 2]
    periods, sizes = engine_sizes(w, 12)
    assert sizes == [] and periods == iterated_periods(w, 12)
