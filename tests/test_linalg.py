"""Exact integer linear algebra: reduction, kernels, determinants, LPs."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conifold import linalg
from oracles import (collected_pivots, fraction_kernel_basis, packed_rows, pivots_mod,
                     rank_by_minors, row_reduce, unpacked)
from strategies import wide_int

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=4, max_cols=4, entries=small_int):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


@st.composite
def low_rank_products(draw, max_size=9):
    """A . B with A m x k and B k x n, k <= min(m, n): rank at most k, so
    pivot columns get skipped and whole rows reduce to zero."""
    m = draw(st.integers(1, max_size))
    n = draw(st.integers(1, max_size))
    k = draw(st.integers(0, min(m, n)))
    a = draw(st.lists(st.lists(small_int, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(row[t] * b[t][j] for t in range(k)) for j in range(n)] for row in a]


def test_row_reduce_identity():
    rref, pivots, d = linalg.integer_rref([[1, 0], [0, 1]])
    assert pivots == [0, 1]
    assert rref == [[1, 0], [0, 1]]
    assert d == 1


def test_row_reduce_dependent_rows():
    rref, pivots, d = linalg.integer_rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert len(pivots) == 2


@given(st.one_of(matrices(9, 9), low_rank_products()))
@settings(max_examples=300, deadline=None)
def test_integer_elimination_matches_fraction_oracle(m):
    reduced, pivots = row_reduce(m)
    scaled, int_pivots, d = linalg.integer_rref(m)
    assert int_pivots == pivots
    assert all(type(x) is int for row in scaled for x in row)
    assert [[Fraction(x, d) for x in row] for row in scaled] == reduced
    assert linalg.rank(m) == len(pivots)
    # each integer kernel vector is a positive multiple of the oracle's
    basis = linalg.kernel_basis(m)
    oracle = fraction_kernel_basis(m, len(m[0]))
    assert len(basis) == len(oracle)
    for v, w in zip(basis, oracle):
        assert all(type(x) is int for x in v)
        i = next(i for i, x in enumerate(w) if x)
        scale = v[i] / w[i]
        assert scale > 0 and [scale * x for x in w] == v


@st.composite
def wide_inputs(draw):
    """Tall, wide and near-square matrices of ``wide_int`` up to 20 x 21,
    and low-rank products of two such matrices, whose rank k is at most 3:
    many free columns, skipped pivot columns and rows that reduce to 0."""
    m, n = draw(st.one_of(st.tuples(st.integers(1, 20), st.integers(1, 4)),
                          st.tuples(st.integers(1, 4), st.integers(1, 21)),
                          st.tuples(st.integers(1, 20), st.integers(1, 21))))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(wide_int, min_size=n, max_size=n),
                             min_size=m, max_size=m))
    k = draw(st.integers(0, min(m, n, 3)))
    a = draw(st.lists(st.lists(wide_int, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(wide_int, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(row[t] * b[t][j] for t in range(k)) for j in range(n)] for row in a]


@given(wide_inputs())
@example([[0, 5, 0, 7], [0, 0, 0, 0], [3, 1, 0, 2], [6, 2, 0, 4]])
@settings(max_examples=150, deadline=None)
def test_wide_integer_elimination_matches_fraction_oracle(m):
    # R / d is the Fraction RREF row for row, zero rows past the rank
    # included, and each kernel vector is exactly |d| times the oracle's
    reduced, pivots = row_reduce(m)
    scaled, int_pivots, d = linalg.integer_rref(m)
    assert int_pivots == pivots
    assert all(type(x) is int for row in scaled for x in row)
    assert [[Fraction(x, d) for x in row] for row in scaled] == reduced
    basis = linalg.kernel_basis(m)
    assert all(type(x) is int for v in basis for x in v)
    assert [[Fraction(x, abs(d)) for x in v] for v in basis] == fraction_kernel_basis(m, len(m[0]))


@st.composite
def echelon_inputs(draw):
    """Integer and low-rank matrices with zero rows and repeated rows
    spliced in at random places; single columns and no rows at all are
    among the draws."""
    rows = draw(st.one_of(matrices(5, 5), low_rank_products(5)))
    width = len(rows[0])
    extra = draw(st.lists(st.one_of(st.just([0] * width), st.sampled_from(rows)),
                          max_size=3))
    order = draw(st.permutations(range(len(rows) + len(extra))))
    rows = [list((rows + extra)[i]) for i in order]
    return draw(st.sampled_from((rows, [row[:1] for row in rows], [])))


@given(echelon_inputs())
@settings(max_examples=200, deadline=None)
def test_rref_pivots_count_the_rank_of_every_column_prefix(m):
    pivots = linalg.integer_rref(m)[1]
    width = len(m[0]) if m else 0
    for c in range(width + 1):
        assert sum(p < c for p in pivots) == rank_by_minors([row[:c] for row in m])
    assert linalg.rank(m) == len(pivots)


def test_rref_pivots_examples():
    assert linalg.integer_rref([])[1] == []
    assert linalg.integer_rref([[0, 0, 0], [0, 0, 0]])[1] == []
    # a zero first column and a repeated row: columns 1 and 2 carry the rank
    assert linalg.integer_rref([[0, 1, 1, 2], [0, 1, 1, 2], [0, 0, 3, 1]])[1] == [1, 2]
    assert linalg.integer_rref([[0], [5]])[1] == [0]


def test_rank_examples():
    assert linalg.rank([[1, 2], [3, 4]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([]) == 0


@st.composite
def modular_inputs(draw):
    """Matrices of ``wide_int``, and low-rank products plus p (or a
    multiple of p above 2^64) times a small matrix: the rank of those
    over Q may exceed their rank mod p."""
    base = draw(st.one_of(matrices(8, 8, wide_int), low_rank_products(8)))
    k = draw(st.sampled_from((linalg.PRIME, -linalg.PRIME * 2**40)))
    width = len(base[0])
    noise = draw(st.lists(st.lists(small_int, min_size=width, max_size=width),
                          min_size=len(base), max_size=len(base)))
    shifted = [[a + k * e for a, e in zip(row, extra)] for row, extra in zip(base, noise)]
    return draw(st.sampled_from((base, shifted)))


def modular_pivots(rows):
    """``linalg.modular_pivots`` on integer rows, packed by the oracle, and
    collected as (pivot columns, pivot rows)."""
    return collected_pivots(packed_rows(rows, linalg.PRIME), len(rows[0]) if rows else 0)


@given(modular_inputs())
@example([[linalg.PRIME, 1]])
@example([[2 * linalg.PRIME, 0], [1, 0], [0, -linalg.PRIME]])
@example([[1, 1], [1, 1], [0, 1]])
@settings(max_examples=300, deadline=None)
def test_modular_pivots_bound_the_exact_ones(m):
    pivots, pivot_rows = modular_pivots(m)
    assert (pivots, pivot_rows) == pivots_mod(m, linalg.PRIME)
    exact = linalg.integer_rref(m)[1]
    for c in range(len(m[0]) + 1):
        assert sum(p < c for p in pivots) <= sum(p < c for p in exact)
    assert linalg.rank([m[i] for i in pivot_rows]) == len(pivots)


def test_modular_pivots_keep_their_slots_apart():
    # 45 rows of 40 residues just below p: each of the 40 steps adds up
    # to p * 2^18 to a slot, and a carry into the next slot would change
    # the pivots or their rows
    rng = random.Random(3)
    p = linalg.PRIME
    m = [[rng.randrange(p - 40, p) for _ in range(40)] for _ in range(45)]
    assert modular_pivots(m) == pivots_mod(m, p)
    assert len(modular_pivots(m)[0]) == 40
    assert modular_pivots([]) == ([], [])
    assert modular_pivots([[0, p], [-p, 0]]) == ([], [])


def test_modular_pivots_keep_slots_apart_from_the_top_of_their_range():
    # 40 to 60 columns and more rows than columns, every slot starting at
    # (p - 1)^2 or above, the largest values the recurrence packer makes:
    # each of up to 60 steps adds up to p * 2^18 to a slot, and a carry
    # into the next slot would change the pivots or their rows
    rng = random.Random(4)
    p, bits = linalg.PRIME, linalg.SLOT_BITS
    for ncols in (40, 51, 60):
        rows = [[p * (p - 1) + rng.randrange(p) for _ in range(ncols)]
                for _ in range(ncols + rng.randrange(1, 8))]
        rows[rng.randrange(len(rows))] = [(p - 1) ** 2] * ncols
        packed = [sum(a << bits * c for c, a in enumerate(row)) for row in rows]
        assert all(a >= (p - 1) ** 2 for row in packed for a in unpacked(row, ncols))
        pivots = collected_pivots(packed, ncols)
        assert pivots == pivots_mod(rows, p)
        assert len(pivots[0]) == ncols
    # up to the widest row the slots allow, 4095 columns
    for ncols, nrows in ((40, 45), (4095, 3)):
        row = sum((p - 1) ** 2 << bits * c for c in range(ncols))
        assert collected_pivots([row] * nrows, ncols) == ([0], [0])


def test_modular_pivots_read_no_row_past_the_one_they_need():
    # a row is pulled only when no row before it has a nonzero lead: of 30
    # rows of full column rank 25 the last 5 are never read, and in rows
    # whose column 1 is 0 under the first pivot every row is pulled
    reads = []

    def pulled(rows):
        for i, row in enumerate(rows):
            reads.append(i)
            yield row

    rng, p = random.Random(5), linalg.PRIME
    m = [[rng.randrange(-10**6, 10**6) for _ in range(25)] for _ in range(30)]
    assert collected_pivots(pulled(packed_rows(m, p)), 25) == pivots_mod(m, p)
    assert reads == list(range(25))
    reads.clear()
    m = [[1, 1], [2, 2], [3, 3], [0, 1]]
    assert collected_pivots(pulled(packed_rows(m, p)), 2) == ([0, 1], [0, 3])
    assert reads == [0, 1, 2, 3]


def test_modular_pivots_refuse_rows_their_slots_cannot_hold():
    # 4096 columns could carry out of a slot: an internal invariant, so
    # the command that made such a call would exit 4; the generator checks
    # it when its first column is asked for
    screen = linalg.modular_pivots([], 2**12)
    with pytest.raises(AssertionError):
        next(screen)
    assert collected_pivots([], 2**12 - 1) == ([], [])


def test_fold_takes_a_pivot_row_at_its_bound_below_2_to_the_18():
    # a slot stays below p^2 + ncols * p * 2^18, a pivot slot times an
    # inverse (at most p - 1) below 2^64 for ncols < 2^12, and three folds
    # take any slot below 2^64 below 2^18 in its class mod p
    p, bits = linalg.PRIME, linalg.SLOT_BITS
    assert bits == 64
    assert p * (p**2 + (2**12 - 1) * p * 2**18) < 2**64
    for ncols in (1, 40, 60, 2**12 - 1):
        ones = sum(1 << bits * c for c in range(ncols))
        m17, m47 = ones * (2**17 - 1), ones * (2**47 - 1)
        bound = p**2 + ncols * p * 2**18 - 1
        for value in (bound * (p - 1), 2**64 - 1, 2**63 + 2**47 - 1,
                      2**47 + 2**17 - 2, (p - 1) ** 2):
            folded = unpacked(linalg._fold(value * ones, m17, m47), ncols + 1)
            assert folded[-1] == 0
            assert all(a < 2**18 and a % p == value % p for a in folded[:-1])


def test_kernel_basis_annihilates():
    rows = [[1, 2, 3], [0, 1, 1]]
    basis = linalg.kernel_basis(rows)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * x for a, x in zip(row, v)) == 0


def test_kernel_basis_no_rows():
    basis = linalg.kernel_basis([], ncols=3)
    assert len(basis) == 3
    # standard basis
    for i, v in enumerate(basis):
        assert v[i] == 1 and sum(abs(x) for x in v) == 1


def test_kernel_of_full_rank_matrix_is_empty():
    assert linalg.kernel_basis([[1, 0], [0, 1]]) == []


def test_det_known_values():
    assert linalg.det([[2]]) == 2
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert linalg.det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_det_upper_triangular_product():
    m = [[3, 5, 7], [0, 2, 9], [0, 0, 11]]
    assert linalg.det(m) == 66


def leibniz_det(m):
    """sum over permutations s of sign(s) * prod_i m[i][s(i)]."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(m[i][j] for i, j in enumerate(perm))
    return total


# mostly zeros, so that pivots are missing and the elimination swaps rows
# at odd and even offsets
sparse_int = st.one_of(st.just(0), st.just(0), small_int)
square_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(sparse_int, min_size=n, max_size=n),
                       min_size=n, max_size=n)
)


@given(square_matrices)
@example([[0, 1], [1, 0]])
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
@example([[0, 0, 2, 0], [0, 0, 0, 3], [0, 5, 0, 0], [7, 0, 0, 1]])
@settings(max_examples=300, deadline=None)
def test_det_equals_the_leibniz_expansion(m):
    assert linalg.det(m) == leibniz_det(m)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rank_agrees_with_exhaustive_minors(m):
    assert linalg.rank(m) == rank_by_minors(m)


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_det_transpose_invariant(m):
    t = [[m[c][r] for c in range(3)] for r in range(3)]
    assert linalg.det([row[:] for row in m]) == linalg.det(t)


@given(
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=3, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_det_row_scaling(m, i, c):
    before = linalg.det([row[:] for row in m])
    scaled = [row[:] for row in m]
    scaled[i] = [c * x for x in scaled[i]]
    assert linalg.det(scaled) == c * before


def test_max_slack_strictly_feasible_system():
    # the positive orthant works: h = (1, 1)
    rows = [[1, 0], [0, 1], [1, 1]]
    assert linalg.max_slack(rows, 2) == 1
    assert linalg.strictly_feasible(rows, 2)


def test_max_slack_opposed_rows():
    # h0 - h1 >= s together with h1 - h0 >= s forces s <= 0
    rows = [[1, -1], [-1, 1]]
    assert linalg.max_slack(rows, 2) == 0
    assert not linalg.strictly_feasible(rows, 2)


def test_max_slack_zero_row():
    # a zero row can never be strictly positive
    assert not linalg.strictly_feasible([[0, 0, 0]], 3)


def test_strictly_feasible_no_rows():
    assert linalg.strictly_feasible([], 4)


def test_strictly_feasible_needs_mixed_signs():
    # h0 > 0, h1 > 0, -h0 - h1 + 3 h2 > 0 has the witness (1, 1, 1)
    rows = [[1, 0, 0], [0, 1, 0], [-1, -1, 3]]
    assert linalg.strictly_feasible(rows, 3)
    # ... but forcing h2 against it as well closes the cone
    rows.append([0, 0, -1])
    assert not linalg.strictly_feasible(rows, 3)


@given(st.lists(st.lists(small_int, min_size=2, max_size=2), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_max_slack_is_zero_or_one(rows):
    s = linalg.max_slack(rows, 2)
    assert s in (0, 1)


@given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_infeasible_verdict_has_no_grid_witness(rows):
    # one-sided cross-check: when the LP reports that no h makes all
    # rows strictly positive, no point of a small rational grid may
    # succeed either (homogeneity makes small witnesses representative).
    if linalg.strictly_feasible([row[:] for row in rows], 3):
        return
    grid = [Fraction(x, 2) for x in range(-4, 5)]
    for h0 in grid:
        for h1 in grid:
            for h2 in grid:
                h = (h0, h1, h2)
                assert not all(
                    sum(r[i] * h[i] for i in range(3)) > 0 for r in rows
                ), f"LP said infeasible but {h} works"
