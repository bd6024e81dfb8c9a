"""Recurrence discovery and verification."""

import math
import random
import time
from fractions import Fraction
from itertools import islice, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold import linalg, recurrence
from conifold.errors import BudgetExceeded, InsufficientData
from conifold.laurent import from_fan_polytope, period_sequence
from conifold.recurrence import (
    Recurrence,
    _solve_cell,
    find_recurrence,
    gw_labeling,
    verify_recurrence,
)
from oracles import (
    CLOSED_FORM_PERIODS,
    charge_schedule,
    collected_pivots,
    find_recurrence_unscreened,
    packed_rows,
    pivots_mod,
    poly_value,
    solve_cell_on_every_row,
    unpacked,
    window_value,
)
from strategies import wide_int


def central_binomials(n):
    return [math.comb(2 * d, d) for d in range(n)]


def test_geometric_sequence():
    rec = find_recurrence([2 ** d for d in range(16)], rmax=2, degree_max=1)
    assert rec is not None
    assert (rec.order, rec.degree) == (1, 0)
    assert rec.coeffs == ((-2,), (1,))


def test_central_binomial():
    rec = find_recurrence(central_binomials(20), rmax=3, degree_max=2)
    assert rec is not None
    # (d+1) c_{d+1} = (4d+2) c_d, found at the least cell (1, 1)
    assert (rec.order, rec.degree) == (1, 1)
    assert rec.coeffs == ((-2, -4), (1, 1))


def test_fibonacci():
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    rec = find_recurrence(fib, rmax=2, degree_max=0)
    assert rec is not None
    assert (rec.order, rec.degree) == (2, 0)
    assert rec.coeffs == ((-1,), (-1,), (1,))


def test_factorials():
    rec = find_recurrence([math.factorial(d) for d in range(14)], rmax=1, degree_max=1)
    assert rec is not None
    # c_{d+1} = (d+1) c_d
    assert rec.coeffs == ((-1, -1), (1,))


def test_none_when_caps_too_small():
    # the central-binomial recurrence needs degree 1
    assert find_recurrence(central_binomials(20), rmax=1, degree_max=0) is None


def test_insufficient_data():
    with pytest.raises(InsufficientData):
        find_recurrence([1, 2, 4], rmax=2, degree_max=2)


def test_validation_errors():
    seq = list(range(40))
    with pytest.raises(ValueError):
        find_recurrence(seq, rmax=0, degree_max=1)
    with pytest.raises(ValueError):
        find_recurrence(seq, rmax=1, degree_max=-1)


def test_stride_subsamples():
    # on every second term, 4^d becomes 16^m
    rec = find_recurrence([4 ** d for d in range(32)][::2], rmax=1, degree_max=0)
    assert rec is not None
    assert rec.coeffs == ((-16,), (1,))


def test_least_length_is_the_largest_cell_plus_holdout():
    # the (2, 1) cell has 6 unknowns; 2 + 6 + HOLDOUT terms are the least
    # a search accepts, and the message names the constant
    seq = [2 ** d for d in range(13)]
    assert recurrence.HOLDOUT == 5
    assert find_recurrence(seq, rmax=2, degree_max=1).coeffs == ((-2,), (1,))
    with pytest.raises(InsufficientData, match="12 terms provided; the "
                       r"\(2, 1\) search with holdout 5 needs at least 13"):
        find_recurrence(seq[:12], rmax=2, degree_max=1)


def test_normalization_content_and_sign():
    rec = find_recurrence(central_binomials(24), rmax=2, degree_max=2)
    assert rec is not None
    flat = [a for poly in rec.coeffs for a in poly]
    assert math.gcd(*flat) == 1
    lead = rec.coeffs[-1]
    assert lead[-1] > 0
    # no trailing zero padding inside the polynomials
    for poly in rec.coeffs:
        assert poly == (0,) or poly[-1] != 0


def test_verify_recurrence_accepts_and_rejects():
    seq = [2 ** d for d in range(12)]
    rec = Recurrence(order=1, degree=0, coeffs=((-2,), (1,)))
    assert verify_recurrence(rec, seq)
    corrupted = seq[:]
    corrupted[7] += 1
    assert not verify_recurrence(rec, corrupted)


def test_verify_needs_more_terms_than_order():
    rec = Recurrence(order=3, degree=0, coeffs=((-1,), (0,), (0,), (1,)))
    with pytest.raises(InsufficientData):
        verify_recurrence(rec, [1, 1, 1])


def test_apply_is_zero_on_annihilated_sequence():
    seq = central_binomials(16)
    rec = Recurrence(order=1, degree=1, coeffs=((-2, -4), (1, 1)))
    assert all(window_value(rec, seq, d) == 0 for d in range(15))


def test_poly_value():
    rec = Recurrence(order=1, degree=2, coeffs=((1, 2, 3), (1,)))
    assert poly_value(rec, 0, 2) == 1 + 4 + 12


@st.composite
def recurrences_with_sequences(draw):
    """A recurrence of order 0 to 3 whose coefficient polynomials take
    ``wide_int`` entries and trailing zeros, and a sequence of order + 1
    to 60 terms: the one it generates from ``wide_int`` initial terms over
    Q, cleared of denominators, when p_r has no root at a window (flagged
    True), or else ``wide_int`` terms."""
    order = draw(st.integers(0, 3))
    coeffs = tuple(tuple(draw(st.lists(wide_int, min_size=i == order, max_size=4))
                         + [0] * draw(st.integers(0, 2))) for i in range(order + 1))
    rec = Recurrence(order, max(0, max(map(len, coeffs)) - 1), coeffs)
    length = draw(st.integers(order + 1, 60))
    seq = draw(st.lists(wide_int, min_size=length, max_size=length))
    leads = [poly_value(rec, order, d) for d in range(length - order)]
    if not all(leads):
        return rec, seq, False
    seq = [Fraction(c) for c in seq[:order]]
    for d, lead in enumerate(leads):
        seq.append(-sum((poly_value(rec, i, d) * seq[d + i] for i in range(order)),
                        Fraction(0)) / lead)
    scale = math.lcm(*(c.denominator for c in seq))
    return rec, [int(c * scale) for c in seq], True


@given(recurrences_with_sequences(), st.integers(0, 59), wide_int.filter(bool))
@settings(max_examples=150, deadline=None)
def test_verify_recurrence_is_the_per_window_oracle(case, k, delta):
    # verify_recurrence holds exactly when p_r is not identically zero and
    # the oracle is 0 at every window, before and after one term is changed,
    # and it holds on every sequence generated from the recurrence
    rec, seq, generated = case
    corrupted = seq[:]
    corrupted[k % len(seq)] += delta
    for terms in (seq, corrupted):
        expected = any(rec.coeffs[rec.order]) and all(
            window_value(rec, terms, d) == 0 for d in range(len(terms) - rec.order))
        assert verify_recurrence(rec, terms) == expected
    assert verify_recurrence(rec, seq) or not generated


def test_json_roundtrip():
    rec = find_recurrence(central_binomials(20), rmax=2, degree_max=2)
    again = Recurrence.from_json_dict(rec.to_json_dict())
    assert again == rec


def test_from_json_dict_rejects_fractional_coefficients():
    # only an int or an int() string is a coefficient; "6/2" and "3.0"
    # name integers but are forms ``to_json_dict`` never writes
    for bad in ("1/2", "6/2", "3.0", 3.0, True, None):
        data = {"order": 1, "degree": 0, "coeffs": [[bad], ["1"]]}
        with pytest.raises(ValueError):
            Recurrence.from_json_dict(data)
    data = {"order": 1, "degree": 0, "coeffs": [[-3], ["12"]]}
    assert Recurrence.from_json_dict(data).coeffs == ((-3,), (12,))


def test_from_json_dict_rejects_non_integer_order_and_degree():
    # order and degree go through the same integer check as coefficients,
    # so 1.9 and True are no longer read as 1
    data = {"order": 1, "degree": 0, "coeffs": [["-2"], ["1"]]}
    assert Recurrence.from_json_dict({**data, "order": "1"}).order == 1
    bad = [{**data, "order": 1.9, "degree": True}]
    bad += [{**data, key: raw}
            for key in ("order", "degree") for raw in (1.9, True, None)]
    bad += [{**data, "order": 2}, {**data, "coeffs": [["1"]]}]
    for case in bad:
        with pytest.raises(ValueError):
            Recurrence.from_json_dict(case)


def test_verify_rejects_a_zero_leading_polynomial():
    # p_r = 0 annihilates nothing: (-2) c_d + 0 c_{d+1} = 0 holds on zeros
    # but is no recurrence, nor is the empty one of order -1
    assert not verify_recurrence(Recurrence(1, 0, ((-2,), (0,))), [0, 0, 0])
    assert not verify_recurrence(Recurrence(1, 0, ((0,), (0, 0))), [1, 2, 3])
    assert not verify_recurrence(Recurrence(-1, 0, ()), [1, 2, 3])


def test_from_json_dict_rejects_a_zero_leading_polynomial():
    for data in ({"order": -1, "degree": 0, "coeffs": []},
                 {"order": 1, "degree": 0, "coeffs": [["-2"], ["0"]]},
                 {"order": 1, "degree": 1, "coeffs": [["-2", "1"], ["0", "0"]]}):
        with pytest.raises(ValueError, match="p_r is zero"):
            Recurrence.from_json_dict(data)


def test_from_json_dict_rejects_a_degree_other_than_the_longest_polynomial():
    data = {"order": 1, "degree": 9, "coeffs": [["-2"], ["1"]]}
    with pytest.raises(ValueError, match="degree 9"):
        Recurrence.from_json_dict(data)
    data = {"order": 1, "degree": 0, "coeffs": [["-2", "-4"], ["1", "1"]]}
    with pytest.raises(ValueError, match="degree 0"):
        Recurrence.from_json_dict(data)
    assert Recurrence.from_json_dict({**data, "degree": 1}).degree == 1


def test_from_json_dict_rejects_coefficients_that_are_not_lists():
    # a string is iterable, so "12" once read as ((1,), (2,))
    for coeffs in ("12", ["-2", "1"], [["-2"], "1"], {"0": ["-2"], "1": ["1"]},
                   [["-2"], ("1",)]):
        with pytest.raises(ValueError, match="not a list of lists"):
            Recurrence.from_json_dict({"order": 1, "degree": 0, "coeffs": coeffs})


# four of the benchmark's searches and one on nodal_01: sequence, length,
# rmax, degree cap, stride, and the least (order, degree) with its
# coefficients, frozen from the Fraction elimination that preceded the
# integer one or, for nodal_01, its closed form's term ratio; None is an
# exhaustive miss
PINNED_SEARCHES = (
    ("p3", 40, 4, 3, 1, (4, 3),
     ((-1536, -2816, -1536, -256), (0,), (0,), (0,), (64, 48, 12, 1))),
    ("octahedron", 80, 4, 4, 2, (2, 3),
     ((108, 396, 432, 144), (-138, -272, -180, -40), (8, 12, 6, 1))),
    ("nodal_03", 80, 4, 4, 2, (1, 3), ((-8, -48, -96, -64), (1, 3, 3, 1))),
    # 6(3d+1)(3d+2)(2d+1), the term ratio of (3n)!(2n)!/(n!)^5
    ("nodal_01", 75, 2, 4, 3, (1, 3), ((-12, -78, -162, -108), (1, 3, 3, 1))),
    ("p2xp1", 60, 4, 4, 1, None, None),
)


def test_benchmark_searches_are_pinned(golden):
    # building p2xp1 to degree 60 with period_sequence takes seconds; its
    # closed form is checked against the golden prefix instead
    p2xp1 = golden["polytopes"]["p2xp1"]["periods"]
    assert [CLOSED_FORM_PERIODS["p2xp1"](d) for d in range(len(p2xp1))] == p2xp1
    for stem, length, rmax, degree_max, stride, cell, coeffs in PINNED_SEARCHES:
        seq = [CLOSED_FORM_PERIODS[stem](d) for d in range(length + 1)]
        rec = find_recurrence(seq[::stride], rmax, degree_max)
        if cell is None:
            assert rec is None, stem
        else:
            assert rec is not None, stem
            assert ((rec.order, rec.degree), rec.coeffs) == (cell, coeffs), stem


def _logging_solver(log):
    """``_solve_cell`` that appends (r, D, found) to ``log`` on each call."""
    def logged(*args):
        sol = _solve_cell(*args)
        log.append((args[1], args[2], sol is not None))
        return sol

    return logged


@pytest.fixture
def solved_cells(monkeypatch):
    """Every (r, D, found) that ``find_recurrence`` hands to the exact
    solver, in order."""
    log = []
    monkeypatch.setattr(recurrence, "_solve_cell", _logging_solver(log))
    return log


def test_screen_solves_only_cells_it_cannot_rule_out(corpus, solved_cells):
    # the benchmark's five searches and nodal_01's: the screen rules out
    # every cell of the two exhaustive (4, 4) misses and every cell before
    # the hit of all four others; p3's (1, 3) cell, which its capped rows
    # leave deficient, is charged and then ruled out on every row
    nodal_02 = list(period_sequence(from_fan_polytope(corpus["nodal_02"]), 60).terms)
    searches = [(stem, [CLOSED_FORM_PERIODS[stem](d) for d in range(length + 1)],
                 rmax, degree_max, stride)
                for stem, length, rmax, degree_max, stride, _, _ in PINNED_SEARCHES]
    searches.append(("nodal_02", nodal_02, 4, 4, 1))
    expected = {
        "p3": [(4, 3, True)],
        "octahedron": [(2, 3, True)],
        "nodal_03": [(1, 3, True)],
        "nodal_01": [(1, 3, True)],
        "p2xp1": [],
        "nodal_02": [],
    }
    for stem, seq, rmax, degree_max, stride in searches:
        solved_cells.clear()
        rec = find_recurrence(seq[::stride], rmax, degree_max)
        assert solved_cells == expected[stem], stem
        assert rec == find_recurrence_unscreened(seq[::stride], rmax, degree_max)


def _counting(calls, name, fn):
    """``fn`` that adds one to ``calls[name]`` on each call."""
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_unlucky_prime_changes_no_answer(monkeypatch, solved_cells):
    # p times p3's and octahedron's sequences: every entry is 0 mod p, so
    # the modular pass clears nothing, every cell up to the hit is solved
    # exactly, and the cells the real prime skips are found empty
    p = linalg.PRIME
    for stem, length, rmax, degree_max, stride, _, _ in PINNED_SEARCHES[:2]:
        seq = [CLOSED_FORM_PERIODS[stem](d) for d in range(length + 1)][::stride]
        solved_cells.clear()
        rec = find_recurrence(seq, rmax, degree_max)
        log = list(solved_cells)
        solved_cells.clear()
        scaled = [p * c for c in seq]
        assert find_recurrence(scaled, rmax, degree_max) == rec, stem
        assert rec == find_recurrence_unscreened(scaled, rmax, degree_max), stem
        unlucky = iter(solved_cells)
        assert all(cell in unlucky for cell in log), stem  # log is a subsequence
        assert solved_cells[-1] == log[-1] and log[-1][2], stem  # the same hit
        extra = [cell for cell in solved_cells if cell not in log]
        assert extra and not any(found for _, _, found in extra), stem
    # the hit cell of p3: the pivot rows mod p are none, so every nonzero
    # row fails the first kernel and the second solve takes them all; the
    # real prime's 19 pivot rows span the cell's rows, so one solve is enough
    calls = {"kernel_basis": 0}
    monkeypatch.setattr(linalg, "kernel_basis",
                        _counting(calls, "kernel_basis", linalg.kernel_basis))
    seq = [CLOSED_FORM_PERIODS["p3"](d) for d in range(41)]
    p3_coeffs = PINNED_SEARCHES[0][6]
    chosen = collected_pivots(recurrence._packed_rows([a % p for a in seq], 4, 3), 20)[1]
    assert len(chosen) == 19
    assert _solve_cell([p * c for c in seq], 4, 3, []) == p3_coeffs
    assert _solve_cell(seq, 4, 3, chosen) == p3_coeffs
    assert calls["kernel_basis"] == 3


def test_exhaustive_misses_take_no_exact_elimination(corpus, monkeypatch):
    # p2xp1 and nodal_02 to degree 60 at (4, 4): the modular pass rules
    # out every cell, so the exact elimination never runs
    calls = {"integer_rref": 0}
    monkeypatch.setattr(linalg, "integer_rref",
                        _counting(calls, "integer_rref", linalg.integer_rref))
    nodal_02 = list(period_sequence(from_fan_polytope(corpus["nodal_02"]), 60).terms)
    p2xp1 = [CLOSED_FORM_PERIODS["p2xp1"](d) for d in range(61)]
    for seq in (p2xp1, nodal_02):
        assert find_recurrence(seq, 4, 4) is None
    assert calls == {"integer_rref": 0}


def test_recurrence_work_budget_counts_entry_updates(monkeypatch):
    # p3 to degree 40: the screens of orders 1-4, min(41 - r, 4(r + 1) + 5)
    # rows of 4(r + 1) columns, and the two cells that pass them, (1, 3)
    # and the hit (4, 3), on 41 - r rows; 36,016 updates in all, each
    # charged 2 words, for c_40 < 2^72 times d^3 < 2^18: 72,032
    seq = [CLOSED_FORM_PERIODS["p3"](d) for d in range(41)]
    assert max(seq).bit_length() + 3 * len(seq).bit_length() in range(65, 129)

    def updates(rows, cols):
        return rows * cols * min(rows, cols) * 2

    work = sum(updates(min(41 - r, 4 * (r + 1) + 5), 4 * (r + 1)) for r in range(1, 5))
    work += updates(40, 8) + updates(37, 20)
    assert work == 72032
    monkeypatch.setattr(recurrence, "RECURRENCE_WORK_BUDGET", work)
    assert find_recurrence(seq, rmax=4, degree_max=3).order == 4
    monkeypatch.setattr(recurrence, "RECURRENCE_WORK_BUDGET", work - 1)
    with pytest.raises(BudgetExceeded):
        find_recurrence(seq, rmax=4, degree_max=3)


def test_recurrence_budget_under_an_unlucky_prime_charges_every_cell_solved(monkeypatch):
    # p times p3 to degree 40: every entry is 0 mod p, so the screen clears
    # no cell and all 16 cells through the hit (4, 3) are solved, each
    # charged on 41 - r rows before it runs; entries below p * 2^72 * 2^18
    # take 2 words, so the four screens and 16 cells charge 159,952
    p = linalg.PRIME
    seq = [p * CLOSED_FORM_PERIODS["p3"](d) for d in range(41)]
    assert max(seq).bit_length() + 3 * len(seq).bit_length() in range(65, 129)

    def updates(rows, cols):
        return rows * cols * min(rows, cols) * 2

    work = sum(updates(min(41 - r, 4 * (r + 1) + 5), 4 * (r + 1)) for r in range(1, 5))
    work += sum(updates(41 - r, (r + 1) * (dD + 1)) for r in range(1, 5) for dD in range(4))
    assert work == 159952
    monkeypatch.setattr(recurrence, "RECURRENCE_WORK_BUDGET", work)
    assert find_recurrence(seq, rmax=4, degree_max=3).order == 4
    monkeypatch.setattr(recurrence, "RECURRENCE_WORK_BUDGET", work - 1)
    with pytest.raises(BudgetExceeded):
        find_recurrence(seq, rmax=4, degree_max=3)


def test_recurrence_budget_weighs_entries_by_their_size():
    # 800 noise terms below 10^9 at degree 48: the order-1 screen has
    # 103 x 98 entries, 989,212 updates, under 10^6 but 10 s of big-integer
    # work; entries up to 10^9 * 800^48 take 8 words, so the screen is
    # charged 7,913,696 and refused before any elimination
    rng = random.Random(1)
    seq = [rng.randrange(10**8, 10**9) for _ in range(800)]
    with pytest.raises(BudgetExceeded):
        find_recurrence(seq, rmax=1, degree_max=48)


def test_recurrence_budget_edge_on_noise():
    # 800 noise terms in [10^8, 10^9) with rmax = 1: the order-1 screen at
    # degree D has 2(D + 1) + 5 rows of 2(D + 1) columns, and its entries,
    # below 2^30 * 800^D, take (30 + 10 D) // 64 + 1 = 5 words at D = 27
    # and 28.  Degree 27 is charged 956,480, under the budget, and the
    # screen rules out every cell, so the search ends with None; degree 28
    # would be charged 1,059,660 and is refused before any elimination.
    rng = random.Random(5)
    seq = [rng.randrange(10**8, 10**9) for _ in range(800)]
    assert max(seq).bit_length() == 30
    charges = []
    for degree_max in (27, 28):
        cols = 2 * (degree_max + 1)
        charges.append((cols + 5) * cols * cols * ((30 + 10 * degree_max) // 64 + 1))
    assert charges == [956_480, 1_059_660]
    assert charges[0] <= recurrence.RECURRENCE_WORK_BUDGET < charges[1]
    start = time.perf_counter()
    assert find_recurrence(seq, rmax=1, degree_max=27) is None
    assert time.perf_counter() - start < 5
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        find_recurrence(seq, rmax=1, degree_max=28)
    assert time.perf_counter() - start < 0.1


def test_recurrence_budget_keeps_every_screen_far_below_its_slots(monkeypatch):
    # a block of w columns on w + 5 rows is charged (w + 5) w^2 words
    # before it runs, and 98^2 * 103 <= 10^6 < 99^2 * 104: over caps on
    # either side of that edge, every modular pass takes at most 98 of the
    # 4095 columns its slots allow, or the budget refuses the search first
    assert recurrence._charge(0, 103, 98, 1) == 98**2 * 103
    with pytest.raises(BudgetExceeded):
        recurrence._charge(0, 104, 99, 1)
    widths, screen = [], linalg.modular_pivots

    def spy(rows, ncols):
        widths.append(ncols)
        return screen(rows, ncols)

    monkeypatch.setattr(linalg, "modular_pivots", spy)
    rng = random.Random(6)
    seq = [rng.randrange(1, 10**9) for _ in range(99 * 50 + 98 + 5)]
    caps = list(product((1, 2, 4, 8, 20, 48, 97, 98), (0, 1, 3, 12, 48, 49)))
    refused = 0
    for rmax, degree_max in caps:
        widths.clear()
        try:
            assert find_recurrence(seq, rmax, degree_max) is None
        except BudgetExceeded:
            refused += 1
        assert max(widths, default=0) <= 98, (rmax, degree_max)
    assert 0 < refused < len(caps)


def test_block_screen_passes_exactly_the_cells_deficient_over_q(corpus):
    # the recurrence-hunt workload's five searches, length, rmax, degree
    # cap and stride as in its job list: under linalg.PRIME the block
    # screen passes a cell exactly when the block's first (r+1)(D+1)
    # columns have rank below that over Q, so no prime luck is needed
    # for their cells
    jobs = {"p3": (40, 4, 3, 1), "octahedron": (80, 4, 4, 2), "nodal_03": (80, 4, 4, 2),
            "p2xp1": (60, 4, 4, 1), "nodal_02": (60, 4, 4, 1)}
    p = linalg.PRIME
    for stem, (length, rmax, degree_max, stride) in jobs.items():
        if stem == "nodal_02":
            seq = list(period_sequence(from_fan_polytope(corpus[stem]), length).terms)
        else:
            seq = [CLOSED_FORM_PERIODS[stem](d) for d in range(length + 1)]
        seq = seq[::stride]
        for r in range(1, rmax + 1):
            ncols = (r + 1) * (degree_max + 1)
            nrows = min(len(seq) - r, ncols + recurrence.HOLDOUT)
            block = [[seq[d + i] * d**j for j in range(degree_max + 1) for i in range(r + 1)]
                     for d in range(nrows)]
            packed = recurrence._packed_rows([a % p for a in seq], r, degree_max)
            modular = collected_pivots(islice(packed, nrows), ncols)[0]
            exact = linalg.integer_rref(block)[1]
            for dD in range(degree_max + 1):
                width = (r + 1) * (dD + 1)
                assert (sum(c < width for c in modular) < width) == (
                    sum(c < width for c in exact) < width), (stem, r, dD)


def test_p3_block_deficiency_that_is_no_hit_falls_through(monkeypatch, solved_cells):
    # p3's sequence is zero off multiples of 4, so its order-1 block (the
    # first 13 rows) has rank 7 while the (1, 3) cell's full 40 x 8 matrix
    # has rank 8: the cell is charged on its 40 rows, the screen finds it
    # full rank on them and no solve runs, and the search goes on to the
    # (4, 3) hit
    seq = [CLOSED_FORM_PERIODS["p3"](d) for d in range(41)]
    block = [[seq[d + i] * d**j for j in range(4) for i in range(2)] for d in range(13)]
    assert linalg.integer_rref(block)[1] == [0, 1, 2, 3, 4, 5, 6]
    charges, charge = [], recurrence._charge

    def logged(work, nrows, ncols, words):
        charges.append((nrows, ncols))
        return charge(work, nrows, ncols, words)

    monkeypatch.setattr(recurrence, "_charge", logged)
    rec = find_recurrence(seq, rmax=4, degree_max=3)
    assert charges[:2] == [(13, 8), (40, 8)]
    assert solved_cells == [(4, 3, True)]
    assert rec == find_recurrence_unscreened(seq, rmax=4, degree_max=3)
    assert (rec.order, rec.degree) == (4, 3)


def test_first_hit_above_degree_zero(solved_cells):
    # (d+1) c_{d+1} = (4d+2) c_d: the (1, 0) cell is ruled out by the
    # screen and the (1, 1) cell is the first one solved
    seq = central_binomials(24)
    rec = find_recurrence(seq, rmax=3, degree_max=3)
    assert solved_cells == [(1, 1, True)]
    assert rec == find_recurrence_unscreened(seq, rmax=3, degree_max=3)
    assert rec.coeffs == ((-2, -4), (1, 1))


@st.composite
def recurrence_generated(draw):
    """Terms of sum_{i<r} p_i(d) c_{d+i} + c_{d+r} = 0 for random integer
    polynomials p_i of degree <= 2 and random initial terms."""
    order = draw(st.integers(1, 3))
    polys = draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                          min_size=order, max_size=order))
    seq = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    while len(seq) < 70:
        d = len(seq) - order
        seq.append(-sum(sum(a * d**j for j, a in enumerate(p)) * seq[d + i]
                        for i, p in enumerate(polys)))
    return seq


# half of the draws come from a recurrence, so that hits are common
SEQUENCES = st.one_of(
    recurrence_generated(),
    recurrence_generated(),
    st.lists(st.sampled_from((0, 0, 0, 0, 0, 0, 1, -1, 2, 7)), min_size=70, max_size=70),
    st.lists(st.integers(-10**30, 10**30), min_size=70, max_size=70),
)


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


@given(SEQUENCES, st.integers(1, 3), st.integers(0, 3), st.integers(1, 2),
       st.integers(-7, 11))
@settings(max_examples=200, deadline=None)
def test_screened_search_equals_unscreened(seq, rmax, degree_max, stride, extra):
    # the sequence is cut to a length near the least the caps accept, so
    # InsufficientData is raised on a share of the draws
    needed = (rmax + 1) * (degree_max + 1) + rmax + recurrence.HOLDOUT
    seq = seq[::stride][: needed + extra]
    args = (seq, rmax, degree_max)
    solved = []
    with mock.patch.object(recurrence, "_solve_cell", _logging_solver(solved)):
        screened = _outcome(find_recurrence, *args)
    assert screened == _outcome(find_recurrence_unscreened, *args)
    # the screen itself: no cell it ruled out before the hit, or before
    # the end of a miss, has a solution
    if isinstance(screened, tuple):
        return
    tried = {(r, dD) for r, dD, _ in solved}
    stop = max(tried) if screened is not None else (rmax, degree_max)
    for cell in product(range(1, rmax + 1), range(degree_max + 1)):
        if cell <= stop and cell not in tried:
            assert solve_cell_on_every_row(seq, *cell) is None, cell


@given(SEQUENCES, st.integers(1, 3), st.integers(0, 3),
       st.sampled_from((1, linalg.PRIME)), st.integers(0, 10), st.data())
@settings(max_examples=100, deadline=None)
def test_cell_solve_equals_every_row_oracle(seq, r, dD, scale, cut, data):
    # from the screen's pivot rows, or any rows at all: p times a sequence
    # leaves the modular pass no pivots, so the second solve runs on every
    # nonzero row
    seq = [scale * c for c in seq[: (r + 1) * (dD + 1) + r + cut]]
    ncols = (r + 1) * (dD + 1)
    pivot_rows = collected_pivots(
        recurrence._packed_rows([a % linalg.PRIME for a in seq], r, dD), ncols)[1]
    chosen = data.draw(st.one_of(st.just(pivot_rows), st.lists(
        st.integers(0, len(seq) - r - 1), max_size=ncols + 2, unique=True)))
    assert _solve_cell(seq, r, dD, chosen) == solve_cell_on_every_row(seq, r, dD)


@given(st.lists(wide_int, min_size=1, max_size=40), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_packed_rows_are_the_exact_rows_mod_p(terms, r, dD):
    # the block layout j(r+1) + i, one row per window, iterated once;
    # every slot a product of two residues, below p^2
    p = linalg.PRIME
    r = min(r, len(terms) - 1)
    ncols = (r + 1) * (dD + 1)
    block = [[terms[d + i] * d**j for j in range(dD + 1) for i in range(r + 1)]
             for d in range(len(terms) - r)]
    packed = list(recurrence._packed_rows([a % p for a in terms], r, dD))
    slots = [unpacked(row, ncols) for row in packed]
    assert all(row >> linalg.SLOT_BITS * ncols == 0 for row in packed)
    assert all(a < p**2 for row in slots for a in row)
    assert packed_rows(slots, p) == packed_rows(block, p)
    assert collected_pivots(packed, ncols) == pivots_mod(block, p)


@given(SEQUENCES, st.integers(1, 3), st.integers(0, 3), st.integers(1, 2),
       st.integers(-7, 11), st.sampled_from((1, linalg.PRIME)))
@settings(max_examples=150, deadline=None)
def test_charges_are_those_of_the_capped_screens(seq, rmax, degree_max, stride, extra, scale):
    # every charge, its amount and its order: one per order for its first
    # nrows rows, then one per cell that those rows leave deficient, up to
    # the answer, as when each order's screen took the capped rows alone;
    # p times a sequence leaves every cell deficient mod p
    needed = (rmax + 1) * (degree_max + 1) + rmax + recurrence.HOLDOUT
    seq = [scale * c for c in seq[::stride][: needed + extra]]
    charges, charge = [], recurrence._charge

    def logged(work, nrows, ncols, words):
        charges.append((nrows, ncols, words))
        return charge(work, nrows, ncols, words)

    with mock.patch.object(recurrence, "_charge", logged):
        try:
            find_recurrence(seq, rmax, degree_max)
        except InsufficientData:
            assert charges == []
            return
    assert charges == charge_schedule(seq, rmax, degree_max)


def test_p3_refusal_packs_no_row_past_the_capped_screen(monkeypatch):
    # 400 terms of p3 at (4, 3): entries take 13 words, and the order-4
    # screen's 25 capped rows leave the (4, 3) cell deficient, so asking
    # for row 25 charges it on 396 rows, past the budget; the refusal
    # comes before that row is packed
    seq = [CLOSED_FORM_PERIODS["p3"](d) for d in range(400)]
    packed, pack = {}, recurrence._packed_rows

    def counted(residues, r, dD):
        packed[r] = 0
        for row in pack(residues, r, dD):
            packed[r] += 1
            yield row

    monkeypatch.setattr(recurrence, "_packed_rows", counted)
    with pytest.raises(BudgetExceeded):
        find_recurrence(seq, rmax=4, degree_max=3)
    assert list(packed) == [1, 2, 3, 4]
    assert packed[4] == min(len(seq) - 4, 5 * 4 + recurrence.HOLDOUT) == 25


def test_str_rendering():
    rec = Recurrence(order=1, degree=1, coeffs=((-2, -4), (1, 1)))
    assert str(rec) == "(-4d - 2)*c(d) + (d + 1)*c(d+1) = 0"


def test_gw_labeling():
    labels = gw_labeling([1, 0, 0, 0, 24])
    assert labels[0] == {"d": 0, "label": None, "value": 1}
    assert labels[1] == {"d": 1, "label": None, "value": 0}
    d, label, value = labels[4]["d"], labels[4]["label"], labels[4]["value"]
    assert (d, value) == (4, 24)
    assert "ψ²" in label and "{0,1,4}" in label


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_recovers_arbitrary_geometric(ratio, start):
    seq = [start * ratio ** d for d in range(16)]
    rec = find_recurrence(seq, rmax=2, degree_max=1)
    assert rec is not None
    assert rec.coeffs == ((-ratio,), (1,))


@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_found_recurrences_verify_on_longer_run(init):
    # build a sequence from a known order-3 constant recurrence, then
    # confirm whatever the finder returns annihilates the full run
    seq = list(init)
    while len(seq) < 30:
        seq.append(seq[-1] - 2 * seq[-2] + seq[-3])
    rec = find_recurrence(seq[:20], rmax=3, degree_max=1)
    if rec is not None:
        assert verify_recurrence(rec, seq)
