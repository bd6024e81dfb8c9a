"""Recurrence discovery and verification."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold.errors import InsufficientData
from conifold.recurrence import (
    Recurrence,
    find_recurrence,
    gw_labeling,
    verify_recurrence,
)
from strategies import CLOSED_FORM_PERIODS


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
    with pytest.raises(ValueError):
        find_recurrence(seq, rmax=1, degree_max=1, holdout=0)
    with pytest.raises(ValueError):
        find_recurrence(seq, rmax=1, degree_max=1, stride=0)


def test_stride_subsamples():
    # on every second term, 4^d becomes 16^m
    rec = find_recurrence([4 ** d for d in range(32)], rmax=1, degree_max=0, stride=2)
    assert rec is not None
    assert rec.coeffs == ((-16,), (1,))


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
    assert all(rec.apply(seq, d) == 0 for d in range(15))


def test_poly_value():
    rec = Recurrence(order=1, degree=2, coeffs=((1, 2, 3), (1,)))
    assert rec.poly_value(0, 2) == 1 + 4 + 12


def test_json_roundtrip():
    rec = find_recurrence(central_binomials(20), rmax=2, degree_max=2)
    again = Recurrence.from_json_dict(rec.to_json_dict())
    assert again == rec


def test_from_json_dict_rejects_fractional_coefficients():
    data = {"order": 1, "degree": 0, "coeffs": [["1/2"], ["1"]]}
    with pytest.raises(ValueError):
        Recurrence.from_json_dict(data)


# four of the benchmark's searches: sequence, length, rmax, degree cap,
# stride, and the least (order, degree) with its coefficients, frozen from
# the Fraction elimination that preceded the integer one; None is an
# exhaustive miss
PINNED_SEARCHES = (
    ("p3", 40, 4, 3, 1, (4, 3),
     ((-1536, -2816, -1536, -256), (0,), (0,), (0,), (64, 48, 12, 1))),
    ("octahedron", 80, 4, 4, 2, (2, 3),
     ((108, 396, 432, 144), (-138, -272, -180, -40), (8, 12, 6, 1))),
    ("nodal_03", 80, 4, 4, 2, (1, 3), ((-8, -48, -96, -64), (1, 3, 3, 1))),
    ("p2xp1", 60, 4, 4, 1, None, None),
)


def test_benchmark_searches_are_pinned(golden):
    # building p2xp1 to degree 60 with period_sequence takes seconds; its
    # closed form is checked against the golden prefix instead
    p2xp1 = golden["polytopes"]["p2xp1"]["periods"]
    assert [CLOSED_FORM_PERIODS["p2xp1"](d) for d in range(len(p2xp1))] == p2xp1
    for stem, length, rmax, degree_max, stride, cell, coeffs in PINNED_SEARCHES:
        seq = [CLOSED_FORM_PERIODS[stem](d) for d in range(length + 1)]
        rec = find_recurrence(seq, rmax, degree_max, stride=stride)
        if cell is None:
            assert rec is None, stem
        else:
            assert rec is not None, stem
            assert ((rec.order, rec.degree), rec.coeffs) == (cell, coeffs), stem


def test_str_rendering():
    rec = Recurrence(order=1, degree=1, coeffs=((-2, -4), (1, 1)))
    assert str(rec) == "(-4d - 2)*c(d) + (d + 1)*c(d+1) = 0"


def test_gw_labeling():
    labels = gw_labeling([1, 0, 0, 0, 24])
    assert labels[0] == (0, None, 1)
    assert labels[1] == (1, None, 0)
    d, label, value = labels[4]
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
