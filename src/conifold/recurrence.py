"""Discovery of linear recurrences with polynomial coefficients.

Given integer sequence terms c_0 .. c_L, search for the lexicographically
least (order r, coefficient degree D) such that

    sum_{i=0}^{r} p_i(d) * c_{d+i} = 0   for every usable d,

with deg p_i <= D and p_r not identically zero.  Nothing is held out: a
cell's kernel is that of all its L + 1 - r rows, so a candidate
annihilates every window of the sequence.  A search needs at least
(rmax+1)(degree_max+1) + rmax + ``HOLDOUT`` terms, so that every cell has
at least ``HOLDOUT`` more equations than unknowns, which kills fitted
coincidences; the constant sets that least length and the screen's row
count below, never which cell is returned.  No candidate is ever
accepted numerically.

Arithmetic mod p = ``linalg.PRIME`` = 2^17 - 1 decides what is skipped; exact
integer arithmetic decides every answer.  An unlucky prime costs time,
never a different cell, kernel or output.

Most cells are never solved.  For each order r one screen eliminates
forward mod p (``linalg.modular_pivots``) over every row d = 0 .. L - r,
entry c_{d+i} * d^j in column j(r+1) + i, each row packed only when it
joins, from the terms reduced mod p once, one 64-bit slot
(``linalg.SLOT_BITS``) per column (``_packed_rows``).  Its first
w = (r+1)(D+1) columns are the (r, D) cell's matrix, columns permuted,
and the screen runs them cell by cell, D = 0, 1, ...  When they have w
pivots, some w x w minor is nonzero mod p, hence a nonzero integer: the
cell's matrix has full column rank over Q, its kernel is {0}, and the
cell is skipped.  Rows join only when the rows before them leave a column
without a pivot, and those past
nrows = min(L + 1 - r, (r+1)(degree_max+1) + ``HOLDOUT``) only after a
charge (below): a cell whose pivots all come from rows d < nrows is
skipped uncharged.  Every other cell is charged, and skipped if its
columns have w pivots over all rows.  A prime that divides a minor only
hands the solver more cells, each of which it finds empty.

A cell that the screen cannot rule out is solved exactly
(``_solve_cell``).  Its integer kernel K (``linalg.kernel_basis``,
fraction-free) is taken on the screen's pivot rows of its columns, the
only rows built, each divided by its content, which leaves the kernel and
shrinks the entries of the elimination; then every window is checked
against K by Horner's rule (``_window_sums``, as in ``verify_recurrence``).
A row that passes lies in the orthogonal complement of K, which is the
span of the chosen rows; the rows that fail, if any, are built and added
and the kernel is taken once more.  Then the chosen rows span the cell's
row space, and the reduced echelon form depends on the row space alone:
the kernel basis is the one that solving on every row gives, up to a
positive factor, and ``_normalize`` returns the same vector.  No cell
takes more than two solves.

The budget (``_charge``) is charged before any work, by the same
formulas as when every screen and solve was exact: one charge per order
for its first nrows rows, and one per cell that they leave deficient,
each the entry updates of an exact elimination of all its rows.  The
first time the screen asks for row nrows it charges the cell whose
columns it is on, and every later cell of the order is charged before
its columns run, since a deficient prefix stays deficient; so no modular
work on a row past nrows comes before the charge that pays for it.  The
charges bound the exact work: only a solve eliminates exactly, and a
cell's two solves take its chosen rows and then at most all of them, so
at most twice its charge.  A modular pass updates a whole row in one
multiply and one add; a screen of w columns, charged at least
(w + 5) w^2, has w < 99, far below the 2^12 columns its slots allow.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import gcd

from . import linalg
from .errors import BudgetExceeded, InsufficientData

# Least surplus of equations over the unknowns of the largest cell that a
# search accepts (module docstring).
HOLDOUT = 5
# Most word-weighted entry updates one search may charge; the largest
# searches in the tests and the benchmark, the exhaustive (4, 4) ones on
# 61 terms, charge 104,250.
RECURRENCE_WORK_BUDGET = 10**6

_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sup(n: int) -> str:
    return str(n).translate(_SUPERSCRIPT)


class Recurrence(namedtuple("Recurrence", "order degree coeffs")):
    """coeffs[i] lists p_i low power first; normalized so all entries are
    integers of content 1 and the leading coefficient of p_r is positive."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "coeffs": [[str(a) for a in poly] for poly in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Recurrence":
        """Inverse of ``to_json_dict``.  An order, degree or coefficient
        that is not an integer, coefficients that are not a list of lists,
        other than order + 1 of them, a p_r that is identically zero, or a
        degree other than the longest list's length - 1 raises ValueError."""
        order, degree = _integer(data["order"]), _integer(data["degree"])
        raw = data["coeffs"]
        if type(raw) is not list or any(type(poly) is not list for poly in raw):
            raise ValueError("recurrence coefficients are not a list of lists")
        coeffs = tuple(tuple(_integer(a) for a in poly) for poly in raw)
        if len(coeffs) != order + 1:
            raise ValueError(f"a recurrence of order {order} has {order + 1} "
                             f"coefficient polynomials, not {len(coeffs)}")
        if not coeffs or not any(coeffs[-1]):
            raise ValueError("the leading coefficient polynomial p_r is zero")
        if degree != max(map(len, coeffs)) - 1:
            raise ValueError(f"degree {degree} is not that of the longest "
                             f"coefficient polynomial")
        return cls(order, degree, coeffs)

    def __str__(self) -> str:
        def render_poly(poly) -> str:
            # descending powers, conventional signs, no unit coefficients
            chunks = []
            for j in range(len(poly) - 1, -1, -1):
                a = poly[j]
                if a == 0:
                    continue
                power = "" if j == 0 else "d" if j == 1 else f"d{_sup(j)}"
                body = power if abs(a) == 1 and j else f"{abs(a)}{power}"
                sign = ("+ " if a > 0 else "- ") if chunks else ("" if a > 0 else "-")
                chunks.append(sign + body)
            return " ".join(chunks) if chunks else "0"

        parts = []
        for i, poly in enumerate(self.coeffs):
            if all(a == 0 for a in poly):
                continue
            shift = "c(d)" if i == 0 else f"c(d+{i})"
            parts.append(f"({render_poly(poly)})*{shift}")
        return " + ".join(parts) + " = 0"


def _integer(raw) -> int:
    """An int (not a bool), or a string that ``int()`` parses; anything
    else, "6/2" and "3.0" included, raises ValueError."""
    if type(raw) is int or isinstance(raw, str):
        return int(raw)
    raise ValueError(f"recurrence field {raw!r} is not an integer")


def _normalize(vec: list[int], r: int, dD: int) -> tuple:
    """Reduce content to 1 and make the leading coefficient of p_r
    positive; idempotent on its own output."""
    g = gcd(*vec)
    ints = [x // g for x in vec]
    polys = [ints[i * (dD + 1) : (i + 1) * (dD + 1)] for i in range(r + 1)]
    lead = next(a for a in reversed(polys[r]) if a != 0)
    if lead < 0:
        polys = [[-a for a in poly] for poly in polys]
    # drop trailing zero coefficients, keeping the constant term
    return tuple(tuple(poly[:1 + max((j for j, a in enumerate(poly) if a), default=0)])
                 for poly in polys)


def _charge(work: int, nrows: int, ncols: int, words: int) -> int:
    """``work`` plus the nrows * ncols * min(nrows, ncols) entry updates of
    one elimination, each weighted by the ``words`` of its largest entry,
    charged before it runs; raises BudgetExceeded past
    ``RECURRENCE_WORK_BUDGET``."""
    work += nrows * ncols * min(nrows, ncols) * words
    if work > RECURRENCE_WORK_BUDGET:
        raise BudgetExceeded(f"recurrence search needs more than "
                             f"{RECURRENCE_WORK_BUDGET} entry updates")
    return work


def _packed_rows(residues: list[int], r: int, dD: int):
    """Rows d = 0 .. L - r of c_{d+i} * d^j mod p, one at a time, with
    entry (i, j) in the ``linalg.SLOT_BITS``-bit slot j(r+1) + i for
    ``linalg.modular_pivots``: the sums over j of (d^j mod p) times a
    window of residues c_d .. c_{d+r} that slides a term a row, each slot
    below p^2."""
    width, gap = linalg.SLOT_BITS, linalg.SLOT_BITS * (r + 1)
    window = sum(a << width * (i + 1) for i, a in enumerate(residues[:r]))
    for d in range(len(residues) - r):
        window = (window >> width) + (residues[d + r] << width * r)
        row, power = 0, 1
        for j in range(dD + 1):
            row, power = row + (power * window << gap * j), power * d % linalg.PRIME
        yield row


def _window_sums(coeffs, terms) -> list[int]:
    """sum_i p_i(d) * c_{d+i} at every window d of ``terms``, with p_i =
    coeffs[i] low power first, each by Horner's rule at every d at once."""
    sums = [0] * (len(terms) + 1 - len(coeffs))
    ds = range(len(sums))
    for i, poly in enumerate(coeffs):
        values = [0] * len(ds)
        for a in reversed(poly):
            values = [v * d + a for v, d in zip(values, ds)]
        sums = [s + v * c for s, v, c in zip(sums, values, terms[i:])]
    return sums


def _solve_cell(terms: list[int], r: int, dD: int, chosen: list[int]) -> tuple | None:
    """Nontrivial normalized solution for the (r, D) cell over every usable
    window of ``terms``, or None, from the windows ``chosen`` (any will
    do; the search passes the screen's pivot rows) and those their kernel
    fails, each row divided by its content (module docstring)."""
    nvars = (r + 1) * (dD + 1)
    def rows(ds):
        out = []
        for d in ds:
            row = [terms[d + i] * d**j for i in range(r + 1) for j in range(dD + 1)]
            content = gcd(*row) or 1
            out.append([a // content for a in row])
        return out
    chosen = rows(chosen)
    basis = linalg.kernel_basis(chosen, ncols=nvars)
    sums = zip(*(_window_sums([v[i:i + dD + 1] for i in range(0, nvars, dD + 1)], terms)
                 for v in basis))
    failed = [d for d, window in enumerate(sums) if any(window)]
    if failed:
        basis = linalg.kernel_basis(chosen + rows(failed), ncols=nvars)
    for vec in basis:
        if any(vec[r * (dD + 1):]):  # p_r is not identically zero
            return _normalize(vec, r, dD)
    return None


def find_recurrence(terms, rmax: int, degree_max: int) -> Recurrence | None:
    """Least (r, D) <= (rmax, degree_max) in lexicographic order whose
    exact solution annihilates every window of the integer sequence
    ``terms``; None when no cell admits one."""
    if rmax < 1 or degree_max < 0:
        raise ValueError("need rmax >= 1 and degree_max >= 0")
    needed = (rmax + 1) * (degree_max + 1) + rmax + HOLDOUT
    if len(terms) < needed:
        raise InsufficientData(
            f"{len(terms)} terms provided; the ({rmax}, {degree_max}) search "
            f"with holdout {HOLDOUT} needs at least {needed}"
        )
    # every entry c_{d+i} * d^j, d < len(terms), fits in this many 64-bit
    # words, so a screen of long terms or high degree is charged its size
    words = (max(map(abs, terms)).bit_length()
             + degree_max * len(terms).bit_length()) // 64 + 1
    work = 0
    residues = [a % linalg.PRIME for a in terms]
    for r in range(1, rmax + 1):
        # the screen of the module docstring: one per order, over every row
        ncols = (r + 1) * (degree_max + 1)
        nrows = min(len(terms) - r, ncols + HOLDOUT)
        work, released = _charge(work, nrows, ncols, words), False

        def rows(packed=_packed_rows(residues, r, degree_max)):
            # rows past nrows are packed only once the cell they join on is charged
            nonlocal work, released
            yield from islice(packed, nrows)
            work, released = _charge(work, len(terms) - r, (r + 1) * (dD + 1), words), True
            yield from packed

        screen, chosen = linalg.modular_pivots(rows(), ncols), []
        for dD in range(degree_max + 1):
            if released:
                work = _charge(work, len(terms) - r, (r + 1) * (dD + 1), words)
            chosen += islice(screen, r + 1)
            if not released or None not in chosen:
                continue
            sol = _solve_cell(terms, r, dD, [k for k in chosen if k is not None])
            if sol is None:
                continue
            rec = Recurrence(r, max(len(p) - 1 for p in sol), sol)
            assert verify_recurrence(rec, terms)
            return rec
    return None


def verify_recurrence(rec: Recurrence, terms) -> bool:
    """Exact check of the recurrence over every window of the sequence;
    False when p_r is identically zero, which annihilates nothing."""
    if len(terms) <= rec.order:
        raise InsufficientData(f"sequence of length {len(terms)} is shorter "
                               f"than order {rec.order} + 1")
    return (rec.order >= 0 and any(rec.coeffs[rec.order])
            and not any(_window_sums(rec.coeffs, terms)))


def gw_labeling(terms) -> list[dict]:
    """Label the terms of a period sequence as one-pointed genus-zero
    descendant invariants, one ``{"d", "label", "value"}`` row per term:
    degree d >= 2 carries the label "<psi^(d-2)[pt]>_{0,1,d}"; d = 0 and
    1 stay unlabeled (label None)."""
    return [{"d": d, "label": f"⟨ψ{_sup(d - 2)}[pt]⟩_{{0,1,{d}}}" if d >= 2 else None,
             "value": value} for d, value in enumerate(terms)]
