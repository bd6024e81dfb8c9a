"""Exact linear algebra over the integers.

Everything here is dense, small and exact, and takes integer rows only.
There is one exact elimination, ``integer_rref``, Bareiss's (1968)
fraction-free forward pass and a fraction-free back substitution, from
which kernel bases are read and whose pivots ``rank`` counts, held by the
tests to a rank through maximal nonzero minors (``tests/oracles.py``).

The one screen, ``modular_pivots``, eliminates forward over GF(p),
p = ``PRIME`` = 2^17 - 1, on rows its caller packs into one int of
``SLOT_BITS`` = 64-bit slots, one per column: a row operation is one
multiply and one add, and a pivot row is reduced by three whole-row folds
(2^17 = 1 mod p), whatever the row's length.  No slot reaches 2^64 while
ncols < 2^12, so nothing carries into the next.  An iterable of rows goes
in, each pulled only when it must join, and a pivot row or None comes out
per column, so the caller reads a prefix's pivots before any row past
them is touched.  It certifies nothing by
itself but bounds the exact rank from below: a minor that is nonzero mod
p is a nonzero integer, so every column prefix has at least as many
pivots over Q as mod p, and the pivot rows mod p are independent over Q.
``recurrence`` skips and shrinks its exact work with it, never deciding
an answer by it.

No floating point is ever produced or consumed, and no ``Fraction``
outside the simplex below, which imports it itself: no command runs the
simplex, and importing ``fractions`` (with ``decimal``) would add
milliseconds to every command's start-up.

``det``, the last pivot of ``integer_rref``, and ``max_slack`` and
``strictly_feasible``, a tiny exact tableau simplex, are on no production
path.  The nodal layer takes its 3x3 determinants as triple products
(``nodal._det3``), and ``det`` serves only the oracles: the wall LP
(``nodal._wall_rows``), ``lattice.normalized_volume`` and the tests.
``nodal.check_regularity`` decides strict feasibility by the signed
circuits of its matrix, and the simplex stays only as the oracle that the
tests and ``scripts/build_corpus.py`` hold that test to.
"""

from __future__ import annotations

# The prime of ``modular_pivots`` and the width of a packed row's slots.
PRIME = 2**17 - 1
SLOT_BITS = 64
_SLOT_MASK = (1 << SLOT_BITS) - 1


def integer_rref(rows: list[list]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: (R, pivots, d) with every
    row of R = d * RREF(rows) an integer row, the pivot entries of R all d,
    and rows past the rank 0.  The forward pass (Bareiss 1968) sets row_i
    <- (p * row_i - row_i[c] * row_k) // prev for the rows i below the k-th
    pivot row only, p the k-th pivot, c its column and prev the pivot
    before (1 at the start); the entries stay minors of the input
    (Sylvester's identity), so every division is exact.  A row swap
    negates the row moved down, keeping the sign of every minor: d, the last
    pivot, is the determinant of a nonsingular square matrix, and +-d that
    of the pivot rows B in the pivot columns c_l.  Back substitution from
    the last pivot row up fills each free column fc from the echelon rows
    U: R[k][fc] = (d * U[k][fc] - sum_{l>k} U[k][c_l] * R[l][fc]) //
    U[k][c_k], exact as R[k][fc] is a minor (Cramer's rule on B x = B_fc)."""
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    ncols = len(mat[0]) if mat else 0
    prev = 1
    r = 0
    for c in range(ncols):
        for pivot_row in range(r, len(mat)):
            if mat[pivot_row][c] != 0:
                break
        else:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], [-x for x in mat[r]]
        p, top = mat[r][c], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c]
            mat[i] = ([(p * a - f * b) // prev for a, b in zip(mat[i], top)] if f
                      else [p * a // prev for a in mat[i]])
        prev, r = p, r + 1
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    for k in range(r - 2, -1, -1):  # the last pivot row is already d * RREF
        u, mat[k] = mat[k], [0] * ncols
        mat[k][pivots[k]] = prev
        for fc in free:
            total = sum([u[c] * mat[l][fc] for l, c in enumerate(pivots[k + 1:], k + 1)])
            mat[k][fc] = (prev * u[fc] - total) // u[pivots[k]]
    return mat, pivots, prev


def _fold(row: int, m17: int, m47: int) -> int:
    """Three folds x <- (x & M17) + ((x >> 17) & M47) of a packed row, M17
    and M47 holding 2^17 - 1 and 2^47 - 1 in every 64-bit slot: a slot
    keeps its class mod p (2^17 = 1 mod p), drops the bits shifted down
    from the next slot, and ends below 2^18 if it started below 2^64."""
    for _ in range(3):
        row = (row & m17) + ((row >> 17) & m47)
    return row


def modular_pivots(rows, ncols: int):
    """Forward elimination over GF(``PRIME``) of packed rows, one column at
    a time: yields, for each of the ncols columns in turn, the original
    index of the row chosen as its pivot, the first unused row whose entry
    there is nonzero mod p, or None when no row has one.

    ``rows`` is any iterable.  Each row holds its entry in column c in the
    64-bit slot c, as an integer below p^2 congruent to it mod p.  Only
    the leading slot is reduced to find a pivot.  The pivot row, that slot
    shifted out, is multiplied by the inverse of its lead and folded to
    slots below 2^18 (``_fold``).  Every other row adds p - (lead mod p)
    times it and shifts out its leading slot, now 0 mod p.  So a slot
    stays below p^2 + ncols*p*2^18, and times an inverse below 2^64 while
    ncols < 2^12, asserted before the first column: nothing carries into
    the next slot.  A row is pulled from ``rows`` and joins only when no
    row before it has a nonzero lead, by replaying the pivot rows so far
    (a column without a pivot pulls every row), so no row past those a
    prefix needs is read before the column after that prefix is asked for.

    A k x k minor that is nonzero mod p is a nonzero integer, so every
    column prefix has at least as large a rank over Q as mod p: no prefix
    holds more of these pivots than of ``integer_rref``, and the pivot
    rows are linearly independent over Q.  An unlucky p finds fewer.
    """
    assert ncols < 2**12, "a slot could carry"
    ones = ((1 << SLOT_BITS * ncols) - 1) // _SLOT_MASK
    m17, m47 = ones * PRIME, ones * (2**47 - 1)
    rows = enumerate(rows)
    live, tops = [], []  # (original index, row) of the rows that joined; pivot rows
    for _ in range(ncols):
        k = next((k for k, (_, row) in enumerate(live) if (row & _SLOT_MASK) % PRIME),
                 None) if live else None
        while k is None and (pulled := next(rows, None)) is not None:
            i, row = pulled
            for top in tops:
                row = (row >> SLOT_BITS) + (PRIME - (row & _SLOT_MASK) % PRIME) * top
            live.append((i, row))
            if (row & _SLOT_MASK) % PRIME:
                k = len(live) - 1
        if k is None:
            live = [(i, row >> SLOT_BITS) for i, row in live]
            yield None
            continue
        i, pivot = live.pop(k)
        top = _fold((pivot >> SLOT_BITS) * pow(pivot & _SLOT_MASK, -1, PRIME), m17, m47)
        if live:  # in a prefix of full column rank, each row joins as the next pivot
            live = [(j, (row >> SLOT_BITS) + (PRIME - (row & _SLOT_MASK) % PRIME) * top)
                    for j, row in live]
        tops.append(top)
        yield i


def rank(rows: list[list]) -> int:
    return len(integer_rref(rows)[1])


def kernel_basis(rows: list[list], ncols: int | None = None) -> list[list[int]]:
    """Integer basis of {x : rows . x = 0}, one vector per free column.

    With R = d * RREF from ``integer_rref``, the vector of free column fc
    has d there, 0 in the other free columns and -R[r][fc] in the r-th
    pivot column, negated when d < 0: |d| times the vector with 1 at fc
    and -RREF[r][fc] at the pivots.  With no rows at all, d = 1 and every
    column is free, so the kernel is the full space and its basis the
    standard one.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required when rows is empty")
        ncols = len(rows[0])
    reduced, pivots, d = integer_rref(rows)
    sign = -1 if d < 0 else 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = sign * d
        for row, pc in zip(reduced, pivots):
            v[pc] = -sign * row[fc]
        basis.append(v)
    return basis


def det(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix: the last pivot of
    ``integer_rref`` when it reaches full rank, and 0 otherwise."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d = integer_rref(matrix)
    return d if len(pivots) == n else 0


def max_slack(rows: list[list], nvars: int):
    """Maximize s subject to row . h >= s for every row and s <= 1, as a
    Fraction; a test oracle only (see the module docstring).

    h ranges over all of Q^nvars.  The system is homogeneous in h, so the
    optimum is exactly 0 or 1; the value 1 certifies that some h satisfies
    every inequality strictly.  Solved by a dense exact simplex with
    Bland's rule (h is split into nonnegative parts; the all-slack basis is
    feasible at h = 0, s = 0).
    """
    from fractions import Fraction
    m = len(rows)
    # columns: h+ (nvars) | h- (nvars) | s | slack_cap | slack_row * m
    ncols = 2 * nvars + 2 + m
    s_col = 2 * nvars
    tableau: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    # cap row: s + slack_cap = 1
    cap = [Fraction(0)] * ncols
    cap[s_col] = Fraction(1)
    cap[s_col + 1] = Fraction(1)
    tableau.append(cap)
    rhs.append(Fraction(1))
    # wall rows: -a.h+ + a.h- + s + slack_i = 0  (i.e. a.h - s >= 0)
    for i, a in enumerate(rows):
        if len(a) != nvars:
            raise ValueError("constraint row of wrong length")
        row = [Fraction(0)] * ncols
        for j, x in enumerate(a):
            row[j] = Fraction(-x)
            row[nvars + j] = Fraction(x)
        row[s_col] = Fraction(1)
        row[s_col + 2 + i] = Fraction(1)
        tableau.append(row)
        rhs.append(Fraction(0))
    basis = [s_col + 1] + [s_col + 2 + i for i in range(m)]
    # objective: maximize s.  Reduced costs start at the objective itself
    # because every basic column has zero cost.
    cost = [Fraction(0)] * ncols
    cost[s_col] = Fraction(1)
    reduced = list(cost)
    value = Fraction(0)
    while True:
        entering = next((j for j in range(ncols) if reduced[j] > 0), None)
        if entering is None:
            return value
        # ratio test, Bland tie-break on basis index
        leaving = None
        best = None
        for i in range(len(tableau)):
            coef = tableau[i][entering]
            if coef > 0:
                ratio = rhs[i] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        assert leaving is not None, "objective is capped, pivot must exist"
        piv = tableau[leaving][entering]
        tableau[leaving] = [x / piv for x in tableau[leaving]]
        rhs[leaving] = rhs[leaving] / piv
        for i in range(len(tableau)):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leaving])]
                rhs[i] = rhs[i] - f * rhs[leaving]
        f = reduced[entering]
        reduced = [a - f * b for a, b in zip(reduced, tableau[leaving])]
        value = value + f * rhs[leaving]
        basis[leaving] = entering


def strictly_feasible(rows: list[list], nvars: int) -> bool:
    """True iff some h in Q^nvars has row . h > 0 for every row.  Test
    oracle for ``nodal.is_regular_sign_vector``; see the module docstring."""
    if not rows:
        return True
    opt = max_slack(rows, nvars)
    assert opt == 0 or opt == 1, "homogeneous scaling forces a 0/1 optimum"
    return opt == 1
