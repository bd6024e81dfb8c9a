"""Shared hypothesis strategies for the tests: unimodular matrices, small
lattice point sets, and integers wide or near multiples of the screen's
prime.  The oracles the fast paths are checked against live in
``oracles``."""

from hypothesis import strategies as st

from conifold.linalg import PRIME

# negative entries, entries above 2^64, and multiples of the screen's prime
# with their neighbours
wide_int = st.one_of(
    st.integers(-6, 6),
    st.integers(-2**80, 2**80),
    st.builds(lambda k, e: k * PRIME + e, st.integers(-2**40, 2**40), st.integers(-1, 1)),
)


def _apply_op(m, op):
    kind, i, j, c = op
    n = len(m)
    i %= n
    j %= n
    if kind == 0 and i != j:  # shear: row_i += c * row_j
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    elif kind == 1:  # swap
        m[i], m[j] = m[j], m[i]
    elif kind == 2:  # negate
        m[i] = [-a for a in m[i]]
    return m


@st.composite
def unimodular_matrices(draw, dim=3, max_ops=6):
    """Integer matrices of determinant +-1, built from elementary ops."""
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, dim - 1),
                st.integers(0, dim - 1),
                st.integers(-2, 2),
            ),
            max_size=max_ops,
        )
    )
    m = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    for op in ops:
        m = _apply_op(m, op)
    return tuple(tuple(row) for row in m)


@st.composite
def point_sets(draw, dim=3, min_points=None, max_points=7, span=3):
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(-span, span) for _ in range(dim)]),
            min_size=min_points or dim + 1,
            max_size=max_points,
        )
    )
    return [tuple(p) for p in pts]
