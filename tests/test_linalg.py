from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extatica.extactic import det_fraction_free
from extatica.linalg import det_mod, kernel, reduce_rational

from conftest import PRIMES_2_61, RING_XY

PRIMES = (2, 7, 101, 2147483647, PRIMES_2_61[0])


@st.composite
def matrices(draw, square=False, integer=False):
    """Small matrices of rank at most a drawn r: products of an n x r and an
    r x m factor whose entries are zero half of the time."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 5))
    rank = draw(st.integers(0, min(nrows, ncols)))
    value = st.integers(-4, 4) if integer else st.fractions(
        min_value=-4, max_value=4, max_denominator=3)
    entry = st.one_of(st.just(0), value)
    left = [[draw(entry) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), 0)
             for j in range(ncols)] for i in range(nrows)]


@given(mat=matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_determinant_matches_fraction_free(mat):
    _, _, det = reduce_rational(mat)
    poly = det_fraction_free([[RING_XY.constant(v) for v in row]
                              for row in mat])
    assert det == poly.constant_value()


@given(mat=matrices(square=True, integer=True), p=st.sampled_from(PRIMES))
@settings(max_examples=150, deadline=None)
def test_det_mod_is_the_rational_determinant_mod_p(mat, p):
    _, _, det = reduce_rational(mat)
    assert det.denominator == 1
    assert det_mod([[v % p for v in row] for row in mat], p) == \
        det.numerator % p


@given(mat=matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_basis(mat):
    ncols = len(mat[0])
    _, pivots, _ = reduce_rational(mat)
    basis = kernel(mat, ncols)
    assert len(basis) == ncols - len(pivots)
    pivot_cols = {c for _, c in pivots}
    free = [c for c in range(ncols) if c not in pivot_cols]
    for n, vec in enumerate(basis):
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in mat)
        assert [vec[c] for c in free] == \
            [Fraction(int(c == free[n])) for c in free]


@given(mat=matrices())
@settings(max_examples=100, deadline=None)
def test_reduced_rows(mat):
    rows, pivots, det = reduce_rational(mat)
    assert [c for _, c in pivots] == sorted(c for _, c in pivots)
    for p, c in pivots:
        assert [row[c] for row in rows] == \
            [Fraction(int(i == p)) for i in range(len(rows))]
    if len(mat) != len(mat[0]):
        assert det is None


def test_pivot_is_first_unused_row_in_original_order():
    # a row-swapping elimination would pick rows [2, 1]
    _, pivots, det = reduce_rational([[0, 1], [0, 1], [1, 0]])
    assert [p for p, _ in pivots] == [2, 0]
    assert det is None


@pytest.mark.parametrize("mat,det", [
    ([[0, 1], [1, 0]], -1),
    ([[0, 0, 2], [0, 3, 0], [5, 0, 0]], -30),
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),
    ([[1, 2], [2, 4]], 0),
])
def test_determinant_signs(mat, det):
    assert reduce_rational(mat)[2] == det
    assert det_mod(mat, 101) == det % 101


def test_kernel_of_empty_system_is_the_identity():
    assert kernel([], 2) == [[1, 0], [0, 1]]
