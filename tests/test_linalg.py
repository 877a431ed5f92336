from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauss_jordan_oracle as oracle
from extatica.corpus import hamiltonian, pencil_field
from extatica.extactic import (_PROBE_RANGE, _point_jet, det_fraction_free,
                               extract_first_integral, monomial_system)
from extatica.foliation import AFFINE
from extatica.linalg import det_mod, kernel, reduce_rational

from conftest import PRIMES_2_61, RING_XY

PRIMES = (2, 7, 101, 2147483647, PRIMES_2_61[0])


@st.composite
def matrices(draw, square=False, integer=False):
    """Matrices of rank at most a drawn r: products of an n x r and an r x m
    factor whose entries are zero half of the time, up to 10 x 10, square or
    rectangular either way, with some rows and columns then set to zero.
    Factor entries are small or up to 10^10 (products up to about 10^20),
    and rational ones have small or large denominators."""
    nrows = draw(st.integers(1, 10))
    ncols = nrows if square else draw(st.integers(1, 10))
    rank = draw(st.integers(0, min(nrows, ncols)))
    top = draw(st.sampled_from((4, 10**10)))
    if integer:
        value = st.integers(-top, top)
    else:
        value = st.fractions(min_value=-top, max_value=top,
                             max_denominator=draw(st.sampled_from((3, 10**6))))
    entry = st.one_of(st.just(0), value)
    left = [[draw(entry) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else
             sum((left[i][k] * right[k][j] for k in range(rank)), 0)
             for j in range(ncols)] for i in range(nrows)]


@given(mat=matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_determinant_matches_fraction_free(mat):
    _, _, det = reduce_rational(mat)
    poly = det_fraction_free([[RING_XY.constant(v) for v in row]
                              for row in mat])
    assert poly == RING_XY.constant(det)


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


# ---------------------------------------------------------------------------
# the fraction-free reduction against the Fraction Gauss-Jordan oracle
# ---------------------------------------------------------------------------

@given(mat=st.one_of(matrices(), matrices(integer=True)))
@settings(max_examples=300, deadline=None)
def test_reduce_rational_equals_the_fraction_oracle(mat):
    rows, pivots, det = reduce_rational(mat)
    assert (rows, pivots, det) == oracle.reduce_rational(mat)
    assert all(type(v) is Fraction for row in rows for v in row)
    assert det is None or type(det) is Fraction


@given(mat=st.one_of(matrices(), matrices(integer=True)))
@settings(max_examples=300, deadline=None)
def test_kernel_equals_the_fraction_oracle(mat):
    ncols = len(mat[0])
    basis = kernel(mat, ncols)
    assert basis == oracle.kernel(mat, ncols)
    assert all(type(v) is Fraction for vec in basis for v in vec)


# ---------------------------------------------------------------------------
# real point jets: the kernels the vanishing certificate reduces
# ---------------------------------------------------------------------------

#: The four Hamiltonians of the benchmark's vanishing workload (k = 3) and
#: two conic/line pencils f/g (k = 2), each with the first integral that
#: extract_first_integral returns: (numerator, denominator, rank).
POINT_JET_CASES = [
    ({(3, 0): 1, (0, 2): -1}, None, 3,
     ("-x^3 + y^2", "1", 9)),
    ({(2, 1): 1, (0, 3): 1, (1, 0): 1}, None, 3,
     ("x^2*y + y^3 + x", "1", 9)),
    ({(2, 0): 1, (0, 2): 1}, None, 3,
     ("x^2 + y^2", "1", 7)),
    ({(3, 0): 1, (1, 1): -2, (0, 2): 1, (1, 0): 1}, None, 3,
     ("x^3 - 2*x*y + y^2 + x", "1", 9)),
    ({(2, 0): 1, (1, 1): 3, (0, 2): -2, (1, 0): 1, (0, 0): -5},
     {(1, 0): 2, (0, 1): -1, (0, 0): 7}, 2,
     ("7/17*x^2 + 21/17*x*y - 14/17*y^2 + x - 5/17*y",
      "-2/17*x^2 - 6/17*x*y + 4/17*y^2 - 1/17*y + 1", 5)),
    ({(2, 0): -4, (0, 2): 9, (1, 0): 6, (0, 1): -1, (0, 0): 2},
     {(1, 0): 1, (0, 1): 3, (0, 0): -8}, 2,
     ("-16/25*x^2 + 36/25*y^2 + x - 1/25*y",
      "-2/25*x^2 + 9/50*y^2 - 19/50*y + 1", 5)),
]


@pytest.mark.parametrize("f,g,k,expected", POINT_JET_CASES)
def test_point_jet_kernels_and_first_integral(f, g, k, expected):
    """Each point jet's kernel equals the oracle's at six points, and the
    certificate built from such kernels returns the pinned first integral."""
    if g is None:
        field = hamiltonian(RING_XY.from_terms(f)).field
    else:
        field = pencil_field(RING_XY.from_terms(f),
                             RING_XY.from_terms(g)).field
    system = monomial_system(2, k, AFFINE, names=RING_XY.names)
    rng = Random(k)
    points = [[0, 0], [1, -1]] + [
        [rng.randint(-_PROBE_RANGE, _PROBE_RANGE) for _ in range(2)]
        for _ in range(4)]
    for point in points:
        transposed = list(zip(*_point_jet(field, system, point)))
        basis = kernel(transposed, system.dimension)
        assert basis  # E = 0: J is singular everywhere
        assert basis == oracle.kernel(transposed, system.dimension)
    fi = extract_first_integral(field, system)
    assert (str(fi.numerator), str(fi.denominator), fi.rank) == expected
