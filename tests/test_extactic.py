import itertools
import math
import sys
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from extatica.corpus import (hamiltonian, pencil_field, planted_lines_field,
                             random_field, slv, slv1_invariant_conic)
from extatica.extactic import (DimensionGuardError,
                               ExtacticNotZeroError, ExtractionFailedError,
                               LinearSystem, VacuousQueryError,
                               _point_jet,
                               det_fraction_free, det_modular,
                               divides_extactic, extactic,
                               extactic_degree_bound, extract_first_integral,
                               jet_matrix, monomial_system)
from extatica.foliation import (AFFINE, HOMOGENEOUS, DegenerateFieldError,
                                VectorField, apply_derivation)
from extatica.linalg import det_mod, kernel
from extatica import modular
from extatica.modular import (MAX_GRID_BYTES, _batch_inverse,
                              _grid_determinants, _grid_plan, _grid_values,
                              _interpolate, _inverse_blocks, _matmul_mod,
                              _newton_matrices, _prime_tables, _reduce,
                              det_bounds, drop_homogeneous, grid_bytes,
                              lower_set_size, term_table)
from extatica.polyring import (PRIMES_2_31, BadPrimeError, ContextError,
                               PolyRing, bareiss_determinant,
                               expansion_determinant, monomials_of_degree,
                               monomials_up_to_degree, proportional)
from conftest import RING_XY, RING_XYZ, evaluate, evaluate_mod, polynomials
from seeded_inputs import (random_homogeneous_field, random_polynomial,
                           random_polynomial_matrix)
import bareiss_oracle

X, Y = RING_XY.variables()


def weighted_field():
    return VectorField((X, Y.scale(2)), AFFINE)


class TestMonomialSystem:
    def test_affine_degree_one(self):
        v = monomial_system(2, 1, AFFINE)
        assert [str(b) for b in v.basis] == ["1", "x", "y"]
        assert v.dimension == 3

    def test_affine_dimension_count(self):
        assert monomial_system(2, 2, AFFINE).dimension == 6
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                assert monomial_system(n, k, AFFINE).dimension == \
                    math.comb(n + k, k)

    def test_homogeneous_basis_order(self):
        v = monomial_system(3, 2, HOMOGENEOUS)
        assert [str(b) for b in v.basis] == \
            ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]

    def test_homogeneous_dimension(self):
        # on n+1 variables the dimension is C(n+k, k)
        assert monomial_system(3, 2, HOMOGENEOUS).dimension == math.comb(4, 2)


class TestJetMatrix:
    def test_weighted_rows(self):
        jet = jet_matrix(weighted_field(), monomial_system(2, 1, AFFINE))
        one = RING_XY.one()
        zero = RING_XY.zero()
        assert jet.entries[0] == (one, zero, zero)
        assert jet.entries[1] == (X, X, X)
        assert jet.entries[2] == (Y, Y.scale(2), Y.scale(4))

    def test_radial_equal_columns(self):
        field = VectorField((X, Y), AFFINE)
        jet = jet_matrix(field, monomial_system(2, 1, AFFINE))
        col1 = tuple(row[1] for row in jet.entries)
        col2 = tuple(row[2] for row in jet.entries)
        assert col1 == col2

    def test_constant_row(self):
        jet = jet_matrix(weighted_field(), monomial_system(2, 2, AFFINE))
        row = jet.entries[0]
        assert row[0] == RING_XY.one()
        assert all(e.is_zero() for e in row[1:])

    def test_homogeneous_entry_degrees(self):
        field = slv(1).field
        system = monomial_system(3, 2, HOMOGENEOUS)
        jet = jet_matrix(field, system)
        for row in jet.entries:
            for j, entry in enumerate(row):
                if not entry.is_zero():
                    assert entry.is_homogeneous()
                    assert entry.degree() == 2 + j * (2 - 1)

    @pytest.mark.parametrize("build", [jet_matrix, extactic,
                                       extract_first_integral])
    def test_incompatible_pairs_are_refused(self, build):
        other_ring = monomial_system(2, 1, AFFINE, names=("u", "v"))
        with pytest.raises(ContextError, match="rings differ"):
            build(weighted_field(), other_ring)
        homogeneous = VectorField((X, Y.scale(2)), HOMOGENEOUS)
        with pytest.raises(ContextError, match="homogeneous linear system"):
            build(homogeneous, monomial_system(2, 1, AFFINE))


def _rational_polynomials(ring, exps, min_size=0):
    coeff = st.fractions(min_value=-9, max_value=9,
                         max_denominator=6).filter(bool)
    return st.dictionaries(st.sampled_from(exps), coeff, min_size=min_size,
                           max_size=3).map(ring.from_terms)


@st.composite
def point_jet_inputs(draw):
    """(field, system, integer point): 1-3 variables, affine or homogeneous,
    rational components (some zero) of degree <= 2, and a basis of 1-10
    random polynomials of degree <= k (== k when homogeneous)."""
    nv = draw(st.integers(1, 3))
    ring = PolyRing(("x", "y", "z")[:nv])
    mode = draw(st.sampled_from((AFFINE, HOMOGENEOUS)))
    k = draw(st.integers(1, 2))
    if mode == HOMOGENEOUS:
        d = draw(st.integers(0, 2))
        comp_exps = list(monomials_of_degree(nv, d))
        basis_exps = list(monomials_of_degree(nv, k))
    else:
        comp_exps = list(monomials_up_to_degree(nv, 2))
        basis_exps = list(monomials_up_to_degree(nv, k))
    comps = draw(st.lists(_rational_polynomials(ring, comp_exps),
                          min_size=nv, max_size=nv))
    m = draw(st.integers(1, 10))
    basis = draw(st.lists(_rational_polynomials(ring, basis_exps, 1),
                          min_size=m, max_size=m))
    point = draw(st.lists(st.integers(-20, 20), min_size=nv, max_size=nv))
    return (VectorField(tuple(comps), mode),
            LinearSystem(tuple(basis), k, mode), point)


@given(point_jet_inputs())
@settings(max_examples=100, deadline=None)
def test_point_jet_matches_the_symbolic_jet(case):
    field, system, point = case
    rows = jet_matrix(field, system).entries
    assert _point_jet(field, system, point) == [
        [evaluate(e, point) for e in r] for r in rows]
    event(f"m = {system.dimension}")


class TestExtactic:
    def test_radial_vanishes(self):
        rep = extactic(VectorField((X, Y), AFFINE),
                       monomial_system(2, 1, AFFINE))
        assert rep.identically_zero and rep.extactic.is_zero()

    def test_weighted_value(self):
        rep = extactic(weighted_field(), monomial_system(2, 1, AFFINE))
        assert rep.extactic == (X * Y).scale(2)
        assert rep.degree == 2 and rep.degree_bound == 3

    def test_slv_degree_two_system_nonzero(self):
        field = slv(1).field
        rep_ff = extactic(field, monomial_system(3, 2, HOMOGENEOUS),
                          engine="fraction-free")
        rep_mod = extactic(field, monomial_system(3, 2, HOMOGENEOUS),
                           engine="modular")
        assert not rep_ff.identically_zero
        assert rep_ff.extactic == rep_mod.extactic
        assert str(rep_ff.extactic) == str(rep_mod.extactic)

    def test_guard(self):
        field = weighted_field()
        with pytest.raises(DimensionGuardError):
            extactic(field, monomial_system(2, 6, AFFINE))
        rep = extactic(field, monomial_system(2, 6, AFFINE), max_dim=28,
                       engine="fraction-free")
        assert rep.dimension == 28
        # x d/dx + 2y d/dy has first integral x^2/y, so this one vanishes
        assert rep.identically_zero

    def test_bad_engine(self):
        with pytest.raises(ValueError):
            extactic(weighted_field(), monomial_system(2, 1, AFFINE),
                     engine="nope")


class TestDegreeBound:
    def test_linear_system_on_plane(self):
        for d in (1, 2, 3, 9):
            assert extactic_degree_bound(3, 1, d) == 3 * d

    def test_conic_system(self):
        assert extactic_degree_bound(6, 2, 2) == 27

    def test_one_section(self):
        for k in (1, 2, 5):
            assert extactic_degree_bound(1, k, 3) == k


class TestDividesExtactic:
    def test_coordinate_factor(self):
        rep = extactic(weighted_field(), monomial_system(2, 1, AFFINE))
        assert divides_extactic(X, rep)
        assert not divides_extactic(X + Y, rep)

    def test_slv_conic_divides(self):
        conic, _ = slv1_invariant_conic()
        rep = extactic(slv(1).field, monomial_system(3, 2, HOMOGENEOUS))
        assert divides_extactic(conic, rep)

    def test_vacuous_query(self):
        rep = extactic(VectorField((X, Y), AFFINE),
                       monomial_system(2, 1, AFFINE))
        with pytest.raises(VacuousQueryError):
            divides_extactic(X, rep)

    def test_constant_rejected(self):
        rep = extactic(weighted_field(), monomial_system(2, 1, AFFINE))
        with pytest.raises(ValueError):
            divides_extactic(RING_XY.constant(2), rep)


class TestDetFractionFree:
    def test_identity(self):
        one, zero = RING_XY.one(), RING_XY.zero()
        m = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
        assert det_fraction_free(m) == one

    def test_two_by_two(self):
        m = [[X, Y], [RING_XY.one(), RING_XY.one()]]
        assert det_fraction_free(m) == X - Y

    def test_jet_example(self):
        jet = jet_matrix(weighted_field(), monomial_system(2, 1, AFFINE))
        assert det_fraction_free(jet.entries) == (X * Y).scale(2)

    def test_zero_column(self):
        zero = RING_XY.zero()
        m = [[X, zero], [Y, zero]]
        assert det_fraction_free(m).is_zero()


@st.composite
def polynomial_matrices(draw):
    """Square matrices (m <= 6, on both sides of the expansion cutoff) over
    0-3 variables with rational entries, about one in four of them zero and
    one in four a constant, so pivots vanish, rows swap, unit rows and
    columns expand away and structural zeros occur."""
    ring = PolyRing(("x", "y", "z")[:draw(st.integers(0, 3))])
    m = draw(st.sampled_from((1, 2, 3, 4, 5, 6)))
    scalar = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                       st.integers(1, 6))
    entries = [st.just(ring.zero()), scalar.map(ring.constant)]
    if ring.nvars:
        entries += [st.tuples(polynomials(ring, max_degree=2, max_terms=3),
                              scalar).map(lambda t: t[0].scale(t[1]))] * 2
    entry = st.one_of(entries)
    return [[draw(entry) for _ in range(m)] for _ in range(m)]


def _both_kernels(rows):
    """The expansion in minors and Bareiss on the same matrix (m >= 2),
    each on its own copy of the rows."""
    ring = rows[0][0].ring
    return (expansion_determinant([list(r) for r in rows], ring),
            bareiss_determinant([list(r) for r in rows], ring))


_ONE, _ZERO = RING_XY.one(), RING_XY.zero()


@given(rows=polynomial_matrices())
@example(rows=[[_ZERO, X], [Y, _ONE]])               # zero pivot: a swap
@example(rows=[[X, Y, _ONE], [X, Y, X], [_ONE, _ONE, Y]])  # a later swap
@example(rows=[[X, X], [Y, Y]])                      # singular
@example(rows=[[X, _ZERO, Y], [Y, _ZERO, X], [_ONE, X, X]])  # zero column
# Bareiss's first step cancels entry (1, 1) to zero, term by term
@example(rows=[[X, Y, _ONE, X, Y], [X, Y, X, _ONE, X], [Y, X, Y, X, _ONE],
               [_ONE, X, X, Y, Y], [Y, _ONE, Y, _ONE, X]])
@settings(max_examples=80, deadline=None)
def test_det_fraction_free_matches_oracle_and_modular(rows):
    """`det_fraction_free` expands minors of up to 4 rows in minors and
    runs Bareiss beyond; both kernels agree with the Fraction oracle and
    the modular engine at every size."""
    det = det_fraction_free(rows)
    event(f"m = {len(rows)}, {'zero' if det.is_zero() else 'nonzero'}")
    assert det == bareiss_oracle.det_fraction_free(rows)
    assert det == det_modular(rows)
    if len(rows) >= 2:
        assert _both_kernels(rows) == (det, det)


@pytest.mark.parametrize("nvars, degree, k, mode, seed", [
    (2, 3, 1, AFFINE, 1), (2, 2, 2, AFFINE, 2), (3, 2, 1, AFFINE, 3),
    (3, 2, 1, HOMOGENEOUS, 4), (4, 1, 1, HOMOGENEOUS, 5)])
def test_both_kernels_on_jets_of_random_fields(nvars, degree, k, mode, seed):
    field = (random_field(nvars, degree, seed) if mode == AFFINE
             else random_homogeneous_field(nvars, degree, seed))
    rows = jet_matrix(field, monomial_system(nvars, k, mode)).entries
    det = det_fraction_free(rows)
    assert not det.is_zero()
    assert det == det_modular(rows)
    assert det == bareiss_oracle.det_fraction_free(rows)
    assert _both_kernels(rows) == (det, det)


@st.composite
def lower_set_matrices(draw):
    """Square matrices (m <= 4) over x, y, z whose determinant bounds have
    D < b_x + b_y + b_z, so the lower set is smaller than the box, and
    that are not column-homogeneous, so they keep all three variables."""
    m = draw(st.integers(2, 4))
    entry = st.one_of(st.just(RING_XYZ.zero()), polynomials(
        RING_XYZ, max_degree=2, max_terms=3, nonzero=True))
    rows = [[draw(entry) for _ in range(m)] for _ in range(m)]
    table = term_table(rows, 3)
    var_bounds, total_bound, _ = det_bounds(table)
    assume(total_bound < sum(var_bounds))
    assume(not drop_homogeneous(table)[1])
    return rows


class TestDetModular:
    def test_matches_fraction_free_on_named_examples(self):
        one, zero = RING_XY.one(), RING_XY.zero()
        cases = [
            [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
            [[X, Y], [one, one]],
            list(map(list, jet_matrix(weighted_field(),
                                      monomial_system(2, 1, AFFINE)).entries)),
        ]
        for m in cases:
            assert det_modular(m) == det_fraction_free(m)

    def test_random_four_by_four(self):
        for seed in range(5):
            m = random_polynomial_matrix(4, 2, 2, 4000 + seed)
            assert det_modular(m) == det_fraction_free(m)

    def test_zero_column(self):
        zero = RING_XY.zero()
        m = [[X, zero], [Y, zero]]
        assert det_modular(m).is_zero()

    def test_rational_coefficients(self):
        m = random_polynomial_matrix(3, 2, 2, 99)
        m[0][0] = m[0][0].scale(Fraction(3, 7))
        m[1][2] = m[1][2].scale(Fraction(-5, 6))
        assert det_modular(m) == det_fraction_free(m)

    def test_three_variables(self):
        m = random_polynomial_matrix(3, 3, 2, 123)
        assert det_modular(m) == det_fraction_free(m)

    def test_jobs_bit_identical(self):
        m = random_polynomial_matrix(5, 2, 3, 777)
        # coefficients near 10^12 need eight primes, so every thread's
        # stripe of primes reuses its value tensor
        wide = [[e.scale(10**12 + 7 * i + j) for j, e in enumerate(r)]
                for i, r in enumerate(m)]
        for matrix in (m, wide):
            a = det_modular(matrix, jobs=1)
            for jobs in (2, 4):
                b = det_modular(matrix, jobs=jobs)
                assert a == b and str(a) == str(b)

    def test_denominator_equal_to_the_first_table_prime(self):
        from extatica.polyring import PRIMES_2_31
        m = random_polynomial_matrix(3, 2, 2, 555)
        # a denominator equal to the first table prime: the columns are
        # scaled to integers before any prime is used, so it is used too
        m[0][0] = m[0][0] + RING_XY.constant(Fraction(1, PRIMES_2_31[0]))
        assert det_modular(m) == det_fraction_free(m)

    @given(rows=lower_set_matrices())
    @settings(max_examples=40, deadline=None)
    def test_lower_set_matches_fraction_free(self, rows):
        assert det_modular(rows) == det_fraction_free(rows)

    @given(rows=lower_set_matrices(), at=st.data())
    @settings(max_examples=20, deadline=None)
    def test_lower_set_with_a_coefficient_beyond_int64(self, rows, at):
        # a scaled entry above 2^63 keeps the coefficients in object arrays
        cells = [(i, j) for i, r in enumerate(rows) for j, e in enumerate(r)
                 if e.terms]
        assume(cells)
        i, j = at.draw(st.sampled_from(cells))
        rows[i][j] = rows[i][j].scale(2**64 + 13)
        assert det_modular(rows) == det_fraction_free(rows)

    def test_scaled_columns_need_four_primes_for_slv4(self, monkeypatch):
        # each column scaled by the lcm of its own denominators: the height
        # bound of slv:4 at k=2 is 109 bits (4 primes); counting the
        # common denominator twice asked 280 bits (10 primes)
        modular = sys.modules["extatica.modular"]
        seen = []
        images = modular.prime_images

        def spy(rows, bounds, degree, primes, jobs=1):
            seen.append(len(primes))
            return images(rows, bounds, degree, primes, jobs)

        monkeypatch.setattr(modular, "prime_images", spy)
        jet = jet_matrix(slv(4).field, monomial_system(3, 2, HOMOGENEOUS))
        det = det_modular(jet.entries)
        assert seen == [4]
        assert det == det_fraction_free(jet.entries)

    def test_prime_table_exhaustion_is_fatal(self):
        # coefficients near 2^800 give a height bound of 1,603 bits, more
        # than the table's 48 primes cover (1,488 bits)
        c = 2 ** 800 + 1
        one = RING_XY.constant(1)
        m = [[X.scale(c) + one, RING_XY.constant(c)],
             [RING_XY.constant(c), Y.scale(c) + one]]
        with pytest.raises(BadPrimeError, match="1603 bits"):
            det_modular(m)


P31 = PRIMES_2_31[0]


def _planted_point(rng, m, kind, k, small, p):
    """One m x m matrix mod p of the given kind."""
    high = 3 if small else p
    mat = rng.integers(0, high, size=(m, m), dtype=np.int64)
    if kind == "permuted":
        # rows of an upper-triangular matrix in random order: elimination
        # needs a swap wherever the order moved a pivot row down
        mat = np.triu(mat)
        mat[np.arange(m), np.arange(m)] = rng.integers(1, high, size=m)
        mat = mat[rng.permutation(m)]
    elif kind == "zero_column":
        mat[:, k] = 0
    elif kind == "top":
        # the first division-free row update multiplies p - 1 by p - 1
        # everywhere, the largest int64 product it can form
        mat[:] = p - 1
    elif kind == "singular" and m > 1:
        # row k is a combination of the others
        coef = rng.integers(0, high, size=m)
        coef[k] = 0
        mat[k] = [sum(int(c) * int(v) for c, v in zip(coef, col)) % p
                  for col in mat.T]
    return mat


def _grid_of(m, kinds, seed, small, p=P31):
    rng = np.random.default_rng(seed)
    return np.stack([_planted_point(rng, m, kind, k % m, small, p)
                     for kind, k in kinds], axis=-1)


_KINDS = st.tuples(st.sampled_from(["random", "permuted", "zero_column",
                                    "singular", "top"]), st.integers(0, 9))
#: the smallest and the largest prime of the table
_END_PRIMES = (min(PRIMES_2_31), max(PRIMES_2_31))


def _plan_of(rows, bounds, degree):
    """`_grid_plan` of the integer matrix `rows`."""
    return _grid_plan(term_table(rows, rows[0][0].ring.nvars), bounds,
                      degree)


def _grid_values_of(plan, p):
    """`_grid_values` into a fresh value tensor."""
    m = plan.shape[0]
    vander, _, _ = _prime_tables(plan, [p])[0]
    return _grid_values(plan, p, vander,
                        np.empty((m, m, len(plan.exponents)), dtype=np.int64))


def _interpolate_of(plan, values, p):
    """`_interpolate` with p's tables."""
    _, lower, newton = _prime_tables(plan, [p])[0]
    return _interpolate(plan, values, p, lower, newton)


class TestModularKernels:
    @given(m=st.integers(1, 10), kinds=st.lists(_KINDS, min_size=1,
                                                max_size=8),
           seed=st.integers(0, 2**32), small=st.booleans(),
           p=st.sampled_from(_END_PRIMES))
    @settings(max_examples=200, deadline=None)
    def test_grid_determinants_match_det_mod(self, m, kinds, seed, small, p):
        values = _grid_of(m, kinds, seed, small, p)
        expected = [det_mod(values[:, :, t].tolist(), p)
                    for t in range(values.shape[2])]
        assert _grid_determinants(values.copy(), p).tolist() == expected

    @pytest.mark.parametrize("p", _END_PRIMES)
    def test_grid_determinants_at_the_top_of_the_range(self, p):
        # all entries p - 1 (rank one), and p - 1 on and above the diagonal
        # with rows permuted, whose determinant is a power of -1
        m = 10
        top = np.full((m, m), p - 1, dtype=np.int64)
        upper = np.triu(top)[np.random.default_rng(m).permutation(m)]
        values = np.stack([top, upper, top.T, upper.T], axis=-1)
        expected = [det_mod(values[:, :, t].tolist(), p) for t in range(4)]
        assert expected[0] == expected[2] == 0 and expected[1] != 0
        assert _grid_determinants(values.copy(), p).tolist() == expected

    @given(x=st.lists(st.integers(-(2**62) + 1, 2**62 - 1), min_size=1,
                      max_size=40),
           p=st.sampled_from(PRIMES_2_31))
    @settings(max_examples=150, deadline=None)
    def test_reduce_matches_remainder(self, x, p):
        x = np.array(x, dtype=np.int64)
        expected = np.remainder(x, p)
        scratch = np.empty_like(x)
        assert (_reduce(x, p, scratch) == expected).all()
        assert (x == expected).all()  # in place

    def test_one_batch_inversion_per_grid(self, monkeypatch):
        calls = []

        def spy(a, p):
            calls.append(a.size)
            return _batch_inverse(a, p)

        monkeypatch.setattr(modular, "_batch_inverse", spy)
        values = _grid_of(8, [("random", t) for t in range(30)]
                          + [("permuted", t) for t in range(30)], 3,
                          small=False)
        expected = [det_mod(values[:, :, t].tolist(), P31)
                    for t in range(values.shape[2])]
        assert _grid_determinants(values.copy(), P31).tolist() == expected
        assert calls == [60]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_all_singular_grid(self, m):
        # every point rank deficient, as on a vanishing extactic
        kinds = [("singular", t) for t in range(12)] if m > 1 else \
            [("zero_column", 0)] * 12
        values = _grid_of(m, kinds, 17 + m, small=False)
        assert not _grid_determinants(values.copy(), P31).any()
        assert all(det_mod(values[:, :, t].tolist(), P31) == 0
                   for t in range(12))

    def test_grid_determinants_keep_grid_shape(self):
        kinds = [("permuted", t) for t in range(12)]
        values = _grid_of(4, kinds, 5, small=True).reshape(4, 4, 3, 4)
        expected = [[det_mod(values[:, :, a, b].tolist(), P31)
                     for b in range(4)] for a in range(3)]
        assert _grid_determinants(values.copy(), P31).tolist() == expected

    @given(data=st.data(), nvars=st.integers(1, 3), m=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_grid_values_match_evaluate_mod(self, data, nvars, m):
        # integer matrices, as det_modular passes after scaling its columns
        ring = PolyRing(("x", "y", "z")[:nvars])
        exps = list(monomials_up_to_degree(nvars, 3))
        coeff = st.integers(-50, 50)
        entry = st.one_of(
            st.just(ring.zero()),
            coeff.map(ring.constant),
            st.dictionaries(st.sampled_from(exps), coeff, max_size=5).map(
                ring.from_terms))
        rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                  min_size=m, max_size=m))
        bounds = data.draw(st.lists(st.integers(0, 4), min_size=nvars,
                                    max_size=nvars))
        degree = data.draw(st.integers(max(bounds), sum(bounds)))
        plan = _plan_of(rows, bounds, degree)
        assert sorted(map(tuple, plan.exponents.tolist())) == [
            e for e in itertools.product(*(range(b + 1) for b in bounds))
            if sum(e) <= degree]
        values = _grid_values_of(plan, P31)
        for t, e in enumerate(plan.exponents.tolist()):
            point = [k + 1 for k in e]
            for i in range(m):
                for j in range(m):
                    assert values[i, j, t] == \
                        evaluate_mod(rows[i][j], point, P31)

    def test_matmul_mod_at_the_top_of_the_range(self):
        inner = 700
        a = np.full((3, inner), P31 - 1, dtype=np.int64)
        v = np.full((inner, 4), P31 - 1, dtype=np.int64)
        expected = inner * (P31 - 1) ** 2 % P31
        assert (_matmul_mod(a, v, P31) == expected).all()
        rng = np.random.default_rng(3)
        a = rng.integers(0, P31, size=(2, inner), dtype=np.int64)
        v = rng.integers(0, P31, size=(inner, 3), dtype=np.int64)
        got = _matmul_mod(a, v, P31)
        for i in range(2):
            for j in range(3):
                assert got[i, j] == sum(int(a[i, t]) * int(v[t, j])
                                        for t in range(inner)) % P31

    def test_grid_values_with_coefficients_beyond_int64(self):
        x, y = RING_XY.variables()
        wide = 2**70 + 1
        rows = [[x.scale(wide) + y, RING_XY.constant(-wide)],
                [y ** 3, x * y.scale(-(2**64) - 7)]]
        plan = _plan_of(rows, (3, 4), 4)
        values = _grid_values_of(plan, P31)
        for t, (a, b) in enumerate(plan.exponents.tolist()):
            assert values[:, :, t].tolist() == [
                [evaluate_mod(e, [a + 1, b + 1], P31) for e in r]
                for r in rows]

    @given(n=st.integers(1, 3000), seed=st.integers(0, 2**32),
           fill=st.sampled_from(["random", "with_zeros", "zeros", "top"]))
    @settings(max_examples=150, deadline=None)
    def test_batch_inverse_matches_pow(self, n, seed, fill):
        blocks = _inverse_blocks(n)
        assume(blocks == 1 or n % blocks)  # the last block row is padded
        rng = np.random.default_rng(seed)
        a = {"random": lambda: rng.integers(1, P31, n),
             "with_zeros": lambda: rng.integers(0, P31, n)
             * (rng.random(n) < 0.75),
             "zeros": lambda: np.zeros(n, dtype=np.int64),
             "top": lambda: np.full(n, P31 - 1, dtype=np.int64)}[fill]()
        before = a.copy()
        got = _batch_inverse(a, P31)
        assert got.tolist() == [pow(t, -1, P31) if t else 0
                                for t in a.tolist()]
        assert (a == before).all()

    @pytest.mark.parametrize("inner", [63, 64, 65, 128])
    @pytest.mark.parametrize("fill", ["top", "random", "odd_low_halves"])
    def test_matmul_mod_at_the_chunk_edges(self, inner, fill):
        rng = np.random.default_rng(inner)
        if fill == "top":
            a = np.full((3, inner), P31 - 1, dtype=np.int64)
            v = np.full((inner, 4), P31 - 1, dtype=np.int64)
        elif fill == "random":
            a = rng.integers(0, P31, size=(3, inner), dtype=np.int64)
            v = rng.integers(0, P31, size=(inner, 4), dtype=np.int64)
        else:
            # low halves 0xFFFF against the odd p - 2: 64 such products sum
            # to just below 2^53, 65 to an odd value above it, which float64
            # cannot hold
            a = np.full((3, inner), 0x7FFEFFFF, dtype=np.int64)
            v = np.full((inner, 4), P31 - 2, dtype=np.int64)
        got = _matmul_mod(a, v, P31)
        assert got.tolist() == [[sum(int(a[i, t]) * int(v[t, j])
                                     for t in range(inner)) % P31
                                 for j in range(4)] for i in range(3)]
        assert (_matmul_mod(a, v.astype(np.float64), P31) == got).all()

    def test_matmul_mod_refuses_a_long_inner_dimension(self):
        a = np.zeros((1, 1 << 15), dtype=np.int64)
        v = np.zeros((1 << 15, 1), dtype=np.int64)
        with pytest.raises(DimensionGuardError):
            _matmul_mod(a, v, P31)

    @pytest.mark.parametrize("inner", [13, 32, 33, 64, 65])
    @pytest.mark.parametrize("p", _END_PRIMES)
    def test_matmul_mod_with_every_entry_at_the_top(self, inner, p):
        # the concatenated halves [high | low] fill whole and split chunks
        a = np.full((5, inner), p - 1, dtype=np.int64)
        v = np.full((inner, 3), p - 1, dtype=np.int64)
        expected = inner * (p - 1) ** 2 % p
        got = _matmul_mod(a, v, p)
        assert got.tolist() == [[expected] * 3] * 5
        assert (_matmul_mod(a, v.astype(np.float64), p) == got).all()

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 300, 2211, 10**4])
    @pytest.mark.parametrize("p", _END_PRIMES)
    def test_batch_inverse_at_block_edges(self, n, p):
        rng = np.random.default_rng(n)
        a = rng.integers(0, p, n) * (rng.random(n) < 0.8)
        a[0] = 0
        a[-1] = p - 1 if n > 1 else 0
        got = _batch_inverse(a.copy(), p)
        assert got.tolist() == [pow(t, -1, p) if t else 0
                                for t in a.tolist()]

    @pytest.mark.parametrize("count", range(1, len(PRIMES_2_31) + 1))
    def test_chinese_remainder_matches_the_fixed_basis(self, count):
        primes = list(PRIMES_2_31[:count])
        prod = math.prod(primes)
        half = prod // 2
        rng = Random(count)
        values = [0, 1, -1, half, -half, half - 1, -(half - 1)] + [
            rng.randrange(-half, half + 1) for _ in range(40)]
        residues = np.array([[v % p for v in values] for p in primes],
                            dtype=np.int64)
        # the fixed basis: basis_i is 1 mod p_i and 0 mod the others
        basis = [prod // p * pow(prod // p, -1, p) for p in primes]
        expected = []
        for rs in zip(*residues.tolist()):
            r = sum(a * b for a, b in zip(rs, basis)) % prod
            expected.append(r - prod if r > half else r)
        assert expected == values
        assert modular.chinese_remainder(residues, primes) == values
        # the residues of prod // 2 + 1 stand for -(prod // 2)
        top = np.array([[(half + 1) % p] for p in primes], dtype=np.int64)
        assert modular.chinese_remainder(top, primes) == [-half]
        digits = modular._garner_digits(residues, primes)
        assert ((digits >= 0) & (digits < np.array(primes)[:, None])).all()

    @pytest.mark.parametrize("size", [1, 2, 24, 66])
    def test_stacked_tables_match_each_prime(self, size):
        primes = [PRIMES_2_31[0], PRIMES_2_31[5], PRIMES_2_31[-1]]
        lower, newton = _newton_matrices(size, primes)
        vander = modular._vandermonde(size + 3, size, primes)
        assert lower.shape == newton.shape == (3, size, size)
        assert vander.shape == (3, size + 3, size)
        for k, p in enumerate(primes):
            (one_lower,), (one_newton,) = _newton_matrices(size, [p])
            assert (lower[k] == one_lower).all()
            assert (newton[k] == one_newton).all()
            assert vander[k].tolist() == [[pow(t, d, p)
                                           for t in range(1, size + 1)]
                                          for d in range(size + 3)]
            fact = [math.factorial(i) for i in range(size)]
            assert lower[k].tolist() == [
                [(-1) ** (a - i) * pow(fact[i] * fact[a - i], -1, p) % p
                 if i <= a else 0 for a in range(size)] for i in range(size)]
            poly = [1]  # (x - 1)...(x - a), low degree first
            for a in range(size):
                assert newton[k, a].tolist() == [
                    c % p for c in poly] + [0] * (size - a - 1)
                poly = [0] + poly
                for i in range(len(poly) - 1):
                    poly[i] -= (a + 1) * poly[i + 1]

    @staticmethod
    def _vandermonde(size, p):
        """size x size Vandermonde mod p on the nodes 1..size, entry (d, t)
        = (t + 1)^d, by Python integers."""
        return np.array([[pow(x, d, p) for x in range(1, size + 1)]
                         for d in range(size)], dtype=np.int64)

    @staticmethod
    def _lower_set_matrix(coefficients):
        """A 1 x 1 matrix whose entry has the given {exponents: residue}
        coefficients."""
        nvars = len(next(iter(coefficients)))
        ring = PolyRing(("x", "y", "z")[:nvars])
        return [[ring.from_terms(coefficients)]]

    @given(size=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_interpolation_matrix_inverts_vandermonde(self, size):
        # values -> Newton coefficients -> monomial coefficients
        (lower,), (newton,) = _newton_matrices(size, [P31])
        assert lower.shape == newton.shape == (size, size)
        product = _matmul_mod(_matmul_mod(self._vandermonde(size, P31),
                                          lower, P31), newton, P31)
        assert (product == np.eye(size, dtype=np.int64)).all()

    @given(data=st.data(), nvars=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_then_interpolate_round_trip(self, data, nvars):
        # random residues on a random lower set, evaluated there and
        # Newton-interpolated back
        bounds = data.draw(st.lists(st.integers(0, 7), min_size=nvars,
                                    max_size=nvars))
        degree = data.draw(st.integers(max(bounds), sum(bounds)))
        lower_set = [e for e in itertools.product(
            *(range(b + 1) for b in bounds)) if sum(e) <= degree]
        residues = data.draw(st.lists(
            st.one_of(st.integers(0, P31 - 1), st.just(P31 - 1),
                      st.just(0)),
            min_size=len(lower_set), max_size=len(lower_set)))
        coefficients = dict(zip(lower_set, residues))
        assume(any(residues))
        plan = _plan_of(self._lower_set_matrix(coefficients), bounds,
                        degree)
        values = _grid_values_of(plan, P31)[0, 0]
        back = _interpolate_of(plan, values, P31)
        assert back.tolist() == [coefficients[e] for e in
                                 map(tuple, plan.exponents.tolist())]

    def test_interpolation_at_the_top_of_the_range(self):
        size = 300
        one_axis = _plan_of(self._lower_set_matrix({(size - 1,): 1}),
                            (size - 1,), size - 1)
        assert one_axis.exponents[:, 0].tolist() == list(range(size))
        # every value p - 1 = -1 interpolates to the constant -1
        values = np.full(size, P31 - 1, dtype=np.int64)
        expected = np.zeros(size, dtype=np.int64)
        expected[0] = P31 - 1
        assert (_interpolate_of(one_axis, values, P31) == expected).all()
        # coefficients near p - 1, against the Vandermonde
        rng = np.random.default_rng(11)
        coeffs = rng.integers(P31 - 3, P31, size=size)
        values = _matmul_mod(coeffs, self._vandermonde(size, P31), P31)
        assert (_interpolate_of(one_axis, values, P31) == coeffs).all()

    def test_grid_memory_guard_counts_the_newton_matrices(self):
        # a 2 x 2 value tensor on 9001 nodes is small, but the Vandermonde
        # and Newton matrices on those nodes need about 1.9 GB
        x = PolyRing(("x",)).variables()[0]
        one = x.ring.one()
        with pytest.raises(DimensionGuardError, match="bytes"):
            det_modular([[x ** 4500, one], [one, x ** 4500]])

    def test_grid_memory_guard_counts_the_lower_set(self):
        # b = (2a, 2a) but D = 2a: 2 x 2 values, 2 elimination scratch
        # values, 5 plan indices and the residue of the one prime live on
        # each of the (2a+1)(2a+2)/2 points of total degree <= 2a, plus the
        # entries contracted along x (a + 1 coefficients in y at 2a + 1
        # nodes), plus two float64 and three int32 square matrices of side
        # 2a + 1
        a = 3000
        x, y = RING_XY.variables()
        entry, one = x ** a + y ** a, RING_XY.one()
        points = sum(2 * a - e + 1 for e in range(2 * a + 1))
        assert points == (2 * a + 1) * (2 * a + 2) // 2
        expected = 8 * ((4 + 2 + 5 + 1) * points + 4 * (a + 1) * (2 * a + 1)
                        + 2 * (2 * a + 1) ** 2) + 4 * 3 * (2 * a + 1) ** 2
        with pytest.raises(DimensionGuardError,
                           match=f"need {expected} bytes"):
            det_modular([[entry, one], [one, entry]])

    def test_grid_memory_guard_counts_each_worker(self, monkeypatch):
        # coefficients near 2^40 need three primes, so jobs=2 runs two
        # threads, each with its own value tensor and scratch; the plan,
        # the residues and the tables of the three primes are shared
        x, y = RING_XY.variables()
        big = RING_XY.constant(2 ** 40 + 1)
        rows = [[x ** 3 + y.scale(2 ** 40), big], [big, x * y ** 2 + x]]
        table = term_table(rows, 2)
        bounds, degree, _ = det_bounds(table)
        one = grid_bytes(table, bounds, degree, 1, 3)
        two = grid_bytes(table, bounds, degree, 2, 3)
        size = max(b + 1 for b in bounds + table.maxima)
        points = lower_set_size(bounds, degree)
        shared = 8 * (5 + 3) * points + 4 * 3 * 3 * size * size
        assert two - shared == 2 * (one - shared)
        monkeypatch.setattr(modular, "MAX_GRID_BYTES", one)
        assert det_modular(rows, jobs=1) == det_fraction_free(rows)
        # the second thread does not fit: jobs=2 runs one
        assert det_modular(rows, jobs=2) == det_fraction_free(rows)
        monkeypatch.setattr(modular, "MAX_GRID_BYTES", one - 1)
        for jobs in (1, 2):
            with pytest.raises(DimensionGuardError,
                               match=f"need {one} bytes"):
                det_modular(rows, jobs=jobs)

    def test_jobs_never_change_the_answer_under_the_guard(self,
                                                          monkeypatch):
        # the slv:1 jet at k = 2 needs 173,120 grid bytes on one thread
        # and 313,920 on two: with the guard between, every jobs value
        # gets the one-thread determinant
        field = slv(1).field
        rows = jet_matrix(field, monomial_system(3, 2, HOMOGENEOUS)).entries
        expected = det_modular(rows, jobs=1)
        monkeypatch.setattr(modular, "MAX_GRID_BYTES", 200_000)
        for jobs in (1, 2, 4):
            assert det_modular(rows, jobs=jobs) == expected
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            det_modular(rows, jobs=0)

    def test_grid_memory_guard_speaks_before_the_prime_table(self):
        # constants near 2^800 exhaust the prime table (1,603 bits), and
        # x^4500 needs about 1.9 GB of Newton matrices: bytes are reported
        x = PolyRing(("x",)).variables()[0]
        const = x.ring.constant(2 ** 800 + 1)
        with pytest.raises(DimensionGuardError, match="bytes"):
            det_modular([[x ** 4500, const], [const, x ** 4500]])

    def test_grid_memory_guard(self):
        x, y, z = RING_XYZ.variables()
        high = (x * y * z) ** 200
        one = RING_XYZ.one()
        # a 401^3 grid of 2 x 2 int64 values is about 2 GB
        with pytest.raises(DimensionGuardError, match="bytes") as info:
            det_modular([[high, one], [one, high]])
        assert str(MAX_GRID_BYTES) in str(info.value)


class TestExtractFirstIntegral:
    def test_radial_moebius_of_y_over_x(self):
        field = VectorField((X, Y), AFFINE)
        fi = extract_first_integral(field, monomial_system(2, 1, AFFINE))
        assert fi.rank == 2
        # A and B are linear in span{x, y} and non-proportional: A/B is a
        # Moebius transformation of y/x
        for p in (fi.numerator, fi.denominator):
            assert p.degree() == 1
            assert all(sum(e) == 1 for e in p.terms)
        ident = apply_derivation(field, fi.numerator) * fi.denominator - \
            fi.numerator * apply_derivation(field, fi.denominator)
        assert ident.is_zero()

    def test_hamiltonian_functional_dependence(self):
        h = X**2 + Y**2
        entry = hamiltonian(h)
        fi = extract_first_integral(entry.field, monomial_system(2, 2, AFFINE))
        a, b = fi.numerator, fi.denominator
        ident = apply_derivation(entry.field, a) * b - \
            a * apply_derivation(entry.field, b)
        assert ident.is_zero()
        # 2x2 Jacobian of (h, a/b) vanishes after clearing b^2
        jac = h.partial_derivative(0) * (a.partial_derivative(1) * b -
                                         a * b.partial_derivative(1)) - \
            h.partial_derivative(1) * (a.partial_derivative(0) * b -
                                       a * b.partial_derivative(0))
        assert jac.is_zero()

    def test_refuses_nonzero_extactic(self):
        with pytest.raises(ExtacticNotZeroError):
            extract_first_integral(weighted_field(),
                                   monomial_system(2, 1, AFFINE))

    def test_pencil_positive_control(self):
        f, g = X**2 + 1, Y
        entry = pencil_field(f, g)
        system = monomial_system(2, 2, AFFINE)
        assert extactic(entry.field, system).identically_zero
        fi = extract_first_integral(entry.field, system)
        a, b = fi.numerator, fi.denominator
        ident = apply_derivation(entry.field, a) * b - \
            a * apply_derivation(entry.field, b)
        assert ident.is_zero()
        # the recovered integral is functionally dependent on the planted
        # ratio f/g: the Jacobian of (f/g, A/B) vanishes after clearing
        # denominators
        jac = (f.partial_derivative(0) * g - f * g.partial_derivative(0)) * \
            (a.partial_derivative(1) * b - a * b.partial_derivative(1)) - \
            (f.partial_derivative(1) * g - f * g.partial_derivative(1)) * \
            (a.partial_derivative(0) * b - a * b.partial_derivative(0))
        assert jac.is_zero()


# the module; the package attribute `extatica.extactic` is the function of
# the same name
EXT = sys.modules["extatica.extactic"]


def _cross_identity(field, a, b):
    return (apply_derivation(field, a) * b ==
            a * apply_derivation(field, b))


def _probes_on(monkeypatch, lines):
    """Put the decision's first probe points, in turn, on the coordinate
    lines `lines` (0 for x = 0, 1 for y = 0) and draw the rest freely.
    Returns the list of the points drawn."""
    order = iter(lines)
    drawn = []

    def on_line(rng, nvars):
        point = [rng.randint(-EXT._PROBE_RANGE, EXT._PROBE_RANGE)
                 for _ in range(nvars)]
        line = next(order, None)
        if line is not None:
            point[line] = 0
        drawn.append(point)
        return point

    monkeypatch.setattr(EXT, "_probe_point", on_line)
    return drawn


def _spy(monkeypatch, name):
    """Record the results, or the exceptions raised, of the module function
    `name`."""
    results = []
    original = getattr(EXT, name)

    def spy(*args):
        try:
            results.append(original(*args))
        except Exception as exc:
            results.append(exc)
            raise
        return results[-1]

    monkeypatch.setattr(EXT, name, spy)
    return results


class TestVanishingDecision:
    @pytest.mark.parametrize("decide", [extactic, extract_first_integral])
    def test_zero_field_is_refused_before_the_certificate(self, decide,
                                                          monkeypatch):
        probed = _spy(monkeypatch, "_certify_vanishing")
        zero = RING_XY.zero()
        with pytest.raises(DegenerateFieldError, match="zero field"):
            decide(VectorField((zero, zero), AFFINE),
                   monomial_system(2, 1, AFFINE))
        assert probed == []

    def test_certificate_has_degree_at_most_k(self):
        h = X**3 - (X * Y).scale(2) + Y**2 + X
        field = hamiltonian(h).field
        fi = extract_first_integral(field, monomial_system(2, 3, AFFINE))
        assert (str(fi.numerator), str(fi.denominator)) == (str(h), "1")
        assert fi.rank == 9

    def test_pair_does_not_depend_on_the_seed(self, monkeypatch):
        # probe points drawn from four seeds in place of Random(0)
        field = pencil_field(X**2 + 1, Y).field
        system = monomial_system(2, 2, AFFINE)
        pairs, first_points = set(), set()
        for seed in range(4):
            rng = Random(seed)
            drawn = []

            def probe(_, nvars):
                drawn.append(tuple(
                    rng.randint(-EXT._PROBE_RANGE, EXT._PROBE_RANGE)
                    for _ in range(nvars)))
                return list(drawn[-1])

            monkeypatch.setattr(EXT, "_probe_point", probe)
            EXT._decision.cache_clear()  # decide the pair afresh
            fi = extract_first_integral(field, system)
            pairs.add((str(fi.numerator), str(fi.denominator)))
            first_points.add(drawn[0])
        assert pairs == {("y", "x^2 + 1")}
        assert len(first_points) == 4

    @pytest.mark.parametrize("lines", [(0, 0), (0, 1)],
                             ids=["proportional", "cross-identity-fails"])
    def test_singular_probe_with_nonzero_extactic(self, monkeypatch, lines):
        # on the invariant line x = 0 of a planted field J(p) is singular,
        # although E != 0; kernel vectors x, x are proportional, and x, y
        # fail the cross identity (the cofactors differ)
        field = planted_lines_field(2, 2, 1).field
        system = monomial_system(2, 1, AFFINE)
        expected = det_modular(jet_matrix(field, system).entries)
        assert not expected.is_zero()
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, lines)
        assert extactic(field, system).extactic == expected
        # the decision went on past the pair, and its next point is free
        # of the line and shows full rank
        assert len(drawn) == 3
        with pytest.raises(ExtacticNotZeroError, match="full rank") as exc:
            extract_first_integral(field, system)
        # one decision: the second call reuses it and draws no point
        assert len(drawn) == 3 and len(decided) == 1
        fi, point = decided[0]
        assert fi is None and point == tuple(drawn[2])
        assert f"full rank at {point}" in str(exc.value)

    def test_proportional_first_pair_is_interpolated(self, monkeypatch):
        # x = 0 is a leaf of the radial field, which has the integral y/x
        # and no polynomial one: both probes of the first pair find the
        # same kernel, spanned by x, x^2 and xy.  The generic reduced
        # kernel, x - (x/y) y, x^2 - (x/y)^2 y^2 and xy - (x/y) y^2, takes
        # that value at x = 0, so the pair's points stay in the
        # interpolation, and the entry -x/y fits at degree 1 on 2 * 3 + 3
        # points
        field = VectorField((X, Y), AFFINE)
        k = 2
        system = monomial_system(2, k, AFFINE)
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, (0, 0))
        assert extactic(field, system).identically_zero
        assert len(drawn) == 9
        assert all(point[0] == 0 for point in drawn[:2])
        fi = extract_first_integral(field, system)
        # one decision: the second call reuses its certificate and draws
        # no point
        assert len(drawn) == 9
        assert decided == [(fi, None)]
        assert (str(fi.numerator), str(fi.denominator)) == ("-x", "y")
        assert max(fi.numerator.degree(), fi.denominator.degree()) <= k
        assert not proportional(fi.numerator, fi.denominator)
        assert _cross_identity(field, fi.numerator, fi.denominator)

    def test_a_later_free_column_certifies(self, monkeypatch):
        # X = (1, z, 0) = grad z x grad(xz - y): the leaf through p is the
        # line z = z0, y - z0 x = c0, so the first free column (y) gives
        # y - z0 x - c0, which spans no pencil over two points; the column
        # of z gives z - z0
        z = RING_XYZ.variables()[2]
        field = VectorField((RING_XYZ.one(), z, RING_XYZ.zero()), AFFINE)
        drawn = _probes_on(monkeypatch, ())
        for k in (1, 2):
            drawn.clear()
            fi = extract_first_integral(field, monomial_system(3, k, AFFINE))
            assert (str(fi.numerator), str(fi.denominator)) == ("z", "1")
            assert len(drawn) == 2

    @pytest.mark.parametrize("components,k,integral", [
        # integrals 1, xz + z^2 and yz - z^2 + x: every kernel has
        # dimension 3, and no two kernel vectors span a pencil
        (lambda x, y, z: (-x * z - (z * z).scale(2),
                          -y * z + (z * z).scale(2) + x + z.scale(2),
                          z * z), 2, "y*z - z^2 + x"),
        # integrals x + y - z and y/z
        (lambda x, y, z: (y - z, -y, -z), 1, "x + y - z"),
    ], ids=["three-polynomial-integrals", "linear-field"])
    def test_a_polynomial_integral_certifies_from_the_first_pair(
            self, monkeypatch, components, k, integral):
        field = VectorField(components(*RING_XYZ.variables()), AFFINE)
        system = monomial_system(3, k, AFFINE)
        drawn = _probes_on(monkeypatch, ())
        interpolated = _spy(monkeypatch, "_interpolated_integral")
        fi = extract_first_integral(field, system)
        assert (str(fi.numerator), str(fi.denominator)) == (integral, "1")
        assert len(drawn) == 2 and interpolated == []
        assert apply_derivation(field, fi.numerator).is_zero()
        assert extactic(field, system).identically_zero

    def test_no_integral_of_degree_k_reaches_the_fallback(self,
                                                          monkeypatch):
        # the leaves of X = (1 + x^2, z + xy, xz - y) are the lines meeting
        # the complex conjugate lines x = -+i, y = -+iz: every leaf lies in
        # a pencil of planes, so E = 0 at k = 1, but no rational pencil of
        # planes contains them all; the integrals over Q have degree 2, so
        # only a row of the interpolated kernel certifies, at degree 2 on
        # 2 * 10 + 3 points
        x, y, z = RING_XYZ.variables()
        field = VectorField((RING_XYZ.one() + x * x, z + x * y, x * z - y),
                            AFFINE)
        system = monomial_system(3, 1, AFFINE)
        decided = _spy(monkeypatch, "_certify_vanishing")
        interpolated = _spy(monkeypatch, "_interpolated_integral")
        drawn = _probes_on(monkeypatch, ())
        assert extactic(field, system).identically_zero
        assert len(drawn) == 23
        fi = extract_first_integral(field, system)
        # one decision, certified by the interpolation; the second call
        # draws no point
        assert len(drawn) == 23
        assert decided == [(fi, None)] and interpolated == [(fi, None)]
        assert (str(fi.numerator), str(fi.denominator)) == (
            "x*z - y", "y^2 + z^2")
        assert fi.rank == 2
        assert not proportional(fi.numerator, fi.denominator)
        assert _cross_identity(field, fi.numerator, fi.denominator)

    def test_every_pair_and_the_fallback_failing_raise(self, monkeypatch):
        # on x = 0, a leaf of the radial field (integral y/x, no polynomial
        # one), the pair certifies nothing and every entry of the reduced
        # kernel is 0 there, fitted as a constant on the 5 points of degree
        # 0; no entry is left to fit, and E = 0, so the failure stands
        field = VectorField((X, Y), AFFINE)
        system = monomial_system(2, 2, AFFINE)
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, itertools.repeat(0))
        with pytest.raises(ExtractionFailedError):
            extract_first_integral(field, system)
        assert decided == [(None, None)]
        assert len(drawn) == 5

    def test_a_failed_extraction_with_nonzero_extactic_raises(self,
                                                              monkeypatch):
        # every probe on the invariant line x = 0 of a planted field: J is
        # singular there although E != 0, the interpolation finds no
        # integral, and the determinant of J settles the decision
        field = planted_lines_field(2, 2, 1).field
        system = monomial_system(2, 1, AFFINE)
        interpolated = _spy(monkeypatch, "_interpolated_integral")
        drawn = _probes_on(monkeypatch, itertools.repeat(0))
        with pytest.raises(ExtacticNotZeroError, match="determinant"):
            extract_first_integral(field, system)
        # every entry is a constant on the line, fitted at degree 0
        assert interpolated == [(None, None)]
        assert len(drawn) == 5

    def test_the_interpolation_stops_at_the_point_cap(self, monkeypatch):
        # on the plane x = 0, the entries of the reduced kernel of X = (1 +
        # x^2, z + xy, xz - y) (such as -y/(y^2 + z^2)) are not constant,
        # and no fit of degree >= 1 is unique: the x monomials vanish; the
        # decision stops at the cap, and the determinant shows E = 0
        x, y, z = RING_XYZ.variables()
        field = VectorField((RING_XYZ.one() + x * x, z + x * y, x * z - y),
                            AFFINE)
        monkeypatch.setattr(EXT, "_MAX_POINTS", 30)
        interpolated = _spy(monkeypatch, "_interpolated_integral")
        drawn = _probes_on(monkeypatch, itertools.repeat(0))
        with pytest.raises(ExtractionFailedError):
            extract_first_integral(field, monomial_system(3, 1, AFFINE))
        assert interpolated == [(None, None)]
        # 23 points fit degree 2; degree 3 needs 43, above the cap
        assert len(drawn) == 30

    def test_a_point_of_larger_rank_drops_the_points_before_it(self,
                                                                monkeypatch):
        # the radial field vanishes at the origin, where J has rank 1; the
        # point (0, 5) has the generic rank 3, so the origin is dropped,
        # and 8 more points fit -x/y at degree 1
        field = VectorField((X, Y), AFFINE)
        system = monomial_system(2, 2, AFFINE)
        drawn = _probes_on(monkeypatch, ())
        points = [[0, 0], [0, 5]]
        kernels = [kernel(list(zip(*_point_jet(field, system, p))), 6)
                   for p in points]
        assert [len(k) for k in kernels] == [5, 3]
        fi, point = EXT._interpolated_integral(field, system, Random(0),
                                               points, kernels)
        assert point is None and fi.rank == 3
        assert (str(fi.numerator), str(fi.denominator)) == ("-x", "y")
        assert len(drawn) == 8

    def test_a_table_prime_in_a_denominator_is_decided_exactly(
            self, monkeypatch):
        # X = (x/p, 2y) with p the first table prime: the point jets are
        # exact, so the denominator raises no BadPrimeError, and the first
        # point's empty kernel decides E = 2xy/p != 0
        p = PRIMES_2_31[0]
        field = VectorField((X.scale(Fraction(1, p)), Y.scale(2)), AFFINE)
        system = monomial_system(2, 1, AFFINE)
        assert not det_fraction_free(jet_matrix(field, system).entries) \
            .is_zero()
        drawn = _probes_on(monkeypatch, ())
        with pytest.raises(ExtacticNotZeroError, match="full rank"):
            extract_first_integral(field, system)
        assert len(drawn) == 1


class TestOneDecisionPerPair:
    """`extactic`, then `extract_first_integral` on an equal pair: the pair
    is decided once, and the second call reuses the decision."""

    @staticmethod
    def pencil(f, g):
        # the field of the pencil f : g and the system of degree 2, as
        # fresh objects on every call
        return pencil_field(f, g).field, monomial_system(2, 2, AFFINE)

    def test_the_second_call_reuses_the_decision(self, monkeypatch):
        field, system = self.pencil(X**2 + 1, Y)
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, ())
        assert extactic(field, system).identically_zero
        assert len(drawn) == 2
        fi = extract_first_integral(field, system)
        assert len(drawn) == 2 and len(decided) == 1
        assert decided[0][0] is fi
        assert (str(fi.numerator), str(fi.denominator)) == ("y", "x^2 + 1")

    def test_an_equal_pair_from_fresh_objects_reuses_it(self, monkeypatch):
        # as the CLI and the benchmark build their inputs
        field, system = self.pencil(X**2 + 1, Y)
        again, same = self.pencil(
            RING_XY.from_terms({(2, 0): 1, (0, 0): 1}),
            RING_XY.from_terms({(0, 1): 1}))
        assert (again, same) == (field, system)
        assert again is not field and same is not system
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, ())
        assert extactic(field, system).identically_zero
        fi = extract_first_integral(again, same)
        assert len(drawn) == 2 and len(decided) == 1
        assert decided[0][0] is fi

    def test_another_pair_in_between_decides_afresh(self, monkeypatch):
        field, system = self.pencil(X**2 + 1, Y)
        other = hamiltonian(X**2 + Y).field
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, ())
        assert extactic(field, system).identically_zero
        assert extactic(other, system).identically_zero
        fi = extract_first_integral(field, system)
        # three decisions of a pair each; the last draws the first's points
        assert len(decided) == 3 and len(drawn) == 6
        assert drawn[4:] == drawn[:2]
        assert decided[2][0] == decided[0][0] == fi

    def test_a_reused_nonzero_decision_raises_afresh(self, monkeypatch):
        field = planted_lines_field(2, 2, 1).field
        system = monomial_system(2, 1, AFFINE)
        decided = _spy(monkeypatch, "_certify_vanishing")
        drawn = _probes_on(monkeypatch, ())
        assert not extactic(field, system).identically_zero
        raised = []
        for _ in range(2):
            with pytest.raises(ExtacticNotZeroError) as exc:
                extract_first_integral(field, system)
            raised.append(exc.value)
        assert len(decided) == 1 and len(drawn) == 1
        first, second = raised
        assert first is not second
        assert str(first) == str(second) == (
            "the extactic polynomial is not identically zero "
            f"(full rank at {tuple(drawn[0])})")


def _small(max_degree):
    return polynomials(RING_XY, max_degree=max_degree, max_terms=4,
                       coeff_bound=5)


@st.composite
def hamiltonian_inputs(draw, max_k):
    """(field, k) for a Hamiltonian h with 1 <= deg h <= k <= max_k."""
    h = draw(_small(max_k))
    assume(not h.is_constant())
    return hamiltonian(h).field, draw(st.integers(h.degree(), max_k))


@st.composite
def pencil_inputs(draw, max_k):
    """(field, k) for a pencil f/g with deg f, deg g <= k <= max_k."""
    f, g = draw(_small(max_k)), draw(_small(max_k))
    try:
        field = pencil_field(f, g).field
    except ValueError:
        assume(False)
    k = max(1, f.degree(), g.degree())
    return field, draw(st.integers(k, max_k))


@st.composite
def field_inputs(draw):
    """(field, k): a 2-variable field of degree 1-3 at k = 1-2."""
    comps = (draw(_small(3)), draw(_small(3)))
    assume(any(c.degree() >= 1 for c in comps))
    return VectorField(comps, AFFINE), draw(st.integers(1, 2))


@given(st.one_of(field_inputs(), hamiltonian_inputs(2), pencil_inputs(2)))
@settings(max_examples=60, deadline=None)
def test_decision_agrees_with_the_determinant(case):
    field, k = case
    system = monomial_system(2, k, AFFINE)
    det = det_fraction_free(jet_matrix(field, system).entries)
    report = extactic(field, system)
    assert report.identically_zero == det.is_zero()
    assert report.extactic == det
    event("E = 0" if det.is_zero() else "E != 0")
    if det.is_zero():
        fi = extract_first_integral(field, system)
        assert max(fi.numerator.degree(), fi.denominator.degree()) <= k
        assert not proportional(fi.numerator, fi.denominator)
        assert _cross_identity(field, fi.numerator, fi.denominator)
    else:
        with pytest.raises(ExtacticNotZeroError):
            extract_first_integral(field, system)


def _small3(max_degree):
    return polynomials(RING_XYZ, max_degree=max_degree, max_terms=4,
                       coeff_bound=5)


@st.composite
def gradient_cross_inputs(draw):
    """(field, 2) for X = grad h1 x grad h2, 1 <= deg h1, deg h2 <= 2: h1
    and h2 are first integrals."""
    h1, h2 = draw(_small3(2)), draw(_small3(2))
    assume(not (h1.is_constant() or h2.is_constant()))
    g1 = [h1.partial_derivative(v) for v in range(3)]
    g2 = [h2.partial_derivative(v) for v in range(3)]
    comps = tuple(g1[(v + 1) % 3] * g2[(v + 2) % 3]
                  - g1[(v + 2) % 3] * g2[(v + 1) % 3] for v in range(3))
    assume(not all(c.is_zero() for c in comps))
    return VectorField(comps, AFFINE), 2


@st.composite
def planar_lift_inputs(draw):
    """(field, k) for X = (P, Q, 0), deg P, deg Q <= 2, at k = 1-2: z is a
    first integral."""
    p, q = draw(_small3(2)), draw(_small3(2))
    assume(not (p.is_zero() and q.is_zero()))
    return VectorField((p, q, RING_XYZ.zero()), AFFINE), draw(
        st.integers(1, 2))


def test_known_first_integrals_never_reach_the_fallback(monkeypatch):
    drawn = _probes_on(monkeypatch, ())

    @given(st.one_of(hamiltonian_inputs(3), pencil_inputs(3),
                     gradient_cross_inputs(), planar_lift_inputs()))
    @settings(max_examples=100, deadline=None)
    def check(case):
        field, k = case
        nv = field.ring.nvars
        drawn.clear()
        EXT._decision.cache_clear()  # a replayed example decides afresh
        fi = extract_first_integral(field, monomial_system(nv, k, AFFINE))
        # the first pair, without interpolation
        assert len(drawn) == 2
        assert max(fi.numerator.degree(), fi.denominator.degree()) <= k
        assert not proportional(fi.numerator, fi.denominator)
        assert _cross_identity(field, fi.numerator, fi.denominator)
        event(f"{nv} variables")

    check()


def _ratio_field(f1, g1, f2, g2):
    """X = (g1 grad f1 - f1 grad g1) x (g2 grad f2 - f2 grad g2): f1/g1 and
    f2/g2 are first integrals."""
    a, b = ([g * f.partial_derivative(v) - f * g.partial_derivative(v)
             for v in range(3)] for f, g in ((f1, g1), (f2, g2)))
    return VectorField(tuple(a[(v + 1) % 3] * b[(v + 2) % 3]
                             - a[(v + 2) % 3] * b[(v + 1) % 3]
                             for v in range(3)), AFFINE)


@st.composite
def ratio_inputs(draw):
    """A ratio field for deg f_i, g_i <= 1: two integrals of degree <= 1,
    which the kernel vectors of a pair of points can mix."""
    field = _ratio_field(*(draw(_small3(1)) for _ in range(4)))
    assume(not field.is_zero())
    return field


def test_ratio_fields_are_certified(monkeypatch):
    # in the sweep, about one draw in seven reaches the interpolation; its
    # answers, by a kernel entry in the system or by a row, pass the cross
    # identity
    interpolated = _spy(monkeypatch, "_interpolated_integral")
    system = monomial_system(3, 1, AFFINE)

    x, y, z = RING_XYZ.variables()
    one = RING_XYZ.one()

    @given(ratio_inputs())
    # a kernel entry in the system certifies, and a row of integrals of
    # degree 2
    @example(_ratio_field(x.scale(3) - y.scale(4) + one.scale(5),
                          y.scale(4) - z.scale(4) + one.scale(2),
                          z.scale(-2), x.scale(3) + y.scale(4) - one.scale(5)))
    @example(_ratio_field(x.scale(2) + y.scale(2) - z.scale(3) + one.scale(4),
                          x.scale(2) + z.scale(4) + one.scale(2),
                          y - z - one, x + z.scale(4) + one.scale(3)))
    @settings(max_examples=100, deadline=None)
    def check(field):
        interpolated.clear()
        EXT._decision.cache_clear()  # a replayed example decides afresh
        fi = extract_first_integral(field, system)
        assert not proportional(fi.numerator, fi.denominator)
        assert _cross_identity(field, fi.numerator, fi.denominator)
        assert det_fraction_free(jet_matrix(field, system).entries).is_zero()
        degree = max(fi.numerator.degree(), fi.denominator.degree())
        if not interpolated:
            assert degree <= 1
            event("first pair")
        else:
            assert interpolated == [(fi, None)]
            event("span" if degree <= 1 else "row")

    check()


@st.composite
def probe_inputs(draw):
    """(field, k): components of degree <= 2 on 2 variables at k = 1-2, or
    on 3 variables at k = 1; a Hamiltonian field on half the planar draws.
    Each component may carry the denominator P31, the first table prime."""
    nv = draw(st.sampled_from([2, 3]))
    ring = RING_XY if nv == 2 else RING_XYZ
    k = draw(st.integers(1, 2 if nv == 2 else 1))
    if nv == 2 and draw(st.booleans()):
        h = draw(_small(2))
        assume(not h.is_constant())
        comps = hamiltonian(h).field.components
    else:
        terms = st.dictionaries(
            st.sampled_from(list(monomials_up_to_degree(nv, 2))),
            st.integers(1, 5) | st.integers(-5, -1), min_size=1, max_size=3)
        comps = draw(st.lists(terms.map(ring.from_terms),
                              min_size=nv, max_size=nv))
    scales = draw(st.lists(st.sampled_from([1, Fraction(1, P31)]),
                           min_size=nv, max_size=nv))
    field = VectorField(tuple(c.scale(a) for c, a in zip(comps, scales)),
                        AFFINE)
    return field, k


@given(probe_inputs())
@settings(max_examples=100, deadline=None)
def test_the_decision_agrees_with_the_determinant(case):
    field, k = case
    system = monomial_system(field.ring.nvars, k, AFFINE)
    det = det_fraction_free(jet_matrix(field, system).entries)
    fi, point = EXT._certify_vanishing(field, system)
    if point is not None:
        assert fi is None and not det.is_zero()
        event("E != 0")
        return
    if fi is not None:
        assert det.is_zero()
        assert _cross_identity(field, fi.numerator, fi.denominator)
        event("certified")
    else:
        event("undecided")


class TestSymmetries:
    def test_radial_invariance(self):
        system = monomial_system(3, 1, HOMOGENEOUS)
        r = VectorField(RING_XYZ.variables(), HOMOGENEOUS)
        for seed in range(5):
            field = random_homogeneous_field(3, 2, 6000 + seed)
            g = random_polynomial(3, 1, 6100 + seed, homogeneous=True)
            shifted = VectorField(
                tuple(p + g * rc for p, rc in zip(field.components,
                                                  r.components)),
                HOMOGENEOUS)
            assert extactic(field, system).extactic == \
                extactic(shifted, system).extactic

    def test_scaling_covariance(self):
        system = monomial_system(3, 1, HOMOGENEOUS)
        for seed in range(5):
            field = random_homogeneous_field(3, 2, 6200 + seed)
            h = random_polynomial(3, 1, 6300 + seed, homogeneous=True)
            scaled = VectorField(tuple(h * p for p in field.components),
                                 HOMOGENEOUS)
            m = system.dimension
            assert extactic(scaled, system).extactic == \
                h ** math.comb(m, 2) * extactic(field, system).extactic

    def test_basis_change_covariance(self):
        system = monomial_system(3, 1, HOMOGENEOUS)
        field = slv(1).field
        base = extactic(field, system)
        mix = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]  # determinant 1
        basis = tuple(
            sum((system.basis[j].scale(mix[i][j]) for j in range(3)),
                RING_XYZ.zero())
            for i in range(3))
        mixed_system = LinearSystem(basis, 1, HOMOGENEOUS)
        mixed = extactic(field, mixed_system)
        assert mixed.extactic == base.extactic
        assert mixed.identically_zero == base.identically_zero


def test_planted_lines_divisibility_smoke():
    for n, d, seed in [(2, 1, 3), (2, 2, 1), (3, 1, 2), (3, 2, 7)]:
        entry = planted_lines_field(n, d, seed)
        system = monomial_system(n, 1, AFFINE)
        rep = extactic(entry.field, system)
        if rep.identically_zero:
            continue
        product = entry.field.ring.one()
        for i in range(n):
            product = product * entry.field.ring.variable(i)
        assert divides_extactic(product, rep)


def test_degree_law_smoke():
    hits = 0
    total = 20
    for seed in range(total):
        field = random_homogeneous_field(3, 2, 6400 + seed)
        rep = extactic(field, monomial_system(3, 1, HOMOGENEOUS))
        assert rep.degree_bound == 6
        if not rep.identically_zero:
            assert rep.degree <= 6
            hits += rep.degree == 6
    assert hits >= total * 3 // 4


def test_engine_equivalence_rational_fuzz():
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from extatica.polyring import monomials_up_to_degree

    exps = list(monomials_up_to_degree(2, 2))
    coeff = st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                         max_denominator=12)
    entry = st.dictionaries(st.sampled_from(exps), coeff, max_size=4).map(
        lambda t: RING_XY.from_terms(t))

    @given(st.integers(2, 4).flatmap(
        lambda sz: st.lists(st.lists(entry, min_size=sz, max_size=sz),
                            min_size=sz, max_size=sz)))
    @settings(max_examples=30, deadline=None)
    def check(matrix):
        assert det_modular(matrix) == det_fraction_free(matrix)

    check()


def test_degree_bound_holds_in_affine_mode():
    for seed in range(10):
        field = random_field(2, 2, 6500 + seed)
        rep = extactic(field, monomial_system(2, 1, AFFINE))
        if not rep.identically_zero:
            assert rep.degree <= rep.degree_bound
