"""The modular engine's structure before any grid work: the assignment
degree bounds, the expansion along unit rows and columns, structural
zeros, the variables a column-homogeneous matrix drops, the self-check,
and the packed derivation chains of the jet matrix."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from extatica import corpus, modular
from extatica.extactic import (EngineDisagreementError, _expand_units,
                               det_fraction_free, det_modular, jet_matrix,
                               monomial_system)
from extatica.foliation import (AFFINE, HOMOGENEOUS, VectorField,
                                apply_derivation)
from extatica.linalg import max_assignment
from extatica.modular import (det_bounds, drop_homogeneous, grid_bytes,
                              lower_set_size, term_table)
from extatica.polyring import PolyRing, monomials_of_degree
from conftest import RING_XY, RING_XYZ, polynomials
from seeded_inputs import random_polynomial_matrix
import bareiss_oracle

X, Y = RING_XY.variables()
ONE, ZERO = RING_XY.one(), RING_XY.zero()


def _degree_in(f, v):
    """The largest exponent of variable v in f (0 for the zero
    polynomial)."""
    return max((e[v] for e in f.terms), default=0)


def _old_bounds(rows, nvars):
    """The column- and row-sum degree bounds that the assignment bounds
    replaced: per variable, then total, the smaller of the two sums of the
    largest entry degrees."""
    m = len(rows)
    degrees = [[[_degree_in(e, v) for v in range(nvars)]
                + [max(map(sum, e.terms), default=0)] for e in r]
               for r in rows]
    return [min(sum(max(degrees[i][j][k] for i in range(m))
                    for j in range(m)),
                sum(max(degrees[i][j][k] for j in range(m))
                    for i in range(m)))
            for k in range(nvars + 1)]


@st.composite
def sparse_matrices(draw):
    """Square matrices (m <= 5) over x, y, z with many zero entries."""
    m = draw(st.integers(1, 5))
    entry = st.one_of(st.just(RING_XYZ.zero()), st.just(RING_XYZ.zero()),
                      polynomials(RING_XYZ, max_degree=3, max_terms=3,
                                  nonzero=True))
    return [[draw(entry) for _ in range(m)] for _ in range(m)]


weight_matrices = st.integers(1, 5).flatmap(lambda m: st.lists(
    st.lists(st.one_of(st.none(), st.integers(0, 40)), min_size=m,
             max_size=m), min_size=m, max_size=m))


class TestAssignmentBounds:
    @given(weights=weight_matrices)
    @example(weights=[[3, None, 1, 4], [None, 2, 7, 0], [5, 5, None, 1],
                      [2, None, 6, None]])
    @settings(max_examples=200, deadline=None)
    def test_max_assignment_brute_force(self, weights):
        m = len(weights)
        sums = [sum(weights[i][s[i]] for i in range(m))
                for s in itertools.permutations(range(m))
                if all(weights[i][s[i]] is not None for i in range(m))]
        assert max_assignment(weights) == max(sums, default=None)

    def test_max_assignment_without_a_perfect_matching(self):
        assert max_assignment([[1, 2, 3], [4, None, None],
                                [5, None, None]]) is None
        assert max_assignment([[None]]) is None
        assert max_assignment([[0]]) == 0

    @given(rows=sparse_matrices())
    @settings(max_examples=80, deadline=None)
    def test_between_the_realised_degrees_and_the_old_sums(self, rows):
        var_bounds, total, _ = det_bounds(term_table(rows, 3))
        det = bareiss_oracle.det_fraction_free(rows)
        old = _old_bounds(rows, 3)
        for bound, realised, before in zip(
                var_bounds + [total],
                [_degree_in(det, v) for v in range(3)] + [det.degree()],
                old):
            if det.is_zero():
                assert bound <= before
            else:
                assert realised <= bound <= before

    def test_an_entry_above_its_bound(self):
        bounds, total, _ = det_bounds(term_table(
            [[X ** 5, ONE], [ONE, ZERO]], 2))
        assert bounds == [0, 0] and total == 0
        cases = [
            [[X ** 5, ONE], [ONE, ZERO]],
            # no unit row: the grid runs with b_x = 2 under the entry x^5,
            # and the self-check's power tables reach degree 5
            [[X ** 5, X], [X, ZERO]],
            [[X ** 5 * Y + Y, X], [Y, ZERO]],
            [[X ** 7, Y, ZERO], [X + Y, ZERO, Y ** 2], [ZERO, X * Y, X]],
        ]
        for rows in cases:
            assert det_modular(rows) == det_fraction_free(rows) == \
                bareiss_oracle.det_fraction_free([list(r) for r in rows])

    def test_the_bound_is_exact_on_affine_jets(self):
        for seed in (1, 2, 3):
            field = corpus.random_field(2, 2, seed)
            jet = jet_matrix(field, monomial_system(2, 2, AFFINE))
            _, rows = _expand_units([list(r) for r in jet.entries])
            bounds, total, _ = det_bounds(term_table(rows, 2))
            det = det_modular(jet.entries)
            assert bounds == [_degree_in(det, 0), _degree_in(det, 1)]
            assert total == det.degree()
            assert total < _old_bounds(rows, 2)[-1]


class TestStructuralZeros:
    def test_no_permutation_avoids_the_zeros(self, monkeypatch):
        a, b, c = X, Y, X * Y
        d, e = X + Y, Y ** 2 + X
        rows = [[a, b, c], [d, ZERO, ZERO], [e, ZERO, ZERO]]
        calls = []
        monkeypatch.setattr(modular, "prime_images",
                            lambda *args: calls.append(args))
        assert det_modular(rows).is_zero()
        assert det_fraction_free(rows).is_zero()
        assert calls == []

    def test_zero_row_and_column(self):
        for rows in ([[X, Y], [ZERO, ZERO]], [[X, ZERO], [Y, ZERO]]):
            assert det_modular(rows).is_zero()


class TestUnitExpansion:
    @pytest.mark.parametrize("i,j", itertools.product(range(4), range(4)))
    @pytest.mark.parametrize("along", ["row", "column"])
    def test_sign_at_every_position(self, i, j, along):
        rows = random_polynomial_matrix(4, 2, 2, 31 + 4 * i + j)
        rows = [[e if e.degree() > 0 else e + X for e in r] for r in rows]
        for k in range(4):
            if along == "row":
                rows[i][k] = ZERO
            else:
                rows[k][j] = ZERO
        rows[i][j] = RING_XY.constant(Fraction(-3, 2))
        factor, minor = _expand_units(rows)
        assert factor == Fraction(-3, 2) * (-1) ** (i + j)
        assert len(minor) == 3
        expected = bareiss_oracle.det_fraction_free([list(r) for r in rows])
        assert not expected.is_zero()
        assert bareiss_oracle.det_fraction_free(minor).scale(factor) == \
            expected
        assert det_fraction_free(rows) == det_modular(rows) == expected

    def test_chained_units_down_to_the_empty_minor(self):
        rows = [[ONE, X, Y], [ZERO, RING_XY.constant(2), X], [ZERO, ZERO,
                                                            -ONE]]
        factor, minor = _expand_units(rows)
        assert factor == -2 and minor == []
        assert det_fraction_free(rows) == det_modular(rows) == \
            RING_XY.constant(-2)

    def test_the_affine_jet_loses_its_first_row(self):
        field = corpus.random_field(2, 2, 1)
        jet = jet_matrix(field, monomial_system(2, 2, AFFINE))
        factor, minor = _expand_units([list(r) for r in jet.entries])
        assert factor == 1 and len(minor) == 5
        assert minor == [list(r[1:]) for r in jet.entries[1:]]


@st.composite
def column_homogeneous_matrices(draw):
    """Square matrices (m <= 4) over 2 or 3 variables whose column j has
    only terms of one total degree d_j <= 2, with zero entries and
    fractional coefficients.  When `fixed` is drawn, each column's terms
    also share their degree in the last variable, so the matrix stays
    column-homogeneous once that variable is dropped; d_j = 0 throughout
    gives a constant matrix."""
    ring = PolyRing(("x", "y", "z")[:draw(st.integers(2, 3))])
    m = draw(st.integers(1, 4))
    top = draw(st.integers(0, 2))
    fixed = draw(st.booleans())
    coeff = st.fractions(-9, 9, max_denominator=4)
    columns = []
    for _ in range(m):
        d = draw(st.integers(0, top))
        exps = list(monomials_of_degree(ring.nvars, d))
        if fixed:
            last = draw(st.integers(0, d))
            exps = [e for e in exps if e[-1] == last]
        entry = st.one_of(
            st.just(ring.zero()),
            st.dictionaries(st.sampled_from(exps), coeff, min_size=1,
                            max_size=3).map(ring.from_terms))
        columns.append([draw(entry) for _ in range(m)])
    return [list(r) for r in zip(*columns)]


class TestHomogeneousDrop:
    def test_the_last_variables_drop_while_the_columns_stay_homogeneous(
            self):
        x, y, z = RING_XYZ.variables()
        zero = RING_XYZ.zero()
        # columns of degree 2 and 1; without z, of degree 1 and 1
        table, degrees = drop_homogeneous(term_table(
            [[x * z, y], [y * z, x]], 3))
        assert degrees == [3, 2]
        assert table.exponents == [(1,), (0,), (0,), (1,)]
        assert table.maxima == [1]
        # without z, the second column mixes degrees 1 and 2
        table, degrees = drop_homogeneous(term_table(
            [[x * z, y * z], [y * z, x * x]], 3))
        assert degrees == [4]
        assert table.exponents == [(1, 0), (0, 1), (0, 1), (2, 0)]
        # a mixed column, a zero column, a single variable: nothing drops
        for rows, nvars in (([[x, y * z], [x * x, z * z]], 3),
                            ([[x, zero], [y, zero]], 3),
                            ([[X, ONE], [X, X]], 2)):
            assert drop_homogeneous(term_table(rows, nvars))[1] == []
        single = PolyRing(("x",)).variable(0)
        assert drop_homogeneous(term_table([[single]], 1))[1] == []

    @given(rows=column_homogeneous_matrices())
    @example(rows=[[RING_XY.constant(Fraction(1, 3)), RING_XY.constant(2)],
                   [RING_XY.constant(2 ** 70), RING_XY.constant(-5)]])
    @example(rows=[[RING_XYZ.constant(Fraction(7, 2))]])
    @settings(max_examples=120, deadline=None)
    def test_matches_the_oracle(self, rows):
        nvars = rows[0][0].ring.nvars
        _, degrees = drop_homogeneous(term_table(rows, nvars))
        event(f"{len(degrees)} of {nvars} variables dropped")
        det = det_modular(rows)
        assert det == bareiss_oracle.det_fraction_free(
            [list(r) for r in rows])
        assert str(det) == str(det_fraction_free(rows))

    def test_the_slv_jet_reaches_the_grid_with_two_variables(
            self, monkeypatch):
        images = modular.prime_images
        seen = []

        def spy(table, bounds, degree, primes, jobs=1):
            seen.append(len(bounds))
            return images(table, bounds, degree, primes, jobs)

        monkeypatch.setattr(modular, "prime_images", spy)
        jet = jet_matrix(corpus.slv(1).field,
                         monomial_system(3, 2, HOMOGENEOUS))
        assert det_modular(jet.entries) == det_fraction_free(jet.entries)
        assert seen == [2]


class TestSelfCheck:
    def test_a_corrupted_coefficient_is_caught(self, monkeypatch):
        images = modular.prime_images

        def corrupt(table, bounds, degree, primes, jobs=1):
            # the middle coefficient plus 1 modulo every prime
            exponents, residues = images(table, bounds, degree, primes, jobs)
            mid = residues.shape[1] // 2
            residues[:, mid] = (residues[:, mid] + 1) % np.array(primes)
            return exponents, residues

        rows = random_polynomial_matrix(5, 2, 2, 4242)
        assert det_modular(rows) == det_fraction_free(rows)
        monkeypatch.setattr(modular, "prime_images", corrupt)
        with pytest.raises(EngineDisagreementError):
            det_modular(rows)

    @pytest.mark.parametrize("prime", [0, 1, -1])
    def test_a_corrupted_residue_is_caught(self, monkeypatch, prime):
        # coefficients near 10^12 need eight primes; a wrong residue at p_i
        # changes a coefficient by a multiple of M / p_i, which every other
        # remaindering prime divides, so a check modulo a remaindering
        # prime could not see it
        images = modular.prime_images
        seen = []

        def corrupt(table, bounds, degree, primes, jobs=1):
            exponents, residues = images(table, bounds, degree, primes, jobs)
            mid = residues.shape[1] // 2
            residues[prime, mid] = (residues[prime, mid] + 1) % primes[prime]
            seen.append(len(primes))
            return exponents, residues

        rows = [[e.scale(10**12 + 7 * i + j) for j, e in enumerate(r)]
                for i, r in enumerate(random_polynomial_matrix(5, 2, 2, 4242))]
        assert det_modular(rows) == det_fraction_free(rows)
        monkeypatch.setattr(modular, "prime_images", corrupt)
        with pytest.raises(EngineDisagreementError):
            det_modular(rows)
        assert seen == [8]


class TestGridBytes:
    def test_the_leading_term_counts_the_entry_degrees(self):
        # b_x = b_y = 1 under entries of degree 40 in x and y: the
        # coefficient tensor, m^2 (40 + 1)^2 values, is the largest step
        rows = [[X ** 40 * Y ** 40 + X, Y], [X, ZERO]]
        table = term_table(rows, 2)
        bounds, total, _ = det_bounds(table)
        assert bounds == [1, 1] and total == 2
        points = lower_set_size(bounds, total)
        expected = 8 * ((5 + 1) * points + (4 + 2) * points + 4 * 41 * 41
                        + 2 * 41 * 41) + 4 * 3 * 41 * 41
        assert grid_bytes(table, bounds, total, 1, 1) == expected


def _iterated(field, basis, m):
    rows = []
    for s in basis:
        row = [s]
        for _ in range(m - 1):
            row.append(apply_derivation(field, row[-1]))
        rows.append(tuple(row))
    return tuple(rows)


class TestDerivationChains:
    @pytest.mark.parametrize("components", [
        (ZERO, ZERO),                                   # the zero field
        (ZERO, X ** 2 + Y),                             # a zero component
        (X * Y.scale(Fraction(1, 3)) + ONE, ZERO),
        (Y - X ** 2, X.scale(Fraction(-5, 7)) + Y ** 2),
        (RING_XY.constant(2), RING_XY.constant(Fraction(1, 2))),
    ])
    def test_matches_iterated_derivation(self, components):
        field = VectorField(components, AFFINE)
        system = monomial_system(2, 2, AFFINE)
        jet = jet_matrix(field, system)
        assert jet.entries == _iterated(field, system.basis, 6)

    def test_random_fields(self):
        for seed in range(1, 6):
            field = corpus.random_field(2, 3, seed)
            system = monomial_system(2, 2, AFFINE)
            assert jet_matrix(field, system).entries == _iterated(
                field, system.basis, 6)
        field = corpus.random_field(3, 2, 1)
        system = monomial_system(3, 1, AFFINE)
        assert jet_matrix(field, system).entries == _iterated(
            field, system.basis, 4)
