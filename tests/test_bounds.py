import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extatica.bounds import (CONSISTENT, FORCES, HypothesisNotMetError,
                             abelian_bound, genus_rhs, genus_threshold,
                             invariant_count_check, pn_threshold,
                             poincare_degree_bound, report, surface_bound)

from seeded_inputs import plane_surface_input


class TestInvariantCountCheck:
    def test_consistent_case(self):
        rep = invariant_count_check(deg_D=2, h0=6, n_invariant=7,
                                    deg_foliation=2)
        assert rep.lhs == 2 and rep.rhs == 15
        assert rep.verdict == CONSISTENT

    def test_vacuous_when_count_equals_dimension(self):
        rep = invariant_count_check(deg_D=9, h0=4, n_invariant=4,
                                    deg_foliation=3)
        assert rep.lhs == 0 and rep.verdict == CONSISTENT

    def test_violation_forces(self):
        rep = invariant_count_check(deg_D=100, h0=3, n_invariant=5,
                                    deg_foliation=2)
        assert rep.lhs == 200 and rep.rhs == 3
        assert rep.verdict == FORCES

    def test_threshold_is_the_poincare_bound(self):
        assert invariant_count_check(
            deg_D=100, h0=3, n_invariant=5,
            deg_foliation=2).threshold == Fraction(3, 2)
        assert invariant_count_check(
            deg_D=9, h0=4, n_invariant=4, deg_foliation=3).threshold is None


_SURFACE = dict(h1=0, h0_k_minus_d=0, k_self=9, k_dot_d=-3, chi_top=3,
                genus=0)


@pytest.mark.parametrize("h0,count,deg_x,error", [
    (-1, -1, 0, "h0 must be non-negative"),
    (0, -1, 0, "n_invariant must be non-negative"),
    (0, 5, 0, "h0 must be at least 1"),
    (1, 5, 0, "deg_variety must be at least 1"),
])
@pytest.mark.parametrize("formula", [
    invariant_count_check,
    lambda deg_D, **system: poincare_degree_bound(**system),
    lambda **system: surface_bound(**system, **_SURFACE),
], ids=["theorem1", "poin", "cor"])
def test_general_formulas_check_the_system_in_order(formula, h0, count,
                                                    deg_x, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        formula(deg_D=-1, h0=h0, n_invariant=count, deg_foliation=2,
                deg_variety=deg_x)


def test_surface_bound_needs_positive_degree():
    with pytest.raises(ValueError, match="need deg_D > 0"):
        surface_bound(deg_D=0, h0=3, n_invariant=4, deg_foliation=2,
                      **_SURFACE)


class TestReport:
    def test_forces_exactly_above_rhs(self):
        assert report(Fraction(3), Fraction(3), "f").verdict == CONSISTENT
        rep = report(Fraction(7, 2), Fraction(3), "f", Fraction(3))
        assert rep.verdict == FORCES
        assert (rep.formula, rep.threshold) == ("f", 3)

    def test_missing_lhs_forces_nothing(self):
        rep = report(None, Fraction(-5), "abelian", Fraction(-5))
        assert rep.verdict == CONSISTENT


class TestPoincareDegreeBound:
    def test_small(self):
        assert poincare_degree_bound(h0=3, n_invariant=4,
                                     deg_foliation=2) == 3

    def test_unit(self):
        assert poincare_degree_bound(h0=6, n_invariant=21,
                                     deg_foliation=2) == 1

    def test_hypothesis_boundary(self):
        with pytest.raises(HypothesisNotMetError):
            poincare_degree_bound(h0=3, n_invariant=3, deg_foliation=2)


class TestPnThreshold:
    def test_line_case(self):
        assert pn_threshold(2, 1, 2, 4) == 3

    def test_conic_case(self):
        assert pn_threshold(2, 2, 2, 7) == 15

    def test_space_case(self):
        assert pn_threshold(3, 1, 3, 5) == 12

    def test_hypothesis(self):
        with pytest.raises(HypothesisNotMetError):
            pn_threshold(2, 2, 2, 6)

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            pn_threshold(1, 2, 2, 99)

    @pytest.mark.parametrize("k,n", [(0, 2), (2, 0), (-1, 2)])
    def test_k_and_n_at_least_one(self, k, n):
        with pytest.raises(ValueError, match="k >= 1 and n >= 1"):
            pn_threshold(2, k, n, 99)

    @pytest.mark.parametrize("k,n", [(3_000_000, 3_000_000), (8000, 8000),
                                     (10 ** 400, 10 ** 400),
                                     (10 ** 4000, 2)])
    def test_unprintable_binomial_refused_before_the_work(self, k, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="would have more than"):
            pn_threshold(2, k, n, 7)
        assert time.perf_counter() - start < 1.0

    def test_large_printable_binomial_accepted(self):
        # C(10^400 + 1, 1) has 401 digits: beyond the float range, but
        # printable; C(10000, 5000) has 3,009
        n = 10 ** 400
        assert pn_threshold(2, 1, n, n + 2) == math.comb(n + 1, 2)
        assert len(str(math.comb(10_000, 5000))) < sys.get_int_max_str_digits()
        with pytest.raises(HypothesisNotMetError):
            pn_threshold(2, 5000, 5000, 7)


class TestGenusRhs:
    def test_conic(self):
        assert genus_rhs(2, 2, 1) == 27

    def test_line(self):
        assert genus_rhs(2, 1, 1) == 12

    def test_matches_plane_specialization(self):
        for d, k, n in [(2, 2, 1), (3, 5, 4), (4, 1, 2), (6, 10, 50),
                        (5, 7, 13)] + [
                (2 + (s % 5), 1 + (s * 3) % 10, 1 + (s * 7) % 50)
                for s in range(20)]:
            rep = surface_bound(**plane_surface_input(d, k, n, 0))
            assert rep.rhs == genus_rhs(d, k, n)


class TestGenusThreshold:
    def test_conic(self):
        assert genus_threshold(2, 2, 1) == Fraction(-25, 2)

    def test_many_curves(self):
        assert genus_rhs(2, 2, 20) == -11
        assert genus_threshold(2, 2, 20) == Fraction(13, 2)

    def test_algebraic_identity(self):
        for d in range(2, 6):
            for k in range(1, 8):
                for n in (1, 5, 40):
                    assert 2 - 2 * genus_threshold(d, k, n) == \
                        genus_rhs(d, k, n)


class TestSurfaceBound:
    def test_plane_middle_term(self):
        # with K.K = 9, K.D = -3k, chi = 3 the Noether-type term is 6k + 2
        for k in range(1, 11):
            assert Fraction(9 - 12 * (-3 * k) + 3, 6) == 6 * k + 2

    def test_conic_example(self):
        rep = surface_bound(**plane_surface_input(2, 2, 1, 0))
        assert rep.lhs == 2 and rep.rhs == 27 and rep.verdict == CONSISTENT

    def test_monotone_in_genus(self):
        low = surface_bound(**plane_surface_input(2, 2, 1, 0))
        high = surface_bound(**plane_surface_input(2, 2, 1, 100))
        assert high.lhs < low.lhs and high.rhs == low.rhs
        assert high.verdict == CONSISTENT


class TestAbelianBound:
    def test_minimal(self):
        assert abelian_bound(4, 2, 3, 2, 1) == 1

    def test_larger(self):
        assert abelian_bound(6, 2, 4, 3, 1) == 6

    def test_hypothesis(self):
        with pytest.raises(HypothesisNotMetError):
            abelian_bound(4, 2, 2, 2, 1)

    def test_non_integral_dimension(self):
        with pytest.raises(ValueError):
            abelian_bound(5, 2, 9, 2, 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_n_at_least_one(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            abelian_bound(4, n, 9, 2, 1)

    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 400])
    def test_unprintable_factorial_refused_before_the_work(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="n! would have more than"):
            abelian_bound(4, n, 9, 2, 1)
        assert time.perf_counter() - start < 1.0


class TestClosedForms:
    """The specializations against their own closed forms, an oracle
    independent of the general formulas they are computed through."""

    def test_pn_threshold(self):
        for d, k, n in itertools.product(range(2, 7), range(1, 8),
                                         range(1, 4)):
            h0 = math.comb(n + k, k)
            for count in (h0 + 1, h0 + 7, 3 * h0):
                assert pn_threshold(d, k, n, count) == \
                    Fraction((d - 1) * math.comb(h0, 2), count - h0)

    def test_abelian_bound(self):
        for n, h0 in itertools.product(range(1, 5), range(1, 12)):
            for count, deg_f, deg_x in [(h0 + 1, 2, 1), (h0 + 5, 7, 3),
                                        (2 * h0 + 3, 1, 4)]:
                assert abelian_bound(h0 * math.factorial(n), n, count, deg_f,
                                     deg_x) == \
                    Fraction((deg_f - deg_x) * math.comb(h0, 2), count - h0)

    def test_genus_rhs(self):
        for d, k, count in itertools.product(range(2, 8), range(1, 12),
                                             (1, 5, 40)):
            poly = (d * (k**3 + 6 * k**2 + 11 * k + 6) - k**3 - 6 * k**2
                    + 13 * k + 2)
            assert genus_rhs(d, k, count) == Fraction(poly, 4) - 2 * count


@given(deg_d=st.integers(1, 60), h0=st.integers(1, 12),
       count=st.integers(0, 80), deg_f=st.integers(1, 9),
       deg_x=st.integers(1, 4))
@settings(max_examples=200)
def test_contrapositive_coherence(deg_d, h0, count, deg_f, deg_x):
    rep = invariant_count_check(deg_D=deg_d, h0=h0, n_invariant=count,
                                deg_foliation=deg_f, deg_variety=deg_x)
    assert (rep.verdict == FORCES) == (rep.lhs > rep.rhs)


@given(d=st.integers(2, 8), k=st.integers(1, 6), n=st.integers(1, 4))
@settings(max_examples=60)
def test_pn_threshold_monotonicity(d, k, n):
    h0 = math.comb(n + k, k)
    values = [pn_threshold(d, k, n, h0 + extra) for extra in (1, 2, 5)]
    assert values[0] > values[1] > values[2]
    assert pn_threshold(d + 1, k, n, h0 + 2) > values[1]


def test_verdict_flips_exactly_at_poincare_bound():
    from extatica.corpus import SplitMix64
    rng = SplitMix64(4242)
    for _ in range(100):
        h0 = rng.int_in(2, 10)
        count = h0 + rng.int_in(1, 30)
        deg_f = rng.int_in(2, 9)
        deg_x = rng.int_in(1, deg_f - 1)
        system = dict(h0=h0, n_invariant=count, deg_foliation=deg_f,
                      deg_variety=deg_x)
        bound = poincare_degree_bound(**system)
        lo, hi = 0, 10_000
        while lo < hi:  # largest consistent degree, by bisection
            mid = (lo + hi + 1) // 2
            rep = invariant_count_check(deg_D=mid, **system)
            if rep.verdict == CONSISTENT:
                lo = mid
            else:
                hi = mid - 1
        assert lo == math.floor(bound)
