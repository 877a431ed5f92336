import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extatica.polyring import (NEG_INF, ContextError, PRIMES_2_31,
                               monomials_up_to_degree)

from conftest import (PRIMES_2_61, RING_XY, RING_XYZ, evaluate, polynomials,
                      rational_points)
import bareiss_oracle

X, Y = RING_XY.variables()
X3, Y3, Z3 = RING_XYZ.variables()


class TestArithmetic:
    def test_add_cancels(self):
        assert (X + Y) + (X - Y) == X.scale(2)

    def test_difference_of_squares(self):
        assert (X - Y) * (X + Y) == X**2 - Y**2

    def test_half_coefficient_product(self):
        half_y_plus_z = Y3.scale(Fraction(1, 2)) + Z3
        prod = half_y_plus_z * X3
        assert prod == RING_XYZ.from_terms(
            {(1, 1, 0): Fraction(1, 2), (1, 0, 1): 1})
        assert str(prod) == "1/2*x*y + x*z"

    def test_context_mismatch(self):
        with pytest.raises(ContextError):
            X + X3

    def test_pow(self):
        assert (X + Y) ** 3 == X**3 + (X**2 * Y).scale(3) + \
            (X * Y**2).scale(3) + Y**3
        assert X ** 0 == RING_XY.one()


class TestPartialDerivative:
    def test_basic(self):
        assert (X**2 * Y).partial_derivative(0) == (X * Y).scale(2)

    def test_constant(self):
        assert RING_XY.constant(5).partial_derivative(0).is_zero()

    def test_rational_coefficients(self):
        f = (X3 * Y3).scale(Fraction(1, 2)) + X3 * Z3
        assert f.partial_derivative(0) == Y3.scale(Fraction(1, 2)) + Z3

    def test_out_of_range(self):
        with pytest.raises(ContextError):
            X.partial_derivative(2)


class TestDivideExact:
    def test_difference_of_squares(self):
        assert (X**2 - Y**2).divide_exact(X - Y) == X + Y

    def test_not_divisible(self):
        assert X.divide_exact(Y) is None

    def test_monomial(self):
        assert (X * Y).scale(2).divide_exact(X) == Y.scale(2)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            X.divide_exact(RING_XY.zero())

    def test_partial_cancellation_not_divisible(self):
        assert (X**2 + Y).divide_exact(X + Y) is None


class TestDegreeInfo:
    def test_homogeneous(self):
        f = X3**2 * Y3 + Z3**3
        assert (f.degree(), f.is_homogeneous()) == (3, True)

    def test_inhomogeneous(self):
        f = X**2 + Y
        assert (f.degree(), f.is_homogeneous()) == (2, False)

    def test_zero(self):
        zero = RING_XY.zero()
        assert zero.degree() == NEG_INF and zero.is_homogeneous()


class TestCanonicalText:
    def test_ordering_and_signs(self):
        f = Y3 - X3.scale(3)
        assert str(f) == "-3*x + y"

    def test_fraction_and_powers(self):
        f = (X**2).scale(Fraction(3, 2)) - X * Y + RING_XY.one()
        assert str(f) == "3/2*x^2 - x*y + 1"

    def test_zero(self):
        assert str(RING_XY.zero()) == "0"

    def test_graded_before_lex(self):
        assert str(X**2 + Y**3) == "y^3 + x^2"


class TestPrimeTables:
    def test_sizes_and_ranges(self):
        assert all(2**60 < p < 2**61 for p in PRIMES_2_61)
        assert all(2**30 < p < 2**31 for p in PRIMES_2_31)
        assert len(set(PRIMES_2_61)) == len(PRIMES_2_61)
        assert len(set(PRIMES_2_31)) == len(PRIMES_2_31)

    def test_primality(self):
        def is_prime(n):
            return pow(2, n - 1, n) == 1 and pow(3, n - 1, n) == 1 and \
                pow(5, n - 1, n) == 1 and pow(7, n - 1, n) == 1
        assert all(is_prime(p) for p in PRIMES_2_61)
        assert all(is_prime(p) for p in PRIMES_2_31)


@given(f=polynomials(), g=polynomials())
def test_canonical_form_commutes(f, g):
    assert f + g == g + f
    assert str(f + g) == str(g + f)
    assert f * g == g * f
    assert (f - f).is_zero()


WIDE = 2 ** 15


def _shifted(p, shift):
    """p times the monomial x^shift, built without multiplying."""
    return p.ring.from_terms({tuple(a + b for a, b in zip(e, shift)): c
                              for e, c in p.terms.items()})


@given(f=polynomials(), g=polynomials(nonzero=True),
       r=polynomials(max_degree=3),
       scale_f=st.fractions(-9, 9, max_denominator=8).filter(bool),
       content=st.integers(2, 12), den=st.integers(1, 12),
       wide=st.booleans(), shifts=st.tuples(*[st.integers(0, WIDE)] * 3))
@settings(max_examples=150, deadline=None)
def test_exactness_of_division(f, g, r, scale_f, content, den, wide, shifts):
    # g has non-unit content and f a denominator; when wide, f, g and r
    # carry x, y and z exponents of at least 2^15, so products pass 2^16
    # and the packed field widths must follow the degrees
    f = f.scale(scale_f)
    g = g.scale(Fraction(content, den))
    # a nonzero remainder below the degree of g is never a multiple of g
    low = RING_XYZ.from_terms({e: c for e, c in r.terms.items()
                               if sum(e) < g.degree()})
    if wide:
        a, b, c = (WIDE + s for s in shifts)
        f = _shifted(f, (a, 0, 0))
        g = _shifted(g, (0, b, 0))
        r = _shifted(r, (0, 0, c))
    h = f * g
    assert h == bareiss_oracle.multiply(f, g)
    assert h.divide_exact(g) == f
    if not low.is_zero():
        assert (h + low).divide_exact(g) is None
    assert (h + r).divide_exact(g) == bareiss_oracle.divide_exact(h + r, g)


@given(e=st.tuples(*[st.integers(0, 2 * WIDE)] * 3),
       delta=st.tuples(*[st.integers(-2, 2)] * 3),
       coeffs=st.tuples(*[st.integers(1, 9)] * 2))
@settings(max_examples=150)
def test_monomial_division_is_componentwise(e, delta, coeffs):
    # the guard-bit test must see a smaller exponent in any one variable,
    # also when the total degree of the dividend is the larger one
    top = tuple(max(a + d, 0) for a, d in zip(e, delta))
    a, b = coeffs
    q = RING_XYZ.monomial(top, a * b).divide_exact(RING_XYZ.monomial(e, b))
    if all(x >= y for x, y in zip(top, e)):
        assert q == RING_XYZ.monomial([x - y for x, y in zip(top, e)], a)
    else:
        assert q is None


def test_evaluation_homomorphism_100_points():
    from extatica.corpus import SplitMix64
    from seeded_inputs import random_polynomial
    rng = SplitMix64(2024)
    for trial in range(100):
        f = random_polynomial(3, 3, 1000 + trial)
        g = random_polynomial(3, 3, 2000 + trial)
        point = [rng.int_in(-50, 50) for _ in range(3)]
        assert evaluate(f * g, point) == \
            evaluate(f, point) * evaluate(g, point)


@given(f=polynomials(ring=RING_XY, max_degree=3),
       g=polynomials(ring=RING_XY, max_degree=3),
       pt=rational_points(2))
@settings(max_examples=60)
def test_evaluation_homomorphism_rational_points(f, g, pt):
    assert evaluate(f * g, pt) == evaluate(f, pt) * evaluate(g, pt)
    assert evaluate(f + g, pt) == evaluate(f, pt) + evaluate(g, pt)


def test_monomials_come_by_degree_then_graded_lex():
    # the order of every complete monomial system and of the corpus's
    # random coefficients: x^2 > xy > xz > y^2 > yz > z^2 within a degree
    for nvars in range(1, 6):
        for degree in range(7):
            expected = sorted(
                (e for e in itertools.product(range(degree + 1),
                                              repeat=nvars)
                 if sum(e) <= degree),
                key=lambda e: (sum(e), tuple(-x for x in e)))
            assert list(monomials_up_to_degree(nvars, degree)) == expected
