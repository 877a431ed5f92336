from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extatica.foliation import (AFFINE, HOMOGENEOUS, DegenerateFieldError,
                                InvalidDivisorError, VectorField,
                                apply_derivation, check_invariance,
                                foliation_degree)
from extatica.corpus import slv
from extatica.polyring import ContextError

from conftest import RING_XY, RING_XYZ, polynomials
from seeded_inputs import random_polynomial

X, Y = RING_XY.variables()


def weighted_field():
    return VectorField((X, Y.scale(2)), AFFINE)


class TestApplyDerivation:
    def test_weighted_scaling(self):
        assert apply_derivation(weighted_field(), X**2 * Y) == \
            (X**2 * Y).scale(4)

    def test_kills_constants(self):
        assert apply_derivation(weighted_field(), RING_XY.constant(7)).is_zero()

    def test_slv_first_component(self):
        field = slv(1).field
        x = RING_XYZ.variable(0)
        expected = RING_XYZ.from_terms({(1, 1, 0): Fraction(1, 2),
                                        (1, 0, 1): 1})
        assert apply_derivation(field, x) == expected

    def test_context_mismatch(self):
        with pytest.raises(ContextError):
            apply_derivation(weighted_field(), RING_XYZ.variable(0))


class TestFoliationDegree:
    def test_slv_homogeneous(self):
        assert foliation_degree(slv(1).field) == 2

    def test_affine_radial_multiple(self):
        # the top part x * (x, y) is radial; the degree is not lowered
        assert foliation_degree(VectorField((X**2, X * Y), AFFINE)) == 2

    def test_affine_generic_top(self):
        assert foliation_degree(VectorField((X**2, Y), AFFINE)) == 2

    def test_zero_field(self):
        with pytest.raises(DegenerateFieldError):
            foliation_degree(VectorField((RING_XY.zero(), RING_XY.zero()),
                                         AFFINE))

    def test_homogeneous_mode_validation(self):
        with pytest.raises(ContextError):
            VectorField((X, Y**2), HOMOGENEOUS)


class TestCheckInvariance:
    def test_coordinate_axis(self):
        cof = check_invariance(weighted_field(), X)
        assert cof is not None and cof.polynomial == RING_XY.one()

    def test_not_invariant(self):
        assert check_invariance(weighted_field(), X + Y) is None

    def test_slv_z_plane(self):
        field = slv(1).field
        z = RING_XYZ.variable(2)
        cof = check_invariance(field, z)
        assert cof is not None
        assert cof.polynomial == RING_XYZ.variable(1) - \
            RING_XYZ.variable(0).scale(3)

    def test_homogeneous_cofactor_degree(self):
        # degree bookkeeping: a degree-d field raises degree by d-1
        field = slv(1).field
        for i in range(3):
            cof = check_invariance(field, field.ring.variable(i))
            assert cof.polynomial.degree() == 1

    def test_constant_divisor_rejected(self):
        with pytest.raises(InvalidDivisorError):
            check_invariance(weighted_field(), RING_XY.constant(3))

    def test_inhomogeneous_divisor_rejected_in_homogeneous_mode(self):
        field = slv(1).field
        with pytest.raises(InvalidDivisorError):
            check_invariance(field, field.ring.variable(0) + 1)


class TestRadialField:
    def test_euler_identity_example(self):
        r = VectorField(RING_XYZ.variables(), HOMOGENEOUS)
        f = RING_XYZ.variable(0) * RING_XYZ.variable(1) * RING_XYZ.variable(2)
        assert apply_derivation(r, f) == f.scale(3)


@given(f=polynomials(ring=RING_XY, max_degree=3),
       g=polynomials(ring=RING_XY, max_degree=3),
       p=polynomials(ring=RING_XY, max_degree=2),
       q=polynomials(ring=RING_XY, max_degree=2))
@settings(max_examples=100)
def test_leibniz_rule(f, g, p, q):
    field = VectorField((p, q), AFFINE)
    lhs = apply_derivation(field, f * g)
    rhs = f * apply_derivation(field, g) + g * apply_derivation(field, f)
    assert lhs == rhs


@given(components=st.lists(polynomials(ring=RING_XYZ, max_degree=3),
                           min_size=3, max_size=3),
       f=polynomials(ring=RING_XYZ, max_degree=4),
       scales=st.lists(st.fractions(-5, 5, max_denominator=7).filter(bool),
                       min_size=4, max_size=4))
@settings(max_examples=100)
def test_derivation_is_the_sum_of_products(components, f, scales):
    # one accumulator for all components, over denominators that differ
    # from component to component
    comps = [c.scale(s) for c, s in zip(components, scales)]
    f = f.scale(scales[3])
    expected = sum((c * f.partial_derivative(v) for v, c in enumerate(comps)),
                   RING_XYZ.zero())
    got = apply_derivation(VectorField(tuple(comps), AFFINE), f)
    assert got == expected and str(got) == str(expected)


def test_one_step_reads_the_components_of_the_used_variables():
    # f = x + 2 reads only the x component; the z component, of higher
    # degree and with its own denominator, does not enter the result
    x, y, z = RING_XYZ.variables()
    comps = (y.scale(Fraction(1, 3)) + x * y, x ** 2,
             (z ** 6).scale(Fraction(1, 7)) + y)
    field = VectorField(comps, AFFINE)
    got = apply_derivation(field, x + 2)
    assert got == comps[0] and str(got) == str(comps[0])
    assert apply_derivation(field, RING_XYZ.constant(5)).is_zero()
    assert apply_derivation(field, z) == comps[2]


def test_cofactor_soundness_and_multiplicativity():
    from extatica.corpus import planted_lines_field
    for seed in range(10):
        entry = planted_lines_field(2, 2, seed)
        field = entry.field
        x, y = field.ring.variables()
        kx = check_invariance(field, x)
        ky = check_invariance(field, y)
        assert kx is not None and ky is not None
        assert apply_derivation(field, x) == kx.polynomial * x
        kxy = check_invariance(field, x * y)
        assert kxy is not None
        assert kxy.polynomial == kx.polynomial + ky.polynomial


def test_euler_identity_random_homogeneous():
    r = VectorField(RING_XYZ.variables(), HOMOGENEOUS)
    for trial in range(20):
        for deg in (1, 2, 3):
            f = random_polynomial(3, deg, 5000 + 10 * trial + deg,
                                  homogeneous=True)
            assert apply_derivation(r, f) == f.scale(deg)
