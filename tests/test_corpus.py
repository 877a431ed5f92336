from fractions import Fraction

import pytest

from extatica.corpus import (SplitMix64, conic_is_irreducible, hamiltonian,
                             invariant_curve_search, pencil_field,
                             planted_lines_field, random_field, slv,
                             slv1_invariant_conic)
from extatica.extactic import (divides_extactic, extactic, jet_matrix,
                               monomial_system)
from extatica.foliation import (AFFINE, HOMOGENEOUS, apply_derivation,
                                check_invariance, foliation_degree)
from extatica.linalg import det_mod

from conftest import PRIMES_2_61, RING_XY, RING_XYZ, evaluate_mod
from seeded_inputs import random_homogeneous_field

X, Y = RING_XY.variables()


def _candidate_grid(bound, denominators=(1, 2)):
    vals = set()
    for q in denominators:
        for p in range(-bound * q, bound * q + 1):
            vals.add(Fraction(p, q))
    return sorted(vals)


class TestSplitMix64:
    def test_known_stream(self):
        # pinned output of the reference splitmix64 mixing for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535
        assert rng.next_u64() == 7960286522194355700

    def test_determinism(self):
        a = [SplitMix64(99).int_in(-9, 9) for _ in range(50)]
        b = [SplitMix64(99).int_in(-9, 9) for _ in range(50)]
        assert a == b


class TestSlv:
    def test_components_ell_one(self):
        field = slv(1).field
        x, y, z = RING_XYZ.variables()
        assert field.components[0] == x * (y.scale(Fraction(1, 2)) + z)
        assert field.components[1] == y * (z.scale(2) + x)
        assert field.components[2] == z * (y - x.scale(3))

    def test_components_ell_two(self):
        field = slv(2).field
        x, y, z = RING_XYZ.variables()
        assert field.components[2] == z * (y - x.scale(Fraction(5, 3)))

    def test_degree_fact(self):
        for ell in (1, 2, 3):
            assert foliation_degree(slv(ell).field) == 2

    def test_invariant_planes_checked(self):
        entry = slv(1)
        kinds = [f.kind for f in entry.facts]
        assert kinds.count("invariant_divisor") == 3
        for fact in entry.facts:
            if fact.kind == "invariant_divisor":
                cof = check_invariance(entry.field, fact.data["divisor"])
                assert cof is not None
                assert cof.polynomial == fact.data["cofactor"]

    def test_ell_validation(self):
        with pytest.raises(ValueError):
            slv(0)


class TestSlvConic:
    def test_frozen_fixture_verifies(self):
        conic, cof = slv1_invariant_conic()
        field = slv(1).field
        assert apply_derivation(field, conic) == cof * conic
        assert conic_is_irreducible(conic)

    def test_oracle_rederives_conic(self):
        # brute-force bilinear search over small rational cofactors: the
        # only irreducible invariant conic must be the frozen one
        field = slv(1).field
        conic, cof = slv1_invariant_conic()
        found = []
        for curve, cofactor in invariant_curve_search(
                field, 2, 1, _candidate_grid(3)):
            if conic_is_irreducible(curve):
                found.append((curve, cofactor))
        assert len(found) == 1
        got_curve, got_cof = found[0]
        lead = conic.leading_term()[1]
        assert got_curve == conic.scale(Fraction(1, lead))
        assert got_cof == cof

    def test_no_low_degree_vanishing(self):
        # degree-2 system extactics of slv(2) stay nonzero: no conic-level
        # first integral, consistent with the degree-4 algebraic solution
        rep = extactic(slv(2).field, monomial_system(3, 2, HOMOGENEOUS))
        assert not rep.identically_zero


class TestHamiltonian:
    def test_circle(self):
        entry = hamiltonian(X**2 + Y**2)
        assert entry.field.components == (Y.scale(-2), X.scale(2))
        assert apply_derivation(entry.field, X**2 + Y**2).is_zero()

    def test_product_lines(self):
        entry = hamiltonian(X * Y)
        assert entry.field.components == (-X, Y)
        kx = check_invariance(entry.field, X)
        ky = check_invariance(entry.field, Y)
        assert kx.polynomial == RING_XY.constant(-1)
        assert ky.polynomial == RING_XY.one()

    def test_cusp_cubic_extactic_vanishes(self):
        entry = hamiltonian(X**3 - Y**2)
        assert entry.field.components == (Y.scale(2), (X**2).scale(3))
        rep = extactic(entry.field, monomial_system(2, 3, AFFINE))
        assert rep.identically_zero

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian(RING_XY.constant(4))


class TestPencilField:
    def test_coordinate_pencil_is_radial(self):
        entry = pencil_field(X, Y)
        assert entry.field.components == (X, Y)

    def test_parabola_pencil(self):
        entry = pencil_field(X**2, Y)
        assert entry.field.components == (X**2, (X * Y).scale(2))
        f, g = X**2, Y
        cross = apply_derivation(entry.field, f) * g - \
            f * apply_derivation(entry.field, g)
        assert cross.is_zero()

    def test_extactic_vanishes_for_spanning_system(self):
        entry = pencil_field(X**2, Y)
        rep = extactic(entry.field, monomial_system(2, 2, AFFINE))
        assert rep.identically_zero

    def test_proportional_rejected(self):
        with pytest.raises(ValueError):
            pencil_field(X, X.scale(3))


class TestPlantedLines:
    def test_degree_one_is_diagonal(self):
        entry = planted_lines_field(2, 1, 11)
        for i, comp in enumerate(entry.field.components):
            q = comp.divide_exact(entry.field.ring.variable(i))
            assert q is not None and q.is_constant() and not q.is_zero()

    def test_cofactors_match_facts(self):
        entry = planted_lines_field(3, 2, 5)
        for fact in entry.facts:
            cof = check_invariance(entry.field, fact.data["divisor"])
            assert cof is not None
            assert cof.polynomial == fact.data["cofactor"]

    def test_product_divides_extactic(self):
        entry = planted_lines_field(2, 2, 9)
        rep = extactic(entry.field, monomial_system(2, 1, AFFINE))
        assert not rep.identically_zero
        x, y = entry.field.ring.variables()
        assert divides_extactic(x * y, rep)


class TestRandomField:
    def test_bit_identical_reproduction(self):
        a = random_field(3, 2, 314)
        b = random_field(3, 2, 314)
        assert a.components == b.components
        assert str(a) == str(b)

    def test_linear_extactic_generically_nonzero(self):
        hits = sum(
            not extactic(random_field(2, 1, 7000 + s),
                         monomial_system(2, 1, AFFINE)).identically_zero
            for s in range(10))
        assert hits >= 8

    def test_homogeneous_degree(self):
        field = random_homogeneous_field(3, 2, 55)
        assert field.mode == HOMOGENEOUS
        assert foliation_degree(field) == 2


def _nonvanishing_by_evaluation(field, k: int) -> bool:
    """Certify E != 0 by one nonzero evaluation of the jet determinant."""
    system = monomial_system(3, k, HOMOGENEOUS)
    jet = jet_matrix(field, system)
    p = PRIMES_2_61[0]
    for point in [(3, 5, 7), (11, -4, 9), (-6, 13, 2)]:
        mat = [[evaluate_mod(e, point, p) for e in row]
               for row in jet.entries]
        if det_mod(mat, p) != 0:
            return True
    return False


@pytest.mark.slow
def test_slv_no_low_degree_first_integrals_higher_ell():
    # systems of degree 2l' with 2l' < 2l never vanish identically
    for ell in (3, 4):
        field = slv(ell).field
        for two_lp in range(2, 2 * ell, 2):
            assert _nonvanishing_by_evaluation(field, two_lp), (ell, two_lp)


@pytest.mark.slow
def test_slv2_quartic_solution_found_by_search():
    field = slv(2).field
    # no irreducible conic at all for slv(2)
    for curve, _ in invariant_curve_search(field, 2, 1, _candidate_grid(3)):
        assert not conic_is_irreducible(curve)
    # the quartic search over a small cofactor grid finds a solution not
    # divisible by any coordinate plane
    ring = field.ring
    hits = []
    for curve, cof in invariant_curve_search(field, 4, 1, _candidate_grid(4)):
        if all(curve.divide_exact(ring.variable(i)) is None
               for i in range(3)):
            hits.append((curve, cof))
    assert hits, "no coordinate-free invariant quartic found"
    for curve, cof in hits:
        assert apply_derivation(field, curve) == cof * curve
