"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Fixture seeds are frozen; every expected value is
either a hand-checked closed form or re-verified in place by an exact
identity.
"""

import functools
import math
import time
from fractions import Fraction

from extatica.bounds import (genus_rhs, genus_threshold,
                             invariant_count_check, pn_threshold,
                             poincare_degree_bound, surface_bound, CONSISTENT)
from extatica.corpus import (SplitMix64, hamiltonian, pencil_field,
                             planted_lines_field, slv)
from extatica.extactic import (LinearSystem, det_fraction_free, det_modular,
                               divides_extactic, extactic,
                               extract_first_integral, monomial_system)
from extatica.foliation import (AFFINE, HOMOGENEOUS, VectorField,
                                apply_derivation, check_invariance,
                                foliation_degree)
from extatica.cli import parse_polynomial, parse_vector_field
from extatica.polyring import PolyRing

from golden_cases import GOLDEN_CASES
from seeded_inputs import (plane_surface_input, random_homogeneous_field,
                           random_polynomial, random_polynomial_matrix)
from test_cli import run_cli

RING3 = PolyRing(("x", "y", "z"))

PENCIL_SPECS = [
    (1, 1, 11001, 21001), (1, 1, 11002, 21002), (1, 1, 11003, 21003),
    (1, 1, 11004, 21004), (1, 1, 11005, 21005), (1, 1, 11006, 21006),
    (1, 1, 11007, 21007), (1, 1, 11008, 21008), (1, 1, 11009, 21009),
    (1, 1, 11010, 21010), (1, 2, 11011, 21011), (1, 2, 11012, 21012),
    (1, 2, 11013, 21013), (1, 2, 11014, 21014), (1, 2, 11015, 21015),
    (1, 2, 11016, 21016), (1, 2, 11017, 21017), (1, 2, 11018, 21018),
    (1, 2, 11019, 21019), (1, 2, 11020, 21020), (2, 2, 11021, 21021),
    (2, 2, 11022, 21022), (2, 2, 11023, 21023), (2, 2, 11024, 21024),
    (2, 2, 11025, 21025),
]

HAMILTONIAN_QUADRATIC_SEEDS = list(range(31001, 31023))

PLANTED_SPECS = [
    (2, 1, 41001), (2, 1, 41002), (2, 1, 41004), (2, 1, 41005),
    (2, 1, 41006), (2, 1, 41007), (2, 1, 41008), (2, 1, 41009),
    (2, 2, 41010), (2, 2, 41011), (2, 2, 41012), (2, 2, 41013),
    (2, 2, 41014), (2, 2, 41015), (2, 2, 41016), (2, 2, 41017),
    (3, 1, 41018), (3, 1, 41019), (3, 1, 41020), (3, 1, 41021),
    (3, 1, 41022), (3, 1, 41023), (3, 1, 41024), (3, 2, 41025),
    (3, 2, 41026), (3, 2, 41027), (3, 2, 41028), (3, 2, 41029),
    (3, 2, 41030), (3, 2, 41031),
]


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {title}")
                raise
            elapsed = time.monotonic() - started
            print(f"ACCEPTANCE {number} PASS  {title} ({elapsed:.1f}s)")
        return run
    return wrap


def _verified_first_integral(field, system):
    fi = extract_first_integral(field, system)
    ident = apply_derivation(field, fi.numerator) * fi.denominator - \
        fi.numerator * apply_derivation(field, fi.denominator)
    assert ident.is_zero()
    return fi


@criterion(1, "Lotka-Volterra family reproduction")
def test_criterion_1_slv_reproduction():
    started = time.monotonic()
    expected_1 = parse_vector_field(
        "x*(1/2*y + z), y*(2*z + x), z*(y - 3*x)", RING3)
    expected_2 = parse_vector_field(
        "x*(1/2*y + z), y*(2*z + x), z*(y - 5/3*x)", RING3)
    assert list(slv(1).field.components) == expected_1
    assert list(slv(2).field.components) == expected_2
    for i in range(3):
        assert check_invariance(slv(1).field, RING3.variable(i)) is not None
    for k in (1, 2):
        rep = extactic(slv(1).field, monomial_system(3, k, HOMOGENEOUS))
        assert not rep.identically_zero
    assert time.monotonic() - started < 10.0


@criterion(2, "vanishing extactic always yields a verified first integral")
def test_criterion_2_dichotomy_positive():
    started = time.monotonic()
    fixtures = []
    for df, dg, sf, sg in PENCIL_SPECS:
        f = random_polynomial(2, df, sf)
        g = random_polynomial(2, dg, sg)
        fixtures.append((pencil_field(f, g).field, max(df, dg)))
    for seed in HAMILTONIAN_QUADRATIC_SEEDS:
        h = random_polynomial(2, 2, seed)
        fixtures.append((hamiltonian(h).field, 2))
    ring = PolyRing(("x", "y"))
    x, y = ring.variables()
    for h in (x**3 - y**2, x**3 + y**3 - (x * y).scale(3),
              x**3 - (x * y).scale(2) + y**2 + x):
        fixtures.append((hamiltonian(h).field, 3))
    assert len(fixtures) == 50
    for field, k in fixtures:
        system = monomial_system(2, k, AFFINE)
        rep = extactic(field, system)
        assert rep.identically_zero and rep.extactic.is_zero()
        _verified_first_integral(field, system)
    assert time.monotonic() - started < 60.0


@criterion(3, "planted hyperplane products divide the extactic exactly")
def test_criterion_3_divisibility():
    for n, d, seed in PLANTED_SPECS:
        entry = planted_lines_field(n, d, seed)
        rep = extactic(entry.field, monomial_system(n, 1, AFFINE))
        assert not rep.identically_zero
        product = entry.field.ring.one()
        for i in range(n):
            product = product * entry.field.ring.variable(i)
        assert divides_extactic(product, rep)
        quotient = rep.extactic.divide_exact(product)
        assert quotient is not None and quotient * product == rep.extactic


@criterion(4, "degree law: deg E <= 3d with generic equality")
def test_criterion_4_degree_law():
    equality = 0
    system = monomial_system(3, 1, HOMOGENEOUS)
    for s in range(50):
        field = random_homogeneous_field(3, 2, 51000 + s)
        rep = extactic(field, system)
        d = foliation_degree(field)
        assert rep.degree_bound == 3 * 1 + (d - 1) * math.comb(3, 2) == 3 * d
        if not rep.identically_zero:
            assert rep.degree <= 3 * d
            if rep.degree == 3 * d:
                equality += 1
    assert equality >= 45


@criterion(5, "radial/scaling/basis-change symmetries hold exactly")
def test_criterion_5_symmetries():
    system = monomial_system(3, 1, HOMOGENEOUS)
    m = system.dimension
    r = VectorField(RING3.variables(), HOMOGENEOUS)
    for s in range(20):
        field = random_homogeneous_field(3, 2, 61000 + s)
        base = extactic(field, system).extactic
        g = random_polynomial(3, 1, 62000 + s, homogeneous=True)
        shifted = VectorField(
            tuple(p + g * rc for p, rc in zip(field.components,
                                              r.components)), HOMOGENEOUS)
        assert extactic(shifted, system).extactic == base
    for s in range(20):
        field = random_homogeneous_field(3, 2, 63000 + s)
        base = extactic(field, system).extactic
        h = random_polynomial(3, 1, 64000 + s, homogeneous=True)
        scaled = VectorField(tuple(h * p for p in field.components),
                             HOMOGENEOUS)
        assert extactic(scaled, system).extactic == \
            h ** math.comb(m, 2) * base
    rng = SplitMix64(65000)
    for s in range(20):
        field = random_homogeneous_field(3, 2, 66000 + s)
        base = extactic(field, system)
        while True:
            mix = [[Fraction(rng.int_in(-4, 4)) for _ in range(m)]
                   for _ in range(m)]
            det_mix = _exact_det3(mix)
            if det_mix != 0:
                break
        basis = tuple(
            sum((system.basis[j].scale(mix[i][j]) for j in range(m)),
                RING3.zero())
            for i in range(m))
        mixed = extactic(field, LinearSystem(basis, 1, HOMOGENEOUS))
        assert mixed.extactic == base.extactic.scale(det_mix)
        assert mixed.identically_zero == base.identically_zero


def _exact_det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


@criterion(6, "determinant engines agree bit for bit")
def test_criterion_6_engine_equivalence():
    started = time.monotonic()
    sizes = [2, 3, 4, 5, 6]
    for s in range(200):
        size = sizes[s % len(sizes)]
        matrix = random_polynomial_matrix(size, 2, 3, 71000 + s)
        a = det_fraction_free(matrix)
        b = det_modular(matrix)
        assert a == b
        assert str(a) == str(b)
    assert time.monotonic() - started < 120.0


@criterion(7, "closed-form bound arithmetic reproduces exactly")
def test_criterion_7_bounds():
    assert genus_rhs(2, 2, 1) == 27
    assert genus_rhs(2, 1, 1) == 12
    for k in range(1, 11):
        assert Fraction(9 - 12 * (-3 * k) + 3, 6) == 6 * k + 2
    for d in range(2, 7):
        for k in range(1, 11):
            for count in range(1, 51):
                rep = surface_bound(**plane_surface_input(d, k, count, 0))
                assert rep.rhs == genus_rhs(d, k, count)
                assert 2 - 2 * genus_threshold(d, k, count) == rep.rhs
    assert pn_threshold(2, 2, 2, 7) == 15
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
        while lo < hi:
            mid = (lo + hi + 1) // 2
            rep = invariant_count_check(deg_D=mid, **system)
            if rep.verdict == CONSISTENT:
                lo = mid
            else:
                hi = mid - 1
        assert lo == math.floor(bound)


@criterion(8, "parser and CLI honor the golden-file and exit-code contract")
def test_criterion_8_cli_contract():
    import json
    import pathlib
    expected_1 = parse_vector_field(
        "x*(1/2*y + z), y*(2*z + x), z*(y - 3*x)", RING3)
    assert list(slv(1).field.components) == expected_1
    assert str(parse_polynomial("x*(1/2*y + z)", RING3)) == "1/2*x*y + x*z"
    golden_dir = pathlib.Path(__file__).parent / "goldens"
    for name, argv in GOLDEN_CASES:
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert out == (golden_dir / f"{name}.json").read_text(), name
    code, _, err = run_cli(["parse", "--vars", "x,y", "x +* y"])
    assert code == 2 and json.loads(err)["error"]
    code, _, err = run_cli(["bound", "pn", "--d", "2", "--k", "2", "--n",
                            "2", "--count", "3"])
    assert code == 3
    code, _, err = run_cli(["extactic", "--vars", "x,y", "--field",
                            "x, 2*y", "--k", "6"])
    assert code == 4
