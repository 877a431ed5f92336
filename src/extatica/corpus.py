"""Built-in vector fields with known behavior.

The CLI's corpus selectors (`slv:`, `random:`, `planted:`, `hamiltonian:`,
`pencil:`) and the benchmark workloads draw their fields from here: the
`slv` family with the frozen conic of `slv(1)`, Hamiltonian and pencil
fields (positive controls for first integrals), planted invariant
hyperplanes and dense random fields.  `invariant_curve_search` and
`conic_is_irreducible` back `scripts/slv_survey.py` and re-derive the
frozen conic in the tests.

Every entry's machine-checkable claims (cofactors, cross identities, the
planted first integral) are re-verified at construction time; construction
fails loudly if a claim does not hold.  Claims that cannot be checked
cheaply (non-existence of rational first integrals, degrees of irreducible
algebraic solutions) are carried as reported facts.

All randomness flows from one 64-bit seed through splitmix64 (the generator
below), so fixtures are reproducible byte for byte across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .foliation import (AFFINE, HOMOGENEOUS, VectorField,
                        apply_derivation, check_invariance,
                        default_variable_names)
from .linalg import kernel, reduce_rational
from .polyring import PolyRing, Polynomial, monomials_of_degree, \
    monomials_up_to_degree, proportional


@dataclass(frozen=True)
class Fact:
    """One tagged claim about a corpus field.

    `checked` marks claims re-verified at construction; unchecked claims are
    reported from the family's published description.
    """

    kind: str
    statement: str
    checked: bool
    data: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    field: VectorField
    facts: tuple


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: tiny, documented, stable across platforms.

    state' = state + 0x9E3779B97F4A7C15; output mixes the new state with two
    xor-shift-multiply rounds.  Used for every seeded corpus generator.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi] (range << 2^64)."""
        return lo + self.next_u64() % (hi - lo + 1)


def random_field(nvars: int, degree: int, seed: int) -> VectorField:
    """Dense random affine field of degree <= `degree`, coefficients uniform
    in [-9, 9], never the zero field."""
    if nvars < 2 or degree < 0:
        raise ValueError("need nvars >= 2 and degree >= 0")
    rng = SplitMix64(seed)
    ring = PolyRing(default_variable_names(nvars))
    exps = list(monomials_up_to_degree(nvars, degree))
    while True:
        comps = []
        for _ in range(nvars):
            comps.append(ring.from_terms(
                {e: rng.int_in(-9, 9) for e in exps}))
        if not all(c.is_zero() for c in comps):
            return VectorField(tuple(comps), AFFINE)


# ---------------------------------------------------------------------------
# the Lotka-Volterra family
# ---------------------------------------------------------------------------

#: Irreducible invariant conic of slv(1) and its cofactor, found by
#: `invariant_curve_search` (the brute-force bilinear solver below) and
#: frozen here; re-derived and re-verified by the test suite.
SLV1_CONIC_TERMS = {(2, 0, 0): 4, (1, 1, 0): -4, (0, 2, 0): 1, (0, 1, 1): -2}
SLV1_CONIC_COFACTOR_TERMS = {(0, 0, 1): 2}


def slv(ell: int) -> CorpusEntry:
    """The degree-2 Lotka-Volterra field
    (x(y/2 + z), y(2z + x), z(y - (2l+1)/(2l-1) x)).

    Each member has no rational first integral but carries an irreducible
    algebraic solution of degree 2l; the coordinate planes are always
    invariant (checked here, with their cofactors).
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.variables()
    lam = Fraction(2 * ell + 1, 2 * ell - 1)
    comps = (
        x * (y.scale(Fraction(1, 2)) + z),
        y * (z.scale(2) + x),
        z * (y - x.scale(lam)),
    )
    field = VectorField(comps, HOMOGENEOUS)
    facts = [Fact("foliation_degree", "foliation degree 2", True,
                  {"degree": 2})]
    for i, name in enumerate(("x", "y", "z")):
        cof = check_invariance(field, ring.variable(i))
        if cof is None:
            raise AssertionError(f"coordinate plane {name} not invariant")
        facts.append(Fact(
            "invariant_divisor",
            f"{name} = 0 is invariant with cofactor {cof.polynomial}",
            True, {"divisor": ring.variable(i), "cofactor": cof.polynomial}))
    facts.append(Fact("no_first_integral",
                      "no rational first integral (reported)", False))
    facts.append(Fact(
        "algebraic_solution_degree",
        f"irreducible algebraic solution of degree {2 * ell} (reported; "
        "the l=1 conic is re-derived by the bilinear search oracle)",
        False, {"degree": 2 * ell}))
    return CorpusEntry(f"slv:{ell}", field, tuple(facts))


def slv1_invariant_conic() -> tuple:
    """(conic, cofactor) for slv(1), verified on the spot."""
    ring = PolyRing(("x", "y", "z"))
    conic = ring.from_terms(SLV1_CONIC_TERMS)
    cof = ring.from_terms(SLV1_CONIC_COFACTOR_TERMS)
    field = slv(1).field
    if apply_derivation(field, conic) != cof * conic:
        raise AssertionError("frozen slv(1) conic failed verification")
    return conic, cof


# ---------------------------------------------------------------------------
# positive controls for the vanishing/first-integral direction
# ---------------------------------------------------------------------------

def hamiltonian(h: Polynomial) -> CorpusEntry:
    """The area-preserving field (-dh/dy, dh/dx); h is a first integral.

    The extactic of any system whose basis spans all monomials through
    deg h therefore vanishes identically.
    """
    if h.ring.nvars != 2:
        raise ValueError("need a polynomial in exactly 2 variables")
    if h.is_constant():
        raise ValueError("need a non-constant polynomial")
    field = VectorField((-h.partial_derivative(1), h.partial_derivative(0)),
                        AFFINE)
    if not apply_derivation(field, h).is_zero():
        raise AssertionError("X(h) != 0 for a Hamiltonian field")
    facts = (
        Fact("first_integral", f"{h} is a polynomial first integral", True,
             {"numerator": h, "denominator": h.ring.one()}),
    )
    return CorpusEntry(f"hamiltonian:{h}", field, facts)


def pencil_field(f: Polynomial, g: Polynomial) -> CorpusEntry:
    """A field tangent to the pencil of f and g: rational first integral f/g.

    X = (g_y f - f_y g) d/dx + (f_x g - g_x f) d/dy; both f and g are
    invariant with the same cofactor, so X(f) g - f X(g) = 0 (checked)."""
    if f.ring != g.ring or f.ring.nvars != 2:
        raise ValueError("need two polynomials in one 2-variable ring")
    if proportional(f, g):
        raise ValueError("pencil members must be non-proportional")
    comps = (
        g.partial_derivative(1) * f - f.partial_derivative(1) * g,
        f.partial_derivative(0) * g - g.partial_derivative(0) * f,
    )
    if all(c.is_zero() for c in comps):
        raise ValueError("degenerate pencil: the cross field vanishes")
    field = VectorField(comps, AFFINE)
    cross = apply_derivation(field, f) * g - f * apply_derivation(field, g)
    if not cross.is_zero():
        raise AssertionError("pencil cross identity failed")
    facts = (
        Fact("first_integral", f"({f}) / ({g}) is a rational first integral",
             True, {"numerator": f, "denominator": g}),
    )
    return CorpusEntry(f"pencil:{f}:{g}", field, facts)


# ---------------------------------------------------------------------------
# planted invariant hyperplanes
# ---------------------------------------------------------------------------

def planted_lines_field(n: int, d: int, seed: int) -> CorpusEntry:
    """Random field with components x_i * q_i (deg q_i = d-1, coefficients
    in [-5, 5]): every coordinate hyperplane is invariant with cofactor q_i,
    so their product divides the degree-1-system extactic whenever that
    extactic is nonzero."""
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    rng = SplitMix64(seed)
    ring = PolyRing(default_variable_names(n))
    exps = list(monomials_up_to_degree(n, d - 1))
    top = [e for e in exps if sum(e) == d - 1]
    comps = []
    facts = []
    for i in range(n):
        while True:
            terms = {e: rng.int_in(-5, 5) for e in exps}
            q = ring.from_terms(terms)
            if not q.is_zero() and any(terms[e] for e in top):
                break
        comps.append(ring.variable(i) * q)
        facts.append(Fact(
            "invariant_divisor",
            f"{ring.names[i]} = 0 is invariant with cofactor {q}", True,
            {"divisor": ring.variable(i), "cofactor": q}))
    field = VectorField(tuple(comps), AFFINE)
    for fact in facts:
        cof = check_invariance(field, fact.data["divisor"])
        if cof is None or cof.polynomial != fact.data["cofactor"]:
            raise AssertionError("planted hyperplane lost its cofactor")
    return CorpusEntry(f"planted:{n},{d},{seed}", field, tuple(facts))


# ---------------------------------------------------------------------------
# brute-force invariant-curve search (the test-suite oracle)
# ---------------------------------------------------------------------------

def invariant_curve_search(field: VectorField, curve_degree: int,
                           cofactor_degree: int,
                           coefficient_candidates: Sequence[Fraction]
                           ) -> Iterator[tuple]:
    """Yield (curve, cofactor) pairs with X(curve) = cofactor * curve.

    Brute force over the cofactor: for each candidate coefficient vector of
    the cofactor, the relation is linear in the curve coefficients, so the
    kernel of that linear map is computed exactly; every non-trivial kernel
    vector is re-verified by multiplication before being yielded.  Desk
    scale only: the candidate grid is exponential in the cofactor dimension.
    """
    ring = field.ring
    curve_exps = list(monomials_of_degree(ring.nvars, curve_degree))
    cof_exps = list(monomials_of_degree(ring.nvars, cofactor_degree))
    curve_mons = [ring.monomial(e) for e in curve_exps]
    derived = [apply_derivation(field, s) for s in curve_mons]
    seen = set()
    for combo in product(coefficient_candidates, repeat=len(cof_exps)):
        cof = ring.from_terms(dict(zip(cof_exps, combo)))
        # rows of the linear system: coefficients of X(s_j) - cof * s_j
        columns = [derived[j] - cof * curve_mons[j]
                   for j in range(len(curve_mons))]
        row_exps = sorted({e for col in columns for e in col.terms})
        mat = [[col.terms.get(e, Fraction(0)) for col in columns]
               for e in row_exps]
        for vec in kernel(mat, len(curve_mons)):
            curve = ring.from_terms(dict(zip(curve_exps, vec)))
            if curve.is_zero():
                continue
            curve = _normalize(curve)
            key = (tuple(sorted(curve.terms.items())),
                   tuple(sorted(cof.terms.items())))
            if key in seen:
                continue
            seen.add(key)
            if apply_derivation(field, curve) != cof * curve:
                raise AssertionError("search produced an unverified pair")
            yield curve, cof


def _normalize(p: Polynomial) -> Polynomial:
    _, c = p.leading_term()
    return p.scale(1 / c)


def conic_is_irreducible(conic: Polynomial) -> bool:
    """A ternary quadratic form is irreducible iff its symmetric matrix is
    non-singular."""
    if conic.ring.nvars != 3 or conic.degree() != 2 \
            or not conic.is_homogeneous():
        raise ValueError("need a homogeneous ternary quadratic")
    t = conic.terms

    def get(i, j):
        e = [0, 0, 0]
        e[i] += 1
        e[j] += 1
        c = t.get(tuple(e), Fraction(0))
        return c if i == j else c / 2

    _, _, det = reduce_rational([[get(i, j) for j in range(3)]
                                 for i in range(3)])
    return det != 0
