"""Seeded test inputs: random polynomials, homogeneous fields and polynomial
matrices drawn from the corpus's splitmix64 stream, and the projective
plane's surface data for `extatica.bounds.surface_bound`.

Every fixed-seed test reads its data from here, so the data stay the same
byte for byte across platforms.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence

from extatica.corpus import SplitMix64
from extatica.foliation import (HOMOGENEOUS, VectorField,
                                default_variable_names)
from extatica.polyring import (PolyRing, Polynomial, monomials_of_degree,
                               monomials_up_to_degree)


def random_polynomial(nvars: int, degree: int, seed: int,
                      homogeneous: bool = False, coeff_bound: int = 9,
                      names: Optional[Sequence[str]] = None) -> Polynomial:
    """Dense random polynomial with integer coefficients in [-bound, bound],
    not identically zero, deterministic in the seed."""
    ring = PolyRing(tuple(names) if names else default_variable_names(nvars))
    rng = SplitMix64(seed)
    exps = list(monomials_of_degree(nvars, degree) if homogeneous
                else monomials_up_to_degree(nvars, degree))
    while True:
        terms = {e: rng.int_in(-coeff_bound, coeff_bound) for e in exps}
        if any(terms.values()):
            return ring.from_terms(terms)


def random_homogeneous_field(nvars: int, degree: int,
                             seed: int) -> VectorField:
    """Dense random homogeneous-mode field of degree `degree`, coefficients
    uniform in [-9, 9], never the zero field: the draws of
    `extatica.corpus.random_field` over the monomials of one degree."""
    rng = SplitMix64(seed)
    ring = PolyRing(default_variable_names(nvars))
    exps = list(monomials_of_degree(nvars, degree))
    while True:
        comps = tuple(ring.from_terms({e: rng.int_in(-9, 9) for e in exps})
                      for _ in range(nvars))
        if not all(c.is_zero() for c in comps):
            return VectorField(comps, HOMOGENEOUS)


def random_polynomial_matrix(size: int, nvars: int, degree: int, seed: int,
                             max_terms: int = 6, coeff_bound: int = 9):
    """Square matrix of sparse random polynomials (determinant-engine food)."""
    rng = SplitMix64(seed)
    ring = PolyRing(default_variable_names(nvars))
    exps = list(monomials_up_to_degree(nvars, degree))
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.int_in(1, max_terms)):
                e = exps[rng.int_in(0, len(exps) - 1)]
                terms[e] = rng.int_in(-coeff_bound, coeff_bound)
            row.append(ring.from_terms(terms))
        rows.append(row)
    return rows


def plane_surface_input(d: int, k: int, n_invariant: int, genus) -> dict:
    """`surface_bound`'s keywords for the projective plane: h0 = C(k+2, 2),
    h1 = 0, h^0(K-D) = 0, K.K = 9, K.D = -3k, chi = 3."""
    return dict(
        deg_D=k,
        h0=math.comb(k + 2, 2),
        n_invariant=n_invariant,
        deg_foliation=d,
        deg_variety=1,
        h1=0,
        h0_k_minus_d=0,
        k_self=9,
        k_dot_d=-3 * k,
        chi_top=3,
        genus=Fraction(genus),
    )
