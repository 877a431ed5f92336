"""Seeded test inputs: random polynomials and polynomial matrices drawn from
the corpus's splitmix64 stream, and the projective plane's surface data for
`extatica.bounds.surface_bound`.

Every fixed-seed test reads its data from here, so the data stay the same
byte for byte across platforms.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence

from extatica.bounds import BoundInput
from extatica.corpus import SplitMix64
from extatica.foliation import default_variable_names
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


def plane_surface_input(d: int, k: int, n_invariant: int,
                        genus) -> BoundInput:
    """BoundInput for the projective plane: h0 = C(k+2, 2), h1 = 0,
    h^0(K-D) = 0, K.K = 9, K.D = -3k, chi = 3."""
    return BoundInput(
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
