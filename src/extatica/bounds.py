"""Degree and genus inequalities for foliations with many invariant divisors.

Every function here evaluates one of the paper's two inequalities in exact
rational arithmetic, and reports whether the data are consistent with the
absence of a rational first integral, or violate it and so force one:

- the master inequality deg D * (N - h0) <= (deg F - deg X) * C(h0, 2)
  (`invariant_count_check`), solved for deg D the Poincare quotient
  (deg F - deg X) * C(h0, 2) / (N - h0) (`poincare_degree_bound`).  With
  h0 = C(n+k, k) and deg X = 1 the quotient is M(d, k) on projective
  n-space (`pn_threshold`); with h0 = D^n / n!, the abelian bound
  (`abelian_bound`).
- the surface inequality 2 - 2g <= 2h^1(D) - 2h^0(K-D)
  + 2 (deg F - deg X)/deg D * C(h0, 2) + [K.K - 12 K.D + chi]/6 - 2N
  (`surface_bound`).  On the plane (h0 = C(k+2, 2), h^1(D) = h^0(K-D) = 0,
  K.K = 9, K.D = -3k, chi = 3) its right-hand side is `genus_rhs`, and the
  genus below which it forces a first integral is G(d, k)
  (`genus_threshold`).

The invariant-divisor count N is always an input: counting the divisors
is what these bounds exist to avoid.  The paper's bookkeeping groups
irreducible invariant divisors of every degree with multiplicity; N here is
the plain count of invariant members of the linear system, which is what
every specialized form consumes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

CONSISTENT = "consistent-with-no-first-integral"
FORCES = "forces-first-integral"


class HypothesisNotMetError(ValueError):
    """The inequality's standing hypothesis fails for these inputs."""


@dataclass(frozen=True)
class BoundReport:
    """An inequality lhs <= rhs evaluated by `report`.  `threshold` is the
    formula's threshold on its own input (a divisor degree, k, a genus) or
    None; lhs is None when its input was not given."""

    lhs: Optional[Fraction]
    rhs: Fraction
    verdict: str
    formula: str
    threshold: Optional[Fraction] = None


def report(lhs: Optional[Fraction], rhs: Fraction, formula: str,
           threshold: Optional[Fraction] = None) -> BoundReport:
    """The one verdict rule: FORCES exactly when lhs is given and exceeds
    rhs, CONSISTENT otherwise."""
    forces = lhs is not None and lhs > rhs
    return BoundReport(lhs, rhs, FORCES if forces else CONSISTENT, formula,
                       threshold)


def _refuse_unprintable(what: str, log_value) -> None:
    """Refuse, before it is formed, a number of natural log `log_value()`
    (OverflowError: beyond the float range) with more digits than
    sys.get_int_max_str_digits(): no answer holding it could be printed."""
    limit = sys.get_int_max_str_digits()
    try:
        digits = log_value() / math.log(10)
    except OverflowError:
        digits = math.inf
    if limit and digits >= limit:
        raise ValueError(f"{what} would have more than {limit} digits")


def _log_binomial(top: int, low: int) -> float:
    """ln C(top, low) for 0 <= low <= top / 2, by lgamma while top is exact
    in a float; beyond, the lower bound low * ln(top - low + 1) - ln(low!)."""
    if top < 2 ** 53:
        return (math.lgamma(top + 1) - math.lgamma(low + 1)
                - math.lgamma(top - low + 1))
    return low * math.log(top - low + 1) - math.lgamma(low + 1)


def _check_system(h0: int, n_invariant: int, deg_variety: int) -> None:
    """h0 and N non-negative, then h0 >= 1, then deg X >= 1."""
    for name, value in (("h0", h0), ("n_invariant", n_invariant)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if h0 < 1:
        raise ValueError("h0 must be at least 1")
    if deg_variety < 1:
        raise ValueError("deg_variety must be at least 1")


def _poincare_quotient(h0: int, n_invariant: int, deg_foliation: int,
                       deg_variety: int) -> Fraction:
    """(deg F - deg X) * C(h0, 2) / (N - h0), unchecked: the master
    inequality solved for deg D."""
    return Fraction((deg_foliation - deg_variety) * math.comb(h0, 2),
                    n_invariant - h0)


def _surface_rhs(deg_D: int, h0: int, n_invariant: int, deg_foliation: int,
                 deg_variety: int, h1: int, h0_k_minus_d: int, k_self: int,
                 k_dot_d: int, chi_top: int) -> Fraction:
    """2h^1 - 2h^0(K-D) + 2 (deg F - deg X)/deg D * C(h0, 2)
    + [K.K - 12 K.D + chi]/6 - 2N, unchecked, over one denominator."""
    return Fraction(
        6 * deg_D * (2 * h1 - 2 * h0_k_minus_d - 2 * n_invariant)
        + 12 * (deg_foliation - deg_variety) * math.comb(h0, 2)
        + deg_D * (k_self - 12 * k_dot_d + chi_top), 6 * deg_D)


def invariant_count_check(*, deg_D: int, h0: int, n_invariant: int,
                          deg_foliation: int,
                          deg_variety: int = 1) -> BoundReport:
    """deg(D) * (N - h0)  <=  (deg F - deg X) * C(h0, 2).

    The master inequality for N invariant divisors of degree deg D in a
    linear system of dimension h0: violated inputs force a rational first
    integral.  When N > h0 the threshold is `poincare_degree_bound`.
    """
    _check_system(h0, n_invariant, deg_variety)
    lhs = Fraction(deg_D * (n_invariant - h0))
    rhs = Fraction((deg_foliation - deg_variety) * math.comb(h0, 2))
    threshold = (poincare_degree_bound(
        h0=h0, n_invariant=n_invariant, deg_foliation=deg_foliation,
        deg_variety=deg_variety) if n_invariant > h0 else None)
    return report(lhs, rhs, "theorem1", threshold)


def poincare_degree_bound(*, h0: int, n_invariant: int, deg_foliation: int,
                          deg_variety: int = 1) -> Fraction:
    """(deg F - deg X) * C(h0, 2) / (N - h0): the largest divisor degree
    consistent with having no rational first integral; needs N > h0."""
    _check_system(h0, n_invariant, deg_variety)
    if n_invariant <= h0:
        raise HypothesisNotMetError(
            f"need n_invariant > h0 (got {n_invariant} <= {h0})")
    return _poincare_quotient(h0, n_invariant, deg_foliation, deg_variety)


def pn_threshold(d: int, k: int, n: int, n_invariant: int) -> Fraction:
    """M(d, k) = (d-1) * C(h0, 2) / (N - h0), h0 = C(n+k, k): the Poincare
    quotient on projective n-space.  With N > h0 invariant hypersurfaces
    of degree k, any k above it forces a rational first integral."""
    if d < 2:
        raise ValueError("need foliation degree d >= 2")
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    _refuse_unprintable("C(n+k, k)", lambda: _log_binomial(n + k, min(n, k)))
    h0 = math.comb(n + k, k)
    if n_invariant <= h0:
        raise HypothesisNotMetError(
            f"need n_invariant > C(n+k, k) = {h0} (got {n_invariant})")
    return _poincare_quotient(h0, n_invariant, d, 1)


def genus_rhs(d: int, k: int, n_invariant: int) -> Fraction:
    """[d(k^3+6k^2+11k+6) - k^3 - 6k^2 + 13k + 2] / 4 - 2N: the surface
    right-hand side on the plane, for a degree-k invariant curve of a
    degree-d foliation with N invariant degree-k curves."""
    if d < 2 or k < 1 or n_invariant < 1:
        raise ValueError("need d >= 2, k >= 1, n_invariant >= 1")
    return _surface_rhs(deg_D=k, h0=math.comb(k + 2, 2),
                        n_invariant=n_invariant, deg_foliation=d,
                        deg_variety=1, h1=0, h0_k_minus_d=0, k_self=9,
                        k_dot_d=-3 * k, chi_top=3)


def genus_threshold(d: int, k: int, n_invariant: int) -> Fraction:
    """(2 - genus_rhs) / 2: an invariant degree-k curve of virtual genus
    strictly below this forces a rational first integral of degree <= k."""
    return (2 - genus_rhs(d, k, n_invariant)) / 2


def surface_bound(*, deg_D: int, h0: int, n_invariant: int,
                  deg_foliation: int, deg_variety: int = 1, h1: int,
                  h0_k_minus_d: int, k_self: int, k_dot_d: int, chi_top: int,
                  genus) -> BoundReport:
    """The surface inequality 2 - 2g <= `_surface_rhs` for an invariant
    curve of virtual genus g; h1, h0_k_minus_d, k_self, k_dot_d, chi_top
    are h^1(D), h^0(K-D), K.K, K.D and the topological Euler number."""
    _check_system(h0, n_invariant, deg_variety)
    if deg_D <= 0:
        raise ValueError("need deg_D > 0")
    rhs = _surface_rhs(deg_D, h0, n_invariant, deg_foliation, deg_variety,
                       h1, h0_k_minus_d, k_self, k_dot_d, chi_top)
    return report(2 - 2 * Fraction(genus), rhs, "cor")


def abelian_bound(d_self_n: int, n: int, n_invariant: int,
                  deg_foliation: int, deg_variety: int) -> Fraction:
    """The Poincare quotient with h0 = D^n / n!, on an ambient with trivial
    higher cohomology.  `d_self_n`, the top self-intersection D^n, must be
    non-negative and divisible by n!, and the count must exceed h0."""
    if n < 1:
        raise ValueError("need n >= 1")
    _refuse_unprintable("n!", lambda: math.lgamma(n + 1))
    fact = math.factorial(n)
    if d_self_n % fact != 0:
        raise ValueError(
            f"D^n = {d_self_n} is not divisible by n! = {fact}")
    if d_self_n < 0:
        raise ValueError(f"need D^n >= 0 (got {d_self_n})")
    h0 = d_self_n // fact
    if n_invariant <= h0:
        raise HypothesisNotMetError(
            f"need n_invariant > D^n/n! = {h0} (got {n_invariant})")
    return _poincare_quotient(h0, n_invariant, deg_foliation, deg_variety)
