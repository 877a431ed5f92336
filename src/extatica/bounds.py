"""Degree and genus inequalities for foliations with many invariant divisors.

Every function here evaluates a closed-form inequality exactly (rational
arithmetic throughout) and reports whether the given data are consistent
with the absence of a rational first integral, or violate the inequality
and therefore force one.

Cohomological inputs (h^1, h^0 of K-D, intersection numbers, Euler
characteristics) are caller-supplied everywhere except on the projective
plane, where the standard values are built in.  The invariant-divisor count
is always an input: certifying a single divisor is cheap, counting all of
them is exactly what these bounds exist to avoid.

Note on the count: the degree bookkeeping behind the main inequality groups
irreducible invariant divisors of every degree with multiplicity, while the
inequality as evaluated here takes the plain count of invariant members of
the linear system.  The plain count is what every specialized form below
consumes, so that is the input exposed here.
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


class MissingInputError(ValueError):
    """A required (usually surface-specific) input field is absent."""


@dataclass(frozen=True)
class BoundInput:
    """Inputs for the bound evaluators; surface fields may stay None.

    deg_D: degree of the invariant divisor.
    h0: dimension of the linear system containing it.
    n_invariant: number of invariant divisors inside that linear system.
    deg_foliation / deg_variety: the two degrees whose difference is the
        cotangent degree.
    h1, h0_k_minus_d, k_self, k_dot_d, chi_top: surface data (h^1(D),
        h^0(K-D), K.K, K.D, topological Euler characteristic).
    genus: virtual genus of the invariant curve.
    """

    deg_D: Optional[int] = None
    h0: Optional[int] = None
    n_invariant: Optional[int] = None
    deg_foliation: Optional[int] = None
    deg_variety: int = 1
    h1: Optional[int] = None
    h0_k_minus_d: Optional[int] = None
    k_self: Optional[int] = None
    k_dot_d: Optional[int] = None
    chi_top: Optional[int] = None
    genus: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("h0", "n_invariant"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.h0 is not None and self.h0 < 1:
            raise ValueError("h0 must be at least 1")
        if self.deg_variety < 1:
            raise ValueError("deg_variety must be at least 1")

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise MissingInputError(f"missing input field {name!r}")


@dataclass(frozen=True)
class BoundReport:
    """An inequality lhs <= rhs evaluated by `report`.  `threshold` is the
    formula's threshold on its own input (a divisor degree, k, a genus) or
    None; lhs is None when its input was not given."""

    lhs: Optional[Fraction]
    rhs: Fraction
    inequality_holds: bool
    verdict: str
    formula: str
    threshold: Optional[Fraction] = None


def report(lhs: Optional[Fraction], rhs: Fraction, formula: str,
           threshold: Optional[Fraction] = None) -> BoundReport:
    """The one verdict rule: FORCES exactly when lhs is given and exceeds
    rhs, CONSISTENT otherwise."""
    holds = lhs is None or lhs <= rhs
    return BoundReport(lhs, rhs, holds, CONSISTENT if holds else FORCES,
                       formula, threshold)


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


def invariant_count_check(inp: BoundInput) -> BoundReport:
    """deg(D) * (N - h0)  <=  (deg F - deg X) * C(h0, 2).

    The master inequality: violated inputs force a rational first integral.
    When N > h0 the threshold is `poincare_degree_bound`.
    """
    inp.require("deg_D", "h0", "n_invariant", "deg_foliation")
    lhs = Fraction(inp.deg_D * (inp.n_invariant - inp.h0))
    rhs = Fraction((inp.deg_foliation - inp.deg_variety)
                   * math.comb(inp.h0, 2))
    threshold = (poincare_degree_bound(inp) if inp.n_invariant > inp.h0
                 else None)
    return report(lhs, rhs, "theorem1", threshold)


def poincare_degree_bound(inp: BoundInput) -> Fraction:
    """(deg F - deg X) * C(h0, 2) / (N - h0): the largest divisor degree
    consistent with having no rational first integral.

    Needs strictly more invariant divisors than the system dimension.
    """
    inp.require("h0", "n_invariant", "deg_foliation")
    if inp.n_invariant <= inp.h0:
        raise HypothesisNotMetError(
            f"need n_invariant > h0 (got {inp.n_invariant} <= {inp.h0})")
    return Fraction((inp.deg_foliation - inp.deg_variety)
                    * math.comb(inp.h0, 2), inp.n_invariant - inp.h0)


def pn_threshold(d: int, k: int, n: int, n_invariant: int) -> Fraction:
    """Degree threshold on projective n-space for degree-k hypersurfaces.

    With N invariant hypersurfaces of degree k, N > C(n+k, k), any k above
    (d-1) * C(C(n+k,k), 2) / (N - C(n+k,k)) forces a rational first
    integral.
    """
    if d < 2:
        raise ValueError("need foliation degree d >= 2")
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    _refuse_unprintable("C(n+k, k)", lambda: _log_binomial(n + k, min(n, k)))
    h0 = math.comb(n + k, k)
    if n_invariant <= h0:
        raise HypothesisNotMetError(
            f"need n_invariant > C(n+k, k) = {h0} (got {n_invariant})")
    return Fraction((d - 1) * math.comb(h0, 2), n_invariant - h0)


def genus_rhs(d: int, k: int, n_invariant: int) -> Fraction:
    """[d(k^3+6k^2+11k+6) - k^3 - 6k^2 + 13k + 2] / 4 - 2N.

    Right-hand side of the plane genus inequality 2 - 2g <= RHS for a
    degree-k invariant curve of a degree-d plane foliation with N invariant
    degree-k curves.
    """
    if d < 2 or k < 1 or n_invariant < 1:
        raise ValueError("need d >= 2, k >= 1, n_invariant >= 1")
    poly = d * (k**3 + 6 * k**2 + 11 * k + 6) - k**3 - 6 * k**2 + 13 * k + 2
    return Fraction(poly, 4) - 2 * n_invariant


def genus_threshold(d: int, k: int, n_invariant: int) -> Fraction:
    """(2 - genus_rhs) / 2: an invariant degree-k curve of virtual genus
    strictly below this forces a rational first integral of degree <= k."""
    return (2 - genus_rhs(d, k, n_invariant)) / 2


def surface_bound(inp: BoundInput) -> BoundReport:
    """The surface inequality 2 - 2g <= 2h^1 - 2h^0(K-D)
    + 2 (deg F - deg X)/deg D * C(h0, 2) + [K.K - 12 K.D + chi]/6 - 2N."""
    inp.require("deg_D", "h0", "n_invariant", "deg_foliation", "h1",
                "h0_k_minus_d", "k_self", "k_dot_d", "chi_top", "genus")
    if inp.deg_D <= 0:
        raise ValueError("need deg_D > 0")
    rhs = (Fraction(2 * inp.h1 - 2 * inp.h0_k_minus_d)
           + Fraction(2 * (inp.deg_foliation - inp.deg_variety), inp.deg_D)
           * math.comb(inp.h0, 2)
           + Fraction(inp.k_self - 12 * inp.k_dot_d + inp.chi_top, 6)
           - 2 * inp.n_invariant)
    lhs = 2 - 2 * Fraction(inp.genus)
    return report(lhs, rhs, "cor")


def abelian_bound(d_self_n: int, n: int, n_invariant: int,
                  deg_foliation: int, deg_variety: int) -> Fraction:
    """Degree bound when the ambient has trivial higher cohomology and
    h0 = D^n / n!.

    `d_self_n` is the top self-intersection number D^n; it must be divisible
    by n! so that h0 is an integer, and the invariant count must exceed h0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _refuse_unprintable("n!", lambda: math.lgamma(n + 1))
    fact = math.factorial(n)
    if d_self_n % fact != 0:
        raise ValueError(
            f"D^n = {d_self_n} is not divisible by n! = {fact}")
    h0 = d_self_n // fact
    if n_invariant <= h0:
        raise HypothesisNotMetError(
            f"need n_invariant > D^n/n! = {h0} (got {n_invariant})")
    return Fraction((deg_foliation - deg_variety) * math.comb(h0, 2),
                    n_invariant - h0)
