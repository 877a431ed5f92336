"""Polynomial vector fields as derivations, degrees, and invariance checks.

A field is an n-tuple of polynomials P_i acting as X = sum P_i d/dx_i.  Two
presentations are supported: `affine` (a field on affine n-space) and
`homogeneous` (a homogeneous field on n variables presenting a foliation of
projective (n-1)-space; such presentations are well defined modulo the
radial field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .polyring import ContextError, PolyRing, Polynomial, derivation_chains

AFFINE = "affine"
HOMOGENEOUS = "homogeneous"


class DegenerateFieldError(ValueError):
    """The zero field has no degree."""


class InvalidDivisorError(ValueError):
    """Invariance queries need a non-constant (and, when the field is
    homogeneous, homogeneous) polynomial."""


def default_variable_names(n: int) -> tuple:
    if n <= 4:
        return ("x", "y", "z", "w")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


@dataclass(frozen=True)
class VectorField:
    """An n-tuple of polynomials sharing one ring, with a presentation mode."""

    components: tuple
    mode: str = AFFINE

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ContextError("a vector field needs at least one component")
        ring = comps[0].ring
        for c in comps[1:]:
            if c.ring != ring:
                raise ContextError("components live in different rings")
        if len(comps) != ring.nvars:
            raise ContextError(
                f"{len(comps)} components for {ring.nvars} variables")
        if self.mode not in (AFFINE, HOMOGENEOUS):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == HOMOGENEOUS:
            degs = {c.degree() for c in comps if not c.is_zero()}
            if len(degs) > 1 or any(not c.is_homogeneous() for c in comps):
                raise ContextError(
                    "homogeneous mode needs homogeneous components of one "
                    "common degree")

    @property
    def ring(self) -> PolyRing:
        return self.components[0].ring

    @property
    def n(self) -> int:
        return len(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.components)


@dataclass(frozen=True)
class FoliationDegree:
    """Degree report: the reported integer plus a degeneracy flag.

    `radial_top` marks presentations whose top-degree part is a polynomial
    multiple of the radial field.  For affine fields that case is degenerate
    (the projective completion drops below the reported max component
    degree); the flag is reported instead of silently adjusting.
    """

    degree: int
    radial_top: bool
    mode: str


@dataclass(frozen=True)
class Cofactor:
    """The certificate polynomial K in X(f) = K*f."""

    polynomial: Polynomial


def apply_derivation(field: VectorField, f: Polynomial) -> Polynomial:
    """X(f) = sum_i P_i * df/dx_i, exact: the second entry of f's chain
    (`polyring.derivation_chains`)."""
    if f.ring != field.ring:
        raise ContextError("polynomial and field rings differ")
    return derivation_chains(field.components, [f], 2)[0][1]


def _radial_multiple_of(parts: Sequence[Polynomial]) -> Optional[Polynomial]:
    """g such that parts == (g*x_1, ..., g*x_n), or None."""
    ring = parts[0].ring
    g = None
    for i, p in enumerate(parts):
        if p.is_zero():
            return None
        q = p.divide_exact(ring.variable(i))
        if q is None:
            return None
        if g is None:
            g = q
        elif q != g:
            return None
    return g


def foliation_degree(field: VectorField) -> FoliationDegree:
    """Degree of the foliation presented by the field.

    Homogeneous mode reports the common component degree.  Affine mode
    reports the max component degree and flags presentations whose top part
    is a radial multiple (there the completion is degenerate and the true
    projective degree is strictly smaller).
    """
    if field.is_zero():
        raise DegenerateFieldError("zero field presents no foliation")
    if field.mode == HOMOGENEOUS:
        d = max(c.degree() for c in field.components if not c.is_zero())
        radial = _radial_multiple_of(field.components) is not None
        return FoliationDegree(int(d), radial, HOMOGENEOUS)
    d = max(c.degree() for c in field.components if not c.is_zero())
    d = int(d)
    tops = [c.homogeneous_part(d) for c in field.components]
    radial = _radial_multiple_of(tops) is not None
    return FoliationDegree(d, radial, AFFINE)


def check_invariance(field: VectorField, f: Polynomial) -> Optional[Cofactor]:
    """Certify X(f) = K*f by exact division, or return None.

    The returned cofactor is re-verified by multiplication before being
    handed out.
    """
    if f.ring != field.ring:
        raise ContextError("polynomial and field rings differ")
    if f.is_zero() or f.is_constant():
        raise InvalidDivisorError("divisor must be non-constant")
    if field.mode == HOMOGENEOUS and not f.is_homogeneous():
        raise InvalidDivisorError(
            "homogeneous mode needs a homogeneous divisor")
    xf = apply_derivation(field, f)
    k = xf.divide_exact(f)
    if k is None:
        return None
    if k * f != xf:
        raise AssertionError("cofactor re-verification failed")
    return Cofactor(k)
