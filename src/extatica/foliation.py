"""Polynomial vector fields as derivations, degrees, and invariance checks.

A field is an n-tuple of polynomials P_i acting as X = sum P_i d/dx_i.  Two
presentations are supported: `affine` (a field on affine n-space) and
`homogeneous` (a homogeneous field on n variables presenting a foliation of
projective (n-1)-space; such presentations are well defined modulo the
radial field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.components)


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


def foliation_degree(field: VectorField) -> int:
    """Degree of the foliation presented by the field: the largest degree
    of its components, which in homogeneous mode is their common degree.

    An affine field whose top-degree part is a multiple of the radial field
    has a projective completion of smaller degree; the degree reported is
    still the largest component degree.
    """
    if field.is_zero():
        raise DegenerateFieldError("zero field presents no foliation")
    return int(max(c.degree() for c in field.components if not c.is_zero()))


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
