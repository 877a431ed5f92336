"""Jet matrices, the exact inflection determinant, and first integrals.

Given a field X and an ordered basis (s_1, ..., s_m) of a linear system of
divisors, the jet matrix has entry (i, j) = X^j(s_i).  Its determinant E is
the extactic polynomial of the pair: E vanishes identically exactly when the
basis is linearly dependent over the field of first integrals, and otherwise
it is divisible by every invariant divisor cut out by an element of the
system.

Two exact determinant engines are provided:

* `det_fraction_free` - exact over the polynomial ring, on packed integer
  monomials: expansion in minors up to 4x4
  (`polyring.expansion_determinant`), Bareiss elimination beyond
  (`polyring.bareiss_determinant`); best for small matrices.
* `det_modular` - evaluation/interpolation modulo word-size primes with
  Chinese remaindering into symmetric residues, after each column is scaled
  to integers; best once degrees blow up.  The whole pipeline, from the
  table of the matrix's terms to the re-check of the result, is
  `extatica.modular`, the only module that imports numpy; it is imported
  on the first modular determinant, so numpy loads only then.

Both first expand along every row or column whose only nonzero entry is
a constant (`_expand_units`), and both return identical canonical
polynomials.  A determinant is computed only when E is nonzero.
`_certify_vanishing` decides, and draws every probe point: a point where
J has full rank proves E != 0; otherwise it certifies E = 0 by a first
integral of degree <= k read off the left kernels of J at a pair of
points.  When the pair certifies nothing, `_interpolated_integral`
interpolates the entries of the reduced left kernel, each a first
integral, from the kernels at more points; its answer may have degree
> k.  The decision runs once per pair: `_decision` keeps the outcome for
the pair just decided, so the second of two calls on an equal pair
(`extactic`, then `extract_first_integral`) reuses it and draws no
point.  Without a certificate, both compute the determinant, and
`extract_first_integral` tells E != 0 from a failed extraction by it.
`_point_jet` evaluates J exactly at a point by Taylor-mode recurrences
along the flow; the symbolic jet matrix (`jet_matrix`) is built only for
a determinant.  Scalar linear algebra (the kernels, the interpolation,
the modular re-check) runs on `linalg`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .foliation import (AFFINE, HOMOGENEOUS, DegenerateFieldError,
                        VectorField, apply_derivation, foliation_degree)
from .linalg import kernel, reduce_rational
from .polyring import (ContextError, DimensionGuardError,
                       EngineDisagreementError, PolyRing, Polynomial,
                       bareiss_determinant, derivation_chains,
                       expansion_determinant, monomials_of_degree,
                       monomials_up_to_degree, proportional)

#: Complete monomial systems above this dimension are refused unless the
#: caller overrides: the determinant degree grows quadratically in the
#: dimension and desk-scale runs must stay tractable.
DEFAULT_MAX_DIMENSION = 21

_PROBE_RANGE = 10_000  # random integer probe points live in [-10^4, 10^4]

#: Probe points one decision draws at most before the determinant decides.
_MAX_POINTS = 200

#: Minors of up to this many rows are expanded in minors, larger ones go to
#: Bareiss: expansion forms no product of two minors and divides nothing,
#: but builds C(m, r) minors of each size r.  4 is also where `auto` leaves
#: the fraction-free engine.
_EXPANSION_ROWS = 4


class VacuousQueryError(ValueError):
    """Divisibility against an identically zero extactic is vacuous."""


class ExtacticNotZeroError(ValueError):
    """First-integral extraction requires an identically zero extactic."""


class ExtractionFailedError(RuntimeError):
    """E = 0, but no verified first-integral certificate was found."""


# ---------------------------------------------------------------------------
# linear systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSystem:
    """An ordered basis of a linear system of divisors.

    `descriptor` is "affine" (degrees <= k) or "homogeneous" (homogeneous of
    degree exactly k); `degree` is k.
    """

    basis: tuple
    degree: int
    descriptor: str

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise ValueError("empty basis")
        ring = basis[0].ring
        for s in basis:
            if s.ring != ring:
                raise ContextError("basis elements live in different rings")
            if s.is_zero():
                raise ValueError("zero polynomial in basis")
            if self.descriptor == HOMOGENEOUS:
                if not (s.is_homogeneous() and s.degree() == self.degree):
                    raise ValueError(
                        "homogeneous descriptor needs homogeneous basis "
                        f"elements of degree {self.degree}")
            elif s.degree() > self.degree:
                raise ValueError("basis element degree exceeds system degree")
        if self.descriptor not in (AFFINE, HOMOGENEOUS):
            raise ValueError(f"unknown descriptor {self.descriptor!r}")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def ring(self) -> PolyRing:
        return self.basis[0].ring


def system_dimension(nvars: int, k: int, descriptor: str = AFFINE) -> int:
    """Dimension of the complete monomial system, without building it:
    C(n + k, k) affine on n variables, C(n - 1 + k, k) homogeneous."""
    if nvars < 1 or k < 1:
        raise ValueError("need nvars >= 1 and k >= 1")
    if descriptor == HOMOGENEOUS:
        return math.comb(nvars - 1 + k, nvars - 1)
    if descriptor == AFFINE:
        return math.comb(nvars + k, nvars)
    raise ValueError(f"unknown descriptor {descriptor!r}")


def monomial_system(nvars: int, k: int, descriptor: str = AFFINE,
                    names: Optional[Sequence[str]] = None) -> LinearSystem:
    """The complete monomial basis of degree <= k (affine) or == k
    (homogeneous), ordered by degree and graded-lex within each degree.

    Its dimension is `system_dimension(nvars, k, descriptor)`; a caller
    with a dimension guard checks that first (`check_dimension`), since
    the basis is enumerated here in full.
    """
    system_dimension(nvars, k, descriptor)  # refuses bad arguments
    from .foliation import default_variable_names
    ring = PolyRing(tuple(names) if names else default_variable_names(nvars))
    if ring.nvars != nvars:
        raise ContextError(f"{ring.nvars} names for {nvars} variables")
    if descriptor == HOMOGENEOUS:
        exps = list(monomials_of_degree(nvars, k))
    else:
        exps = list(monomials_up_to_degree(nvars, k))
    basis = tuple(ring.monomial(e) for e in exps)
    return LinearSystem(basis, k, descriptor)


# ---------------------------------------------------------------------------
# jet matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JetMatrix:
    """Square matrix with entry (i, j) = X^j(s_i); rows follow the basis."""

    entries: tuple
    field: VectorField
    system: LinearSystem


def _check_pair(field: VectorField, system: LinearSystem) -> None:
    """Refuse a field and a system that cannot form a jet matrix."""
    if system.ring != field.ring:
        raise ContextError("system and field rings differ")
    if field.mode == HOMOGENEOUS and system.descriptor != HOMOGENEOUS:
        raise ContextError(
            "a homogeneous field needs a homogeneous linear system")


def jet_matrix(field: VectorField, system: LinearSystem) -> JetMatrix:
    """Rows built by iterated derivation: entry (i, j + 1) applies X to
    entry (i, j), each row's chain on one packed map
    (`polyring.derivation_chains`)."""
    _check_pair(field, system)
    chains = derivation_chains(field.components, system.basis,
                               system.dimension)
    return JetMatrix(tuple(map(tuple, chains)), field, system)


def _point_jet(field: VectorField, system: LinearSystem, point) -> list:
    """The jet matrix at a point, [[(X^j s_i)(point)]], exactly.

    Taylor mode along the flow, with no symbolic polynomial: the values
    f_j = (X^j f)(point) of a product obey Leibniz's rule, (fg)_j =
    sum_i C(j, i) f_i g_(j-i), and those of a variable follow its
    component, (x_v)_(j+1) = (P_v)_j.  The monomials of the field and of
    the basis, closed under dropping one variable (the last present), get
    their values column by column, each by one binomial convolution of its
    parent's values with the dropped variable's; a point costs
    O(#monomials * m^2) scalar operations.  Values are Python ints where
    the coefficients are integral and Fractions otherwise.
    """
    m = system.dimension
    nv = field.ring.nvars
    terms = [[(e, c.numerator if c.denominator == 1 else c)
              for e, c in f.terms.items()]
             for f in field.components + system.basis]
    parents = {}  # monomial of degree >= 2 -> (parent, dropped variable)
    todo = [e for t in terms for e, _ in t]
    while todo:
        e = todo.pop()
        if e in parents or sum(e) < 2:
            continue
        v = max(i for i, k in enumerate(e) if k)
        parents[e] = (e[:v] + (e[v] - 1,) + e[v + 1:], v)
        todo.append(parents[e][0])
    order = sorted(parents, key=sum)  # parents before their children
    xs = [[x] for x in point]  # x_v's column j + 1 is P_v's column j
    values = {(0,) * nv: [1] + [0] * (m - 1)}
    for v in range(nv):
        values[tuple(int(i == v) for i in range(nv))] = xs[v]
    for e in order:
        values[e] = []

    def combine(t, j):
        return sum(c * values[e][j] for e, c in t)

    for j in range(m):
        binom = [math.comb(j, i) for i in range(j + 1)]
        for e in order:
            parent, v = parents[e]
            values[e].append(sum(c * a * b for c, a, b in zip(
                binom, values[parent], xs[v][::-1])))
        if j + 1 < m:
            for v in range(nv):
                xs[v].append(combine(terms[v], j))
    return [[combine(t, j) for j in range(m)] for t in terms[nv:]]


# ---------------------------------------------------------------------------
# fraction-free determinant
# ---------------------------------------------------------------------------

def _square_rows(matrix) -> tuple:
    """(mutable copy of the rows, their common ring) of a square matrix."""
    rows = [list(r) for r in matrix]
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        raise ValueError("matrix must be square and non-empty")
    ring = rows[0][0].ring
    if any(e.ring != ring for r in rows for e in r):
        raise ContextError("matrix entries live in different rings")
    return rows, ring


def _expand_units(rows) -> tuple:
    """(c, minor) with det(rows) = c * det(minor).

    A row or column whose only nonzero entry is a constant c is expanded
    along, det = (-1)^(i+j) c * minor, and so on in the minor until none is
    left; the expansion only drops indices, and c collects the constants
    and signs.  The first row of an affine jet, (1, 0, ..., 0), is such a
    row.  The minor may be empty, with determinant 1.
    """
    # per entry: 0 zero, 1 nonzero constant, 2 otherwise
    kinds = [[0 if not e.terms else 1 if e.is_constant() else 2 for e in r]
             for r in rows]
    live_rows, live_cols = list(range(len(rows))), list(range(len(rows)))
    factor = Fraction(1)
    while True:
        for a, i in enumerate(live_rows):
            nonzero = [b for b, j in enumerate(live_cols) if kinds[i][j]]
            if len(nonzero) == 1 and kinds[i][live_cols[nonzero[0]]] == 1:
                b = nonzero[0]
                break
        else:
            for b, j in enumerate(live_cols):
                nonzero = [a for a, i in enumerate(live_rows) if kinds[i][j]]
                if len(nonzero) == 1 and kinds[live_rows[nonzero[0]]][j] == 1:
                    a = nonzero[0]
                    break
            else:
                break
        (c,) = rows[live_rows[a]][live_cols[b]].terms.values()
        factor *= -c if (a + b) % 2 else c
        del live_rows[a], live_cols[b]
    return factor, [[rows[i][j] for j in live_cols] for i in live_rows]


def _times(det: Polynomial, c: Fraction) -> Polynomial:
    """c * det, with no coefficient touched for c = 1 and a sign flip for
    c = -1."""
    if c == 1:
        return det
    return -det if c == -1 else det.scale(c)


def _fraction_free(rows, ring) -> Polynomial:
    """The determinant of a square matrix of any size: by expansion in
    minors up to `_EXPANSION_ROWS` rows, by Bareiss elimination beyond; the
    empty matrix has determinant 1.  `rows` is consumed."""
    if not rows:
        return ring.one()
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) <= _EXPANSION_ROWS:
        return expansion_determinant(rows, ring)
    return bareiss_determinant(rows, ring)


def det_fraction_free(matrix) -> Polynomial:
    """Exact determinant over the polynomial ring, with no fraction field.

    Unit rows and columns are expanded along first (`_expand_units`).  Both
    kernels clear each row's denominators once and run on packed integer
    term maps.  A minor of up to `_EXPANSION_ROWS` rows is expanded in
    minors (`polyring.expansion_determinant`), which divides nothing; a
    larger one goes to Bareiss elimination (`polyring.bareiss_determinant`),
    every division exact over Z (Sylvester's identity), with the sparsest
    available pivot in each column.
    """
    rows, ring = _square_rows(matrix)
    factor, rows = _expand_units(rows)
    return _times(_fraction_free(rows, ring), factor)


# ---------------------------------------------------------------------------
# modular determinant
# ---------------------------------------------------------------------------

def _check_jobs(jobs: int) -> None:
    """Refuse a thread count below 1 with ValueError."""
    if jobs < 1:
        raise ValueError("jobs must be at least 1")


def det_modular(matrix, jobs: int = 1) -> Polynomial:
    """Exact determinant by modular evaluation and interpolation,
    bit-identical to `det_fraction_free`.

    Unit rows and columns are expanded along first (`_expand_units`); the
    empty minor and a ring without variables go to `_fraction_free`.  Any
    other minor goes to `modular.determinant`, which returns the
    determinant of the minor with its columns scaled to integers and the
    product of the scales.  Up to `jobs` (at least 1) threads run the
    primes, as many as the memory guard admits.  The engine refuses a grid
    above the guard on one thread with DimensionGuardError, a height bound
    beyond the prime table with BadPrimeError, and raises
    EngineDisagreementError when its re-check fails.
    """
    _check_jobs(jobs)
    rows, ring = _square_rows(matrix)
    factor, rows = _expand_units(rows)
    if not rows or ring.nvars == 0:
        # the empty minor, or no variable to lay a grid on
        return _times(_fraction_free(rows, ring), factor)
    from . import modular  # the one module that imports numpy
    det, scale = modular.determinant(rows, ring, jobs)
    return _times(det, factor / scale)


def _engine_for(engine: str, m: int) -> str:
    """The engine that runs on an m x m matrix: "auto" is fraction-free up
    to 4x4 and modular beyond."""
    if engine not in ("auto", "fraction-free", "modular"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "auto":
        return "fraction-free" if m <= 4 else "modular"
    return engine


def _det(matrix, engine: str, jobs: int = 1) -> Polynomial:
    if _engine_for(engine, len(matrix)) == "fraction-free":
        return det_fraction_free(matrix)
    return det_modular(matrix, jobs=jobs)


def check_dimension(m: int, max_dim: Optional[int] = None) -> None:
    """Refuse a system of dimension m above the guard (DEFAULT_MAX_DIMENSION
    unless `max_dim` is given) with DimensionGuardError."""
    limit = DEFAULT_MAX_DIMENSION if max_dim is None else max_dim
    if m > limit:
        raise DimensionGuardError(
            f"system dimension {m} exceeds the guard ({limit}); raise the "
            "limit explicitly to proceed")


# ---------------------------------------------------------------------------
# the extactic polynomial
# ---------------------------------------------------------------------------

def extactic_degree_bound(m: int, k: int, d: int) -> int:
    """m*k + (d - 1) * C(m, 2).

    Column j of the jet matrix has degree k + j*(d - 1) in the homogeneous
    projective normalization, and the bound is the column sum.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return m * k + (d - 1) * math.comb(m, 2)


@dataclass(frozen=True)
class ExtacticReport:
    """The extactic polynomial together with its derived facts.

    `engine` names the determinant engine selected for the matrix size.  It
    computes E when E is nonzero; a certified E = 0 needs no determinant,
    and the name is reported all the same.
    """

    extactic: Polynomial
    identically_zero: bool
    degree: object        # int, or NEG_INF when identically zero
    degree_bound: int
    dimension: int        # m = dim of the linear system
    engine: str

    def __post_init__(self):
        assert self.identically_zero == self.extactic.is_zero()
        if not self.identically_zero:
            assert self.degree <= self.degree_bound


def extactic(field: VectorField, system: LinearSystem, engine: str = "auto",
             max_dim: Optional[int] = None, jobs: int = 1) -> ExtacticReport:
    """Determinant of the jet matrix plus derived facts.

    The decision comes first (`_decision`): a certified first integral
    proves E = 0 without a determinant.  It runs once per pair, so an
    `extract_first_integral` on an equal pair right after reuses it.
    Otherwise E is computed by `engine`, "fraction-free", "modular" or
    "auto" (fraction-free up to 4x4, modular beyond).  Systems larger than
    the guard (21 by default) are refused; pass `max_dim` to override.
    `jobs` (at least 1) threads the modular engine's primes.
    """
    _check_jobs(jobs)
    m = system.dimension
    check_dimension(m, max_dim)
    used = _engine_for(engine, m)
    _check_pair(field, system)
    d = foliation_degree(field)  # refuses the zero field
    certified = _decision(field, system)[0] is not None
    det = system.ring.zero() if certified else _det(
        jet_matrix(field, system).entries, used, jobs=jobs)
    bound = extactic_degree_bound(m, system.degree, d)
    return ExtacticReport(
        extactic=det,
        identically_zero=det.is_zero(),
        degree=det.degree(),
        degree_bound=bound,
        dimension=m,
        engine=used,
    )


def divides_extactic(f: Polynomial, report: ExtacticReport) -> bool:
    """Whether f divides the extactic polynomial exactly.

    Zero-locus containment of an invariant divisor upgrades to polynomial
    divisibility here, which is the form the degree bookkeeping actually
    uses; the query is refused when the extactic vanishes identically
    (every divisor is contained, and the first-integral path applies).
    """
    if report.identically_zero:
        raise VacuousQueryError(
            "extactic vanishes identically; use first-integral extraction")
    if f.is_zero() or f.is_constant():
        raise ValueError("divisor must be non-constant")
    return report.extactic.divide_exact(f) is not None


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstIntegral:
    """A verified rational first integral numerator/denominator pair.

    The certificate identity X(A)*B - A*X(B) = 0 holds exactly and A/B is
    non-constant.  From a pair of probe points, A and B are elements of the
    linear system (degree <= k) in reduced row echelon form; interpolated,
    A/B is an entry of the reduced left kernel of J and may have degree
    > k.  `rank` is the rank of the jet matrix seen at the probe points.
    """

    numerator: Polynomial
    denominator: Polynomial
    rank: int


def _probe_point(rng: Random, nvars: int) -> list:
    """A seeded random integer point with coordinates in
    [-_PROBE_RANGE, _PROBE_RANGE]."""
    return [rng.randint(-_PROBE_RANGE, _PROBE_RANGE) for _ in range(nvars)]


def _element(system: LinearSystem, coefficients) -> Polynomial:
    """The element sum c_i s_i of the system."""
    return sum((s.scale(c) for s, c in zip(system.basis, coefficients) if c),
               system.ring.zero())


def _is_integral(field: VectorField, num: Polynomial,
                 den: Polynomial) -> bool:
    """The cross identity X(num) * den = num * X(den): num/den is constant
    along X."""
    return (apply_derivation(field, num) * den
            == num * apply_derivation(field, den))


def _polynomial_integral(field: VectorField, system: LinearSystem,
                         columns, rank: int) -> Optional[FirstIntegral]:
    """A polynomial first integral (F, 1) of the system, of least degree,
    from the jet columns X^j(s) (j >= 1) at a pair of points, or None.

    The system holds a constant, so F - F(P) lies in the left kernel K_P of
    J(P) exactly when X^j(F) vanishes at P for every j >= 1: the left kernel
    of the columns j >= 1 is K_P + <1>.  A polynomial integral lies in it at
    every point, so the integrals of degree <= k lie in the left kernel of
    both points' columns together, the intersection of K_P + <1> and
    K_Q + <1>.  Its reduced rows, constants aside, are checked by X(F) = 0;
    the least degree wins, ties in reduced-row order.
    """
    reduced, pivots, _ = reduce_rational(kernel(columns, system.dimension))
    candidates = [_element(system, reduced[i]) for i, _ in pivots]
    for f in sorted(candidates, key=Polynomial.degree):  # stable on ties
        if not f.is_constant() and apply_derivation(field, f).is_zero():
            return FirstIntegral(f, system.ring.one(), rank)
    return None


def _certify_vanishing(field: VectorField, system: LinearSystem) -> tuple:
    """Decide E = 0 at probe points and certify it by a first integral.

    Returns (integral, point): the certified FirstIntegral or None, and the
    probe point (a tuple) where J has full rank or None.  A pure function
    of the pair.

    The one place that draws probe points, from its own generator seeded
    with 0, so every caller sees the same points.  J is only evaluated at
    points, exactly, by `_point_jet`.  The left kernel of J over Q is taken
    at a pair of points; an empty one means det J(P) != 0, so E != 0, and
    the decision ends with P.  The kernel vector of a free column is an
    element F = sum c_i s_i of the system whose jets vanish at the point,
    so F vanishes along the leaf; for the first free column it lies on the
    shortest basis prefix that has one.

    When the system holds a constant and a kernel of the pair has dimension
    >= 2 (as with several independent polynomial integrals, where no two
    kernel vectors need span a pencil), `_polynomial_integral` looks for a
    polynomial integral of degree <= k first, by one more kernel; the
    one-dimensional kernels of the planar pencils skip it.  Then the points'
    kernel basis vectors are taken in turn (the first with the first, and
    so on: those of one free column when the two points have the same rank,
    as generic points do), and the reduced row echelon form of the two
    vectors gives a denominator D (first row) and numerator N (second).
    If they are not proportional and X(N)*D = N*X(D), then h = N/D is a
    first integral and coeffs(N) - h*coeffs(D) is a nonzero vector
    annihilating every column X^j(s) over the field of first integrals, so
    E = 0.

    A pair that certifies nothing goes on to `_interpolated_integral`, on
    the same generator and with the pair's kernels.  That happens at a
    point on a special leaf, when E = 0 forces no integral of degree <= k
    (possible off the plane), and when two independent rational integrals
    of degree <= k exist, such as f1/g1 and f2/g2 of X = (g1 grad f1 -
    f1 grad g1) x (g2 grad f2 - f2 grad g2): every kernel then has
    dimension >= 2, and its basis vectors, paired in order, can mix the
    two pencils.
    """
    m = system.dimension
    nv = field.ring.nvars
    rng = Random(0)
    points, kernels, derived = [], [], []
    for _ in range(2):
        point = _probe_point(rng, nv)
        columns = list(zip(*_point_jet(field, system, point)))
        left_kernel = kernel(columns, m)
        if not left_kernel:
            return None, tuple(point)
        points.append(point)
        kernels.append(left_kernel)
        derived += columns[1:]
    rank = m - min(map(len, kernels))
    if (any(s.is_constant() for s in system.basis)
            and max(map(len, kernels)) >= 2):
        fi = _polynomial_integral(field, system, derived, rank)
        if fi is not None:
            return fi, None
    for vectors in zip(*kernels):
        reduced, pivots, _ = reduce_rational(vectors)
        if len(pivots) < 2:
            continue  # proportional: no pencil
        den, num = (_element(system, reduced[i]) for i, _ in pivots)
        if _is_integral(field, num, den):
            return FirstIntegral(num, den, rank), None
    return _interpolated_integral(field, system, rng, points, kernels)


def _fit(ring: PolyRing, exps, powers, values) -> Optional[tuple]:
    """(N, D) on the monomials `exps` with N(P) = v D(P) at every point P,
    when that fit is unique up to a factor, or None.  `powers` holds the
    monomials' values at the points and `values` the v.  One exact kernel;
    D is 1 on the last monomial it has."""
    rows = []
    for row, v in zip(powers, values):
        rows.append([v.denominator * p for p in row]
                    + [-v.numerator * p for p in row])
    solutions = kernel(rows, 2 * len(exps))
    if len(solutions) != 1:
        return None
    num = ring.from_terms(dict(zip(exps, solutions[0])))
    den = ring.from_terms(dict(zip(exps, solutions[0][len(exps):])))
    return None if den.is_zero() else (num, den)


def _in_span(system: LinearSystem, f: Polynomial) -> bool:
    """Whether f is an element of the system."""
    elements = system.basis + (f,)
    exps = {e for g in elements for e in g.terms}
    _, pivots, _ = reduce_rational(
        [[g.terms.get(e, 0) for g in elements] for e in exps])
    return all(c < system.dimension for _, c in pivots)


def _row_vanishes(system: LinearSystem, pivot: int, entries: dict) -> bool:
    """Whether s_pivot + sum_c (N_c / D_c) s_c = 0, for `entries` the map
    c -> (N_c, D_c), multiplied out over the product of the distinct D_c."""
    dens = list(dict.fromkeys(den for _, den in entries.values()))

    def over(f, den=None):
        # f times every distinct denominator but `den`
        for d in dens:
            if d != den:
                f = f * d
        return f

    total = over(system.basis[pivot])
    for c, (num, den) in entries.items():
        total = total + over(num * system.basis[c], den)
    return total.is_zero()


def _interpolated_integral(field: VectorField, system: LinearSystem,
                           rng: Random, points, kernels) -> tuple:
    """A first integral interpolated from the reduced left kernels of J at
    many points, after a pair of points that certified nothing.

    Returns (integral, point) as `_certify_vanishing` does.  The pair's
    points and kernels come first; further points are drawn from `rng`.

    Every entry of the reduced row echelon basis of the left kernel V of J
    over Q(x) is a first integral: applying X to c J = 0 shows that X(c)
    lies in V, and for a basis row c, X(c) is 0 at every pivot column, so
    X(c) = 0.  (Pereira, Ann. Inst. Fourier 51, 2001, builds this kernel
    from the pencils of the integrals.)  At a point where J(P) has the
    rank of J and V's pivot columns, the reduced left kernel of J(P) is
    that basis at P.  So the points kept are those
    whose reduced kernel has the pivot columns of the largest rank seen; a
    point of larger rank drops the points kept before it, and a point of
    full rank proves E != 0.

    For delta = 0, 1, ..., every entry of every row not fitted yet is
    interpolated as N/D of degree <= delta from 2 C(n + delta, n) + 3
    points (`_fit`).  A fit at delta = 0 is a constant; a later one counts
    only if it passes the cross identity, and then it is a first integral.
    One whose N and D are both elements of the system certifies E = 0
    at once, as on a pair of points: coeffs(N) - (N/D) coeffs(D)
    annihilates J.  Otherwise a row certifies when every free entry is
    fitted, one at least is not constant, and s_pivot + sum_c v_c s_c = 0
    holds exactly: applying X^j shows that the row annihilates J over the
    field of first integrals.  Its entry of least degree is returned.

    The decision returns (None, None) when every entry is fitted without a
    certificate, or when a point is needed after `_MAX_POINTS` drawn.
    """
    m, nv = system.dimension, field.ring.nvars
    pending = list(zip(points, kernels))
    drawn = len(points)
    kept, lead, fits, delta = [], None, {}, 0
    while True:
        need = 2 * math.comb(nv + delta, nv) + 3
        if len(kept) < need:
            if pending:
                point, left_kernel = pending.pop(0)
            elif drawn == _MAX_POINTS:
                return None, None
            else:
                point = _probe_point(rng, nv)
                drawn += 1
                left_kernel = kernel(
                    list(zip(*_point_jet(field, system, point))), m)
                if not left_kernel:
                    return None, tuple(point)
            reduced, pivots, _ = reduce_rational(left_kernel)
            columns = [c for _, c in pivots]
            if lead is None or len(columns) < len(lead):
                kept, lead, fits, delta = [], columns, {}, 0
            if columns == lead:
                kept.append((point, [reduced[i] for i, _ in pivots]))
            continue
        rank = m - len(lead)
        free = [c for c in range(m) if c not in lead]
        exps = list(monomials_up_to_degree(nv, delta))
        sample = kept[:need]
        powers = [[math.prod(x ** a for x, a in zip(point, e)) for e in exps]
                  for point, _ in sample]
        for row in range(len(lead)):
            for c in free:
                if (row, c) in fits:
                    continue
                fit = _fit(system.ring, exps, powers,
                           [rows[row][c] for _, rows in sample])
                if fit is None:
                    continue
                if delta and not _is_integral(field, *fit):
                    fits[row, c] = None  # no first integral: the row fails
                    continue
                fits[row, c] = fit
                if (delta and not proportional(*fit)
                        and _in_span(system, fit[0])
                        and _in_span(system, fit[1])):
                    return FirstIntegral(*fit, rank), None
        for row, pivot in enumerate(lead):
            entries = {c: fits.get((row, c)) for c in free}
            integrals = [f for f in entries.values()
                         if f and not proportional(*f)]
            if (all(entries.values()) and integrals
                    and _row_vanishes(system, pivot, entries)):
                num, den = min(integrals, key=lambda f: max(
                    f[0].degree(), f[1].degree()))
                return FirstIntegral(num, den, rank), None
        if len(fits) == len(lead) * len(free):
            return None, None
        delta += 1


@functools.lru_cache(maxsize=1)
def _decision(field: VectorField, system: LinearSystem) -> tuple:
    """`_certify_vanishing` on the pair, kept for the pair just decided.

    One slot: the first-integral decision is `extactic`, then
    `extract_first_integral` on an equal pair, and the second call reads
    the first call's outcome, with the same points and certificate.  Equal
    pairs built from fresh objects hit too (fields and systems hash by
    value), and any other pair decides afresh.
    """
    return _certify_vanishing(field, system)


def extract_first_integral(field: VectorField, system: LinearSystem,
                           max_dim: Optional[int] = None) -> FirstIntegral:
    """A verified rational first integral, when the extactic vanishes.

    This settles the decision.  `_decision` goes first, and runs once per
    pair: right after `extactic` on an equal pair it reuses that outcome
    and draws no point.  A probe point where J has full rank raises
    ExtacticNotZeroError, and a certified integral is returned: of degree
    <= k from the first pair of points, of any degree when interpolated.
    Without a certificate the symbolic jet matrix is built for its
    determinant (the engine "auto" picks by size): E != 0 raises
    ExtacticNotZeroError, and E = 0 ExtractionFailedError.
    """
    check_dimension(system.dimension, max_dim)
    _check_pair(field, system)
    if field.is_zero():
        raise DegenerateFieldError("zero field presents no foliation")
    fi, point = _decision(field, system)
    if point is not None:
        raise ExtacticNotZeroError(
            "the extactic polynomial is not identically zero "
            f"(full rank at {point})")
    if fi is not None:
        return fi
    if _det(jet_matrix(field, system).entries, "auto").is_zero():
        raise ExtractionFailedError(
            "no probe point certified a first integral")
    raise ExtacticNotZeroError(
        "the extactic polynomial is not identically zero (its determinant "
        "is nonzero, although J is singular at every probe point)")
