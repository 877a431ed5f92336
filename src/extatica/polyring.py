"""Exact sparse multivariate polynomial arithmetic over rationals.

Polynomials are stored sparsely as {exponent-tuple: Fraction} with no zero
coefficients, so equal polynomials have equal term maps and serialize
identically.  The term order is graded lexicographic (total degree first,
then exponent tuples with the first declared variable strongest); canonical
text output lists terms in descending order of that key.

Multiplication and exact division share one integer kernel: denominators
are cleared once, each monomial is packed into one int (`_Packing`, field
widths from the operands' degree bounds), and `_convolve` and
`_divide_packed` work on {packed key: int} maps, where a monomial product
is one integer addition and a divisibility test one guard-bit check.  A
product with a one-term factor only shifts and scales, so it packs
nothing.  `derivation_chains`, behind `extactic.jet_matrix` and
`foliation.apply_derivation`, derives f, X(f), X^2(f), ... on packed
maps, summing the products P_v * df/dx_v of a step on one accumulator.
The two kernels behind `extactic.det_fraction_free` run a whole
determinant on the same maps: `expansion_determinant` expands in minors
(small matrices), `bareiss_determinant` runs a Bareiss elimination; both
pack the rows by `_pack_rows`.  The packed format is known to this module
only.  Nothing here evaluates a polynomial at a point: the point jets of
`extactic` and the modular engine (`extatica.modular`, on its own table of
terms) evaluate what they need.  The errors the modular engine raises live
here too (`BadPrimeError`, `EngineDisagreementError`, and
`DimensionGuardError`, which `extactic`'s dimension guard raises as well),
so `modular` imports nothing from `extactic`.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

Exponents = tuple  # exponent vector, one entry per ring variable
Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.  A true -infinity keeps max-degree algebra
#: correct (max(NEG_INF, d) == d for every integer d).
NEG_INF = float("-inf")

#: Fixed table of primes just below 2**31, read by the modular determinant
#: engine alone: products of two residues fit in a 64-bit lane.
PRIMES_2_31 = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921, 2147482877, 2147482873, 2147482867, 2147482859,
    2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
    2147482697, 2147482693, 2147482681, 2147482663, 2147482661, 2147482621,
)


class ContextError(ValueError):
    """Operands live in different ring contexts, or a variable index is bad."""


class BadPrimeError(ArithmeticError):
    """A prime is unusable: it divides a coefficient denominator, or the
    prime table runs out."""


class DimensionGuardError(RuntimeError):
    """System dimension exceeds the configured guard."""


class EngineDisagreementError(RuntimeError):
    """The modular engine failed its internal consistency check."""


def grlex_key(exponents: Exponents) -> tuple:
    """Sort key realizing the graded-lex order (earlier variables stronger)."""
    return (sum(exponents), exponents)


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring context: an ordered tuple of variable names."""

    names: tuple

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ContextError(f"duplicate variable names: {names}")

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: Scalar) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: Fraction(c)})

    def variable(self, index: int) -> "Polynomial":
        if not 0 <= index < self.nvars:
            raise ContextError(f"variable index {index} out of range")
        exps = [0] * self.nvars
        exps[index] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def variables(self) -> tuple:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): Fraction(coeff)})

    def from_terms(self, terms: Mapping[Exponents, Scalar]) -> "Polynomial":
        return Polynomial(self, terms)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Scalar]):
        clean = {}
        nv = ring.nvars
        for exps, c in terms.items():
            if len(exps) != nv:
                raise ContextError(
                    f"exponent vector {exps} has wrong length for {ring.names}")
            c = c if isinstance(c, Fraction) else Fraction(c)
            if c != 0:
                clean[tuple(exps)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, ring: PolyRing, terms: dict) -> "Polynomial":
        """Trusted constructor: terms already canonical (no zeros, tuples)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_hash", None)
        return obj

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ContextError(
                    f"ring mismatch: {self.ring.names} vs {other.ring.names}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def sorted_terms(self) -> list:
        """Terms as (exponents, coeff) pairs in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]),
                      reverse=True)

    def leading_term(self) -> tuple:
        """(exponents, coeff) of the graded-lex leading term (poly != 0)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s == 0:
                    del out[e]
                else:
                    out[e] = s
        return Polynomial._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial._raw(self.ring, {})
        if len(self.terms) == 1 or len(other.terms) == 1:
            # a monomial times a polynomial: shift and scale, nothing to pack
            (em, cm), = (self if len(self.terms) == 1 else other).terms.items()
            terms = other.terms if len(self.terms) == 1 else self.terms
            return Polynomial._raw(self.ring, {
                tuple(map(operator.add, e, em)): c * cm
                for e, c in terms.items()})
        # Clear denominators once so the convolution runs on plain integers
        # and packed monomials; one gcd per *result* term.
        fa, fb = _denominator(self.terms), _denominator(other.terms)
        packing = _Packing.of(self.ring.nvars,
                              int(self.degree() + other.degree()))
        acc = _convolve({}, packing.pack(self.terms, fa),
                        packing.pack(other.terms, fb))
        return packing.unpack(self.ring, acc, fa * fb)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial._raw(self.ring, {})
        return Polynomial._raw(self.ring,
                               {e: v * c for e, v in self.terms.items()})

    # -- calculus ---------------------------------------------------------------

    def partial_derivative(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to variable index `var`."""
        if not 0 <= var < self.ring.nvars:
            raise ContextError(f"variable index {var} out of range")
        out = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = e[:var] + (k - 1,) + e[var + 1:]
                out[e2] = c * k
        return Polynomial._raw(self.ring, out)

    # -- division ---------------------------------------------------------------

    def divide_exact(self, g: "Polynomial"):
        """Return q with self == q*g, or None when no exact quotient exists.

        By Gauss's lemma the integer image of self is divided by the
        primitive part of g's integer image over Z (`_divide_packed`); a
        quotient over Q is then one over Z, and one rational scale turns it
        into q.
        """
        g = self._coerce(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return Polynomial._raw(self.ring, {})
        fden, gden = _denominator(self.terms), _denominator(g.terms)
        packing = _Packing.of(self.ring.nvars,
                              int(max(self.degree(), g.degree())))
        divisor = packing.pack(g.terms, gden)
        content = math.gcd(*divisor.values())
        if content != 1:
            divisor = {k: c // content for k, c in divisor.items()}
        quot = _divide_packed(packing.pack(self.terms, fden), divisor,
                              packing)
        if quot is None:
            return None
        if gden != 1:
            quot = {k: c * gden for k, c in quot.items()}
        return packing.unpack(self.ring, quot, fden * content)

    # -- canonical text form --------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for name, k in zip(self.ring.names, exps):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    # -- equality ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.ring, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h


def _denominator(terms: Mapping[Exponents, Fraction]) -> int:
    """The lcm of a term map's coefficient denominators."""
    return math.lcm(*[c.denominator for c in terms.values()])


# ---------------------------------------------------------------------------
# the packed integer kernel
# ---------------------------------------------------------------------------

class _Packing:
    """Monomials of total degree <= `degree` packed into one int each.

    The fields, from the top, are deg | e_1 | ... | e_n: each is wide enough
    for `degree` plus one guard bit above it.  Integer order on packed keys
    is then graded-lex (total degree first, earlier variables stronger), a
    product of monomials is the sum of their keys (no field passes
    `degree`, so no carry reaches a guard bit), and m divides k exactly when
    k - m sets no guard bit: the lowest field where m exceeds k borrows
    from its own guard bit (Monagan and Pearce, "Polynomial division using
    dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  The
    widths follow `degree`, so every degree the library accepts fits.
    """

    __slots__ = ("shifts", "top", "mask", "guards")

    @staticmethod
    def of(nvars: int, degree: int) -> "_Packing":
        """The layout for `nvars` variables and total degree <= `degree`."""
        return _packing(nvars, max(degree, 1).bit_length())

    def __init__(self, nvars: int, bits: int):
        width = bits + 1
        self.shifts = tuple(width * (nvars - 1 - v) for v in range(nvars))
        self.top = width * nvars
        self.mask = (1 << bits) - 1
        self.guards = sum(1 << (width * f + bits) for f in range(nvars + 1))

    def pack(self, terms: Mapping[Exponents, Fraction], den: int) -> dict:
        """{key: integer coefficient} of den times a term map; den is a
        multiple of every coefficient denominator."""
        shifts, top = self.shifts, self.top
        if den == 1:
            return {sum(map(operator.lshift, e, shifts), sum(e) << top):
                    c.numerator for e, c in terms.items()}
        return {sum(map(operator.lshift, e, shifts), sum(e) << top):
                c.numerator * (den // c.denominator)
                for e, c in terms.items()}

    def unpack(self, ring: PolyRing, terms: Mapping[int, int],
               den: int = 1) -> "Polynomial":
        """The polynomial sum of (c/den) x^key over the nonzero terms."""
        shifts, mask = self.shifts, self.mask
        return Polynomial._raw(ring, {
            tuple([k >> s & mask for s in shifts]):
            Fraction(c, den) if den != 1 else Fraction(c)  # skips a gcd
            for k, c in terms.items() if c})


@functools.lru_cache(maxsize=None)
def _packing(nvars: int, bits: int) -> _Packing:
    return _Packing(nvars, bits)


def _convolve(acc: dict, a: Mapping[int, int], b: Mapping[int, int]) -> dict:
    """acc += a*b on packed integer term maps; acc may keep zero sums."""
    if len(a) < len(b):
        a, b = b, a
    get = acc.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _divide_packed(f: Mapping[int, int], g: Mapping[int, int],
                   packing: _Packing):
    """q over Z with f == q*g on packed integer term maps, or None.

    Leading-term elimination: the largest key of the remainder is popped
    from a heap of negated keys; a leading monomial of g that does not
    divide it, or a coefficient that its leading coefficient does not
    divide, certifies that no quotient over Z exists.  Every key pushed
    after a pop is smaller than the popped one, so each key enters the
    heap once and its remainder entry, zero or not, is read when popped.
    """
    guards = packing.guards
    lead = max(g)
    lc = g[lead]
    rest = [(k, c) for k, c in g.items() if k != lead]
    rem = dict(f)
    heap = [-k for k in rem]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    quot = {}
    while heap:
        k = -pop(heap)
        c = rem.pop(k)
        if not c:
            continue
        d = k - lead
        if d & guards:
            return None
        qc, r = divmod(c, lc)
        if r:
            return None
        quot[d] = qc
        for kg, cg in rest:
            key = kg + d
            s = rem.get(key)
            if s is None:
                rem[key] = -cg * qc
                push(heap, -key)
            else:
                rem[key] = s - cg * qc
    return quot


def derivation_chains(components: Sequence[Polynomial],
                      polys: Sequence[Polynomial], length: int) -> list:
    """[[f, X(f), ..., X^(length-1)(f)] for f in polys], X = sum_v
    components[v] * d/dx_v.

    The components share one packing, wide enough for the largest degree
    any chain reaches, and one common denominator; each is packed on its
    first use, and each f once, over its own denominator.  The derivative
    of a packed term is one subtraction (of its variable's unit and of the
    degree field's), so all products of a step land in one accumulator,
    the next packed map of the chain; each derivative is unpacked once,
    over f's denominator times a power of the components'.
    """
    ring = polys[0].ring
    # one step reads only the components of the variables the polys contain
    used = range(ring.nvars) if length > 2 else {
        v for v, ks in enumerate(zip(*[e for f in polys for e in f.terms]))
        if any(ks)}
    active = [(v, c) for v, c in enumerate(components)
              if c.terms and v in used]
    if not active:
        zero = Polynomial._raw(ring, {})
        return [[f] + [zero] * (length - 1) for f in polys]
    d = int(max(c.degree() for _, c in active))
    top = int(max(max(f.degree(), 0) for f in polys))
    # X^j f has degree <= deg f + j (d - 1), and a product in its step
    # lies below deg X^(j-1) f + d
    packing = _Packing.of(ring.nvars, top + (length - 1) * max(d - 1, 0) + d)
    fa = math.lcm(*(_denominator(c.terms) for _, c in active))
    mask, degree_unit = packing.mask, 1 << packing.top
    packed_comps = {}
    chains = []
    for f in polys:
        den = _denominator(f.terms)
        packed = packing.pack(f.terms, den)
        chain = [f]
        for _ in range(length - 1):
            acc = {}
            for v, c in active:
                shift = packing.shifts[v]
                unit = degree_unit + (1 << shift)
                # the accumulator may keep zero sums; they are skipped here
                partial = {k - unit: n * (k >> shift & mask)
                           for k, n in packed.items()
                           if n and k >> shift & mask}
                if partial:
                    if v not in packed_comps:
                        packed_comps[v] = packing.pack(c.terms, fa)
                    _convolve(acc, packed_comps[v], partial)
            packed = acc
            den *= fa
            chain.append(packing.unpack(ring, packed, den))
        chains.append(chain)
    return chains


def _pack_rows(rows: list, nvars: int, reach: int) -> tuple:
    """(packing, scale): each row of `rows` replaced, in place, by its
    packed integer maps over the lcm of its denominators, and scale the
    product of those lcms, so det(rows) = det(packed rows) / scale.

    The packing covers `reach` times the sum of the columns' largest entry
    degrees, which bounds the degree of every minor.
    """
    m = len(rows)
    degree = sum(max(max(rows[i][j].degree() for i in range(m)), 0)
                 for j in range(m))
    packing = _Packing.of(nvars, int(reach * degree))
    scale = 1
    for r in rows:
        den = math.lcm(*(c.denominator for e in r for c in e.terms.values()))
        scale *= den
        r[:] = [packing.pack(e.terms, den) for e in r]
    return packing, scale


def expansion_determinant(rows: list, ring: PolyRing) -> Polynomial:
    """Determinant of a square matrix (m >= 2) of polynomials in `ring` by
    expansion in minors over Z on packed term maps.

    The minors on the last columns are kept by row subset and built from
    the last column back to the first: the minor of rows S on the last |S|
    columns is sum_t (-1)^t a_(S_t, c) * minor(S - S_t), c = m - |S|,
    summed into one map; zero factors are skipped.  No value exceeds the
    determinant's degree bound, and nothing is divided, so the packing is
    half as wide as Bareiss's.  C(m, |S|) minors per column: for small m
    only.  `rows` is consumed.
    """
    m = len(rows)
    packing, scale = _pack_rows(rows, ring.nvars, 1)
    minors = {(i,): rows[i][m - 1] for i in range(m)}
    for c in range(m - 2, -1, -1):
        level = {}
        for subset in itertools.combinations(range(m), m - c):
            acc = {}
            for t, i in enumerate(subset):
                entry = rows[i][c]
                minor = minors[subset[:t] + subset[t + 1:]]
                if entry and minor:
                    if t % 2:
                        entry = {k: -v for k, v in entry.items()}
                    _convolve(acc, entry, minor)
            level[subset] = {k: v for k, v in acc.items() if v}
        minors = level
    return packing.unpack(ring, minors[tuple(range(m))], scale)


def bareiss_determinant(rows: list, ring: PolyRing) -> Polynomial:
    """Determinant of a square matrix (m >= 2) of polynomials in `ring` by
    Bareiss elimination over Z on packed term maps.

    Each row's denominators are cleared once, so det = det(integer matrix)
    / (product of the row scales); every division is exact over Z
    (Sylvester's identity), and a failed one raises AssertionError.  The
    first step divides by 1, so it divides nothing.  Pivots are the
    sparsest available in their column.  Only the corner is unpacked.
    `rows` is consumed.
    """
    m = len(rows)
    # every Bareiss entry is a minor; a product of two fits twice its bound
    packing, scale = _pack_rows(rows, ring.nvars, 2)
    sign = 1
    prev = None  # the previous pivot; None stands for the first step's 1
    for k in range(m - 1):
        pivot_row = None
        for i in range(k, m):
            if rows[i][k]:
                # prefer the sparsest available pivot
                if pivot_row is None or len(rows[i][k]) < len(
                        rows[pivot_row][k]):
                    pivot_row = i
        if pivot_row is None:
            return ring.zero()
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, m):
            head = {x: -c for x, c in rows[i][k].items()}
            for j in range(k + 1, m):
                num = _convolve(_convolve({}, pivot, rows[i][j]),
                                head, rows[k][j])
                if prev is None:
                    q = {x: c for x, c in num.items() if c}
                else:
                    q = _divide_packed(num, prev, packing)
                    if q is None:
                        raise AssertionError("fraction-free division failed")
                rows[i][j] = q
            rows[i][k] = {}
        prev = pivot
    return packing.unpack(ring, rows[m - 1][m - 1], sign * scale)


def proportional(f: Polynomial, g: Polynomial) -> bool:
    """Whether f and g differ by a constant factor; zero is proportional to
    every polynomial."""
    if f.is_zero() or g.is_zero():
        return True
    ef, cf = f.leading_term()
    eg, cg = g.leading_term()
    return ef == eg and f.scale(cg) == g.scale(cf)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent vectors of exact total degree, in graded-lex order:
    lexicographically descending, so x^2 > xy > xz > y^2 > yz > z^2."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def monomials_up_to_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent vectors of total degree <= `degree`, by ascending degree
    and in graded-lex order within each degree (`monomials_of_degree`)."""
    for d in range(degree + 1):
        yield from monomials_of_degree(nvars, d)
