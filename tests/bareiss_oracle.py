"""Bareiss elimination, multiplication and exact division in `Fraction`
arithmetic.

The references that the tests compare `extatica.extactic.det_fraction_free`,
`Polynomial.__mul__` and `Polynomial.divide_exact` (all on packed integer
monomials) against: the same sparsest-pivot rule and the same leading-term
division, on {exponent tuple: Fraction} term maps with tuple arithmetic per
monomial.
"""

import heapq

from extatica.polyring import Polynomial


def _heap_key(exponents):
    """Min-heap entry that pops the graded-lex largest exponents first."""
    return (-sum(exponents), tuple(-e for e in exponents)), exponents


def _leading(terms):
    exps = max(terms, key=lambda e: (sum(e), e))
    return exps, terms[exps]


def multiply(f: Polynomial, g: Polynomial) -> Polynomial:
    """f*g by the term-by-term convolution of the two term maps."""
    acc = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            key = tuple(map(sum, zip(ef, eg)))
            acc[key] = acc.get(key, 0) + cf * cg
    return f.ring.from_terms(acc)


def _sub(f: Polynomial, g: Polynomial) -> Polynomial:
    terms = dict(f.terms)
    for e, c in g.terms.items():
        terms[e] = terms.get(e, 0) - c
    return f.ring.from_terms(terms)


def divide_exact(f: Polynomial, g: Polynomial):
    """q with f == q*g, or None, as `Polynomial.divide_exact`."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    g_exps, g_coeff = _leading(g.terms)
    rem = dict(f.terms)
    heap = [_heap_key(e) for e in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        exps = heapq.heappop(heap)[1]
        if exps not in rem:
            continue
        diff = tuple(a - b for a, b in zip(exps, g_exps))
        if any(d < 0 for d in diff):
            return None
        c = rem[exps] / g_coeff
        quot[diff] = c
        for eg, cg in g.terms.items():
            key = tuple(map(sum, zip(eg, diff)))
            s = rem.get(key, 0) - cg * c
            if s == 0:
                rem.pop(key, None)
            else:
                if key not in rem:
                    heapq.heappush(heap, _heap_key(key))
                rem[key] = s
    return f.ring.from_terms(quot)


def det_fraction_free(matrix) -> Polynomial:
    """Determinant by Bareiss elimination, as `det_fraction_free`."""
    rows = [list(r) for r in matrix]
    m = len(rows)
    ring = rows[0][0].ring
    if m == 1:
        return rows[0][0]
    sign = 1
    prev = ring.one()
    for k in range(m - 1):
        pivot_row = None
        for i in range(k, m):
            if not rows[i][k].is_zero():
                # prefer the sparsest available pivot
                if pivot_row is None or len(rows[i][k].terms) < len(
                        rows[pivot_row][k].terms):
                    pivot_row = i
        if pivot_row is None:
            return ring.zero()
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, m):
            head = rows[i][k]
            for j in range(k + 1, m):
                q = divide_exact(_sub(multiply(pivot, rows[i][j]),
                                      multiply(head, rows[k][j])), prev)
                if q is None:
                    raise AssertionError("fraction-free division failed")
                rows[i][j] = q
            rows[i][k] = ring.zero()
        prev = pivot
    corner = rows[m - 1][m - 1]
    return corner.scale(sign)
