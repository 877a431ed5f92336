"""The integer matrix of the modular determinant engine as one table of
its terms, and what `extactic.det_modular` reads off that table before and
after the grid work: the variables a column-homogeneous matrix can drop,
the degree and height bounds of the determinant, the bytes of the grid
arrays, and the re-check of the result at one point.

Pure Python, like the rest of the package outside `extatica.modular`, and
kept apart from `extatica.extactic`: with bytecode writing off, a fresh
process's peak memory follows the compile of its largest module.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace

from .linalg import det_mod, max_assignment


@dataclass(frozen=True)
class TermTable:
    """The m x m matrix of `det_modular` with column j scaled to integers
    by `scales[j]`, the lcm of its own denominators, as one flat table of
    its terms: entry by entry in row-major order, `counts[i*m + j]` terms
    of entry (i, j), each with its exponent tuple and its integer
    coefficient.  `maxima[v]`, the entries' largest degree in variable v,
    may exceed b_v: it sizes the coefficient tensor and the power tables
    of `recheck`."""

    size: int
    counts: list
    exponents: list
    coefficients: list
    scales: list
    maxima: list

    def entries(self):
        """(exponents, coefficients) of each entry, in row-major order."""
        stop = 0
        for n in self.counts:
            start, stop = stop, stop + n
            yield self.exponents[start:stop], self.coefficients[start:stop]


def term_table(rows, nvars: int) -> TermTable:
    """The term table of the square matrix `rows`, made in one pass over
    its terms."""
    m = len(rows)
    terms = [e.terms for r in rows for e in r]
    counts = [len(t) for t in terms]
    exponents = [e for t in terms for e in t]
    values = [c for t in terms for c in t.values()]
    coefficients = [c.numerator for c in values]
    denominators = [c.denominator for c in values]
    scales = [1] * m
    if max(denominators, default=1) > 1:
        ends = list(itertools.accumulate(counts))
        spans = list(zip([0] + ends[:-1], ends))
        scales = [math.lcm(*(d for i in range(m)
                             for d in denominators[slice(*spans[i * m + j])]))
                  for j in range(m)]
        coefficients = [n * (scales[k % m] // d)
                        for k, (a, b) in enumerate(spans)
                        for n, d in zip(coefficients[a:b], denominators[a:b])]
    maxima = list(map(max, zip(*exponents))) if exponents else [0] * nvars
    return TermTable(m, counts, exponents, coefficients, scales, maxima)


def drop_homogeneous(table: TermTable) -> tuple:
    """(table', degrees): the term table with its last variables dropped
    while the matrix is column-homogeneous, and the determinant's degree
    before each drop, in the order dropped.

    While there are at least two variables and every column is nonzero
    with all its terms of one total degree d_j, the determinant is
    homogeneous of degree H = d_1 + ... + d_m, so it is its value at
    x_n = 1 with each term x^e padded by x_n^(H - |e|): dropping the last
    exponent coordinate sets x_n = 1, and no two terms of an entry meet
    there, since their degrees agree."""
    m, degrees = table.size, []
    while len(table.maxima) >= 2:
        columns = [set() for _ in range(m)]
        for k, (exps, _) in enumerate(table.entries()):
            column = columns[k % m]
            column.update(map(sum, exps))
            if len(column) > 1:  # most matrices stop at their first entries
                return table, degrees
        if not all(columns):
            break
        degrees.append(sum(c.pop() for c in columns))
        table = replace(table, exponents=[e[:-1] for e in table.exponents],
                        maxima=table.maxima[:-1])
    return table, degrees


def det_bounds(table: TermTable) -> tuple:
    """Per-variable degree bounds, a total degree bound and a coefficient
    bound for the determinant of the term table's integer matrix.

    A term of the expansion, the product of the entries a_(i, s(i)) of a
    permutation s, has degree in variable v at most the sum of those
    entries' degrees in v, so b_v is the largest such sum over the
    permutations that avoid zero entries (`linalg.max_assignment`), and
    the total degree bound D is the same with total degrees.  Each is at
    most the smaller of the sums over rows and over columns of the largest
    entry degrees; b_v and D may come from different permutations, and an
    entry may exceed b_v.  When every permutation meets a zero entry,
    every term of the expansion has a zero factor and the degree bounds
    are -1, the degree of the zero determinant.  The integer coefficients
    of the determinant are at most prod_j (sum_i |a_ij|_1^2)^(1/2)
    (Goldstein and Graham, SIAM Review 16, 1974: a coefficient is at most
    the largest value on the unit torus, which Hadamard's inequality
    bounds).  It is never above m! times the product of the columns'
    largest 1-norms, since m^(m/2) <= m!.
    """
    m = table.size
    nv = len(table.maxima)
    # per entry: its largest degree in each variable, then its total
    # degree, and its 1-norm
    degrees, norms = [], []
    for exps, coeffs in table.entries():
        degrees.append(tuple(map(max, zip(*exps))) + (max(map(sum, exps)),)
                       if exps else None)
        norms.append(sum(map(abs, coeffs)))
    bounds = []
    for k in range(nv + 1):
        best = max_assignment([[d if d is None else d[k]
                                for d in degrees[i * m:i * m + m]]
                               for i in range(m)])
        if best is None:
            bounds = [-1] * (nv + 1)
            break
        bounds.append(best)
    squares = math.prod(sum(n * n for n in norms[j::m]) for j in range(m))
    return bounds[:nv], bounds[nv], math.isqrt(squares)


def lower_set_size(bounds, degree: int) -> int:
    """|{e : e_v <= bounds[v], sum(e) <= degree}|, counted by total degree
    one axis at a time."""
    count = [1] + [0] * degree  # count[s]: points of total degree s so far
    for b in bounds:
        prefix = [0]
        for c in count:
            prefix.append(prefix[-1] + c)
        count = [prefix[s + 1] - prefix[max(0, s - b)]
                 for s in range(degree + 1)]
    return sum(count)


def grid_bytes(table: TermTable, var_bounds, total_bound, workers: int,
               primes: int) -> int:
    """Bytes of the modular engine's largest arrays.  Shared by all
    workers: 2n + 1 indices of the plan (exponents and lines) and one
    residue per prime at every point of the lower set, and per prime the
    int32 Vandermonde, divided-difference and Newton-to-monomial matrices
    of `modular._prime_tables`, counted as squares of side the longest
    axis below.  Held by each of the `workers` threads of
    `modular.prime_images`: m x m int64 values and the elimination's m
    scratch values at every point of the lower set; the entries while the
    leading axes are contracted, the largest of the m x m tensors with the
    nodes b_u + 1 of the axes done and the coefficients c_u (the entries'
    largest degree plus one) of the others, since an entry may exceed b_u;
    and the float64 right operand of `modular._matmul_mod`, a table stacked
    on its 2^16 multiple, two such squares."""
    m, nv = table.size, len(var_bounds)
    nodes = [b + 1 for b in var_bounds]
    coeffs = [d + 1 for d in table.maxima]
    leading = max(math.prod(nodes[:v]) * math.prod(coeffs[v:])
                  for v in range(nv))
    size = max(nodes + coeffs)
    points = lower_set_size(var_bounds, total_bound)
    shared = (2 * nv + 1 + primes) * points
    per_worker = (m * m + m) * points + m * m * leading + 2 * size * size
    return 8 * (shared + workers * per_worker) + 4 * 3 * size * size * primes


#: The prime of `recheck`: the largest prime below every prime of
#: `polyring.PRIMES_2_31`, so never one that the Chinese remaindering used,
#: and a wrong coefficient, whatever its error, shows at the check point
#: unless the error's value there is a multiple of it.
CHECK_PRIME = 2147482591


def recheck(table: TermTable, exponents, coefficients, var_bounds) -> bool:
    """Whether the integer determinant, given by its terms' `exponents` and
    `coefficients`, and the term table's integer matrix agree at one fresh
    point modulo CHECK_PRIME.

    Independent of the grid path, on Python ints: one table of powers per
    variable at the point, as long as the larger of b_v and the entries'
    largest degree in v (an entry may exceed b_v), gives the value of each
    distinct monomial of the m^2 entries and of the determinant once; the
    entries' values then go through the scalar elimination
    `linalg.det_mod`.
    """
    p = CHECK_PRIME
    tables = []
    for v, (b, d) in enumerate(zip(var_bounds, table.maxima)):
        x, powers = b + 2 + v, [1]
        for _ in range(max(b, d)):
            powers.append(powers[-1] * x % p)
        tables.append(powers)
    monomials = {e: math.prod(map(list.__getitem__, tables, e)) % p
                 for e in {*table.exponents, *exponents}}

    def value(exps, coeffs):
        return sum(map(operator.mul, coeffs,
                       map(monomials.__getitem__, exps))) % p

    m = table.size
    values = [value(*entry) for entry in table.entries()]
    return value(exponents, coefficients) == det_mod(
        [values[i * m:i * m + m] for i in range(m)], p)
