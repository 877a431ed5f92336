"""Dense exact linear algebra: one elimination over Q, one over Z/p.

`reduce_rational` is the Gauss-Jordan reduction behind every rational rank,
kernel and scalar determinant in the package.  It runs fraction-free over Z
(Bareiss's integer-preserving elimination): each row's denominators are
cleared once, every division is exact, and `Fraction`s are built only from
the final rows.  `det_mod` is the determinant of an integer matrix modulo a
prime, used wherever the modular engine evaluates a single point.
`max_assignment`, the largest weight of a permutation of a weight matrix
(the Hungarian method), gives the modular engine its degree bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from typing import Optional


def _eliminate(matrix) -> tuple:
    """Fraction-free Gauss-Jordan over Z, without row exchanges.

    A row with a non-integer entry is first multiplied by the lcm of its
    denominators; integer rows (`int` entries) are taken as they are.  Row
    scaling changes neither the zero pattern of the reduction nor the
    kernel.  Column by column, the pivot is the first row, in the original
    row order, that is not a pivot row yet and has a nonzero entry there.
    With `a` the pivot and `prev` the previous pivot (1 at first), every
    other row becomes (a*row - row[c]*pivot_row) // prev, all of it: pivot
    rows carry nonzero entries in earlier free columns.  Every division is
    exact (each entry is a minor of the scaled matrix), and afterwards every
    pivot row holds `prev` at each pivot column, so the rational reduction
    is the integer one divided by the last pivot.

    Returns (rows, pivots, prev, scale): the integer rows, the (row, column)
    pivots in column order, the last pivot (1 if none), and the product of
    the row scale factors.
    """
    rows = []
    scale = 1
    for r in matrix:
        if all(type(v) is int for v in r):
            rows.append(list(r))
        else:
            r = [Fraction(v) for v in r]
            s = lcm(*(v.denominator for v in r))
            scale *= s
            rows.append([v.numerator * (s // v.denominator) for v in r])
    ncols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    pivots = []
    prev = 1
    for c in range(ncols):
        p = next((i for i, row in enumerate(rows) if not used[i] and row[c]),
                 None)
        if p is None:
            continue
        used[p] = True
        pivots.append((p, c))
        top = rows[p]
        a = top[c]
        for i, row in enumerate(rows):
            if i == p:
                continue
            f = row[c]
            if f:
                rows[i] = [(a * x - f * y) // prev for x, y in zip(row, top)]
            else:
                rows[i] = [a * x // prev for x in row]
        prev = a
    return rows, pivots, prev, scale


def reduce_rational(matrix) -> tuple:
    """Gauss-Jordan reduction of a rational matrix, without row exchanges.

    Column by column, the pivot is the first row, in the original row order,
    that is not a pivot row yet and has a nonzero entry there; it is scaled
    to 1 and its column is cleared in every other row.  Rows keep their
    positions, so the pivot rows of the leading columns are the pivots that
    fall in those columns.  The reduction runs fraction-free over Z after
    clearing each row's denominators (`_eliminate`); the reduced rows are
    its rows divided by the last pivot, and the determinant is that pivot,
    signed by the pivot rows' order, over the row scale factors.

    Returns (rows, pivots, det): the reduced rows, the (row, column) pivots
    in column order, and the determinant (None for a rectangular matrix).
    """
    rows, pivots, prev, scale = _eliminate(matrix)
    reduced = [[Fraction(v, prev) for v in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    if len(rows) != ncols:
        return reduced, pivots, None
    if len(pivots) < ncols:
        return reduced, pivots, Fraction(0)
    order = [p for p, _ in pivots]
    inversions = sum(a > b for n, a in enumerate(order) for b in order[n + 1:])
    return reduced, pivots, Fraction(-prev if inversions % 2 else prev, scale)


def kernel(matrix, ncols: int) -> list:
    """Exact kernel basis of a rational matrix with `ncols` columns.

    One vector per free (non-pivot) column, in column order; each is 1 on
    its own free column and 0 on the others.  Its entry at a pivot column c
    is -row[fc] / prev, read off the fraction-free reduction
    (`_eliminate`): the only `Fraction`s built are the basis entries.
    """
    rows, pivots, prev, _ = _eliminate(matrix)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for p, c in pivots:
            vec[c] = Fraction(-rows[p][fc], prev)
        basis.append(vec)
    return basis


def det_mod(matrix, p: int) -> int:
    """Determinant of an integer matrix modulo a prime p, in [0, p).

    Elimination with row exchanges; it stops at the first column without a
    pivot, where the determinant is zero.
    """
    rows = [[v % p for v in r] for r in matrix]
    m = len(rows)
    det = 1
    for k in range(m):
        # rows[i] holds columns k.. of row i; earlier columns are eliminated
        for i in range(k, m):
            if rows[i][0]:
                break
        else:
            return 0
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            det = -det
        top = rows[k]
        det = det * top[0] % p
        neg_inv = p - pow(top[0], -1, p)
        tail = top[1:]
        for i in range(k + 1, m):
            row = rows[i]
            f = row[0] * neg_inv % p
            rows[i] = [(a + f * b) % p for a, b in zip(row[1:], tail)] \
                if f else row[1:]
    return det % p


def max_assignment(weights) -> Optional[int]:
    """max over permutations s of sum_i weights[i][s(i)] that avoid every
    None entry, or None when no permutation does.

    Hungarian method (Kuhn, Naval Res. Logist. Q. 2, 1955) with potentials,
    O(m^3), as a minimum-cost assignment of the negated weights in which a
    None entry costs more than every weight together: a permutation that
    avoids them all costs at most 0, one that meets one at least 1.
    """
    m = len(weights)
    big = 1 + sum(w for r in weights for w in r if w is not None)
    cost = [[big if w is None else -w for w in r] for r in weights]
    # 1-based columns; column 0 and row 0 are the method's sentinels
    u, v = [0] * (m + 1), [0] * (m + 1)
    match = [0] * (m + 1)  # match[j]: the row assigned to column j
    for i in range(1, m + 1):
        match[0], j0 = i, 0
        least = [inf] * (m + 1)
        way = [0] * (m + 1)
        used = [False] * (m + 1)
        while match[j0]:
            used[j0] = True
            row, ui = cost[match[j0] - 1], u[match[j0]]
            delta, j1 = inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < least[j]:
                        least[j], way[j] = reduced, j0
                    if least[j] < delta:
                        delta, j1 = least[j], j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    least[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = sum(cost[match[j] - 1][j - 1] for j in range(1, m + 1))
    return None if total > 0 else -total
