"""Dense exact linear algebra: one elimination over Q, one over Z/p.

`reduce_rational` is the Gauss-Jordan reduction behind every rational rank,
kernel and scalar determinant in the package; `det_mod` is the determinant
of an integer matrix modulo a prime, used wherever the modular engine
evaluates a single point.
"""

from __future__ import annotations

from fractions import Fraction


def reduce_rational(matrix) -> tuple:
    """Gauss-Jordan reduction of a rational matrix, without row exchanges.

    Column by column, the pivot is the first row, in the original row order,
    that is not a pivot row yet and has a nonzero entry there; it is scaled
    to 1 and its column is cleared in every other row.  Rows keep their
    positions, so the pivot rows of the leading columns are the pivots that
    fall in those columns.

    Returns (rows, pivots, det): the reduced rows, the (row, column) pivots
    in column order, and the determinant (None for a rectangular matrix).
    """
    rows = [[Fraction(v) for v in r] for r in matrix]
    ncols = len(rows[0]) if rows else 0
    used = [False] * len(rows)
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        p = next((i for i, row in enumerate(rows) if not used[i] and row[c]),
                 None)
        if p is None:
            continue
        used[p] = True
        pivots.append((p, c))
        top = rows[p]
        det *= top[c]
        inv = 1 / top[c]
        # entries left of c are zero in every row not yet a pivot row
        top[c:] = tail = [v * inv for v in top[c:]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != p:
                row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
    if len(rows) != ncols:
        return rows, pivots, None
    if len(pivots) < ncols:
        return rows, pivots, Fraction(0)
    order = [p for p, _ in pivots]
    inversions = sum(a > b for n, a in enumerate(order) for b in order[n + 1:])
    return rows, pivots, -det if inversions % 2 else det


def kernel(matrix, ncols: int) -> list:
    """Exact kernel basis of a rational matrix with `ncols` columns.

    One vector per free (non-pivot) column, in column order; each is 1 on
    its own free column and 0 on the others.
    """
    rows, pivots, _ = reduce_rational(matrix)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for p, c in pivots:
            vec[c] = -rows[p][fc]
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
