"""The Gauss-Jordan reduction over Q in `Fraction` arithmetic.

The reference that the tests compare `extatica.linalg.reduce_rational` and
`kernel` (fraction-free over Z) against: the same pivot rule and outputs,
with one `Fraction` operation per entry update and no integer scaling.
"""

from fractions import Fraction


def reduce_rational(matrix) -> tuple:
    """(rows, pivots, det), as `extatica.linalg.reduce_rational`."""
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
    """Kernel basis, as `extatica.linalg.kernel`."""
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
