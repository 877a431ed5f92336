"""The modular determinant engine: the exact determinant of a polynomial
matrix by evaluation and interpolation modulo word-size primes.

`extactic.det_modular` expands unit rows and columns and hands the minor to
`determinant`, which runs the whole pipeline here:

1. One table of the matrix's terms (`term_table`), each column scaled to
   integers by the lcm of its own denominators, so det = det(integer
   matrix) / (product of the scales).  Every later step reads this table.
2. While the matrix is column-homogeneous, as the jet matrices of
   homogeneous fields are, the determinant is homogeneous of known degree:
   the last variable is dropped from the table (`drop_homogeneous`) and
   given back to each term of the result at the end.
3. The bounds (`det_bounds`): degree b_v in variable v and total degree D,
   the largest degree sums over permutations, and a coefficient height
   bound.  When no permutation avoids the zero entries the determinant is
   0, before any grid work.
4. Primes from `polyring.PRIMES_2_31` until their product exceeds twice
   the height; the memory guard (`grid_bytes` against MAX_GRID_BYTES) speaks
   before an exhausted prime table (BadPrimeError).
5. The residues of the coefficients modulo each prime (`prime_images`).
   They live on the lower set Λ = {e : e_v <= b_v, sum(e) <= D}, and the
   values at the points e + 1 of Λ determine them.  Since b_v and D come
   from permutations, an entry may exceed b_v: the coefficient tensor
   follows the entries' degrees, the nodes follow the bounds.  Once per
   determinant: the index plan of Λ (`_grid_plan`) and the Vandermonde and
   Newton matrices of every prime, stacked over the primes
   (`_prime_tables`).  Per prime, the entries are evaluated at the points of
   Λ only (one contraction per leading axis for the whole matrix, then the
   last axis per block of like columns), eliminated at every point without
   division and with one batch inversion per prime, and Newton-interpolated
   axis by axis along the lines of Λ, all contractions exact float64 BLAS
   products (`_matmul_mod`).  The large int64 reductions mod p are one
   helper, `_reduce`, a multiply and shift in place of numpy's true
   division.
6. Garner's mixed-radix algorithm in int64 (`chinese_remainder`) gives the
   symmetric residues, which are the integer coefficients.
7. A re-check of the result at one more point, on Python ints and modulo a
   prime outside the remaindering set (`recheck`); a failure raises
   EngineDisagreementError.

The only module of extatica that imports numpy.  `det_modular` imports it
for its first determinant, so a process that computes no modular
determinant never loads numpy, nor compiles this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .linalg import det_mod, max_assignment
from .polyring import (PRIMES_2_31, BadPrimeError, DimensionGuardError,
                       EngineDisagreementError, Polynomial)


def determinant(rows, ring, jobs: int = 1) -> tuple:
    """(det, scale) with det(rows) = det / scale, for a non-empty square
    matrix `rows` over `ring`, which has variables: det is the determinant
    of the integer matrix of the term table and scale the product of its
    column scales.  Up to `jobs` threads run the primes (`prime_images`), as
    many as the memory guard admits, each with its own grid arrays."""
    table, dropped = drop_homogeneous(term_table(rows, ring.nvars))
    var_bounds, total_bound, height = det_bounds(table)
    if total_bound < 0:
        return ring.zero(), 1  # no permutation avoids the zero entries
    # symmetric residues recover every coefficient of absolute value at
    # most height once the modulus exceeds twice it
    target = 2 * height
    chosen = []
    prod = 1
    for p in PRIMES_2_31:
        chosen.append(p)
        prod *= p
        if prod > target:
            break
    # the memory guard speaks first: an input that trips both is refused
    # for its bytes
    for workers in range(min(jobs, len(chosen)), 0, -1):
        nbytes = grid_bytes(table, var_bounds, total_bound, workers,
                            len(chosen))
        if nbytes <= MAX_GRID_BYTES:
            break
    else:
        raise DimensionGuardError(
            f"the grid arrays on the lower set of degree <= {total_bound} "
            f"need {nbytes} bytes, above the guard of {MAX_GRID_BYTES}")
    if prod <= target:
        raise BadPrimeError(
            f"prime table exhausted: the height bound needs "
            f"{target.bit_length()} bits, the usable primes cover "
            f"{prod.bit_length()}")
    exponents, residues = prime_images(table, var_bounds, total_bound, chosen,
                                       workers)
    exponents = list(map(tuple, exponents.tolist()))
    # each coefficient is nonzero modulo some prime, so never 0
    coefficients = chinese_remainder(residues, chosen)
    if not recheck(table, exponents, coefficients, var_bounds):
        raise EngineDisagreementError(
            "modular determinant failed its consistency re-check")
    for degree in reversed(dropped):
        exponents = [e + (degree - sum(e),) for e in exponents]
    det = Polynomial._raw(ring, dict(zip(exponents,
                                         map(Fraction, coefficients))))
    return det, math.prod(table.scales)


# ---------------------------------------------------------------------------
# the term table and the bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TermTable:
    """The m x m matrix of `determinant` with column j scaled to integers
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


# ---------------------------------------------------------------------------
# the memory guard
# ---------------------------------------------------------------------------

#: `determinant` refuses a grid whose arrays (`grid_bytes`) would exceed
#: this many bytes.
MAX_GRID_BYTES = 1 << 30


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
    """Bytes of the grid arrays, the engine's largest, on the lower set
    Λ of `var_bounds` and `total_bound`; the one description of them.

    Shared by all workers: 2n + 1 indices of the plan (exponents and lines)
    and one residue per prime at every point of Λ, and per prime the int32
    Vandermonde, divided-difference and Newton-to-monomial matrices of
    `_prime_tables`, counted as squares of side the longest axis below.
    Held by each of the `workers` threads of `prime_images`: m x m int64
    values and the elimination's m scratch values at every point of Λ; the
    entries while the leading axes are contracted, the largest of the
    m x m tensors with the nodes b_u + 1 of the axes done and the
    coefficients c_u (the entries' largest degree plus one) of the others,
    since an entry may exceed b_u; and the float64 right operand of
    `_matmul_mod`, a table stacked on its 2^16 multiple, two such squares.
    Counting Λ instead of the box admits inputs with D < sum(b_v) that the
    box would refuse.
    """
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


# ---------------------------------------------------------------------------
# the grid: evaluation, elimination and interpolation per prime
# ---------------------------------------------------------------------------

def _inverse_blocks(n: int) -> int:
    """Block count of `_batch_inverse` on n entries.  Each block costs six
    array operations over its width and the last block row about three
    Python-int operations per value; with numpy's fixed cost per call,
    about sqrt(n / 8) blocks was fastest on 10^2 to 10^5 entries."""
    return max(1, math.isqrt(n >> 3))


def _batch_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the entries of the 1-D array `a` (in [0, p)), with
    0 mapped to 0.

    Montgomery's trick on a (blocks, width) view of the array: prefix
    products run down the blocks, the last block row is inverted by the
    same trick on Python ints with a single `pow`, and two multiplications
    per block give the inverses on the way back.  A zero, and the padding
    of the last block row, is a stand-in 1 that keeps it out of the
    products.
    """
    n = a.size
    blocks = _inverse_blocks(n)
    width = -(-n // blocks)
    x = np.ones(blocks * width, dtype=np.int64)
    x[:n] = a
    zero = x == 0
    x[zero] = 1
    x = x.reshape(blocks, width)
    prefix = np.empty_like(x)
    prefix[0] = x[0]
    for b in range(1, blocks):
        np.multiply(prefix[b - 1], x[b], out=prefix[b])
        prefix[b] %= p
    last = prefix[-1].tolist()
    running = list(itertools.accumulate(last, lambda u, v: u * v % p))
    inv = pow(running[-1], -1, p)
    for t in range(width - 1, 0, -1):
        last[t], inv = inv * running[t - 1] % p, inv * last[t] % p
    last[0] = inv
    inv = np.array(last, dtype=np.int64)
    # inv is the inverse of prefix[b]; prefix[b] becomes the inverse of x[b]
    for b in range(blocks - 1, 0, -1):
        np.multiply(prefix[b - 1], inv, out=prefix[b])
        prefix[b] %= p
        inv *= x[b]
        inv %= p
    prefix[0] = inv
    out = prefix.reshape(-1)[:n]
    out[zero[:n]] = 0
    return out


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray) -> np.ndarray:
    """x mod p in place for an int64 `x` in (-2^62, 2^62), as x - (x // p)
    * p with the int64 `scratch` of x's shape: numpy divides by a scalar
    with a multiply and a shift, and the three passes cost a fifth of the
    true division of `np.remainder` (2.0 against 11.5 ns per value on one
    core of a 2-vCPU x86-64 host with numpy 2.4)."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    x -= scratch
    return x


#: Inner-dimension chunk of one float64 product in `_matmul_mod`: with at
#: most 64 terms, a sum of products of a 16-bit and a 31-bit factor stays
#: below 64 * 2^16 * 2^31 = 2^53, where float64 is exact.
_CHUNK = 64

#: `_matmul_mod` writes its output in blocks of rows holding about this many
#: values, so its float64 product and int64 copy stay at 256 KB each.
_BLOCK_VALUES = 1 << 15


def _matmul_mod(a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """a @ v mod p for an int64 `a` and a 2-D integer or float64 `v`, both
    with entries in [0, p), p < 2^31.

    The left operand is split at 16 bits, a = 2^16 * high + low, and
    [high | low] @ [2^16 v mod p ; v] is computed as float64 matrix
    products, which run on BLAS.  The doubled inner dimension is cut into
    chunks of 64, so every partial sum stays below 64 * 2^16 * 2^31 = 2^53
    and is exact in float64.  All products are added in int64 and reduced
    mod p once: an inner dimension below 2^15 (the high half below 2^15)
    keeps the sum below 2^15 (2^15 + 2^16) 2^31 = 2^61 + 2^62, and a
    longer one is refused.
    """
    inner = a.shape[-1]
    if inner >= 1 << 15:
        raise DimensionGuardError(
            f"inner dimension {inner} reaches 2^15: an entry degree is too "
            "large for exact evaluation")
    right = np.empty((2 * inner, v.shape[-1]))
    np.copyto(right[:inner], (v.astype(np.int64) << 16) % p, casting="unsafe")
    right[inner:] = v
    halves = np.empty(a.shape[:-1] + (2 * inner,))
    np.right_shift(a, 16, out=halves[..., :inner], casting="unsafe")
    np.bitwise_and(a, 0xFFFF, out=halves[..., inner:], casting="unsafe")
    halves = halves.reshape(-1, 2 * inner)
    out = np.empty(a.shape[:-1] + v.shape[-1:], dtype=np.int64)
    flat = out.reshape(len(halves), -1)
    step = max(1, _BLOCK_VALUES // flat.shape[1])
    prod = np.empty((min(step, len(flat)), flat.shape[1]))
    # the int64 copy of a later chunk's product, made only when there is
    # one; the reduction reuses the product's buffer as its scratch
    part = np.empty(prod.shape, dtype=np.int64) if 2 * inner > _CHUNK \
        else None
    for r in range(0, len(flat), step):
        target = flat[r:r + step]
        n = len(target)
        for c in range(0, 2 * inner, _CHUNK):
            np.matmul(halves[r:r + step, c:c + _CHUNK], right[c:c + _CHUNK],
                      out=prod[:n])
            if not c:  # the first product starts the sum
                np.copyto(target, prod[:n], casting="unsafe")
            else:
                np.copyto(part[:n], prod[:n], casting="unsafe")
                target += part[:n]
        _reduce(target, p, prod[:n].view(np.int64))
    return out


#: A `_matmul_mod` call costs about as much fixed time as this many padded
#: output values (about 35 us against 20 ns per value on one core of a
#: 2-vCPU x86-64 host with numpy 2.4), so `_runs` pads rows of like length
#: into one call while their padding stays below it.
_PAD_VALUES = 1 << 11


def _runs(lengths: np.ndarray, weight: int) -> list:
    """Cut the non-increasing `lengths` into runs [start, stop), each
    padded to its first length: rows of equal length always share a run,
    and a run takes the next shorter rows while `weight` times its padding
    stays within _PAD_VALUES."""
    edges = [0] + (np.flatnonzero(np.diff(lengths)) + 1).tolist() \
        + [len(lengths)]
    runs, start, pad = [], 0, 0
    for a, b in zip(edges[:-1], edges[1:]):  # rows a..b-1 share a length
        pad += weight * (b - a) * int(lengths[start] - lengths[a])
        if pad > _PAD_VALUES:
            runs.append((start, a))
            start, pad = a, 0
    runs.append((start, len(lengths)))
    return runs


@dataclass(frozen=True)
class _GridPlan:
    """The prime-independent layout of one determinant's grid work.

    Coefficients: term t of the integer matrix sits at `positions[t]` of
    one dense (m, m, c_1, ..., c_n) tensor of shape `shape`, c_v - 1 the
    matrix's largest degree in variable v, with coefficient
    `coefficients[t]`, an object array when a value exceeds int64.

    Points: the lower set Λ = {e : e_v <= bounds[v], sum(e) <= degree},
    one point per row of `exponents`, stored leading point by leading point
    (e_1..e_(n-1)), longest column of last coordinates first, each column
    0..l-1 in a row.  The point of e is (e_1 + 1, ..., e_n + 1).
    `columns` cuts the storage into (start, stop, leading points, width,
    source) blocks: block values come from one contraction of the last axis
    at `width` nodes for the leading points (flat indices into the leading
    grid), and `source` (None without padding) picks the stored ones.
    `lines[v]` holds one (lines, width) index array per run of lines along
    axis v, each line padded with the index len(exponents).
    """

    shape: tuple
    positions: np.ndarray
    coefficients: np.ndarray
    bounds: tuple
    exponents: np.ndarray
    columns: tuple
    lines: tuple


def _grid_plan(table, bounds, degree: int) -> _GridPlan:
    """The coefficient tensor's layout, read off the term table `table`
    (`term_table`), and the index plan of Λ, made once per
    determinant."""
    m = table.size
    nv = len(bounds)
    shape = (m, m) + tuple(d + 1 for d in table.maxima)
    terms = len(table.coefficients)
    exps = np.fromiter(itertools.chain.from_iterable(table.exponents),
                       np.int64, terms * nv).reshape(terms, nv)
    entries = np.repeat(np.arange(m * m), table.counts)
    positions = entries * math.prod(shape[2:]) \
        + np.ravel_multi_index(exps.T, shape[2:])
    try:
        coeffs = np.fromiter(table.coefficients, np.int64, terms)
    except OverflowError:  # a coefficient beyond int64
        coeffs = np.array(table.coefficients, dtype=object)

    # the columns: leading points by descending column length
    lead = tuple(b + 1 for b in bounds[:-1])
    coords = np.indices(lead).reshape(len(lead), math.prod(lead))
    length = np.minimum(bounds[-1], degree - coords.sum(axis=0)) + 1
    order = np.argsort(-length, kind="stable")
    order = order[length[order] > 0]
    length = length[order]
    owner = np.repeat(np.arange(len(order)), length)
    first = np.concatenate(([0], np.cumsum(length)))
    last = np.arange(first[-1]) - first[owner]
    exponents = np.column_stack([coords[:, order[owner]].T, last])
    columns = []
    for a, b in _runs(length, m * m):
        width = int(length[a])
        lo, hi = int(first[a]), int(first[b])
        source = None if length[b - 1] == width else \
            (owner[lo:hi] - a) * width + last[lo:hi]
        columns.append((lo, hi, order[a:b], width, source))

    # the lines along each axis, longest first
    size = len(exponents)
    lines = []
    for v in range(nv):
        dims = [b + 1 for u, b in enumerate(bounds) if u != v]
        key = np.delete(exponents, v, axis=1) @ np.array(
            [math.prod(dims[k + 1:]) for k in range(nv - 1)], dtype=np.int64)
        along = np.lexsort((exponents[:, v], key))
        starts = np.flatnonzero(exponents[along, v] == 0)
        lens = np.diff(np.append(starts, size))
        by_length = np.argsort(-lens, kind="stable")
        starts, lens = starts[by_length], lens[by_length]
        runs = []
        for a, b in _runs(lens, 1):
            steps = np.arange(lens[a])
            at = starts[a:b, None] + steps
            runs.append(np.where(steps < lens[a:b, None],
                                 along[np.minimum(at, size - 1)], size))
        lines.append(tuple(runs))
    return _GridPlan(shape, positions, coeffs, tuple(bounds), exponents,
                     tuple(columns), tuple(lines))


def _vandermonde(rows: int, size: int, primes: Sequence[int]) -> np.ndarray:
    """int32 (len(primes), rows, size) stack with entry (k, d, t) =
    (t + 1)^d mod primes[k]: the powers of the nodes 1..size, built row by
    row in int64 for all primes at once."""
    p = np.array(primes, dtype=np.int64)[:, None]
    x = np.arange(1, size + 1, dtype=np.int64) % p
    vander = np.empty((len(primes), rows, size), dtype=np.int32)
    power = np.ones_like(x)
    vander[:, 0] = power
    for d in range(1, rows):
        power *= x
        power %= p
        vander[:, d] = power
    return vander


def _grid_values(plan: _GridPlan, p: int, vander: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """Values mod p of every matrix entry at every point of Λ, written into
    the (m, m, |Λ|) int64 tensor `out`.

    The coefficients reduced mod p go into the matrix's coefficient tensor
    with one scatter; each leading axis is contracted for the whole matrix
    with the powers of its nodes (`vander`, p's slice of `_prime_tables`),
    and the last axis once per block of `plan.columns`, at that block's
    nodes only.
    """
    m = plan.shape[0]
    nv = len(plan.bounds)
    tensor = np.zeros(math.prod(plan.shape), dtype=np.int64)
    tensor[plan.positions] = plan.coefficients % p
    tensor = tensor.reshape(plan.shape)
    # contracting axis 2 moves its grid axis to the end: the last
    # variable's coefficients end up on axis 2, before the leading grid
    for v in range(nv - 1):
        tensor = _matmul_mod(np.moveaxis(tensor, 2, -1),
                             vander[:plan.shape[v + 2], :plan.bounds[v] + 1],
                             p)
    tensor = tensor.reshape(m, m, plan.shape[-1], -1)
    for lo, hi, leading, width, source in plan.columns:
        block = _matmul_mod(np.moveaxis(tensor[:, :, :, leading], 2, -1),
                            vander[:plan.shape[-1], :width], p)
        block = block.reshape(m, m, -1)
        out[:, :, lo:hi] = block if source is None else block[:, :, source]
    return out


def _newton_matrices(size: int, primes: Sequence[int]) -> tuple:
    """int32 (len(primes), size, size) stacks of matrices mod each prime on
    the nodes 1..size: the transposed divided differences, and Newton to
    monomial coefficients.

    With unit steps, the divided difference of order a is
    sum_i (-1)^(a-i) C(a, i) f(i + 1) / a!, so entry (i, a) of the first is
    (-1)^(a-i) / (i! (a-i)!) for i <= a.  Row a of the second holds the
    coefficients of (x - 1)(x - 2)...(x - a), by the recurrence that
    multiplies by the next factor, for all primes at once.
    """
    inv_fact = []
    for q in primes:
        fact = 1
        for k in range(1, size):
            fact = fact * k % q
        row, inv = [1] * size, pow(fact, -1, q)
        for k in range(size - 1, 0, -1):
            row[k] = inv
            inv = inv * k % q
        inv_fact.append(row)
    inv_fact = np.array(inv_fact, dtype=np.int64).reshape(len(primes), size)
    p = np.array(primes, dtype=np.int64)[:, None]
    signed = np.where(np.arange(size) % 2, p - inv_fact, inv_fact)
    # row i of the Toeplitz view holds signed[a - i] at a >= i, 0 before
    padded = np.concatenate(
        (np.zeros((len(primes), size - 1), dtype=np.int64), signed), axis=1)
    toeplitz = sliding_window_view(padded, size, axis=1)[:, ::-1]
    lower = (toeplitz * inv_fact[:, :, None] % p[:, :, None]).astype(
        np.int32)
    # built row by row in int64 (column 0 stays 0, the rest is the current
    # product)
    newton = np.zeros((len(primes), size, size), dtype=np.int32)
    newton[:, 0, 0] = 1
    row = np.zeros((len(primes), size + 1), dtype=np.int64)
    row[:, 1] = 1
    for k in range(1, size):  # times (x - k)
        row[:, 1:k + 2] = (row[:, :k + 1] - k * row[:, 1:k + 2]) % p
        newton[:, k, :k + 1] = row[:, 1:k + 2]
    return lower, newton


def _prime_tables(plan: _GridPlan, primes: Sequence[int]) -> list:
    """Per prime, the (Vandermonde, divided-difference, Newton-to-monomial)
    matrices of `_grid_values` and `_interpolate`, views into stacks built
    once per determinant for all its primes.  They are int32, since every
    entry is below 2^31: `_matmul_mod` makes its float64 operand from its
    right factor anyway."""
    size = max(plan.bounds) + 1
    vander = _vandermonde(max(plan.shape[2:]), size, primes)
    return list(zip(vander, *_newton_matrices(size, primes)))


def _interpolate(plan: _GridPlan, values: np.ndarray, p: int,
                 lower: np.ndarray, newton: np.ndarray) -> np.ndarray:
    """Monomial coefficients mod p of the polynomial supported on Λ that
    takes `values` at its points, in the order of `plan.exponents`, with
    p's divided-difference and Newton-to-monomial matrices of
    `_prime_tables`.

    Newton's form, axis by axis (de Boor and Ron 1990; Gasca and Sauer
    2000): divided differences along every axis give the Newton
    coefficients, then a change of basis along every axis gives the
    monomial ones.  Both act along the lines of Λ only: a divided difference
    reads no later node of its line, and a Newton coefficient outside Λ is
    zero, which is what the padding slot holds during the change of basis.
    """
    coeffs = np.append(values, 0)  # the last slot pads short lines
    for matrix in (lower, newton):
        coeffs[-1] = 0
        for runs in plan.lines:
            for at in runs:
                width = at.shape[1]
                coeffs[at] = _matmul_mod(coeffs[at], matrix[:width, :width],
                                         p)
    return coeffs[:-1]


def _grid_determinants(values: np.ndarray, p: int) -> np.ndarray:
    """Pointwise determinants mod p of the (m, m, *grid) tensor `values`.

    Division-free Gaussian elimination over the flattened grid, in place:
    at each point the pivot of column k is the first nonzero row at or
    below k, rows are swapped only at the points that need it, and every
    later row becomes piv * row - a_ik * pivot_row, so no pivot is inverted
    during the sweep.  That scales each later row by piv, so the product
    num of the pivots is det times den = prod_k piv_k^(m-1-k), which is the
    product of num's running values before the last column; a swap negates
    den.  One `_batch_inverse(den)` per grid gives det = num / den.  A point
    without a pivot has num = 0 and so determinant 0, and the sweep stops
    early once every point has.  `values` is overwritten.
    """
    m = values.shape[0]
    work = values.reshape(m, m, -1)
    num = np.ones(work.shape[2], dtype=np.int64)
    den = np.ones_like(num)
    buf = np.empty_like(work[0])
    for k in range(m):
        below = k + np.argmax(work[k:, k] != 0, axis=0)
        swap = np.nonzero(below != k)[0]
        if swap.size:
            top = work[k, k:, swap]
            work[k, k:, swap] = work[below[swap], k:, swap]
            work[below[swap], k:, swap] = top
            den[swap] = (p - den[swap]) % p
        piv = work[k, k]
        num *= piv
        _reduce(num, p, buf[0])
        if k == m - 1:
            break
        if not num.any():
            return np.zeros(values.shape[2:], dtype=np.int64)
        den *= num
        _reduce(den, p, buf[0])
        tail = work[k, k + 1:]
        scratch = buf[:m - k - 1]
        # both products lie in [0, p^2) with p^2 < 2^62, so their
        # difference fits int64
        work[k + 1:, k + 1:] *= piv
        for i in range(k + 1, m):
            row = work[i, k + 1:]
            np.multiply(tail, work[i, k], out=scratch)
            np.subtract(row, scratch, out=row)
            _reduce(row, p, scratch)
    return (num * _batch_inverse(den, p) % p).reshape(values.shape[2:])


def prime_images(table, bounds, degree: int, primes: Sequence[int],
                 jobs: int = 1) -> tuple:
    """The determinant's coefficients modulo each prime: (exponents,
    residues), the int64 (s, n) exponents of the s coefficients that are
    nonzero modulo some prime and the int64 (len(primes), s) residues of
    each, the input of `chinese_remainder`.

    The determinant of the integer matrix of the term table `table` has
    degree at most `bounds[v]` in variable v and total degree at most
    `degree`, so it is determined on the lower set Λ of `_grid_plan`.  The
    plan and the prime tables are made once; per prime: `_grid_values`,
    `_grid_determinants`, then `_interpolate`.  The primes run in `jobs`
    threads, each thread reusing one value tensor for its stripe of
    primes.
    """
    plan = _grid_plan(table, bounds, degree)
    tables = _prime_tables(plan, primes)
    shape = (table.size, table.size, len(plan.exponents))
    residues = np.empty((len(primes), len(plan.exponents)), dtype=np.int64)

    def run(stripe) -> None:
        values = np.empty(shape, dtype=np.int64)
        for i in stripe:
            p = primes[i]
            vander, lower, newton = tables[i]
            det = _grid_determinants(_grid_values(plan, p, vander, values), p)
            residues[i] = _interpolate(plan, det, p, lower, newton)

    workers = min(jobs, len(primes))
    if workers == 1:
        run(range(len(primes)))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, [range(w, len(primes), workers)
                                for w in range(workers)]))
    support = np.flatnonzero(residues.any(axis=0))
    return plan.exponents[support], residues[:, support]


# ---------------------------------------------------------------------------
# remaindering and the re-check
# ---------------------------------------------------------------------------

def _garner_digits(residues: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """Mixed-radix digits of the integers in [0, prod(primes)) with the
    given int64 (len(primes), s) residues: digit row i is in [0, p_i), and
    the integer is d_0 + p_0 (d_1 + p_1 (d_2 + ...)) (Garner, IRE Trans.
    Electron. Comput. 8, 1959).  Row i is (r_i - the value of the earlier
    digits mod p_i) / (p_0 ... p_(i-1)) mod p_i, the value by Horner from
    the top digit; every product stays below 2^62 in int64."""
    digits = np.empty_like(residues)
    for i, p in enumerate(primes):
        acc = np.zeros(residues.shape[1], dtype=np.int64)
        for j in range(i - 1, -1, -1):
            acc *= primes[j]
            acc += digits[j]
            acc %= p
        inv = pow(math.prod(primes[:i]) % p, -1, p)
        digits[i] = (residues[i] - acc) * inv % p
    return digits


def chinese_remainder(residues: np.ndarray, primes: Sequence[int]) -> list:
    """The integers of absolute value below prod(primes) / 2 with the given
    int64 (len(primes), s) residues, as a list of s Python ints: Garner's
    digits (`_garner_digits`), then one object-array product with the
    radix weights 1, p_0, p_0 p_1, ..., and the symmetric residue."""
    weights = np.array([math.prod(primes[:i]) for i in range(len(primes))],
                       dtype=object)
    values = _garner_digits(residues, primes).T.astype(object) @ weights
    prod, half = math.prod(primes), math.prod(primes) // 2
    return [v - prod if v > half else v for v in values.tolist()]


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
