"""The numpy kernels of the modular determinant engine.

The only module of extatica that imports numpy; `det_modular` imports it
for its first grid, so a process that computes no modular determinant never
loads numpy.  Per prime, the entries are evaluated on an (m, m, *grid)
int64 tensor by per-axis Vandermonde contractions, eliminated at every
point, and interpolated by the inverse contraction, all as exact float64
BLAS products (`_matmul_mod`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extactic import DimensionGuardError


def _vec_modpow(base: np.ndarray, exp: int, p: int) -> np.ndarray:
    out = np.ones_like(base)
    b = base % p
    while exp:
        if exp & 1:
            out *= b
            out %= p
        exp >>= 1
        if exp:
            b *= b
            b %= p
    return out


def _inverse_blocks(n: int) -> int:
    """Block count of `_batch_inverse` on n entries.  Each block costs six
    array operations over its width and the exponentiation about 120 over
    one width; with numpy's fixed cost per call, about sqrt(n / 32) blocks
    was fastest on 10^2 to 3 * 10^5 entries."""
    return max(1, math.isqrt(n >> 5))


def _batch_inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the entries of the 1-D array `a` (in [0, p)), with
    0 mapped to 0.

    Montgomery's trick on a (blocks, width) view of the array:
    prefix products run down the blocks, one `_vec_modpow` inverts the last
    block row, and two multiplications per block give the inverses on the
    way back.  A zero, and the padding of the last block row, is a stand-in
    1 that keeps it out of the products.
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
    inv = _vec_modpow(prefix[-1], p - 2, p)
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


#: Inner-dimension chunk of one float64 product in `_matmul_mod`: with at
#: most 64 terms, a sum of products of a 16-bit and a 31-bit factor stays
#: below 64 * 2^16 * 2^31 = 2^53, where float64 is exact.
_CHUNK = 64

#: `_matmul_mod` writes its output in blocks of rows holding about this many
#: values, so its float64 product and int64 copy stay at 256 KB each.
_BLOCK_VALUES = 1 << 15


def _matmul_mod(a: np.ndarray, v: np.ndarray, p: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """a @ v mod p for an int64 `a` and an int64 or float64 `v`, both with
    entries in [0, p), p < 2^31, written into `out` when given.

    The left operand is split at 16 bits and both halves are multiplied by
    `v` as float64 matrices, which run on BLAS.  The inner dimension is cut
    into chunks of 64, so every partial sum stays below 64 * 2^16 * 2^31 =
    2^53 and is exact in float64.  The chunks' products are added in int64
    and reduced mod p once per half: an inner dimension below 2^15 (at most
    2^9 chunks) keeps those sums below 2^62, and a longer one is refused.
    """
    inner = a.shape[-1]
    if inner >= 1 << 15:
        raise DimensionGuardError(
            f"inner dimension {inner} reaches 2^15: an entry degree is too "
            "large for exact evaluation")
    v = np.asarray(v, dtype=np.float64)
    if out is None:
        out = np.empty(a.shape[:-1] + v.shape[-1:], dtype=np.int64)
    high, low = np.empty(a.shape), np.empty(a.shape)
    np.right_shift(a, 16, out=high, casting="unsafe")
    np.bitwise_and(a, 0xFFFF, out=low, casting="unsafe")
    high, low = high.reshape(-1, inner), low.reshape(-1, inner)
    flat = out.reshape(len(high), -1)
    step = max(1, _BLOCK_VALUES // flat.shape[1])
    prod = np.empty((min(step, len(flat)), flat.shape[1]))
    part = np.empty(prod.shape, dtype=np.int64)
    for r in range(0, len(flat), step):
        target = flat[r:r + step]
        n = len(target)
        target.fill(0)
        for half in (high, low):  # (high mod p) * 2^16 + low, mod p
            target <<= 16
            for c in range(0, inner, _CHUNK):
                np.matmul(half[r:r + step, c:c + _CHUNK], v[c:c + _CHUNK],
                          out=prod[:n])
                np.copyto(part[:n], prod[:n], casting="unsafe")
                target += part[:n]
            target %= p
    return out


@dataclass(frozen=True)
class _GridPlan:
    """The prime-independent layout of a matrix's coefficient tensors.

    Row i becomes one dense tensor of shape `shapes[i]`, (m, d_1+1, ...,
    d_n+1) with d_v the row's largest degree in variable v, stored in
    `flat[offsets[i]:offsets[i + 1]]` of one flat array.  Term t of the
    matrix (row by row, entry by entry) sits at `positions[t]` with
    coefficient `numerators[t] / denominators[t]`; `denominators` is None
    when all are 1, and both are object arrays when a value exceeds int64.
    """

    shapes: tuple
    offsets: tuple
    positions: np.ndarray
    numerators: np.ndarray
    denominators: Optional[np.ndarray]


def _grid_plan(rows) -> _GridPlan:
    """One pass over the terms of every entry, made once per determinant."""
    m = len(rows)
    nv = rows[0][0].ring.nvars
    shapes, offsets, positions, nums, dens = [], [0], [], [], []
    for row in rows:
        index = np.array([(j,) + exps for j, e in enumerate(row)
                          for exps in e.terms],
                         dtype=np.int64).reshape(-1, nv + 1)
        shape = (m,) + tuple((index[:, 1:].max(axis=0, initial=0)
                              + 1).tolist())
        positions.append(offsets[-1] + np.ravel_multi_index(index.T, shape))
        offsets.append(offsets[-1] + math.prod(shape))
        shapes.append(shape)
        for e in row:
            for c in e.terms.values():
                nums.append(c.numerator)
                dens.append(c.denominator)
    top = max(max(map(abs, nums), default=0), max(dens, default=1))
    dtype = np.int64 if top < 1 << 63 else object
    return _GridPlan(tuple(shapes), tuple(offsets),
                     np.concatenate(positions), np.array(nums, dtype=dtype),
                     None if all(d == 1 for d in dens)
                     else np.array(dens, dtype=dtype))


def _grid_values(plan: _GridPlan, nodes, p: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Values mod p of every matrix entry at every grid point, written into
    the (m, m, *grid) int64 tensor `out` when given.

    The coefficients reduced mod p are written into the row tensors of
    `plan` with one scatter, and each row tensor is contracted axis by axis
    with the leading rows of that axis's one Vandermonde matrix mod p,
    giving (m, m, *grid).
    """
    m = len(plan.shapes)
    nv = len(nodes)
    coeff = (plan.numerators % p).astype(np.int64, copy=False)
    if plan.denominators is not None:
        coeff *= _batch_inverse(
            (plan.denominators % p).astype(np.int64, copy=False), p)
        coeff %= p
    flat = np.zeros(plan.offsets[-1], dtype=np.int64)
    flat[plan.positions] = coeff
    vanders = []
    for v, axis_nodes in enumerate(nodes):
        # built row by row into float64, the operand type of _matmul_mod
        x = np.array(axis_nodes, dtype=np.int64) % p
        vander = np.empty((max(s[v + 1] for s in plan.shapes), len(x)))
        power = np.ones_like(x)
        vander[0] = power
        for d in range(1, len(vander)):
            power *= x
            power %= p
            vander[d] = power
        vanders.append(vander)
    values = out if out is not None else np.empty(
        (m, m) + tuple(len(t) for t in nodes), dtype=np.int64)
    for i, shape in enumerate(plan.shapes):
        coeffs = flat[plan.offsets[i]:plan.offsets[i + 1]].reshape(shape)
        # contracting axis 1 moves its grid axis to the end, so after nv
        # steps the axes are back in variable order
        for v in range(nv):
            coeffs = _matmul_mod(np.moveaxis(coeffs, 1, -1),
                                 vanders[v][:shape[v + 1]], p,
                                 out=values[i] if v == nv - 1 else None)
    return values


def _interpolation_matrix(nodes, p: int) -> np.ndarray:
    """W with values @ W = coefficients mod p, for values at distinct nodes.

    Row t is the Lagrange basis polynomial M(x) / ((x - x_t) M'(x_t)) of
    node t, M = prod(x - x_i): one synthetic division gives every quotient
    degree by degree, and a fused Horner step evaluates it at its node.
    """
    x = np.array(nodes, dtype=np.int64) % p
    n = len(x)
    master = np.zeros(n + 1, dtype=np.int64)  # leading coefficient first
    master[0] = 1
    for k, xk in enumerate(x.tolist()):
        master[1:k + 2] = (master[1:k + 2] - xk * master[:k + 1]) % p
    # W transposed, in float64 (the operand type of _matmul_mod); the
    # quotient rows are computed in int64 and stored one by one
    by_degree = np.empty((n, n))
    quotient = np.ones(n, dtype=np.int64)
    by_degree[n - 1] = quotient
    at_node = np.ones(n, dtype=np.int64)
    for d in range(n - 1, 0, -1):
        quotient = (quotient * x + master[n - d]) % p
        by_degree[d - 1] = quotient
        at_node = (at_node * x + quotient) % p
    inv = _batch_inverse(at_node, p)
    for start in range(0, n, 64):  # scaled in int64, a block of rows at once
        block = by_degree[start:start + 64].astype(np.int64)
        block *= inv
        block %= p
        by_degree[start:start + 64] = block
    return by_degree.T


def _grid_determinants(values: np.ndarray, p: int) -> np.ndarray:
    """Pointwise determinants mod p of the (m, m, *grid) tensor `values`.

    Gaussian elimination over the flattened grid, in place: at each point
    the pivot of column k is the first nonzero row at or below k, rows are
    swapped only at the points that need it, and a point without a pivot
    has determinant 0.  The sweep stops early once every point has
    determinant 0.  `values` is overwritten.
    """
    m = values.shape[0]
    work = values.reshape(m, m, -1)
    det = np.ones(work.shape[2], dtype=np.int64)
    buf = np.empty_like(work[0])
    for k in range(m):
        below = k + np.argmax(work[k:, k] != 0, axis=0)
        swap = np.nonzero(below != k)[0]
        if swap.size:
            top = work[k, k:, swap]
            work[k, k:, swap] = work[below[swap], k:, swap]
            work[below[swap], k:, swap] = top
            det[swap] = (p - det[swap]) % p
        piv = work[k, k]
        det = det * piv % p
        if k == m - 1 or not det.any():
            break
        # a point without a pivot is zero in column k from row k down, so
        # its rows stay unchanged whatever its (zero) inverse
        inv = _batch_inverse(piv, p)
        tail = work[k, k + 1:]
        scratch = buf[:m - k - 1]
        for i in range(k + 1, m):
            row = work[i, k + 1:]
            # row - f * tail lies in (-p^2, p), inside int64
            np.multiply(tail, work[i, k] * inv % p, out=scratch)
            np.subtract(row, scratch, out=row)
            np.remainder(row, p, out=row)
    return det.reshape(values.shape[2:])


def prime_images(rows, nodes, primes: Sequence[int],
                 jobs: int = 1) -> list:
    """The determinant's coefficient tensor modulo each prime, in order.

    `nodes` holds one more node per variable than the degree bound.  Per
    prime: `_grid_values`, `_grid_determinants`, then one Lagrange
    contraction per axis.  The primes run in `jobs` threads, each thread
    reusing one value tensor for its stripe of primes.
    """
    plan = _grid_plan(rows)
    shape = (len(rows), len(rows)) + tuple(len(t) for t in nodes)

    def run(stripe) -> list:
        values, images = np.empty(shape, dtype=np.int64), []
        for p in stripe:
            coeffs = _grid_determinants(
                _grid_values(plan, nodes, p, out=values), p)
            lagrange = {t: _interpolation_matrix(t, p) for t in set(nodes)}
            for axis_nodes in nodes:  # each contraction moves its axis last
                coeffs = _matmul_mod(np.moveaxis(coeffs, 0, -1),
                                     lagrange[axis_nodes], p)
            images.append(coeffs)
        return images

    workers = max(1, min(jobs, len(primes)))
    if workers == 1:
        return run(primes)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        done = list(pool.map(run, [primes[w::workers]
                                   for w in range(workers)]))
    return [done[i % workers][i // workers] for i in range(len(primes))]


def nonzero_residues(images) -> list:
    """(exponents, residues) for every coefficient that is nonzero modulo
    some prime, as Python ints: the input of Chinese remaindering."""
    support = np.nonzero(sum(t != 0 for t in images))
    residues = zip(*(t[support].tolist() for t in images))
    return list(zip(zip(*(s.tolist() for s in support)), residues))
