"""Finite truncations of operator specs.

Rectangular truncations keep every row reachable from the first N columns,
so for banded operators the smallest singular value of the finite matrix
equals the injection modulus of the operator restricted to the span of the
first N basis states - no interaction is dropped and no spurious coupling
is introduced.  Over the integers the kept columns are -N..N.  Square
truncations serve the spurious-mode demonstration and seed the candidates
of the complex-spectrum pipeline; nothing is certified from them.  Dense
truncations are complex double arrays; big floats read only the band
(:func:`_band`).
Long-range operators get certified tail padding: the number of extra rows is
chosen so the operator norm of the neglected block is at most 2^-N.  Every
block is a function of the operator and N alone (:func:`_block_geometry`).
"""

from __future__ import annotations

import numpy as np

from .intervals import _fx_lib, fixed_bits
from .operators import INTEGERS, NATURALS, OperatorSpec, StructureError
from .precision import DOUBLE, PrecisionContext

PAD_LIMIT = 20000


class TailError(ValueError):
    """Requested tail accuracy unreachable within the padding limit."""

    def __init__(self, message: str, best_bound: float):
        super().__init__(message)
        self.best_bound = best_bound


def tail_padding(op: OperatorSpec, N: int, eps: float) -> int:
    """Smallest padding m whose aggregated tail bound is <= eps."""
    if op.tail_bound is None:
        raise StructureError(f"{op.id}: no tail bound available")
    if not eps > 0:
        raise ValueError("eps must be positive")
    best = op.tail_bound(N, 0)
    if best <= eps:
        return 0
    for m in range(1, PAD_LIMIT + 1):
        b = op.tail_bound(N, m)
        best = min(best, b)
        if b <= eps:
            return m
    raise TailError(
        f"{op.id}: tail bound stuck at {best:.3e} > eps={eps:.3e} "
        f"after {PAD_LIMIT} rows of padding", best)


def _block_geometry(op: OperatorSpec, N: int):
    """(rows, cols, row_start, col_start, k, tail_defect) for a truncation.

    A long-range spec's padding comes from the linear search of
    :func:`tail_padding`, so its geometry is memoized per (op, N).
    """
    if op.banded:
        if op.index_domain == NATURALS:
            rows, cols = N + op.lower_bandwidth, N
            return rows, cols, 0, 0, op.lower_bandwidth, 0.0
        cols = 2 * N + 1
        rows = cols + op.lower_bandwidth + op.upper_bandwidth
        return rows, cols, -(N + op.upper_bandwidth), -N, rows - cols, 0.0
    if op.tail_bound is None:
        raise StructureError(f"{op.id}: unbounded bands and no tail bound")

    def build():
        m = tail_padding(op, N, 2.0 ** -N)
        # widen the float-evaluated bound a touch so it stays an upper bound
        defect = op.tail_bound(N, m) * (1.0 + 1e-12)
        if op.index_domain == INTEGERS:
            cols = 2 * N + 1
            rows = 2 * (N + m) + 1
            return rows, cols, -(N + m), -N, rows - cols, defect
        return N + m, N, 0, 0, m, defect

    return _memo(_geometry_cache, GEOMETRY_CACHE_LIMIT, op, (N,), build)


def _memo(cache: dict, limit: int, op: OperatorSpec, key: tuple, build):
    """build(), memoized in cache per (op, *key); when a new entry would
    exceed limit, the least recently used one is dropped.  Entries keep
    their operator object, so a recycled id() is not a hit."""
    key = (id(op),) + key
    hit = cache.pop(key, None)
    if hit is not None and hit[0] is op:
        cache[key] = hit  # the most recently used entry comes last
        return hit[1]
    value = build()
    while len(cache) >= limit:
        del cache[next(iter(cache))]
    cache[key] = (op, value)
    return value


#: Long-range block geometries, per operator object and N.  Each is a
#: tuple of six numbers; kept apart from _base_cache so that they never
#: evict a band.
_geometry_cache: dict = {}
GEOMETRY_CACHE_LIMIT = 64

#: Unshifted truncations and bands, per operator object.  A band at N = 200
#: and 30 digits takes 0.2-0.8 MB, so the cache holds at most CACHE_LIMIT
#: entries and drops the least recently used one.  The real-spectrum
#: bootstrap uses two at each index: the double band of the dip census, and
#: the fixed-point box band that Gauss-Newton and the residual share.  The
#: box band changes with the index's digits; the double band stays.
_base_cache: dict = {}
CACHE_LIMIT = 3


def _cached(op: OperatorSpec, key: tuple, build):
    """build(), memoized in _base_cache per (op, *key)."""
    return _memo(_base_cache, CACHE_LIMIT, op, key, build)


def _rotate(re, im, k: int):
    """Components of i^k (re + i im), exactly: swaps and negations only."""
    k %= 4
    if k == 0:
        return re, im
    if k == 1:
        return -im, re
    if k == 2:
        return -re, -im
    return im, -re


def _band(op: OperatorSpec, N: int, ctx: PrecisionContext,
          rotated: bool = False):
    """Unshifted band of the rectangular truncation of a spec.

    One list of (array row, value) pairs per column: the band rows of a
    banded spec, every row of the padded block of a long-range one.  The
    context fixes the kind of value:

    * big floats: the box band, ``op.entry_box`` run on the fixed-point
      grid of scale 2^-p, p = ``fixed_bits(ctx.digits)``, so each value is
      an int interval at that scale: (lo, hi) for a real value and
      (re lo, re hi, im lo, im hi) for a complex one.  This is the one
      big-float build per (op, N, p); the residual reads its intervals,
      Gauss-Newton and big-float sigma its :func:`_fx_midpoints`.  A double
      context's residual reads the band of ``bigfloat(DOUBLE_DIGITS)``.
    * doubles: the entry band, ``op.entry`` values.

    ``rotated`` gives the band of W^-1 H W for the unitary W = diag(i^m):
    the values i^(c-r) H[r, c] as reals (or real intervals), or None as
    soon as one of them is not exactly real.  Cached per (op, N, kind,
    digits, rotated).
    """
    box = not ctx.is_double
    return _cached(op, ("band", N, box, ctx.digits, rotated),
                   lambda: _build_band(op, N, ctx, box, rotated))


def _fx_midpoints(op: OperatorSpec, N: int, ctx: PrecisionContext,
                  rotated: bool = False):
    """Midpoints of the big-float box band of :func:`_band`, as ints at
    scale 2^-(p+1), p = ``fixed_bits(ctx.digits)``: lo + hi for each real
    value of the rotated band, a pair (re, im) for each complex value of
    the unrotated one.  None where the box band is None."""
    band = _band(op, N, ctx, rotated=rotated)
    if band is None:
        return None
    if rotated:
        return [[(i, a[0] + a[1]) for i, a in col] for col in band]
    return [[(i, (a[0] + a[1], a[2] + a[3])) for i, a in col]
            for col in band]


def _build_band(op, N, ctx, box, rotated):
    """The band of :func:`_band`, uncached."""
    rows, cols, row0, col0, _, _ = _block_geometry(op, N)
    every_row = range(row0, row0 + rows)
    if box:
        lib = _fx_lib(fixed_bits(ctx.digits))
        zero = lib.num(0)
    else:
        zero = 0
    out = []
    for j in range(col0, col0 + cols):
        col = []
        for i in op.band_rows(j) if op.banded else every_row:
            if box:
                v = op.entry_box(i, j, lib)
                parts = v.re, v.im
            else:
                v = complex(op.entry(i, j, ctx))
                parts = v.real, v.imag
            if rotated:
                v, im = _rotate(*parts, j - i)
                if not im == zero:
                    return None
                parts = (v,)
            if box:
                v = tuple(e for x in parts for e in x)
            col.append((i - row0, v))
        out.append(col)
    return out


def rectangular(op: OperatorSpec, z: complex, N: int):
    """Rectangular truncation of (H - z I) over the first N basis states.

    A complex numpy array: a shifted copy of the unshifted block, which is
    assembled from ``op.entry`` at double precision once per (op, N) and
    cached.  Its geometry is :func:`_block_geometry`.  For banded specs the
    rows cover the full band of every kept column and the truncation is
    exact.  Long-range specs get padding chosen by :func:`tail_padding` for
    a tail of 2^-N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rows, cols, row0, col0, _, _ = _block_geometry(op, N)
    every_row = range(row0, row0 + rows)

    def build():
        mat = np.zeros((rows, cols), dtype=complex)
        for jc in range(cols):
            j = col0 + jc
            for i in op.band_rows(j) if op.banded else every_row:
                mat[i - row0, jc] = op.entry(i, j, DOUBLE)
        return mat

    mat = _cached(op, ("dense", N), build).copy()
    diag = np.arange(cols)
    mat[diag + (col0 - row0), diag] -= z
    return mat


def square(op: OperatorSpec, z: complex, N: int):
    """Leading square block of (H - z I), a complex numpy array.

    For the spurious-mode demonstration and the candidate seeds of the
    complex-spectrum pipeline.  Operators over the integers use the
    symmetric block {-N..N}.
    """
    _, size, _, col0, _, _ = _block_geometry(op, N)
    mat = np.zeros((size, size), dtype=complex)
    for jc in range(size):
        j = col0 + jc
        indices = op.band_rows(j) if op.banded else range(col0, col0 + size)
        for i in indices:
            ic = i - col0
            if 0 <= ic < size:
                mat[ic, jc] = op.entry(i, j, DOUBLE)
        mat[jc, jc] -= z
    return mat
