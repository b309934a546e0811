"""Finite truncations of operator specs.

Rectangular truncations keep every row reachable from the first N columns,
so for banded operators the smallest singular value of the finite matrix
equals the injection modulus of the operator restricted to the span of the
first N basis states - no interaction is dropped and no spurious coupling
is introduced.  Over the integers the kept columns are -N..N.  Square
truncations serve the spurious-mode demonstration and seed the candidates
of the complex-spectrum pipeline; nothing is certified from them.
Long-range operators get certified tail padding: the number of extra rows is
chosen so the operator norm of the neglected block is at most 2^-N.  Every
block is a function of the operator and N alone (:func:`_block_geometry`).
"""

from __future__ import annotations

import mpmath
import numpy as np

from .intervals import MPIntervalScope, fixed_bits, _fx_enclose
from .operators import (INTEGERS, NATURALS, OperatorSpec, StructureError,
                        _box_lib_for_ctx)
from .precision import PrecisionContext

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
#: bootstrap uses three at each index: the double band of the dip census,
#: the big-float band of Gauss-Newton and the interval band of the residual.
#: The last two change with the index's digits; the double band stays.
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


def _band(op: OperatorSpec, N: int, ctx: PrecisionContext, box: bool = False,
          rotated: bool = False):
    """Unshifted band of the rectangular truncation of a spec.

    One list of (array row, value) pairs per column: the band rows of a
    banded spec, every row of the padded block of a long-range one.  Values
    come from ``op.entry`` in the context's arithmetic, or with ``box`` from
    ``op.entry_box`` in its interval arithmetic; in a big-float context
    those enclosures are converted once, to the fixed-point int intervals
    of scale 2^-p, p = ``fixed_bits(ctx.digits)``, that the residual reads:
    (lo, hi) for a real value and (re lo, re hi, im lo, im hi) for a
    complex one.
    ``rotated`` gives the band of W^-1 H W for the unitary W = diag(i^m):
    the values i^(c-r) H[r, c] as reals (or real intervals), or None as
    soon as one of them is not exactly real.  Cached per (op, N,
    arithmetic, digits, rotated).
    """
    def build():
        rows, cols, row0, col0, _, _ = _block_geometry(op, N)
        every_row = range(row0, row0 + rows)
        fixed = box and not ctx.is_double
        p = fixed_bits(ctx.digits)
        if box:
            lib = _box_lib_for_ctx(ctx)
            zero = lib.num(0)
            scope = ctx.workprec() if ctx.is_double else \
                MPIntervalScope(ctx.digits)
        else:
            num = complex if ctx.is_double else mpmath.mpc
            zero = 0
            scope = ctx.workprec()
        out = []
        with scope:
            for j in range(col0, col0 + cols):
                col = []
                for i in op.band_rows(j) if op.banded else every_row:
                    if box:
                        v = op.entry_box(i, j, lib)
                        parts = v.re, v.im
                    else:
                        v = num(op.entry(i, j, ctx))
                        parts = v.real, v.imag
                    if rotated:
                        v, im = _rotate(*parts, j - i)
                        if not im == zero:
                            return None
                        parts = (v,)
                    if fixed:
                        v = tuple(e for x in parts for e in _fx_enclose(x, p))
                    col.append((i - row0, v))
                out.append(col)
        return out

    kind = ("box-" if box else "") + ("double" if ctx.is_double else "mp")
    return _cached(op, ("band", N, kind, ctx.digits, rotated), build)


def _zeros(rows: int, cols: int, z, ctx: PrecisionContext):
    """A zero matrix and the shift z in the context's arithmetic."""
    if ctx.is_double:
        return np.zeros((rows, cols), dtype=complex), z
    return mpmath.zeros(rows, cols), mpmath.mpc(z)


def rectangular(op: OperatorSpec, z: complex, N: int, ctx: PrecisionContext):
    """Rectangular truncation of (H - z I) over the first N basis states.

    A numpy array in doubles, an mpmath matrix in big floats; its geometry
    is :func:`_block_geometry`.  For banded specs the rows cover the full
    band of every kept column and the truncation is exact.  Long-range
    specs get padding chosen by :func:`tail_padding` for a tail of 2^-N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rows, cols, row0, col0, _, _ = _block_geometry(op, N)
    with ctx.workprec():
        mat, shift = _zeros(rows, cols, z, ctx)
        for jc in range(cols):
            j = col0 + jc
            if op.banded:
                for i in op.band_rows(j):
                    ir = i - row0
                    if 0 <= ir < rows:
                        mat[ir, jc] = op.entry(i, j, ctx)
            else:
                for ir in range(rows):
                    mat[ir, jc] = op.entry(row0 + ir, j, ctx)
            jr = j - row0
            if 0 <= jr < rows:
                mat[jr, jc] -= shift
    return mat


def square(op: OperatorSpec, z: complex, N: int, ctx: PrecisionContext):
    """Leading square block of (H - z I).

    For the spurious-mode demonstration and the candidate seeds of the
    complex-spectrum pipeline.  Operators over the integers use the
    symmetric block {-N..N}.
    """
    _, size, _, col0, _, _ = _block_geometry(op, N)
    with ctx.workprec():
        mat, shift = _zeros(size, size, z, ctx)
        for jc in range(size):
            j = col0 + jc
            indices = op.band_rows(j) if op.banded else range(col0, col0 + size)
            for i in indices:
                ic = i - col0
                if 0 <= ic < size:
                    mat[ic, jc] = op.entry(i, j, ctx)
            mat[jc, jc] -= shift
    return mat
