"""Smallest singular values (injection moduli) of truncations.

The float stage of the pipeline lives here: gamma(z) = sigma_min of the
rectangular truncation of (H - z I), plus the singular vectors that feed the
verification stage.  Nothing here is trusted by the certification pipeline -
every certified quantity is re-derived from a residual in interval
arithmetic - so the methods are free to be fast:

* machine doubles: LAPACK SVD for moderate sizes, a banded Givens-QR with
  inverse iteration on the normal equations beyond that;
* big floats: the banded QR path (precision-agnostic, linear in N for fixed
  bandwidth), with a one-sided Jacobi SVD as the dense fallback.

For the cubic oscillator at real shifts, columns come from the real rotated
form (see ``operators.cubic_real_columns``), which quarters the big-float
cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from mpmath import mp

from .operators import MP_LIB, COMPLEX_SYMMETRIC, NATURALS, OperatorSpec
from .precision import PrecisionContext
from .truncation import RectTruncation, _block_geometry, rectangular

DENSE_SVD_LIMIT = 400


@dataclass(frozen=True)
class SigmaResult:
    """Smallest singular value with its right singular vector."""

    sigma: object
    right_vector: object


# ---------------------------------------------------------------------------
# banded Givens QR + inverse iteration
# ---------------------------------------------------------------------------
#
# Columns are supplied as (row, value) pairs in array coordinates with the
# shift already applied.  Eliminating the sub-band by Givens rotations
# leaves an upper-triangular R of bandwidth L+U; inverse iteration on
# R^H R then refines the smallest singular direction.  The reported sigma
# is ||T v|| for the final unit vector v, so it is always an upper bound
# for sigma_min.
#
# One routine serves three arithmetics (real mpf for the rotated cubic,
# complex mpc, complex double) through the records below.  Zero tests use
# each record's own typed zero: comparing mpf/mpc values against the int 0
# is markedly slower.  Inverse iteration stops after MAXIT steps, or once
# sigma changes by at most RTOL (relative) between steps.

MAXIT = 14
RTOL = 1e-8


class _RealMPArith:
    zero = mpmath.mpf(0)
    one = mpmath.mpf(1)

    @staticmethod
    def num(x):
        return x

    @staticmethod
    def conj(x):
        return x

    @staticmethod
    def hypot(a, b):
        return mp.hypot(a, b)

    @staticmethod
    def norm(xs):
        return mpmath.sqrt(mp.fsum([t * t for t in xs]))


class _ComplexMPArith:
    zero = mpmath.mpc(0)
    one = mpmath.mpc(1)

    @staticmethod
    def num(x):
        return mpmath.mpc(x)

    @staticmethod
    def conj(x):
        return mpmath.conj(x)

    @staticmethod
    def hypot(a, b):
        return mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2)

    @staticmethod
    def norm(xs):
        return mpmath.sqrt(mp.fsum([abs(t) ** 2 for t in xs]))


class _ComplexDoubleArith:
    zero = 0j
    one = 1.0 + 0j

    @staticmethod
    def num(x):
        return complex(x)

    @staticmethod
    def conj(x):
        return x.conjugate()

    @staticmethod
    def hypot(a, b):
        return math.hypot(abs(a), abs(b))

    @staticmethod
    def norm(xs):
        return math.sqrt(math.fsum([abs(t) ** 2 for t in xs]))


_REAL_MP = _RealMPArith()
_COMPLEX_MP = _ComplexMPArith()
_COMPLEX_DOUBLE = _ComplexDoubleArith()


def banded_sigma(columns: Callable[[int], list], ncols: int, nrows: int,
                 lower: int, upper: int, arith):
    """(sigma, unit right vector) of a banded matrix; see the notes above.

    sigma is None when inverse iteration breaks down at its first step.
    """
    zero, one, conj, hypot, norm = (arith.zero, arith.one, arith.conj,
                                    arith.hypot, arith.norm)
    L = lower
    bw = lower + upper
    OFF = L
    WID = L + bw + 1
    R = [[zero] * WID for _ in range(nrows)]
    cols_cache = []
    for j in range(ncols):
        pairs = [(i, arith.num(v)) for i, v in columns(j)]
        cols_cache.append(pairs)
        for i, v in pairs:
            if 0 <= i < nrows:
                R[i][j - i + OFF] = v
    for j in range(ncols):
        for i in range(min(j + L, nrows - 1), j, -1):
            b = R[i][j - i + OFF]
            if b == zero:
                continue
            a = R[j][OFF]
            r = hypot(a, b)
            if r == zero:
                continue
            c = a / r
            s = b / r
            cc = conj(c)
            sc = conj(s)
            for col in range(j, min(j + bw + 1, ncols)):
                dj = col - j + OFF
                di = col - i + OFF
                x = R[j][dj]
                y = R[i][di]
                R[j][dj] = cc * x + sc * y
                R[i][di] = -s * x + c * y

    def matvec_norm(w):
        out = [zero] * nrows
        for j in range(ncols):
            wj = w[j]
            for i, v in cols_cache[j]:
                if 0 <= i < nrows:
                    out[i] += v * wj
        return norm(out)

    for j in range(ncols):
        if R[j][OFF] == zero:
            # exact kernel: back-substitute with x[j] = 1
            x = [zero] * ncols
            x[j] = one
            for i in range(j - 1, -1, -1):
                acc = zero
                for col in range(i + 1, min(i + bw + 1, ncols)):
                    acc += R[i][col - i + OFF] * x[col]
                piv = R[i][OFF]
                x[i] = -acc / piv if piv != zero else zero
            nx = norm(x)
            w = [t / nx for t in x]
            return matvec_norm(w), w

    RH = [[conj(t) for t in row] for row in R]
    w = [one / norm([one] * ncols)] * ncols
    sig_prev = None
    for _ in range(MAXIT):
        y = [zero] * ncols
        for i in range(ncols):
            acc = w[i]
            for j in range(max(0, i - bw), i):
                rji = RH[j][i - j + OFF]
                if rji != zero:
                    acc -= rji * y[j]
            y[i] = acc / RH[i][OFF]
        x = [zero] * ncols
        for i in range(ncols - 1, -1, -1):
            acc = y[i]
            for j in range(i + 1, min(i + bw + 1, ncols)):
                acc -= R[i][j - i + OFF] * x[j]
            x[i] = acc / R[i][OFF]
        nx = norm(x)
        if nx == zero:
            break
        w = [t / nx for t in x]
        sig = matvec_norm(w)
        converged = sig_prev is not None and sig_prev != zero and \
            abs(float((sig - sig_prev) / sig_prev)) <= RTOL
        sig_prev = sig
        if converged:
            break
    return sig_prev, w


# ---------------------------------------------------------------------------
# one-sided Jacobi SVD (dense big-float fallback)
# ---------------------------------------------------------------------------

def jacobi_smallest_singular(A, max_sweeps: int = 30):
    """Smallest singular value/vector of a dense mpmath matrix.

    One-sided Jacobi rotations orthogonalize the columns; no machine-epsilon
    assumptions are baked in, so the method works at any precision.
    """
    m, n = A.rows, A.cols
    W = A.copy()
    V = mpmath.eye(n)
    tol = mpmath.mpf(10) ** (-mp.dps + 2)
    for _ in range(max_sweeps):
        off = mpmath.mpf(0)
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = mp.fsum([abs(W[i, p]) ** 2 for i in range(m)])
                aqq = mp.fsum([abs(W[i, q]) ** 2 for i in range(m)])
                apq = mp.fsum([mpmath.conj(W[i, p]) * W[i, q] for i in range(m)])
                denom = mpmath.sqrt(app * aqq)
                if denom == 0 or abs(apq) <= tol * denom:
                    continue
                off = max(off, abs(apq) / denom)
                phase = apq / abs(apq)
                tau = (aqq - app) / (2 * abs(apq))
                t = (1 if tau >= 0 else -1) / (abs(tau) + mpmath.sqrt(1 + tau * tau))
                c = 1 / mpmath.sqrt(1 + t * t)
                s = c * t
                for i in range(m):
                    wp = W[i, p]
                    wq = W[i, q]
                    W[i, p] = c * wp - s * mpmath.conj(phase) * wq
                    W[i, q] = s * phase * wp + c * wq
                for i in range(n):
                    vp = V[i, p]
                    vq = V[i, q]
                    V[i, p] = c * vp - s * mpmath.conj(phase) * vq
                    V[i, q] = s * phase * vp + c * vq
        if off <= tol:
            break
    norms = [mpmath.sqrt(mp.fsum([abs(W[i, j]) ** 2 for i in range(m)]))
             for j in range(n)]
    jmin = min(range(n), key=lambda j: norms[j])
    v = [V[i, jmin] for i in range(n)]
    u = None
    if norms[jmin] > 0:
        u = [W[i, jmin] / norms[jmin] for i in range(m)]
    return norms[jmin], v, u


# ---------------------------------------------------------------------------
# dispatch over truncations and operators
# ---------------------------------------------------------------------------

def _matrix_columns(T: RectTruncation):
    """(row, value) pairs per column of a materialized banded truncation."""
    rows, cols = T.shape
    mat = T.matrix
    pad = T.k + 4

    def columns(j):
        lo = max(0, j - pad)
        hi = min(rows, j + pad + 1)
        return [(i, mat[i, j]) for i in range(lo, hi) if mat[i, j] != 0]

    return columns


def smallest_singular(T: RectTruncation, ctx: PrecisionContext) -> SigmaResult:
    """Smallest singular value and right singular direction of T.matrix.

    The certified pipeline never trusts this value.  Degenerate smallest
    singular values return an arbitrary unit vector of the minimizing space.
    """
    rows, cols = T.shape
    if ctx.is_double:
        if cols > DENSE_SVD_LIMIT and T.k <= 8:
            sig, w = banded_sigma(_matrix_columns(T), cols, rows, T.k, T.k,
                                  _COMPLEX_DOUBLE)
            if sig is not None:
                return SigmaResult(sig, np.array(w, dtype=complex))
        _, s, vh = np.linalg.svd(np.asarray(T.matrix, dtype=complex))
        return SigmaResult(float(s[-1]), vh[-1].conj())
    with ctx.workprec():
        if T.k <= 8 and T.tail_defect == 0.0:
            sig, w = banded_sigma(_matrix_columns(T), cols, rows, T.k, T.k,
                                  _COMPLEX_MP)
            if sig is not None:
                return SigmaResult(sig, w)
        mat = T.matrix if not isinstance(T.matrix, np.ndarray) else \
            mpmath.matrix(T.matrix.tolist())
        sig, v, _ = jacobi_smallest_singular(mat)
        return SigmaResult(sig, v)


_base_cache: dict = {}


def _cached_base(op: OperatorSpec, N: int, eps) -> RectTruncation:
    """Unshifted double-precision truncation, cached per (op, N, eps)."""
    from .precision import DOUBLE
    key = (op.id, N, eps, op.index_domain)
    hit = _base_cache.get(key)
    if hit is not None and hit[0] is op:
        return hit[1]
    T0 = rectangular(op, 0.0, N, DOUBLE, eps=eps)
    if len(_base_cache) > 64:
        _base_cache.clear()
    _base_cache[key] = (op, T0)
    return T0


def _shifted_double(op: OperatorSpec, z: complex, N: int, eps) -> RectTruncation:
    T0 = _cached_base(op, N, eps)
    mat = T0.matrix.copy()
    n = T0.shape[1]
    diag = np.arange(n)
    mat[diag + (T0.col_start - T0.row_start), diag] -= z
    return RectTruncation(mat, T0.N, T0.k, z, T0.op_id, T0.tail_defect,
                          T0.row_start, T0.col_start)


def sigma_min(op: OperatorSpec, z, N: int, ctx: PrecisionContext,
              eps=None, want_vector: bool = False):
    """sigma_min of the rectangular truncation, optionally with the vector.

    Returns (sigma, right_vector_or_None); the vector is in the operator's
    original basis, indexed from the truncation's first column.
    """
    if ctx.is_double:
        T = _shifted_double(op, complex(z), N, eps)
        if not want_vector and (T.shape[1] <= DENSE_SVD_LIMIT or T.k > 8):
            s = np.linalg.svd(np.asarray(T.matrix, dtype=complex),
                              compute_uv=False)
            return float(s[-1]), None
        res = smallest_singular(T, ctx)
        return res.sigma, (res.right_vector if want_vector else None)
    with ctx.workprec():
        zz = mpmath.mpc(z)
        if op.banded and op.index_domain == NATURALS:
            # the real rotated form at a real shift: real arithmetic, and the
            # vector maps back by v[m] -> i^m v[m]
            rotated = "real_rotation" in op.hints and zz.imag == 0
            if rotated:
                rot = op.hints["real_rotation"]
                shift = zz.real

                def pairs(j):
                    return [(i, v) for i, v in rot(j, MP_LIB) if i >= 0]
            else:
                shift = zz

                def pairs(j):
                    return [(i, op.entry(i, j, ctx)) for i in op.band_rows(j)]

            def columns(j):
                return [(i, v - shift if i == j else v) for i, v in pairs(j)]

            sig, w = banded_sigma(columns, N, N + op.lower_bandwidth,
                                  op.lower_bandwidth, op.upper_bandwidth,
                                  _REAL_MP if rotated else _COMPLEX_MP)
            if not want_vector:
                return sig, None
            if rotated:
                units = (mpmath.mpc(1), mpmath.mpc(0, 1),
                         mpmath.mpc(-1), mpmath.mpc(0, -1))
                w = [units[m % 4] * w[m] for m in range(N)]
            return sig, w
        T = rectangular(op, z, N, ctx, eps=eps)
        res = smallest_singular(T, ctx)
        return res.sigma, (res.right_vector if want_vector else None)


def gamma(op: OperatorSpec, z, N: int, ctx: PrecisionContext, eps=None):
    """Upper bound for the inverse resolvent norm at z.

    sigma_min of the rectangular truncation; for long-range specs the
    certified tail defect is added so the value stays an upper bound for
    the injection modulus of (H - z) restricted to the truncated block.
    """
    sig, _ = sigma_min(op, z, N, ctx, eps=eps)
    if op.banded:
        return sig
    defect = _block_geometry(op, N, eps)[5]
    return sig + defect


def right_vector(op: OperatorSpec, z, N: int, ctx: PrecisionContext, eps=None):
    """Right singular vector at the smallest singular value."""
    _, v = sigma_min(op, z, N, ctx, eps=eps, want_vector=True)
    return v


def left_null_vector(op: OperatorSpec, z, N: int, ctx: PrecisionContext):
    """Smallest right singular vector of the adjoint truncation at conj(z).

    Approximates the left eigenvector for condition numbers.  Complex
    symmetric specs short-circuit: the left vector is the entrywise
    conjugate of the right one.
    """
    if COMPLEX_SYMMETRIC in op.symmetry_flags:
        v = right_vector(op, z, N, ctx)
        if isinstance(v, np.ndarray):
            return v.conj()
        return [mpmath.conj(t) for t in v]
    adj = op.adjoint()
    zc = complex(z).conjugate() if ctx.is_double else mpmath.conj(mpmath.mpc(z))
    return right_vector(adj, zc, N, ctx)
