"""Smallest singular values (injection moduli) of truncations.

The float stage of the pipeline lives here: gamma(z) = sigma_min of the
rectangular truncation of (H - z I), plus the singular vectors that feed the
verification stage.  Nothing here is trusted by the certification pipeline -
every certified quantity is re-derived from a residual in interval
arithmetic - so the methods are free to be fast:

* banded specs, double shifts, one or many at once: a banded QR in numpy
  over panels of columns, stacked over the shifts, whose diagonal blocks
  are inverted together by one vectorized back substitution, and inverse
  iteration one panel per step, over one pool of shift slots that each
  shift leaves as soon as it stops (``banded_sigma_batch``);
* banded specs, big-float shifts: a banded Givens-QR with inverse iteration
  over the midpoints of the cached fixed-point box band (``banded_sigma``
  over ``_mp_band``);
* long-range specs, double shifts: LAPACK SVD of the dense truncation.
  They have no big-float route: their padded block is dense, and big-float
  sigma reads only the band of a banded spec.

At a real big-float shift an operator whose rotated band is real (the
cubic and harmonic oscillators among them) runs in real arithmetic, which
quarters the cost.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp

from .intervals import fixed_bits, _fx_mpf
from .operators import COMPLEX_SYMMETRIC, OperatorSpec, StructureError
from .precision import DOUBLE, PrecisionContext, exact_conj
from .truncation import (_band, _block_geometry, _build_band, _cached,
                         _rotate, rectangular)

# ---------------------------------------------------------------------------
# banded Givens QR + inverse iteration
# ---------------------------------------------------------------------------
#
# Columns are lists of (row, value) pairs in array coordinates with the
# shift already applied.  Eliminating the sub-band by Givens rotations
# leaves an upper-triangular R of bandwidth L+U; inverse iteration on
# R^H R then refines the smallest singular direction.  The reported sigma
# is ||T v|| for the final unit vector v, so it is always an upper bound
# for sigma_min.
#
# One routine serves two arithmetics (real mpf for the rotated cubic,
# complex mpc) through the records below.  Zero tests use each record's
# own typed zero: comparing mpf/mpc values against the int 0 is markedly
# slower.  Inverse iteration stops after MAXIT steps, or once
# sigma changes by at most RTOL (relative) between steps.

MAXIT = 14
RTOL = 1e-8


class _RealMPArith:
    zero = mpmath.mpf(0)
    one = mpmath.mpf(1)

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
    def conj(x):
        return mpmath.conj(x)

    @staticmethod
    def hypot(a, b):
        return mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2)

    @staticmethod
    def norm(xs):
        return mpmath.sqrt(mp.fsum([abs(t) ** 2 for t in xs]))


_REAL_MP = _RealMPArith()
_COMPLEX_MP = _ComplexMPArith()


def banded_sigma(columns: list, nrows: int, lower: int, upper: int, arith):
    """(sigma, unit right vector) of a banded matrix; see the notes above."""
    zero, one, conj, hypot, norm = (arith.zero, arith.one, arith.conj,
                                    arith.hypot, arith.norm)
    ncols = len(columns)
    L = lower
    bw = lower + upper
    OFF = L
    WID = L + bw + 1
    R = [[zero] * WID for _ in range(nrows)]
    for j, pairs in enumerate(columns):
        for i, v in pairs:
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
        for wj, pairs in zip(w, columns):
            for i, v in pairs:
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
        # no pivot is zero and w is not, so neither is x
        nx = norm(x)
        w = [t / nx for t in x]
        sig = matvec_norm(w)
        converged = sig_prev is not None and sig_prev != zero and \
            abs(float((sig - sig_prev) / sig_prev)) <= RTOL
        sig_prev = sig
        if converged:
            break
    return sig_prev, w


# ---------------------------------------------------------------------------
# the same method over many double shifts at once
# ---------------------------------------------------------------------------
#
# banded_sigma_batch runs banded_sigma's method in numpy for a batch of
# shifts.  Both stages step over panels of columns, at least twice the
# bandwidth L+U of R wide:
#
# * QR: LAPACK factors each panel, stacked over the shifts: the rows below
#   the previous panel's R rows, over the panel's columns and the L+U
#   columns it spills into.  The first panel-width rows of the result are
#   final rows of R; the next L rows are carried into the next panel.  R is
#   kept as its diagonal blocks, inverted afterwards all at once by one
#   back substitution over (panel, shift), and the (L+U) x (L+U) corners
#   that couple each block to the next, which lie above R's diagonal.  Both
#   are stored panel-major, (panel, shift, ...), so each step of the two
#   triangular solves of inverse iteration reads one contiguous slab.
# * inverse iteration: each step solves R^H y = w, then R x = y, and
#   takes w = x / ||x||.  rho = ||y|| / ||x|| equals ||T w|| of the new w
#   in exact arithmetic, so it serves banded_sigma's stop test (RTOL, or
#   the caller's rtol, or MAXIT steps) at no extra cost.  Once a shift
#   stops, ||T w|| of its last w comes once from the shared unshifted band
#   minus z w on the diagonal, so the reported value stays an upper bound
#   for sigma_min; no shifted copy of T is made.
#
# The columns are padded to whole panels with unit columns in rows below
# the truncation's last row.  They share no row with T, and the start
# vector is zero on them, so they stay zero.
#
# The shifts share one pool of slots, allocated once per call: as many as
# fit BATCH_BYTES of inverted blocks and corners, and at most one per
# shift.  The live slots form a prefix, and each step runs on that prefix
# only.  A shift that stops leaves its slot, and the last live slots move
# into the holes.  Once at most half the slots are live, the QR factors the
# next shifts straight into the free ones.  Every norm of a shift runs over
# its own row, so neither its value nor its vector depends on its slot,
# its neighbours or the refills.  A shift that meets an exact zero pivot
# (an exact kernel) leaves at once; it, and any shift that ends on a value
# that is not finite, takes the right singular vector v of a dense SVD of
# its shifted truncation instead, and reports ||T v|| like every other
# shift.

BATCH_BYTES = 3 << 20


def _double_band(op: OperatorSpec, N: int):
    """(band, up, kd) of the double truncation of a banded spec at N:
    band[k, j] = T0[j + k - up, j] for the unshifted block T0 in array rows,
    up its upper bandwidth there, and kd the band row of the diagonal.

    band is read-only and cached per (op, N) in place of the entry band it
    is built from, so it takes one slot of the truncation cache."""
    rows, ncols, row0, col0, _, _ = _block_geometry(op, N)
    up = op.upper_bandwidth - (col0 - row0)

    def build():
        band = np.zeros((rows - ncols + up + 1, ncols), dtype=complex)
        for j, col in enumerate(_build_band(op, N, DOUBLE, False, False)):
            for i, v in col:
                band[i - j + up, j] = v
        band.flags.writeable = False
        return band

    return _cached(op, ("double band", N), build), up, op.upper_bandwidth


def _panels(band, up: int, kd: int, ncols: int, panel: int):
    """Unshifted panel blocks of the padded truncation, and the mask of
    their diagonal entries (where the shift goes)."""
    bw = band.shape[0] - 1
    lo = bw - up
    nb = -(-ncols // panel)
    npad = nb * panel
    ext = np.zeros((bw + 1, npad), dtype=complex)
    ext[:, :ncols] = band
    ext[bw, ncols:] = 1.0
    col = np.arange(nb)[:, None, None] * panel + np.arange(panel + bw)
    k = np.arange(panel + lo)[:, None] - np.arange(panel + bw) + up
    inside = (k >= 0) & (k <= bw) & (col < npad)
    entries = ext[np.clip(k, 0, bw), np.minimum(col, npad - 1)]
    blocks = np.where(inside, entries, 0)
    return blocks, inside & (k == kd) & (col < ncols)


def _invert_blocks(d, bw: int):
    """Invert a stack of upper-triangular blocks of bandwidth bw in place.

    Only the upper band of each block is read; whatever lies below its
    diagonal is overwritten.  Row i of the inverse is row i of the block
    against the inverse's rows below it, so one back substitution of as
    many steps as the block is wide serves the whole stack.  Returns the
    mask of blocks with an exact zero pivot; only those go non-finite.
    """
    n = d.shape[-1]
    zero = (d.diagonal(axis1=-2, axis2=-1) == 0).any(axis=-1)
    for i in range(n - 1, -1, -1):
        k = min(i + bw + 1, n)
        row = -(d[..., i, None, i + 1:k] @ d[..., i + 1:k, :])[..., 0, :]
        row[..., i] += 1
        d[..., i, :] = row / d[..., i, i, None]
    return zero


def _panel_qr(blocks, diag, z, lo: int, bw: int, dinv, corner):
    """Factor R for each shift in z into dinv, its inverted diagonal
    blocks, and corner, its coupling corners, both panel-major (panel,
    shift, ...): (dinv, corner, exact-zero-pivot mask)."""
    nb, _, width = blocks.shape
    panel = width - bw
    carry = None
    for p in range(nb):
        a = blocks[p] - z[:, None, None] * diag[p]
        if p:
            a[:, :lo, :bw] = carry
        # R is the upper triangle of the transposed raw factor; below it
        # lie reflectors, which only the carried rows must not keep
        r = np.linalg.qr(a, mode="raw")[0].swapaxes(1, 2)
        dinv[p] = r[:, :panel, :panel]
        corner[p] = r[:, panel - bw:panel, panel:]
        carry = np.triu(r[:, panel:, panel:])
    singular = _invert_blocks(dinv, bw).any(axis=0)
    return dinv, corner, singular


def _band_norm(band, kd: int, z, w):
    """||(T0 - z) w|| for each row of w, from the unshifted band T0."""
    nk, ncols = band.shape
    out = np.zeros((len(w), ncols + nk - 1), dtype=complex)
    for k in range(nk):
        out[:, k:k + ncols] += band[k] * w
    out[:, kd:kd + ncols] -= z[:, None] * w
    return np.linalg.norm(out, axis=1)


def _inverse_step(dinv, corner, w):
    """One step of banded_sigma's inverse iteration, one shift per row of
    the unit vectors w: (next unit vectors, rho = ||y|| / ||x||)."""
    nb, ns, panel, _ = dinv.shape
    bw = corner.shape[-1]
    t = panel - bw
    # R^H y = w, solved as the row system y^H R = w^H, panel-major
    yh = w.conj().reshape(ns, nb, panel).transpose(1, 0, 2).copy()
    for p in range(nb):
        if p:
            yh[p, :, :bw] -= (yh[p - 1, :, None, t:] @ corner[p - 1])[:, 0]
        yh[p] = (yh[p, :, None] @ dinv[p])[:, 0]
    x = yh.conj()
    for p in range(nb - 1, -1, -1):
        if p < nb - 1:
            x[p, :, t:] -= (corner[p] @ x[p + 1, :, :bw, None])[..., 0]
        x[p] = (dinv[p] @ x[p, :, :, None])[..., 0]
    # each shift's norms run over its own row, whatever its neighbours
    y, x = (a.transpose(1, 0, 2).reshape(ns, -1) for a in (yh, x))
    nx = np.linalg.norm(x, axis=1)
    return x / nx[:, None], np.linalg.norm(y, axis=1) / nx


def banded_sigma_batch(op: OperatorSpec, zs, N: int,
                       want_vectors: bool = False, rtol: float = RTOL):
    """Double sigma_min of the rectangular truncation at each shift of zs,
    and with ``want_vectors`` the unit right vectors, one row per shift.

    Banded specs only; see the notes above.  Each shift stops once its
    rho changes by at most ``rtol`` (relative) between steps, and reports
    ||T v|| of its last unit vector v.  The values agree with a dense SVD
    up to rounding and that stop, and do not depend on which slot of the
    pool a shift takes or when the pool refills.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    band, up, kd = _double_band(op, N)
    bw, ncols = band.shape[0] - 1, band.shape[1]
    panel = max(2 * bw, 8)
    blocks, diag = _panels(band, up, kd, ncols, panel)
    nb = len(blocks)
    size = max(1, min(len(zs),
                      BATCH_BYTES // (16 * nb * (panel ** 2 + bw ** 2))))
    # the pool: slot s holds shift which[s]; slots below live iterate
    dinv = np.empty((nb, size, panel, panel), dtype=complex)
    corner = np.empty((nb, size, bw, bw), dtype=complex)
    w = np.empty((size, nb * panel), dtype=complex)
    rho = np.empty(size)
    steps = np.empty(size, dtype=int)
    which = np.empty(size, dtype=int)
    out = np.full(len(zs), np.nan)
    vectors = np.empty((len(zs), ncols), dtype=complex) if want_vectors \
        else None

    def retire(stop, live):  # the last live slots fill the stopped ones
        keep = live - int(stop.sum())
        holes = np.flatnonzero(stop[:keep])
        for h, m in zip(holes, keep + np.flatnonzero(~stop[keep:])):
            dinv[:, h], corner[:, h] = dinv[:, m], corner[:, m]
            w[h], rho[h], steps[h], which[h] = w[m], rho[m], steps[m], which[m]
        return keep

    live = fed = 0
    with np.errstate(all="ignore"):
        while live or fed < len(zs):
            if 2 * live <= size and fed < len(zs):
                z = zs[fed:fed + size - live]
                new = slice(live, live + len(z))
                singular = _panel_qr(blocks, diag, z, bw - up, bw,
                                     dinv[:, new], corner[:, new])[2]
                which[new] = np.arange(fed, fed + len(z))
                w[new] = (np.arange(nb * panel) < ncols) / math.sqrt(ncols)
                rho[new], steps[new] = np.nan, 0
                fed += len(z)
                # exact zero pivots: NaN, for the dense fallback below
                live = retire(np.append(np.zeros(live, dtype=bool),
                                        singular), new.stop)
                continue
            w[:live], r = _inverse_step(dinv[:, :live], corner[:, :live],
                                        w[:live])
            steps[:live] += 1
            # a non-finite rho stays so: stop it, for the dense fallback
            stop = (np.abs((r - rho[:live]) / rho[:live]) <= rtol) \
                | ~np.isfinite(r) | (steps[:live] == MAXIT)
            rho[:live] = r
            s = np.flatnonzero(stop)
            out[which[s]] = _band_norm(band, kd, zs[which[s]], w[s, :ncols])
            if want_vectors:
                vectors[which[s]] = w[s, :ncols]
            live = retire(stop, live)
    for i in np.flatnonzero(~np.isfinite(out)):
        T = rectangular(op, zs[i], N)
        v = smallest_singular(T)[1]
        out[i] = np.linalg.norm(T @ v)
        if want_vectors:
            vectors[i] = v
    return (out, vectors) if want_vectors else out


# ---------------------------------------------------------------------------
# bordered least squares for Gauss-Newton
# ---------------------------------------------------------------------------
#
# Gauss-Newton's Jacobian J0 = [[T - zE, b], [c^T, 0]] borders the banded
# T - zE with a dense column b and a dense row c^T.  bordered_lstsq factors
# J0, its row moved to the top, by banded_sigma_batch's panel Householder
# QR, and keeps each panel's explicit Q:
#
# * b is one more column of each panel;
# * c^T is one more row carried from panel to panel.  Past a panel, every
#   row it carries is a multiple of c, kept as its entries over the next
#   panel's first L+U columns and its coefficient of c.  The panel's Q maps
#   those coefficients to the next carried rows' and to the rank-one fill
#   R[k, j] = alpha_k c_j of its own rows of R past the panel.  R is kept
#   as its diagonal blocks, the L+U columns right of each, alpha and its
#   last column;
# * the rows left below the last panel hold only what remains of b, and
#   their projection on it stands for them all.
#
# A solve applies the Q's to the right-hand side, then solves panel by
# panel from the last, with a running sum of c_j x_j: O(N (L+U)) per
# solve, and O(N (L+U)^2) per factorization.  Block elimination on T - zE
# alone breaks down where T - zE is singular to working precision, as at
# a start on an exact eigenvalue; an orthogonal factorization of J0 does
# not.


def bordered_lstsq(band, up: int, kd: int, z, b, c):
    """solve(f), the least-squares solution x of J0 x = f for
    J0 = [[T - z E, b], [c^T, 0]]; see the notes above.

    T is given by its band as :func:`_double_band` returns it, with E
    putting the identity on band row kd; b runs over T's rows and c over
    its columns.  x is NaN where J0's R has an exact zero pivot.
    """
    bw, ncols = band.shape[0] - 1, band.shape[1]
    lo = bw - up
    panel = max(2 * bw, 8)
    blocks, diag = _panels(band, up, kd, ncols, panel)
    nb = len(blocks)
    npad = nb * panel
    width = panel + lo + 1            # rows of a panel: carried, then new
    border = np.zeros(npad + lo + 1, dtype=complex)
    border[1:ncols + lo + 1] = b      # J0's rows, c^T first
    cpad = np.zeros((nb + 1) * panel, dtype=complex)
    cpad[:ncols] = c
    qh = np.empty((nb, width, width), dtype=complex)
    rdiag = np.empty((nb, panel, panel), dtype=complex)
    corner = np.empty((nb, panel, bw), dtype=complex)
    alpha, rlast = np.empty((2, nb, panel), dtype=complex)  # fill, last col
    # what the first panel carries in: c^T, then the first L rows of T
    carry = np.zeros((lo + 1, bw + 1), dtype=complex)
    carry[0, :bw] = cpad[:bw]
    carry[1:, :bw] = (blocks[0] - z * diag[0])[:lo, :bw]
    carry[1:, -1] = border[1:lo + 1]
    coef = np.eye(lo + 1)[0]
    for p in range(nb):
        a = np.empty((width, panel + bw + 1), dtype=complex)
        a[lo + 1:, :-1] = (blocks[p] - z * diag[p])[lo:]
        a[lo + 1:, -1] = border[p * panel + lo + 1:p * panel + width]
        a[:lo + 1, :bw] = carry[:, :bw]
        a[:lo + 1, bw:-1] = coef[:, None] * cpad[p * panel + bw:
                                                 (p + 1) * panel + bw]
        a[:lo + 1, -1] = carry[:, -1]
        q, r = np.linalg.qr(a, mode="complete")
        qh[p] = q.conj().T
        rdiag[p] = r[:panel, :panel]
        corner[p] = r[:panel, panel:-1]
        coef = qh[p, :, :lo + 1] @ coef
        alpha[p], rlast[p] = coef[:panel], r[:panel, -1]
        coef = coef[panel:]
        carry = r[panel:, panel:]
    h = carry[:, -1]
    hh = np.vdot(h, h).real
    singular = hh == 0 or (rdiag.diagonal(axis1=1, axis2=2) == 0).any()
    cb = cpad.reshape(nb + 1, panel)

    def solve(f):
        if singular:
            return np.full(ncols + 1, np.nan)
        y = np.zeros(npad + lo + 1, dtype=complex)
        y[0], y[1:ncols + lo + 1] = f[-1], f[:-1]
        for p in range(nb):
            y[p * panel:p * panel + width] = \
                qh[p] @ y[p * panel:p * panel + width]
        xb = np.vdot(h, y[npad:]) / hh
        x = np.zeros((nb + 1, panel), dtype=complex)
        tail = 0j                     # sum of c_j x_j past panel p
        for p in range(nb - 1, -1, -1):
            nxt = x[p + 1, :bw]
            rhs = y[p * panel:(p + 1) * panel] - corner[p] @ nxt \
                - alpha[p] * (tail - cb[p + 1, :bw] @ nxt) - rlast[p] * xb
            x[p] = np.linalg.solve(rdiag[p], rhs)
            tail += cb[p] @ x[p]
        return np.append(x.ravel()[:ncols], xb)

    return solve


# ---------------------------------------------------------------------------
# dispatch over truncations and operators
# ---------------------------------------------------------------------------

def smallest_singular(A):
    """(sigma, right singular vector) of the smallest singular value of the
    dense matrix A, by LAPACK in doubles: the SVD of A, or of its square R
    factor when A is tall, which has A's singular values and right vectors
    and spares the tall left factor.

    The certified pipeline never trusts this value.  Degenerate smallest
    singular values return an arbitrary unit vector of the minimizing space.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[0] > A.shape[1]:
        A = np.linalg.qr(A, mode="r")
    _, s, vh = np.linalg.svd(A)
    return float(s[-1]), vh[-1].conj()


def _mp_band(op: OperatorSpec, N: int, ctx: PrecisionContext,
             rotated: bool = False):
    """The big-float band of a spec: the midpoints of its cached fixed-point
    box band (:func:`~specgate.truncation._band`), rounded to the context's
    precision, as mpf values (``rotated``) or mpc values.  None where that
    band is None; not cached."""
    band = _band(op, N, ctx, rotated)
    if band is None:
        return None
    # lo + hi of an interval at scale 2^-p is its midpoint at 2^-(p+1)
    k = fixed_bits(ctx.digits) + 1
    with ctx.workprec():
        prec = mp.prec
        if rotated:
            return [[(i, _fx_mpf(a[0] + a[1], k, prec)) for i, a in col]
                    for col in band]
        return [[(i, mpmath.mpc(_fx_mpf(a[0] + a[1], k, prec),
                                _fx_mpf(a[2] + a[3], k, prec)))
                 for i, a in col] for col in band]


def _banded_sigma_min(op: OperatorSpec, z, N: int, ctx: PrecisionContext):
    """banded_sigma over the big-float band of a banded spec
    (:func:`_mp_band`).

    A real shift uses the real rotated band when the operator has one; its
    vector maps back by v[m] = i^m w[m].
    """
    rows, _, row0, col0, _, _ = _block_geometry(op, N)
    d = col0 - row0  # array row of column jc's diagonal entry is jc + d
    band = _mp_band(op, N, ctx, rotated=True) if z.imag == 0 else None
    rotated = band is not None
    if rotated:
        shift, arith = z.real, _REAL_MP
    else:
        band = _mp_band(op, N, ctx)
        shift, arith = z, _COMPLEX_MP
    columns = [[(i, v - shift if i == jc + d else v) for i, v in col]
               for jc, col in enumerate(band)]
    sig, w = banded_sigma(columns, rows, op.lower_bandwidth + d,
                          op.upper_bandwidth - d, arith)
    if rotated:
        w = [mpmath.mpc(*_rotate(t, 0, col0 + m)) for m, t in enumerate(w)]
    return sig, w


def sigma_min(op: OperatorSpec, z, N: int, ctx: PrecisionContext,
              want_vector: bool = False):
    """sigma_min of the rectangular truncation, optionally with the vector.

    Returns (sigma, right_vector_or_None); the vector is in the operator's
    original basis, indexed from the truncation's first column.  One route
    per precision and structure:

    * a double shift on a banded spec is a batch of one
      (:func:`banded_sigma_batch`) that iterates until its rho stops
      changing, at most MAXIT steps;
    * a double shift on a long-range spec runs LAPACK on its dense
      truncation (:func:`~specgate.truncation.rectangular`);
    * a big-float shift runs :func:`banded_sigma` over the grid band
      (:func:`_mp_band`).  A long-range spec has no band, and big-float
      sigma refuses it with :class:`~specgate.operators.StructureError`.
    """
    if not ctx.is_double:
        if not op.banded:
            raise StructureError(
                f"{op.id}: big-float sigma_min runs on the band of a banded "
                "spec, and this spec is long-range; use double precision")
        with ctx.workprec():
            sig, w = _banded_sigma_min(op, mpmath.mpc(z), N, ctx)
        return sig, (w if want_vector else None)
    z = complex(z)
    if op.banded:
        sig, w = banded_sigma_batch(op, [z], N, want_vectors=True, rtol=0.0)
        return float(sig[0]), (w[0] if want_vector else None)
    T = rectangular(op, z, N)
    if not want_vector:
        return float(np.linalg.svd(T, compute_uv=False)[-1]), None
    return smallest_singular(T)


def gamma(op: OperatorSpec, z, N: int, ctx: PrecisionContext):
    """Upper bound for the inverse resolvent norm at z.

    sigma_min of the rectangular truncation; for long-range specs the
    certified tail defect is added so the value stays an upper bound for
    the injection modulus of (H - z) restricted to the truncated block.
    """
    sig, _ = sigma_min(op, z, N, ctx)
    if op.banded:
        return sig
    return sig + _block_geometry(op, N)[5]


def right_vector(op: OperatorSpec, z, N: int, ctx: PrecisionContext):
    """Right singular vector at the smallest singular value."""
    _, v = sigma_min(op, z, N, ctx, want_vector=True)
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
        return [exact_conj(t) for t in v]
    adj = op.adjoint()
    zc = complex(z).conjugate() if ctx.is_double else exact_conj(z)
    return right_vector(adj, zc, N, ctx)
