"""End-to-end pipelines: grids, localization, bootstrap certification.

The certification flow for operators with real spectra (bootstrap order):

1. take a dip census of double gamma_N: its values on a mesh of step at
   most gap_floor/8, ends included, from the previous certified center
   (0 for n = 1) up to the asymptotic midpoint above the n-th eigenvalue.
   The first interior local minimum (dip) brackets the candidate.  The
   asymptotics only size the census top; no rigor rests on them, whose
   remainder constant is unquantified;
2. zoom into that bracket by censuses of 16 sub-steps until its half-width
   is at most ``ZOOM_SLOPE_FRACTION`` times the slope of gamma_N at the dip
   (or it is at most 1e-9 wide), a start inside the basin of full-step
   Gauss-Newton, then refine the pair (z, v) that minimizes the rectangular
   residual by bordered Gauss-Newton: each step a full banded least-squares
   step on the bordered Jacobian in doubles, re-factored by banded QR at
   each iterate, keeping the iterate of least ||F||_2; the residual's rows
   are the midpoints of the interval rows that the verifier sums, on the
   fixed-point grid at the guard-digit precision.  Those digits grow with
   n, so before the first index one request starts the operator's entry
   store at the digits of index n_max: every box band of the run, at any
   index and N, is shifted out of one evaluation of each entry
   (:func:`~specgate.truncation._box_entries`);
3. once the candidate's radius meets the target, take the census again at
   the certifying N from the previous center to the candidate.  Its ends
   are certified eigenvalues, where gamma dips; the gap_floor spacing
   hypothesis keeps any other eigenvalue at least 8 mesh steps from either
   end, so an interior dip is a suspected missed eigenvalue and raises
   :class:`GapScanError`.  gamma_N converges to the injection modulus of
   H - z from above, at no computable rate, so the census is a hypothesis
   - gamma_N has converged and the mesh resolves each dip - tagged
   ``DIP_CENSUS_TAG`` in the enclosure's ``conditional_on``;
4. certify the candidate with strip index n+1: both inversion constants
   grow with the index, so overshooting by one keeps the bound valid
   whichever side of the true eigenvalue the candidate landed on.

Operators with genuinely complex spectra (the lattice model) instead seed
candidates from a square-truncation eigensolve, refine each seed with its
double singular vector by the same Gauss-Newton at a complex z (its rows
from the lattice's residual hint, or from the complex box band), and
certify each disk; the census does not apply, but pairwise separation of
the certified disks is enforced.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np
from mpmath import mp

from .intervals import fixed_bits, _fx_enclose, _fx_mpc
from .ltp import LTPModel, dist_bound, model_for_operator
from .operators import (COMPLEX_SYMMETRIC, INTEGERS, OperatorSpec,
                        PT_SYMMETRIC, REAL_SPECTRUM)
from .precision import (DOUBLE, PrecisionContext, bigfloat, exact_conj,
                        guard_digits)
from .sigma import (_double_band, banded_sigma_batch, bordered_lstsq, gamma,
                    left_null_vector, right_vector, sigma_min)
from .truncation import (_band, _block_geometry, _box_entries, _rotate,
                         rectangular)
from .truncation import square as square_truncation
from .verify import (CertificationError, Enclosure, _residual_rows,
                     certify_eigenvalue, enclosure_center, verified_residual)

DOUBLE_N_CAP = 5000
BIGFLOAT_N_CAP = 3000

#: Hypothesis of real-spectrum bootstrap enclosures: gamma_N has converged
#: and the census mesh resolves each dip, so the index n is complete.
DIP_CENSUS_TAG = "gamma-dip-census"


class GapScanError(RuntimeError):
    """The dip census found no dip where one must be (``at`` is None), or a
    dip inside a gap between eigenvalues (``at`` is its location)."""

    def __init__(self, message, at):
        super().__init__(message)
        self.at = at


def default_n_schedule(n: int) -> int:
    return max(200, 40 * n)


def _gamma_nodes(op: OperatorSpec, zs, N: int,
                 ctx: PrecisionContext = DOUBLE) -> np.ndarray:
    """gamma_N at each shift of zs: batched for a double banded spec
    (:func:`~specgate.sigma.banded_sigma_batch`), node by node otherwise."""
    if ctx.is_double and op.banded:
        return banded_sigma_batch(op, zs, N)
    return np.array([float(gamma(op, z, N, ctx)) for z in zs])


# ---------------------------------------------------------------------------
# pseudospectrum grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridResult:
    region: tuple
    resolution: tuple
    values: np.ndarray
    N: int
    op_id: str


def pseudospectrum_grid(op: OperatorSpec, region, resolution, N: int,
                        ctx: PrecisionContext = DOUBLE) -> GridResult:
    """gamma_N on a rectangular grid; rows follow the imaginary axis.

    Each value upper-bounds the inverse resolvent norm, so sublevel sets of
    the output are subsets of the true pseudospectrum.
    """
    re_min, re_max, im_min, im_max = region
    nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    res = np.linspace(re_min, re_max, nx)
    ims = np.linspace(im_min, im_max, ny)
    points = [complex(r, i) for i in ims for r in res]
    grid = _gamma_nodes(op, points, N, ctx).reshape(ny, nx)
    return GridResult(tuple(region), (nx, ny), grid, N, op.id)


# ---------------------------------------------------------------------------
# the dip census of double gamma_N on the real axis
# ---------------------------------------------------------------------------

def _census(op: OperatorSpec, model: LTPModel, lo: float, hi: float,
            N: int, count: Optional[int] = None):
    """(mesh, gamma_N on it, indices of its dips) for a mesh from lo to hi,
    ends included: ``count`` nodes, or by default a step of at most
    gap_floor/8.  A dip is an interior node whose value is at most both
    neighbours'."""
    if count is None:
        count = max(3, math.ceil(8.0 * (hi - lo) / model.gap_floor) + 1)
    ts = np.linspace(lo, hi, count)
    g = _gamma_nodes(op, ts, N)
    dips = [k for k in range(1, count - 1)
            if g[k] <= g[k - 1] and g[k] <= g[k + 1]]
    return ts, g, dips


#: The dip zoom of :func:`_locate_dip` stops once the bracket's half-width
#: is at most this multiple of the slope s of gamma_N at the dip: the start
#: only has to lie inside the basin of the full-step, re-factored Gauss-Newton
#: of :func:`_refine_eigenpair`, not at the floor of gamma.  Near a simple
#: eigenvalue lam, gamma_N is V-shaped, gamma(t) ~ s |t - lam|.  With lam
#: between the dip's neighbours t[k-1] and t[k+1], their values sum to
#: g[k-1] + g[k+1] = s w for the bracket width w = t[k+1] - t[k-1], so
#: w / 2 <= C s reads w^2 <= 2 C (g[k-1] + g[k+1]).  On the cubic the first
#: census meets it at indices 1 and 2, and indices 10 to 17 after 7 rounds.
#: Without the zoom, index 3's start lies 0.125 away, its step lowers
#: ||F||_2 without halving it, and the bootstrap escalates N.  The 1e-9
#: floor of the width stays, so no dip is zoomed more rounds than at that
#: width alone.
ZOOM_SLOPE_FRACTION = 5


def _locate_dip(op: OperatorSpec, model: LTPModel, lo: float, hi: float,
                N: int):
    """(z, gamma_N(z)) at the first dip of the census from lo to hi.

    The dip's bracket (its two neighbours) is re-censused with 16 sub-steps
    until its half-width is at most ``ZOOM_SLOPE_FRACTION`` times the slope
    of gamma_N at the dip, or it is at most 1e-9 wide; each round keeps the
    deepest interior node.  No dip raises :class:`GapScanError`.
    """
    ts, g, dips = _census(op, model, lo, hi, N)
    if not dips:
        raise GapScanError(f"no dip of gamma_{N} in ({lo}, {hi})", None)
    k = dips[0]
    while (ts[k + 1] - ts[k - 1] > 1e-9 and (ts[k + 1] - ts[k - 1]) ** 2
           > 2 * ZOOM_SLOPE_FRACTION * (g[k - 1] + g[k + 1])):
        ts, g, _ = _census(op, model, ts[k - 1], ts[k + 1], N, count=17)
        k = 1 + int(np.argmin(g[1:-1]))
    return float(ts[k]), float(g[k])


def _gap_check(op: OperatorSpec, model: LTPModel, lo: float, hi: float,
               N: int):
    """Raise :class:`GapScanError` at the first dip of the census from lo to
    hi, two consecutive eigenvalues; see step 3 of the module notes."""
    ts, _, dips = _census(op, model, lo, hi, N)
    if dips:
        t = float(ts[dips[0]])
        raise GapScanError(
            f"the dip census at N = {N} finds a suspected eigenvalue near "
            f"{t} between {lo} and {hi}", t)


# ---------------------------------------------------------------------------
# bootstrap certification (real spectra)
# ---------------------------------------------------------------------------

def _default_target_radius(ctx: PrecisionContext):
    if ctx.is_double:
        return 1e-8
    return 10.0 ** (-(ctx.digits // 2))


def _residual_target(model: LTPModel, m: int, target):
    """Residual bound that certifies strip index m within ``target``.

    g = 0.45 target / (2 kappa(m) + c_m target) keeps c_m g below 0.45, and
    dist_bound's 2 kappa g / (1 - c_m g) is then
    0.9 kappa target / (2 kappa + 0.55 c_m target) < target / 2.  A big
    float when either constant is past the double range.
    """
    return 0.45 * target / (2.0 * model.kappa_bound(m)
                            + model.c_bound(m) * target)


def _verification_digits(n: int, ctx: PrecisionContext, eps_target) -> int:
    need = 25
    if eps_target > 0:
        need = max(need, int(mpmath.ceil(-mpmath.log10(eps_target))) + 12)
    base = 16 if ctx.is_double else ctx.digits
    return max(base, guard_digits(n), need)


def bootstrap_certify(op: OperatorSpec, model: Optional[LTPModel], n_max: int,
                      ctx: PrecisionContext = DOUBLE,
                      N_schedule: Optional[Callable[[int], int]] = None,
                      target_radius=None) -> list[Enclosure]:
    """Certify the lowest n_max eigenvalues in increasing order.

    Real-spectrum operators run the census/refine/certify loop of the
    module notes with N escalation (schedule value, then geometric growth
    guided by the observed residual decay, capped).  An escalation whose
    verified residual is not below the previous attempt's has stalled and
    raises :class:`CertificationError`.  Complex-spectrum operators delegate
    to the square-truncation seeded pipeline.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if model is None:
        model = model_for_operator(op.id)
    if REAL_SPECTRUM not in op.symmetry_flags:
        return _certify_complex_spectrum(op, model, n_max, ctx,
                                         N_schedule, target_radius)
    schedule = N_schedule or default_n_schedule
    cap = DOUBLE_N_CAP if ctx.is_double else BIGFLOAT_N_CAP
    target = target_radius if target_radius is not None else \
        _default_target_radius(ctx)

    lam = model.lambda_asymptotic
    if lam is None:
        raise ValueError(
            f"model {model.id!r} has no eigenvalue asymptotics "
            "(lambda_asymptotic), which the real-spectrum bootstrap needs "
            "to size its dip census")
    eps_last = _residual_target(model, n_max + 1, target)
    if (op.entry_box is not None and "mp_residual_rows" not in op.hints
            and eps_last > 0):
        # digits_v grows with n: start the entry store at the run's finest
        # scale, so that each box band is shifted out of it
        _box_entries(op, min(schedule(1), cap), fixed_bits(
            _verification_digits(n_max, ctx, eps_last)))
    enclosures: list[Enclosure] = []
    prev_center, prev_sup = 0.0, None
    for n in range(1, n_max + 1):
        m_eff = n + 1
        eps_target = _residual_target(model, m_eff, target)
        if not eps_target > 0:
            raise CertificationError(
                f"target radius {target} unreachable for index {n}")
        digits_v = _verification_digits(n, ctx, eps_target)
        top = 0.5 * (lam(n) + lam(n + 1))

        N = schedule(n)
        attempts = []
        z_loc = None
        while True:
            N = min(N, cap)
            z_loc, v_cand = _locate_candidate(op, model, prev_center, top, N,
                                              digits_v, z_loc)
            bound = verified_residual(op, z_loc, v_cand, bigfloat(digits_v))
            eps_cert = bound.hi
            radius = dist_bound(eps_cert, m_eff, model, ctx)
            if not math.isinf(float(radius)) and float(radius) <= target:
                _gap_check(op, model, prev_center, float(z_loc), N)
                enc = certify_eigenvalue(op, model, z_loc, v_cand, m_eff,
                                         bigfloat(digits_v), index_n=n,
                                         residual=bound)
                break
            if attempts and not float(eps_cert) < attempts[-1][1]:
                raise CertificationError(
                    f"index {n}: the verified residual stalled, "
                    f"{attempts[-1][1]:.3e} at N = {attempts[-1][0]} and "
                    f"{float(eps_cert):.3e} at N = {N}")
            attempts.append((N, float(eps_cert)))
            if N >= cap:
                raise CertificationError(
                    f"index {n}: radius {float(radius):.3e} above target "
                    f"{target:.1e} at the N cap {cap}")
            N = _escalate_N(attempts, eps_target, N, cap)

        if enc.radius != 0 and prev_sup is not None:
            gap_to_prev = float(enc.center) - float(enc.radius) - prev_sup
            if not float(enc.radius) < 0.5 * gap_to_prev:
                raise CertificationError(
                    f"index {n}: radius {float(enc.radius):.3e} not separated "
                    "from the previous enclosure")
        enclosures.append(dataclasses.replace(
            enc, conditional_on=enc.conditional_on + (DIP_CENSUS_TAG,)))
        prev_center = float(enc.center)
        prev_sup = prev_center + float(enc.radius)
    return enclosures


def _escalate_N(attempts, eps_target, N, cap):
    """Next truncation size: geometric fit of the residual decay when two
    attempts exist, plain doubling otherwise; growth at least 30 percent."""
    if len(attempts) >= 2:
        (N1, e1), (N2, e2) = attempts[-2], attempts[-1]
        if e2 > 0 and e1 > e2 and N2 > N1:
            slope = (math.log10(e1) - math.log10(e2)) / (N2 - N1)
            if slope > 1e-4:
                need = (math.log10(e2) - float(mpmath.log10(eps_target))) \
                    / slope
                fitted = int(math.ceil(N2 + 1.15 * need))
                return min(cap, max(fitted, int(1.3 * N)))
    return min(cap, max(2 * N, N + 50))


def _locate_candidate(op, model, lo, hi, N, digits_v, z_prev):
    """Candidate (z, v) at truncation size N: localize, then refine.

    The first attempt at an index localizes the first dip of double gamma_N
    from lo to hi (:func:`_locate_dip`); an escalated attempt starts from
    the previous attempt's center.  Either start, with the double right
    singular vector at size N, is refined by bordered Gauss-Newton
    (:func:`_refine_eigenpair`), and z is its real part, rounded to the
    center that the bootstrap reports.  Nothing here is trusted: the caller
    verifies the residual on the rectangular truncation.
    """
    z0 = _locate_dip(op, model, lo, hi, N)[0] if z_prev is None \
        else float(z_prev)
    z, v = _refine_eigenpair(op, N, z0, right_vector(op, z0, N, DOUBLE),
                             digits_v)
    # the z the bootstrap verifies is the center it reports
    return enclosure_center(z.real, bigfloat(digits_v)), v


#: Gauss-Newton steps of :func:`_refine_eigenpair`, at most.
NEWTON_MAXIT = 20

#: Exact powers of i, by exponent mod 4.
_PHASES = np.array([1, 1j, -1, -1j])


def _refine_eigenpair(op, N, z0, v0, digits_v):
    """Candidate (z, v) at truncation size N, refined from the double start
    (z0, v0) by Gauss-Newton.

    (v, z) minimizes ||F||, F = [(T - z E) v ; c^T v - 1] with c = conj(v0),
    over the rectangular truncation T of H (E puts the identity in the
    square block's rows).  That is the residual that is verified, spill
    rows included; the square block's eigenpair leaves 2.7 times the
    minimum there at the cubic's fourth eigenvalue (N = 200).  v, z and c
    sit on the fixed-point grid of scale 2^-p, p = ``fixed_bits(digits_v)``,
    and the rows of F are the midpoints of the interval rows that
    :func:`~specgate.verify.verified_residual` sums
    (:func:`~specgate.verify._residual_rows`): one band build, or the
    operator's hint, serves both.  Each step solves J s = F by least squares
    in doubles, J = [[T - z E, -E v], [c^T, 0]], for T the double truncation
    that the float stage has cached at N.  A banded spec's J is factored by
    :func:`~specgate.sigma.bordered_lstsq` on the census band, without
    building J, at (z0, v0) and again at each iterate.  A long-range
    spec's dense block (:func:`~specgate.truncation.rectangular`)
    is factored by QR once, at J0: its square-truncation seeds start at the
    floor, and each refresh would be one more dense QR of the block.

    Every step is taken at full length, with one evaluation of F, and the
    iterate of least ||F||_2 is returned.  Far from the solution ||F||_2 is
    a poor merit function: from the cubic's census starts at indices 12 and
    13 the first step raises it 14 to 35 fold, and the steps then converge
    quadratically.  So they stop at a step that does not lower ||F||_2 once
    one has, and at one that lowers it without halving it (the floor of the
    truncation or of the grid) unless an earlier step raised it; z still
    converges at the floor.  They also stop when F vanishes, at a
    non-finite step, or after NEWTON_MAXIT.  ||F||_2 is the norm that
    Gauss-Newton lowers and the residual norm that is verified; at the
    floor ||F||_inf is flat while the steps still move z by units of 1e-15,
    so a test on it would leave the end point to rounding in the
    factorization, which may depend on the BLAS thread count.

    v0 is divided by the phase of its largest entry.  At a real z0, on
    the real rotated band (W^-1 H W, W = diag(i^m)) when the operator has
    one and no residual hint, J is rotated by the exact phases i^(c-r),
    v0 is rotated in before that division and its real part taken after
    it, and z stays real.  Otherwise z is complex.  z comes back as an
    exact mpc, and v in the operator's basis as exact mpc values of the
    grid.
    """
    ctx = bigfloat(digits_v)
    p = fixed_bits(digits_v)
    rows, cols, row0, col0, _, _ = _block_geometry(op, N)
    d = col0 - row0  # array row of column jc's diagonal entry is jc + d
    z0 = complex(z0)
    rotated = ("mp_residual_rows" not in op.hints and z0.imag == 0
               and _band(op, N, ctx, rotated=True) is not None)
    unit = 1 << (p + 1)

    diag = np.arange(cols)
    w0 = np.asarray(v0, dtype=complex)
    if rotated:
        w0 = w0 * _PHASES[-(col0 + diag) % 4]
    big = w0[np.argmax(np.abs(w0))]
    w0 = w0 * (abs(big) / big)
    if rotated:
        w0 = w0.real
    w0 = w0 / np.linalg.norm(w0)
    c = w0.conj()
    # complex also for the real rotated band: the double stage's other
    # LAPACK calls are complex, and real ones page in a second set of kernels
    b = np.zeros(rows, dtype=complex)
    b[diag + d] = -w0
    if op.banded:
        band, up, kd = _double_band(op, N)
        if rotated:
            band = (band * _PHASES[(kd - np.arange(len(band))) % 4, None]).real
        solve = bordered_lstsq(band, up, kd, z0, b, c)
    else:
        A = rectangular(op, z0, N)
        if rotated:
            A = (A * _PHASES[(diag + d - np.arange(rows)[:, None]) % 4]).real
        q, r0 = np.linalg.qr(np.block([[A, b[:, None]],
                                       [c[None], np.zeros((1, 1))]]))
        qh = q.conj().T

        def solve(f):
            return np.linalg.solve(r0, qh @ f)

    def grid(x):
        return _fx_enclose(float(x), p)[0]

    # the rotated band's zero imaginary parts are not gridded
    cg, v = ([(grid(t.real), 0 if rotated else grid(t.imag)) for t in u]
             for u in (c, w0))
    z = (grid(z0.real), grid(z0.imag))
    one = 1 << (2 * p)
    scale = 1 << p

    def in_basis(v):
        """v in the operator's basis, as (re, im) ints at scale 2^-p."""
        if not rotated:
            return v
        return [_rotate(x, y, col0 + m) for m, (x, y) in enumerate(v)]

    def residual(v, z):
        """The components of F at scale 2^-(2p+1), real and imaginary parts
        in turn for a complex z, their largest modulus and their sum of
        squares.  Each row's part is lo + hi of its interval at 2^-p."""
        r = [(lo + hi) << p for row in _residual_rows(
            op, N, ctx, tuple((t, t) for t in z), in_basis(v))
            for lo, hi in row]
        r.append(2 * (sum(a * x - b * y for (a, b), (x, y)
                          in zip(cg, v)) - one))
        if not rotated:
            r.append(2 * sum(a * y + b * x for (a, b), (x, y)
                             in zip(cg, v)))
        return r, max(map(abs, r)), sum(t * t for t in r)

    def shift(x, s, rn):
        """x minus the grid value of the double s times rn 2^-(2p+1)."""
        a, b = float(s).as_integer_ratio()
        return x - (a * rn) // (b * unit)

    r, rn, ss = residual(v, z)
    best = ss, z, v
    fell = rose = False
    for it in range(NEWTON_MAXIT):
        if not rn > 0:
            break
        if it and op.banded:
            # re-factor J at the new (z, v); c stays conj(w0)
            w = np.array([complex(x / scale, y / scale) for x, y in v])
            b[diag + d] = -w
            solve = bordered_lstsq(band, up, kd,
                                   complex(z[0] / scale, z[1] / scale), b, c)
        f = np.array([t / rn for t in r])
        step = solve(f if rotated else f[0::2] + 1j * f[1::2])
        if not np.isfinite(step).all():
            break
        if rotated:
            step = step.real
        v = [(shift(x, t.real, rn), y if rotated else shift(y, t.imag, rn))
             for (x, y), t in zip(v, step)]
        z = (shift(z[0], step[cols].real, rn),
             shift(z[1], step[cols].imag, rn))
        r, rn, ss_new = residual(v, z)
        if ss_new < best[0]:
            best = ss_new, z, v
        lower = ss_new < ss
        if (fell and not lower) or (lower and 4 * ss_new > ss and not rose):
            break
        fell, rose, ss = fell or lower, rose or not lower, ss_new
    _, z, v = best
    return _fx_mpc(*z, p), [_fx_mpc(x, y, p) for x, y in in_basis(v)]


# ---------------------------------------------------------------------------
# complex-spectrum pipeline (square-truncation seeds + Gauss-Newton)
# ---------------------------------------------------------------------------

def _certify_complex_spectrum(op, model, n_max, ctx, N_schedule,
                              target_radius) -> list[Enclosure]:
    """Seed candidates from a square-truncation eigensolve, refine, certify.

    Each seed z0 whose gamma at the working size exceeds 0.05 is a
    square-truncation artifact and is skipped; the others are refined from
    (z0, the double right singular vector at z0) by bordered Gauss-Newton
    (:func:`_refine_eigenpair`), then certified from the refined pair's
    verified residual.  A refined z more than 0.05 from its seed has left
    the seed's neighbourhood, and the pipeline fails closed.  Eigenvalues
    are indexed by increasing modulus.  Completeness of the enumeration is
    not certified on this path - each enclosure individually is.

    A PT-symmetric spec over the integers maps an eigenvector v of z to one
    of conj(z) by the parity n -> -n of l^2(Z) and a conjugation, which on
    the block -N..N is a flip and a conjugation.  There the lower-half
    seeds are skipped, and each non-real refined pair's mirror is certified
    under the next index from the exactly conjugated pair, so that its disk
    is the exact mirror of the first, radius and all.
    """
    n_block = N_schedule(0) if N_schedule else 45
    seed_block = min(n_block, 30)
    S = square_truncation(op, 0.0, seed_block)
    eigs = np.linalg.eigvals(S)
    eigs = sorted(eigs, key=lambda t: (abs(t), -t.imag))
    digits_v = max(25, 16 if ctx.is_double else ctx.digits)
    tail = _block_geometry(op, n_block)[5]
    mirror = PT_SYMMETRIC in op.symmetry_flags and op.index_domain == INTEGERS

    enclosures: list[Enclosure] = []
    used: list[complex] = []
    index = 1
    for z0 in eigs:
        if len(enclosures) >= n_max:
            break
        if mirror and z0.imag < -1e-9:
            continue  # lower-half partner is emitted as a mirror
        if any(abs(z0 - u) < 1e-6 for u in used):
            continue
        sig, v0 = sigma_min(op, complex(z0), n_block, DOUBLE,
                            want_vector=True)
        if sig + tail > 0.05:
            continue  # square-truncation artifact
        z_ref, v = _refine_eigenpair(op, n_block, z0, v0, digits_v)
        if abs(complex(z_ref) - z0) > 0.05:
            raise CertificationError(
                f"Gauss-Newton from the seed {complex(z0)} ended at "
                f"{complex(z_ref)}, more than 0.05 away")
        used.append(complex(z_ref))
        is_real = abs(z_ref.imag) < 1e-9
        enc = certify_eigenvalue(op, model, z_ref.real if is_real else z_ref,
                                 v, 1, bigfloat(digits_v), index_n=index)
        if target_radius is not None and float(enc.radius) > target_radius:
            raise CertificationError(
                f"lattice index {index}: radius {float(enc.radius):.3e} "
                f"above target {target_radius:.1e}")
        enclosures.append(enc)
        index += 1
        if mirror and not is_real and len(enclosures) < n_max:
            enc_m = certify_eigenvalue(
                op, model, exact_conj(z_ref), [exact_conj(t) for t in v[::-1]],
                1, bigfloat(digits_v), index_n=index)
            enclosures.append(enc_m)
            index += 1
    _check_separation(enclosures)
    return enclosures


#: Relative margin of the double pre-screen of :func:`_check_separation`,
#: some nine units of 2^-53: it covers the rounding of both centers and
#: both radii to doubles (at most one unit each), and that of the gap and
#: of the sums (at most three units each).
SEPARATION_MARGIN = 1e-15


def _check_separation(enclosures: Sequence[Enclosure]):
    """Raise :class:`CertificationError` if two disks meet.

    A pair is separated in doubles when their gap exceeds the sum of the
    radii by a margin for the rounding of centers, radii and gap, plus
    1e-300 for a radius that rounds to 0.0 or to a subnormal.  Every
    other pair compares the exact centers at the enclosures' digits:
    disks far below the double spacing of their centers may round to one
    double center."""
    disks = [(complex(e.center), float(e.radius)) for e in enclosures]
    for i, a in enumerate(enclosures):
        ca, ra = disks[i]
        for b, (cb, rb) in zip(enclosures[i + 1:], disks[i + 1:]):
            gap = abs(ca - cb)
            slack = SEPARATION_MARGIN * (abs(ca) + abs(cb) + ra + rb + gap)
            if gap > ra + rb + slack + 1e-300:
                continue
            if a.intersects(b.center, b.radius):
                raise CertificationError(
                    f"enclosures {a.index_n} and {b.index_n} overlap")


# ---------------------------------------------------------------------------
# condition numbers and eigenfunctions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    index_n: int
    kappa: float
    consistency: float
    N: int


def condition_number(op: OperatorSpec, enclosure: Enclosure, N: int,
                     ctx: PrecisionContext = DOUBLE) -> ConditionResult:
    """Eigenvalue condition number from near-null right/left vectors.

    Complex-symmetric specs use the conjugate shortcut, reducing to
    ||v||^2 / |v^T v|.  The value is a float diagnostic (not certified);
    ``consistency`` is the relative difference against a recomputation at
    5N/4.
    """
    z = enclosure.center

    def kappa_at(nn: int) -> float:
        if ctx.is_double:
            v = right_vector(op, complex(z), nn, DOUBLE)
            arr = np.asarray(v)
            denom = abs(np.sum(arr * arr))
            nrm = float(np.sum(np.abs(arr) ** 2))
        else:
            with ctx.workprec():
                _, v = sigma_min(op, z, nn, ctx, want_vector=True)
                denom = abs(mp.fsum([t * t for t in v]))
                nrm = mp.fsum([abs(t) ** 2 for t in v])
        if COMPLEX_SYMMETRIC not in op.symmetry_flags:
            w = left_null_vector(op, z, nn, ctx)
            arrw = np.asarray([complex(t) for t in w])
            arrv = np.asarray([complex(t) for t in v])
            denom = abs(np.vdot(arrw, arrv))
            return float(np.linalg.norm(arrv) * np.linalg.norm(arrw) / denom)
        floor = 10.0 * ctx.unit_roundoff * float(nrm)
        if float(denom) < floor:
            raise ValueError(
                f"self-overlap below {floor:.2e}: ill-conditioned beyond "
                f"{ctx.describe()}; raise the precision")
        return float(nrm / denom)

    k1 = kappa_at(N)
    k2 = kappa_at(max(N + 20, (5 * N) // 4))
    consistency = abs(k1 - k2) / max(k1, k2)
    return ConditionResult(enclosure.index_n, k2, consistency, N)


@dataclass(frozen=True)
class EigenfunctionSamples:
    xs: np.ndarray
    values: np.ndarray
    underflow: np.ndarray


def evaluate_eigenfunction(coeffs, xs) -> EigenfunctionSamples:
    """Evaluate sum_m c_m u_m(x) with the stable normalized recurrence
    u_{m+1} = x sqrt(2/(m+1)) u_m - sqrt(m/(m+1)) u_{m-1}.

    Where exp(-x^2/2) underflows to zero in doubles the sample is an exact
    0 and the underflow flag is set.
    """
    c = np.asarray([complex(t) for t in coeffs])
    xs = np.asarray([float(x) for x in xs], dtype=float)
    K = len(c)
    out = np.zeros(len(xs), dtype=complex)
    under = np.zeros(len(xs), dtype=bool)
    for ix, x in enumerate(xs):
        g = math.exp(-x * x / 2.0) if -x * x / 2.0 > -745.0 else 0.0
        if g == 0.0:
            under[ix] = True
            continue
        u_prev = 0.0
        u_cur = math.pi ** -0.25 * g
        acc = c[0] * u_cur
        for m in range(K - 1):
            u_next = x * math.sqrt(2.0 / (m + 1)) * u_cur \
                - math.sqrt(m / (m + 1.0)) * u_prev
            u_prev, u_cur = u_cur, u_next
            acc += c[m + 1] * u_cur
        out[ix] = acc
    return EigenfunctionSamples(xs, out, under)
