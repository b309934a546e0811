"""Rigorous residuals and certified eigenvalue enclosures.

The trust chain: a candidate pair (z, v) from the float stage is re-checked
from scratch by evaluating ||(H - z) v|| / ||v|| entirely in interval
arithmetic with enclosed operator entries.  v spans the first N columns
(-N..N over the integers), and a long-range operator adds its certified
tail of at most 2^-N.  For the operator classes handled
here the inverse resolvent norm equals the injection modulus, so this ratio
upper-bounds ||(H - z)^{-1}||^{-1} for *any* nonzero v; the inversion
formula of :mod:`specgate.ltp` then turns it into a radius around z that
provably contains a spectral point.  Certification fails closed: no finite
radius, no enclosure.

A double context evaluates the ratio in double intervals (one ulp outward
per operation).  A big-float context evaluates it in the fixed-point int
intervals of :mod:`specgate.intervals`, at scale 2^-p for p a little above
the context's digits: v is rounded to that grid (any nonzero v will do) and
z enclosed on it, so the products in a row are exact; each row is rounded
outward once and squared exactly.  ``mpmath.iv`` still runs in three
places, none of them per row: the entry enclosures, converted to ints once
per band build; the lattice's sines, once per (N, digits); and the final
sqrt(num / den) plus the tail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import mpmath
import numpy as np
from mpmath import iv as _iv
from mpmath import mp

from .intervals import (CIBox, Interval, MPIntervalScope, fixed_bits,
                        _fx_ctimes, _fx_enclose, _fx_ratio, _fx_round, _fx_square,
                        _fx_times, _fx_vector, iv_lower, iv_upper)
from .ltp import (GapMembershipError, LTPModel, dist_bound)
from .operators import INTEGERS, OperatorSpec, StructureError
from .precision import PrecisionContext
from .truncation import _band, _block_geometry, _rotate


class CertificationError(RuntimeError):
    """No enclosure could be produced (fails closed)."""


@dataclass(frozen=True)
class Bound:
    """A two-endpoint rigorous bound; endpoints are floats or mpmath floats."""

    lo: object
    hi: object


# ---------------------------------------------------------------------------
# verified residual
# ---------------------------------------------------------------------------

def _as_complex_list(v):
    if isinstance(v, np.ndarray):
        return [complex(t) for t in v]
    return list(v)


def _half_width(op, ncols: int) -> int:
    """N of the truncation whose first columns a vector of ncols entries
    spans: 0..N-1 over the naturals, -N..N over the integers."""
    if op.index_domain != INTEGERS:
        return ncols
    if ncols % 2 == 0:
        raise ValueError("integer-domain vectors must cover a symmetric "
                         f"block -N..N; got {ncols} entries")
    return (ncols - 1) // 2


def verified_residual(op: OperatorSpec, z, v, ctx: PrecisionContext) -> Bound:
    """Rigorous enclosure of ||(H - z) v|| / ||v||.

    The upper endpoint rigorously bounds the inverse resolvent norm at z.
    v spans the first N columns of the operator (over the integers the 2N+1
    columns -N..N), so its length fixes the truncation.  Every row of the
    truncation's block is evaluated in interval arithmetic: exactly the
    band of a banded spec; for a long-range spec, the padded block, with
    the certified tail bound (at most 2^-N) folded in additively.
    """
    if op.entry_box is None:
        raise StructureError(f"{op.id}: entries are not enclosable")
    vals = _as_complex_list(v)
    if not vals or all(t == 0 for t in vals):
        raise ValueError("v must be nonzero")

    if ctx.is_double:
        return _verified_residual_double(op, complex(z), vals, ctx)
    return _verified_residual_fixed(op, z, vals, ctx)


def _verified_residual_double(op, z, vals, ctx):
    """The residual in double intervals over the cached interval band, plus
    the tail term.

    At a real shift, an operator whose rotated band is real is evaluated in
    real intervals on the rotated parts a, b of v, v[m] = i^m (a[m] + i b[m]):
    the rotation is unitary, so ||(H - z) v||^2 = ||(R - z) a||^2 +
    ||(R - z) b||^2 and ||v||^2 = ||a||^2 + ||b||^2.  Everything else runs
    in complex boxes.
    """
    N = _half_width(op, len(vals))
    nrows, _, row0, col0, _, tail = _block_geometry(op, N)
    band = _band(op, N, ctx, box=True, rotated=True) if z.imag == 0 else None
    if band is not None:
        ab = [_rotate(t.real, t.imag, -(col0 + jc)) for jc, t in enumerate(vals)]
        parts = ([a for a, _ in ab], [b for _, b in ab])
        point, shift = Interval.point, Interval.point(z.real)

        def reals(x):
            return (x,)
    else:
        band = _band(op, N, ctx, box=True)
        parts = (vals,)
        point, shift = CIBox.point, CIBox.point(z)

        def reals(x):
            return x.re, x.im
    num2 = den2 = Interval.point(0.0)
    for part in parts:
        for row in _band_rows(band, col0 - row0, nrows, shift, part, point):
            for x in reals(row):
                num2 = num2 + x.square()
        for t in part:
            for x in reals(point(t)):
                den2 = den2 + x.square()
    ratio = (num2 / den2).sqrt()
    if tail:
        ratio = ratio + Interval(0.0, tail)
    return Bound(ratio.lo, ratio.hi)


def _band_rows(band, d, nrows, shift, part, point):
    """Interval rows of (A - shift) p for the band of A, in row order.

    The diagonal of column jc sits at array row jc + d.  Exact zeros of p
    contribute nothing and are skipped; rows nothing reaches are left out.
    """
    rows = [None] * nrows
    for jc, (t, col) in enumerate(zip(part, band)):
        if t == 0:
            continue
        pj = point(t)
        for ir, coeff in col:
            term = coeff * pj
            if ir == jc + d:
                term = term - shift * pj
            rows[ir] = term if rows[ir] is None else rows[ir] + term
    return [r for r in rows if r is not None]


def _verified_residual_fixed(op, z, vals, ctx):
    """The big-float residual in the fixed-point int intervals of
    :mod:`specgate.intervals`, at scale 2^-p with p = fixed_bits(digits).

    v is rounded to the grid (``_fx_vector``) and z enclosed on it, so every
    product in a row is exact at scale 2^-2p.  Each row is rounded outward
    once to 2^-p and squared exactly; ||v||^2 is exact.  The rows come from
    the operator's ``mp_residual_rows`` hint when it has one, else from the
    cached int band: real at a real shift when the rotated band is real (as
    in :func:`_verified_residual_double`), complex otherwise.  The one
    ``mpmath.iv`` step is the final sqrt(num / den) plus the tail.
    """
    p = fixed_bits(ctx.digits)
    N = _half_width(op, len(vals))
    nrows, _, row0, col0, _, tail = _block_geometry(op, N)
    d = col0 - row0
    V = _fx_vector(vals, p)
    zre, zim = _fx_enclose(z.real, p), _fx_enclose(z.imag, p)
    hint = op.hints.get("mp_residual_rows")
    band = None
    if hint is None and zim == (0, 0):
        band = _band(op, N, ctx, box=True, rotated=True)
    if hint is not None:
        rows = [x for row in hint((zre, zim), V, col0, d, p) for x in row]
    elif band is not None:
        ab = [_rotate(re, im, -(col0 + jc)) for jc, (re, im) in enumerate(V)]
        rows = [x for k in (0, 1) for x in
                _real_rows(band, d, nrows, zre, [t[k] for t in ab], p)]
    else:
        rows = _complex_rows(_band(op, N, ctx, box=True), d, nrows,
                             zre, zim, V, p)
    num_lo = num_hi = 0
    for x in rows:
        lo, hi = _fx_square(x)
        num_lo += lo
        num_hi += hi
    den = sum(re * re + im * im for re, im in V)
    with MPIntervalScope(ctx.digits):
        ratio = _fx_ratio((num_lo, num_hi), den, tail)
        return Bound(iv_lower(ratio), iv_upper(ratio))


def _real_rows(band, d, nrows, z, part, p):
    """Rows of (A - z) part at scale 2^-p, for a real band A of int
    intervals, a real shift interval z and exact ints part; the diagonal of
    column jc sits at array row jc + d."""
    lo, hi = [0] * nrows, [0] * nrows
    for jc, (t, col) in enumerate(zip(part, band)):
        if not t:
            continue
        for ir, a in col:
            if ir == jc + d:
                a = (a[0] - z[1], a[1] - z[0])
            x, y = _fx_times(a, t)
            lo[ir] += x
            hi[ir] += y
    return [_fx_round(r, p) for r in zip(lo, hi)]


def _complex_rows(band, d, nrows, zre, zim, V, p):
    """Real and imaginary parts of the rows of (A - z) v at scale 2^-p, as
    one flat list, for a complex band A of int intervals; as
    :func:`_real_rows` otherwise."""
    acc = [[0, 0, 0, 0] for _ in range(nrows)]
    for jc, ((vr, vi), col) in enumerate(zip(V, band)):
        if not (vr or vi):
            continue
        for ir, (al, ah, bl, bh) in col:
            if ir == jc + d:
                al, ah = al - zre[1], ah - zre[0]
                bl, bh = bl - zim[1], bh - zim[0]
            (rl, rh), (il, ih) = _fx_ctimes((al, ah), (bl, bh), vr, vi)
            row = acc[ir]
            row[0] += rl
            row[1] += rh
            row[2] += il
            row[3] += ih
    return [_fx_round(part, p) for row in acc for part in (row[:2], row[2:])]


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Enclosure:
    """Certified eigenvalue enclosure: some spectral point lies within
    ``radius`` of ``center``, conditional on the listed hypotheses.

    ``vector`` is the candidate whose residual was verified; its length
    fixes the truncation size N.  It is left out of the JSON form and of
    comparisons.
    """

    op_id: str
    index_n: int
    center: object
    radius: object
    residual_upper: object
    gap_index_m: int
    precision_digits: int
    conditional_on: tuple = field(default=())
    vector: object = field(default=None, compare=False, repr=False)

    @property
    def is_complex(self) -> bool:
        return isinstance(self.center, (complex, mpmath.mpc))

    def _distance_to(self, value):
        complex_query = self.is_complex or isinstance(value, (complex, mpmath.mpc))
        if complex_query:
            return abs(mpmath.mpc(value) - mpmath.mpc(self.center))
        return abs(mpmath.mpf(value) - mpmath.mpf(self.center))

    def contains(self, value) -> bool:
        """Whether a (real or complex) point lies in the enclosure."""
        with mp.workdps(max(40, self.precision_digits + 10)):
            return self._distance_to(value) <= mpmath.mpf(self.radius)

    def intersects(self, value, slack) -> bool:
        """Whether the enclosure meets a disk of radius ``slack`` at value
        (containment up to the decimal rounding of a printed reference)."""
        with mp.workdps(max(40, self.precision_digits + 10)):
            return self._distance_to(value) <= \
                mpmath.mpf(self.radius) + mpmath.mpf(slack)

    def _sig_digits(self) -> int:
        # printed digits follow the certified radius: ceil(-log10 r) + 2
        r = float(self.radius)
        if r <= 0:
            return self.precision_digits
        return max(3, int(math.ceil(-math.log10(r))) + 2)

    def _format_real(self, x) -> str:
        sig = self._sig_digits()
        with mp.workdps(max(40, self.precision_digits + 10, sig + 10)):
            return mpmath.nstr(mpmath.mpf(x), sig, strip_zeros=False)

    def to_json(self) -> dict:
        if self.is_complex:
            center = {"re": self._format_real(mpmath.mpc(self.center).real),
                      "im": self._format_real(mpmath.mpc(self.center).imag)}
        else:
            center = self._format_real(self.center)
        with mp.workdps(20):
            radius = mpmath.nstr(mpmath.mpf(self.radius), 4)
            resid = mpmath.nstr(mpmath.mpf(self.residual_upper), 4)
        return {
            "op": self.op_id,
            "n": self.index_n,
            "center": center,
            "radius": radius,
            "residual_upper": resid,
            "gap_index_m": self.gap_index_m,
            "precision_digits": self.precision_digits,
            "conditional_on": list(self.conditional_on),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Enclosure":
        digits = int(data["precision_digits"])
        with mp.workdps(max(40, digits + 10)):
            raw = data["center"]
            if isinstance(raw, dict):
                center = mpmath.mpc(mpmath.mpf(raw["re"]), mpmath.mpf(raw["im"]))
            else:
                center = mpmath.mpf(raw)
            return cls(
                op_id=data["op"],
                index_n=int(data["n"]),
                center=center,
                radius=mpmath.mpf(data["radius"]),
                residual_upper=mpmath.mpf(data["residual_upper"]),
                gap_index_m=int(data["gap_index_m"]),
                precision_digits=digits,
                conditional_on=tuple(data.get("conditional_on", ())),
            )


def certify_eigenvalue(op: OperatorSpec, model: LTPModel, candidate_z,
                       candidate_v, m: int, ctx: PrecisionContext,
                       index_n: Optional[int] = None,
                       residual: Optional[Bound] = None) -> Enclosure:
    """Certify a candidate pair into an enclosure via the inversion formula.

    ``m`` is the strip index the caller has established (the bootstrap uses
    n + 1 so the bound stays valid on either side of the target eigenvalue).
    ``residual`` is the :func:`verified_residual` bound of this same pair
    at ctx, when the caller has computed it already; otherwise it is
    computed here.  Fails closed: an infinite distance bound raises instead
    of producing an enclosure.
    """
    if index_n is None:
        index_n = m - 1
    if model.lambda_asymptotic is not None and not _plausible_strip(
            model, candidate_z, m):
        raise GapMembershipError(
            f"candidate {candidate_z} is not plausibly in strip {m}; "
            "bootstrap ordering required")
    if residual is None:
        residual = verified_residual(op, candidate_z, candidate_v, ctx)
    eps = residual.hi
    radius = dist_bound(eps, m, model, ctx)
    if math.isinf(float(radius)):
        raise CertificationError(
            f"residual {float(eps):.3e} too large for a finite enclosure "
            f"at strip {m}")
    digits = 16 if ctx.is_double else ctx.digits
    if not ctx.is_double:
        with mp.workdps(ctx.digits + 10):
            center = +mpmath.mpc(candidate_z) if _is_complexlike(candidate_z) \
                else +mpmath.mpf(candidate_z)
    else:
        center = complex(candidate_z) if _is_complexlike(candidate_z) \
            else float(candidate_z)
    return Enclosure(
        op_id=op.id,
        index_n=index_n,
        center=center,
        radius=radius,
        residual_upper=eps,
        gap_index_m=m,
        precision_digits=digits,
        conditional_on=tuple(model.hypotheses),
        vector=candidate_v,
    )


def _is_complexlike(z) -> bool:
    if isinstance(z, (complex, mpmath.mpc)):
        return bool(z.imag != 0)
    return False


def _plausible_strip(model, z, m: int) -> bool:
    """Loose seat check that z can lie in strip m (strict membership is the
    bootstrap's job; this only rejects grossly mismatched candidates)."""
    lam = model.lambda_asymptotic
    re_z = float(z.real) if hasattr(z, "real") else float(z)
    if re_z <= 0:
        return False
    slack = 2.0 * model.gap_floor + 2.0
    lo = 0.0 if m <= 1 else lam(m - 1) - slack
    hi = lam(m) + slack
    return lo <= re_z <= hi


def eigenvector_error_bound(enclosure: Enclosure, residual_upper,
                            neighbor_data, model: Optional[LTPModel] = None):
    """Upper bound on the sine of the angle to the true eigenspace.

    For the enclosure (center c_n, radius r_n, index n) and residual upper
    bound eps, the returned value is the upper endpoint of

        (c(n+1) + sum_k kappa(k) / d_k) * (eps + r_n * kappa(n)),

    evaluated in ``mpmath.iv``.  c and kappa are the model's ``c_iv`` and
    ``kappa_iv``; k runs over the supplied neighbors n-1 and n+1 (n+1 is
    required), and d_k = |c_k - c_n| - r_k - r_n is their certified separation, which
    must be positive.
    """
    from .ltp import model_for_operator
    if model is None:
        model = model_for_operator(enclosure.op_id)
    prev_enc, next_enc = neighbor_data
    n = enclosure.index_n
    if next_enc is None:
        raise ValueError("eigenvector bounds need the next certified neighbor")
    with MPIntervalScope(max(30, enclosure.precision_digits + 5)):
        total = model.c_iv(n + 1)
        c_n = _iv.mpf(enclosure.center)
        r_n = _iv.mpf(enclosure.radius)
        for idx, enc in ((n - 1, prev_enc), (n + 1, next_enc)):
            if enc is None:
                continue
            d = abs(_iv.mpf(enc.center) - c_n) - _iv.mpf(enc.radius) - r_n
            if not iv_lower(d) > 0:
                raise ValueError(
                    "complement bound nonpositive: neighboring enclosures "
                    "overlap the certified one")
            total = total + model.kappa_iv(idx) / d
        amp = _iv.mpf(residual_upper) + r_n * model.kappa_iv(n)
        out = total * amp
        return iv_upper(out)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def enclosures_to_report(enclosures: Sequence[Enclosure], operator: str,
                         precision: str, timestamp: Optional[str] = None) -> dict:
    report = {
        "operator": operator,
        "precision": precision,
        "enclosures": [e.to_json() for e in enclosures],
    }
    if timestamp is not None:
        report["generated_at"] = timestamp
    return report


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
