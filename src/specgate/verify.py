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

Every context evaluates the ratio in the fixed-point int intervals of
:mod:`specgate.intervals`, at scale 2^-p for p a little above the context's
digits, ``DOUBLE_DIGITS`` at a double context: v is rounded to that grid
(any nonzero v will do) and z enclosed on it, so the products in a row are
exact; each row is rounded outward once and squared exactly, and the
endpoints of the result are mpmath floats.  The band's entries are enclosed on
that same grid (``intervals._fx_lib``), by integer floors and ceilings.
``mpmath.iv`` still runs in three places, none of them per row: the
transcendental entries (sin, cos, exp, pi) at no fewer than p bits, once
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

from .intervals import (MPIntervalScope, fixed_bits, _fx_ctimes, _fx_enclose,
                        _fx_ratio, _fx_round, _fx_square, _fx_vector,
                        _raw, iv_lower, iv_upper)
from .ltp import GapMembershipError, LTPModel, dist_bound, model_for_operator
from .operators import INTEGERS, OperatorSpec, StructureError
from .precision import DOUBLE_DIGITS, PrecisionContext, bigfloat
from .truncation import _band, _block_geometry, _rotate


class CertificationError(RuntimeError):
    """No enclosure could be produced (fails closed)."""


@dataclass(frozen=True)
class Bound:
    """A two-endpoint rigorous bound; the endpoints are mpmath floats."""

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
    truncation's block is evaluated on the grid of ``fixed_bits(digits)``
    (see the module notes): exactly the band of a banded spec; for a
    long-range spec, the padded block, with the certified tail bound (at
    most 2^-N) folded in additively.

    The rows come from :func:`_residual_rows`, which Gauss-Newton reads
    too.
    """
    if op.entry_box is None:
        raise StructureError(f"{op.id}: entries are not enclosable")
    vals = _as_complex_list(v)
    if not vals or all(t == 0 for t in vals):
        raise ValueError("v must be nonzero")
    if ctx.is_double:
        ctx = bigfloat(DOUBLE_DIGITS)
    p = fixed_bits(ctx.digits)
    N = _half_width(op, len(vals))
    tail = _block_geometry(op, N)[5]
    V = _fx_vector(vals, p)
    z = (_fx_enclose(z.real, p), _fx_enclose(z.imag, p))
    num_lo = num_hi = 0
    for row in _residual_rows(op, N, ctx, z, V):
        for x in row:
            lo, hi = _fx_square(x)
            num_lo += lo
            num_hi += hi
    den = sum(re * re + im * im for re, im in V)
    with MPIntervalScope(ctx.digits):
        ratio = _fx_ratio((num_lo, num_hi), den, tail)
        return Bound(iv_lower(ratio), iv_upper(ratio))


def _residual_rows(op: OperatorSpec, N: int, ctx: PrecisionContext, z, V):
    """The rows of (H - z) v over the rectangular truncation at size N, each
    a tuple of its parts, int intervals at scale 2^-p,
    p = ``fixed_bits(ctx.digits)``; ||(H - z) v||^2 is the sum of their
    squares.

    z is a pair of int intervals (re, im) and V a list of exact (re, im)
    ints, both at that scale, v in the operator's basis.  The rows come
    from the operator's ``mp_residual_rows`` hint when it has one, else
    from the cached box band (:func:`~specgate.truncation._band` at the
    big-float ctx): as (re, im) of each row, except at a real shift on an
    operator whose rotated band is real.  That band is evaluated in real
    intervals on the rotated parts a, b of v, v[m] = i^m (a[m] + i b[m]),
    and each row is the pair of its rows of (R - z) a and (R - z) b, or
    the 1-tuple of the first where b = 0: the rotation is unitary, so
    ||(H - z) v||^2 = ||(R - z) a||^2 + ||(R - z) b||^2, and the pair is
    row r of W^-1 (H - z) v, W = diag(i^m).  Everything else runs in
    complex intervals.
    """
    p = fixed_bits(ctx.digits)
    nrows, _, row0, col0, _, _ = _block_geometry(op, N)
    d = col0 - row0
    zre, zim = z
    hint = op.hints.get("mp_residual_rows")
    if hint is not None:
        return hint(z, V, col0, d, p)
    band = _band(op, N, ctx, rotated=True) if zim == (0, 0) else None
    if band is None:
        return _complex_rows(_band(op, N, ctx), d, nrows, zre, zim, V, p)
    ab = [_rotate(re, im, -(col0 + jc)) for jc, (re, im) in enumerate(V)]
    parts = [[t[k] for t in ab] for k in (0, 1)]
    if not any(parts[1]):
        del parts[1]  # a real vector: each row is the 1-tuple of its a row
    return list(zip(*(_real_rows(band, d, nrows, zre, part, p)
                      for part in parts)))


def _real_rows(band, d, nrows, z, part, p):
    """Rows of (A - z) part at scale 2^-p, for a real band A of int
    intervals, a real shift interval z and exact ints part; the diagonal of
    column jc sits at array row jc + d."""
    # intervals._fx_times inlined: the hot loop of the residual and of
    # Gauss-Newton's rows
    lo, hi = [0] * nrows, [0] * nrows
    for jc, (t, col) in enumerate(zip(part, band)):
        if not t:
            continue
        for ir, (x, y) in col:
            if ir == jc + d:
                x, y = x - z[1], y - z[0]
            if t < 0:
                x, y = y, x
            lo[ir] += x * t
            hi[ir] += y * t
    return [_fx_round(r, p) for r in zip(lo, hi)]


def _complex_rows(band, d, nrows, zre, zim, V, p):
    """(re, im) of the rows of (A - z) v at scale 2^-p, for a complex band
    A of int intervals; as :func:`_real_rows` otherwise."""
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
    return [(_fx_round(row[:2], p), _fx_round(row[2:], p)) for row in acc]


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
        # from the center's leading digit (its larger part's) down to two
        # places below the radius's: the print error then stays within 1%
        # of the radius, which to_json adds to the printed one
        r = float(self.radius)
        if r <= 0:
            return self.precision_digits
        low = math.floor(math.log10(r))
        top = max(abs(float(x)) for x in self._parts())
        lead = math.floor(math.log10(top)) if top > 0 else low
        return max(3, lead - low + 3)

    def _parts(self) -> tuple:
        # exact parts: mpmath.mpc() rounds to the global precision
        return (self.center.real, self.center.imag) if self.is_complex \
            else (self.center,)

    def _format_real(self, x) -> str:
        sig = self._sig_digits()
        with mp.workdps(max(40, self.precision_digits + 10, sig + 10)):
            return mpmath.nstr(mpmath.mpf(x), sig, strip_zeros=False)

    def to_json(self) -> dict:
        parts = self._parts()
        printed = [self._format_real(x) for x in parts]
        center = dict(zip(("re", "im"), printed)) if self.is_complex \
            else printed[0]
        # the printed disk holds the certified one: the radius grows by the
        # printed center's error (|d re| + |d im| >= |d|), rounded up
        num, den = _exact(self.radius)
        for t, x in zip(printed, parts):
            (a, b), (c, d) = _exact(t), _exact(x)
            num, den = num * b * d + abs(a * d - c * b) * den, den * b * d
        radius = _decimal_up(num, den)
        with mp.workdps(20):
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


def _exact(x) -> tuple:
    """(num, den), den > 0, of the exact value of an int, a double, an mpf
    or a decimal string as mpmath prints it."""
    if isinstance(x, str):
        mant, _, exp10 = x.partition("e")
        whole, _, frac = mant.partition(".")
        num, e = int(whole + frac), int(exp10 or 0) - len(frac)
        return (num * 10 ** e, 1) if e >= 0 else (num, 10 ** -e)
    sign, man, exp, _ = _raw(x)
    num = -man if sign else man
    return (num << exp, 1) if exp >= 0 else (num, 1 << -exp)


def _decimal_up(num: int, den: int, digits: int = 4) -> str:
    """The least decimal of ``digits`` significant digits that is at least
    num / den >= 0, in mpmath's print form ("0.0" for 0)."""
    if num == 0:
        return "0.0"
    # num / (den 10^k) lies in [10^(digits-1), 10^(digits+1)); q is its
    # ceiling, and ceil(ceil(x) / 10) = ceil(x / 10) drops a digit
    k = len(str(num)) - len(str(den)) - digits
    q = -(-num * 10 ** -k // den) if k < 0 else -(-num // (den * 10 ** k))
    while q >= 10 ** digits:
        q, k = -(-q // 10), k + 1
    with mp.workdps(20):
        return mpmath.nstr(mpmath.mpf(f"{q}e{k}"), digits)


def certify_eigenvalue(op: OperatorSpec, model: LTPModel, candidate_z,
                       candidate_v, m: int, ctx: PrecisionContext,
                       index_n: Optional[int] = None,
                       residual: Optional[Bound] = None) -> Enclosure:
    """Certify a candidate pair into an enclosure via the inversion formula.

    ``m`` is the strip index the caller has established (the bootstrap uses
    n + 1 so the bound stays valid on either side of the target eigenvalue).
    ``residual`` is the :func:`verified_residual` bound of this same pair
    at ctx, when the caller has computed it already; otherwise it is
    computed here, at the :func:`enclosure_center` of candidate_z.  Fails
    closed: an infinite distance bound raises instead of producing an
    enclosure, and so does a given residual whose z is not already its own
    :func:`enclosure_center`.
    """
    if index_n is None:
        index_n = m - 1
    if model.lambda_asymptotic is not None and not _plausible_strip(
            model, candidate_z, m):
        raise GapMembershipError(
            f"candidate {candidate_z} is not plausibly in strip {m}; "
            "bootstrap ordering required")
    center = enclosure_center(candidate_z, ctx)
    if residual is None:
        residual = verified_residual(op, center, candidate_v, ctx)
    elif center != candidate_z:
        raise CertificationError(
            f"the residual was verified at {candidate_z}, but the center "
            f"rounds to {center}")
    eps = residual.hi
    radius = dist_bound(eps, m, model, ctx)
    if math.isinf(float(radius)):
        raise CertificationError(
            f"residual {float(eps):.3e} too large for a finite enclosure "
            f"at strip {m}")
    digits = 16 if ctx.is_double else ctx.digits
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


def enclosure_center(z, ctx: PrecisionContext):
    """The center that :func:`certify_eigenvalue` reports for a candidate z
    at ctx: z in doubles, else z rounded to ctx.digits + 10 digits.  A
    caller that verifies the residual itself rounds z by this first, so
    that the z it verifies is the center."""
    if ctx.is_double:
        return complex(z) if _is_complexlike(z) else float(z)
    with mp.workdps(ctx.digits + 10):
        return +mpmath.mpc(z) if _is_complexlike(z) else +mpmath.mpf(z)


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
