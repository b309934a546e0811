"""Rigorous interval arithmetic with outward rounding.

Two backends share one containment contract (every result interval contains
the exact real result for any members of the inputs):

* :class:`Interval` — double endpoints, widened one ulp outward with
  ``math.nextafter`` after every machine operation.  No global rounding-mode
  switching, so it is portable and thread safe.
* a big-float backend built on ``mpmath.iv``, whose endpoints carry true
  directed rounding at a configurable number of decimal digits.

:class:`CIBox` is the complex rectangle over either backend.

A third form serves the hot loops of the big-float residual: fixed-point
intervals on Python integers (the ``_fx_`` functions at the end).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import mpmath
from mpmath import iv as _iv
from mpmath.libmp import from_float, from_int

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


class IntervalError(ValueError):
    """Invalid interval operation (NaN endpoint, division through zero)."""


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with outward-rounded arithmetic."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise IntervalError("NaN interval endpoint")
        if self.lo > self.hi:
            raise IntervalError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(float(x), float(x))

    @classmethod
    def from_any(cls, x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return cls.point(float(x))

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = Interval.from_any(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = Interval.from_any(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        return Interval.from_any(other) - self

    def __mul__(self, other) -> "Interval":
        o = Interval.from_any(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        p = [0.0 if math.isnan(v) else v for v in p]  # 0 * inf
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval.from_any(other)
        if o.lo <= 0.0 <= o.hi:
            raise IntervalError(f"division by interval containing zero: {o}")
        q = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(q)), _up(max(q)))

    def __rtruediv__(self, other) -> "Interval":
        return Interval.from_any(other) / self

    def sqrt(self) -> "Interval":
        if self.hi < 0.0:
            raise IntervalError(f"sqrt of negative interval {self}")
        lo = max(self.lo, 0.0)
        return Interval(max(0.0, _down(math.sqrt(lo))), _up(math.sqrt(self.hi)))

    def square(self) -> "Interval":
        if self.lo >= 0.0:
            return Interval(max(0.0, _down(self.lo * self.lo)), _up(self.hi * self.hi))
        if self.hi <= 0.0:
            return Interval(max(0.0, _down(self.hi * self.hi)), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def exp(self) -> "Interval":
        # math.exp is correctly rounded on all mainstream libms to < 1 ulp;
        # widen by two ulps to stay safe on any platform.
        lo = math.exp(self.lo) if self.lo > -_INF else 0.0
        hi = math.exp(self.hi)
        return Interval(max(0.0, _down(_down(lo))), _up(_up(hi)))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


@dataclass(frozen=True)
class CIBox:
    """Complex rectangle: independent real and imaginary intervals."""

    re: Interval
    im: Interval

    @classmethod
    def point(cls, z) -> "CIBox":
        z = complex(z)
        return cls(Interval.point(z.real), Interval.point(z.imag))

    @classmethod
    def from_any(cls, z) -> "CIBox":
        if isinstance(z, CIBox):
            return z
        if isinstance(z, Interval):
            return cls(z, Interval.point(0.0))
        return cls.point(z)

    def conj(self) -> "CIBox":
        return CIBox(self.re, -self.im)

    def __neg__(self) -> "CIBox":
        return CIBox(-self.re, -self.im)

    def __add__(self, other) -> "CIBox":
        o = CIBox.from_any(other)
        return CIBox(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "CIBox":
        o = CIBox.from_any(other)
        return CIBox(self.re - o.re, self.im - o.im)

    def __mul__(self, other) -> "CIBox":
        o = CIBox.from_any(other)
        return CIBox(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def contains(self, z: complex) -> bool:
        return self.re.contains(z.real) and self.im.contains(z.imag)


# ---------------------------------------------------------------------------
# Big-float interval backend (mpmath.iv with directed rounding)
# ---------------------------------------------------------------------------

def iv_lower(x) -> mpmath.mpf:
    """Lower endpoint of an mpmath interval, exact (no rounding)."""
    return mpmath.mp.make_mpf(x._mpi_[0])


def iv_upper(x) -> mpmath.mpf:
    """Upper endpoint of an mpmath interval, exact (no rounding)."""
    return mpmath.mp.make_mpf(x._mpi_[1])


class MPIntervalScope:
    """Context manager pinning mpmath.iv to a decimal-digit precision.

    mpmath's interval precision is process-global; scoping it keeps nested
    verifications at mixed precisions honest.  Not safe to enter from two
    threads at different precisions concurrently.
    """

    def __init__(self, digits: int):
        self.digits = int(digits)
        self._saved = None

    def __enter__(self):
        self._saved = _iv.dps
        _iv.dps = self.digits
        return _iv

    def __exit__(self, *exc):
        _iv.dps = self._saved
        return False


# ---------------------------------------------------------------------------
# Fixed-point intervals on Python integers
# ---------------------------------------------------------------------------
#
# A real interval is an int pair (lo, hi) that stands for [lo 2^-p, hi 2^-p].
# Sums, and products by an integer, are exact.  The only roundings are the
# enclosures of outside values (_fx_enclose) and the shifts to a coarser
# scale (_fx_round); each rounds the lower end down and the upper end up.
# For either sign, x >> k is floor(x / 2^k) and -((-x) >> k) its ceiling.
# The primitives run per entry and per row, so they are private: the span
# that bench/tracer.py wraps around every public function would cost more
# than the arithmetic and move the residual's time into child spans.

#: Bits of a fixed-point scale beyond the decimal digits it resolves.
GUARD_BITS = 32


def fixed_bits(digits: int) -> int:
    """p of the fixed-point scale 2^-p for ``digits`` decimal digits."""
    return math.ceil(digits * math.log2(10)) + GUARD_BITS


def _raw(x):
    """The exact mpmath raw form (sign, man, exp, bc) of an mpf, an int or a
    double; the mantissa is unsigned."""
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if isinstance(x, int):
        return from_int(x)
    if isinstance(x, float):
        return from_float(x)
    raise TypeError(f"no exact binary value for {type(x).__name__}")


def _scaled(raw, k: int, up: bool) -> int:
    """floor of the raw value times 2^k, or with ``up`` its ceiling."""
    sign, man, exp, _ = raw
    if not man and exp:
        raise IntervalError("infinite or NaN value")
    if sign:
        man = -man
    e = exp + k
    if e >= 0:
        return man << e
    return -((-man) >> -e) if up else man >> -e


def _fx_enclose(x, p: int) -> tuple:
    """(floor(a 2^p), ceil(b 2^p)) for the interval [a, b] of an
    ``mpmath.iv`` value, or for a = b = x a double, an int or an mpf."""
    a, b = x._mpi_ if hasattr(x, "_mpi_") else (_raw(x),) * 2
    return _scaled(a, p, False), _scaled(b, p, True)


def _fx_times(a, t: int) -> tuple:
    """The interval a times the integer t, exactly, at the product of their
    scales.  The two corner products suffice: t is a point."""
    lo, hi = a
    return (lo * t, hi * t) if t >= 0 else (hi * t, lo * t)


def _fx_ctimes(a, b, vr: int, vi: int) -> tuple:
    """(a + ib)(vr + i vi) for intervals a, b and integers vr, vi, exactly,
    as (re, im) intervals at the product of the scales."""
    ar, ai = _fx_times(a, vr), _fx_times(a, vi)
    br, bi = _fx_times(b, vr), _fx_times(b, vi)
    return (ar[0] - bi[1], ar[1] - bi[0]), (ai[0] + br[0], ai[1] + br[1])


def _fx_round(a, k: int) -> tuple:
    """The interval a times 2^-k, rounded outward to integers: k = p takes
    a product at scale 2^-2p back to 2^-p, and k = 1 halves."""
    lo, hi = a
    return lo >> k, -((-hi) >> k)


def _fx_square(a) -> tuple:
    """The exact square of the interval a, at the square of its scale; its
    lower end is 0 when a straddles 0."""
    lo, hi = a
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def _fx_vector(values, p: int) -> list:
    """A nonzero complex vector on the grid of scale 2^-p: (re, im) int
    pairs for the values times one power of two, rounded to nearest, with
    the largest component between 2^(p-1) and 2^p in modulus.

    Products with these exact components need no rounding.  A residual
    ratio ||(H - z) v|| / ||v|| bounds the inverse resolvent norm for any
    nonzero v, so verifying it for the rounded vector loses nothing.
    """
    raws = [(_raw(t.real), _raw(t.imag)) for t in values]
    top = max((exp + bc for pair in raws for _, man, exp, bc in pair if man),
              default=None)
    if top is None:
        raise ValueError("the vector is zero")
    # floor(2y) + 1, halved and floored, is y rounded to nearest
    return [tuple((_scaled(r, p - top + 1, False) + 1) >> 1 for r in pair)
            for pair in raws]


def _fx_ratio(num, den: int, tail=0.0):
    """sqrt(num / den) + [0, tail] as an ``mpmath.iv`` interval at its
    current precision, for an int interval num and an int den at one scale;
    the ints are rounded outward on conversion."""
    ratio = _iv.sqrt(_iv.mpf(num) / den)
    return ratio + _iv.mpf([0, tail]) if tail else ratio
