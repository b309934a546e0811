"""Rigorous interval arithmetic with outward rounding.

Two backends share one containment contract (every result interval contains
the exact real result for any members of the inputs):

* :class:`Interval` — double endpoints, widened one ulp outward with
  ``math.nextafter`` after every machine operation.  No global rounding-mode
  switching, so it is portable and thread safe.
* a big-float backend built on ``mpmath.iv``, whose endpoints carry true
  directed rounding at a configurable number of decimal digits.

:class:`CIBox` is the complex rectangle over either backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import mpmath
from mpmath import iv as _iv

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


@dataclass(frozen=True)
class MPBox:
    """Complex rectangle over mpmath intervals (big-float analog of CIBox)."""

    re: object
    im: object

    @classmethod
    def point(cls, z) -> "MPBox":
        if isinstance(z, mpmath.mpc):
            return cls(_iv.mpf(z.real), _iv.mpf(z.imag))
        if isinstance(z, complex):
            return cls(_iv.mpf(z.real), _iv.mpf(z.imag))
        return cls(_iv.mpf(z), _iv.mpf(0))

    def conj(self) -> "MPBox":
        return MPBox(self.re, -self.im)

    def __add__(self, other) -> "MPBox":
        return MPBox(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "MPBox":
        return MPBox(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "MPBox":
        return MPBox(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)
