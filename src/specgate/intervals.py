"""Rigorous interval arithmetic with outward rounding.

Two backends share one containment contract (every result interval contains
the exact real result for any members of the inputs):

* fixed-point intervals on Python integers (the ``_fx_`` functions below),
  which carry every band and the hot loops of the verified residual.  Their
  entry arithmetic (:func:`_fx_lib`) encloses the operator entries straight
  onto the grid the residual reads.
* a big-float backend built on ``mpmath.iv``, whose endpoints carry true
  directed rounding at a configurable number of decimal digits; it encloses
  the transcendental entries and the residual's final square root.

:class:`CIBox` is the (re, im) pair of an enclosed complex entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import mpmath
from mpmath import iv as _iv
from mpmath.libmp import from_float, from_int, from_man_exp, round_nearest


class IntervalError(ValueError):
    """Invalid interval operation (NaN endpoint, division through zero)."""


@dataclass(frozen=True)
class CIBox:
    """Complex rectangle: independent real and imaginary intervals of one
    interval arithmetic."""

    re: object
    im: object

    def conj(self) -> "CIBox":
        return CIBox(self.re, -self.im)

    def __neg__(self) -> "CIBox":
        return CIBox(-self.re, -self.im)

    def __add__(self, o: "CIBox") -> "CIBox":
        return CIBox(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "CIBox") -> "CIBox":
        return CIBox(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "CIBox") -> "CIBox":
        return CIBox(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)


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


def _fx_mpf(t: int, k: int, prec: int = 0):
    """t 2^-k as an mpf: exact, or with ``prec`` rounded to nearest at that
    many bits."""
    return mpmath.mp.make_mpf(from_man_exp(t, -k, prec or None, round_nearest))


def _fx_mpc(re: int, im: int, k: int):
    """(re + i im) 2^-k as an mpc, exactly."""
    return mpmath.mp.make_mpc((from_man_exp(re, -k), from_man_exp(im, -k)))


# ---------------------------------------------------------------------------
# Fixed-point entry arithmetic
# ---------------------------------------------------------------------------
#
# The ``lib`` of ``OperatorSpec.entry_box`` for every band: the entry
# rules run on int pairs (lo, hi) at scale 2^-p, so a band is enclosed on
# the grid the residual reads, at its full resolution.  num is exact up to
# its one enclosure (_fx_enclose); sums and differences are exact; a product
# or a quotient rounds outward once.  sqrt is the floor of sqrt(lo 2^p) and
# the ceiling of sqrt(hi 2^p), by math.isqrt.  sin, cos, exp and pi run in
# mpmath.iv at no fewer than p bits, then are enclosed on the grid.

class _FxInterval(tuple):
    """[lo 2^-p, hi 2^-p] as the int pair (lo, hi), with the operators of
    the entry rules.  Each scale has its own subclass (:func:`_fx_lib`),
    whose class methods num, sqrt, sin, cos, exp and pi make it the lib."""

    __slots__ = ()
    p = 0

    @classmethod
    def _of(cls, lo: int, hi: int):
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def num(cls, x):
        """x enclosed on the grid: an int, a double, an mpf or an
        ``mpmath.iv`` interval."""
        if type(x) is int:
            return cls._of(x << cls.p, x << cls.p)
        return cls._of(*_fx_enclose(x, cls.p))

    def _operand(self, o):
        return o if type(o) is type(self) else self.num(o)

    def __neg__(self):
        return self._of(-self[1], -self[0])

    def __add__(self, o):
        o = self._operand(o)
        return self._of(self[0] + o[0], self[1] + o[1])

    __radd__ = __add__

    def __sub__(self, o):
        o = self._operand(o)
        return self._of(self[0] - o[1], self[1] - o[0])

    def __mul__(self, o):
        if type(o) is int:
            return self._of(*_fx_times(self, o))
        a, b = self
        c, d = self._operand(o)
        corners = (a * c, a * d, b * c, b * d)
        return self._of(*_fx_round((min(corners), max(corners)), self.p))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is int and o > 0:
            return self._of(self[0] // o, -((-self[1]) // o))
        c, d = self._operand(o)
        if c <= 0 <= d:
            raise IntervalError(f"division by an interval containing zero: "
                                f"[{c}, {d}] 2^-{self.p}")
        tops = [t << self.p for t in self]
        return self._of(min(t // q for t in tops for q in (c, d)),
                        max(-((-t) // q) for t in tops for q in (c, d)))

    @classmethod
    def sqrt(cls, x):
        lo, hi = x
        if hi < 0:
            raise IntervalError(f"sqrt of the negative interval [{lo}, {hi}]")
        top = hi << cls.p
        return cls._of(math.isqrt(max(lo, 0) << cls.p),
                       math.isqrt(top - 1) + 1 if top else 0)

    @classmethod
    def _iv(cls, f, *args):
        """f of the arguments in ``mpmath.iv`` at no fewer than p bits,
        enclosed on the grid."""
        with MPIntervalScope(math.ceil(cls.p / math.log2(10))):
            return cls.num(f(*(_iv.mpf([_fx_mpf(t, cls.p) for t in x])
                               for x in args)))

    @classmethod
    def sin(cls, x):
        return cls._iv(_iv.sin, x)

    @classmethod
    def cos(cls, x):
        return cls._iv(_iv.cos, x)

    @classmethod
    def exp(cls, x):
        return cls._iv(_iv.exp, x)

    @classmethod
    def pi(cls):
        return cls._iv(lambda: _iv.pi)


@functools.lru_cache(maxsize=32)
def _fx_lib(p: int):
    """The entry arithmetic at scale 2^-p: the :class:`_FxInterval`
    subclass of that scale."""
    return type(f"_FxInterval{p}", (_FxInterval,), {"__slots__": (), "p": p})
