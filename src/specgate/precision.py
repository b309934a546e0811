"""Precision contexts: machine doubles or arbitrary-precision big floats.

A single :class:`PrecisionContext` is threaded through every numerical
routine so that one call tree runs at one precision.  Big-float arithmetic
is backed by mpmath; helpers here keep the global mpmath state scoped.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from mpmath import mp
from mpmath.libmp import mpf_neg

DOUBLE_KIND = "double"
BIGFLOAT_KIND = "bigfloat"

#: Decimal digits carried by an IEEE double, used when a big-float routine
#: needs "at least double" working precision.
DOUBLE_DIGITS = 16


@dataclass(frozen=True)
class PrecisionContext:
    """Numeric context: either machine doubles or decimal-digit big floats."""

    kind: str = DOUBLE_KIND
    digits: int = DOUBLE_DIGITS

    def __post_init__(self):
        if self.kind not in (DOUBLE_KIND, BIGFLOAT_KIND):
            raise ValueError(f"unknown precision kind {self.kind!r}")
        if self.kind == BIGFLOAT_KIND and self.digits < 16:
            raise ValueError("bigfloat contexts need at least 16 digits")

    @property
    def is_double(self) -> bool:
        return self.kind == DOUBLE_KIND

    @property
    def unit_roundoff(self) -> float:
        if self.is_double:
            return 2.0 ** -53
        return 10.0 ** (-self.digits)

    @contextmanager
    def workprec(self):
        """Scope mpmath's working precision to this context."""
        dps = DOUBLE_DIGITS if self.is_double else self.digits
        with mp.workdps(dps):
            yield

    def describe(self) -> str:
        return "double" if self.is_double else f"bigfloat:{self.digits}"


DOUBLE = PrecisionContext(DOUBLE_KIND, DOUBLE_DIGITS)


def bigfloat(digits: int) -> PrecisionContext:
    return PrecisionContext(BIGFLOAT_KIND, digits)


def parse_precision(text: str) -> PrecisionContext:
    """Parse ``"double"`` or ``"bigfloat:<digits>"``."""
    text = text.strip().lower()
    if text == "double":
        return DOUBLE
    if text.startswith("bigfloat:"):
        return bigfloat(int(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse precision {text!r}")


def guard_digits(n: int, extra: int = 10) -> int:
    """Working decimal digits needed to resolve the n-th eigenvalue.

    Roundoff is amplified by the eigenvalue condition number, which grows
    like exp(n*pi/sqrt(3)); the rule adds that loss on top of double
    precision plus a safety margin.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    return DOUBLE_DIGITS + math.ceil(n * math.pi / (math.sqrt(3.0) * math.log(10.0))) + extra


def exact_conj(x):
    """Complex conjugate with no rounding: an mpc's raw imaginary part is
    negated, where ``mpmath.conj`` rounds to the process-global precision."""
    if isinstance(x, mp.mpc):
        return mp.make_mpc((x._mpc_[0], mpf_neg(x._mpc_[1])))
    return x.conjugate()
