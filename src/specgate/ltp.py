"""Resolvent-to-spectrum inversion constants and bound formulas.

An :class:`LTPModel` packages, per operator, everything the certification
pipeline needs to turn a rigorous residual into a rigorous eigenvalue
enclosure: a growth bound for spectral-projection norms (kappa_bound), the
strip constant c_m absorbing far poles and the semigroup part, an eigenvalue
asymptotic for bracket seeding, and the minimal spacing between consecutive
eigenvalues.

For the cubic oscillator the concrete formulas are::

    kappa_bound(n) = exp(n pi / sqrt 3)
    c_m   = exp((m+1) pi/sqrt 3 + [2 G(11/6) sqrt(pi/3) / G(4/3) (m+1)]^{6/5}) / 14
    lam(n) ~ [2 G(11/6) (n - 1/2) sqrt(pi) / (sqrt 3 G(4/3))]^{6/5}

and the inversion reads: for a strip index m with lam_{m-1} < Re z < lam_m
and a rigorous upper bound g for the inverse resolvent norm,

    dist(z, Sp) <= 2 kappa_bound(m) g / (1 - c_m g)      (if c_m g < 1).

All bound evaluations are carried out in directed-rounding interval
arithmetic and reported by their upper endpoint, so recomputing a bound at
higher precision can only tighten it.  Values that overflow doubles are
returned as mpmath floats; a bound that is not finite is returned as inf.

Certification is conditional on the projection-norm growth hypothesis; the
pipeline tags every enclosure with "kappa-bound" to record this.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath
from mpmath import iv as _iv
from mpmath import mp

from .intervals import MPIntervalScope, iv_lower, iv_upper
from .precision import DOUBLE, PrecisionContext

#: Minimal spacing of consecutive cubic-oscillator eigenvalues used in the
#: strip constants; also the default scan granularity unit.
GAP_FLOOR_CUBIC = math.pi / math.sqrt(3.0) + 1.0

KAPPA_HYPOTHESIS_TAG = "kappa-bound"


class GapMembershipError(ValueError):
    """A shift is not certifiably inside the spectral gap it claims."""


def _upper_out(x_iv, ctx: Optional[PrecisionContext]):
    """Upper endpoint of an iv quantity as float (nextafter-up) or mpf."""
    hi = iv_upper(x_iv)
    if ctx is None or ctx.is_double:
        f = float(hi)
        if math.isinf(f):
            return hi
        if mpmath.mpf(f) < hi:
            f = math.nextafter(f, math.inf)
        return f
    return hi


def _scope_digits(ctx: Optional[PrecisionContext]) -> int:
    if ctx is None or ctx.is_double:
        return 25
    return max(25, ctx.digits + 5)


def lambda_asymptotic(n: int, ctx: PrecisionContext = DOUBLE):
    """Leading-order n-th eigenvalue of the cubic oscillator.

    The remainder is O(n^{-4/5}) with an unquantified constant, so this is
    bracket-seeding material only, never part of a certificate.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    with mp.workdps(max(30, 0 if ctx.is_double else ctx.digits + 5)):
        num = 2 * mpmath.gamma(mpmath.mpf(11) / 6) * (mpmath.mpf(n) - mpmath.mpf(1) / 2) \
            * mpmath.sqrt(mpmath.pi)
        den = mpmath.sqrt(mpmath.mpf(3)) * mpmath.gamma(mpmath.mpf(4) / 3)
        val = (num / den) ** (mpmath.mpf(6) / 5)
        return float(val) if ctx.is_double else +val


def _kappa_iv(n: int):
    """exp(n pi / sqrt 3) as an interval (current iv precision)."""
    return _iv.exp(_iv.mpf(n) * _iv.pi / _iv.sqrt(_iv.mpf(3)))


def kappa_bound(n: int, ctx: PrecisionContext = DOUBLE):
    """Upper bound exp(n pi / sqrt 3) for the n-th projection norm.

    Upward rounded; promoted to a big float automatically when the double
    range overflows (n around 390 and beyond).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    with MPIntervalScope(_scope_digits(ctx)):
        return _upper_out(_kappa_iv(n), ctx)


def _c_iv(m: int):
    """Strip constant c_m as an interval (current iv precision)."""
    one = _iv.mpf(1)
    pi = _iv.pi
    s3 = _iv.sqrt(_iv.mpf(3))
    g116 = _iv.gamma(_iv.mpf(11) / 6)
    g43 = _iv.gamma(_iv.mpf(4) / 3)
    inner = 2 * g116 * _iv.sqrt(pi / 3) / g43 * _iv.mpf(m + 1)
    # inner^{6/5} via exp((6/5) log inner); inner > 1 for m >= 1
    power = _iv.exp(_iv.mpf(6) / 5 * _iv.log(inner))
    return _iv.exp(_iv.mpf(m + 1) * pi / s3 + power) / 14


def c_of_m(m: int, ctx: PrecisionContext = DOUBLE):
    """Strip constant c_m, upward rounded (big float on overflow)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    with MPIntervalScope(_scope_digits(ctx)):
        return _upper_out(_c_iv(m), ctx)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LTPModel:
    """Per-operator certified constants for the inversion formulas.

    ``kappa_iv``/``c_iv`` return directed-rounding intervals and must be
    called inside an :class:`MPIntervalScope`.
    """

    id: str
    kappa_iv: Callable[[int], object]
    c_iv: Callable[[int], object]
    lambda_asymptotic: Optional[Callable[[int], float]] = None
    gap_floor: float = GAP_FLOOR_CUBIC
    hypotheses: tuple = (KAPPA_HYPOTHESIS_TAG,)
    meta: dict = field(default_factory=dict)

    def kappa_bound(self, n: int):
        """Upper endpoint of kappa_iv(n), rounded upward to a float (a big
        float on overflow); for non-certified callers."""
        with MPIntervalScope(_scope_digits(None)):
            return _upper_out(self.kappa_iv(n), None)

    def c_bound(self, m: int):
        """Upper endpoint of c_iv(m), rounded like :meth:`kappa_bound`."""
        with MPIntervalScope(_scope_digits(None)):
            return _upper_out(self.c_iv(m), None)

    def to_json(self) -> dict:
        if self.meta:
            return dict(self.meta)
        raise ValueError(f"model {self.id!r} has no serializable form")


def cubic_ltp_model() -> LTPModel:
    return LTPModel(
        id="cubic",
        kappa_iv=_kappa_iv,
        c_iv=_c_iv,
        lambda_asymptotic=lambda n: lambda_asymptotic(n),
        gap_floor=GAP_FLOOR_CUBIC,
        meta={"type": "builtin", "id": "cubic"},
    )


def constant_ltp_model(model_id: str, kappa: float, c: float = 0.0,
                       gap_floor: float = GAP_FLOOR_CUBIC,
                       lam: Optional[Callable[[int], float]] = None,
                       hypotheses: tuple = (KAPPA_HYPOTHESIS_TAG,),
                       meta: Optional[dict] = None) -> LTPModel:
    """Model with index-independent constants (normal or mildly non-normal
    operators, user-supplied plugin constants)."""
    def k_iv(n):
        return _iv.mpf(kappa)

    def cc_iv(m):
        return _iv.mpf(c)

    return LTPModel(
        id=model_id,
        kappa_iv=k_iv,
        c_iv=cc_iv,
        lambda_asymptotic=lam,
        gap_floor=gap_floor,
        hypotheses=hypotheses,
        meta=meta if meta is not None else
        {"type": "constant", "id": model_id, "kappa": kappa, "c": c,
         "gap_floor": gap_floor},
    )


def harmonic_ltp_model() -> LTPModel:
    # normal operator: projection norms are exactly 1, no strip constant,
    # and the "asymptotic" eigenvalue formula is exact
    return constant_ltp_model(
        "harmonic", kappa=1.0, c=0.0, gap_floor=2.0,
        lam=lambda n: 2.0 * n - 1.0,
        meta={"type": "builtin", "id": "harmonic"})


#: Local inversion constant shipped for the lattice model.  The constants
#: for this operator tend to 1 at high energies (the growing real part of
#: the potential dominates); 2 is a documented safety factor.  Certification
#: of lattice enclosures is conditional on this choice, which the pipeline
#: records with the hypothesis tag below.
LATTICE_LTP_CONSTANT = 2.0
LATTICE_HYPOTHESIS_TAG = "lattice-ltp-constant"


def lattice_ltp_model() -> LTPModel:
    return constant_ltp_model(
        "lattice", kappa=LATTICE_LTP_CONSTANT, c=0.0, gap_floor=0.25,
        hypotheses=(KAPPA_HYPOTHESIS_TAG, LATTICE_HYPOTHESIS_TAG),
        meta={"type": "builtin", "id": "lattice"})


BUILTIN_MODELS = {
    "cubic": cubic_ltp_model,
    "harmonic": harmonic_ltp_model,
    "lattice": lattice_ltp_model,
}


def model_from_json(source) -> LTPModel:
    """Load a model from JSON: builtin reference or explicit constants."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, TypeError):
            data = json.loads(source)
    kind = data.get("type")
    if kind == "builtin":
        return BUILTIN_MODELS[data["id"]]()
    if kind == "constant":
        return constant_ltp_model(
            data["id"], float(data["kappa"]), float(data.get("c", 0.0)),
            float(data.get("gap_floor", GAP_FLOOR_CUBIC)),
            meta=data)
    raise ValueError(f"unknown model type {kind!r}")


def model_for_operator(op_id: str) -> LTPModel:
    base = op_id.split("*")[0]
    if base in BUILTIN_MODELS:
        return BUILTIN_MODELS[base]()
    raise KeyError(f"no built-in model for operator {op_id!r}; supply one")


# ---------------------------------------------------------------------------
# bound formulas
# ---------------------------------------------------------------------------

def dist_bound(gamma_upper, m: int, model: Optional[LTPModel] = None,
               ctx: Optional[PrecisionContext] = None):
    """Distance-to-spectrum bound from an inverse-resolvent upper bound.

    Returns 2 kappa_bound(m) g / (1 - c_m g), upward rounded, valid whenever
    the true strip index at the shift is at most m (both constants increase
    with the index, so overshooting m only weakens the bound).  If c_m g >= 1
    the formula carries no information and inf is returned.
    """
    model = model if model is not None else cubic_ltp_model()
    if m < 1:
        raise ValueError("strip index must be >= 1")
    if gamma_upper == 0:
        return 0.0
    if gamma_upper < 0:
        raise ValueError("gamma_upper must be >= 0")
    with MPIntervalScope(_scope_digits(ctx)):
        giv = _iv.mpf(gamma_upper)
        kb = model.kappa_iv(m)
        cm = model.c_iv(m)
        denom = 1 - cm * giv
        if not iv_lower(denom) > 0:
            return math.inf
        val = 2 * kb * giv / denom
        return _upper_out(val, ctx)
