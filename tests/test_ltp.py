"""Inversion constants and bound formulas: values, rounding, domains."""

import math

import mpmath
import pytest
from mpmath import mp

from specgate import DOUBLE, bigfloat
from specgate.ltp import (GAP_FLOOR_CUBIC, c_of_m, cubic_ltp_model,
                          dist_bound, harmonic_ltp_model, kappa_bound,
                          lambda_asymptotic, lattice_ltp_model,
                          model_from_json)

from _util import CUBIC_EIGENVALUE_100


def test_lambda_asymptotic_values():
    # leading term only; remainder O(n^{-4/5})
    assert abs(lambda_asymptotic(100) - float(CUBIC_EIGENVALUE_100[:9])) < 0.2
    assert abs(lambda_asymptotic(1) - 1.1563) < 0.07
    assert lambda_asymptotic(1) == pytest.approx(1.0942695, abs=1e-6)


def test_lambda_asymptotic_increasing():
    prev = 0.0
    for n in range(1, 1001):
        v = lambda_asymptotic(n)
        assert v > prev
        prev = v


def test_lambda_asymptotic_precondition():
    with pytest.raises(ValueError):
        lambda_asymptotic(0)


def test_kappa_bound_values():
    assert kappa_bound(3) == pytest.approx(math.exp(math.pi * math.sqrt(3.0)),
                                           rel=1e-12)
    assert kappa_bound(3) == pytest.approx(230.7645883, rel=1e-8)
    with pytest.raises(ValueError):
        kappa_bound(0)


def test_kappa_bound_ratio():
    ratio = math.exp(math.pi / math.sqrt(3.0))
    for n in (1, 5, 40):
        assert kappa_bound(n + 1) / kappa_bound(n) == pytest.approx(
            ratio, rel=1e-10)


def test_kappa_bound_overflow_promotes():
    big = kappa_bound(400)
    assert isinstance(big, mpmath.mpf)
    assert big > mpmath.mpf("1e300")


def test_c_of_m_regression_value():
    # pinned from a direct high-precision evaluation of the formula
    assert c_of_m(1) == pytest.approx(866.21266389656, rel=1e-10)
    assert 5e2 < c_of_m(1) < 1.5e3
    with pytest.raises(ValueError):
        c_of_m(0)


def test_c_of_m_monotone():
    prev = 0.0
    for m in range(1, 51):
        v = float(mpmath.log(mpmath.mpf(c_of_m(m))) if not isinstance(
            c_of_m(m), float) else math.log(c_of_m(m)))
        assert v > prev or m == 1
        prev = v


def test_c_of_m_log_increments():
    # log c_m - log c_{m-1} = pi/sqrt(3) + Theta(m^{1/5}) from the stretched
    # exponential; increments exceed the linear rate and keep growing
    rate = math.pi / math.sqrt(3.0)
    with mp.workdps(40):
        logs = [mpmath.log(mpmath.mpf(c_of_m(m, bigfloat(40))))
                for m in range(1, 12)]
    incs = [float(logs[i + 1] - logs[i]) for i in range(10)]
    assert all(d > rate for d in incs)
    assert incs[-1] > incs[0]


def test_dist_bound_values():
    v = dist_bound(1e-12, 1)
    assert v == pytest.approx(2 * math.exp(math.pi / math.sqrt(3.0)) * 1e-12,
                              rel=1e-3)
    assert v == pytest.approx(1.2267e-11, rel=1e-3)
    assert dist_bound(0.0, 3) == 0.0


def test_dist_bound_domain():
    # c_m * gamma >= 1 leaves the formula's domain: no finite bound
    m = 2
    g = 1.0 / c_of_m(m) * 1.001
    assert math.isinf(dist_bound(g, m))
    with pytest.raises(ValueError):
        dist_bound(-1.0, 1)


def test_dist_bound_monotone_in_gamma():
    m = 2
    cap = 1.0 / (2.0 * c_of_m(m))
    prev = 0.0
    for k in range(1, 8):
        g = cap * k / 8.0
        v = dist_bound(g, m)
        assert math.isfinite(v) and v > prev
        prev = v


def test_upward_rounding_tightens_with_precision():
    for args in ((7,), (25,)):
        lo = kappa_bound(*args, ctx=bigfloat(50))
        hi = kappa_bound(*args, ctx=DOUBLE)
        assert float(lo) <= float(hi)
    d50 = dist_bound(1e-9, 3, ctx=bigfloat(50))
    dd = dist_bound(1e-9, 3, ctx=DOUBLE)
    assert float(d50) <= float(dd)


def test_model_json_roundtrips():
    for model in (cubic_ltp_model(), harmonic_ltp_model(), lattice_ltp_model()):
        back = model_from_json(model.to_json())
        assert back.id == model.id
        assert back.kappa_bound(3) == pytest.approx(model.kappa_bound(3),
                                                    rel=1e-12)
    custom = model_from_json({"type": "constant", "id": "user", "kappa": 2.5,
                              "c": 0.1, "gap_floor": 1.0})
    assert custom.kappa_bound(9) == 2.5


def test_model_invariants():
    model = cubic_ltp_model()
    prev = 0.0
    for n in range(1, 20):
        k = model.kappa_bound(n)
        assert k >= 1.0 and k > prev
        prev = k
    lam_prev = 0.0
    for n in range(1, 50):
        v = model.lambda_asymptotic(n)
        assert v > lam_prev
        lam_prev = v
    assert model.gap_floor == pytest.approx(GAP_FLOOR_CUBIC)
