"""Interval arithmetic: containment contract and outward rounding."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgate.intervals import CIBox, Interval, IntervalError
from specgate.operators import BOX_DOUBLE_LIB, _eval_box


def test_add_example():
    r = Interval(1, 2) + Interval(3, 4)
    assert r.lo <= 4.0 and r.hi >= 6.0
    assert r.lo == pytest.approx(4.0, abs=1e-14)
    assert r.hi == pytest.approx(6.0, abs=1e-14)


def test_sqrt_example():
    r = Interval(4, 9).sqrt()
    assert r.lo <= 2.0 <= 3.0 <= r.hi
    assert r.hi - 3.0 < 1e-14


def test_invalid_endpoints():
    with pytest.raises(IntervalError):
        Interval(2.0, 1.0)
    with pytest.raises(IntervalError):
        Interval(float("nan"), 1.0)


def test_division_by_zero_interval():
    with pytest.raises(IntervalError):
        Interval(1, 2) / Interval(-1, 1)


def test_negative_sqrt():
    with pytest.raises(IntervalError):
        Interval(-2, -1).sqrt()


finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


def _member(x, t):
    """The point at fraction t of x, clamped: lo + t*(hi - lo) can round one
    ulp past hi."""
    return min(max(x.lo + t * (x.hi - x.lo), x.lo), x.hi)


@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_containment_add_sub_mul(x, y, tx, ty):
    px = _member(x, tx)
    py = _member(y, ty)
    assert (x + y).contains(px + py)
    assert (x - y).contains(px - py)
    assert (x * y).contains(px * py)


@given(intervals(), st.floats(0, 1))
@settings(max_examples=200, deadline=None)
def test_containment_square_abs(x, t):
    p = _member(x, t)
    assert x.square().contains(p * p)
    assert abs(x).contains(abs(p))


def _exact_op(op, ax, ay):
    if op == "add":
        return ax + ay
    if op == "sub":
        return ax - ay
    if op == "mul":
        return ax * ay
    return ax / ay


def test_rational_oracle_fuzz_small():
    """Sampled version of the exhaustive acceptance fuzz (10^5 cases)."""
    import random
    rnd = random.Random(20240811)
    ops = ("add", "sub", "mul", "div")
    for _ in range(5000):
        num = rnd.randint(-10**6, 10**6)
        den = rnd.randint(1, 10**4)
        num2 = rnd.randint(-10**6, 10**6)
        den2 = rnd.randint(1, 10**4)
        fx = Fraction(num, den)
        fy = Fraction(num2, den2)
        x = Interval.point(num / den)
        y = Interval.point(num2 / den2)
        # the float points differ from the exact rationals; compare against
        # the rational value of the floats themselves (exactly representable)
        fx = Fraction(x.lo)
        fy = Fraction(y.lo)
        op = ops[rnd.randrange(4)]
        if op == "div" and fy == 0:
            continue
        r = {"add": x + y, "sub": x - y, "mul": x * y,
             "div": (x / y) if fy != 0 else None}[op]
        exact = _exact_op(op, fx, fy)
        assert Fraction(r.lo) <= exact <= Fraction(r.hi), (op, fx, fy)


def test_exp_contains():
    for v in (-3.0, 0.0, 1.0, 10.0):
        r = Interval.point(v).exp()
        assert r.lo <= math.exp(v) <= r.hi


def _libm_arguments(limit):
    """Integers in [-limit, limit] (the lattice diagonal takes sin(j)) and
    random doubles across the same range, both signs, and a few tiny ones."""
    rng = random.Random(20251122)
    xs = [float(j) for j in range(-limit, limit + 1)]
    xs += [rng.uniform(-limit, limit) for _ in range(400)]
    xs += [s * 10.0 ** -e for s in (1, -1) for e in (1, 5, 12)]
    return xs


@pytest.mark.parametrize("name", ["exp", "sin", "cos"])
def test_libm_enclosures_contain_50_digit_values(name):
    # the double-interval exp, sin and cos rest on libm accuracy; every
    # enclosure must contain the value mpmath computes at 50 digits
    enclose = {
        "exp": lambda x: Interval.point(x).exp(),
        "sin": lambda x: BOX_DOUBLE_LIB.sin(Interval.point(x)),
        "cos": lambda x: _eval_box(("cos", ("lit", x)), 0, BOX_DOUBLE_LIB).re,
    }[name]
    with mpmath.workdps(50):
        for x in _libm_arguments(200):
            r = enclose(x)
            ref = getattr(mpmath, name)(mpmath.mpf(x))
            assert mpmath.mpf(r.lo) <= ref <= mpmath.mpf(r.hi), (name, x)


def test_cibox_mult_contains():
    z1 = complex(1.25, -0.5)
    z2 = complex(-0.75, 2.0)
    b = CIBox.point(z1) * CIBox.point(z2)
    assert b.contains(z1 * z2)
