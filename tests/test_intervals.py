"""Interval arithmetic: containment contract and outward rounding."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgate.intervals import (CIBox, Interval, IntervalError,
                                MPIntervalScope, _fx_ctimes, _fx_enclose,
                                _fx_ratio, _fx_round, _fx_square, _fx_times,
                                _fx_vector, iv_lower, iv_upper)
from specgate.operators import BOX_DOUBLE_LIB, _eval_box

from _util import exact_fraction


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


# ---------------------------------------------------------------------------
# fixed-point int intervals: each primitive against exact rationals
# ---------------------------------------------------------------------------

#: non-dyadic rationals a/b with b odd, so x 2^p is never an integer
rationals = st.builds(Fraction, st.integers(-10**12, 10**12),
                      st.sampled_from([3, 5, 7, 9, 11, 13, 10**9 + 7]))
scales = st.integers(0, 200)
int_intervals = st.tuples(st.integers(-2**300, 2**300),
                          st.integers(-2**300, 2**300)).map(
                              lambda t: (min(t), max(t)))


def _members(a, fracs):
    """Rational points of the int interval a: its ends and interior points."""
    lo, hi = a
    return [Fraction(lo), Fraction(hi)] + [lo + f * (hi - lo) for f in fracs]


@given(rationals, scales, st.integers(16, 60))
@settings(max_examples=200, deadline=None)
def test_fx_enclose_is_the_exact_floor_and_ceiling(x, p, digits):
    # a double, an mpf and an mpmath.iv interval, each of a non-dyadic x:
    # the ends are floor and ceiling of the exact value times 2^p
    def floor_ceil(value):
        return math.floor(value * 2 ** p), math.ceil(value * 2 ** p)

    xd = x.numerator / x.denominator
    assert _fx_enclose(xd, p) == floor_ceil(Fraction(xd))
    with mpmath.workdps(digits):
        xm = mpmath.mpf(x.numerator) / x.denominator
    assert _fx_enclose(xm, p) == floor_ceil(exact_fraction(xm))
    with MPIntervalScope(digits):
        xi = mpmath.iv.mpf(x.numerator) / x.denominator
    a, b = exact_fraction(iv_lower(xi)), exact_fraction(iv_upper(xi))
    assert a <= x <= b
    assert _fx_enclose(xi, p) == (floor_ceil(a)[0], floor_ceil(b)[1])
    assert _fx_enclose(x.numerator, p) == (x.numerator << p,) * 2


def test_fx_enclose_rejects_infinite_values():
    with pytest.raises(IntervalError):
        _fx_enclose(math.inf, 10)
    with pytest.raises(IntervalError):
        _fx_enclose(mpmath.iv.mpf([0, mpmath.inf]), 10)
    with pytest.raises(TypeError):
        _fx_enclose(Fraction(1, 3), 10)


@given(int_intervals, st.integers(-2**200, 2**200),
       st.lists(rationals.map(lambda f: f - math.floor(f)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_fx_times_is_exact(a, t, fracs):
    lo, hi = _fx_times(a, t)
    products = [x * t for x in _members(a, fracs)]
    assert lo == min(products[:2]) and hi == max(products[:2])
    assert all(lo <= v <= hi for v in products)


@given(int_intervals, int_intervals, st.integers(-2**200, 2**200),
       st.integers(-2**200, 2**200),
       st.lists(st.tuples(rationals, rationals).map(
           lambda t: tuple(f - math.floor(f) for f in t)), max_size=3))
@settings(max_examples=200, deadline=None)
def test_fx_ctimes_contains_the_complex_products(a, b, vr, vi, fracs):
    re, im = _fx_ctimes(a, b, vr, vi)
    points = list(zip(_members(a, [f for f, _ in fracs]),
                      _members(b, [g for _, g in fracs])))
    points += [(Fraction(a[0]), Fraction(b[1])),
               (Fraction(a[1]), Fraction(b[0]))]
    for x, y in points:
        assert re[0] <= x * vr - y * vi <= re[1]
        assert im[0] <= x * vi + y * vr <= im[1]


@given(int_intervals, st.integers(0, 400))
@settings(max_examples=300, deadline=None)
def test_fx_round_is_the_outward_rounding(a, k):
    lo, hi = _fx_round(a, k)
    assert lo == math.floor(Fraction(a[0], 2 ** k))
    assert hi == math.ceil(Fraction(a[1], 2 ** k))


@given(int_intervals, st.lists(rationals.map(lambda f: f - math.floor(f)),
                               max_size=3))
@settings(max_examples=200, deadline=None)
def test_fx_square_is_the_exact_range(a, fracs):
    lo, hi = _fx_square(a)
    squares = [x * x for x in _members(a, fracs)]
    assert all(lo <= s <= hi for s in squares)
    assert hi == max(squares[:2])
    assert lo == (0 if a[0] < 0 < a[1] else min(squares[:2]))


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8),
       st.integers(-60, 60), st.integers(20, 200))
@settings(max_examples=200, deadline=None)
def test_fx_vector_rounds_to_nearest_on_one_scale(values, shift, p):
    vals = [complex(float(a) * 2.0 ** shift, float(b) * 2.0 ** shift)
            for a, b in values]
    if not any(vals):
        with pytest.raises(ValueError):
            _fx_vector(vals, p)
        return
    V = _fx_vector(vals, p)
    parts = [Fraction(x) for t in vals for x in (t.real, t.imag)]
    ints = [x for pair in V for x in pair]
    # the largest component lies in [2^(top-1), 2^top)
    top = math.frexp(max(abs(x) for t in vals for x in (t.real, t.imag)))[1]
    scale = Fraction(2) ** (p - top)
    assert 2 ** (p - 1) <= max(abs(x) for x in ints) <= 2 ** p
    for x, n in zip(parts, ints):
        # round half up: n - 1/2 <= x scale < n + 1/2
        assert n - Fraction(1, 2) <= x * scale < n + Fraction(1, 2)


@given(int_intervals.map(lambda t: (abs(t[0]), abs(t[1]))).map(
           lambda t: (min(t), max(t))),
       st.integers(1, 2**300), st.sampled_from([0.0, 1e-20, 0.5]),
       st.integers(16, 60))
@settings(max_examples=200, deadline=None)
def test_fx_ratio_contains_the_square_root(num, den, tail, digits):
    with MPIntervalScope(digits):
        r = _fx_ratio(num, den, tail)
    lo, hi = exact_fraction(iv_lower(r)), exact_fraction(iv_upper(r))
    assert lo >= 0
    assert lo * lo <= Fraction(num[0], den)
    assert (hi - Fraction(tail)) ** 2 >= Fraction(num[1], den)
