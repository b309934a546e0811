"""Interval arithmetic: containment contract and outward rounding."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgate.intervals import (CIBox, IntervalError, MPIntervalScope,
                                _fx_ctimes, _fx_enclose, _fx_lib, _fx_ratio,
                                _fx_round, _fx_square, _fx_times, _fx_vector,
                                fixed_bits, iv_lower, iv_upper)
from specgate.precision import DOUBLE_DIGITS

from _util import exact_fraction

# ---------------------------------------------------------------------------
# the grid of a double context: examples, fuzz and the transcendentals
# ---------------------------------------------------------------------------

#: p of the grid that a double context's residual reads
P16 = fixed_bits(DOUBLE_DIGITS)
LIB16 = _fx_lib(P16)


def _box(lo, hi):
    """The interval [lo, hi] of doubles on the grid of P16."""
    return LIB16.num(mpmath.iv.mpf([lo, hi]))


def _fraction_ends(a):
    return Fraction(a[0], 2 ** P16), Fraction(a[1], 2 ** P16)


def test_add_example():
    assert _box(1, 2) + _box(3, 4) == (4 << P16, 6 << P16)


def test_sqrt_example():
    assert LIB16.sqrt(_box(4, 9)) == (2 << P16, 3 << P16)


def test_invalid_endpoints():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(IntervalError):
            LIB16.num(bad)


def test_division_by_zero_interval():
    with pytest.raises(IntervalError):
        _box(1, 2) / _box(-1, 1)


def test_negative_sqrt():
    with pytest.raises(IntervalError):
        LIB16.sqrt(_box(-2, -1))


finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=300, deadline=None)
def test_containment_add_sub_mul(a, b, c, d, tx, ty):
    # intervals of doubles, enclosed on the grid, against exact rationals
    x, y = _box(min(a, b), max(a, b)), _box(min(c, d), max(c, d))
    (xl, xh), (yl, yh) = _fraction_ends(x), _fraction_ends(y)
    px = xl + Fraction(tx) * (xh - xl)
    py = yl + Fraction(ty) * (yh - yl)
    for r, exact in ((x + y, px + py), (x - y, px - py), (x * y, px * py)):
        lo, hi = _fraction_ends(r)
        assert lo <= exact <= hi


def test_rational_oracle_fuzz_small():
    """Random rationals enclosed on the grid: each operation's result
    contains the exact rational result."""
    rnd = random.Random(20240811)
    ops = {"add": lambda s, t: s + t, "sub": lambda s, t: s - t,
           "mul": lambda s, t: s * t, "div": lambda s, t: s / t}
    with MPIntervalScope(40):
        for _ in range(5000):
            fx = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**4))
            fy = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**4))
            op = rnd.choice(sorted(ops))
            if op == "div" and fy == 0:
                continue
            x, y = (LIB16.num(mpmath.iv.mpf(f.numerator) / f.denominator)
                    for f in (fx, fy))
            lo, hi = _fraction_ends(ops[op](x, y))
            assert lo <= ops[op](fx, fy) <= hi, (op, fx, fy)


def test_exp_contains():
    for v in (-3, 0, 1, 10):
        lo, hi = LIB16.exp(LIB16.num(v))
        with mpmath.workdps(50):
            assert lo <= mpmath.exp(v) * 2 ** P16 <= hi


def _libm_arguments(limit):
    """Integers in [-limit, limit] (the lattice diagonal takes sin(j)) and
    random doubles across the same range, both signs, and a few tiny ones."""
    rng = random.Random(20251122)
    xs = [float(j) for j in range(-limit, limit + 1)]
    xs += [rng.uniform(-limit, limit) for _ in range(400)]
    xs += [s * 10.0 ** -e for s in (1, -1) for e in (1, 5, 12)]
    return xs


@pytest.mark.parametrize("name", ["exp", "sin", "cos"])
def test_fx_lib_transcendentals_contain_50_digit_values(name):
    # exp, sin and cos of doubles on the grid of a double context: every
    # enclosure contains the value mpmath computes at 50 digits
    f = getattr(LIB16, name)
    with mpmath.workdps(50):
        for x in _libm_arguments(200):
            lo, hi = f(LIB16.num(x))
            ref = getattr(mpmath, name)(mpmath.mpf(x)) * 2 ** P16
            assert lo <= ref <= hi, (name, x)


def test_cibox_mult_contains():
    # dyadic points multiply exactly on the grid; with a non-dyadic factor
    # the product's box holds the exact complex product
    z1 = CIBox(LIB16.num(1.25), LIB16.num(-0.5))
    b = z1 * CIBox(LIB16.num(-0.75), LIB16.num(2))
    assert (b.re, b.im) == (LIB16.num(0.0625), LIB16.num(2.875))
    with MPIntervalScope(40):
        third = LIB16.num(mpmath.iv.mpf(1) / 3)
    b = z1 * CIBox(third, third)  # (1.25 - 0.5i)(1 + i) / 3
    for part, exact in ((b.re, Fraction(7, 12)), (b.im, Fraction(1, 4))):
        lo, hi = _fraction_ends(part)
        assert lo < exact < hi


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


# ---------------------------------------------------------------------------
# fixed-point entry arithmetic: each operation against exact rationals
# ---------------------------------------------------------------------------

entry_scales = st.integers(1, 200)


def _grid(x, p):
    """The enclosure of the rational x by the entry arithmetic at scale
    2^-p: num of an mpmath.iv interval around it, at p + 64 bits (|x| is
    below 2^40)."""
    with MPIntervalScope(math.ceil((p + 64) / math.log2(10))):
        box = mpmath.iv.mpf(x.numerator) / x.denominator
    return _fx_lib(p).num(box)


def _ends(a, p):
    return Fraction(a[0], 2 ** p), Fraction(a[1], 2 ** p)


@given(rationals, entry_scales)
@settings(max_examples=200, deadline=None)
def test_fx_lib_num_encloses(x, p):
    # num of a non-dyadic value's iv enclosure, of its double, of an int
    lo, hi = _ends(_grid(x, p), p)
    assert lo <= x <= hi and hi - lo <= Fraction(2, 2 ** p)
    xd = x.numerator / x.denominator
    lo, hi = _ends(_fx_lib(p).num(xd), p)
    assert lo <= Fraction(xd) <= hi and hi - lo <= Fraction(1, 2 ** p)
    assert _fx_lib(p).num(x.numerator) == (x.numerator << p,) * 2


@given(rationals, rationals, entry_scales,
       st.sampled_from(["+", "-", "*", "/"]))
@settings(max_examples=400, deadline=None)
def test_fx_lib_operations_enclose_exact_results(x, y, p, op):
    # + and - are exact on the ends; * and / round the exact range of the
    # corner results outward once: its floor and ceiling at scale 2^-p
    a, b = _grid(x, p), _grid(y, p)
    if op == "/" and b[0] <= 0 <= b[1]:
        with pytest.raises(IntervalError):
            a / b
        return
    f = {"+": lambda s, t: s + t, "-": lambda s, t: s - t,
         "*": lambda s, t: s * t, "/": lambda s, t: s / t}[op]
    r = f(a, b)
    corners = [f(s, t) for s in _ends(a, p) for t in _ends(b, p)]
    lo, hi = min(corners), max(corners)
    assert _ends(r, p)[0] <= f(x, y) <= _ends(r, p)[1]
    if op in "+-":
        assert _ends(r, p) == (lo, hi)
    else:
        assert r == (math.floor(lo * 2 ** p), math.ceil(hi * 2 ** p))


@given(rationals, st.integers(-10**6, 10**6), entry_scales)
@settings(max_examples=200, deadline=None)
def test_fx_lib_integer_operands(x, t, p):
    # an int factor is exact; a positive int divisor rounds outward once;
    # an int term is a point
    a = _grid(x, p)
    assert a * t == t * a == tuple(sorted((a[0] * t, a[1] * t)))
    if t > 0:
        assert a / t == (math.floor(Fraction(a[0], t)),
                         math.ceil(Fraction(a[1], t)))
    assert a - t == a - _fx_lib(p).num(t) == (a[0] - (t << p),
                                                a[1] - (t << p))
    assert a + t == t + a == (a[0] + (t << p), a[1] + (t << p))


@given(rationals.map(abs), entry_scales)
@settings(max_examples=300, deadline=None)
def test_fx_lib_sqrt_is_the_integer_floor_and_ceiling(x, p):
    a = _grid(x, p)
    lo, hi = _fx_lib(p).sqrt(a)
    # floor of sqrt(a0 2^p) and ceiling of sqrt(a1 2^p)
    n0, n1 = max(a[0], 0) << p, a[1] << p
    assert lo * lo <= n0 < (lo + 1) ** 2
    assert (hi - 1) ** 2 < n1 <= hi * hi or hi == n1 == 0
    assert lo * lo <= x * 2 ** (2 * p) <= hi * hi


@given(st.integers(0, 2**120), entry_scales)
@settings(max_examples=200, deadline=None)
def test_fx_lib_sqrt_of_an_exact_square_is_a_point(h, p):
    # g = h 2^ceil(p/2) is a grid value whose square g^2 2^-2p lies on the
    # grid too; its square root is the point g
    g = h << ((p + 1) // 2)
    lib = _fx_lib(p)
    square = lib._of(g * g >> p, g * g >> p)
    assert lib.sqrt(square) == (g, g)


def test_fx_lib_sqrt_rejects_negative_intervals():
    lib = _fx_lib(20)
    with pytest.raises(IntervalError):
        lib.sqrt(lib.num(-2))


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "pi"])
def test_fx_lib_transcendentals_contain_their_values(name):
    # sin, cos and exp of non-dyadic arguments, and pi: mpmath.iv at no
    # fewer than p bits, a few grid units wide, around the value at 2p bits
    for p in (40, 133, 300):
        lib = _fx_lib(p)
        for x in (Fraction(1, 3), Fraction(-22, 7), Fraction(50, 9)):
            arg = _grid(x, p)
            r = lib.pi() if name == "pi" else getattr(lib, name)(arg)
            with mpmath.workprec(2 * p):
                t = mpmath.mpf(arg[0]) / 2 ** p
                ref = mpmath.pi if name == "pi" else getattr(mpmath, name)(t)
                assert r[0] <= ref * 2 ** p <= r[1] <= r[0] + 2 ** 8 * (
                    1 + abs(ref)), (name, p, x)
