"""Operator specs: band structure, symmetry, the quadrature oracle, plugins."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from specgate import DOUBLE, bigfloat
from specgate.intervals import fixed_bits, _fx_lib
from specgate.operators import (ExpressionError, _eval_scalar,
                                harmonic_oscillator_operator,
                                hermite_cubic_operator,
                                lattice_longrange_operator,
                                load_plugin_operator, parse_expression)
from specgate.precision import DOUBLE_DIGITS


@pytest.fixture(scope="module")
def cubic():
    return hermite_cubic_operator()


@pytest.fixture(scope="module")
def harmonic():
    return harmonic_oscillator_operator()


@pytest.fixture(scope="module")
def lattice():
    return lattice_longrange_operator()


def test_cubic_band_values(cubic):
    # offset -2 entry at column 5: -sqrt(5*4)/2
    assert cubic.entry(3, 5, DOUBLE) == pytest.approx(-math.sqrt(20) / 2)
    # outside the bandwidth
    assert cubic.entry(0, 5, DOUBLE) == 0
    # kinetic diagonal at m = 0
    assert cubic.entry(0, 0, DOUBLE) == pytest.approx(0.5)


def test_cubic_band_structure_sampled(cubic):
    for j in (0, 1, 7, 50):
        for i in range(max(0, j - 6), j + 7):
            v = cubic.entry(i, j, DOUBLE)
            if abs(i - j) > 3:
                assert v == 0


def test_cubic_complex_symmetry(cubic):
    for i in range(0, 201, 7):
        for d in (-3, -2, -1, 0, 1, 2, 3):
            j = i + d
            if j < 0 or j > 200:
                continue
            assert cubic.entry(i, j, DOUBLE) == pytest.approx(
                cubic.entry(j, i, DOUBLE), abs=1e-12)


def _quadrature_entry(i, j, x, logw, U):
    """Independent oracle: matrix elements of -d2/dx2 + i x^3 by quadrature.

    Uses the harmonic-oscillator identity -u_j'' = ((2j+1) - x^2) u_j, so the
    integrand is a polynomial times exp(-x^2), exact under Gauss-Hermite.
    The weight is folded into the decaying basis functions for stability.
    """
    wmod = np.exp(logw + x * x)
    q2 = float(np.sum(wmod * U[i] * U[j] * x ** 2))
    q3 = float(np.sum(wmod * U[i] * U[j] * x ** 3))
    val = -q2 + 1j * q3
    if i == j:
        val += 2 * j + 1
    return val


def test_cubic_quadrature_oracle(cubic):
    x, w = hermgauss(90)
    logw = np.log(w)
    K = 45
    U = np.zeros((K, len(x)))
    U[0] = math.pi ** -0.25 * np.exp(-x * x / 2)
    U[1] = x * math.sqrt(2.0) * U[0]
    for m in range(1, K - 1):
        U[m + 1] = x * math.sqrt(2.0 / (m + 1)) * U[m] \
            - math.sqrt(m / (m + 1.0)) * U[m - 1]
    worst = 0.0
    for i in range(41):
        for j in range(41):
            e = cubic.entry(i, j, DOUBLE)
            o = _quadrature_entry(i, j, x, logw, U)
            worst = max(worst, abs(e - o))
    assert worst < 1e-12


def test_entry_determinism(cubic, lattice):
    a = cubic.entry(13, 12, DOUBLE)
    b = cubic.entry(13, 12, DOUBLE)
    assert a == b
    la = lattice.entry(4, 2, DOUBLE)
    lb = lattice.entry(4, 2, DOUBLE)
    assert la == lb


def test_harmonic_values(harmonic):
    assert harmonic.entry(4, 4, DOUBLE) == 9
    assert harmonic.entry(3, 4, DOUBLE) == 0


def test_lattice_values(lattice):
    assert lattice.entry(0, 3, DOUBLE) == pytest.approx(0.25)
    v = lattice.entry(2, 2, DOUBLE)
    assert v == pytest.approx(complex(0.4, 2 * math.sin(2)))


def test_lattice_tail_monotone(lattice):
    for n in (5, 20, 60):
        for m in (0, 3, 11, 40):
            assert lattice.tail_bound(n, m) - lattice.tail_bound(n, m + 1) >= 0


@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("m", [0, 5, 12, 30])
def test_lattice_tail_is_sharp(lattice, n, m):
    # the dropped block (I - P_{n+m}) H P_n, rows out to n + m + 60: its
    # spectral norm <= its exact Frobenius norm <= tail_bound(n, m), and
    # the bound is within sqrt(2n + 1) of that Frobenius norm.  The column
    # mass taken as (8/3) 2^-m instead of the geometric (8/3) 4^-m misses
    # the last check by a factor 2^(m/2) once m >= 5
    reach = n + m + 60
    rows = [i for i in range(-reach, reach + 1) if abs(i) > n + m]
    block = np.array([[2.0 ** (1 - abs(i - j)) for j in range(-n, n + 1)]
                      for i in rows])
    frob_sq = sum(Fraction(4, 3) * (Fraction(1, 4 ** (n + m - j))
                                    + Fraction(1, 4 ** (n + m + j)))
                  for j in range(-n, n + 1))
    frob = math.sqrt(frob_sq)
    assert np.linalg.norm(block, 2) <= frob <= lattice.tail_bound(n, m)
    if m >= 5:
        assert lattice.tail_bound(n, m) <= math.sqrt(2 * n + 1) * frob


def test_entry_box_contains_entry(cubic, lattice):
    # on the grid of a double context: each box is at most two units of
    # 2^-p wide around the entry's 60-digit value
    p = fixed_bits(DOUBLE_DIGITS)
    with mpmath.workdps(60):
        for (i, j) in ((3, 5), (5, 5), (8, 5), (2, 5)):
            box = cubic.entry_box(i, j, _fx_lib(p))
            value = cubic.entry(i, j, bigfloat(60)) * 2 ** p
            for (lo, hi), x in ((box.re, value.real), (box.im, value.imag)):
                assert lo <= x <= hi <= lo + 2, (i, j)
    # on the fixed-point grid: 49/10 by floor and ceiling, 2 sin 7 within
    # a few grid units around its 60-digit value
    p = fixed_bits(30)
    b = lattice.entry_box(7, 7, _fx_lib(p))
    assert b.re == ((49 << p) // 10, -((-49 << p) // 10))
    with mpmath.workdps(60):
        im = 2 * mpmath.sin(7) * 2 ** p
    assert b.im[0] < im < b.im[1] <= b.im[0] + 4


def test_double_box_encloses_hops_below_the_smallest_double(lattice):
    # the hop 2^(1-d) is no double past d = 1075; on a grid of p >= 1100
    # bits it is the exact point 2^(p+1-d), and the grid of a double
    # context encloses 2^-1099 by [0, 1] units
    for p in (1100, 1300):
        for d in (1, 2, 60, 1000, 1074, 1075, 1100):
            hop = lattice.entry_box(0, d, _fx_lib(p)).re
            assert hop == (2 ** (p + 1 - d),) * 2, (p, d)
    assert lattice.entry_box(0, 1100, _fx_lib(fixed_bits(DOUBLE_DIGITS))).re \
        == (0, 1)


def test_bigfloat_entries_match_double(cubic):
    ctx = bigfloat(30)
    for (i, j) in ((3, 5), (6, 5), (4, 7), (10, 7)):
        hi = cubic.entry(i, j, ctx)
        lo = cubic.entry(i, j, DOUBLE)
        assert abs(complex(hi) - lo) < 1e-14


def test_adjoint(cubic):
    adj = cubic.adjoint()
    z = adj.entry(5, 3, DOUBLE)
    assert z == pytest.approx(cubic.entry(3, 5, DOUBLE).conjugate())


def test_adjoint_conjugates_big_floats_exactly(lattice):
    # at the default global precision of 53 bits, the adjoint's 50-digit
    # entry is the exact conjugate, not one rounded to a double
    ctx = bigfloat(50)
    a, b = lattice.adjoint().entry(2, 2, ctx), lattice.entry(2, 2, ctx)
    with mpmath.workdps(60):
        assert a.real == b.real and a.imag + b.imag == 0


# ---------------------------------------------------------------------------
# plugin grammar
# ---------------------------------------------------------------------------

def test_parse_and_eval_expression():
    node = parse_expression("2*n + sqrt(n) - 1/4")
    assert _eval_scalar(node, 4, use_mp=False) == pytest.approx(8 + 2 - 0.25)
    node = parse_expression("i*sin(n) + cos(n)")
    v = _eval_scalar(node, 2, use_mp=False)
    assert v == pytest.approx(complex(math.cos(2), math.sin(2)))
    node = parse_expression("exp(-(n^2)/2)")
    assert _eval_scalar(node, 1, use_mp=False) == pytest.approx(math.exp(-0.5))


def test_decimal_literals_are_exact_ratios():
    # 0.1 is 1/10, not its nearest double: the grid box holds 1/10, big
    # floats carry it to working precision, and doubles keep float(token)
    op = load_plugin_operator({"id": "tenth", "bands": [
        {"offset": 0, "coefficient": "0.1*n"}]})
    p = fixed_bits(30)
    lo, hi = op.entry_box(1, 1, _fx_lib(p)).re
    assert 10 * lo < 2 ** p < 10 * hi
    with mpmath.workdps(60):
        assert abs(op.entry(1, 1, bigfloat(30)) - mpmath.mpf(1) / 10) < 1e-30
    assert op.entry(1, 1, DOUBLE) == complex(0.1)
    for tok in ("0.1", "2.675", ".5", "3.", "123456789.987654321"):
        value = _eval_scalar(parse_expression(tok), 0, use_mp=False)
        assert value == complex(float(tok)), tok


def test_expression_rejects_unknown():
    with pytest.raises(ExpressionError):
        parse_expression("n + unknown(3)")
    with pytest.raises(ExpressionError):
        parse_expression("2 ** n")
    with pytest.raises(ExpressionError):
        parse_expression("(n + 1")


def test_plugin_operator_roundtrip(tmp_path):
    desc = {
        "id": "shifted-harmonic",
        "domain": "naturals",
        "bands": [{"offset": 0, "coefficient": "2*n + 1 + 1/2"}],
        "symmetry": ["ComplexSymmetric", "RealSpectrumExpected"],
    }
    path = tmp_path / "plugin.json"
    import json
    path.write_text(json.dumps(desc))
    op = load_plugin_operator(str(path))
    assert op.banded and op.lower_bandwidth == 0
    assert op.entry(3, 3, DOUBLE) == pytest.approx(7.5)
    assert op.entry(2, 3, DOUBLE) == 0
    p = fixed_bits(DOUBLE_DIGITS)
    box = op.entry_box(3, 3, _fx_lib(p))
    assert box.re == (15 << (p - 1),) * 2 and box.im == (0, 0)


def test_plugin_rejects_unknown_keys():
    with pytest.raises(ValueError):
        load_plugin_operator({"id": "x", "bands": [], "surprise": 1})


def test_plugin_interval_power_restriction():
    op = load_plugin_operator({
        "id": "frac-pow", "domain": "naturals",
        "bands": [{"offset": 0, "coefficient": "n^(1/2)"}]})
    # float path works; the enclosure path rejects non-integer powers
    assert op.entry(4, 4, DOUBLE) == pytest.approx(2.0)
    with pytest.raises(ExpressionError):
        op.entry_box(4, 4, _fx_lib(fixed_bits(DOUBLE_DIGITS)))
