"""Verified residuals, certification, enclosure serialization."""

import dataclasses
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from specgate import DOUBLE, bigfloat
from specgate.intervals import (IntervalError, _fx_enclose, _fx_vector,
                                fixed_bits)
from specgate.ltp import (GapMembershipError, cubic_ltp_model,
                          harmonic_ltp_model, kappa_bound)
from specgate.operators import (_lattice_diagonal,
                                harmonic_oscillator_operator,
                                hermite_cubic_operator,
                                lattice_longrange_operator)
from specgate.sigma import right_vector, sigma_min
from specgate.truncation import _band, tail_padding
from specgate.verify import (CertificationError, Enclosure,
                             certify_eigenvalue, eigenvector_error_bound,
                             enclosures_to_report, verified_residual)

from _util import (CUBIC_EIGENVALUES, LATTICE_EIGENVALUES, band_plugin,
                   box_route_residual, exact_fraction)

LAMBDA_1 = CUBIC_EIGENVALUES[0]


@pytest.fixture(scope="module")
def cubic():
    return hermite_cubic_operator()


@pytest.fixture(scope="module")
def harmonic():
    return harmonic_oscillator_operator()


def test_exact_eigenpair_residual(harmonic):
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    b = verified_residual(harmonic, 1.0, v, DOUBLE)
    assert b.hi <= 1e-15
    assert b.lo >= 0.0


def test_residual_rows_straddling_zero():
    # z = sqrt(2) to 60 digits lies inside the 30-digit enclosure of the
    # entry sqrt(2): the residual row straddles zero, and its square must
    # not reach below it
    op = band_plugin({0: "sqrt(n + 1)"})
    with mp.workdps(60):
        z = mpmath.sqrt(2)
    v = np.zeros(6, dtype=complex)
    v[1] = 1.0
    b = verified_residual(op, z, v, bigfloat(30))
    assert 0 <= b.lo <= b.hi < 1e-29


def test_residual_refuses_a_non_finite_vector(cubic):
    # a NaN entry has no place on the fixed-point grid: no bound at all
    v = np.ones(6, dtype=complex)
    v[2] = complex(math.nan, 0.0)
    with pytest.raises(IntervalError):
        verified_residual(cubic, 1.0, v, bigfloat(20))


def test_residual_upper_bounds_lower(cubic):
    v = right_vector(cubic, 4.0, 40, DOUBLE)
    b = verified_residual(cubic, 4.0, v, DOUBLE)
    assert 0 <= b.lo <= b.hi


def test_cubic_candidate_residual_double(cubic):
    z = float(mpmath.mpf(LAMBDA_1))
    v = right_vector(cubic, z, 200, DOUBLE)
    b = verified_residual(cubic, z, v, DOUBLE)
    assert b.hi < 1e-10


def test_residual_scaling_invariance(cubic):
    z = 2.0
    v = right_vector(cubic, z, 30, DOUBLE)
    b1 = verified_residual(cubic, z, v, DOUBLE)
    b7 = verified_residual(cubic, z, 7.0 * np.asarray(v), DOUBLE)
    assert b7.hi <= b1.hi * (1 + 1e-12) + 1e-300
    assert b7.lo >= b1.lo * (1 - 1e-12)


def test_residual_zero_vector_rejected(cubic):
    with pytest.raises(ValueError):
        verified_residual(cubic, 1.0, np.zeros(5, dtype=complex), DOUBLE)


def test_residual_rotated_vs_box_paths_agree(cubic, monkeypatch):
    # the real-rotated route and the complex-box route enclose the same
    # quantity on the same (z, v), in both interval backends
    z = 3.0
    v = right_vector(cubic, z, 30, DOUBLE)
    for ctx in (DOUBLE, bigfloat(25)):
        assert _band(cubic, 30, ctx, box=True, rotated=True) is not None
        fast = verified_residual(cubic, z, v, ctx)
        boxy = box_route_residual(monkeypatch, cubic, z, v, ctx)
        assert abs(float(fast.hi) - float(boxy.hi)) < \
            1e-12 * max(1.0, float(fast.hi))


@pytest.mark.parametrize("off_diagonal", ["i", "1"],
                         ids=["real-rotated-band", "complex-band"])
@pytest.mark.parametrize("z", [0.7, 0.7 + 0.3j], ids=["real", "complex"])
def test_integer_domain_banded_residual_brackets_sigma(off_diagonal, z):
    # a tridiagonal plugin over the integers is verified over its band,
    # exactly and with no tail term
    op = band_plugin({-1: off_diagonal, 0: "n*n/10", 1: off_diagonal},
                     domain="integers")
    N = 8
    sig, v = sigma_min(op, z, N, bigfloat(40), want_vector=True)
    assert len(v) == 2 * N + 1
    b = verified_residual(op, z, v, bigfloat(25))
    assert b.lo <= sig <= b.hi
    # a vector must cover a symmetric block {-N..N}
    with pytest.raises(ValueError):
        verified_residual(op, z, v[:-1], bigfloat(25))


def test_residual_mp_matches_sigma(cubic):
    ctx = bigfloat(40)
    with mp.workdps(45):
        z = mpmath.mpf(LAMBDA_1)
        sig, v = sigma_min(cubic, z, 150, ctx, want_vector=True)
        b = verified_residual(cubic, z, v, ctx)
        assert float(b.hi) >= float(sig) * (1 - 1e-10)
        assert float(b.hi) <= float(sig) * (1 + 1e-6) + 1e-30


def test_certify_lambda1_double(cubic):
    z = float(mpmath.mpf(LAMBDA_1))
    v = right_vector(cubic, z, 200, DOUBLE)
    enc = certify_eigenvalue(cubic, cubic_ltp_model(), z, v, 2, DOUBLE,
                             index_n=1)
    assert float(enc.radius) <= 1e-9
    with mp.workdps(40):
        assert enc.contains(mpmath.mpf(LAMBDA_1))
    assert "kappa-bound" in enc.conditional_on
    assert enc.gap_index_m == 2


def test_certify_fails_closed_on_large_residual(cubic):
    # a junk vector has a large residual; with a huge strip constant the
    # inversion formula has no finite value and certification must refuse
    v = np.zeros(30, dtype=complex)
    v[7] = 1.0
    with pytest.raises(CertificationError):
        certify_eigenvalue(cubic, cubic_ltp_model(), 4.1, v, 5, DOUBLE,
                           index_n=4)


def test_certify_gap_membership_error(cubic):
    v = np.zeros(10, dtype=complex)
    v[0] = 1.0
    with pytest.raises(GapMembershipError):
        certify_eigenvalue(cubic, cubic_ltp_model(), 100.0, v, 1, DOUBLE)


def test_enclosure_json_roundtrip_and_schema(cubic):
    z = float(mpmath.mpf(LAMBDA_1))
    v = right_vector(cubic, z, 200, DOUBLE)
    enc = certify_eigenvalue(cubic, cubic_ltp_model(), z, v, 2, bigfloat(30),
                             index_n=1)
    blob = enc.to_json()
    back = Enclosure.from_json(blob)
    assert back.index_n == enc.index_n
    assert float(back.radius) == pytest.approx(float(enc.radius), rel=1e-2)
    with mp.workdps(40):
        assert abs(mpmath.mpf(back.center) - mpmath.mpf(enc.center)) \
            <= 10 ** (-enc._sig_digits() + 3)

    import jsonschema
    from importlib.resources import files
    schema = json.loads(files("specgate").joinpath(
        "schemas/enclosure.schema.json").read_text())
    report = enclosures_to_report([enc], "cubic", "bigfloat:30",
                                  timestamp="2026-01-01T00:00:00Z")
    jsonschema.validate(report, schema)


def test_enclosure_decimal_digit_rule():
    enc = Enclosure("cubic", 1, 1.23456789, 1e-6, 1e-8, 2, 16, ("kappa-bound",))
    out = enc.to_json()
    # ceil(-log10 r) + 2 = 8 significant digits
    digits = out["center"].replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) == 8


def test_eigenvector_error_bound_monotone(cubic):
    lam = [float(mpmath.mpf(s)) for s in CUBIC_EIGENVALUES[:3]]
    encs = [Enclosure("cubic", i + 1, lam[i], 1e-12, 1e-13, i + 2, 30,
                      ("kappa-bound",)) for i in range(3)]
    b1 = eigenvector_error_bound(encs[1], 1e-12, (encs[0], encs[2]))
    b2 = eigenvector_error_bound(encs[1], 1e-10, (encs[0], encs[2]))
    assert 0 < float(b1) < float(b2)


def test_eigenvector_error_bound_zero_residual(cubic):
    lam = [float(mpmath.mpf(s)) for s in CUBIC_EIGENVALUES[:3]]
    encs = [Enclosure("cubic", i + 1, lam[i], 0.0, 0.0, i + 2, 30,
                      ("kappa-bound",)) for i in range(3)]
    b = eigenvector_error_bound(encs[1], 0.0, (encs[0], encs[2]))
    assert float(b) == 0.0


def test_eigenvector_error_bound_overlap_error(cubic):
    lam1 = float(mpmath.mpf(CUBIC_EIGENVALUES[0]))
    a = Enclosure("cubic", 1, lam1, 1e-12, 1e-13, 2, 30, ())
    b = Enclosure("cubic", 2, lam1 + 1e-13, 1.0, 1e-13, 3, 30, ())
    with pytest.raises(ValueError):
        eigenvector_error_bound(a, 1e-12, (None, b))


def test_eigenvector_error_bound_shrinks_with_N(cubic):
    # residuals fall exponentially with N, and the bound follows linearly
    lam = [float(mpmath.mpf(s)) for s in CUBIC_EIGENVALUES[3:6]]
    encs = [Enclosure("cubic", i + 4, lam[i], 1e-13, 1e-14, i + 5, 30,
                      ("kappa-bound",)) for i in range(3)]
    z = lam[1]
    out = []
    for N in (120, 240):
        v = right_vector(cubic, z, N, DOUBLE)
        eps = verified_residual(cubic, z, v, bigfloat(30)).hi
        out.append(float(eigenvector_error_bound(encs[1], eps,
                                                 (encs[0], encs[2]))))
    assert out[1] * 10.0 <= out[0]


def test_longrange_residual_includes_tail():
    lattice = lattice_longrange_operator()
    n = 10
    v = right_vector(lattice, -0.04918293439, n, DOUBLE)
    b = verified_residual(lattice, -0.04918293439, v, bigfloat(25))
    # the certified tail of the padded block widens the bound upward
    tail = lattice.tail_bound(n, tail_padding(lattice, n, 2.0 ** -n))
    assert b.hi - b.lo >= tail


@pytest.mark.parametrize("z", [LATTICE_EIGENVALUES[3].real, 0.7 + 0.3j],
                         ids=["real", "complex"])
def test_lattice_residual_routes(z):
    # the double residual runs over the interval band of the padded block
    # and brackets the smallest singular value; in big floats the
    # mp_residual_rows hint and the band route enclose the same quantity
    lattice = lattice_longrange_operator()
    N = 8
    sig, v = sigma_min(lattice, z, N, DOUBLE, want_vector=True)
    b = verified_residual(lattice, z, v, DOUBLE)
    assert b.lo <= sig <= b.hi
    _assert_hint_matches_band(lattice, z, v)


@pytest.mark.parametrize("z", [LATTICE_EIGENVALUES[3].real, 0.7 + 0.3j],
                         ids=["real", "complex"])
def test_lattice_residual_routes_at_a_larger_N(z):
    # the hint's sweeps over 149 rows against the band route; the double
    # bracket is left to N = 8: at N = 24 LAPACK's sigma falls 7e-17 below
    # the residual of its own vector (eps ||T|| is 1.3e-14 there)
    lattice = lattice_longrange_operator()
    _assert_hint_matches_band(lattice, z, right_vector(lattice, z, 24, DOUBLE))


def _assert_hint_matches_band(lattice, z, v):
    hinted = verified_residual(lattice, z, v, bigfloat(30))
    banded = verified_residual(dataclasses.replace(lattice, hints={}), z, v,
                               bigfloat(30))
    for a, c in ((hinted.lo, banded.lo), (hinted.hi, banded.hi)):
        assert abs(a - c) <= 1e-12 * abs(c)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.integers(1, 12).flatmap(
           lambda n: st.lists(st.tuples(finite, finite),
                              min_size=2 * n + 1, max_size=2 * n + 1)),
       st.integers(0, 30), st.complex_numbers(max_magnitude=10))
@settings(max_examples=60, deadline=None)
def test_lattice_rows_contain_the_exact_rows(v, pad, z):
    # every row of the hint, (re, im) int intervals at scale 2^-p, contains
    # the exact hop sum sum_{j != i} 2^(1-|i-j|) v_j (in rationals) plus
    # the diagonal term (i^2/10 + 2i sin i - z) v_i, the sine at 60 digits,
    # for v on the grid of scale 2^-p
    if not any(x for t in v for x in t):
        v[0] = (1.0, 0.0)
    N = (len(v) - 1) // 2
    p = fixed_bits(30)
    V = _fx_vector([complex(*t) for t in v], p)
    rows_of = lattice_longrange_operator().hints["mp_residual_rows"]
    rows = rows_of((_fx_enclose(z.real, p), _fx_enclose(z.imag, p)), V, -N,
                   pad, p)
    assert len(rows) == len(v) + 2 * pad
    unit = Fraction(1, 2 ** p)
    for r, row in enumerate(rows):
        i = r - N - pad
        exact = [sum((t[k] * unit * Fraction(2) ** (1 - abs(i - j))
                      for j, t in enumerate(V, start=-N) if j != i),
                     Fraction(0)) for k in (0, 1)]
        if -N <= i <= N:
            with mp.workdps(60):
                sine = exact_fraction(2 * mpmath.sin(i))
            dre = Fraction(i * i, 10) - Fraction(z.real)
            dim = sine - Fraction(z.imag)
            vr, vi = (x * unit for x in V[i + N])
            exact = [exact[0] + dre * vr - dim * vi,
                     exact[1] + dre * vi + dim * vr]
        for (lo, hi), value in zip(row, exact):
            assert lo * unit <= value <= hi * unit, (i, pad)


def test_lattice_diagonal_is_the_floor_and_ceiling():
    # i^2/10 by floor and ceiling division; 2 sin i enclosed within a few
    # units of scale 2^-p around its 60-digit value
    p = fixed_bits(30)
    with mp.workdps(60):
        sines = [exact_fraction(2 * mpmath.sin(i)) for i in range(-12, 13)]
    for i, ((rl, rh), (il, ih)), s in zip(
            range(-12, 13), _lattice_diagonal(12, p), sines):
        assert rl == math.floor(Fraction(i * i, 10) * 2 ** p)
        assert rh == math.ceil(Fraction(i * i, 10) * 2 ** p)
        assert il <= s * 2 ** p <= ih and ih - il <= 4


def _dyadic_vectors(n):
    """Complex vectors of n entries k 2^-20, |k| < 2^40, not all zero: on the
    residual's grid exactly, so the rounding of v changes nothing."""
    part = st.integers(-2**40, 2**40).map(lambda k: Fraction(k, 2**20))
    return st.lists(st.tuples(part, part), min_size=n, max_size=n).filter(
        lambda v: any(x for t in v for x in t))


@st.composite
def _band_cases(draw):
    """(bands {offset: (coefficient expression, exact rational function of
    the row index)}, z, v).  Coefficients (a n + b)/q with q odd are not
    dyadic; odd offsets are imaginary or real, so both the real rotated
    band and the complex band are drawn."""
    bands = {}
    for off in draw(st.sets(st.integers(-2, 2), min_size=1)):
        a, b = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
        q = draw(st.sampled_from([3, 7, 9, 11]))
        unit = 1j if off % 2 and draw(st.booleans()) else 1

        def exact(n, a=a, b=b, q=q, unit=unit):
            value = Fraction(a * n + b, q)
            return (0, value) if unit == 1j else (value, 0)
        text = f"({a}*n + {b})/{q}"
        bands[off] = (f"i*{text}" if unit == 1j else text, exact)
    N = draw(st.integers(2, 6))
    z = complex(draw(st.integers(-40, 40)) / 8,
                draw(st.sampled_from([0, 0, 3])) / 8)
    return bands, z, draw(_dyadic_vectors(N))


@given(_band_cases(), st.sampled_from([20, 30]))
@settings(max_examples=40, deadline=None)
def test_fixed_residual_contains_the_exact_residual(case, digits):
    # the big-float residual of a random banded plugin encloses the exact
    # ||(A - z) v|| / ||v|| over the rectangular truncation, in rationals
    bands, z, v = case
    op = band_plugin({off: text for off, (text, _) in bands.items()})
    b = verified_residual(op, z, [complex(*t) for t in v], bigfloat(digits))
    N = len(v)
    num = Fraction(0)
    for i in range(N + op.lower_bandwidth):
        re = im = Fraction(0)
        for j, (vr, vi) in enumerate(v):
            if i - j in bands:
                ar, ai = bands[i - j][1](i)
                re += ar * vr - ai * vi
                im += ar * vi + ai * vr
        if i < N:
            re -= Fraction(z.real) * v[i][0] - Fraction(z.imag) * v[i][1]
            im -= Fraction(z.real) * v[i][1] + Fraction(z.imag) * v[i][0]
        num += re * re + im * im
    ratio2 = num / sum(vr * vr + vi * vi for vr, vi in v)
    lo, hi = exact_fraction(b.lo), exact_fraction(b.hi)
    assert 0 <= lo and lo * lo <= ratio2 <= hi * hi
