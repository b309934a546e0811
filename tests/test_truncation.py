"""Truncations: rectangular geometry, tail padding, square blocks, bands."""

import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest

from specgate import DOUBLE, bigfloat, truncation
from specgate.intervals import fixed_bits
from specgate.operators import (harmonic_oscillator_operator,
                                hermite_cubic_operator,
                                lattice_longrange_operator)
from specgate.sigma import _mp_band
from specgate.truncation import (TailError, _band, _block_geometry,
                                 _box_entries, _build_band, rectangular,
                                 square, tail_padding)

from _util import band_plugin


@pytest.fixture(scope="module")
def cubic():
    return hermite_cubic_operator()


@pytest.fixture(scope="module")
def harmonic():
    return harmonic_oscillator_operator()


@pytest.fixture(scope="module")
def lattice():
    return lattice_longrange_operator()


def test_cubic_shape(cubic):
    T = rectangular(cubic, 0.0, 5)
    assert T.shape == (8, 5)
    _, _, _, _, k, defect = _block_geometry(cubic, 5)
    assert k == 3
    assert defect == 0.0


def test_harmonic_padded_diag(harmonic):
    T = rectangular(harmonic, 0.0, 3)
    assert T.shape == (3, 3)  # bandwidth 0: no padding rows needed
    assert np.allclose(np.diag(T), [1, 3, 5])


def test_shift_subtracted(cubic):
    z = 2.5 + 0.5j
    T = rectangular(cubic, z, 6)
    T0 = rectangular(cubic, 0.0, 6)
    assert np.allclose(np.diag(T[:6, :6]),
                       np.diag(T0[:6, :6]) - z)


def test_lattice_padding_and_defect(lattice):
    n = 12
    T = rectangular(lattice, 0.0, n)
    m = tail_padding(lattice, n, 2.0 ** -n)
    assert T.shape == (2 * (n + m) + 1, 2 * n + 1)
    assert 0 < _block_geometry(lattice, n)[5] <= 2.0 ** -n * (1 + 1e-9)


def test_tail_padding_slope(lattice):
    # one extra row of padding per bit of accuracy, plus a log term
    # (m = 13, 24, 34, 44)
    ms = [tail_padding(lattice, n, 2.0 ** -n) for n in (10, 20, 30, 40)]
    slopes = [(ms[i + 1] - ms[i]) / 10.0 for i in range(3)]
    for s in slopes:
        assert 0.75 <= s <= 1.25


def test_lattice_bench_block(lattice):
    # the eigs default N = 45: 49 padding rows per side (a 189 x 91 block)
    # and the tail defect sqrt(91 * 8/3) 2^-49, widened by 1e-12
    assert tail_padding(lattice, 45, 2.0 ** -45) == 49
    rows, cols, _, _, _, defect = _block_geometry(lattice, 45)
    assert (rows, cols) == (189, 91)
    assert defect == 2.767166394230857e-14


def test_tail_padding_trivial_and_halving(lattice):
    assert tail_padding(lattice, 5, 1e9) == 0
    m1 = tail_padding(lattice, 5, 1e-6)
    m2 = tail_padding(lattice, 5, 5e-7)
    assert 0 <= m2 - m1 <= 3


def test_tail_padding_eps_validation(lattice):
    with pytest.raises(ValueError):
        tail_padding(lattice, 5, 0.0)


def test_square_examples(harmonic, cubic):
    S = square(harmonic, 0.0, 2)
    assert np.allclose(S, np.diag([1.0, 3.0]))
    Sc = square(cubic, 0.0, 40)
    assert np.allclose(Sc, Sc.T)  # complex symmetric


def test_square_spurious_imaginary(cubic):
    S = square(cubic, 0.0, 60)
    eigs = np.linalg.eigvals(S)
    window = eigs[(eigs.real >= 0) & (eigs.real <= 40)]
    assert np.max(np.abs(window.imag)) > 0.1


def test_nesting_monotone(cubic):
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = complex(rng.uniform(0, 15), rng.uniform(-4, 4))
        N = int(rng.integers(10, 60))
        TN = rectangular(cubic, z, N)
        TN1 = rectangular(cubic, z, N + 1)
        sN = np.linalg.svd(TN, compute_uv=False)[-1]
        sN1 = np.linalg.svd(TN1, compute_uv=False)[-1]
        assert sN1 <= sN * (1 + 1e-11) + 1e-14


@pytest.mark.parametrize("name, N", [("cubic", 200), ("harmonic", 30),
                                     ("lattice", 30)])
def test_square_is_a_block_of_rectangular(name, N, cubic, harmonic, lattice):
    # the two dense double assemblies agree bit for bit at a complex shift:
    # the square block is rows d .. d + cols of the rectangular one, where
    # d = col0 - row0 is the array row of the first column's diagonal
    op = {"cubic": cubic, "harmonic": harmonic, "lattice": lattice}[name]
    z = 1.5 + 0.5j
    _, cols, row0, col0, _, _ = _block_geometry(op, N)
    d = col0 - row0
    assert np.array_equal(square(op, z, N), rectangular(op, z, N)[d:d + cols])


def test_band_holds_entries_at_each_precision(cubic, lattice):
    # per operator, one N, three arithmetics in a row: each cached band
    # holds the unshifted rectangular truncation at its own precision (for
    # the long-range lattice, every row of the padded block): the dense
    # double truncation, and in big floats op.entry at the context's
    # precision.  The rotated band holds the exact real values
    # i^(c-r) H[r, c] (none exists for the lattice, whose diagonal is
    # complex)
    N = 12
    for op, ctx in itertools.product((cubic, lattice),
                                     (DOUBLE, bigfloat(20), bigfloat(50))):
        read = _band if ctx.is_double else _mp_band
        band = read(op, N, ctx)
        rot = read(op, N, ctx, rotated=True)
        rows, cols, row0, col0, _, _ = _block_geometry(op, N)
        assert len(band) == cols and (rot is None) == (op is lattice)
        unit = 1j if ctx.is_double else mpmath.mpc(0, 1)
        with ctx.workprec():
            if ctx.is_double:
                T = rectangular(op, 0, N)
            else:
                T = {(i, j): op.entry(row0 + i, col0 + j, ctx)
                     for i in range(rows) for j in range(cols)}
            dense = [[0] * cols for _ in range(rows)]
            for j, col in enumerate(band):
                if op.banded:
                    assert [i for i, _ in col] == list(op.band_rows(j))
                for i, v in col:
                    dense[i][j] = v
            assert all(dense[i][j] == T[i, j]
                       for i in range(rows) for j in range(cols))
            for j, (col, rcol) in enumerate(zip(band, rot or [])):
                for (i, v), (_, r) in zip(col, rcol):
                    assert unit ** (j - i) * v == r


def test_band_kind_follows_the_context(cubic):
    # a double context builds the entry band (complex doubles, and floats
    # once rotated), a big-float one the box band (int intervals: (lo, hi)
    # rotated, (re lo, re hi, im lo, im hi) otherwise)
    values = [v for col in _band(cubic, 10, DOUBLE) for _, v in col]
    assert all(type(v) is complex for v in values)
    values = [v for col in _band(cubic, 10, DOUBLE, rotated=True)
              for _, v in col]
    assert all(type(v) is float for v in values)
    for rotated, width in ((True, 2), (False, 4)):
        band = _band(cubic, 10, bigfloat(20), rotated=rotated)
        for col in band:
            for _, v in col:
                assert len(v) == width
                assert all(type(e) is int for e in v)
                assert all(lo <= hi for lo, hi in zip(v[0::2], v[1::2]))


@pytest.mark.parametrize("digits", [27, 60])
def test_fixed_band_is_two_grid_units_wide(cubic, digits):
    # the big-float box band of the rotated cubic at N = 200: every entry
    # is an int interval at most 2 units of 2^-p wide (the mpmath.iv
    # enclosures it replaces reached 2.2e12 units) around the value
    # i^(c-r) H[r, c] computed at 2p bits
    p = fixed_bits(digits)
    band = _band(cubic, 200, bigfloat(digits), rotated=True)
    ref = bigfloat(math.ceil(2 * p / math.log2(10)))
    unit = mpmath.mpc(0, 1)
    with ref.workprec():
        for j, col in enumerate(band):
            for i, (lo, hi) in col:
                exact = (unit ** (j - i) * cubic.entry(i, j, ref)).real
                assert hi - lo <= 2 and lo <= exact * 2 ** p <= hi, (i, j)


def _integers_plugin():
    # rational and square-root coefficients, one of them imaginary: each
    # box is the floor and ceiling of its entry, as the cubic's are
    return band_plugin({-2: "1/3", 0: "n", 1: "i*sqrt(n^2 + 1)"},
                       domain="integers")


@pytest.mark.parametrize("make", [hermite_cubic_operator,
                                  harmonic_oscillator_operator,
                                  _integers_plugin],
                         ids=["cubic", "harmonic", "integers-plugin"])
def test_store_bands_equal_the_direct_builds(make):
    # the entry store starts at 40 digits at N = 60; the bands shifted out
    # of it equal the direct builds at their own digits, rotated and
    # complex, also at N = 90, which extends the store.  entry_box runs
    # once per entry of the N = 90 block
    ref, calls = make(), []

    def counting(i, j, lib):
        calls.append((i, j))
        return ref.entry_box(i, j, lib)

    op = dataclasses.replace(ref, entry_box=counting)
    q = fixed_bits(40)
    assert _box_entries(op, 60, q)[0] == q
    for N, digits, rotated in itertools.product((60, 90), (27, 28, 33, 40),
                                                (True, False)):
        ctx = bigfloat(digits)
        assert _band(op, N, ctx, rotated) == \
            _build_band(ref, N, ctx, True, rotated), (N, digits, rotated)
    q, entries = _box_entries(op, 90, fixed_bits(27))
    assert q == fixed_bits(40)
    assert len(calls) == len(set(calls)) == len(entries)
    assert _band(op, 90, bigfloat(27), rotated=True) is not None


def test_shifted_transcendental_bands_enclose_the_finer_ones():
    # mpmath.iv encloses a sin or a cos more widely than its floor and
    # ceiling, so a shifted band may differ from the direct build; each of
    # its intervals, scaled back, holds the store's finer one
    op = band_plugin({-1: "1/7", 0: "sin(n)", 1: "1/3 + i*cos(n)"})
    q = fixed_bits(40)
    fine = _band(op, 30, bigfloat(40))
    assert _box_entries(op, 30, q)[0] == q
    for digits in (27, 33):
        k = q - fixed_bits(digits)
        coarse = _band(op, 30, bigfloat(digits))
        for fcol, ccol in zip(fine, coarse):
            assert [i for i, _ in fcol] == [i for i, _ in ccol]
            for (_, f), (_, c) in zip(fcol, ccol):
                for m in (0, 2):
                    assert c[m] << k <= f[m] <= f[m + 1] <= c[m + 1] << k


def test_longrange_geometry_searches_its_padding_once(monkeypatch):
    # the padding search runs once per (operator object, N)
    calls = []

    def counting(*args):
        calls.append(args)
        return tail_padding(*args)

    monkeypatch.setattr(truncation, "tail_padding", counting)
    op = lattice_longrange_operator()
    first = _block_geometry(op, 12)
    assert _block_geometry(op, 12) == first
    assert len(calls) == 1
    _block_geometry(op, 13)
    assert _block_geometry(lattice_longrange_operator(), 12) == first
    assert len(calls) == 3
