"""Smallest singular values: oracles, monotonicity, precision consistency."""

import math

import mpmath
import numpy as np
import pytest

from specgate import DOUBLE, bigfloat, sigma
from specgate.operators import (StructureError, harmonic_oscillator_operator,
                                hermite_cubic_operator,
                                lattice_longrange_operator)
from specgate.sigma import (_double_band, _invert_blocks, _mp_band,
                            banded_sigma_batch, bordered_lstsq, gamma,
                            left_null_vector, right_vector, sigma_min,
                            smallest_singular)
from specgate.truncation import _band, rectangular
from specgate.verify import verified_residual

from _util import band_plugin, box_route_residual

LAMBDA_1 = "1.156267071988113293799219177999"
LAMBDA_5 = 15.291553750392532


@pytest.fixture(scope="module")
def cubic():
    return hermite_cubic_operator()


@pytest.fixture(scope="module")
def harmonic():
    return harmonic_oscillator_operator()


def test_harmonic_sigma_one(harmonic):
    for N in (2, 7, 30):
        T = rectangular(harmonic, 2.0, N)
        sig, _ = smallest_singular(T)
        assert sig == pytest.approx(1.0, abs=1e-12)


def test_cubic_sigma_small_at_eigenvalue(cubic):
    # gamma collapses at the lowest eigenvalue once the basis resolves it
    s = gamma(cubic, float(mpmath.mpf(LAMBDA_1)), 150, DOUBLE)
    assert s < 1e-8


def test_random_matrix_vs_normal_equations_oracle():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    sig, _ = smallest_singular(A)
    lam = np.linalg.eigvalsh(A.conj().T @ A)[0]
    assert sig == pytest.approx(math.sqrt(lam), rel=1e-10)


def test_residual_identity(cubic):
    T = rectangular(cubic, 4.0, 60)
    sig, v = smallest_singular(T)
    r = np.linalg.norm(T @ v)
    assert r == pytest.approx(sig, rel=1e-12, abs=1e-15)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_gamma_monotone_in_N(cubic):
    z = 10 + 0.5j
    g = [gamma(cubic, z, N, DOUBLE) for N in (40, 80, 160)]
    assert g[0] >= g[1] - 1e-13
    assert g[1] >= g[2] - 1e-13


def test_gamma_harmonic_at_zero(harmonic):
    for N in (2, 5, 40):
        assert gamma(harmonic, 0.0, N, DOUBLE) == pytest.approx(1.0, abs=1e-12)


def test_gamma_off_eigenvalue(cubic):
    # half a unit away from an eigenvalue gamma sits near dist/kappa_5
    # (about 6e-4); the point is that it stays far above the convergence
    # floor at the eigenvalue itself (~1e-13 at this N)
    for dz in (-0.5, 0.5):
        g = gamma(cubic, LAMBDA_5 + dz, 200, DOUBLE)
        assert g > 1e-4


def test_upper_bound_property_random_z(cubic):
    from _util import sigma_noise_allowance
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = complex(rng.uniform(0, 40), rng.uniform(-10, 10))
        g3 = gamma(cubic, z, 300, DOUBLE)
        g6 = gamma(cubic, z, 600, DOUBLE)
        assert g6 <= g3 + sigma_noise_allowance(600, z)


def test_bigfloat_double_consistency(cubic):
    ctx50 = bigfloat(50)
    for z in (0.5, 3.0, 9.0 + 1.0j):
        gd = gamma(cubic, z, 60, DOUBLE)
        gm = gamma(cubic, z, 60, ctx50)
        if gd > 1e-8:
            assert abs(float(gm) - gd) < 1e-12


def test_bigfloat_complex_shift_path(cubic):
    # complex shift disables the real rotation; the generic banded path runs
    ctx = bigfloat(30)
    z = mpmath.mpc(3.0, 0.25)
    gm = gamma(cubic, z, 50, ctx)
    gd = gamma(cubic, complex(3.0, 0.25), 50, DOUBLE)
    assert abs(float(gm) - gd) < 1e-11


def test_left_null_vector_symmetric_shortcut(cubic):
    z = 4.0
    v = right_vector(cubic, z, 40, DOUBLE)
    w = left_null_vector(cubic, z, 40, DOUBLE)
    assert np.allclose(w, np.conj(v))


def test_left_null_vector_bigfloat_shortcut_is_exact(cubic):
    # the 30-digit left vector is the exact conjugate of the right one at
    # the default global precision of 53 bits
    z, ctx = mpmath.mpc(3.0, 0.25), bigfloat(30)
    v = right_vector(cubic, z, 30, ctx)
    w = left_null_vector(cubic, z, 30, ctx)
    with mpmath.workdps(60):
        assert all(a.real == b.real and a.imag + b.imag == 0
                   for a, b in zip(w, v))


def test_left_null_vector_harmonic(harmonic):
    v = right_vector(harmonic, 1.0, 10, DOUBLE)
    w = left_null_vector(harmonic, 1.0, 10, DOUBLE)
    e0 = np.zeros(10)
    e0[0] = 1.0
    assert abs(abs(np.vdot(v, e0)) - 1.0) < 1e-10
    assert abs(abs(np.vdot(np.asarray(w), e0)) - 1.0) < 1e-10


def test_kernel_shortcut_exact_shift(harmonic):
    # shift exactly on a diagonal entry: zero pivot path returns sigma 0
    sig, v = sigma_min(harmonic, 5.0, 10, bigfloat(25), want_vector=True)
    assert float(sig) < 1e-20
    # kernel direction e_2
    mags = [abs(complex(t)) for t in v]
    assert mags[2] == pytest.approx(1.0, abs=1e-12)


def test_bigfloat_sigma_refuses_a_longrange_spec():
    # big-float sigma reads only the band of a banded spec; the lattice's
    # padded block is dense, so it is refused before any work
    with pytest.raises(StructureError, match="long-range"):
        sigma_min(lattice_longrange_operator(), 0.5 + 0.5j, 12, bigfloat(30))


def _check_against_lapack(op, z, N, ctx, rel):
    sig, v = sigma_min(op, z, N, ctx, want_vector=True)
    T = rectangular(op, complex(z), N)
    s_ref = np.linalg.svd(T, compute_uv=False)[-1]
    assert float(sig) == pytest.approx(s_ref, rel=rel)
    vd = np.array([complex(t) for t in v])
    assert np.linalg.norm(vd) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(T @ vd) == pytest.approx(float(sig), rel=1e-6)


def test_smallest_singular_banded_double_path(cubic):
    # a double shift on a banded spec runs the batched banded QR
    T = rectangular(cubic, 2.0, 450)
    s_ref = np.linalg.svd(T, compute_uv=False)[-1]
    sig, _ = sigma_min(cubic, 2.0, 450, DOUBLE)
    assert sig == pytest.approx(s_ref, rel=1e-6)
    # the vector request takes the same banded path
    _check_against_lapack(cubic, 2.0, 450, DOUBLE, rel=1e-6)


@pytest.mark.parametrize("z", [2.0, 3.0 + 0.25j],
                         ids=["real-mpf", "complex-mpc"])
def test_banded_sigma_bigfloat_matches_lapack(cubic, z):
    # a real shift takes the real rotated form, a complex one complex mpc
    _check_against_lapack(cubic, z, 60, bigfloat(30), rel=1e-9)


@pytest.mark.parametrize("bands, ctx, N", [
    ({0: "n + i"}, bigfloat(25), 10), ({0: "2*n + 1"}, DOUBLE, 450)],
    ids=["complex-mpc", "complex-double"])
def test_kernel_shortcut_complex_arithmetic(bands, ctx, N):
    # a complex truncation with an exact zero pivot: entry (2, 2) is 2 + i
    # at shift 2 + i (no real rotated band: complex mpc), 5 at shift 5 (the
    # double batch hands the shift to a dense SVD)
    op = band_plugin(bands)
    z = complex(op.entry(2, 2, DOUBLE))
    if not ctx.is_double:
        assert _mp_band(op, N, ctx, rotated=True) is None
    sig, v = sigma_min(op, z, N, ctx, want_vector=True)
    assert float(sig) < 1e-20
    mags = [abs(complex(t)) for t in v]
    assert mags[2] == pytest.approx(1.0, abs=1e-12)


def test_zero_pivot_inside_a_batch(monkeypatch):
    # shift 5 is the entry (2, 2) of a diagonal plugin, among regular
    # shifts of one batch: only it meets an exact zero pivot and takes the
    # dense fallback; every other shift keeps its single-shift value and
    # vector bit for bit
    op = band_plugin({0: "2*n + 1"})
    N, zs = 450, [2.5, 4 + 0.5j, 5.0, 6.1, 9 - 1j, 0.3 + 2j]
    masks = []
    panel_qr = sigma._panel_qr

    def recording(*args):
        dinv, corner, singular = panel_qr(*args)
        masks.append(singular.tolist())
        return dinv, corner, singular

    monkeypatch.setattr(sigma, "_panel_qr", recording)
    sig, vectors = banded_sigma_batch(op, zs, N, want_vectors=True)
    assert masks == [[z == 5.0 for z in zs]]
    assert sig[2] < 1e-20
    assert abs(vectors[2][2]) == pytest.approx(1.0, abs=1e-12)
    for k, z in enumerate(zs):
        if k != 2:
            one, v = banded_sigma_batch(op, [z], N, want_vectors=True)
            assert one[0] == sig[k] and np.array_equal(v[0], vectors[k]), z


# cubic shifts near an eigenvalue, which stop after at most 3 steps, among
# shifts left of the spectrum or off the real axis, which take 8 to 14
POOL_SHIFTS = [1.16, -2 + 2j, 4.1, 2j, 7.56, -4 + 0j, 11.3, -2j, 15.29,
               -2 - 4j, 4.2, 4j, 1.2, -2 + 0j]


@pytest.fixture(scope="module")
def pooled(cubic):
    """(N, refills, pool widths, values, vectors) of POOL_SHIFTS batched
    through a pool of at most 4 slots."""
    N, refills, pools = 150, [], []
    panel_qr = sigma._panel_qr

    def recording(blocks, diag, z, lo, bw, dinv, corner):
        refills.append(len(z))
        pools.append(dinv.base.shape[1])
        return panel_qr(blocks, diag, z, lo, bw, dinv, corner)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sigma, "BATCH_BYTES", 1 << 17)
        patch.setattr(sigma, "_panel_qr", recording)
        sig, vectors = banded_sigma_batch(cubic, POOL_SHIFTS, N,
                                          want_vectors=True)
    return N, refills, pools, sig, vectors


def test_pool_refills_match_single_shifts(cubic, pooled):
    # slots retire out of order and refill while others still iterate;
    # each shift keeps its single-shift value and vector bit for bit
    N, refills, pools, sig, vectors = pooled
    assert max(pools) <= 4 and sum(refills) == len(POOL_SHIFTS)
    assert all(k <= pool for k, pool in zip(refills, pools))
    assert len(refills) >= 3 and min(refills[1:-1]) < pools[0]
    for k, z in enumerate(POOL_SHIFTS):
        one, v = banded_sigma_batch(cubic, [z], N, want_vectors=True)
        assert one[0] == sig[k] and np.array_equal(v[0], vectors[k]), z


def test_pool_reports_the_norm_of_its_vector(cubic, pooled):
    # the stop reads rho = ||y|| / ||x||, but each value is ||T v|| of the
    # unit vector returned with it: bit for bit the band's product, and
    # the dense product to 1e-13 relative, past the rounding of the product
    # itself (which near an eigenvalue is the larger)
    N, _, _, sig, vectors = pooled
    band, _, kd = _double_band(cubic, N)
    for z, s, v in zip(POOL_SHIFTS, sig, vectors):
        assert sigma._band_norm(band, kd, np.array([z]), v[None])[0] == s
        T = rectangular(cubic, z, N)
        rounding = 2.0 ** -52 * np.linalg.norm(np.abs(T) @ np.abs(v))
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
        assert abs(np.linalg.norm(T @ v) - s) <= 1e-13 * s + rounding, z


def test_double_band_is_cached_read_only(cubic):
    # one slot of the truncation cache per (op, N), holding the array only
    from specgate.truncation import _base_cache
    band = _double_band(cubic, 37)[0]
    assert _double_band(cubic, 37)[0] is band and not band.flags.writeable
    assert sum(key[0] == id(cubic) and 37 in key for key in _base_cache) == 1


@pytest.mark.parametrize("nb, ns", [(1, 1), (2, 7), (5, 3)])
def test_invert_blocks(nb, ns):
    # upper-triangular blocks of bandwidth 6 in 12 x 12, over random
    # entries below the diagonal that the inversion must not read
    panel, bw = 12, 6
    rng = np.random.default_rng(100 * nb + ns)
    d = (rng.normal(size=(nb, ns, panel, panel))
         + 1j * rng.normal(size=(nb, ns, panel, panel)))
    upper = np.triu(d) - np.triu(d, bw + 1)
    inv = d.copy()
    assert not _invert_blocks(inv, bw).any()
    for D, X in zip(upper.reshape(-1, panel, panel),
                    inv.reshape(-1, panel, panel)):
        err = np.linalg.norm(D @ X - np.eye(panel), 2)
        assert err <= 1e-12 * np.linalg.cond(D)
    # an exact zero pivot: its mask, and only its own stack non-finite
    with_zero = d.copy()
    with_zero[-1, -1, 4, 4] = 0
    with np.errstate(all="ignore"):  # as in banded_sigma_batch
        zero = _invert_blocks(with_zero, bw)
    expected = np.zeros((nb, ns), dtype=bool)
    expected[-1, -1] = True
    assert np.array_equal(zero, expected)
    assert not np.isfinite(with_zero[-1, -1]).all()
    assert np.array_equal(with_zero[~expected], inv[~expected])


def _bordered(A, b, c):
    """[[A, b], [c^T, 0]] as a dense matrix."""
    return np.block([[A, b[:, None]], [c[None], np.zeros((1, 1))]])


def _assert_lstsq(J, solve, rng):
    f = rng.normal(size=len(J)) + 1j * rng.normal(size=len(J))
    x = solve(f)
    ref = np.linalg.lstsq(J, f, rcond=None)[0]
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("lo", [0, 1, 3])
@pytest.mark.parametrize("up", [0, 3])
@pytest.mark.parametrize("ncols", [5, 40, 150])
@pytest.mark.parametrize("zero_column", [False, True],
                         ids=["regular", "zero-column"])
def test_bordered_lstsq_matches_lstsq(lo, up, ncols, zero_column):
    # a random banded block with the naturals' geometry (diagonal on band
    # row up) under a dense border; with an exactly zero column the block
    # is singular and only the border keeps J0 of full rank
    rng = np.random.default_rng(1000 * lo + 10 * up + ncols)
    bw, rows = lo + up, ncols + lo
    band = rng.normal(size=(bw + 1, ncols)) \
        + 1j * rng.normal(size=(bw + 1, ncols))
    band[up] += 8.0
    ix = np.arange(bw + 1)[:, None] + np.arange(ncols) - up  # array rows
    band[ix < 0] = 0
    z = 0.3 - 0.2j
    if zero_column:
        band[:, ncols // 2] = 0
        z = 0.0
    b = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    c = rng.normal(size=ncols) + 1j * rng.normal(size=ncols)
    A = np.zeros((rows, ncols), dtype=complex)
    A[ix[ix >= 0], np.broadcast_to(np.arange(ncols), ix.shape)[ix >= 0]] = \
        band[ix >= 0]
    A[np.arange(ncols), np.arange(ncols)] -= z
    _assert_lstsq(_bordered(A, b, c), bordered_lstsq(band, up, up, z, b, c),
                  rng)


@pytest.mark.parametrize("z", [0.7 + 0.1j, 2.0])
def test_bordered_lstsq_integer_domain(z):
    # over the integers the block keeps every row of its columns' bands,
    # so its top band row lies above the diagonal's (up = 0 in array rows)
    op, N = band_plugin({-2: "1/3", 0: "n", 1: "1/2"}, domain="integers"), 12
    band, up, kd = _double_band(op, N)
    assert up == 0 and kd == op.upper_bandwidth > 0
    A = rectangular(op, z, N)
    rng = np.random.default_rng(7)
    b = rng.normal(size=len(A)) + 1j * rng.normal(size=len(A))
    c = rng.normal(size=A.shape[1]) + 1j * rng.normal(size=A.shape[1])
    _assert_lstsq(_bordered(A, b, c), bordered_lstsq(band, up, kd, z, b, c),
                  rng)


@pytest.mark.parametrize("bands, real_band", [
    ({-1: "i", 0: "n", 1: "i"}, True),
    ({-1: "1/2", 0: "n + i/10", 1: "1/2"}, False)],
    ids=["real-rotated-band", "complex-band"])
def test_derived_rotation_on_plugins(bands, real_band, monkeypatch):
    # whether the rotated band is real is read off the entries; both
    # routes of sigma and of the residual agree with their references
    op = band_plugin(bands)
    ctx, N, z = bigfloat(30), 40, 2.3
    assert (_mp_band(op, N, ctx, rotated=True) is not None) == real_band
    assert (_band(op, N, ctx, rotated=True) is not None) == real_band
    _check_against_lapack(op, z, N, ctx, rel=1e-9)
    v = right_vector(op, z, N, ctx)
    for rctx in (DOUBLE, bigfloat(25)):
        fast = verified_residual(op, z, v, rctx)
        boxy = box_route_residual(monkeypatch, op, z, v, rctx)
        assert fast.lo <= boxy.hi and boxy.lo <= fast.hi
        assert abs(float(fast.hi) - float(boxy.hi)) < 1e-12 * float(fast.hi)
