"""Solver pipelines: localization, bootstrap, grids, condition numbers."""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from mpmath import mp

import specgate
from specgate import DOUBLE, bigfloat, sigma, solver
from specgate.cli import _candidates, _certify_candidates
from specgate.ltp import (cubic_ltp_model, dist_bound, harmonic_ltp_model,
                          model_from_json)
from specgate.operators import (harmonic_oscillator_operator,
                                hermite_cubic_operator,
                                lattice_longrange_operator)
from specgate.sigma import banded_sigma_batch, gamma, right_vector, sigma_min
from specgate.solver import (DIP_CENSUS_TAG, GapScanError, _census,
                             _check_separation, _gap_check, _locate_dip,
                             _refine_eigenpair,
                             _residual_target, bootstrap_certify,
                             condition_number, evaluate_eigenfunction,
                             pseudospectrum_grid)
from specgate.truncation import _band, rectangular, square
from specgate.verify import CertificationError, Enclosure, verified_residual

from _util import (CUBIC_EIGENVALUES, CUBIC_PRINT_SLACK,
                   LATTICE_EIGENVALUES, LATTICE_PRINT_SLACK, band_plugin,
                   fit_slope, sigma_noise_allowance)

LAMBDA_1 = float(mpmath.mpf(CUBIC_EIGENVALUES[0]))
LAMBDA_5 = float(mpmath.mpf(CUBIC_EIGENVALUES[4]))


@pytest.fixture(scope="module")
def cubic():
    return hermite_cubic_operator()


@pytest.fixture(scope="module")
def harmonic():
    return harmonic_oscillator_operator()


@pytest.fixture(scope="module")
def cubic_model():
    return cubic_ltp_model()


# -- the dip census ---------------------------------------------------------

def test_locate_dip_harmonic(harmonic):
    z, g = _locate_dip(harmonic, harmonic_ltp_model(), 2.0, 4.0, 20)
    assert z == pytest.approx(3.0, abs=1e-9)
    assert 2.0 < z < 4.0
    assert g < 1e-9


def test_locate_dip_cubic_lambda1(cubic, cubic_model, monkeypatch):
    # the zoom stops inside Gauss-Newton's basin, not at the floor of gamma:
    # lambda_1 lies within half the last census's bracket w of the start,
    # w meets the stop rule w^2 <= 2 C (g[k-1] + g[k+1]), and refining the
    # start lands on lambda_1
    last = []
    census = solver._census

    def recorded(*args, **kwargs):
        last[:] = census(*args, **kwargs)
        return tuple(last)

    monkeypatch.setattr(solver, "_census", recorded)
    z, _ = _locate_dip(cubic, cubic_model, 0.5, 2.6, 200)
    ts, g, _ = last
    k = int(np.flatnonzero(ts == z)[0])
    w = ts[k + 1] - ts[k - 1]
    assert w ** 2 <= 2 * solver.ZOOM_SLOPE_FRACTION * (g[k - 1] + g[k + 1])
    assert abs(z - LAMBDA_1) < w / 2
    v = right_vector(cubic, z, 200, DOUBLE)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
    zr, vr = _refine_eigenpair(cubic, 200, z, v, 30)
    with mp.workdps(40):
        assert abs(zr - mpmath.mpf(CUBIC_EIGENVALUES[0])) < 1e-14
    assert verified_residual(cubic, zr, vr, bigfloat(30)).hi < 1e-15


#: Radii of bootstrap_certify(cubic, 3) when every dip was zoomed to 1e-9.
ZOOMED_TO_1E9_RADII = (6.6207289954693225e-15, 2.3861240639285133e-13,
                       3.4819677512488314e-12)


def test_zoom_stops_inside_the_newton_basin(cubic, cubic_model, monkeypatch):
    # stopping the zoom at 5 times the dip's slope, inside the Gauss-Newton
    # basin, takes at most 7 censuses for the first three eigenvalues (36
    # with a 1e-9 zoom) and widens no radius by more than 1e-6 relative
    calls = []
    census = solver._census

    def counted(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)

    monkeypatch.setattr(solver, "_census", counted)
    encs = bootstrap_certify(cubic, cubic_model, 3, DOUBLE)
    assert len(calls) <= 7
    for e, zoomed in zip(encs, ZOOMED_TO_1E9_RADII):
        assert float(e.radius) <= (1 + 1e-6) * zoomed, e.index_n


def test_dip_census_finds_both_dips(cubic, cubic_model):
    ts, _, dips = _census(cubic, cubic_model, 3.0, 9.0, 200)
    minima = [ts[k] for k in dips]
    assert any(abs(m - 4.1) < 0.4 for m in minima)
    assert any(abs(m - 7.56) < 0.4 for m in minima)


def test_locate_dip_argmin_stable(cubic, cubic_model):
    tol = 1e-8
    z, _ = _locate_dip(cubic, cubic_model, 0.5, 2.6, 150)
    z2, _ = _locate_dip(cubic, cubic_model, 0.5 + tol / 10, 2.6 - tol / 10,
                        150)
    assert abs(z - z2) < tol


def test_locate_dip_fails_closed_without_a_dip(cubic, cubic_model):
    # gamma falls monotonically from 8.5 to the eigenvalue 7.56 at the end
    with pytest.raises(GapScanError) as exc:
        _locate_dip(cubic, cubic_model, 8.5, 9.3, 200)
    assert exc.value.at is None


@pytest.mark.parametrize("lo, hi, inside", [
    (0.0, 8.0, (1, 2, 3)), (5.0, 16.0, (3, 4, 5)), (20.0, 30.0, (7, 8)),
    (40.0, 53.5, None)])
def test_gap_check_flags_cubic_eigenvalues(cubic, cubic_model, lo, hi,
                                           inside):
    # each window holds eigenvalues: the first dip flags the lowest one
    with pytest.raises(GapScanError) as exc:
        _gap_check(cubic, cubic_model, lo, hi, 400)
    if inside is not None:
        first = float(mpmath.mpf(CUBIC_EIGENVALUES[inside[0] - 1]))
        assert abs(exc.value.at - first) < cubic_model.gap_floor / 8
    assert lo < exc.value.at < hi


def test_gap_check_flags_the_harmonic_eigenvalues(harmonic):
    model = harmonic_ltp_model()
    _, _, dips = _census(harmonic, model, 0.0, 4.5, 200)
    assert len(dips) == 2
    with pytest.raises(GapScanError) as exc:
        _gap_check(harmonic, model, 0.0, 4.5, 200)
    assert exc.value.at == 1.0


@pytest.mark.parametrize("n", range(1, 11))
def test_gap_check_passes_the_true_gaps(cubic, cubic_model, n):
    # [0, lambda_1], [lambda_1, lambda_2], ..., [lambda_9, lambda_10] at the
    # bootstrap's first N for the index
    lo = 0.0 if n == 1 else float(mpmath.mpf(CUBIC_EIGENVALUES[n - 2]))
    hi = float(mpmath.mpf(CUBIC_EIGENVALUES[n - 1]))
    _gap_check(cubic, cubic_model, lo, hi, max(200, 40 * n))


# -- eigenpair refinement ---------------------------------------------------

@pytest.mark.parametrize("phase", [1, -1, 1j, np.exp(0.7j)])
def test_refine_eigenpair_harmonic_oracle(harmonic, phase):
    # the rotation i^-m turns a real start vector at odd m into an
    # imaginary one: its phase must be fixed before the real part is taken
    v0 = np.zeros(40, dtype=complex)
    v0[1], v0[2] = phase, 1e-8 * phase
    z, v = _refine_eigenpair(harmonic, 40, 3 + 1e-7, v0, 30)
    with mp.workdps(40):
        assert abs(z - 3) < mpmath.mpf("1e-25")
        assert max(abs(t) for m, t in enumerate(v) if m != 1) \
            < mpmath.mpf("1e-25") * abs(v[1])


def test_refine_eigenpair_complex_band():
    # a real symmetric plugin whose rotated band is not real: the refinement
    # runs on the complex band; the spill row's residual is negligible at
    # N = 20, so it reaches the square block's eigenvalue
    op = band_plugin({0: "2*n + 1", 1: "1/2", -1: "1/2"})
    N = 20
    assert _band(op, N, bigfloat(35), rotated=True) is None
    lam = np.linalg.eigvalsh(square(op, 0.0, N).real)[1]
    z0 = lam + 1e-7
    z, v = _refine_eigenpair(op, N, z0, right_vector(op, z0, N, DOUBLE), 30)
    z = z.real
    assert abs(float(z) - lam) < 1e-12
    assert verified_residual(op, z, v, bigfloat(40)).hi <= 1e-25


def test_refine_eigenpair_cubic_verifies_on_the_rectangle(cubic):
    # rotated back to the operator's basis, the refined vector has a small
    # verified residual on the rectangular truncation, spill rows included
    z0, _ = _locate_dip(cubic, cubic_ltp_model(), 0.5, 2.6, 200)
    v0 = right_vector(cubic, z0, 200, DOUBLE)
    z, v = _refine_eigenpair(cubic, 200, z0, v0, 30)
    with mp.workdps(40):
        assert abs(z - mpmath.mpf(CUBIC_EIGENVALUES[0])) < 1e-14
    assert verified_residual(cubic, z, v, bigfloat(30)).hi < 1e-15


#: lambda_12 of the cubic to 40 digits.  Not a cited value: it was computed
#: at a re-anchor by banded square-truncation RQI at 70 digits, N = 500 to
#: 900, and N = 500 and 800 agree in all 40 digits (ROADMAP.md, "Reference
#: values").
LAMBDA_12 = "47.12310557391329824062367823302007228362"


#: lambda_13 of the cubic to 42 digits.  Not a cited value: it is the
#: center certified by bootstrap_certify(cubic, 17), rounded to nearest, and
#: the big-float NII prototype agrees in every digit it printed (ROADMAP.md,
#: "Reference values").
LAMBDA_13 = "52.0814360526657254942124241675756078009139"


def test_refine_converges_from_the_index_12_census_start(cubic):
    # the census start of index 12 at N = 480 lies 2.2e-6 from lambda_12:
    # the first full step raises ||F||_2 14 fold, and the full steps on the
    # re-factored Jacobian then converge, 3.3e-14 -> 4.6e-13 -> 2.0e-25 ->
    # 1.32e-30, and z ends 1.1e-38 from lambda_12
    z0 = 47.12310340690898
    z, v = _refine_eigenpair(cubic, 480, z0, right_vector(cubic, z0, 480,
                                                          DOUBLE), 49)
    assert verified_residual(cubic, z, v, bigfloat(49)).hi < 2e-30
    with mp.workdps(60):
        assert abs(z - mpmath.mpf(LAMBDA_12)) < 1e-36


@pytest.mark.parametrize("z0", [52.08143923954884, 52.21899695117149],
                         ids=["zoomed", "unzoomed"])
def test_refine_converges_from_the_index_13_census_starts(cubic, z0):
    # the zoomed census start of index 13 at N = 520 lies 3.2e-6 from
    # lambda_13, and the first census dip 0.14 away.  Full steps converge
    # from both to a verified residual of 8.05e-33; a search that shortens
    # each step until ||F||_2 falls stalls at 2.7e-14 and 8.0e-11
    z, v = _refine_eigenpair(cubic, 520, z0, right_vector(cubic, z0, 520,
                                                          DOUBLE), 52)
    assert verified_residual(cubic, z, v, bigfloat(52)).hi < 1e-32
    with mp.workdps(60):
        assert abs(z - mpmath.mpf(LAMBDA_13)) < 1e-37


#: Counts the refiner's F evaluations and the dense QRs of one eigs run, in
#: a fresh process, and prints them.
_COUNT_LATTICE_WORK = """
import sys
import numpy as np
from specgate import cli, solver
counts = {"F": 0, "qr": 0}
rows, qr = solver._residual_rows, np.linalg.qr

def counted_rows(*args):
    counts["F"] += 1
    return rows(*args)

def counted_qr(*args, **kwargs):
    counts["qr"] += 1
    return qr(*args, **kwargs)

solver._residual_rows, np.linalg.qr = counted_rows, counted_qr
cli.main(["eigs", "--op", "lattice", "--n", "11", "--output", sys.argv[1]])
print(counts["F"], counts["qr"])
"""


def test_lattice_refiner_work_does_not_grow(tmp_path):
    # the lattice's seeds start at the floor: on eigs --op lattice --n 11 at
    # one OpenBLAS thread the refiner evaluates F 20 times, and the run
    # makes 14 dense QRs (7 sigma_min calls and the one J0 of each refine).
    # At two threads the dense factorizations round differently and one
    # refine takes one more F evaluation
    src = os.path.dirname(os.path.dirname(specgate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", _COUNT_LATTICE_WORK,
                          str(tmp_path / "lattice.json")], env=env,
                         check=True, timeout=300, capture_output=True,
                         text=True).stdout
    evals, qrs = map(int, out.split()[-2:])
    assert evals <= 20
    assert qrs <= 14


@pytest.mark.parametrize("tilt", [0.0, 1e-3], ids=["singular", "tilted"])
def test_refine_complex_pair_oracle(tilt):
    # the diagonal plugin n + i has the eigenvalues n + i exactly, with
    # eigenvectors e_n; the start vector is the right singular vector at
    # the start, tilted off e_3 in the second case
    op, N = band_plugin({0: "n + i"}), 10
    z0 = 3 + 1j + 1e-3
    _, v0 = sigma_min(op, z0, N, DOUBLE, want_vector=True)
    z, v = _refine_eigenpair(op, N, z0, v0 + tilt, 30)
    assert abs(z - (3 + 1j)) < 1e-13
    assert max(abs(t) for m, t in enumerate(v) if m != 3) < 1e-12 * abs(v[3])


def test_refine_complex_pair_fails_closed_off_its_seed(monkeypatch):
    # a square truncation that seeds 3.1 + i for the plugin n + i with a
    # subdiagonal of ones, whose eigenvalues are n + i: gamma_45 there is
    # below 0.05, so the seed is refined, and Gauss-Newton converges to
    # 3 + i, 0.1 from the seed
    op = band_plugin({0: "n + i", 1: "1"})
    assert sigma_min(op, 3.1 + 1j, 45, DOUBLE)[0] < 0.05
    monkeypatch.setattr(solver, "square_truncation",
                        lambda op, z, N: np.array([[3.1 + 1j]]))
    model = model_from_json({"type": "constant", "id": op.id, "kappa": 2.0})
    with pytest.raises(CertificationError, match="0.05"):
        bootstrap_certify(op, model, 1)


# -- separation of certified disks ------------------------------------------

def _disk(center, radius, index):
    return Enclosure("lattice", index, center, mpmath.mpf(radius), 0.0, 1, 25)


def test_separation_rejects_two_disks_on_one_center():
    c = mpmath.mpc(0.5, 0.25)
    with pytest.raises(CertificationError, match="overlap"):
        _check_separation([_disk(c, 1e-13, 1), _disk(c, 1e-13, 2)])


def test_separation_compares_the_exact_centers():
    # two 1e-27 disks 1e-20 apart, whose centers round to one double
    with mp.workdps(40):
        a = mpmath.mpc(0.5, 0.25)
        b = a + mpmath.mpf("1e-20")
    assert complex(a) == complex(b)
    _check_separation([_disk(a, 1e-27, 1), _disk(b, 1e-27, 2)])


# -- bootstrap --------------------------------------------------------------

def test_bootstrap_harmonic_oracle(harmonic):
    encs = bootstrap_certify(harmonic, harmonic_ltp_model(), 4, DOUBLE,
                             target_radius=1e-12)
    assert [e.index_n for e in encs] == [1, 2, 3, 4]
    for e, val in zip(encs, (1, 3, 5, 7)):
        assert float(e.radius) <= 1e-12
        assert e.contains(val)
        assert "kappa-bound" in e.conditional_on
        assert DIP_CENSUS_TAG in e.conditional_on
    # separation: radii well below half the gap of 2
    for e in encs:
        assert float(e.radius) < 1.0


@pytest.fixture(scope="module")
def cubic_encs(cubic):
    """bootstrap_certify(cubic, 8) at double precision, shared by the tests
    below.  From index 5 on, N escalates and c_m binds the residual target.
    The call takes about 2 s."""
    return bootstrap_certify(cubic, cubic_ltp_model(), 8, DOUBLE)


#: Radii that a big-float golden-section localization once certified for
#: the first eight cubic eigenvalues; the census and bordered Gauss-Newton
#: refinement must not certify wider disks.
GOLDEN_SECTION_RADII = (2.364e-10, 2.432e-11, 6.857e-12, 8.679e-11,
                        8.981e-17, 1.877e-18, 2.344e-21, 1.136e-24)


def test_bootstrap_cubic_double(cubic_encs):
    encs = cubic_encs
    assert [e.index_n for e in encs] == list(range(1, 9))
    with mp.workdps(40):
        for e, ref in zip(encs, CUBIC_EIGENVALUES):
            assert float(e.radius) <= 1e-8
            if e.radius >= CUBIC_PRINT_SLACK:
                assert e.contains(mpmath.mpf(ref))
            else:
                # index 8's disk (radius 5.7e-35) is narrower than the
                # rounding of the 31 printed decimals of its reference
                assert e.index_n == 8
                assert e.intersects(mpmath.mpf(ref), CUBIC_PRINT_SLACK)
            assert e.gap_index_m == e.index_n + 1
            assert e.conditional_on == ("kappa-bound", DIP_CENSUS_TAG)
    for e, wide in zip(encs, GOLDEN_SECTION_RADII):
        assert float(e.radius) <= wide
    assert encs[0].residual_upper < 1e-8


#: Radii of indices 6-8 when the entries were enclosed in mpmath.iv at the
#: context's digits: the width of those enclosures bounded the residuals.
IV_ENTRY_RADII = (7.250e-25, 5.969e-27, 4.688e-29)


def test_grid_entries_tighten_the_deep_radii(cubic_encs):
    # entries enclosed on the residual's own grid, within two units of
    # 2^-p, leave indices 6-8 at least 100 times narrower
    for e, wide in zip(cubic_encs[5:], IV_ENTRY_RADII):
        assert float(e.radius) <= 1e-2 * wide, e.index_n


def test_cubic_bootstrap_runs_no_svd(cubic, cubic_model, monkeypatch):
    # the census, the zoom and Gauss-Newton of a banded spec factor by
    # banded QR: the bootstrap certifies with the dense SVD refused
    def refuse(*args, **kwargs):
        raise AssertionError("dense SVD or pseudo-inverse")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "pinv", refuse)
    encs = bootstrap_certify(cubic, cubic_model, 3, DOUBLE)
    assert [e.index_n for e in encs] == [1, 2, 3]
    with mp.workdps(40):
        for e, ref in zip(encs, CUBIC_EIGENVALUES):
            assert float(e.radius) <= 1e-8 and e.contains(mpmath.mpf(ref))


def test_bootstrap_enclosures_are_ordered(cubic_encs):
    encs = cubic_encs
    centers = [float(e.center) for e in encs]
    assert centers == sorted(centers)
    for a, b in zip(encs, encs[1:]):
        gap = float(b.center) - float(a.center)
        assert float(a.radius) < gap / 2
        assert float(b.radius) < gap / 2


def test_candidates_certify_back_exactly(cubic, cubic_encs):
    # the --candidates-out payload of the eight enclosures, through JSON and
    # back into certify, reproduces every center, residual and radius; at
    # 37 printed digits index 8 came back 2.2 times wider
    payload = json.loads(json.dumps(_candidates(cubic, cubic_encs, DOUBLE)))
    back = _certify_candidates(cubic, cubic_ltp_model(), payload, DOUBLE)
    assert [(e.index_n, e.center, e.residual_upper, e.radius) for e in back] \
        == [(e.index_n, e.center, e.residual_upper, e.radius)
            for e in cubic_encs]


def test_stalled_escalation_fails_fast(cubic, monkeypatch):
    # a candidate that does not improve with N: the escalated attempt's
    # verified residual equals the first one's, and the bootstrap stops
    # there instead of climbing to the N cap
    v = right_vector(cubic, 1.2, 200, DOUBLE)
    sizes = []

    def stuck(op, model, lo, hi, N, digits_v, z_prev):
        sizes.append(N)
        return 1.2, v

    monkeypatch.setattr(solver, "_locate_candidate", stuck)
    with pytest.raises(CertificationError, match="index 1: .* stalled") as exc:
        bootstrap_certify(cubic, cubic_ltp_model(), 1, DOUBLE)
    assert sizes == [200, 400]
    assert "N = 200" in str(exc.value) and "N = 400" in str(exc.value)


def test_bootstrap_centers_are_the_verified_z(cubic, monkeypatch):
    # each center is exactly a z whose residual the bootstrap verified,
    # not a rounding of it
    verified = []

    def recording(op, z, v, ctx):
        verified.append(z)
        return verified_residual(op, z, v, ctx)

    monkeypatch.setattr(solver, "verified_residual", recording)
    encs = bootstrap_certify(cubic, cubic_ltp_model(), 3, DOUBLE)
    assert len(encs) == 3
    for e in encs:
        assert isinstance(e.center, mpmath.mpf)
        assert any(e.center == z for z in verified), e.index_n


# -- grids ------------------------------------------------------------------

def test_bootstrap_lattice_meets_reference_values():
    # the complex-spectrum pipeline: each of the first three printed
    # eigenvalues meets exactly one certified disk
    encs = bootstrap_certify(lattice_longrange_operator(), None, 3)
    assert len(encs) == 3
    for e in encs:
        assert DIP_CENSUS_TAG not in e.conditional_on
    for ref in LATTICE_EIGENVALUES[:3]:
        hits = [e for e in encs if e.intersects(ref, LATTICE_PRINT_SLACK)]
        assert len(hits) == 1, ref


def test_grid_minimum_near_harmonic_eigenvalue(harmonic):
    g = pseudospectrum_grid(harmonic, (0.0, 4.0, -1.0, 1.0), (17, 9), 20,
                            DOUBLE)
    iy, ix = np.unravel_index(np.argmin(g.values), g.values.shape)
    res = np.linspace(0, 4, 17)
    assert min(abs(res[ix] - 1.0), abs(res[ix] - 3.0)) < 0.3


def test_grid_shape_and_monotonicity(cubic):
    region = (0.0, 12.0, -4.0, 4.0)
    g150 = pseudospectrum_grid(cubic, region, (9, 7), 150, DOUBLE)
    g300 = pseudospectrum_grid(cubic, region, (9, 7), 300, DOUBLE)
    assert g150.values.shape == (7, 9)
    allow = sigma_noise_allowance(300, 13.0)
    assert np.all(g300.values <= g150.values + allow)


CUBIC_GRID = ((0.0, 12.0, -4.0, 4.0), (7, 5))


@pytest.fixture(scope="module", params=[150, 450])
def cubic_grid(request, cubic):
    """(N, nodes, values) of a batched cubic grid; at both sizes a small
    batch budget feeds the 35 nodes to the pool in refills of at most 8
    shifts."""
    (re_min, re_max, im_min, im_max), (nx, ny) = CUBIC_GRID
    chunks = []
    panel_qr = sigma._panel_qr

    def recording(blocks, diag, z, *args):
        chunks.append(len(z))
        return panel_qr(blocks, diag, z, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sigma, "BATCH_BYTES", 1 << 18)
        patch.setattr(sigma, "_panel_qr", recording)
        g = pseudospectrum_grid(cubic, *CUBIC_GRID, request.param, DOUBLE)
    assert sum(chunks) == nx * ny and len(chunks) > 1 and max(chunks) <= 8
    nodes = [complex(r, i) for i in np.linspace(im_min, im_max, ny)
             for r in np.linspace(re_min, re_max, nx)]
    return request.param, nodes, g.values.ravel()


def test_grid_is_independent_of_chunking(cubic, cubic_grid):
    N, nodes, values = cubic_grid
    for z, v in zip(nodes, values):
        assert banded_sigma_batch(cubic, [z], N)[0] == v, z


def test_grid_matches_dense_svd(cubic, cubic_grid):
    # at most 1e-7 relative above sigma_min (the RTOL stop of inverse
    # iteration) and at most rounding noise of ||T - z|| below it
    N, nodes, values = cubic_grid
    for z, v in zip(nodes, values):
        s = np.linalg.svd(rectangular(cubic, z, N),
                          compute_uv=False)
        assert s[-1] - 100 * 2.0 ** -52 * s[0] <= v <= s[-1] * (1 + 1e-7), z


def test_grid_is_independent_of_the_blas_thread_count(tmp_path):
    # the grid's CSV is the same byte for byte with one OpenBLAS thread
    # and with two
    region, (nx, ny) = CUBIC_GRID
    argv = [sys.executable, "-m", "specgate.cli", "pseudospectrum",
            "--op", "cubic", "--region", *map(repr, region),
            "--resolution", str(nx), str(ny), "--N", "450"]
    src = os.path.dirname(os.path.dirname(specgate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    csv = []
    for threads in ("1", "2"):
        out = tmp_path / f"grid-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run(argv + ["--output", str(out)], env=env, check=True,
                       timeout=300)
        csv.append(out.read_bytes())
    assert csv[0].count(b"\n") == 1 + nx * ny and csv[0] == csv[1]


def _eigs_reports_at_one_and_two_threads(tmp_path, op, n):
    """The eigs reports of the first n eigenvalues of op at one OpenBLAS
    thread and at two, their timestamps dropped."""
    argv = [sys.executable, "-m", "specgate.cli", "eigs", "--op", op,
            "--n", str(n)]
    src = os.path.dirname(os.path.dirname(specgate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"eigs-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run(argv + ["--output", str(out)], env=env, check=True,
                       timeout=300)
        report = json.loads(out.read_text())
        del report["generated_at"]
        reports.append(report)
    return reports


def test_cubic_report_is_independent_of_the_blas_thread_count(tmp_path):
    # the eigs report of the first three cubic eigenvalues is the same with
    # one OpenBLAS thread and with two, its timestamp aside
    reports = _eigs_reports_at_one_and_two_threads(tmp_path, "cubic", 3)
    assert len(reports[0]["enclosures"]) == 3 and reports[0] == reports[1]


def test_lattice_report_is_independent_of_the_blas_thread_count(tmp_path):
    # likewise for eleven lattice eigenvalues: dense SVD seeds, and the
    # dense QR of the bordered Jacobian
    reports = _eigs_reports_at_one_and_two_threads(tmp_path, "lattice", 11)
    assert len(reports[0]["enclosures"]) == 11 and reports[0] == reports[1]


@pytest.mark.parametrize("N", [10, 450])
def test_grid_exact_zero_pivots_take_the_single_shift_path(harmonic, N):
    # nodes 1 and 3 are eigenvalues of the diagonal oracle: the batch meets
    # an exact zero pivot there and hands the shift to sigma_min
    g = pseudospectrum_grid(harmonic, (0.0, 4.0, -1.0, 1.0), (5, 3), N,
                            DOUBLE)
    for ix in (1, 3):
        assert g.values[1, ix] == sigma_min(harmonic, float(ix), N, DOUBLE)[0]


def test_residual_target_leaves_half_the_radius():
    # the bootstrap's residual target keeps the radius within half the
    # target at every strip index, also where c_m binds (from m = 5 at
    # T = 1e-8, a target from kappa alone has c_m g >= 1: no finite bound)
    model, T = cubic_ltp_model(), 1e-8
    for m in range(2, 102):
        assert dist_bound(_residual_target(model, m, T), m, model) <= T / 2, m


def test_grid_resolution_validation(cubic):
    with pytest.raises(ValueError):
        pseudospectrum_grid(cubic, (0, 1, 0, 1), (1, 5), 20, DOUBLE)


# -- diagnostics ------------------------------------------------------------

def test_right_vector_converges_in_N(cubic):
    # the lambda_5 right vectors at N = 120 and N = 480 span the same line
    # to 1e-6 in angle; the shorter one is compared with zero padding
    w = right_vector(cubic, LAMBDA_5, 480, DOUBLE)
    u = np.pad(right_vector(cubic, LAMBDA_5, 120, DOUBLE), (0, 360))
    cos = abs(np.vdot(u, w)) / (np.linalg.norm(u) * np.linalg.norm(w))
    assert math.acos(min(1.0, cos)) < 1e-6


def test_evaluate_eigenfunction_basics():
    e0 = [1.0]
    s = evaluate_eigenfunction(e0, [0.0])
    assert s.values[0] == pytest.approx(math.pi ** -0.25, rel=1e-12)
    e1 = [0.0, 1.0]
    s = evaluate_eigenfunction(e1, [0.0])
    assert abs(s.values[0]) < 1e-14
    s = evaluate_eigenfunction(e0, [40.0])
    assert s.underflow[0] and s.values[0] == 0


def test_evaluate_eigenfunction_parseval(cubic):
    v = right_vector(cubic, LAMBDA_1, 60, DOUBLE)
    xs = np.linspace(-12, 12, 3000)
    s = evaluate_eigenfunction(v, xs)
    mass = np.sum(np.abs(s.values) ** 2) * (xs[1] - xs[0])
    assert mass == pytest.approx(float(np.sum(np.abs(v) ** 2)), rel=0.01)


def test_condition_number_harmonic(harmonic):
    encs = bootstrap_certify(harmonic, harmonic_ltp_model(), 3, DOUBLE,
                             target_radius=1e-10)
    for enc in encs:
        res = condition_number(harmonic, enc, 40, DOUBLE)
        assert res.kappa == pytest.approx(1.0, abs=1e-10)
        assert res.consistency < 1e-8


def test_condition_number_cubic_above_one(cubic):
    encs = bootstrap_certify(cubic, cubic_ltp_model(), 1, DOUBLE)
    res = condition_number(cubic, encs[0], 150, DOUBLE)
    assert res.kappa > 1.0 + 1e-3


def test_residual_decay_slope(cubic, cubic_model):
    # the least gamma_N the census sees near lambda_5: at its dip, zoomed
    # until the start lies inside Gauss-Newton's basin, or at its least
    # node where gamma_N has no dip there yet (N = 40)
    Ns = list(range(40, 201, 40))
    logs = []
    for N in Ns:
        _, g, dips = _census(cubic, cubic_model, 13.5, 17.3, N)
        least = g.min()
        if dips:
            least = min(least, _locate_dip(cubic, cubic_model, 13.5, 17.3,
                                           N)[1])
        logs.append(math.log10(max(least, 1e-300)))
    slope = fit_slope(Ns, logs)
    assert slope < -0.02
