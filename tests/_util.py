"""Shared helpers for the test suite."""

import math
from fractions import Fraction

import numpy as np

from specgate import verify
from specgate.operators import load_plugin_operator

#: 30+ digit reference eigenvalues of the imaginary cubic oscillator
#: (regression constants; the certification pipeline reproduces them at
#: tighter tolerance than they are printed).
CUBIC_EIGENVALUES = [
    "1.1562670719881132937992191779999",
    "4.1092287528096515358436684785613",
    "7.5622738549788280413518091106314",
    "11.3144218201958044022337839484269",
    "15.2915537503925323881816307917519",
    "19.4515291306917283146861117141044",
    "23.7667404354858191315580259687899",
    "28.2175249729811932975950538782689",
    "32.7890827818629574924473714850463",
    "37.4698253605160468664288735945305",
]

#: The CUBIC_EIGENVALUES are printed to 31 decimal places, so a certified
#: disk narrower than that rounding meets the printed value only within it.
CUBIC_PRINT_SLACK = 5e-32

CUBIC_EIGENVALUE_100 = "627.6947122484365113526737029011536"

#: Reference eigenvalues of the long-range lattice model, printed to 11
#: decimal places (hence comparisons carry a 5e-12 rounding slack).
LATTICE_EIGENVALUES = [
    complex(-0.04918293439, 0.0),
    complex(-0.03617194872, 0.61505608475),
    complex(-0.03617194872, -0.61505608475),
    complex(1.35013464198, 0.0),
    complex(1.03403695407, 1.45833018187),
    complex(1.03403695407, -1.45833018187),
    complex(-0.82205220030, 1.63118907210),
    complex(-0.82205220030, -1.63118907210),
    complex(2.29590609739, 1.09352704384),
    complex(2.29590609739, -1.09352704384),
    complex(2.67955625201, 0.0),
]
LATTICE_PRINT_SLACK = 5e-12


def cubic_column_norm(N: int) -> float:
    """Upper estimate of the largest column norm of the cubic truncation."""
    m = max(N - 1, 1)
    s2 = math.sqrt(2.0)
    c1 = (m + 2) * math.sqrt(m + 1) / (2 * s2) \
        + (2 * m + 1) / 2 * math.sqrt((m + 1) / 2)
    c3 = math.sqrt((m + 1) * (m + 2) * (m + 3)) / (2 * s2)
    c2 = math.sqrt((m + 1) * (m + 2)) / 2
    c0 = (2 * m + 1) / 2
    return math.sqrt(2 * (c1 * c1 + c2 * c2 + c3 * c3) + c0 * c0)


def sigma_noise_allowance(N: int, z=0.0) -> float:
    """Absolute noise floor of a double-precision sigma_min evaluation.

    LAPACK's singular values carry an absolute error of order
    eps * ||T||_2; monotonicity comparisons between two converged values
    must allow for it on both sides.
    """
    # ||T||_2 exceeds the largest column norm by up to the band-overlap
    # factor sqrt(7); the prefactor covers LAPACK's modest p(N) growth with
    # a factor-two margin over the worst drift observed at N = 600
    scale = cubic_column_norm(N) + abs(z)
    return 120.0 * 2.0 ** -53 * scale


def exact_fraction(x) -> Fraction:
    """The exact rational value of an mpf."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def fit_slope(xs, ys) -> float:
    """Least-squares slope."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xm = xs.mean()
    ym = ys.mean()
    return float(((xs - xm) * (ys - ym)).sum() / ((xs - xm) ** 2).sum())


def box_route_residual(monkeypatch, op, z, v, ctx):
    """verified_residual with the real rotated band withheld, so that a real
    shift, too, runs through complex boxes."""
    band = verify._band
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_band", lambda op, N, ctx, rotated=False:
                      None if rotated else band(op, N, ctx))
        return verify.verified_residual(op, z, v, ctx)


def band_plugin(bands, domain="naturals"):
    """A plugin from {offset: coefficient expression}."""
    return load_plugin_operator({
        "id": "bands" + repr(sorted(bands.items())), "domain": domain,
        "bands": [{"offset": off, "coefficient": expr}
                  for off, expr in bands.items()]})
