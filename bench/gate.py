"""Correctness gate: every output of a benchmark run is checked here.

The reference values are copied into this file, not imported from the test
suite, so the benchmark stands on its own and a fault can be injected by
editing the data passed in (see ``selftest.py``).  Containment uses the same
arithmetic as ``Enclosure.contains`` / ``Enclosure.intersects``, done here so
that a change to the program cannot loosen its own gate.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

#: 30+ digit reference eigenvalues of the imaginary cubic oscillator.
CUBIC_EIGENVALUES = (
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
)

#: Reference eigenvalues of the long-range lattice model, printed to 11
#: decimal places; a reference "meets" an enclosure within this slack.
LATTICE_EIGENVALUES = (
    (-0.04918293439, 0.0),
    (-0.03617194872, 0.61505608475),
    (-0.03617194872, -0.61505608475),
    (1.35013464198, 0.0),
    (1.03403695407, 1.45833018187),
    (1.03403695407, -1.45833018187),
    (-0.82205220030, 1.63118907210),
    (-0.82205220030, -1.63118907210),
    (2.29590609739, 1.09352704384),
    (2.29590609739, -1.09352704384),
    (2.67955625201, 0.0),
)
LATTICE_PRINT_SLACK = 5e-12

#: Default target radius of ``eigs`` in the double context.
CUBIC_TARGET_RADIUS = 1e-8

#: Grid check of the pseudospectrum: gamma from the program against
#: sigma_min of the same (N+3) x N truncation by dense LAPACK SVD.  Both are
#: backward stable, so each carries an absolute error of order
#: eps * ||T - z||_2; the check allows GRID_NOISE_ULPS of that on either
#: side.  Above the reference it also allows GRID_RTOL_ABOVE relative: the
#: banded path stops its inverse iteration once two iterates agree to 1e-8
#: relative, and returns ||T w|| for a unit w, which can only exceed
#: sigma_min.  Over 48 nodes of the benchmark's grid at N = 600, gamma sat
#: at most 1.2e-12 below the reference (allowance 8.8e-10) and at most
#: 1.2e-9 relative above it.  The allowance above, 1e-7, is about 80 times
#: that, so a change that stops the iteration much earlier fails the check.
GRID_NOISE_ULPS = 100
GRID_RTOL_ABOVE = 1e-7
GRID_CHECK_POINTS = 16


@dataclass
class GateResult:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    radius_max: float = 0.0
    certified: int = 0


def _schema_errors(report, schema_path: Path):
    import jsonschema
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    return [e.message for e in validator.iter_errors(report)]


def _center(raw):
    import mpmath
    if isinstance(raw, dict):
        return mpmath.mpc(mpmath.mpf(raw["re"]), mpmath.mpf(raw["im"]))
    return mpmath.mpf(raw)


def _load_report(text, schema_path, attempted):
    """Parsed enclosure report, or a GateResult that fails everything."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return None, GateResult(attempted, attempted, [f"bad JSON: {exc}"])
    errors = _schema_errors(report, schema_path)
    if errors:
        return None, GateResult(attempted, attempted,
                                [f"schema: {e}" for e in errors[:5]])
    return report, None


def check_cubic_eigs(text, schema_path, n, refs=CUBIC_EIGENVALUES,
                     target=CUBIC_TARGET_RADIUS) -> GateResult:
    """Each of the first ``n`` references is contained in the enclosure of
    its index, and that enclosure's radius is within ``target``."""
    import mpmath
    report, bad = _load_report(text, schema_path, n)
    if bad:
        return bad
    encs = {e["n"]: e for e in report["enclosures"]}
    out = GateResult(n, 0)
    with mpmath.workdps(60):
        radii = [mpmath.mpf(e["radius"]) for e in report["enclosures"]]
        out.radius_max = float(max(radii, default=0))
        out.certified = len(radii)
        for k in range(1, n + 1):
            enc = encs.get(k)
            if enc is None:
                out.failed += 1
                out.problems.append(f"index {k}: not reported")
                continue
            radius = mpmath.mpf(enc["radius"])
            dist = abs(_center(enc["center"]) - mpmath.mpf(refs[k - 1]))
            if not dist <= radius:
                out.failed += 1
                out.problems.append(f"index {k}: reference {refs[k - 1]} "
                                    f"outside the disk (distance {dist})")
            elif not radius <= target:
                out.failed += 1
                out.problems.append(f"index {k}: radius {radius} above "
                                    f"target {target}")
    return out


def check_lattice_eigs(text, schema_path, refs=LATTICE_EIGENVALUES,
                       slack=LATTICE_PRINT_SLACK) -> GateResult:
    """Each reference meets exactly one enclosure, up to the print slack."""
    import mpmath
    n = len(refs)
    report, bad = _load_report(text, schema_path, n)
    if bad:
        return bad
    out = GateResult(n, 0)
    with mpmath.workdps(60):
        disks = [(_center(e["center"]), mpmath.mpf(e["radius"]))
                 for e in report["enclosures"]]
        out.radius_max = float(max((r for _, r in disks), default=0))
        out.certified = len(disks)
        for re_, im_ in refs:
            ref = mpmath.mpc(re_, im_)
            hits = sum(1 for c, r in disks if abs(c - ref) <= r + slack)
            if hits != 1:
                out.failed += 1
                out.problems.append(f"reference {ref}: meets {hits} "
                                    "enclosures, expected 1")
    return out


def pick_grid_points(seed, resolution, count=GRID_CHECK_POINTS):
    """Seed-chosen (ix, iy) nodes that the grid check recomputes."""
    nx, ny = resolution
    rng = random.Random(f"grid-check-{seed}")
    flat = rng.sample(range(nx * ny), count)
    return [(k % nx, k // nx) for k in sorted(flat)]


@functools.lru_cache(maxsize=2)
def _cubic_truncation(N):
    import numpy as np
    from specgate.operators import hermite_cubic_operator
    from specgate.precision import DOUBLE
    op = hermite_cubic_operator()
    mat = np.zeros((N + 3, N), dtype=complex)
    for j in range(N):
        for i in range(max(0, j - 3), j + 4):
            mat[i, j] = op.entry(i, j, DOUBLE)
    return mat


def dense_sigma(z, N):
    """(sigma_min, sigma_max) of the (N+3) x N truncation of the cubic
    oscillator minus z, assembled here from ``op.entry`` and reduced by
    dense LAPACK SVD."""
    import numpy as np
    mat = _cubic_truncation(N).copy()
    mat[np.arange(N), np.arange(N)] -= z
    s = np.linalg.svd(mat, compute_uv=False)
    return float(s[-1]), float(s[0])


_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def _csv_float(cell, warnings):
    """A CSV number; numpy 2 scalar reprs such as ``np.float64(1.5)`` are
    read through, with a warning, since the CLI writes them under numpy 2."""
    m = _NUMPY_REPR.match(cell)
    if m:
        if not warnings:
            warnings.append(f"CSV cells are numpy reprs, e.g. {cell!r}")
        cell = m.group(1)
    return float(cell)


def check_grid(text, region, resolution, N, points) -> GateResult:
    """The CSV has one row per node at the right coordinates, and gamma at
    each of ``points`` agrees with the dense reference."""
    nx, ny = resolution
    attempted = len(points)
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return GateResult(attempted, attempted, [f"bad CSV: {exc}"])
    if not rows or rows[0] != ["re", "im", "gamma"] or \
            len(rows) != nx * ny + 1:
        return GateResult(attempted, attempted,
                          [f"CSV header or row count wrong ({len(rows)} rows)"])
    import numpy as np
    res = np.linspace(region[0], region[1], nx)
    ims = np.linspace(region[2], region[3], ny)
    out = GateResult(attempted, 0)
    for ix, iy in points:
        try:
            z_re, z_im, g = (_csv_float(c, out.warnings)
                             for c in rows[1 + iy * nx + ix])
        except ValueError as exc:
            out.failed += 1
            out.problems.append(f"node ({ix}, {iy}): {exc}")
            continue
        z = complex(z_re, z_im)
        if z != complex(res[ix], ims[iy]):
            out.failed += 1
            out.problems.append(f"node ({ix}, {iy}): coordinates {z} "
                                f"!= {complex(res[ix], ims[iy])}")
            continue
        ref, norm = dense_sigma(z, N)
        noise = GRID_NOISE_ULPS * 2.0 ** -52 * norm
        if not ref - noise <= g <= ref * (1 + GRID_RTOL_ABOVE) + noise:
            out.failed += 1
            out.problems.append(f"node {z}: gamma {g!r} vs dense {ref!r}")
    return out
