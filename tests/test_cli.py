"""Command-line front end: exit codes, the report schema and the
pseudospectrum CSV."""

import json
import math
from importlib.resources import files

import jsonschema
import mpmath
import pytest

from specgate.cli import main
from specgate.verify import Enclosure

from _util import CUBIC_EIGENVALUES, LATTICE_EIGENVALUES, LATTICE_PRINT_SLACK

SCHEMA = json.loads(files("specgate").joinpath(
    "schemas/enclosure.schema.json").read_text())
GRID = ["pseudospectrum", "--op", "harmonic", "--region", "0", "4", "-1", "1",
        "--resolution", "5", "3", "--N", "10"]


def _grid_rows(tmp_path, parallelism):
    out = tmp_path / f"grid-{parallelism}.csv"
    code = main(GRID + ["--parallelism", str(parallelism), "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re,im,gamma"
    # every cell is a plain float literal (no numpy scalar reprs)
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def test_pseudospectrum_csv(tmp_path):
    rows = _grid_rows(tmp_path, 1)
    assert len(rows) == 15 and all(len(r) == 3 for r in rows)
    assert rows[0] == [0.0, -1.0, rows[0][2]]
    assert _grid_rows(tmp_path, 2) == rows


def test_unknown_operator_exits_1(capsys):
    assert main(GRID[:1] + ["--op", "nosuch"] + GRID[3:]) == 1
    assert "unknown operator" in capsys.readouterr().err


def test_parallelism_is_a_pseudospectrum_option(capsys):
    assert main(["operators", "--parallelism", "2"]) == 1
    assert "--parallelism" in capsys.readouterr().err


def test_eigs_exits_0_with_a_schema_valid_report(tmp_path):
    out = tmp_path / "harmonic.json"
    assert main(["eigs", "--op", "harmonic", "--n", "2",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(report, SCHEMA)
    assert [e["n"] for e in report["enclosures"]] == [1, 2]


def test_plugin_eigs_without_model_exits_1(tmp_path, capsys):
    plugin = tmp_path / "plugin.json"
    plugin.write_text(json.dumps({
        "id": "diag", "bands": [{"offset": 0, "coefficient": "2*n + 1"}]}))
    assert main(["eigs", "--plugin", str(plugin)]) == 1
    assert "--model" in capsys.readouterr().err


def test_plugin_eigs_with_a_builtin_model(tmp_path):
    # the diagonal plugin is the harmonic oracle under another name
    plugin, out = tmp_path / "plugin.json", tmp_path / "diag.json"
    plugin.write_text(json.dumps({
        "id": "diag", "bands": [{"offset": 0, "coefficient": "2*n + 1"}],
        "symmetry": ["ComplexSymmetric", "RealSpectrumExpected"]}))
    assert main(["eigs", "--plugin", str(plugin), "--model",
                 '{"type": "builtin", "id": "harmonic"}', "--n", "3",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(report, SCHEMA)
    encs = report["enclosures"]
    assert [e["n"] for e in encs] == [1, 2, 3]
    with mpmath.workdps(40):
        for e, value in zip(encs, (1, 3, 5)):
            assert abs(mpmath.mpf(e["center"]) - value) \
                <= mpmath.mpf(e["radius"])


def test_plugin_eigs_with_a_constant_model_exits_1(tmp_path, capsys):
    # a constant model has no eigenvalue asymptotics, which the
    # real-spectrum bootstrap needs to size its census: exit 1, naming them
    plugin = tmp_path / "plugin.json"
    plugin.write_text(json.dumps({
        "id": "diag", "bands": [{"offset": 0, "coefficient": "2*n + 1"}],
        "symmetry": ["ComplexSymmetric", "RealSpectrumExpected"]}))
    assert main(["eigs", "--plugin", str(plugin), "--model",
                 '{"type": "constant", "id": "diag", "kappa": 1}',
                 "--n", "2"]) == 1
    err = capsys.readouterr().err
    assert "lambda_asymptotic" in err and "Traceback" not in err


def _disks(path):
    return [(e["n"], e["center"], e["radius"]) for e in
            json.loads(path.read_text(encoding="utf-8"))["enclosures"]]


def _round_trip(tmp_path, op, *eigs_args):
    """(disks of eigs, disks of certify on its --candidates-out file)."""
    report, cands, out = (tmp_path / name for name in
                          ("eigs.json", "candidates.json", "certify.json"))
    assert main(["eigs", "--op", op, *eigs_args, "--output", str(report),
                 "--candidates-out", str(cands)]) == 0
    assert main(["certify", "--op", op, "--candidate", str(cands),
                 "--output", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text(encoding="utf-8")), SCHEMA)
    return _disks(report), _disks(out)


def test_lattice_candidates_round_trip(tmp_path):
    # certify reproduces every disk of eigs from its --candidates-out file
    eigs, certify = _round_trip(tmp_path, "lattice", "--n", "2", "--N", "30")
    assert len(eigs) == 2
    assert certify == eigs


def test_eigs_certifies_every_lattice_reference(tmp_path):
    # the full lattice run: each printed eigenvalue meets exactly one disk,
    # and every radius is at most 4.4e-13 (the widest is 2.3e-13)
    out = tmp_path / "lattice.json"
    assert main(["eigs", "--op", "lattice", "--n", "11",
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(report, SCHEMA)
    encs = [Enclosure.from_json(e) for e in report["enclosures"]]
    assert len(encs) == len(LATTICE_EIGENVALUES)
    for ref in LATTICE_EIGENVALUES:
        hits = [e for e in encs if e.intersects(ref, LATTICE_PRINT_SLACK)]
        assert len(hits) == 1, ref
    assert max(float(e.radius) for e in encs) <= 4.4e-13


def test_cubic_candidates_round_trip(tmp_path):
    # the candidates are the refined pairs that certified, with their N,
    # checked at the digits they certified at, so every radius comes back
    eigs, certify = _round_trip(tmp_path, "cubic", "--n", "2")
    assert len(eigs) == 2
    assert certify == eigs


def test_eigenfunction_samples_the_harmonic_eigenvector(tmp_path):
    # the second harmonic eigenfunction is sqrt(2) pi^(-1/4) x exp(-x^2/2)
    out = tmp_path / "psi.csv"
    assert main(["eigenfunction", "--op", "harmonic", "--n", "2",
                 "--samples", "5", "--x-min", "-2", "--x-max", "2",
                 "--output", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,re_psi,im_psi" and len(lines) == 6
    for line in lines[1:]:
        x, re_psi, im_psi = (float(cell) for cell in line.split(","))
        exact = math.sqrt(2.0) * math.pi ** -0.25 * abs(x) * math.exp(-x * x / 2)
        assert abs(abs(complex(re_psi, im_psi)) - exact) <= 1e-12, x


def test_eigenfunction_refuses_the_lattice(capsys):
    # the lattice vector lives on l^2(Z), not in the Hermite basis
    assert main(["eigenfunction", "--op", "lattice", "--n", "1",
                 "--samples", "3", "--x-min", "-1", "--x-max", "1"]) == 1
    err = capsys.readouterr()
    assert "Hermite" in err.err and err.out == ""


def test_condition_of_the_harmonic_oracle(tmp_path):
    # a normal operator: every eigenvalue has condition number 1
    out = tmp_path / "condition.json"
    assert main(["condition", "--op", "harmonic", "--n", "2",
                 "--output", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["condition_numbers"]
    assert [r["n"] for r in rows] == [1, 2]
    for r in rows:
        assert r["kappa"] == 1.0 and r["consistency"] == 0.0


def test_certify_junk_candidate_exits_2(tmp_path, capsys):
    # e_7 is far from an eigenvector at z = 4.1: the residual is too large
    # for a finite enclosure at strip 5
    vector = [["0", "0"]] * 30
    vector[7] = ["1", "0"]
    cand = tmp_path / "junk.json"
    cand.write_text(json.dumps({"z": "4.1", "m": 5, "vector": vector}))
    assert main(["certify", "--op", "cubic", "--candidate", str(cand)]) == 2
    assert "too large" in capsys.readouterr().err


def test_certify_a_double_candidate(tmp_path):
    # a 16-digit lambda_1 with its right vector at N = 200, certified at
    # the default double precision on the grid of DOUBLE_DIGITS
    cand, out = tmp_path / "lambda1.json", tmp_path / "certify.json"
    cand.write_text(json.dumps({"z": "1.156267071988113", "m": 2, "n": 1,
                                "N": 200}))
    assert main(["certify", "--op", "cubic", "--candidate", str(cand),
                 "--output", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(report, SCHEMA)
    (enc,) = [Enclosure.from_json(e) for e in report["enclosures"]]
    assert enc.contains(mpmath.mpf(CUBIC_EIGENVALUES[0]))
    assert float(enc.radius) < 1e-13


@pytest.mark.parametrize("N", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["eigs", "--op", "cubic", "--n", "1"],
    ["pseudospectrum", "--op", "cubic", "--region", "0", "4", "-1", "1",
     "--resolution", "2", "2"],
    ["certify", "--op", "cubic", "--candidate", "unread.json"],
    ["condition", "--op", "harmonic", "--n", "1"]],
    ids=["eigs", "pseudospectrum", "certify", "condition"])
def test_truncation_size_below_1_exits_1(command, N, capsys):
    # --N is rejected by the parser, before any work, with a usage message
    assert main(command + ["--N", N]) == 1
    err = capsys.readouterr()
    assert "--N" in err.err and "at least 1" in err.err
    assert "Traceback" not in err.err and err.out == ""


def _grid_values(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re,im,gamma"
    return [float(line.split(",")[2]) for line in lines[1:]]


def test_bigfloat_pseudospectrum_matches_the_double_grid(tmp_path):
    # big-float sigma runs the banded Givens QR over the grid band; its
    # values agree with the double batch's
    grid = ["pseudospectrum", "--op", "cubic", "--region", "0", "4", "-1", "1",
            "--resolution", "2", "2", "--N", "30"]
    outs = {p: tmp_path / f"{p}.csv" for p in ("double", "bigfloat:20")}
    for precision, out in outs.items():
        assert main(grid + ["--precision", precision,
                            "--output", str(out)]) == 0
    double, big = (_grid_values(out) for out in outs.values())
    assert len(big) == 4
    for d, b in zip(double, big):
        assert abs(b - d) <= 1e-9 * d


def test_bigfloat_pseudospectrum_refuses_the_lattice(capsys):
    # the lattice is long-range: big-float sigma has no band to run on
    assert main(["pseudospectrum", "--op", "lattice", "--precision",
                 "bigfloat:20", "--region", "0", "4", "-1", "1",
                 "--resolution", "2", "2", "--N", "5"]) == 1
    err = capsys.readouterr()
    assert "long-range" in err.err and "Traceback" not in err.err
    assert err.out == ""
