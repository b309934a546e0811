"""Self-tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q bench/selftest.py

About 10 s: one ``eigs --op cubic --n 1`` run for the fault injection, two
small traced runs and two small pseudospectra.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(argv, out):
    from specgate.cli import main
    assert main(argv + ["--output", str(out)]) == 0
    return Path(out).read_text(encoding="utf-8")


# -- metric names -------------------------------------------------------------

def test_metric_names_and_limits():
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert all(NAME.match(n) and len(n) <= 64 for n in e2e + layer)
    assert set(e2e) == set(run.END_TO_END_UNITS)
    produced = tracer.per_layer_metrics(
        {"names": {}, "callers": {}, "counts": {}}, 0, 0.0, 0.0)
    assert layer == list(produced)
    assert [m["unit"] for m in spec["per_layer"]] == \
        [m["unit"] for m in produced.values()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


# -- correctness gate -----------------------------------------------------------

@pytest.fixture(scope="module")
def cubic_report(tmp_path_factory):
    return _cli(["eigs", "--op", "cubic", "--n", "1"],
                tmp_path_factory.mktemp("eigs") / "report.json")


def test_fault_injection_fails_every_eigenvalue(cubic_report):
    ok = gate.check_cubic_eigs(cubic_report, run.SCHEMA, 1)
    assert (ok.attempted, ok.failed) == (1, 0)
    radius = json.loads(cubic_report)["enclosures"][0]["radius"]
    import mpmath
    with mpmath.workdps(50):
        moved = mpmath.mpf(gate.CUBIC_EIGENVALUES[0]) + 10 * mpmath.mpf(radius)
        refs = (mpmath.nstr(moved, 40),) + gate.CUBIC_EIGENVALUES[1:]
    bad = gate.check_cubic_eigs(cubic_report, run.SCHEMA, 1, refs=refs)
    assert bad.failed / bad.attempted == 1


def test_radius_above_target_fails(cubic_report):
    res = gate.check_cubic_eigs(cubic_report, run.SCHEMA, 1, target=1e-30)
    assert res.failed == 1


def test_schema_violation_fails_everything(cubic_report):
    report = json.loads(cubic_report)
    report["enclosures"][0]["radius"] = 0.5  # a number, not a decimal string
    res = gate.check_cubic_eigs(json.dumps(report), run.SCHEMA, 1)
    assert (res.attempted, res.failed) == (1, 1)


def _lattice_report(radius="1e-13"):
    encs = []
    for k, (re_, im_) in enumerate(gate.LATTICE_EIGENVALUES, 1):
        encs.append({"op": "lattice", "n": k,
                     "center": {"re": repr(re_), "im": repr(im_)},
                     "radius": radius, "residual_upper": "1e-14",
                     "gap_index_m": 1, "precision_digits": 25,
                     "conditional_on": []})
    return json.dumps({"operator": "lattice", "precision": "double",
                       "enclosures": encs})


def test_lattice_gate_counts_each_reference():
    assert gate.check_lattice_eigs(_lattice_report(), run.SCHEMA).failed == 0
    refs = list(gate.LATTICE_EIGENVALUES)
    refs[3] = (refs[3][0] + 10 * 1e-13 + gate.LATTICE_PRINT_SLACK, refs[3][1])
    res = gate.check_lattice_eigs(_lattice_report(), run.SCHEMA, refs=refs)
    assert (res.attempted, res.failed) == (11, 1)
    # a disk wide enough to meet two references fails both
    res = gate.check_lattice_eigs(_lattice_report("0.7"), run.SCHEMA)
    assert res.failed > 0


# -- tracing ---------------------------------------------------------------------

def test_self_time_of_nested_and_overlapping_spans():
    # parent [0, 10]; children A [1, 3] and B [2, 5] overlap (two threads);
    # A has a child [1.5, 2.5]; B has a child that outlives it
    spans = [(1, None, 0.0, 10.0), (2, 1, 1.0, 3.0), (3, 1, 2.0, 5.0),
             (4, 2, 1.5, 2.5), (5, 3, 4.0, 6.0)]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.0)


def test_stage_attribution_by_caller():
    spans = [(1, None, "solver.bootstrap_certify", "main", 0.0, 10.0, True),
             (2, 1, "verify.verified_residual.bigfloat", "bootstrap_certify",
              1.0, 2.0, True),
             (3, 1, "verify.verified_residual.bigfloat", "_gap_scan",
              3.0, 5.0, True),
             (4, 1, "sigma.right_vector", "_gap_scan", 5.0, 5.5, True),
             (5, 1, "verify.certify_eigenvalue", "bootstrap_certify",
              6.0, 7.0, False)]
    m = tracer.per_layer_metrics(tracer.summarize(spans, {}), 2, 0.0, 0.0)
    assert m["solver.gap_scan.calls"]["value"] == 2
    assert m["solver.gap_scan.s"]["value"] == pytest.approx(2.5)
    assert m["solver.residual_attempts_per_eig"]["value"] == 0.5
    assert m["verify.verified_residual.bigfloat.calls"]["value"] == 2
    assert m["verify.certified_per_attempt"]["value"] == 0.0


def _traced_child(tmp_path, name):
    result = tmp_path / f"{name}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(run.SRC),
           "--op", "cubic", "--result", str(result), "--trace", "--",
           "pseudospectrum", "--op", "cubic", "--region", "1", "3", "-1", "1",
           "--resolution", "3", "2", "--N", "60", "--parallelism", "1",
           "--output", str(tmp_path / f"{name}.csv")]
    subprocess.run(cmd, check=True, env=run.child_env(), timeout=120)
    return json.loads(result.read_text(encoding="utf-8"))


def test_traced_counts_repeat_and_nothing_is_absent(tmp_path):
    first = _traced_child(tmp_path, "a")
    second = _traced_child(tmp_path, "b")
    assert first["absent"] == []
    calls = {n: r["calls"] for n, r in first["trace"]["names"].items()}
    assert calls == {n: r["calls"]
                     for n, r in second["trace"]["names"].items()}
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert calls["sigma.gamma"] == 6
    assert first["trace"]["counts"]["operators.entry"] > 0


def test_missing_function_is_reported_absent():
    script = ("import sys, tracer, specgate.cli\n"
              "tracer.EXPECTED += ('sigma.no_such_function',)\n"
              "t = tracer.Tracer()\n"
              "t.install()\n"
              "print(t.absent)\n")
    env = dict(run.child_env(), PYTHONPATH=f"{BENCH}:{run.SRC}")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "['sigma.no_such_function']"


def test_operator_without_hints_is_still_counted():
    import dataclasses
    from specgate.operators import hermite_cubic_operator
    from specgate.precision import DOUBLE
    t = tracer.Tracer()
    op = t.counted_operator(dataclasses.replace(hermite_cubic_operator(),
                                                hints={}))
    op.entry(0, 0, DOUBLE)
    assert t.counts() == {"operators.entry": 1}


# -- pseudospectrum determinism --------------------------------------------------

def test_pseudospectrum_bit_identical_across_worker_counts(tmp_path):
    argv = ["pseudospectrum", "--op", "cubic", "--region", "0", "20", "-4",
            "4", "--resolution", "4", "3", "--N", str(run.PSEUDO_N)]
    one = _cli(argv + ["--parallelism", "1"], tmp_path / "p1.csv")
    two = _cli(argv + ["--parallelism", "2"], tmp_path / "p2.csv")
    assert one == two


def test_grid_check_accepts_the_program_and_rejects_a_moved_value(tmp_path):
    region, res = (0.0, 20.0, -4.0, 4.0), (4, 3)
    argv = ["pseudospectrum", "--op", "cubic", "--region"] + \
        [str(x) for x in region] + ["--resolution", "4", "3",
                                     "--N", str(run.PSEUDO_N)]
    text = _cli(argv, tmp_path / "g.csv")
    points = [(1, 1), (3, 2)]
    assert gate.check_grid(text, region, res, run.PSEUDO_N, points).failed == 0
    lines = text.splitlines()
    row = 1 + 1 * 4 + 1
    cells = lines[row].split(",")
    g = float(re.sub(r"^np\.float64\((.*)\)$", r"\1", cells[2]))
    cells[2] = repr(g * (1 + 1e-6))  # ten times the allowance above
    lines[row] = ",".join(cells)
    moved = "\n".join(lines) + "\n"
    assert gate.check_grid(moved, region, res, run.PSEUDO_N, points).failed == 1


# -- a directory holding only the benchmark ----------------------------------------

def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cubic-eigs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_jitter_is_small_and_reproducible():
    a, b = run.pseudo_region(3), run.pseudo_region(3)
    assert a == b != run.pseudo_region(4)
    assert all(math.isclose(x, y, abs_tol=0.05)
               for x, y in zip(a, run.PSEUDO_REGION))
    pts = gate.pick_grid_points(3, run.PSEUDO_RESOLUTION)
    assert len(set(pts)) == gate.GRID_CHECK_POINTS >= 16
