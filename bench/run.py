"""specgate benchmark: certified eigenvalues and a pseudospectrum, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measured iteration is a fresh
Python process (``child.py``) that imports ``specgate.cli`` from ``src/``
and calls ``specgate.cli.main`` once with the workload's arguments, writing
the program's output to a file that ``gate.py`` then checks against
reference values.  Ten set-up-only processes come first; then iterations
repeat while another one fits in ``--seconds``, counted from the start of
the run (at least one runs), and set-up-only processes fill the rest.
``wall_s`` and ``cpu_s`` are medians over the iterations; ``setup_s`` is
the minimum over the set-up of every process, since import time has a
floor and its noise only adds.

With ``--trace 1`` the same untraced loop runs, then one more iteration under
``tracer.Tracer``, and the per-layer metrics come from that traced iteration.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine and run facts, the per-iteration samples and any gate problems.

BLAS is pinned to one thread in every process: the certified radii of the
lattice move in their last digits with the OpenBLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in the children

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = SRC / "specgate" / "schemas" / "enclosure.schema.json"

sys.path[:0] = [str(BENCH), str(SRC)]  # gate.py assembles from op.entry
import gate  # noqa: E402
import tracer  # noqa: E402

#: set-up-only processes at the start of a run; more fill the time after
#: the last iteration that fits, up to MAX_SETUP_PROBES set-up samples
SETUP_PROBES = 10
MAX_SETUP_PROBES = 200
#: a run must end within 180 s; no iteration starts that would end past this
DEADLINE_S = 165.0

PSEUDO_REGION = (0.0, 20.0, -4.0, 4.0)
PSEUDO_RESOLUTION = (20, 20)
PSEUDO_N = 600  # above sigma.DENSE_SVD_LIMIT: the banded Givens-QR path


def pseudo_region(seed):
    """The fixed region, each edge jittered by the seed by at most 0.05."""
    rng = random.Random(f"region-{seed}")
    return tuple(round(x + rng.uniform(-0.05, 0.05), 4) for x in PSEUDO_REGION)


@dataclass(frozen=True)
class Workload:
    op: str
    argv: Callable[[int], list]
    requested: int
    check: Callable[[str, int], "gate.GateResult"]


def _pseudo_argv(seed):
    return (["pseudospectrum", "--op", "cubic", "--region"]
            + [repr(x) for x in pseudo_region(seed)]
            + ["--resolution"] + [str(k) for k in PSEUDO_RESOLUTION]
            + ["--N", str(PSEUDO_N), "--parallelism", "2"])


WORKLOADS = {
    # real-spectrum bootstrap: double bracket, big-float golden section on
    # the real-rotated banded QR, mpmath.iv residuals with the gap scan
    "cubic-eigs": Workload(
        "cubic", lambda seed: ["eigs", "--op", "cubic", "--n", "3"],
        3,
        lambda text, seed: gate.check_cubic_eigs(text, SCHEMA, 3)),
    # complex-spectrum path: dense-SVD coordinate descent and long-range
    # residuals with tail padding; no big-float sigma, no gap scan
    "lattice-eigs": Workload(
        "lattice", lambda seed: ["eigs", "--op", "lattice", "--n", "11"],
        len(gate.LATTICE_EIGENVALUES),
        lambda text, seed: gate.check_lattice_eigs(text, SCHEMA)),
    # many double shifts without vectors on the banded side of the
    # dense-SVD limit, through the thread pool; no verification
    "cubic-pseudo": Workload(
        "cubic", _pseudo_argv, gate.GRID_CHECK_POINTS,
        lambda text, seed: gate.check_grid(
            text, pseudo_region(seed), PSEUDO_RESOLUTION, PSEUDO_N,
            gate.pick_grid_points(seed, PSEUDO_RESOLUTION))),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SPECGATE_", "PYTHON"))}
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(work: Path, op: str, cli_args, timeout, setup_only=False,
              trace=False):
    """Run child.py once; its JSON result, or None if it did not finish."""
    result = work / "child.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--op", op, "--result", str(result)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if trace else []
    cmd += ["--"] + list(cli_args)
    try:
        proc = subprocess.run(cmd, cwd=work, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0 or not result.is_file():
        return None, proc.stderr.strip()[-400:]
    return json.loads(result.read_text(encoding="utf-8")), None


def run_iteration(work, wl: Workload, seed, timeout, checked, trace=False):
    """One measured call of the CLI plus the gate of its output."""
    out_file = work / "output"
    out_file.unlink(missing_ok=True)
    argv = wl.argv(seed) + ["--output", str(out_file)]
    sample, err = run_child(work, wl.op, argv, timeout, trace=trace)
    if sample is None or sample.get("rc") != 0 or not out_file.is_file():
        why = err or f"exit code {sample and sample.get('rc')}"
        res = gate.GateResult(wl.requested, wl.requested,
                              [f"run failed: {why}"])
        return sample, res
    text = out_file.read_text(encoding="utf-8")
    key = "\n".join(line for line in text.splitlines()
                    if '"generated_at"' not in line)
    if key not in checked:
        checked[key] = wl.check(text, seed)
    return sample, checked[key]


def machine_facts():
    import mpmath
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_ENV,
            "mpmath_backend": mpmath.libmp.BACKEND, "git_commit": commit}


def measure(workload, seed, seconds, trace):
    wl = WORKLOADS[workload]
    began = time.perf_counter()
    facts = {"workload": workload, "seed": seed, "seconds": seconds,
             "argv": wl.argv(seed), "loadavg_before": os.getloadavg()}
    facts.update(machine_facts())
    attempted = failed = 0
    problems, warnings, samples, checked = [], [], [], {}
    setups = []

    def left():
        return DEADLINE_S - (time.perf_counter() - began)

    def tally(res):
        nonlocal attempted, failed
        attempted += res.attempted
        failed += res.failed
        problems.extend(res.problems)
        warnings.extend(w for w in res.warnings if w not in warnings)

    def probe():
        out, err = run_child(work, wl.op, [], left(), setup_only=True)
        if out is None:
            raise RuntimeError(f"set-up probe failed: {err}")
        setups.append(out["setup_s"])

    work = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        for _ in range(SETUP_PROBES):
            probe()

        durations = []
        while True:
            t0 = time.perf_counter()
            sample, res = run_iteration(work, wl, seed, left(), checked)
            durations.append(time.perf_counter() - t0)
            tally(res)
            if sample is not None:
                sample["gate_failed"] = res.failed
                sample["radius_max"] = res.radius_max
                samples.append(sample)
                setups.append(sample["setup_s"])
            step = statistics.median(durations)
            if time.perf_counter() - began + step > seconds or \
                    step > left():
                break
        # the time that no further iteration fits into goes to more set-up
        # probes
        while len(setups) < MAX_SETUP_PROBES:
            t0 = time.perf_counter()
            probe()
            if time.perf_counter() - began + \
                    2 * (time.perf_counter() - t0) > seconds:
                break

        traced = None
        if trace:
            traced, res = run_iteration(work, wl, seed, left(), checked,
                                        trace=True)
            tally(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        raise RuntimeError("no iteration finished")
    vals = {"wall_s": statistics.median(s["wall_s"] for s in timed),
            "cpu_s": statistics.median(s["cpu_s"] for s in timed),
            "setup_s": min(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed)}
    if trace:
        if traced is None or "trace" not in traced:
            raise RuntimeError("traced iteration failed")
        overhead = traced["wall_s"] - vals["wall_s"]
        metrics = tracer.per_layer_metrics(
            traced["trace"], res.certified, overhead, res.radius_max)
        facts["absent"] = traced["absent"]
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in vals.items()}
    facts["loadavg_after"] = os.getloadavg()
    facts["setup_samples"] = setups
    print(json.dumps({"facts": facts, "samples": samples,
                      "problems": problems[:20], "warnings": warnings}))
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "specgate" / "cli.py").is_file():
        print(f"bench: no specgate sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
