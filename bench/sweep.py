"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workloads cubic-eigs lattice-eigs \
        --seeds 1 2 3 4 5 --seconds 40 [--trace] [--out FILE]

For each workload and seed it runs ``run.py`` once, in turn, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the interquartile distance as a share of the median.  With
``--trace`` it also lists the count metrics that differ between runs.
``--out`` writes every result line and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    report = {}
    for wl in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                sys.exit(1)
            res, facts = json.loads(lines[-1]), json.loads(lines[-2])
            results.append({"seed": seed, "result": res, "facts": facts})
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"iterations={len(facts['samples'])}", flush=True)
        names = results[0]["result"]["metrics"]
        summary = {n: summarize([r["result"]["metrics"][n]["value"]
                                 for r in results]) for n in names}
        varying = sorted(
            n for n in names if names[n]["unit"] == "count" and
            len({r["result"]["metrics"][n]["value"] for r in results}) > 1)
        report[wl] = {"runs": results, "summary": summary,
                      "varying_counts": varying}
        if not args.trace:
            for n, s in summary.items():
                print(f"  {n:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                      f"  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
        else:
            print(f"  counts that differ between runs: {varying or 'none'}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    main()
