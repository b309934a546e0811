"""One measured specgate run in a fresh process.

    python3 bench/child.py --src SRC --op OP --result FILE [--setup-only]
                           [--trace] -- <specgate CLI arguments>

Times the set-up (importing ``specgate.cli`` and building the operator and
its model through the public factories), then one call of
``specgate.cli.main`` with the given arguments, and writes the timings as
JSON to FILE.  With ``--trace`` the call runs under ``tracer.Tracer`` and
the span summary is written too.  Only the standard library is imported
before the set-up clock starts.
"""

import argparse
import json
import resource
import sys
import time


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import specgate.cli as cli
    from specgate.ltp import model_for_operator
    from specgate.operators import BUILTIN_OPERATORS
    BUILTIN_OPERATORS[args.op]()
    model_for_operator(args.op)
    out = {"setup_s": time.perf_counter() - t0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer  # bench/ is sys.path[0]
            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_seconds()
        w0 = time.perf_counter()
        rc = cli.main(cli_args)
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = _cpu_seconds() - cpu0
        out["rc"] = rc
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["absent"] = tracer.absent
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
