"""Command-line front end.

Subcommands: eigs, pseudospectrum, certify, condition, eigenfunction,
operators.  Certified results are emitted as schema-validated JSON with
decimal-string numbers; grids and eigenfunction samples as CSV.  Exit codes
are part of the interface: 0 success, 1 usage or configuration error,
2 certification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import mpmath
import numpy as np
from mpmath import mp

from .intervals import _raw
from .ltp import GapMembershipError, model_for_operator, model_from_json
from .operators import BUILTIN_OPERATORS, INTEGERS, load_plugin_operator
from .precision import bigfloat, parse_precision
from .sigma import right_vector
from .solver import (GapScanError, bootstrap_certify, condition_number,
                     evaluate_eigenfunction, pseudospectrum_grid)
from .truncation import TailError
from .verify import (CertificationError, _half_width, certify_eigenvalue,
                     dump_report, enclosures_to_report)

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _truncation_size(text: str) -> int:
    """The value of --N: an integer of at least 1."""
    try:
        N = int(text)
    except ValueError:
        N = 0
    if N < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return N


def _build_parser() -> _Parser:
    p = _Parser(prog="specgate",
                description="certified spectra of non-Hermitian operators")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--op", default="cubic",
                        help="builtin operator id (cubic, harmonic, lattice)")
        sp.add_argument("--plugin", help="JSON plugin operator description")
        sp.add_argument("--model", help="JSON inversion-constant model "
                                        "(required for plugin certification)")
        sp.add_argument("--precision", default="double",
                        help="double or bigfloat:<digits>")
        sp.add_argument("--output", "-o", help="output path (default stdout)")

    sp = sub.add_parser("eigs", help="certify the lowest eigenvalues")
    common(sp)
    sp.add_argument("--n", type=int, default=5, help="how many eigenvalues")
    sp.add_argument("--target-radius", type=float, default=None)
    sp.add_argument("--N", type=_truncation_size, default=None,
                    help="override the truncation-size schedule")
    sp.add_argument("--candidates-out",
                    help="also write the float-stage candidates for certify")

    sp = sub.add_parser("pseudospectrum", help="gamma_N on a grid (CSV)")
    common(sp)
    sp.add_argument("--region", type=float, nargs=4, required=True,
                    metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    sp.add_argument("--resolution", type=int, nargs=2, default=(40, 40),
                    metavar=("NX", "NY"))
    sp.add_argument("--N", type=_truncation_size, default=150)
    sp.add_argument("--parallelism", type=int, default=0,
                    help="ignored: the grid is batched in one thread; "
                         "kept until the benchmark's command line stops "
                         "passing it")

    sp = sub.add_parser("certify", help="re-certify a stored candidate")
    common(sp)
    sp.add_argument("--candidate", required=True,
                    help="candidate JSON: {z, m, vector?, N?, digits?}; "
                         "a candidate is checked at no fewer than its "
                         "digits")
    sp.add_argument("--N", type=_truncation_size, default=None,
                    help="truncation size when the vector must be recomputed")

    sp = sub.add_parser("condition", help="eigenvalue condition numbers")
    common(sp)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--n-min", type=int, default=1,
                    help="report indices starting here")
    sp.add_argument("--N", type=_truncation_size, default=None)

    sp = sub.add_parser("eigenfunction", help="sample a certified eigenfunction")
    common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--x-min", type=float, default=-8.0)
    sp.add_argument("--x-max", type=float, default=8.0)
    sp.add_argument("--samples", type=int, default=400)

    sp = sub.add_parser("operators", help="list built-in and plugin operators")
    common(sp)
    return p


def _resolve_operator(args):
    if args.plugin:
        op = load_plugin_operator(args.plugin)
        model = model_from_json(args.model) if args.model else None
        return op, model
    if args.op not in BUILTIN_OPERATORS:
        raise UsageError(f"unknown operator {args.op!r}; use --plugin for "
                         "custom operators")
    op = BUILTIN_OPERATORS[args.op]()
    model = model_from_json(args.model) if args.model else \
        model_for_operator(args.op)
    return op, model


def _write(args, text: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _exact_decimal(x) -> str:
    """The exact decimal value of a double or an mpf.  Parsed at any
    precision that holds its bits, it comes back as the same binary value,
    which a string rounded to fewer digits does not."""
    sign, man, exp, _ = _raw(x)
    if not man and exp:
        raise ValueError(f"cannot write the non-finite value {x}")
    digits = str(man << exp) if exp >= 0 else f"{man * 5 ** -exp}e{exp}"
    return "-" + digits if sign else digits


def _candidates(op, encs, ctx) -> dict:
    """The --candidates-out payload: for each enclosure its index, center,
    strip index, N, digits and the vector that certified, with the center
    and the vector written exactly (:func:`_exact_decimal`)."""
    cands = []
    for e in encs:
        z = e.center
        cands.append({
            "n": e.index_n, "m": e.gap_index_m,
            "z": {"re": _exact_decimal(z.real), "im": _exact_decimal(z.imag)}
            if e.is_complex else _exact_decimal(z),
            "N": _half_width(op, len(e.vector)),
            "digits": e.precision_digits,
            "vector": [[_exact_decimal(t.real), _exact_decimal(t.imag)]
                       for t in e.vector]})
    return {"op": op.id, "precision": ctx.describe(), "candidates": cands}


def cmd_eigs(args) -> int:
    op, model = _resolve_operator(args)
    if model is None:
        raise UsageError("plugin certification needs --model")
    ctx = parse_precision(args.precision)
    schedule = (lambda n: args.N) if args.N is not None else None
    encs = bootstrap_certify(op, model, args.n, ctx, N_schedule=schedule,
                             target_radius=args.target_radius)
    report = enclosures_to_report(encs, op.id, ctx.describe(),
                                  timestamp=_timestamp())
    _write(args, dump_report(report))
    if args.candidates_out:
        with open(args.candidates_out, "w", encoding="utf-8") as fh:
            json.dump(_candidates(op, encs, ctx), fh, indent=1,
                      sort_keys=True)
    return 0


def cmd_pseudospectrum(args) -> int:
    op, _ = _resolve_operator(args)
    ctx = parse_precision(args.precision)
    grid = pseudospectrum_grid(op, tuple(args.region), tuple(args.resolution),
                               args.N, ctx)
    nx, ny = grid.resolution
    res = np.linspace(args.region[0], args.region[1], nx)
    ims = np.linspace(args.region[2], args.region[3], ny)
    lines = ["re,im,gamma"]
    for iy in range(ny):
        for ix in range(nx):
            lines.append(f"{float(res[ix])!r},{float(ims[iy])!r},"
                         f"{float(grid.values[iy, ix])!r}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def _parse_candidate_z(raw, digits):
    with mp.workdps(digits + 10):
        if isinstance(raw, dict):
            return mpmath.mpc(mpmath.mpf(raw["re"]), mpmath.mpf(raw["im"]))
        return mpmath.mpf(raw)


def _certify_candidates(op, model, data: dict, base, N=None) -> list:
    """Enclosures of the candidates of a --candidate file (one candidate,
    or a --candidates-out payload), each checked at no fewer digits than
    it carries; a candidate without a vector gets the right singular
    vector at size N, or else at its own N."""
    encs = []
    for entry in data.get("candidates", [data]):
        ctx = base
        digits = 16 if ctx.is_double else ctx.digits
        if int(entry.get("digits", 0)) > digits:
            digits = int(entry["digits"])
            ctx = bigfloat(digits)
        z = _parse_candidate_z(entry["z"], digits)
        m = int(entry.get("m", 2))
        if entry.get("vector"):
            with mp.workdps(digits + 10):
                v = [mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
                     for re, im in entry["vector"]]
        else:
            size = int(entry.get("N", 200)) if N is None else N
            v = right_vector(op, z, size, ctx)
        encs.append(certify_eigenvalue(op, model, z, v, m, ctx,
                                       index_n=entry.get("n", m - 1)))
    return encs


def cmd_certify(args) -> int:
    op, model = _resolve_operator(args)
    if model is None:
        raise UsageError("plugin certification needs --model")
    base = parse_precision(args.precision)
    with open(args.candidate, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    encs = _certify_candidates(op, model, data, base, args.N)
    report = enclosures_to_report(encs, op.id, base.describe(),
                                  timestamp=_timestamp())
    _write(args, dump_report(report))
    return 0


def cmd_condition(args) -> int:
    op, model = _resolve_operator(args)
    ctx = parse_precision(args.precision)
    encs = bootstrap_certify(op, model, args.n, ctx)
    rows = []
    for enc in encs:
        if enc.index_n < args.n_min:
            continue
        N = args.N if args.N is not None else \
            _half_width(op, len(enc.vector))
        res = condition_number(op, enc, N, ctx)
        n = enc.index_n
        rescaled = res.kappa * math.exp(-n * math.pi / math.sqrt(3.0)) \
            * n ** 0.25
        rows.append({"n": n, "kappa": res.kappa, "rescaled": rescaled,
                     "consistency": res.consistency})
    payload = {"operator": op.id, "precision": ctx.describe(),
               "generated_at": _timestamp(), "condition_numbers": rows}
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_eigenfunction(args) -> int:
    op, model = _resolve_operator(args)
    if op.index_domain == INTEGERS:
        raise UsageError(f"{op.id}: eigenfunctions are sampled in the Hermite "
                         "basis, and this operator's basis is l^2(Z)")
    ctx = parse_precision(args.precision)
    encs = bootstrap_certify(op, model, args.n, ctx)
    # the certified vector, at unit norm and real at its largest coefficient
    v = np.array([complex(t) for t in encs[args.n - 1].vector])
    big = v[np.argmax(np.abs(v))]
    v = v * (abs(big) / big) / np.linalg.norm(v)
    xs = np.linspace(args.x_min, args.x_max, args.samples)
    samples = evaluate_eigenfunction(v, xs)
    lines = ["x,re_psi,im_psi"]
    for x, val in zip(samples.xs, samples.values):
        lines.append(f"{float(x)!r},{float(val.real)!r},{float(val.imag)!r}")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_operators(args) -> int:
    rows = []
    for name, factory in sorted(BUILTIN_OPERATORS.items()):
        op = factory()
        rows.append({
            "id": op.id,
            "domain": op.index_domain,
            "banded": op.banded,
            "bandwidths": [op.lower_bandwidth, op.upper_bandwidth],
            "symmetry": sorted(op.symmetry_flags),
            "tail_bound": op.tail_bound is not None,
        })
    if args.plugin:
        op = load_plugin_operator(args.plugin)
        rows.append({"id": op.id, "domain": op.index_domain,
                     "banded": op.banded,
                     "bandwidths": [op.lower_bandwidth, op.upper_bandwidth],
                     "symmetry": sorted(op.symmetry_flags),
                     "tail_bound": op.tail_bound is not None})
    _write(args, json.dumps({"operators": rows}, indent=2, sort_keys=True) + "\n")
    return 0


_COMMANDS = {
    "eigs": cmd_eigs,
    "pseudospectrum": cmd_pseudospectrum,
    "certify": cmd_certify,
    "condition": cmd_condition,
    "eigenfunction": cmd_eigenfunction,
    "operators": cmd_operators,
}

_CERTIFICATION_ERRORS = (CertificationError, GapScanError,
                         GapMembershipError, TailError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"specgate: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"specgate: {exc}", file=sys.stderr)
        return 1
    except _CERTIFICATION_ERRORS as exc:
        stage = type(exc).__name__
        print(f"specgate: certification failed [{stage}]: {exc}",
              file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"specgate: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
