"""Span tracing of specgate's public functions, installed from outside.

``Tracer.install()`` replaces every public module-level function of every
imported ``specgate.*`` module with a wrapper that records a span: its name,
its parent span, the name of the calling function, start, end and whether
it returned.
The replacement is made wherever a ``specgate.*`` module namespace (or a dict
in one, such as ``cli._COMMANDS``) holds the function object, so names
imported with ``from .sigma import gamma`` are traced too.

Operator entries (``entry``, ``entry_box`` and the ``hints`` callables) cost
about a microsecond each, so they are counted, not spanned: the factories in
``operators.BUILTIN_OPERATORS`` are swapped for ones that return
``dataclasses.replace(op, ...)`` with counting callables.

Spans stay in memory; ``summary()`` folds them into per-name statistics
after the traced call returns.  Nothing here imports specgate at module
level, so the self-tests can exercise the arithmetic on synthetic spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

#: Functions whose spans are split by the precision context they ran in,
#: so double and big-float work get separate names.
SPLIT_BY_PRECISION = {"sigma.sigma_min", "verify.verified_residual"}

#: Public functions the per-layer metrics read.  A name missing at the
#: commit under test is reported as absent, not as an error: later changes
#: are expected to delete some of them (``banded_sigma_*``, for one).
EXPECTED = (
    "cli.main",
    "ltp.dist_bound",
    "sigma.banded_sigma_complex",
    "sigma.banded_sigma_complex_double",
    "sigma.banded_sigma_real",
    "sigma.gamma",
    "sigma.jacobi_smallest_singular",
    "sigma.right_vector",
    "sigma.sigma_min",
    "solver.bootstrap_certify",
    "solver.locate_minimum",
    "solver.pseudospectrum_grid",
    "truncation.rectangular",
    "truncation.tail_padding",
    "verify.certify_eigenvalue",
    "verify.verified_residual",
)

#: Operator callables that get counts only, by OperatorSpec field / hint key.
COUNTED_OPERATOR_PARTS = ("entry", "entry_box")


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    ``spans`` is a sequence of ``(span_id, parent_id, start, end)``;
    children may overlap each other (worker threads), so their intervals
    are merged before subtracting.  Returns ``{span_id: self_seconds}``.
    """
    children: dict = {}
    bounds = {}
    for sid, parent, start, end in spans:
        bounds[sid] = (start, end)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def summarize(spans, counts):
    """Fold raw spans into per-name and per-(name, caller) statistics.

    ``spans`` holds ``(span_id, parent_id, name, caller, start, end, ok)``.
    Returns a JSON-ready dict with ``names`` ({name: {calls, ok, total_s,
    self_s}}), ``callers`` ({"name<caller": {calls, total_s}}) and
    ``counts``.
    """
    selfs = self_times([(s[0], s[1], s[4], s[5]) for s in spans])
    names: dict = {}
    callers: dict = {}
    for sid, _parent, name, caller, start, end, ok in spans:
        rec = names.setdefault(name, {"calls": 0, "ok": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        rec["calls"] += 1
        rec["ok"] += int(ok)
        rec["total_s"] += end - start
        rec["self_s"] += selfs[sid]
        by = callers.setdefault(f"{name}<{caller}",
                                {"calls": 0, "total_s": 0.0})
        by["calls"] += 1
        by["total_s"] += end - start
    return {"names": names, "callers": callers, "counts": dict(counts)}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1).__next__
        self._local = threading.local()
        self._stacks = {}
        self._counters = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def _counter(self):
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def span_wrapper(self, name, fn, ctx_index=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name
            if ctx_index is not None:
                ctx = kwargs.get("ctx", args[ctx_index]
                                 if len(args) > ctx_index else None)
                full += ".double" if getattr(ctx, "is_double", True) \
                    else ".bigfloat"
            caller = sys._getframe(1).f_code.co_name
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's outermost span belongs to whatever the
                # main thread is running (the span that submitted the work)
                top = tracer._stacks.get(tracer._main, [])[-1:] \
                    if threading.get_ident() != tracer._main else []
                parent = top[0] if top else None
            sid = tracer._ids()
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, full, caller, start, end,
                                     ok))

        return wrapper

    def count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._counter()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counts(self):
        total = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def summary(self):
        return summarize(self.spans, self.counts())

    # -- installation ------------------------------------------------------

    def counted_operator(self, op):
        changes = {part: self.count_wrapper(f"operators.{part}",
                                            getattr(op, part))
                   for part in COUNTED_OPERATOR_PARTS
                   if getattr(op, part, None) is not None}
        if getattr(op, "hints", None):
            changes["hints"] = {
                key: self.count_wrapper(f"operators.{key}", val)
                if callable(val) else val
                for key, val in dict(op.hints).items()}
        return dataclasses.replace(op, **changes)

    def install(self):
        """Wrap every public function of the imported specgate modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("specgate.") and mod is not None}
        operators = modules.get("specgate.operators")
        factories = getattr(operators, "BUILTIN_OPERATORS", {})
        count_only = set()
        for key, factory in list(factories.items()):
            hints = getattr(factory(), "hints", None) or {}
            count_only.update(id(v) for v in dict(hints).values())

            def counted(factory=factory):
                return self.counted_operator(factory())
            factories[key] = counted

        wrappers = {}
        wrapped = set()
        for modname, mod in modules.items():
            short = modname.split(".", 1)[1]
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or val.__module__ != modname
                        or id(val) in count_only):
                    continue
                name = f"{short}.{attr}"
                ctx_index = None
                if name in SPLIT_BY_PRECISION:
                    params = list(inspect.signature(val).parameters)
                    if "ctx" in params:
                        ctx_index = params.index("ctx")
                wrappers[id(val)] = self.span_wrapper(name, val, ctx_index)
                wrapped.add(name)
        self.absent = [n for n in EXPECTED if n not in wrapped]

        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict) and val is not factories:
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            val[key] = wrappers[id(item)]


# -- per-layer metrics ---------------------------------------------------------

#: spans reported with call count and self time
TIMED = ("sigma.sigma_min.bigfloat", "sigma.sigma_min.double",
         "sigma.banded_sigma_real", "sigma.banded_sigma_complex_double",
         "solver.locate_minimum", "ltp.dist_bound",
         "verify.verified_residual.double", "verify.verified_residual.bigfloat",
         "verify.certify_eigenvalue", "truncation.tail_padding",
         "truncation.rectangular")
#: spans reported with call count only (the last two flag fallbacks)
COUNTED = ("sigma.gamma", "sigma.right_vector", "sigma.banded_sigma_complex",
           "sigma.jacobi_smallest_singular")
#: spans reported with self time only
SELF_ONLY = ("solver.pseudospectrum_grid", "cli.main")
#: operator callables, counted by the swapped factories
OPERATOR_COUNTS = ("entry", "entry_box", "real_rotation", "mp_residual_rows")
RESIDUAL = ("verify.verified_residual.double",
            "verify.verified_residual.bigfloat")


def per_layer_metrics(summary, certified, overhead_s, radius_max):
    """Per-layer metrics of one traced run, as ``{name: {value, unit}}``.

    ``certified`` is the number of enclosures the run reported; ratios
    "per eig" divide by it (0 when nothing was certified).  Stages are
    attributed by caller: ``solver.gap_scan.*`` covers the residual and
    vector spans called from ``_gap_scan``, and
    ``solver.residual_attempts_per_eig`` the residuals called from
    ``bootstrap_certify`` (above 1 means N was escalated).
    """
    names, callers, counts = (summary["names"], summary["callers"],
                              summary["counts"])

    def stat(name, key):
        return names.get(name, {}).get(key, 0)

    def by_caller(spans, caller, key):
        return sum(callers.get(f"{s}<{caller}", {}).get(key, 0)
                   for s in spans)

    def per_eig(x):
        return x / certified if certified else 0.0

    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for key in OPERATOR_COUNTS:
        out[f"operators.{key}.calls"] = (counts.get(f"operators.{key}", 0),
                                         "count")
    gap = RESIDUAL + ("sigma.right_vector",)
    out["solver.gap_scan.calls"] = (by_caller(gap, "_gap_scan", "calls"),
                                    "count")
    out["solver.gap_scan.s"] = (by_caller(gap, "_gap_scan", "total_s"), "s")
    out["solver.sigma_bigfloat_per_eig"] = (
        per_eig(stat("sigma.sigma_min.bigfloat", "calls")), "ratio")
    out["solver.residual_attempts_per_eig"] = (
        per_eig(by_caller(RESIDUAL, "bootstrap_certify", "calls")), "ratio")
    attempts = stat("verify.certify_eigenvalue", "calls")
    out["verify.certified_per_attempt"] = (
        stat("verify.certify_eigenvalue", "ok") / attempts if attempts
        else 0.0, "ratio")
    out["verify.radius_max"] = (radius_max, "1")
    out["trace.overhead_s"] = (overhead_s, "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in out.items()}
