"""Infinite operators given by entry rules with structural metadata.

An :class:`OperatorSpec` describes an infinite matrix over the naturals or
the integers: an entry rule, bandwidths (or a certified tail bound for
long-range interactions), symmetry flags, and optional rigorous entry
enclosures for the verification pipeline.

Shipped operators:

* ``hermite_cubic_operator`` — the imaginary cubic oscillator p^2 + i x^3
  expanded over L^2-normalized Hermite functions, a banded complex-symmetric
  matrix with bandwidth 3.
* ``harmonic_oscillator_operator`` — diagonal (2m+1); its spectrum is exactly
  the odd integers, which makes it the test oracle of choice.
* ``lattice_longrange_operator`` — a non-normal lattice model on l^2(Z) with
  geometrically decaying hopping, exercising certified tail padding.

Plugin operators load from JSON band descriptions with coefficient
expressions in a small arithmetic grammar (the EBNF comment above
``_tokenize``).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import mpmath
from mpmath import iv as _iv
from mpmath import mp

from .intervals import (CIBox, MPIntervalScope, _fx_ctimes, _fx_enclose,
                        _fx_round)
from .precision import PrecisionContext

NATURALS = "naturals"
INTEGERS = "integers"

COMPLEX_SYMMETRIC = "ComplexSymmetric"
PT_SYMMETRIC = "PTSymmetric"
REAL_SPECTRUM = "RealSpectrumExpected"


class StructureError(ValueError):
    """An operator is missing the structure an operation requires."""


# ---------------------------------------------------------------------------
# numeric adapters: one coefficient formula, three arithmetics
# ---------------------------------------------------------------------------
#
# Doubles and mpf for entry, the fixed-point grid of intervals._fx_lib for
# entry_box.

class _FloatLib:
    @staticmethod
    def num(x):
        return float(x)

    @staticmethod
    def sqrt(x):
        return math.sqrt(x)

    @staticmethod
    def sin(x):
        return math.sin(x)


class _MPLib:
    @staticmethod
    def num(x):
        return mpmath.mpf(x)

    @staticmethod
    def sqrt(x):
        return mpmath.sqrt(x)

    @staticmethod
    def sin(x):
        return mpmath.sin(x)


FLOAT_LIB = _FloatLib()
MP_LIB = _MPLib()


# ---------------------------------------------------------------------------
# operator spec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """Immutable description of an infinite matrix by entry rule.

    ``entry(i, j, ctx)`` evaluates one matrix element in the given precision
    context; ``entry_box(i, j, lib)`` returns a rigorous enclosure of the
    same element, a :class:`~specgate.intervals.CIBox`, in the interval
    arithmetic ``lib``: the fixed-point int intervals of
    ``intervals._fx_lib`` at the scale of the band, on the grid the
    residual reads, at every precision.  The pipeline reads big-float
    entries only through ``entry_box`` on that grid (``truncation._band``);
    it reads ``entry`` at doubles, for the double band and the dense
    truncations.  ``entry`` at a big-float context remains as the tests'
    reference for the grid boxes.  Entry evaluation is pure, so specs are
    safe to share across threads.

    ``hints`` holds optional operator-specific fast paths by name; the one
    read today is ``mp_residual_rows(z, V, col_start, pad, p)``, the
    interval rows of (H - z) v over the padded block, which
    :func:`specgate.verify.verified_residual` reads in place of the band.
    It works on the fixed-point intervals of :mod:`specgate.intervals`:
    z as (re, im) int intervals and v as exact (re, im) ints at scale 2^-p
    in, the rows as (re, im) int intervals at that scale out.
    ``mpmath.iv`` runs only where an entry is transcendental: the sin,
    cos, exp and pi of the fixed-point lib (plugin coefficients), and the
    lattice's sines, both at no fewer than p bits; square roots and
    rational entries are integer floors and ceilings.
    Structure the entries reveal is derived, not declared: a spec whose
    band is real after the rotation W = diag(i^m) runs its real-shift
    big-float sigma and residuals in real arithmetic (``truncation._band``).
    """

    id: str
    index_domain: str
    entry: Callable[[int, int, PrecisionContext], complex]
    lower_bandwidth: Optional[int]
    upper_bandwidth: Optional[int]
    tail_bound: Optional[Callable[[int, int], float]] = None
    symmetry_flags: frozenset = frozenset()
    entry_box: Optional[Callable] = None
    hints: Mapping[str, object] = field(default_factory=dict)

    @property
    def banded(self) -> bool:
        return self.lower_bandwidth is not None and self.upper_bandwidth is not None

    def band_rows(self, col: int) -> range:
        """Structurally nonzero rows of a column, clipped to the domain."""
        if not self.banded:
            raise StructureError(f"{self.id}: unbounded bandwidth, use a cutoff")
        lo = col - self.upper_bandwidth
        hi = col + self.lower_bandwidth
        if self.index_domain == NATURALS:
            lo = max(lo, 0)
        return range(lo, hi + 1)

    def adjoint(self) -> "OperatorSpec":
        """Entrywise adjoint spec: A*[i, j] = conj(A[j, i])."""
        parent = self

        def adj_entry(i, j, ctx):
            v = parent.entry(j, i, ctx)
            return v.conjugate() if not isinstance(v, mpmath.mpc) else mpmath.conj(v)

        adj_box = None
        if parent.entry_box is not None:
            def adj_box(i, j, lib):
                return parent.entry_box(j, i, lib).conj()

        return OperatorSpec(
            id=parent.id + "*",
            index_domain=parent.index_domain,
            entry=adj_entry,
            lower_bandwidth=parent.upper_bandwidth,
            upper_bandwidth=parent.lower_bandwidth,
            tail_bound=parent.tail_bound,
            symmetry_flags=parent.symmetry_flags,
            entry_box=adj_box,
        )


# ---------------------------------------------------------------------------
# imaginary cubic oscillator over normalized Hermite functions
# ---------------------------------------------------------------------------
#
# With u_m the L^2-normalized Hermite functions, x u_m and u_m' obey the
# standard two-term recurrences; composing them gives a bandwidth-3 column:
#
#   offset -3 :  i * sqrt(m(m-1)(m-2)) / (2 sqrt 2)
#   offset -2 :  - sqrt(m(m-1)) / 2
#   offset -1 :  i * [ (m-1) sqrt(m) / (2 sqrt 2) + (2m+1)/2 * sqrt(m/2) ]
#   offset  0 :  (2m+1)/2
#   offset +1 :  i * [ (m+2) sqrt(m+1) / (2 sqrt 2) + (2m+1)/2 * sqrt((m+1)/2) ]
#   offset +2 :  - sqrt((m+1)(m+2)) / 2
#   offset +3 :  i * sqrt((m+1)(m+2)(m+3)) / (2 sqrt 2)
#
# The (2m+1)/2 factor (kinetic diagonal, and the x^2-weight inside the odd
# offsets) is fixed by the Gauss-Hermite quadrature oracle in the test
# suite; see the build notes for the competing printed variant it rules out.
#
# Each off-diagonal entry collapses to +-sqrt(K)/4 with K an integer:
# K = 18 max(m, m+off)^3 at offset +-1 (the bracket is 3 k^(3/2) / (2 sqrt 2)
# with k = max(m, m+off)), K = 4 p with a minus sign at +-2 and K = 2 p at
# +-3, where p is the product under the square root above.  So every entry
# costs one rounding, in any arithmetic.

def _cubic_coefficient(m: int, off: int, lib):
    """(value, is_imag) of the entry at row m + off of column m, for
    |off| <= 3 and m + off >= 0; the value in lib arithmetic."""
    if off == 0:
        return lib.num(2 * m + 1) / 2, False
    if off in (-1, 1):
        K = 18 * max(m, m + off) ** 3
    else:
        # m(m-1).. below the diagonal, (m+1)(m+2).. above
        p = math.prod(range(m + off + 1, m + 1)) if off < 0 else \
            math.prod(range(m + 1, m + off + 1))
        K = 4 * p if off in (-2, 2) else 2 * p
    mag = lib.sqrt(lib.num(K)) / 4
    return (-mag, False) if off in (-2, 2) else (mag, True)


def _cubic_entry(i: int, j: int, ctx: PrecisionContext):
    if i < 0 or j < 0 or abs(i - j) > 3:
        return mpmath.mpc(0) if not ctx.is_double else 0j
    if ctx.is_double:
        mag, is_imag = _cubic_coefficient(j, i - j, FLOAT_LIB)
        return complex(0, mag) if is_imag else complex(mag, 0)
    with ctx.workprec():
        mag, is_imag = _cubic_coefficient(j, i - j, MP_LIB)
        return mpmath.mpc(0, mag) if is_imag else mpmath.mpc(mag, 0)


def _cubic_entry_box(i: int, j: int, lib):
    zero = lib.num(0)
    if i < 0 or j < 0 or abs(i - j) > 3:
        return CIBox(zero, zero)
    mag, is_imag = _cubic_coefficient(j, i - j, lib)
    if is_imag:
        return CIBox(zero, mag)
    return CIBox(mag, zero)


def hermite_cubic_operator() -> OperatorSpec:
    """The imaginary cubic oscillator as a banded matrix over Hermite functions."""
    return OperatorSpec(
        id="cubic",
        index_domain=NATURALS,
        entry=_cubic_entry,
        lower_bandwidth=3,
        upper_bandwidth=3,
        tail_bound=None,
        symmetry_flags=frozenset({COMPLEX_SYMMETRIC, PT_SYMMETRIC, REAL_SPECTRUM}),
        entry_box=_cubic_entry_box,
    )


# ---------------------------------------------------------------------------
# harmonic oscillator (diagonal oracle)
# ---------------------------------------------------------------------------

def _harmonic_entry(i: int, j: int, ctx: PrecisionContext):
    if i == j and i >= 0:
        return complex(2 * j + 1, 0.0) if ctx.is_double else mpmath.mpc(2 * j + 1)
    return 0j if ctx.is_double else mpmath.mpc(0)


def _harmonic_entry_box(i: int, j: int, lib):
    val = lib.num(2 * j + 1) if (i == j and i >= 0) else lib.num(0)
    return CIBox(val, lib.num(0))


def harmonic_oscillator_operator() -> OperatorSpec:
    """Diagonal operator with spectrum exactly {1, 3, 5, ...}; the test oracle."""
    return OperatorSpec(
        id="harmonic",
        index_domain=NATURALS,
        entry=_harmonic_entry,
        lower_bandwidth=0,
        upper_bandwidth=0,
        tail_bound=None,
        symmetry_flags=frozenset({COMPLEX_SYMMETRIC, REAL_SPECTRUM}),
        entry_box=_harmonic_entry_box,
    )


# ---------------------------------------------------------------------------
# long-range lattice model on l^2(Z)
# ---------------------------------------------------------------------------
#
# [Hx]_n = (n^2/10 + 2i sin n) x_n + sum_{j>=1} 2^{1-j} (x_{n-j} + x_{n+j}).
#
# Per column, the l^2 mass of hops reaching further than m sites is bounded
# by (8/3) 2^{-m} (geometric sum over both directions, taken in the weaker
# printed form; the sharp geometric value is (8/3) 4^{-m}).  Aggregating the
# per-column bounds over a block of 2n+1 columns through the Frobenius norm
# gives the operator-norm tail bound
#
#     ||(I - P_{n+m}) H P_n||  <=  sqrt((2n+1) * (8/3)) * 2^{-m/2},
#
# which tail_padding inverts to pick m for a requested accuracy (m grows by
# about two sites per bit of accuracy).

_LATTICE_COL_SQ_COEFF = 8.0 / 3.0


def _lattice_entry(i: int, j: int, ctx: PrecisionContext):
    d = abs(i - j)
    if d == 0:
        if ctx.is_double:
            return complex(j * j / 10.0, 2.0 * math.sin(j))
        with ctx.workprec():
            return mpmath.mpc(mpmath.mpf(j * j) / 10, 2 * mpmath.sin(mpmath.mpf(j)))
    val = 2.0 ** (1 - d)
    return complex(val, 0.0) if ctx.is_double else mpmath.mpc(mpmath.mpf(2) ** (1 - d))


def _lattice_entry_box(i: int, j: int, lib):
    d = abs(i - j)
    zero = lib.num(0)
    if d == 0:
        re = lib.num(j * j) / lib.num(10)
        im = lib.num(2) * lib.sin(lib.num(j))
        return CIBox(re, im)
    # a power of two is exact in binary: on the fixed-point grid num
    # encloses it exactly, past the double range too
    return CIBox(lib.num(mpmath.ldexp(1, 1 - d)), zero)


def _lattice_tail_bound(n: int, m: int) -> float:
    if m < 0:
        raise ValueError("padding must be >= 0")
    cols = 2 * n + 1
    return math.sqrt(cols * _LATTICE_COL_SQ_COEFF) * 2.0 ** (-m / 2.0)


@functools.lru_cache(maxsize=4)
def _lattice_diagonal(N: int, p: int) -> tuple:
    """Fixed-point enclosures (re, im) of the diagonal entries
    i^2/10 + 2i sin i for i = -N..N, at scale 2^-p: i^2/10 by floor and
    ceiling division, 2 sin i in ``mpmath.iv`` at no fewer than p bits."""
    with MPIntervalScope(math.ceil(p / math.log2(10))):
        return tuple((((i * i << p) // 10, -((-(i * i) << p) // 10)),
                      _fx_enclose(2 * _iv.sin(i), p))
                     for i in range(-N, N + 1))


def _hop_sums(x) -> list:
    """[lo, hi] enclosing sum_{k != r} 2^(1-|r-k|) x_k for each r, for
    integers x, at their scale.

    The sum splits into a left part over k < r and a right part over k > r,
    which two sweeps build by recurrence: L_{r+1} = L_r / 2 + x_r from the
    first row down and R_{r-1} = R_r / 2 + x_r from the last row up, both
    0 past the ends.  Each halving rounds its lower end down and its upper
    end up, so the sums cost O(1) integer operations per row.
    """
    n = len(x)
    sums = [[0, 0] for _ in range(n)]
    for step, order in ((1, range(1, n)), (-1, range(n - 2, -1, -1))):
        acc = (0, 0)
        for r in order:
            lo, hi = _fx_round(acc, 1)
            acc = (lo + x[r - step], hi + x[r - step])
            sums[r][0] += acc[0]
            sums[r][1] += acc[1]
    return sums


def _lattice_residual_rows(z, V, col_start: int, pad: int, p: int):
    """Fixed-point interval rows of (H - z) v for the lattice block.

    z is the shift as (re, im) int intervals and V the vector as exact
    (re, im) ints (:func:`specgate.intervals._fx_vector`), both at scale
    2^-p; the rows come back as (re, im) int intervals at that scale, from
    the block's first padding row to its last.  The hop part of each row is
    :func:`_hop_sums` of the components of v, which are 0 outside the
    block's columns.  The diagonal term (d_i - z) v_i, with d_i from
    :func:`_lattice_diagonal` (cached per (N, p)), is exact at scale 2^-2p
    and rounded outward once per row.
    """
    (zrl, zrh), (zil, zih) = z
    zeros = [0] * pad
    rows = list(zip(_hop_sums(zeros + [t for t, _ in V] + zeros),
                    _hop_sums(zeros + [t for _, t in V] + zeros)))
    for r, ((vr, vi), (dre, dim)) in enumerate(
            zip(V, _lattice_diagonal(-col_start, p)), start=pad):
        re, im = _fx_ctimes((dre[0] - zrh, dre[1] - zrl),
                            (dim[0] - zih, dim[1] - zil), vr, vi)
        for acc, part in zip(rows[r], (_fx_round(re, p), _fx_round(im, p))):
            acc[0] += part[0]
            acc[1] += part[1]
    return rows


def lattice_longrange_operator() -> OperatorSpec:
    """Non-normal lattice model with exponentially decaying hopping."""
    return OperatorSpec(
        id="lattice",
        index_domain=INTEGERS,
        entry=_lattice_entry,
        lower_bandwidth=None,
        upper_bandwidth=None,
        tail_bound=_lattice_tail_bound,
        symmetry_flags=frozenset({COMPLEX_SYMMETRIC, PT_SYMMETRIC}),
        entry_box=_lattice_entry_box,
        hints={"mp_residual_rows": _lattice_residual_rows},
    )


BUILTIN_OPERATORS = {
    "cubic": hermite_cubic_operator,
    "harmonic": harmonic_oscillator_operator,
    "lattice": lattice_longrange_operator,
}


# ---------------------------------------------------------------------------
# plugin operators: JSON band descriptions with expression coefficients
# ---------------------------------------------------------------------------
#
# Grammar (EBNF):
#
#   expr    = term { ("+" | "-") term } ;
#   term    = factor { ("*" | "/") factor } ;
#   factor  = unary [ "^" factor ] ;
#   unary   = [ "-" | "+" ] atom ;
#   atom    = NUMBER | "n" | "pi" | "i"
#           | FUNC "(" expr ")" | "(" expr ")" ;
#   FUNC    = "sqrt" | "sin" | "cos" | "exp" ;
#
# Coefficient expressions are evaluated at the row index n.  A decimal
# NUMBER stands for the exact ratio it spells (0.1 is 1/10): doubles round
# it once, big floats at working precision, and intervals enclose it.  In
# interval mode, "^" accepts integer exponents and sqrt/sin/cos/exp require
# real arguments; anything else is rejected as not enclosable.

_FUNCS = ("sqrt", "sin", "cos", "exp")


class ExpressionError(ValueError):
    """Coefficient expression outside the plugin grammar."""


def _tokenize(text: str) -> list[str]:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in "+-*/^()":
            tokens.append(ch)
            k += 1
            continue
        if ch.isdigit() or ch == ".":
            j = k
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(text[k:j])
            k = j
            continue
        if ch.isalpha():
            j = k
            while j < len(text) and text[j].isalnum():
                j += 1
            word = text[k:j]
            if word not in _FUNCS and word not in ("n", "pi", "i"):
                raise ExpressionError(f"unknown name {word!r}")
            tokens.append(word)
            k = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}")
    return tokens


def parse_expression(text: str):
    """Parse a coefficient expression into an AST of nested tuples."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of expression")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ExpressionError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def expr():
        node = term()
        while peek() in ("+", "-"):
            op = take()
            node = (op, node, term())
        return node

    def term():
        node = factor()
        while peek() in ("*", "/"):
            op = take()
            node = (op, node, factor())
        return node

    def factor():
        node = unary()
        if peek() == "^":
            take()
            node = ("^", node, factor())
        return node

    def unary():
        if peek() in ("-", "+"):
            op = take()
            node = unary()
            return ("neg", node) if op == "-" else node
        return atom()

    def atom():
        tok = take()
        if tok in _FUNCS:
            take("(")
            node = expr()
            take(")")
            return (tok, node)
        if tok == "(":
            node = expr()
            take(")")
            return node
        if tok in ("n", "pi", "i"):
            return (tok,)
        try:
            if "." not in tok:
                return ("lit-int", int(tok))
            # a decimal is the exact ratio it spells, not its nearest
            # double; int() rejects a second "." and an empty token
            whole, _, frac = tok.partition(".")
            return ("lit", int(whole + frac), 10 ** len(frac))
        except ValueError as exc:
            raise ExpressionError(f"bad literal {tok!r}") from exc

    node = expr()
    if pos != len(tokens):
        raise ExpressionError(f"trailing input at token {tokens[pos]!r}")
    return node


def _eval_scalar(node, n: int, use_mp: bool):
    """Evaluate in complex floats or mpmath complex."""
    def ev(nd):
        tag = nd[0]
        if tag == "lit":
            # int / int is the correctly rounded double, as float(token) is
            return mpmath.mpc(mpmath.mpf(nd[1]) / nd[2]) if use_mp else \
                complex(nd[1] / nd[2])
        if tag == "lit-int":
            return mpmath.mpc(nd[1]) if use_mp else complex(nd[1])
        if tag == "n":
            return mpmath.mpc(n) if use_mp else complex(n)
        if tag == "pi":
            return mpmath.mpc(mp.pi) if use_mp else complex(math.pi)
        if tag == "i":
            return mpmath.mpc(0, 1) if use_mp else 1j
        if tag == "neg":
            return -ev(nd[1])
        if tag in ("+", "-", "*", "/", "^"):
            a, b = ev(nd[1]), ev(nd[2])
            if tag == "+":
                return a + b
            if tag == "-":
                return a - b
            if tag == "*":
                return a * b
            if tag == "/":
                return a / b
            return a ** b
        fn = {"sqrt": (mpmath.sqrt, cmath.sqrt),
              "sin": (mpmath.sin, cmath.sin),
              "cos": (mpmath.cos, cmath.cos),
              "exp": (mpmath.exp, cmath.exp)}[tag]
        return fn[0](ev(nd[1])) if use_mp else fn[1](ev(nd[1]))

    return ev(node)


def _eval_box(node, n: int, lib):
    """Evaluate as a rigorous complex box; rejects non-enclosable forms."""
    zero = lib.num(0)

    def real_only(box, what):
        if not box.im == zero:
            raise ExpressionError(f"{what} of a complex quantity is not enclosable")
        return box.re

    def ev(nd):
        tag = nd[0]
        if tag == "lit":
            return CIBox(lib.num(nd[1]) / nd[2], zero)
        if tag == "lit-int":
            return CIBox(lib.num(nd[1]), zero)
        if tag == "n":
            return CIBox(lib.num(n), zero)
        if tag == "pi":
            return CIBox(lib.pi(), zero)
        if tag == "i":
            return CIBox(zero, lib.num(1))
        if tag == "neg":
            return -ev(nd[1])
        if tag in ("+", "-", "*", "/"):
            a, b = ev(nd[1]), ev(nd[2])
            if tag == "+":
                return a + b
            if tag == "-":
                return a - b
            if tag == "*":
                return a * b
            denom = real_only(b, "division")
            return CIBox(a.re / denom, a.im / denom)
        if tag == "^":
            base = ev(nd[1])
            p = nd[2]
            if p[0] != "lit-int":
                raise ExpressionError("interval power needs an integer exponent")
            k = p[1]
            if k < 0:
                raise ExpressionError("interval power needs a nonnegative exponent")
            acc = CIBox(lib.num(1), zero)
            for _ in range(k):
                acc = acc * base
            return acc
        arg = real_only(ev(nd[1]), tag)
        if tag in _FUNCS:
            return CIBox(getattr(lib, tag)(arg), zero)
        raise ExpressionError(f"unsupported node {tag!r}")

    return ev(node)


def make_geometric_tail(col_sq_coeff: float, ratio: float,
                        domain: str) -> Callable[[int, int], float]:
    """Operator-norm tail bound from a geometric per-column l^2 bound.

    Per column, the squared mass beyond padding m is bounded by
    ``col_sq_coeff * ratio^m``; a block of B columns aggregates through the
    Frobenius norm to ``sqrt(B * col_sq_coeff) * ratio^(m/2)``.
    """
    def bound(n: int, m: int) -> float:
        cols = (2 * n + 1) if domain == INTEGERS else max(n, 1)
        return math.sqrt(cols * col_sq_coeff) * ratio ** (m / 2.0)

    return bound


def load_plugin_operator(source) -> OperatorSpec:
    """Build an OperatorSpec from a JSON plugin description.

    ``source`` is a path, a JSON string, or a dict with keys::

        {"id": str, "domain": "naturals"|"integers",
         "bands": [{"offset": int, "coefficient": expr}, ...],
         "tail": {"col_sq_coeff": float, "ratio": float}   # optional
         "symmetry": ["ComplexSymmetric", ...]}            # optional

    Coefficient expressions follow the grammar above, evaluated at the row
    index.  Unknown keys are rejected.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = None
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, TypeError):
            text = source
        data = json.loads(text)

    allowed = {"id", "domain", "bands", "tail", "symmetry"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown plugin keys: {sorted(unknown)}")
    op_id = data["id"]
    domain = data.get("domain", NATURALS)
    if domain not in (NATURALS, INTEGERS):
        raise ValueError(f"unknown domain {domain!r}")
    bands = {}
    for band in data["bands"]:
        off = int(band["offset"])
        if off in bands:
            raise ValueError(f"duplicate band offset {off}")
        bands[off] = parse_expression(band["coefficient"])
    if not bands:
        raise ValueError("plugin needs at least one band")

    tail = None
    if "tail" in data and data["tail"] is not None:
        tail = make_geometric_tail(float(data["tail"]["col_sq_coeff"]),
                                   float(data["tail"]["ratio"]), domain)
    lower = max(i for i in bands)
    upper = -min(i for i in bands)
    lower = max(lower, 0)
    upper = max(upper, 0)

    def entry(i, j, ctx):
        node = bands.get(i - j)
        if node is None:
            return 0j if ctx.is_double else mpmath.mpc(0)
        if ctx.is_double:
            return _eval_scalar(node, i, use_mp=False)
        with ctx.workprec():
            return _eval_scalar(node, i, use_mp=True)

    def entry_box(i, j, lib):
        node = bands.get(i - j)
        if node is None:
            return CIBox(lib.num(0), lib.num(0))
        return _eval_box(node, i, lib)

    flags = frozenset(data.get("symmetry", []))
    return OperatorSpec(
        id=op_id,
        index_domain=domain,
        entry=entry,
        lower_bandwidth=lower if tail is None else None,
        upper_bandwidth=upper if tail is None else None,
        tail_bound=tail,
        symmetry_flags=flags,
        entry_box=entry_box,
    )
