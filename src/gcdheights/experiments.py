"""Declarative sweep runner: grids over the library operations, tables out.

A sweep is described by a ``SweepConfig`` (kind + parameter map + seed),
validated and prepared once into shared inputs and index axes, evaluated
over the grid of those axes, and merged in index order — so a given config
produces byte-identical CSV no matter the job count.  Per-cell failures
become tagged error rows instead of aborting the run; a configurable error
budget (default 0) turns unexpected ones into a failure at the end.

Cells are evaluated in contiguous runs of the row-major grid, by flat
index: the whole grid at one job.  Past one job, the parent evaluates runs in
index order, in doubling steps, until it is done or has spent the cost of
starting and stopping a pool under the start method it would use
(``_POOL_START_S``) and its mean rate puts the rest above twice that; so a
sweep cheaper than a pool never starts one.  The rest goes to at most
min(jobs, usable CPUs, chunks) worker processes, each sent the shared inputs
once, in about 8 contiguous chunks per worker, highest indices first: BCZ
and AR cells get dearer with n, so the dearest chunks start first instead of
finishing on one worker alone.  Workers return plain tuples, which pickle
several times faster than rows.

Each kind is one ``KindSpec`` record in ``SPECS``.  A kind may have a range
kernel, which evaluates a whole run and hoists the work that depends on one
axis only (BCZ and AR multiply a^n and b^n up along the run, and when the
smaller base is 2^k fold the other power minus one modulo 2^(kn) - 1; CZ
strips each unit once, and copies the row of (b, a) from that of (a, b) when
the sweep's one record list, which each run appends to, holds it); ``row``
stays the oracle, and a run whose kernel raises is evaluated again cell by
cell, so each failing cell becomes an error row as without a kernel.  A row
is a tuple of the kind's ``Row`` type in ``columns`` order: index columns
first, then exact integer witnesses, then the log-space lhs/rhs pair and the
holds flag, then ``error`` (None but on an error row, which has only its
index values).  Rendering encodes each value by its type: integers with all
their digits, reals with 12 significant digits (a JSON config's exactly).  It
goes by column (``_texts``), through a memo of a column's distinct values
where they repeat, and ``render_json`` lays its records out in one list of
parts, a slice assignment per column, which it joins once.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, count, islice, product, repeat
from math import copysign, exp, gcd, inf, isfinite, isinf, isnan, log, prod
from multiprocessing import get_context
from operator import attrgetter, is_not, mul, sub
from statistics import median
from sys import float_info
from time import perf_counter

from .arith import PrimeSet, mult_independent
from .elliptic import (
    Curve,
    Point,
    _denominators,
    neg,
    on_curve,
)
from .gcd_height import PnPoint, PolySystem, VojtaParams
from .gcd_height import _bound, check_e2, check_mixed, check_pn
from .mulgrp import (
    EXCEPTIONAL,
    INEQUALITY_HOLDS,
    LN2,
    POWER_RELATION,
    _gcd_mersenne,
    _trichotomy,
    _unit,
    cz_classify,
    gcd_pair,
    s_unit_enumerate,
)

__all__ = [
    "SweepKind",
    "SweepConfig",
    "SweepResult",
    "KindSpec",
    "SPECS",
    "run",
    "summarize",
    "render_csv",
    "render_json",
    "format_real",
]


class SweepKind(str, Enum):
    BCZ = "BCZ"
    CZ_TRICHOTOMY = "CZ_TRICHOTOMY"
    AR_RETURNS = "AR_RETURNS"
    EDS_GCD = "EDS_GCD"
    PN_CHECK = "PN_CHECK"
    MIXED_CHECK = "MIXED_CHECK"
    SIEGEL = "SIEGEL"
    ABELIAN_GROWTH = "ABELIAN_GROWTH"


@dataclass(frozen=True)
class SweepConfig:
    kind: SweepKind
    parameters: dict
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", SweepKind(self.kind))


@dataclass
class SweepResult:
    config: SweepConfig
    records: list[tuple]
    summary: dict


@dataclass(frozen=True)
class KindSpec:
    """Everything the runner knows about one sweep kind.

    ``Row`` is the namedtuple of its ``columns``.  ``params`` has one entry
    per config key, ``(key, check)`` if required and ``(key, check, default)``
    if not; ``check(key, value)`` returns the plain value or raises
    ValueError naming the key.  ``prepare(p, seed)`` takes those values (see
    ``_checked``) and returns ``(ctx, axes)``: the inputs all cells share,
    and one or two sequences of ``index`` values whose row-major grid is the
    cells.  ``row(ctx, *key)`` evaluates one cell, possibly in a pool worker;
    its ``Row``, like an error row, carries ``key`` as its ``index`` columns.
    ``rows(ctx, axes, cells, out)``, the optional range kernel, appends to
    ``out`` the ``Row``s of ``cells``, a contiguous range of flat indices into
    the grid, equal to those of ``row`` on each cell.  ``out`` holds the rows
    just before ``cells.start``, error rows too: all of them in the parent,
    none in a pool chunk.  It may raise, and then ``_eval`` drops what it
    appended and maps ``row`` over the run.  Without a kernel, a run is the
    map of ``row``.  ``summary(good, p)`` gives the kind's own summary keys
    from its error-free rows; ``summarize`` adds the fit keys to every kind
    whose ``columns`` include ``hA``, mapping the log-scale fit to the
    config's ``C`` by ``C_of_fit``.
    """

    Row: type
    index: tuple[str, ...]
    params: tuple[tuple, ...]
    prepare: Callable[[dict, int], tuple[tuple, tuple[Sequence, ...]]]
    row: Callable[..., tuple]
    rows: Callable[[tuple, tuple, range, list], None] | None = None
    summary: Callable[[list[tuple], dict], dict] = lambda good, p: {}
    C_of_fit: Callable[[float], float] = lambda fit: fit

    @property
    def columns(self) -> tuple[str, ...]:
        return self.Row._fields


# ----------------------------------------------------------------------------
# config checks (each takes the key and its value), and preparation, which
# runs serially and may do real work
# ----------------------------------------------------------------------------

def _is_int(v) -> bool:
    """An int, or a float with an integral value; a bool or a string is neither."""
    return type(v) is int or type(v) is float and v.is_integer()


def _int(key: str, v) -> int:
    if not _is_int(v):
        raise ValueError(f"{key} must be an integer")
    return int(v)


def _at_least(low: int, what: str) -> Callable[[str, object], int]:
    def check(key: str, v) -> int:
        if not _is_int(v) or v < low:
            raise ValueError(f"{key} must be a {what} integer")
        return int(v)
    return check


def _ints(key: str, v) -> tuple[int, ...]:
    if not isinstance(v, (list, tuple)) or not all(map(_is_int, v)):
        raise ValueError(f"{key} must be a list of integers")
    return tuple(map(int, v))


def _real(key: str, v) -> float:
    """An int or a float (never a bool) as a float; NaN and inf pass through."""
    if type(v) is float or type(v) is int and abs(v) <= float_info.max:
        return float(v)
    raise ValueError(f"{key} must be a finite number")


def _positive(why: str = "") -> Callable[[str, object], float]:
    def check(key: str, v) -> float:
        x = _real(key, v)
        if not 0 < x < inf:  # NaN fails the comparison
            raise ValueError(f"{key} must be positive and finite{why}")
        return x
    return check


def _finite(key: str, v) -> float:
    x = _real(key, v)
    if isnan(x):
        raise ValueError(f"{key} must not be NaN")
    if isinf(x):
        raise ValueError(f"{key} must be finite")
    return x


def _curve(key: str, v) -> Curve:
    coeffs = _ints(key, v)
    if len(coeffs) != 5:
        raise ValueError(f"{key} needs exactly 5 coefficients a1,a2,a3,a4,a6")
    return Curve(*coeffs)


def _point(key: str, v) -> Point:
    """A pair [x, y] of rationals, each a number or a string like "3/4"."""
    try:
        x, y = (Fraction(str(t)) for t in (v if isinstance(v, (list, tuple)) else ()))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key} must be a pair [x, y] of rationals") from None
    return Point(x, y)


def _on_curve(c: Curve, p: Point, what: str) -> Point:
    if not on_curve(c, p):
        raise ValueError(f"{what} is not on the curve")
    return p


def _polys(key: str, v) -> PolySystem:
    if not (isinstance(v, (list, tuple)) and v and all(isinstance(t, str) for t in v)):
        raise ValueError(f"{key} must be a nonempty list of polynomial strings")
    return PolySystem.of(*v)


def _vouched(key: str, v) -> bool:
    if v is not True:
        raise ValueError(f"ABELIAN_GROWTH requires {key}: true "
                         "(caller must vouch for independent points)")
    return v


_EPS = ("eps", _positive())
_BUDGET = ("error_budget", _at_least(0, "non-negative"), 0)


def _checked(kind: SweepKind | str, params: dict, table: tuple | None = None) -> dict:
    """Each key of ``table`` (by default ``kind``'s and ``error_budget``),
    checked, defaults filled.  A null counts as absent only where the default
    is None, and stays None."""
    if table is None:
        table, kind = (*SPECS[kind].params, _BUDGET), kind.value
    known = {entry[0] for entry in table}
    for key in params:
        if key not in known:
            raise ValueError(f"{kind} config has unknown key {key!r}")
    p = {}
    for key, check, *default in table:
        if key not in params and not default:
            raise ValueError(f"{kind} config missing required key {key!r}")
        v = params.get(key, *default)
        p[key] = None if v is None and default == [None] else check(key, v)
    return p


def _independent(a: int, b: int) -> None:
    """The BCZ and AR hypothesis: a, b >= 2 and no power of one is one of the other."""
    if a < 2 or b < 2:
        raise ValueError("a and b must be >= 2")
    if not mult_independent(a, b):
        raise ValueError("multiplicatively dependent inputs: hypothesis violated")


def _prepare_bcz(p: dict, seed: int) -> tuple[tuple, tuple]:
    _independent(p["a"], p["b"])
    return (p["a"], p["b"], p["eps"], p["C"]), (range(1, p["n_max"] + 1),)


def _row_bcz(ctx: tuple, n: int) -> tuple:
    a, b, eps, C = ctx
    g = gcd_pair(a, b, n)
    return _BCZRow(n, g, *_bound(log(g), n * LN2, eps, C))


def _gcds(a: int, b: int, axes: tuple, cells: range) -> Iterator[tuple[int, int]]:
    """(n, gcd(a**n - 1, b**n - 1)) for each cell of a run on the BCZ and AR
    axis of consecutive n: the powers are taken at the run's first n and
    multiplied up from there.  When the smaller base is 2**k, each gcd is
    ``_gcd_mersenne(k * n, c**n - 1)`` of the other base c, which folds
    c**n - 1 in linear time instead of dividing it by 2**(k*n) - 1.  When
    2**k is the larger base there is no such division to skip, and splitting
    alone ran slower per cell, for (4, 3) up to 3072 bits and for (8, 3) up
    to 8192, so those pairs keep math.gcd."""
    if b & (b - 1) == 0:
        a, b = b, a
    k = a.bit_length() - 1 if a & (a - 1) == 0 and a < b else 0
    ns = axes[0][cells.start:cells.stop]
    if ns:
        x, y = a ** ns[0], b ** ns[0]
        for n in ns:
            yield n, _gcd_mersenne(k * n, y - 1) if k else gcd(x - 1, y - 1)
            x, y = x * a, y * b


def _rows_bcz(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """The map of ``_row_bcz`` over a run, with its gcds from ``_gcds``."""
    (a, b, eps, C), new = ctx, tuple.__new__
    out += [new(_BCZRow, (n, g, *_bound(log(g), n * LN2, eps, C), None))
            for n, g in _gcds(a, b, axes, cells)]


def _prepare_cz(p: dict, seed: int) -> tuple[tuple, tuple]:
    S = PrimeSet(p["primes"])
    units = s_unit_enumerate(S, p["bound"])
    # each unit stripped once, not once per pair
    return (S, p["eps"], {x: _unit(x, S) for x in units}), (units, units)


def _row_cz(ctx: tuple, a: int, b: int) -> tuple:
    S, eps, _ = ctx
    v = cz_classify(a, b, S, eps)
    return _CZRow(a, b, v.kind, v.m, v.n, v.gcd, v.lhs, v.rhs, v.holds)


def _rows_cz(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """The map of ``_row_cz`` over a run.  ``_trichotomy`` is symmetric, so a
    cell (i, j), j < i, copies the row of (j, i) in ``out``, m, n swapped, if error-free."""
    _, eps, unit = ctx
    units, L, s, new = axes[1], len(axes[1]), cells.start, tuple.__new__
    base = s - len(out)  # the cell of out[0]
    for i in range(s // L, -(-cells.stop // L)) if cells else ():
        a, ua, lo = units[i], unit[units[i]], max(s - i * L, 0)
        for j, b in enumerate(units[lo:min(cells.stop - i * L, L)], lo):
            if j < i and (k := j * L + i - base) >= 0 and (r := out[k])[9] is None:
                out.append(new(_CZRow, (a, b, r[2], r[4], r[3], r[5], r[6], r[7], r[8], None)))
            else:
                out.append(new(_CZRow, (a, b, *_trichotomy(ua, unit[b], eps), None)))


def _summary_cz(good: list[tuple], p: dict) -> dict:
    verdicts = list(map(attrgetter("verdict"), good))
    counts = {v: verdicts.count(v) for v in (POWER_RELATION, INEQUALITY_HOLDS, EXCEPTIONAL)}
    # power-relation pairs may fail the raw inequality legitimately; the
    # trichotomy's genuine violations are the EXCEPTIONAL rows
    pairs = [[r.alpha, r.beta] for r in good if r.verdict == EXCEPTIONAL]
    return {"violations": len(pairs),
            "max_violating_index": pairs[-1] if pairs else None,
            "verdicts": counts, "exceptional_pairs": pairs}


def _prepare_ar(p: dict, seed: int) -> tuple[tuple, tuple]:
    a, b = p["a"], p["b"]
    _independent(a, b)
    return (a, b, gcd_pair(a, b, 1)), (range(1, p["n_max"] + 1),)


def _row_ar(ctx: tuple, n: int) -> tuple:
    a, b, base = ctx
    g = gcd_pair(a, b, n)
    return _ARRow(n, g, base, g == base)


def _rows_ar(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """The map of ``_row_ar`` over a run, with its gcds from ``_gcds``."""
    a, b, base = ctx
    out += [_ARRow(n, g, base, g == base) for n, g in _gcds(a, b, axes, cells)]


def _summary_ar(good: list[tuple], p: dict) -> dict:
    idx = [r.n for r in good if r.is_return]
    return {"returns": len(idx), "density": len(idx) / len(good) if good else 0.0,
            "return_indices": idx}


def _prepare_eds_gcd(p: dict, seed: int) -> tuple[tuple, tuple]:
    """With Q = P, gcd(D_mP, D_nP) = D_gP for g = gcd(m, n), ln D_kP ~ k^2 h(P)
    and hA ~ 2(m^2 + n^2) h(P) (h canonical), so lhs/hA tends to
    1/(2((m/g)^2 + (n/g)^2)): along (m/g, n/g) the bound eps*hA + C fails
    exactly on the disc (m/g)^2 + (n/g)^2 <= 1/(2 eps), which a cell flags
    ``exceptional``.  A list of the disc's directions would grow as 1/eps, so
    each cell tests its own."""
    c, m_max, n_max = p["curve"], p["m_max"], p["n_max"]
    P = _on_curve(c, p["p"], "p")
    Q = None if p["q"] is None else _on_curve(c, p["q"], "q")
    # denominator and naive height once per multiple, not once per cell, and
    # one list for both axes when they share the base point
    mp = _denominators(c, P, max(m_max, n_max) if Q is None else m_max, True)
    nq = mp if Q is None else _denominators(c, Q, n_max, True)
    bound = 1.0 / (2.0 * p["eps"])  # the disc's radius squared
    return ((mp, nq, bound, p["eps"], p["C"]),
            (range(1, m_max + 1), range(1, n_max + 1)))


def _row_eds_gcd(ctx: tuple, m: int, n: int) -> tuple:
    mp, nq, bound, eps, C = ctx
    (d_m, h_m), (d_n, h_n) = mp[m - 1], nq[n - 1]
    g = gcd(m, n)
    return _EDSGCDRow(m, n, d_m, d_n, **check_e2(d_m, d_n, h_m + h_n, eps, C),
                      exceptional=(m // g) ** 2 + (n // g) ** 2 <= bound)


def _box_point(bound: int, nvars: int, i: int) -> tuple[int, ...]:
    """Point ``i`` of the PN box in lexicographic order.

    The box is ``[1, bound] x (nonzero in [-bound, bound])^(nvars-1)``: a
    positive first coordinate fixes the projective sign, and zero coordinates
    are outside the counting function's domain.  Mixed radix, first
    coordinate most significant.
    """
    tail = []
    for _ in range(nvars - 1):
        i, d = divmod(i, 2 * bound)
        tail.append(d - bound + (d >= bound))
    return (i + 1, *reversed(tail))


def _distinct_draws(rng: random.Random, size: int) -> Iterator[int]:
    """Indices of ``range(size)`` in random order, each once.

    A lazy Fisher-Yates shuffle: ``swaps`` holds only the entries moved so
    far, so each draw is O(1) and no index is drawn twice.
    """
    swaps: dict[int, int] = {}
    for k in range(size):
        j = rng.randrange(k, size)
        yield swaps.get(j, j)
        swaps[j] = swaps.get(k, k)


def _prepare_pn(p: dict, seed: int) -> tuple[tuple, tuple]:
    system, bound, sample = p["polys"], p["bound"], p["sample"]
    nvars = max(f.max_var() for f in system.polys) + 1
    if nvars < 2:
        raise ValueError("system must involve at least X0 and X1")
    vp = VojtaParams(epsilon=p["eps"], delta=p["delta"], C=p["C"], r=p["codim_r"])
    S = PrimeSet(p["primes"])

    # Points of the box (see _box_point) with gcd 1 and off V.  A sampled run
    # visits the box in the seed's shuffled order until the sample is full,
    # so its cost follows the sample, not the box; otherwise every point in
    # index order.  A sample above the box size (even above islice's
    # sys.maxsize limit) keeps every point.
    size = max(bound, 0) * (2 * bound) ** (nvars - 1)  # empty below bound 1
    order = (range(size) if sample is None
             else _distinct_draws(random.Random(seed), size))
    box = (_box_point(bound, nvars, i) for i in order)
    ok = (t for t in box
          if gcd(*t) == 1 and not all(f(t) == 0 for f in system.polys))
    pts = list(islice(ok, None if sample is None else min(sample, size)))
    return (system, S, vp), ([":".join(map(str, t)) for t in sorted(pts)],)


def _row_pn(ctx: tuple, point: str) -> tuple:
    system, S, vp = ctx
    coords = tuple(int(t) for t in point.split(":"))
    return _PNRow(point, **check_pn(PnPoint(coords), system, S, vp))


def _prepare_mixed(p: dict, seed: int) -> tuple[tuple, tuple]:
    c, n_max = p["curve"], p["n_max"]
    P = _on_curve(c, p["point"], "point")
    S = PrimeSet(p["primes"])
    units = s_unit_enumerate(S, p["b_bound"])
    dq = _denominators(c, P, n_max)
    return (dq, S, p["eps"], p["C"]), (range(1, n_max + 1), units)


def _row_mixed(ctx: tuple, n: int, b: int) -> tuple:
    dq, S, eps, C = ctx
    return _MixedRow(n, b, dq[n - 1], **check_mixed(dq[n - 1], b, S, eps, C))


def _prepare_siegel(p: dict, seed: int) -> tuple[tuple, tuple]:
    c, n_min, n_max = p["curve"], p["n_min"], p["n_max"]
    P = _on_curve(c, p["point"], "point")
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    # (D, naive height) of n*P for n_min <= n <= n_max
    dn = _denominators(c, P, n_max, True)[n_min - 1:]
    return (n_min, dn), (range(n_min, n_max + 1),)


def _row_siegel(ctx: tuple, n: int) -> tuple:
    n_min, dn = ctx
    d, naive = dn[n - n_min]
    ratio = 0.0 if d == 1 else 2.0 * log(d) / naive
    return _SiegelRow(n, d, naive, ratio)


def _summary_siegel(good: list[tuple], p: dict) -> dict:
    ratios = [r.ratio for r in good]
    return {"median_abs_dev": median(abs(x - 1.0) for x in ratios) if ratios else None,
            "max_ratio": max(ratios) if ratios else None}


def _prepare_abelian(p: dict, seed: int) -> tuple[tuple, tuple]:
    c, n_max = p["curve"], p["n_max"]
    P = _on_curve(c, p["p"], "p")
    Q = _on_curve(c, p["q"], "q")
    if Q in (P, neg(c, P)):  # then (nP, nQ) lies on a curve in E x E
        raise ValueError("q must not be p or -p: the points are dependent")
    dp, dq = _denominators(c, P, n_max), _denominators(c, Q, n_max)
    return (dp, dq, p["eps"], p["C"]), (range(1, n_max + 1),)


def _row_abelian(ctx: tuple, n: int) -> tuple:
    dp, dq, eps, C = ctx
    return _AbelianRow(n, dp[n - 1], dq[n - 1],
                       **check_e2(dp[n - 1], dq[n - 1], float(n ** 2), eps, C))


def _row_type(name: str, columns: str) -> type:
    return namedtuple(name, columns + " error", defaults=(None,))


# One row type per kind: index columns first, error last.  Each is a module
# attribute of its own name, so pool workers can pickle rows.
_BCZRow = _row_type("_BCZRow", "n gcd lhs hA rhs holds")
_CZRow = _row_type("_CZRow", "alpha beta verdict m n gcd lhs rhs holds")
_ARRow = _row_type("_ARRow", "n gcd base_gcd is_return")
_EDSGCDRow = _row_type("_EDSGCDRow", "m n d_m d_n gcd lhs hA rhs holds exceptional")
_PNRow = _row_type("_PNRow", "point gcd lhs hA hcount rhs holds")
_MixedRow = _row_type("_MixedRow", "n b d_q gcd lhs hA rhs holds")
_SiegelRow = _row_type("_SiegelRow", "n d naive ratio")
_AbelianRow = _row_type("_AbelianRow", "n d_p d_q gcd lhs hA rhs holds")

_A_B_N = (("a", _int), ("b", _int), ("n_max", _int))
_EPS_C = (_EPS, ("C", _finite, 0.0))

SPECS: dict[SweepKind, KindSpec] = {
    SweepKind.BCZ: KindSpec(
        index=("n",), params=(*_A_B_N, *_EPS_C),
        prepare=_prepare_bcz, row=_row_bcz, rows=_rows_bcz, Row=_BCZRow,
    ),
    SweepKind.CZ_TRICHOTOMY: KindSpec(
        index=("alpha", "beta"), params=(("primes", _ints), ("bound", _int), _EPS),
        prepare=_prepare_cz, row=_row_cz, rows=_rows_cz, Row=_CZRow,
        summary=_summary_cz,
    ),
    SweepKind.AR_RETURNS: KindSpec(
        index=("n",), params=_A_B_N,
        prepare=_prepare_ar, row=_row_ar, rows=_rows_ar, Row=_ARRow,
        summary=_summary_ar,
    ),
    SweepKind.EDS_GCD: KindSpec(
        index=("m", "n"), params=(("curve", _curve), ("p", _point), ("q", _point, None),
                                  ("m_max", _int), ("n_max", _int), *_EPS_C),
        prepare=_prepare_eds_gcd, row=_row_eds_gcd, Row=_EDSGCDRow,
    ),
    SweepKind.PN_CHECK: KindSpec(
        index=("point",), params=(("polys", _polys), ("codim_r", _int, 2),
                                  ("primes", _ints), ("bound", _int), *_EPS_C,
                                  ("delta", _real, 1.0),
                                  ("sample", _at_least(1, "positive"), None)),
        prepare=_prepare_pn, row=_row_pn, Row=_PNRow,
        summary=lambda good, p: {"points": len(good)},
    ),
    SweepKind.MIXED_CHECK: KindSpec(
        index=("n", "b"), params=(("curve", _curve), ("point", _point),
                                  ("primes", _ints), _EPS, ("n_max", _int),
                                  ("C", _positive(" (it multiplies the bound)"), 1.0),
                                  ("b_bound", _int, 100)),
        prepare=_prepare_mixed, row=_row_mixed, Row=_MixedRow, C_of_fit=exp,
    ),
    SweepKind.SIEGEL: KindSpec(
        index=("n",), params=(("curve", _curve), ("point", _point),
                              ("n_min", _int, 1), ("n_max", _int)),
        prepare=_prepare_siegel, row=_row_siegel, Row=_SiegelRow,
        summary=_summary_siegel,
    ),
    SweepKind.ABELIAN_GROWTH: KindSpec(
        index=("n",), params=(("independence_asserted", _vouched, False),
                              ("curve", _curve), ("p", _point), ("q", _point),
                              ("n_max", _int), *_EPS_C),
        prepare=_prepare_abelian, row=_row_abelian, Row=_AbelianRow,
    ),
}


def _keys(axes: tuple, cells: range) -> Iterator[tuple]:
    """The index tuples of ``cells``, a range of flat indices into the
    row-major grid of one or two ``axes``: ``(A[i],)`` or
    ``(A[i // len(B)], B[i % len(B)])`` for each i."""
    if len(axes) == 1:
        return zip(axes[0][cells.start:cells.stop])
    A, B = axes
    i, j = divmod(cells.start, len(B) or 1)
    return islice(product(A[i:], B), j, j + len(cells))


def _eval(kind: SweepKind, ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """Append the rows of ``cells``, a range of flat indices into the grid of
    ``axes``, to ``out`` in order; ``out`` holds those before (see ``KindSpec``).

    The kind's kernel evaluates the run when it has one and does not raise;
    otherwise each cell goes through ``row``, and a failing cell becomes an error row.
    """
    spec, start = SPECS[kind], len(out)
    if spec.rows is not None:
        try:
            return spec.rows(ctx, axes, cells, out)
        except Exception:  # the cells below tag the failures
            del out[start:]
    blank = (None,) * (len(spec.columns) - len(spec.index) - 1)
    for key in _keys(axes, cells):
        try:
            out.append(spec.row(ctx, *key))
        except Exception as exc:  # per-record capture is the contract here
            out.append(spec.Row(*key, *blank, f"{type(exc).__name__}: {exc}"))


# (kind, ctx, axes) of the sweep a pool worker serves; set once per worker by
# the pool's initializer, so the shared inputs are pickled once, not per chunk
_WORKER: tuple = ()


def _init_worker(kind: SweepKind, ctx: tuple, axes: tuple) -> None:
    global _WORKER
    _WORKER = (kind, ctx, axes)


def _eval_chunk(cells: range) -> list[tuple]:
    kind, ctx, axes = _WORKER
    _eval(kind, ctx, axes, cells, rows := [])
    return list(map(tuple, rows))


# Seconds to start and stop a pool of two workers, by start method (2 cores,
# Python 3.11): a forked worker inherits the parent, the others start afresh
_POOL_START_S = {"fork": 0.012, "forkserver": 0.15, "spawn": 0.15}


# ----------------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------------

def run(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Execute a sweep; deterministic for a fixed config at any job count."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    kind = config.kind
    p = _checked(kind, config.parameters)
    ctx, axes = SPECS[kind].prepare(p, config.seed)
    total = prod(len(axis) for axis in axes)
    workers = min(jobs, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
    records, step, pool_s = [], total, inf  # one job: the whole grid in one run
    if workers > 1:  # reading the start method fixes it, so only a run that may pool reads it
        mp = get_context()
        step, pool_s = 1, _POOL_START_S[mp.get_start_method()]
    start = perf_counter()
    while (done := len(records)) < total:  # the serial head
        _eval(kind, ctx, axes, range(done, min(done + step, total)), records)
        spent, step = perf_counter() - start, min(2 * step, 64)
        if spent > pool_s and spent * (total - len(records)) > 2 * pool_s * len(records):
            break
    if rest := range(len(records), total):
        size = -(-len(rest) // (8 * workers))
        chunks = [rest[i:i + size] for i in range(0, len(rest), size)]
        with ProcessPoolExecutor(min(workers, len(chunks)), mp_context=mp,
                                 initializer=_init_worker,
                                 initargs=(kind, ctx, axes)) as pool:
            done = list(pool.map(_eval_chunk, reversed(chunks)))  # dearest first
        Row = SPECS[kind].Row
        records += [tuple.__new__(Row, t) for rows in reversed(done) for t in rows]
    errors = [r.error for r in records if r.error is not None]
    if len(errors) > p["error_budget"]:
        raise ValueError(
            f"error budget exceeded: {len(errors)} error rows "
            f"(budget {p['error_budget']}); first: {errors[0]}"
        )
    summary = summarize(kind, records, config)
    return SweepResult(config=config, records=records, summary=summary)


def summarize(kind: SweepKind, records: list[tuple], config: SweepConfig) -> dict:
    """Recompute the summary block from the records and the checked parameters.

    A kind with an ``hA`` column also gets ``violations`` (its rows that fail
    the bound), the index of the last of them, and ``fitted_constant``: the
    least C with lhs <= eps*hA [+ hcount/(codim_r - 1 + delta*eps)] + C on
    every error-free row not flagged ``exceptional`` (the asserted
    exceptional set), or None when no such row is left; a kind whose config
    ``C`` multiplies the bound reports exp of that C, which it can take back.
    """
    spec, p = SPECS[kind], _checked(kind, config.parameters)
    cols = spec.columns
    good = [r for r in records if r.error is None]
    s: dict = {"kind": kind.value, "cells": len(records),
               "error_rows": len(records) - len(good)}
    if "hA" in cols:
        viol = [r for r in good if r.holds is False]
        s["violations"] = len(viol)
        s["max_violating_index"] = list(viol[-1][:len(spec.index)]) if viol else None
        eps = p["eps"]
        if "hcount" in cols:  # the counting term on P^n
            weight = VojtaParams(eps, p["delta"], p["C"], p["codim_r"]).weight
            gaps = (r.lhs - eps * r.hA - r.hcount / weight for r in good)
        else:  # by column, from the rows not flagged exceptional
            rows = [r for r in good if not r.exceptional] if "exceptional" in cols else good
            lhs, hA = map(attrgetter("lhs"), rows), map(attrgetter("hA"), rows)
            gaps = map(sub, lhs, map(mul, repeat(eps), hA))
        fit = max(gaps, default=None)
        s["fitted_constant"] = None if fit is None else spec.C_of_fit(fit)
    return {**s, **spec.summary(good, p)}


# ----------------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------------

def format_real(x: float) -> str:
    """Fixed 12-significant-digit rendering used by all emitted reals."""
    return f"{x:.12g}"


def _format_int(v: int) -> str:
    """All the digits of ``v``, also past str()'s 4300-digit limit."""
    try:
        return str(v)
    except ValueError:
        from decimal import Decimal  # exact, and imported only for huge witnesses
        return str(Decimal(v))


def _json_real(v: float) -> str:
    """repr(float(t)) of the 12-digit text t of ``v``; where t is fixed point, so
    is that, with t's digits (12 name one double) and ".0" after an integer."""
    if not isfinite(v):  # strict JSON has no token for it
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    text = f"{v:.12g}"
    return repr(float(text)) if "e" in text else text if "." in text else text + ".0"


_bool_text = ("false", "true").__getitem__


def _csv_text(v: str) -> str:
    """``v`` as a CSV field: a text with a comma, a quote, a line feed or a
    carriage return is quoted, its quotes doubled, so csv.reader reads it
    back whole."""
    if "," in v or '"' in v or "\n" in v or "\r" in v:
        return '"' + v.replace('"', '""') + '"'
    return v


# One encoder per exact value type: the text of a value in each format (CSV
# reals are format_real's text, by a method in C).  JSON writes computed reals
# at 12 significant digits, and the reals a document echoes from its inputs
# (under the top-level keys of ``_ECHOED``) exactly, by repr.
_CSV = {int: _format_int, float: "{:.12g}".format, bool: _bool_text, str: _csv_text,
        type(None): lambda v: ""}
_JSON = {int: _format_int, float: _json_real, bool: _bool_text,
         str: json.encoder.encode_basestring_ascii, type(None): {None: "null"}.__getitem__}
_ECHO = {**_JSON, float: lambda x: repr(x) if isfinite(x) else _json_real(x)}
_ECHOED = dict.fromkeys(("config", "tol", "params"), _ECHO)


def _texts(col: Sequence, enc: dict) -> Iterable[str]:
    """The texts by ``enc`` of a column's values, the loops in C: through a memo
    of its distinct values where they repeat and a set keeps their texts apart
    (not True, 1 and 1.0, nor 0.0 and -0.0), else by str() or value by value."""
    if len(col) < 64:  # too short for the passes below to pay
        return [enc[type(v)](v) for v in col]
    types, values = set(map(type, col)), col
    if types == {float} or float not in types and len(types & {bool, int}) < 2:
        values = set(col)
        if types == {float} and 0.0 in values and min(map(copysign, repeat(1.0), col)) < 0:
            values = col  # its zeros may have two signs
    if 2 * len(values) <= len(col):
        return map({v: enc[type(v)](v) for v in values}.__getitem__, col)
    if types == {int} and max(map(int.bit_length, col)) < 2000:  # below any str() limit
        return map(str, col)
    return map(enc[types.pop()], col) if len(types) == 1 else [enc[type(v)](v) for v in col]


def _csv_table(columns: Sequence[str], rows) -> str:
    """A header of ``columns``, then a line per row, encoded by column."""
    texts = [_texts(col, _CSV) for col in zip(*rows)]
    return "\n".join([",".join(columns), *map(",".join, zip(*texts)), ""])


def render_csv(result: SweepResult) -> str:
    """One row per record in index order, fixed header per kind."""
    return _csv_table(SPECS[result.config.kind].columns, result.records)


def _json_text(v, pad: str = "\n", enc: dict = _JSON) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it after the
    line break and indent ``pad``, but by ``enc`` (reals at 12 digits, ints of
    any length), or by the encoder ``_ECHOED`` gives a top-level key (inputs,
    exactly); a list of scalars, or of lists of as many scalars, by column."""
    inner = pad + "  "
    if isinstance(v, dict):
        top = _ECHOED if pad == "\n" else {}
        ends, items = "{}", [f"{_JSON[str](k)}: {_json_text(x, inner, top.get(k, enc))}"
                             for k, x in sorted(v.items())]
    elif not isinstance(v, (list, tuple)):
        return enc[type(v)](v)
    elif (types := set(map(type, v))) <= enc.keys():
        ends, items = "[]", _texts(v, enc)
    elif (types <= {list, tuple} and len(set(map(len, v))) == 1 and v[0]
          and set(map(type, chain.from_iterable(v))) <= enc.keys()):
        row = f"[{inner}  " + f",{inner}  ".join(["%s"] * len(v[0])) + f"{inner}]"
        ends, items = "[]", map(row.__mod__, zip(*[_texts(c, enc) for c in zip(*v)]))
    else:
        ends, items = "[]", [_json_text(x, inner, enc) for x in v]
    sep = "," + inner  # one f-string copies a long list's text once, not per +
    return f"{ends[0]}{inner}{sep.join(items)}{pad}{ends[1]}" if v else ends


def render_json(result: SweepResult, version: str | None = None) -> str:
    """Full result: effective config, summary, records; results at 12 digits.

    The embedded config block, its reals exact, re-ingests as a SweepConfig
    that reproduces this output exactly.  A NaN or infinite real raises
    ValueError, since strict JSON has no token for it.
    """
    if version is None:
        from . import __version__ as version
    records, spec, cfg = result.records, SPECS[result.config.kind], result.config
    cols, keys, errs = spec.columns, sorted(spec.columns[:-1]), (*spec.index, "error")
    columns, width, n = [*zip(*records)] or [()] * len(cols), 2 * len(keys) + 1, len(records)
    # a record is an object of sorted keys: every column but error, laid out in
    # one list of parts by a slice assignment per key and per column, or on an
    # error row its index and error
    parts = [f",\n    {{\n      {json.dumps(keys[0])}: "] * (n * width)
    after = [*(f",\n      {json.dumps(k)}: " for k in keys[1:]), "\n    }"]
    for j, (k, piece) in enumerate(zip(keys, after)):
        parts[2 * j + 1::width] = _texts(columns[cols.index(k)], _JSON)
        parts[2 * j + 2::width] = [piece] * n
    for i in compress(count(), map(is_not, columns[-1], repeat(None))):
        text = _json_text({k: getattr(records[i], k) for k in errs}, "\n    ")
        parts[i * width:(i + 1) * width] = [",\n    " + text, *[""] * (width - 1)]
    parts[:1] = [p[1:] for p in parts[:1]]  # no comma before the first record
    # the document's keys in sorted order, joined once
    block = {"kind": cfg.kind.value, "parameters": cfg.parameters, "seed": cfg.seed}
    return "".join(['{\n  "config": ', _json_text(block, "\n  ", _ECHO), ',\n  "records": [',
                    *parts, "\n  ]" if n else "]", ',\n  "summary": ',
                    _json_text(result.summary, "\n  "), ',\n  "version": ',
                    _JSON[str](version), "\n}\n"])
