"""Declarative sweep runner: grids over the library operations, tables out.

A sweep is described by a ``SweepConfig`` (kind + parameter map + seed),
validated and prepared once into shared inputs and index axes, evaluated
over the grid of those axes, and merged in index order — so a given config
produces byte-identical CSV no matter the job count.  A cell whose
computation fails (ArithmeticError or ValueError) becomes a tagged error
row, and more than the error budget (default 0) fail the run at the end;
any other exception is a fault of the program and leaves the run at once.

Cells are evaluated in contiguous runs of the row-major grid, by flat
index: the whole grid at one job.  Past one job, the parent evaluates runs in
index order until it is done or has spent the cost of starting and stopping a
pool under the start method it would use (``_POOL_START_S``) and its mean
rate puts the rest above twice that; so a sweep cheaper than a pool never
starts one.  A run doubles the next while it takes under 1/32 of that cost,
and halves it past 1/16.  The rest goes to at most
min(jobs, usable CPUs, chunks) worker processes, each sent the shared inputs
once, in about 8 contiguous chunks per worker, highest indices first: BCZ
and AR cells get dearer with n, so the dearest chunks start first instead of
finishing on one worker alone.  Workers return plain tuples, which pickle
several times faster than rows.  multiprocessing is imported when a run
first may pool (``jobs`` > 1 on more than one usable CPU) and
concurrent.futures when one first does, so a run at one job loads neither.

Each kind is one ``KindSpec`` record in ``SPECS``, and its range kernel
``rows`` is the one route that evaluates its cells, a run at a time.  Where
it hoists work out of the cells: BCZ and AR multiply a^n and b^n up along
the run, and when the smaller base is 2^k fold the other power minus one
modulo 2^(kn) - 1; CZ strips each unit once, copies the row of (b, a) from
that of (a, b) when the sweep's one record list, which each run appends to,
holds it, and evaluates the rest a unit's row at a time, a map per column,
with only the pairs of units on one root through the per-pair core; EDS_GCD
without q reads gcd(D_m, D_n) off strong divisibility as D_gcd(m, n) and
takes ln D_g once per g; MIXED_CHECK takes |b - 1| and ln|b| once per b and
ln D_n once.  PN_CHECK, SIEGEL and ABELIAN_GROWTH map a per-cell function.
A row is a tuple of the kind's ``Row`` type in ``columns`` order: index
columns first, then exact integer witnesses, then the log-space lhs/rhs pair
and the holds flag, then ``error`` (None but on an error row, which has only
its index values).  Rendering encodes each value by its type, which the row
type declares per column: integers with all their digits, reals with 12
significant digits (a JSON config's exactly).  It goes by block of at most
``_BLOCK`` records, and within a block by column (``_texts``), through a memo
of a column's distinct values where they repeat; ``render_json`` lays a
block's records out in one list of parts, a slice assignment per column, and
joins each block into one text.  The renderers return the blocks joined; the
CLI writes them one by one.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence, Set
from enum import Enum
from fractions import Fraction
from itertools import chain, compress, count, islice, product, repeat
from math import copysign, exp, gcd, inf, isfinite, isinf, isnan, log, prod
from operator import attrgetter, is_not, itemgetter, le, mul, sub, truediv
from statistics import median
from sys import float_info, maxsize
from time import perf_counter

from .arith import EPS_SLACK, PrimeSet, mult_independent
from .elliptic import (
    Curve,
    Point,
    _denominators,
    neg,
    on_curve,
)
from .gcd_height import PnPoint, PolySystem, VojtaParams, bound, check_pn
from .mulgrp import (
    EXCEPTIONAL,
    INEQUALITY_HOLDS,
    LN2,
    POWER_RELATION,
    _gcd_mersenne,
    _trichotomy,
    _unit,
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


class SweepConfig(namedtuple("SweepConfig", "kind parameters seed")):
    __slots__ = ()

    def __new__(cls, kind: SweepKind | str, parameters: dict, seed: int = 0) -> "SweepConfig":
        return tuple.__new__(cls, (SweepKind(kind), parameters, seed))


class SweepResult(namedtuple("SweepResult", "config records summary")):
    __slots__ = ()


class KindSpec(namedtuple("KindSpec", "Row index params prepare rows summary C_of_fit",
                          defaults=(lambda good, p: {}, lambda fit: fit))):
    """Everything the runner knows about one sweep kind.

    ``Row`` is the namedtuple of its ``columns``, whose ``types`` it declares
    (see ``_row_type``).  ``params`` has one entry
    per config key, ``(key, check)`` if required and ``(key, check, default)``
    if not; ``check(key, value)`` returns the plain value or raises
    ValueError naming the key.  ``prepare(p, seed)`` takes those values (see
    ``_checked``) and returns ``(ctx, axes)``: the inputs all cells share,
    and one or two sequences of ``index`` values whose row-major grid is the
    cells.  ``rows(ctx, axes, cells, out)``, the kind's range kernel and its
    one evaluator, possibly in a pool worker, appends to ``out`` the ``Row``s
    of ``cells``, a contiguous range of flat indices into the grid; each
    carries its key as its ``index`` columns, as an error row does.  ``out``
    holds the rows just before ``cells.start``, error rows too: all of them
    in the parent, none in a pool chunk.  A kernel that raises ArithmeticError
    or ValueError has failed a cell, and ``_eval`` runs it again cell by
    cell; any other exception leaves ``run``.  ``summary(good, p)``
    gives the kind's own summary keys from its error-free rows;
    ``summarize`` adds the fit keys to every kind whose ``columns`` include
    ``hA``, mapping the log-scale fit to the config's ``C`` by ``C_of_fit``.
    """

    __slots__ = ()

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


def _size(key: str, v) -> int:
    if _int(key, v) > maxsize:  # a grid axis past it has no len()
        raise ValueError(f"{key} must be an integer <= {maxsize}")
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
    """n, gcd(a**n - 1, b**n - 1) from ``_gcds`` and its bound eps*n*ln 2 + C."""
    (a, b, eps, C), new = ctx, tuple.__new__
    out += [new(_BCZRow, (n, g, *bound(log(g), n * LN2, eps, C), None))
            for n, g in _gcds(a, b, axes, cells)]


def _prepare_cz(p: dict, seed: int) -> tuple[tuple, tuple]:
    """The units, each stripped once, and their columns: |x - 1|, the rhs
    eps*ln|x| of a pair whose larger unit is x (the units ascend by |x|, and
    so does the rhs; inf where ``bound`` refuses it), that rhs plus the
    slack of ``holds``, and the indices of the units on the root of x, whose
    pairs with x alone may have a power relation."""
    S, eps = PrimeSet(p["primes"]), p["eps"]
    units = s_unit_enumerate(S, p["bound"])
    unit = [_unit(x, S) for x in units]
    rhs = []
    for u in unit:
        try:
            rhs.append(bound(0.0, u.log_size, eps, 0.0)[2])
        except OverflowError:  # _cz_cells refuses each cell whose larger unit is u
            rhs.append(inf)
    on_root: dict = {}
    for j, u in enumerate(unit):
        on_root.setdefault(u.root, []).append(j)
    return ((eps, units, unit, [u.shifted for u in unit], rhs,
             [r + EPS_SLACK for r in rhs], [on_root[u.root] for u in unit]),
            (units, units))


_VERDICT = (EXCEPTIONAL, INEQUALITY_HOLDS).__getitem__  # by holds
_MIRROR = itemgetter(1, 0, 2, 4, 3, 5, 6, 7, 8, 9)  # the row of (b, a) from that of (a, b)


def _cz_cells(ctx: tuple, i: int, lo: int, hi: int) -> list[tuple]:
    """The rows of the CZ cells (i, j), lo <= j < hi, each column one map
    over the slice of the units' columns: the rhs is that of unit max(i, j).
    The cells of units on the root of unit i are replaced by the rows of
    ``_trichotomy``, which finds their power relations.  A slice that
    reaches a unit whose rhs is inf raises ``bound``'s OverflowError."""
    eps, units, unit, shifted, rhs, top, on_root = ctx
    k, n = max(min(i, hi), lo), hi - lo  # cells lo..k lie below the diagonal
    if n and rhs[max(i, hi - 1)] == inf:  # the rhs ascends: the slice's last is its largest
        bound(0.0, unit[max(i, hi - 1)].log_size, eps, 0.0)
    g = list(map(gcd, repeat(shifted[i], n), shifted[lo:hi]))
    lhs = list(map(log, g))
    holds = list(map(le, lhs, [top[i]] * (k - lo) + top[k:hi]))
    rows = list(map(tuple.__new__, repeat(_CZRow), zip(
        repeat(units[i]), units[lo:hi], map(_VERDICT, holds), repeat(None), repeat(None),
        g, lhs, [rhs[i]] * (k - lo) + rhs[k:hi], holds, repeat(None))))
    for j in on_root[i]:
        if lo <= j < hi:
            rows[j - lo] = tuple.__new__(_CZRow, (
                units[i], units[j], *_trichotomy(unit[i], unit[j], eps), None))
    return rows


def _rows_cz(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """The ``cz_classify`` verdict of each pair of a run, a unit row at a
    time.  ``_trichotomy`` is symmetric, so the cells (i, j), j < i, whose
    rows of (j, i) in ``out`` are all error-free copy them, m and n swapped;
    ``_cz_cells`` evaluates the rest."""
    L, s, e = len(axes[1]), cells.start, cells.stop
    base = s - len(out)  # the cell of out[0]
    for i in range(s // L, -(-e // L)) if cells else ():
        lo, hi = max(s - i * L, 0), min(e - i * L, L)
        # the rows of (j, i) for c0 <= j < c1 are written: j*L + i >= base
        c1 = max(min(i, hi), lo)
        c0 = min(max(lo, -((i - base) // L)), c1)
        mirrors = out[c0 * L + i - base:c1 * L + i - base:L]
        if any(map(itemgetter(9), mirrors)):  # an error text is never empty
            c0, mirrors = c1, ()
        if lo < c0:
            out += _cz_cells(ctx, i, lo, c0)
        out += map(tuple.__new__, repeat(_CZRow), map(_MIRROR, mirrors))
        out += _cz_cells(ctx, i, c1, hi)


def _summary_cz(good: list[tuple], p: dict) -> dict:
    verdicts = list(map(itemgetter(2), good))
    counts = {v: verdicts.count(v) for v in (POWER_RELATION, INEQUALITY_HOLDS, EXCEPTIONAL)}
    # power-relation pairs may fail the raw inequality legitimately; the
    # trichotomy's genuine violations are the EXCEPTIONAL rows
    pairs = [[r[0], r[1]] for r, v in zip(good, verdicts) if v == EXCEPTIONAL]
    return {"violations": len(pairs), "max_violating_index": pairs[-1] if pairs else None,
            "verdicts": counts, "exceptional_pairs": pairs}


def _prepare_ar(p: dict, seed: int) -> tuple[tuple, tuple]:
    a, b = p["a"], p["b"]
    _independent(a, b)
    return (a, b, gcd_pair(a, b, 1)), (range(1, p["n_max"] + 1),)


def _rows_ar(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """Each n of a run, its gcd from ``_gcds``, and whether it is that of n = 1."""
    a, b, base = ctx
    out += [_ARRow(n, g, base, g == base) for n, g in _gcds(a, b, axes, cells)]


def _summary_ar(good: list[tuple], p: dict) -> dict:
    idx = [r.n for r in good if r.is_return]
    return {"returns": len(idx), "density": len(idx) / len(good) if good else 0.0,
            "return_indices": idx}


def _prepare_eds_gcd(p: dict, seed: int) -> tuple[tuple, tuple]:
    """With Q = P, gcd(D_mP, D_nP) = D_gP for g = gcd(m, n): for each prime p
    and r >= 1, E_r(Q_p) = {O} u {R : v_p(x_R) <= -2r} is a subgroup (the
    formal-group filtration, Silverman AEC VII.2.2), so {k : p^r | D_kP} is a
    subgroup of Z and holds m and n exactly when it holds g; the kernel reads
    each such gcd off the list.  As ln D_kP ~ k^2 h(P) and hA ~ 2(m^2 + n^2)
    h(P) (h canonical), lhs/hA tends to 1/(2((m/g)^2 + (n/g)^2)): along
    (m/g, n/g) the bound eps*hA + C fails exactly on the disc
    (m/g)^2 + (n/g)^2 <= 1/(2 eps), which a cell flags ``exceptional``.  A
    list of the disc's directions would grow as 1/eps, so each cell tests its
    own."""
    c, m_max, n_max = p["curve"], p["m_max"], p["n_max"]
    P = _on_curve(c, p["p"], "p")
    Q = None if p["q"] is None else _on_curve(c, p["q"], "q")
    # denominator and naive height once per multiple, not once per cell, and
    # one list for both axes when they share the base point
    mp = _denominators(c, P, max(m_max, n_max) if Q is None else m_max, True)
    nq = mp if Q is None else _denominators(c, Q, n_max, True)
    disc = 1.0 / (2.0 * p["eps"])  # the disc's radius squared
    return ((mp, nq, disc, p["eps"], p["C"]),
            (range(1, m_max + 1), range(1, n_max + 1)))


def _rows_eds_gcd(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """m, n, gcd(D_m, D_n) and its bound on h(mP) + h(nQ).  Without q, that
    gcd is D_g, g = gcd(m, n) (see ``_prepare_eds_gcd``), read off the list
    with ln D_g taken once per g; with q, one gcd per cell."""
    mp, nq, disc, eps, C = ctx
    ln = [log(d) for d, _ in mp[:len(axes[0])]] if mp is nq else None
    new = tuple.__new__
    for m, n in _keys(axes, cells):
        (d_m, h_m), (d_n, h_n), g = mp[m - 1], nq[n - 1], gcd(m, n)
        k = gcd(d_m, d_n) if ln is None else mp[g - 1][0]
        out.append(new(_EDSGCDRow, (m, n, d_m, d_n, k, *bound(
            log(k) if ln is None else ln[g - 1], h_m + h_n, eps, C),
            (m // g) ** 2 + (n // g) ** 2 <= disc, None)))


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


def _linear_rank(system: PolySystem, nvars: int) -> int | None:
    """The rank over Q of the coefficient matrix of a system of linear forms,
    which is the codimension of the linear space V they cut out, by Fraction
    elimination; None if some form is not linear."""
    if any(sum(e for _, e in mono) != 1 for f in system.polys for _, mono in f.terms):
        return None
    rows, rank = [[Fraction(0)] * nvars for _ in system.polys], 0
    for row, f in zip(rows, system.polys):
        for c, ((v, _),) in f.terms:
            row[v] = Fraction(c)
    while rows:  # each nonzero row is a pivot, eliminated from the rest
        row = rows.pop()
        j = next((j for j, a in enumerate(row) if a), None)
        if j is not None:
            rank += 1
            rows = [[a - r[j] / row[j] * b for a, b in zip(r, row)] for r in rows]
    return rank


def _pn_params(p: dict) -> tuple[int, VojtaParams]:
    """(nvars, VojtaParams) of a checked PN_CHECK config.  r, the codimension
    of V, is the rank of linear forms, which a given codim_r must equal and
    which must leave V neither empty nor a hyperplane; else codim_r itself."""
    system, r = p["polys"], p["codim_r"]
    nvars = max(f.max_var() for f in system.polys) + 1
    if nvars < 2:
        raise ValueError("system must involve at least X0 and X1")
    rank = _linear_rank(system, nvars)
    if rank is None and r is None:
        raise ValueError("codim_r is required when a form is not linear")
    if r in (None, rank) and not 2 <= rank < nvars:  # so rank is not None
        raise ValueError(f"V is {'empty' if rank == nvars else 'a hyperplane'}: rank {rank}")
    vp = VojtaParams(p["eps"], p["delta"], p["C"], rank if r is None else r)
    if rank not in (None, vp.r):
        raise ValueError(f"codim_r {vp.r} does not match codimension {rank} of V")
    return nvars, vp


def _prepare_pn(p: dict, seed: int) -> tuple[tuple, tuple]:
    system, bound, sample = p["polys"], p["bound"], p["sample"]
    nvars, vp = _pn_params(p)
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
    return tuple.__new__(_PNRow, (point, *check_pn(PnPoint(coords), system, S, vp), None))


def _prepare_mixed(p: dict, seed: int) -> tuple[tuple, tuple]:
    c, n_max = p["curve"], p["n_max"]
    P = _on_curve(c, p["point"], "point")
    S = PrimeSet(p["primes"])
    units = s_unit_enumerate(S, p["b_bound"])
    dq = _denominators(c, P, n_max)
    return (dq, p["eps"], p["C"]), (range(1, n_max + 1), units)


def _rows_mixed(ctx: tuple, axes: tuple, cells: range, out: list) -> None:
    """n, b, D_n and the ``check_mixed`` tuple, whose checks hold here: each b
    of ``s_unit_enumerate`` is an S-unit with |b| >= 2, and ``_checked`` gives
    a positive eps and C.  |b|, |b - 1| and ln|b| are taken once per b, and
    ln max(D_n, |b|) as ln D_n or ln|b|, whichever integer is larger."""
    dq, eps, C = ctx
    ln_d, ln_C, new, unit = [log(d) for d in dq], log(C), tuple.__new__, {}
    for n, b in _keys(axes, cells):
        if b not in unit:
            unit[b] = abs(b), abs(b - 1), log(abs(b))
        d, (size, shifted, ln_b) = dq[n - 1], unit[b]
        g = gcd(d, shifted)
        out.append(new(_MixedRow, (n, b, d, g, *bound(
            log(g), ln_d[n - 1] if d >= size else ln_b, eps, ln_C), None)))


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
    d, h = dn[n - n_min]
    return tuple.__new__(_SiegelRow, (n, d, h, 0.0 if d == 1 else 2.0 * log(d) / h, None))


def _summary_siegel(good: list[tuple], p: dict) -> dict:
    ratios = [r.ratio for r in good]
    return {"median_abs_dev": median(abs(x - 1.0) for x in ratios) if ratios else None,
            "max_ratio": max(ratios) if ratios else None}


def _prepare_abelian(p: dict, seed: int) -> tuple[tuple, tuple]:
    c, n_max = p["curve"], p["n_max"]
    P, Q = _on_curve(c, p["p"], "p"), _on_curve(c, p["q"], "q")
    if Q in (P, neg(c, P)):  # then (nP, nQ) lies on a curve in E x E
        raise ValueError("q must not be p or -p: the points are dependent")
    dp, dq = _denominators(c, P, n_max), _denominators(c, Q, n_max)
    return (dp, dq, p["eps"], p["C"]), (range(1, n_max + 1),)


def _row_abelian(ctx: tuple, n: int) -> tuple:
    dp, dq, eps, C = ctx
    a, b = dp[n - 1], dq[n - 1]
    g = gcd(a, b)
    return tuple.__new__(_AbelianRow, (n, a, b, g, *bound(log(g), float(n ** 2), eps, C), None))


_INT, _REAL, _BOOL, _STR, _NONE = map(frozenset, ({int}, {float}, {bool}, {str}, {type(None)}))


def _row_type(name: str, **types: frozenset) -> type:
    """The namedtuple of the given columns, then ``error``, all None by
    default.  Its ``types`` are those of each column's values on an
    error-free row, then those of ``error``, which holds a text on an error
    row; the renderers encode by them (see ``_block_types``)."""
    Row = namedtuple(name, [*types, "error"], defaults=(None,) * (len(types) + 1))
    Row.types = (*types.values(), _STR | _NONE)
    return Row


# One row type per kind: index columns first, error last.  Each is a module
# attribute of its own name, so pool workers can pickle rows.
_BCZRow = _row_type("_BCZRow", n=_INT, gcd=_INT, lhs=_REAL, hA=_REAL, rhs=_REAL, holds=_BOOL)
_CZRow = _row_type("_CZRow", alpha=_INT, beta=_INT, verdict=_STR, m=_INT | _NONE,
                   n=_INT | _NONE, gcd=_INT, lhs=_REAL, rhs=_REAL, holds=_BOOL)
_ARRow = _row_type("_ARRow", n=_INT, gcd=_INT, base_gcd=_INT, is_return=_BOOL)
_EDSGCDRow = _row_type("_EDSGCDRow", m=_INT, n=_INT, d_m=_INT, d_n=_INT, gcd=_INT, lhs=_REAL,
                       hA=_REAL, rhs=_REAL, holds=_BOOL, exceptional=_BOOL)
_PNRow = _row_type("_PNRow", point=_STR, gcd=_INT, lhs=_REAL, hA=_REAL, hcount=_REAL,
                   rhs=_REAL, holds=_BOOL)
_MixedRow = _row_type("_MixedRow", n=_INT, b=_INT, d_q=_INT, gcd=_INT, lhs=_REAL, hA=_REAL,
                      rhs=_REAL, holds=_BOOL)
_SiegelRow = _row_type("_SiegelRow", n=_INT, d=_INT, naive=_REAL, ratio=_REAL)
_AbelianRow = _row_type("_AbelianRow", n=_INT, d_p=_INT, d_q=_INT, gcd=_INT, lhs=_REAL,
                        hA=_REAL, rhs=_REAL, holds=_BOOL)


def _map(cell: Callable[..., tuple]) -> Callable[..., None]:
    """The range kernel that maps ``cell(ctx, *key)`` over the keys of a run."""
    return lambda ctx, axes, cells, out: out.extend(cell(ctx, *k) for k in _keys(axes, cells))


_A_B_N = (("a", _int), ("b", _int), ("n_max", _size))
_EPS_C = (_EPS, ("C", _finite, 0.0))

SPECS: dict[SweepKind, KindSpec] = {
    SweepKind.BCZ: KindSpec(
        index=("n",), params=(*_A_B_N, *_EPS_C),
        prepare=_prepare_bcz, rows=_rows_bcz, Row=_BCZRow,
    ),
    SweepKind.CZ_TRICHOTOMY: KindSpec(
        index=("alpha", "beta"), params=(("primes", _ints), ("bound", _int), _EPS),
        prepare=_prepare_cz, rows=_rows_cz, Row=_CZRow,
        summary=_summary_cz,
    ),
    SweepKind.AR_RETURNS: KindSpec(
        index=("n",), params=_A_B_N,
        prepare=_prepare_ar, rows=_rows_ar, Row=_ARRow,
        summary=_summary_ar,
    ),
    SweepKind.EDS_GCD: KindSpec(
        index=("m", "n"), params=(("curve", _curve), ("p", _point), ("q", _point, None),
                                  ("m_max", _size), ("n_max", _size), *_EPS_C),
        prepare=_prepare_eds_gcd, rows=_rows_eds_gcd, Row=_EDSGCDRow,
    ),
    SweepKind.PN_CHECK: KindSpec(
        index=("point",), params=(("polys", _polys), ("codim_r", _int, None),
                                  ("primes", _ints), ("bound", _int), *_EPS_C,
                                  ("delta", _real, 1.0),
                                  ("sample", _at_least(1, "positive"), None)),
        prepare=_prepare_pn, rows=_map(_row_pn), Row=_PNRow,
        summary=lambda good, p: {"points": len(good)},
    ),
    SweepKind.MIXED_CHECK: KindSpec(
        index=("n", "b"), params=(("curve", _curve), ("point", _point),
                                  ("primes", _ints), _EPS, ("n_max", _size),
                                  ("C", _positive(" (it multiplies the bound)"), 1.0),
                                  ("b_bound", _int, 100)),
        prepare=_prepare_mixed, rows=_rows_mixed, Row=_MixedRow,
        C_of_fit=exp,
    ),
    SweepKind.SIEGEL: KindSpec(
        index=("n",), params=(("curve", _curve), ("point", _point),
                              ("n_min", _size, 1), ("n_max", _size)),
        prepare=_prepare_siegel, rows=_map(_row_siegel), Row=_SiegelRow, summary=_summary_siegel,
    ),
    SweepKind.ABELIAN_GROWTH: KindSpec(
        index=("n",), params=(("independence_asserted", _vouched, False),
                              ("curve", _curve), ("p", _point), ("q", _point),
                              ("n_max", _size), *_EPS_C),
        prepare=_prepare_abelian, rows=_map(_row_abelian), Row=_AbelianRow,
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

    A kernel that raises ArithmeticError or ValueError failed a cell: what it
    appended is dropped and it runs on each cell alone, a failing cell giving
    an error row.  Any other exception is the kernel's own fault and leaves.
    """
    spec, start = SPECS[kind], len(out)
    try:
        return spec.rows(ctx, axes, cells, out)
    except (ArithmeticError, ValueError):  # the cells below tag the failures
        del out[start:]
    for i, key in zip(cells, _keys(axes, cells)):
        try:
            spec.rows(ctx, axes, range(i, i + 1), out)
        except (ArithmeticError, ValueError) as exc:
            out[start + i - cells.start:] = [spec.Row(*key, error=f"{type(exc).__name__}: {exc}")]


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
        from multiprocessing import get_context  # not loaded by a run at one job
        mp = get_context()
        step, pool_s = 1, _POOL_START_S[mp.get_start_method()]
    start = last = perf_counter()
    while (done := len(records)) < total:  # the serial head
        _eval(kind, ctx, axes, range(done, min(done + step, total)), records)
        now = perf_counter()
        # a run under 1/32 of a pool's start-up doubles the next, one past
        # 1/16 halves it: as cells get dearer the runs shorten, so the head
        # stops within a short run of its cut-off
        if now - last < pool_s / 32:
            step *= 2
        elif now - last > pool_s / 16:
            step = -(-step // 2)
        spent, last = now - start, now
        if spent > pool_s and spent * (total - len(records)) > 2 * pool_s * len(records):
            break
    if rest := range(len(records), total):
        size = -(-len(rest) // (8 * workers))
        chunks = [rest[i:i + size] for i in range(0, len(rest), size)]
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(workers, len(chunks)), mp_context=mp,
                                 initializer=_init_worker, initargs=(kind, ctx, axes)) as pool:
            done = list(pool.map(_eval_chunk, reversed(chunks)))  # dearest first
        Row = SPECS[kind].Row
        while done:  # lowest indices last; each chunk is freed once it is rows
            records += map(tuple.__new__, repeat(Row), done.pop())
    errors = [r.error for r in records if r.error is not None]
    if len(errors) > p["error_budget"]:
        raise ValueError(
            f"error budget exceeded: {len(errors)} error rows "
            f"(budget {p['error_budget']}); first: {errors[0]}"
        )
    # through the module's name, so that a profiler wrapping summarize sees it
    return SweepResult(config, records, summarize(kind, records, config, p))


def summarize(kind: SweepKind, records: list[tuple], config: SweepConfig,
              p: dict | None = None) -> dict:
    """Recompute the summary block from the records and the config; ``p``,
    if given, is the config's parameters as ``_checked`` gives them, which
    ``run`` passes on instead of checking them twice.

    A kind with an ``hA`` column also gets ``violations`` (its rows that fail
    the bound), the index of the last of them, and ``fitted_constant``: the
    least C with lhs <= eps*hA [+ hcount/(r - 1 + delta*eps), r as in the
    rows] + C on every error-free row not flagged ``exceptional`` (the
    asserted exceptional set), or None when no such row is left; a kind whose
    config ``C`` multiplies the bound reports exp of that C, which it can take back.
    """
    if p is None:
        p = _checked(kind, config.parameters)
    spec = SPECS[kind]
    cols = spec.columns
    good = [r for r in records if r.error is None]
    s: dict = {"kind": kind.value, "cells": len(records),
               "error_rows": len(records) - len(good)}
    if "hA" in cols:
        viol = [r for r in good if r.holds is False]
        s["violations"] = len(viol)
        s["max_violating_index"] = list(viol[-1][:len(spec.index)]) if viol else None
        rows = [r for r in good if not r.exceptional] if "exceptional" in cols else good
        lhs, hA = map(attrgetter("lhs"), rows), map(attrgetter("hA"), rows)
        gaps = map(sub, lhs, map(mul, repeat(p["eps"]), hA))
        if "hcount" in cols:  # the counting term on P^n
            weights = repeat(_pn_params(p)[1].weight)
            gaps = map(sub, gaps, map(truediv, map(attrgetter("hcount"), rows), weights))
        fit = max(gaps, default=None)
        s["fitted_constant"] = None if fit is None else spec.C_of_fit(fit)
    return {**s, **spec.summary(good, p)}


# ----------------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------------

#: The 12-significant-digit text of every computed real (the CSV encoder of a
#: float, read by _json_real); bound, so a CSV real costs no Python call.
format_real = "{:.12g}".format


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
    text = format_real(v)
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
# reals are format_real's text).  JSON writes computed reals
# at 12 significant digits, and the reals a document echoes from its inputs
# (under the top-level keys of ``_ECHOED``) exactly, by repr.
_CSV = {int: _format_int, float: format_real, bool: _bool_text, str: _csv_text,
        type(None): lambda v: ""}
_JSON = {int: _format_int, float: _json_real, bool: _bool_text,
         str: json.encoder.encode_basestring_ascii, type(None): {None: "null"}.__getitem__}
_ECHO = {**_JSON, float: lambda x: repr(x) if isfinite(x) else _json_real(x)}
_ECHOED = dict.fromkeys(("config", "tol", "params"), _ECHO)


def _texts(col: Sequence, enc: dict, types: Set[type]) -> Iterable[str]:
    """The texts by ``enc`` of a column's values, each of a type in ``types``,
    the loops in C: through a memo of its distinct values where they repeat
    and a set keeps their texts apart (not True, 1 and 1.0, nor 0.0 and
    -0.0), else by str() or value by value."""
    if len(col) < 64:  # too short for the passes below to pay
        return [enc[type(v)](v) for v in col]
    values = col
    if types == {float} or float not in types and len(types & {bool, int}) < 2:
        values = set(col)
        if types == {float} and 0.0 in values and min(map(copysign, repeat(1.0), col)) < 0:
            values = col  # its zeros may have two signs
    if 2 * len(values) <= len(col):
        return map({v: enc[type(v)](v) for v in values}.__getitem__, col)
    if types == {int} and max(map(int.bit_length, col)) < 2000:  # below any str() limit
        return map(str, col)
    if len(types) == 1:
        return map(enc[next(iter(types))], col)
    return [enc[type(v)](v) for v in col]


# Records per rendered block: a render lays out the texts of one block at a
# time, so the memory it holds above the records stays near its own output
_BLOCK = 2048


def _block_types(types: tuple, index: int, errors: Sequence) -> tuple:
    """The ``types`` of the columns of a block of rows whose last column is
    ``errors``: where that holds an error, those of the columns past the
    first ``index`` (a sweep's index columns) also take None."""
    if errors.count(None) == len(errors):
        return types
    return (*types[:index], *(t | _NONE for t in types[index:]))


def _csv_lines(head: list[str], block: Sequence, types: tuple, index: int) -> str:
    """The lines of ``head``, then a line per row of ``block``, encoded by
    column (see ``_csv_blocks``), each ended by a line feed."""
    cols = [*zip(*block)]
    types = _block_types(types, index, cols[-1]) if cols else types
    texts = [*map(_texts, cols, repeat(_CSV), types)]
    return "\n".join([*head, *map(",".join, zip(*texts)), ""])


def _csv_blocks(columns: Sequence[str], rows: Sequence, types: tuple, index: int) -> list[str]:
    """The table as a text per block of rows, the first led by a header line
    of ``columns``: a table of one block is one text, which a join returns
    as it is.  ``types`` and ``index`` are as ``_block_types`` takes them."""
    head = [",".join(columns)]
    return [_csv_lines([] if start else head, rows[start:start + _BLOCK], types, index)
            for start in range(0, len(rows), _BLOCK)] or [_csv_lines(head, (), types, index)]


def render_csv(result: SweepResult) -> str:
    """One row per record in index order, fixed header per kind."""
    spec = SPECS[result.config.kind]
    return "".join(_csv_blocks(spec.columns, result.records, spec.Row.types, len(spec.index)))


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
        ends, items = "[]", _texts(v, enc, types)
    elif (types <= {list, tuple} and len(set(map(len, v))) == 1 and v[0]
          and (types := set(map(type, chain.from_iterable(v)))) <= enc.keys()):
        row = f"[{inner}  " + f",{inner}  ".join(["%s"] * len(v[0])) + f"{inner}]"
        ends, items = "[]", map(row.__mod__, zip(*[_texts(c, enc, types) for c in zip(*v)]))
    else:
        ends, items = "[]", [_json_text(x, inner, enc) for x in v]
    sep = "," + inner  # one f-string copies a long list's text once, not per +
    return f"{ends[0]}{inner}{sep.join(items)}{pad}{ends[1]}" if v else ends


def _json_blocks(result: SweepResult, version: str | None = None) -> list[str]:
    """``render_json``'s document as a text per block of records, the first
    led by the config and the last followed by the summary: a document of
    one block is one text, which a join returns as it is."""
    if version is None:
        from . import __version__ as version
    records, spec, cfg = result.records, SPECS[result.config.kind], result.config
    cols, keys, errs = spec.columns, sorted(spec.columns[:-1]), (*spec.index, "error")
    width, at = 2 * len(keys) + 1, [cols.index(k) for k in keys]
    config = {"kind": cfg.kind.value, "parameters": cfg.parameters, "seed": cfg.seed}
    head = '{\n  "config": ' + _json_text(config, "\n  ", _ECHO) + ',\n  "records": ['
    tail = ("\n  ]" if records else "]") + ',\n  "summary": ' + _json_text(
        result.summary, "\n  ") + ',\n  "version": ' + _JSON[str](version) + "\n}\n"
    # a record is an object of sorted keys: every column but error, laid out in
    # one list of parts per block, the keys' texts repeated and the values by
    # a slice assignment per column, or on an error row its index and error
    after = [*(f",\n      {json.dumps(k)}: " for k in keys[1:]), "\n    }"]
    record = [f",\n    {{\n      {json.dumps(keys[0])}: ",
              *chain.from_iterable(zip(repeat(None), after))]
    out = []
    for start in range(0, len(records), _BLOCK):
        block = records[start:start + _BLOCK]
        columns, n = [*zip(*block)], len(block)
        types = _block_types(spec.Row.types, len(spec.index), columns[-1])
        parts = record * n
        for j, c in enumerate(at):
            parts[2 * j + 1::width] = _texts(columns[c], _JSON, types[c])
        for i in compress(count(), map(is_not, columns[-1], repeat(None))):
            text = _json_text({k: getattr(block[i], k) for k in errs}, "\n    ")
            parts[i * width:(i + 1) * width] = [",\n    " + text, *[""] * (width - 1)]
        if not out:  # no comma before the first record
            parts[0] = head + parts[0][1:]
        if start + n == len(records):
            parts.append(tail)
        out.append("".join(parts))
    return out or [head + tail]


def render_json(result: SweepResult, version: str | None = None) -> str:
    """Full result: effective config, summary, records; results at 12 digits.

    The embedded config block, its reals exact, re-ingests as a SweepConfig
    that reproduces this output exactly.  A NaN or infinite real raises
    ValueError, since strict JSON has no token for it.
    """
    return "".join(_json_blocks(result, version))
