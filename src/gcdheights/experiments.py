"""Declarative sweep runner: grids over the library operations, tables out.

A sweep is described by a ``SweepConfig`` (kind + parameter map + seed),
validated and prepared once into shared inputs and index axes, evaluated
over the grid of those axes serially or on a process pool (each worker gets
the shared inputs once), and merged in index order — so a given config
produces byte-identical CSV no matter the job count.  Per-cell failures
become tagged error rows instead of aborting the run; a configurable error
budget (default 0) turns unexpected ones into a failure at the end.

Each kind is one ``KindSpec`` record in ``SPECS``.  Row schemas are fixed per
kind: index columns first, then exact integer witnesses as decimal strings,
then the log-space lhs/rhs pair and the holds flag.  Reals are rendered with
12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice, product
from math import gcd, inf, isinf, isnan, log, prod
from statistics import median

from .arith import PrimeSet, mult_independent
from .elliptic import (
    Curve,
    Point,
    exceptional_subgroups,
    multiples,
    naive_height,
    on_curve,
)
from .gcd_height import PnPoint, PolySystem, VojtaParams
from .gcd_height import check_e2, check_mixed, check_pn, vojta_bound
from .mulgrp import (
    EXCEPTIONAL,
    INEQUALITY_HOLDS,
    LN2,
    POWER_RELATION,
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
    "fit_constant",
    "detect_exceptional",
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
    records: list[dict]
    summary: dict


@dataclass(frozen=True)
class KindSpec:
    """Everything the runner knows about one sweep kind.

    ``prepare(params, seed)`` validates the parameters and returns
    ``(ctx, axes)`` (serially; it may do real work): the inputs all cells
    share, and one or two sequences of ``index`` values whose row-major grid
    is the cells.  ``row(ctx, *key)`` evaluates one cell, possibly in a pool
    worker; its row, like an error row, carries ``key`` as its ``index``
    columns.  ``fittable`` kinds have lhs/hA[/hcount] records that admit
    constant fitting.
    """

    columns: tuple[str, ...]
    index: tuple[str, ...]
    prepare: Callable[[dict, int], tuple[tuple, tuple[Sequence, ...]]]
    row: Callable[..., dict]
    fittable: bool = False


# ----------------------------------------------------------------------------
# config validation and preparation (runs serially, may do real work)
# ----------------------------------------------------------------------------

def _need(params: dict, key: str, kind: SweepKind):
    if key not in params:
        raise ValueError(f"{kind.value} config missing required key {key!r}")
    return params[key]


def _curve_of(params: dict) -> Curve:
    coeffs = _as_int_list(params["curve"], "curve")
    if len(coeffs) != 5:
        raise ValueError("curve needs exactly 5 coefficients a1,a2,a3,a4,a6")
    return Curve(*coeffs)


def _as_int_list(v, what: str) -> list[int]:
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers")
    return [int(x) for x in v]


def _eps_of(params: dict, kind: SweepKind) -> float:
    """The required ``eps``: positive and finite (NaN fails the comparison)."""
    eps = float(_need(params, "eps", kind))
    if not 0 < eps < inf:
        raise ValueError("eps must be positive and finite")
    return eps


def _eps_C(params: dict, kind: SweepKind) -> tuple[float, float]:
    """The bound's required ``eps`` and optional finite constant ``C`` (default 0)."""
    eps = _eps_of(params, kind)
    C = float(params.get("C", 0.0))
    if isnan(C):
        raise ValueError("C must not be NaN")
    if isinf(C):
        raise ValueError("C must be finite")
    return eps, C


def _point_of(c: Curve, raw, what: str = "point") -> Point:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError(f"{what} must be a pair [x, y] of rationals")
    x, y = (Fraction(str(t)) for t in raw)
    p = Point(x, y)
    if not on_curve(c, p):
        raise ValueError(f"{what} is not on the curve")
    return p


def _prepare_bcz(params: dict, seed: int) -> tuple[tuple, tuple]:
    a = int(_need(params, "a", SweepKind.BCZ))
    b = int(_need(params, "b", SweepKind.BCZ))
    eps, C = _eps_C(params, SweepKind.BCZ)
    n_max = int(_need(params, "n_max", SweepKind.BCZ))
    if a < 2 or b < 2:
        raise ValueError("a and b must be >= 2")
    if not mult_independent(a, b):
        raise ValueError("multiplicatively dependent inputs: hypothesis violated")
    return (a, b, eps, C), (range(1, n_max + 1),)


def _row_bcz(ctx: tuple, n: int) -> dict:
    a, b, eps, C = ctx
    g = gcd_pair(a, b, n)
    return {"n": n, "gcd": g, **vojta_bound(log(g), n * LN2, eps, C)}


def _prepare_cz(params: dict, seed: int) -> tuple[tuple, tuple]:
    primes = _as_int_list(_need(params, "primes", SweepKind.CZ_TRICHOTOMY), "primes")
    bound = int(_need(params, "bound", SweepKind.CZ_TRICHOTOMY))
    eps = _eps_of(params, SweepKind.CZ_TRICHOTOMY)
    S = PrimeSet(tuple(primes))
    units = s_unit_enumerate(S, bound)
    return (S, eps), (units, units)


def _row_cz(ctx: tuple, a: int, b: int) -> dict:
    S, eps = ctx
    v = cz_classify(a, b, S, eps)
    return {
        "alpha": a, "beta": b, "verdict": v.kind, "m": v.m, "n": v.n,
        "gcd": v.gcd, "lhs": v.lhs, "rhs": v.rhs, "holds": v.holds,
    }


def _prepare_ar(params: dict, seed: int) -> tuple[tuple, tuple]:
    a = int(_need(params, "a", SweepKind.AR_RETURNS))
    b = int(_need(params, "b", SweepKind.AR_RETURNS))
    n_max = int(_need(params, "n_max", SweepKind.AR_RETURNS))
    if a < 2 or b < 2:
        raise ValueError("a and b must be >= 2")
    if not mult_independent(a, b):
        raise ValueError("multiplicatively dependent inputs: hypothesis violated")
    return (a, b, gcd_pair(a, b, 1)), (range(1, n_max + 1),)


def _row_ar(ctx: tuple, n: int) -> dict:
    a, b, base = ctx
    g = gcd_pair(a, b, n)
    return {"n": n, "gcd": g, "base_gcd": base, "is_return": g == base}


def _prepare_eds_gcd(params: dict, seed: int) -> tuple[tuple, tuple]:
    c = _curve_of(params)
    p = _point_of(c, _need(params, "p", SweepKind.EDS_GCD), "p")
    q = _point_of(c, params["q"], "q") if params.get("q") is not None else p
    m_max = int(_need(params, "m_max", SweepKind.EDS_GCD))
    n_max = int(_need(params, "n_max", SweepKind.EDS_GCD))
    eps, C = _eps_C(params, SweepKind.EDS_GCD)
    # denominator and naive height once per multiple, not once per cell
    mp = [(x[1], naive_height(x).value) for x in multiples(c, p, m_max)]
    nq = [(x[1], naive_height(x).value) for x in multiples(c, q, n_max)]
    predicted = set(exceptional_subgroups(eps))
    return ((mp, nq, predicted, eps, C),
            (range(1, m_max + 1), range(1, n_max + 1)))


def _row_eds_gcd(ctx: tuple, m: int, n: int) -> dict:
    mp, nq, predicted, eps, C = ctx
    (d_m, h_m), (d_n, h_n) = mp[m - 1], nq[n - 1]
    g = gcd(m, n)
    return {
        "m": m, "n": n, "d_m": d_m, "d_n": d_n,
        **check_e2(d_m, d_n, h_m + h_n, eps, C),
        "exceptional": (m // g, n // g) in predicted,
    }


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


def _prepare_pn(params: dict, seed: int) -> tuple[tuple, tuple]:
    texts = _need(params, "polys", SweepKind.PN_CHECK)
    if not isinstance(texts, (list, tuple)) or not texts:
        raise ValueError("polys must be a nonempty list of polynomial strings")
    codim = int(params.get("codim_r", 2))
    system = PolySystem.of(*[str(t) for t in texts], codim_r=codim)
    nvars = max(f.max_var() for f in system.polys) + 1
    if nvars < 2:
        raise ValueError("system must involve at least X0 and X1")
    primes = _as_int_list(_need(params, "primes", SweepKind.PN_CHECK), "primes")
    bound = int(_need(params, "bound", SweepKind.PN_CHECK))
    eps, C = _eps_C(params, SweepKind.PN_CHECK)
    delta = float(params.get("delta", 1.0))
    r = int(params.get("r", codim))
    vp = VojtaParams(epsilon=eps, delta=delta, C=C, r=r)
    S = PrimeSet(tuple(primes))
    sample = params.get("sample")
    if sample is not None and (type(sample) is not int or sample < 1):
        raise ValueError("sample must be a positive integer")

    # Points of the box (see _box_point) with gcd 1 and off V.  A sampled run
    # visits the box in the seed's shuffled order until the sample is full,
    # so its cost follows the sample, not the box; otherwise every point in
    # index order.
    size = max(bound, 0) * (2 * bound) ** (nvars - 1)  # empty below bound 1
    order = (range(size) if sample is None
             else _distinct_draws(random.Random(int(seed)), size))
    box = (_box_point(bound, nvars, i) for i in order)
    ok = (t for t in box
          if gcd(*t) == 1 and not all(f(t) == 0 for f in system.polys))
    pts = list(islice(ok, sample))
    return (system, S, vp), ([":".join(map(str, t)) for t in sorted(pts)],)


def _row_pn(ctx: tuple, point: str) -> dict:
    system, S, vp = ctx
    coords = tuple(int(t) for t in point.split(":"))
    return {"point": point, **check_pn(PnPoint(coords), system, S, vp)}


def _prepare_mixed(params: dict, seed: int) -> tuple[tuple, tuple]:
    c = _curve_of(params)
    p = _point_of(c, _need(params, "point", SweepKind.MIXED_CHECK))
    primes = _as_int_list(_need(params, "primes", SweepKind.MIXED_CHECK), "primes")
    eps = _eps_of(params, SweepKind.MIXED_CHECK)
    C = float(params.get("C", 1.0))
    n_max = int(_need(params, "n_max", SweepKind.MIXED_CHECK))
    b_bound = int(params.get("b_bound", 100))
    if not 0 < C < inf:
        raise ValueError("C must be positive and finite (it multiplies the bound)")
    S = PrimeSet(tuple(primes))
    units = s_unit_enumerate(S, b_bound)
    dq = [d for _, d in multiples(c, p, n_max)]
    return (dq, S, eps, C), (range(1, n_max + 1), units)


def _row_mixed(ctx: tuple, n: int, b: int) -> dict:
    dq, S, eps, C = ctx
    return {"n": n, "b": b, "d_q": dq[n - 1], **check_mixed(dq[n - 1], b, S, eps, C)}


def _prepare_siegel(params: dict, seed: int) -> tuple[tuple, tuple]:
    c = _curve_of(params)
    p = _point_of(c, _need(params, "point", SweepKind.SIEGEL))
    n_min = int(params.get("n_min", 1))
    n_max = int(_need(params, "n_max", SweepKind.SIEGEL))
    if n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    # (D, naive height) of n*P for n_min <= n <= n_max
    dn = [(x[1], naive_height(x).value) for x in multiples(c, p, n_max)[n_min - 1:]]
    return (n_min, dn), (range(n_min, n_max + 1),)


def _row_siegel(ctx: tuple, n: int) -> dict:
    n_min, dn = ctx
    d, naive = dn[n - n_min]
    ratio = 0.0 if d == 1 else 2.0 * log(d) / naive
    return {"n": n, "d": d, "naive": naive, "ratio": ratio}


def _prepare_abelian(params: dict, seed: int) -> tuple[tuple, tuple]:
    if params.get("independence_asserted") is not True:
        raise ValueError(
            "ABELIAN_GROWTH requires independence_asserted: true "
            "(caller must vouch for independent points)"
        )
    c = _curve_of(params)
    p = _point_of(c, _need(params, "p", SweepKind.ABELIAN_GROWTH), "p")
    q = _point_of(c, _need(params, "q", SweepKind.ABELIAN_GROWTH), "q")
    n_max = int(_need(params, "n_max", SweepKind.ABELIAN_GROWTH))
    eps, C = _eps_C(params, SweepKind.ABELIAN_GROWTH)
    dp = [d for _, d in multiples(c, p, n_max)]
    dq = [d for _, d in multiples(c, q, n_max)]
    return (dp, dq, eps, C), (range(1, n_max + 1),)


def _row_abelian(ctx: tuple, n: int) -> dict:
    dp, dq, eps, C = ctx
    return {
        "n": n, "d_p": dp[n - 1], "d_q": dq[n - 1],
        **check_e2(dp[n - 1], dq[n - 1], float(n ** 2), eps, C),
    }


SPECS: dict[SweepKind, KindSpec] = {
    SweepKind.BCZ: KindSpec(
        columns=("n", "gcd", "lhs", "hA", "rhs", "holds", "error"),
        index=("n",), prepare=_prepare_bcz, row=_row_bcz, fittable=True,
    ),
    SweepKind.CZ_TRICHOTOMY: KindSpec(
        columns=("alpha", "beta", "verdict", "m", "n", "gcd", "lhs", "rhs",
                 "holds", "error"),
        index=("alpha", "beta"), prepare=_prepare_cz, row=_row_cz,
    ),
    SweepKind.AR_RETURNS: KindSpec(
        columns=("n", "gcd", "base_gcd", "is_return", "error"),
        index=("n",), prepare=_prepare_ar, row=_row_ar,
    ),
    SweepKind.EDS_GCD: KindSpec(
        columns=("m", "n", "d_m", "d_n", "gcd", "lhs", "hA", "rhs", "holds",
                 "exceptional", "error"),
        index=("m", "n"), prepare=_prepare_eds_gcd, row=_row_eds_gcd,
        fittable=True,
    ),
    SweepKind.PN_CHECK: KindSpec(
        columns=("point", "gcd", "lhs", "hA", "hcount", "rhs", "holds", "error"),
        index=("point",), prepare=_prepare_pn, row=_row_pn, fittable=True,
    ),
    SweepKind.MIXED_CHECK: KindSpec(
        columns=("n", "b", "d_q", "gcd", "lhs", "hA", "rhs", "holds", "error"),
        index=("n", "b"), prepare=_prepare_mixed, row=_row_mixed, fittable=True,
    ),
    SweepKind.SIEGEL: KindSpec(
        columns=("n", "d", "naive", "ratio", "error"),
        index=("n",), prepare=_prepare_siegel, row=_row_siegel,
    ),
    SweepKind.ABELIAN_GROWTH: KindSpec(
        columns=("n", "d_p", "d_q", "gcd", "lhs", "hA", "rhs", "holds", "error"),
        index=("n",), prepare=_prepare_abelian, row=_row_abelian, fittable=True,
    ),
}


def _eval_range(kind: SweepKind, ctx: tuple, axes: tuple, idx: range) -> list[dict]:
    """Rows of the cells ``idx`` of the row-major grid over ``axes``.

    Failures become tagged rows of the cell's index, never exceptions.
    """
    spec = SPECS[kind]
    rows = []
    for key in islice(product(*axes), idx.start, idx.stop):
        try:
            rows.append(spec.row(ctx, *key))
        except Exception as exc:  # per-record capture is the contract here
            rows.append(dict(zip(spec.index, key),
                             error=f"{type(exc).__name__}: {exc}"))
    return rows


# (kind, ctx, axes) of the sweep a pool worker serves; set once per worker by
# the pool's initializer, so the shared inputs are pickled once, not per chunk
_WORKER: tuple = ()


def _init_worker(kind: SweepKind, ctx: tuple, axes: tuple) -> None:
    global _WORKER
    _WORKER = (kind, ctx, axes)


def _eval_chunk(idx: range) -> list[dict]:
    return _eval_range(*_WORKER, idx)


# ----------------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------------

def run(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Execute a sweep; deterministic for a fixed config at any job count."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    kind = config.kind
    try:
        budget = int(config.parameters.get("error_budget", 0))
        ctx, axes = SPECS[kind].prepare(config.parameters, config.seed)
    except TypeError as exc:  # e.g. a null or a list where a number belongs
        raise ValueError(f"{kind.value} config has a parameter of the wrong type: "
                         f"{exc}") from None
    cells = range(prod(len(axis) for axis in axes))
    if jobs == 1 or len(cells) < 2:
        records = _eval_range(kind, ctx, axes, cells)
    else:
        chunk = max(1, len(cells) // (4 * jobs))
        chunks = [cells[lo:lo + chunk] for lo in cells[::chunk]]
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(kind, ctx, axes)) as pool:
            records = [r for rows in pool.map(_eval_chunk, chunks) for r in rows]
    errors = [r for r in records if r.get("error")]
    if len(errors) > budget:
        first = errors[0].get("error", "")
        raise ValueError(
            f"error budget exceeded: {len(errors)} error rows "
            f"(budget {budget}); first: {first}"
        )
    summary = summarize(kind, records, config)
    return SweepResult(config=config, records=records, summary=summary)


def summarize(kind: SweepKind, records: list[dict], config: SweepConfig) -> dict:
    """Recompute the summary block from the records alone."""
    s: dict = {
        "kind": kind.value,
        "cells": len(records),
        "error_rows": sum(1 for r in records if r.get("error")),
    }
    good = [r for r in records if not r.get("error")]
    spec = SPECS[kind]
    if spec.fittable or kind == SweepKind.CZ_TRICHOTOMY:
        if kind == SweepKind.CZ_TRICHOTOMY:
            # power-relation pairs may fail the raw inequality legitimately;
            # the trichotomy's genuine violations are the EXCEPTIONAL rows
            viol = [r for r in good if r.get("verdict") == EXCEPTIONAL]
        else:
            viol = [r for r in good if r.get("holds") is False]
        s["violations"] = len(viol)
        s["max_violating_index"] = (
            [viol[-1][k] for k in spec.index] if viol else None
        )
    if spec.fittable:
        try:
            eps = float(config.parameters["eps"])
            s["fitted_constant"] = fit_constant_records(good, eps, config.parameters)
        except (KeyError, ValueError):
            s["fitted_constant"] = None
    if kind == SweepKind.CZ_TRICHOTOMY:
        counts = {POWER_RELATION: 0, INEQUALITY_HOLDS: 0, EXCEPTIONAL: 0}
        for r in good:
            counts[r["verdict"]] += 1
        s["verdicts"] = counts
        s["exceptional_pairs"] = [
            [r["alpha"], r["beta"]] for r in good if r["verdict"] == EXCEPTIONAL
        ]
    if kind == SweepKind.AR_RETURNS:
        idx = [r["n"] for r in good if r.get("is_return")]
        s["returns"] = len(idx)
        s["density"] = len(idx) / len(good) if good else 0.0
        s["return_indices"] = idx
    if kind == SweepKind.SIEGEL:
        ratios = [r["ratio"] for r in good]
        s["median_abs_dev"] = (
            median(abs(x - 1.0) for x in ratios) if ratios else None
        )
        s["max_ratio"] = max(ratios) if ratios else None
    if kind == SweepKind.PN_CHECK:
        s["points"] = len(good)
    return s


# ----------------------------------------------------------------------------
# fitting and exceptional-set probing
# ----------------------------------------------------------------------------

def fit_constant_records(
    records: list[dict], eps: float, params: dict | None = None
) -> float:
    """Exact infimum C with lhs <= eps*hA [+ hcount/(r-1+delta*eps)] + C.

    Records flagged exceptional are excluded (they are the asserted
    exceptional set); an all-exceptional or empty input is an error.
    """
    params = params or {}
    r = int(params.get("r", params.get("codim_r", 2)))
    delta = float(params.get("delta", 1.0))
    denom = r - 1 + delta * eps
    best = None
    for rec in records:
        if rec.get("error") or rec.get("exceptional"):
            continue
        need = rec["lhs"] - eps * rec["hA"] - rec.get("hcount", 0.0) / denom
        best = need if best is None else max(best, need)
    if best is None:
        raise ValueError("all records exceptional or errored; nothing to fit")
    return best


def fit_constant(result: SweepResult, eps: float) -> float:
    """Fit the empirical constant for a finished sweep at tolerance eps."""
    if not SPECS[result.config.kind].fittable:
        raise ValueError(f"cannot fit a constant for {result.config.kind.value}")
    if not result.records:
        raise ValueError("no records to fit")
    return fit_constant_records(result.records, eps, dict(result.config.parameters))


def detect_exceptional(result: SweepResult, kind: SweepKind | None = None) -> list[dict]:
    """Group violating inputs and propose structure (never assert it).

    EDS_GCD: violating (m, n) pairs grouped by their reduced direction
    (m/g, n/g) — the proportional-index probe; each group reports whether the
    direction was on the predicted list for the sweep's eps.
    PN_CHECK: violating points listed raw for external analysis.
    """
    kind = SweepKind(kind) if kind is not None else result.config.kind
    if kind == SweepKind.EDS_GCD:
        groups: dict[tuple[int, int], list[list[int]]] = {}
        predicted: dict[tuple[int, int], bool] = {}  # from the rows' prepare-time flag
        for r in result.records:
            if r.get("error") or r.get("holds") is not False:
                continue
            m, n = r["m"], r["n"]
            g = gcd(m, n)
            d = (m // g, n // g)
            groups.setdefault(d, []).append([m, n])
            predicted[d] = r["exceptional"]
        return [
            {
                "subgroup": list(d),
                "count": len(members),
                "indices": members,
                "predicted": predicted[d],
            }
            for d, members in sorted(groups.items())
        ]
    if kind == SweepKind.PN_CHECK:
        return [
            {"point": r["point"], "lhs": r["lhs"], "rhs": r["rhs"]}
            for r in result.records
            if not r.get("error") and r.get("holds") is False
        ]
    raise ValueError("detect_exceptional expects EDS_GCD or PN_CHECK records")


# ----------------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------------

def format_real(x: float) -> str:
    """Fixed 12-significant-digit rendering used by all emitted reals."""
    return f"{x:.12g}"


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_real(v)
    return str(v)


def render_csv(result: SweepResult) -> str:
    """One row per record in index order, fixed header per kind."""
    cols = SPECS[result.config.kind].columns
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for rec in result.records:
        w.writerow([_format_value(rec.get(c)) for c in cols])
    return buf.getvalue()


def _round_floats(obj):
    if isinstance(obj, float):
        return float(format_real(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render_json(result: SweepResult, version: str | None = None) -> str:
    """Full result: effective config, summary, records; reals at 12 digits.

    The embedded config block re-ingests as a SweepConfig that reproduces
    this output exactly.  A NaN or infinite real raises ValueError, since
    strict JSON has no token for it.
    """
    if version is None:
        from . import __version__ as version
    doc = {
        "version": version,
        "config": {
            "kind": result.config.kind.value,
            "parameters": _round_floats(dict(result.config.parameters)),
            "seed": result.config.seed,
        },
        "summary": _round_floats(result.summary),
        # records are flat rows of scalars: one pass over their values
        "records": [
            {k: float(format_real(v)) if isinstance(v, float) else v
             for k, v in rec.items()}
            for rec in result.records
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
