"""Seeded request lists for the benchmark workloads.

A workload is a fixed skeleton of request classes.  The seed picks the inputs
inside each class (prime sets, base pairs, bounds, sample seeds, base points,
a few percent of size jitter) and the order of the requests.  Two seeds send
different inputs, while each class keeps about the same cost, so the median and
tail of one run stay comparable with another run on another seed.

One pass over the list is the unit of measurement: a run repeats whole passes,
so every run sees the same mix of classes.

Requests are plain dicts, so the program under test receives only the
generated configs:

* ``{"op": "sweep", "config": {...}, "format": "csv"|"json"}`` is one ``run()``
  at ``jobs=1`` followed by ``render_csv`` or ``render_json``;
* ``{"op": "height", "curve": [...], "point": [x, y], "tol": t}`` is one
  ``canonical_height`` query;
* ``{"op": "cli", "config": {...}, "format": ..., "jobs": 2}`` is one
  ``cli.main(["sweep", "--config", F, "--jobs", "2", "--out", O])`` call.

Every request also carries ``cls``, the name of its class, for reading a
request list, and ``id``, its place in the pass, which spans carry too.
"""

from __future__ import annotations

import random

# Why each workload exists.
WHY = {
    # The integer kernels: the O(ceil(1/eps)^3) power-relation scan in
    # cz_classify (eps = 0.05), render_json on CZ output (eps = 0.25), the full
    # PN grid built before sampling, and the big-integer gcds of BCZ and AR.
    # No elliptic code runs here, so an elliptic change must leave it unmoved.
    "integer-sweeps": "integer kernels at jobs 1: CZ scan at eps 0.05, CZ JSON "
                      "rendering, PN grid build before sampling, BCZ and AR gcds",
    # Chord-tangent addition on Fractions (SIEGEL on y^2 = x^3 - 2 and the
    # other multiples sweeps) and canonical_height, including the
    # y^2 = x^3 + 1000x + 1 query whose tolerance is not certified.  No mulgrp
    # kernel runs here, so a cz_classify change must leave it unmoved.
    "curve-sweeps": "elliptic arithmetic at jobs 1: Fraction chord-tangent "
                    "multiples and canonical heights, one of them uncertified",
    # The same kinds of integer kernels sent through cli.main at --jobs 2:
    # pool start-up per run(), pickling per cell, chunk order and the config
    # and output file I/O.  A pool gain shows only here.
    "pool-cli": "integer sweeps through cli.main at --jobs 2: pool start-up, "
                "per-cell pickling, chunk order, config and output file I/O",
}

WORKLOADS = tuple(WHY)

# Curves (a1, a2, a3, a4, a6) and their integral base points.
CURVES = {
    "37a1": ([0, 0, 1, -1, 0], [(0, 0)]),
    "389a1": ([0, 1, 1, -2, 0], [(0, 0), (1, 0)]),
    "5077a1": ([0, 0, 1, -7, 6], [(0, 2), (1, 0), (2, 0)]),
    "x3+17": ([0, 0, 0, 0, 17], [(-2, 3), (-1, 4), (2, 5), (4, 9), (8, 23)]),
    "x3-2": ([0, 0, 0, 0, -2], [(3, 5)]),
    "x3+1000x+1": ([0, 0, 0, 1000, 1], [(0, 1)]),
}

# Multiplicatively independent base pairs for BCZ/AR, with the cost of one
# gcd(a^n - 1, b^n - 1) sweep relative to (2, 3) at the same n_max, measured
# on the seed code.  Sizes are divided by weight^(1/2.3) (the sweep grows
# about as n_max^2.3) so that every pair costs about the same.
BASE_PAIRS = {(2, 3): 1.0, (2, 5): 1.37, (3, 5): 1.57, (2, 7): 1.44, (3, 7): 1.76}

# Linear forms cutting out a point of P^2 / a line of P^3, with an
# evaluator kept here so the checks recompute f_i(x) without the library.
PN3_SYSTEMS = [
    (["X1-X0", "X2-X0"], lambda x: (x[1] - x[0], x[2] - x[0])),
    (["X1+X0", "X2-X0"], lambda x: (x[1] + x[0], x[2] - x[0])),
    (["X1-X0", "X2+X0"], lambda x: (x[1] - x[0], x[2] + x[0])),
    (["X1-X2", "X0-X2"], lambda x: (x[1] - x[2], x[0] - x[2])),
]
PN4_SYSTEMS = [
    (["X1-X0", "X2-X0", "X3-X0"],
     lambda x: (x[1] - x[0], x[2] - x[0], x[3] - x[0])),
    (["X1+X0", "X2-X0", "X3+X0"],
     lambda x: (x[1] + x[0], x[2] - x[0], x[3] + x[0])),
]
PN_SYSTEMS = {tuple(p): f for p, f in PN3_SYSTEMS + PN4_SYSTEMS}


def _magnitudes(primes, bound: int) -> list[int]:
    """The S-unit magnitudes m with 2 <= m <= bound, ascending."""
    mags = [1]
    for p in primes:
        grown = []
        for m in mags:
            while m <= bound:
                grown.append(m)
                m *= p
        mags = grown
    return sorted(m for m in mags if m >= 2)


def s_unit_bound(primes: tuple[int, ...], magnitudes: int, rng: random.Random) -> int:
    """A bound with exactly ``magnitudes`` S-unit magnitudes >= 2 below it.

    The S-unit list then has 2 * magnitudes entries (both signs), so the CZ
    grid has a fixed size; the bound itself is drawn from the gap before the
    next magnitude.
    """
    mags = _magnitudes(primes, 10**12)
    return rng.randrange(mags[magnitudes - 1], mags[magnitudes])


def _jitter(rng: random.Random, n: int, share: float) -> int:
    return max(1, round(n * (1.0 + rng.uniform(-share, share))))


def _pair(rng: random.Random, n0: int, share: float,
          pairs: dict = BASE_PAIRS) -> tuple[int, int, int]:
    (a, b), w = rng.choice(sorted(pairs.items()))
    if rng.random() < 0.5:
        a, b = b, a
    return a, b, _jitter(rng, round(n0 / w ** (1 / 2.3)), share)


def _cz(rng, primes, magnitudes, eps, fmt):
    return {"op": "sweep", "format": fmt, "cls": f"cz-{eps:g}", "config": {
        "kind": "CZ_TRICHOTOMY",
        "parameters": {"primes": list(primes),
                       "bound": s_unit_bound(primes, magnitudes, rng), "eps": eps},
    }}


def _bcz(rng, n0, fmt, share=0.05, pairs=BASE_PAIRS):
    a, b, n = _pair(rng, n0, share, pairs)
    return {"op": "sweep", "format": fmt, "cls": "bcz", "config": {
        "kind": "BCZ",
        "parameters": {"a": a, "b": b, "n_max": n,
                       "eps": round(rng.uniform(0.3, 0.6), 3),
                       "C": round(rng.uniform(0.0, 1.0), 3)},
    }}


def _ar(rng, n0, fmt):
    a, b, n = _pair(rng, n0, 0.05)
    return {"op": "sweep", "format": fmt, "cls": "ar", "config": {
        "kind": "AR_RETURNS", "parameters": {"a": a, "b": b, "n_max": n},
    }}


def _pn(rng, systems, bound, sample, fmt):
    polys, _ = rng.choice(systems)
    return {"op": "sweep", "format": fmt, "cls": f"pn{len(polys) + 1}", "config": {
        "kind": "PN_CHECK",
        "parameters": {"polys": polys, "codim_r": len(polys),
                       "primes": list(rng.choice([(2, 3), (2, 5), (3, 5)])),
                       "bound": bound, "eps": round(rng.uniform(0.3, 0.6), 3),
                       "sample": sample},
        "seed": rng.randrange(10**6),
    }}


# Every pass has the same classes, ordered here from cheap to expensive: eight
# cheap requests, a middle class of nine requests of equal cost that holds the
# median, and eight expensive ones.  With at least four passes the tail sample
# (ten samples beyond it) falls in a top class of three or more per pass.  So
# neither metric moves with the seed.

def _integer_pass(rng: random.Random) -> list[dict]:
    reqs = [_bcz(rng, 1800, "csv") for _ in range(5)]
    reqs += [_ar(rng, 1800, "csv") for _ in range(3)]
    # middle: CZ at eps = 0.25 rendered as JSON, 40 units
    reqs += [_cz(rng, rng.choice([(2, 3), (2, 5), (3, 5), (2, 7)]), 20, 0.25, "json")
             for _ in range(9)]
    reqs += [_cz(rng, rng.choice([(2, 3), (2, 5), (3, 5)]), 16, 0.1, "csv")
             for _ in range(2)]
    reqs += [_pn(rng, PN3_SYSTEMS, 28, 50, fmt) for fmt in ("csv", "json")]
    reqs += [_pn(rng, PN4_SYSTEMS, 8, 50, "csv")]
    # top: the O(ceil(1/eps)^3) scan at eps = 0.05 over 24 units of {2, 3}
    reqs += [_cz(rng, (2, 3), 12, 0.05, "csv") for _ in range(3)]
    return reqs


def _point_req(rng, op, name, cls, pts=None, **extra):
    coeffs, all_pts = CURVES[name]
    x, y = rng.choice(pts or all_pts)
    req = {"op": op, "cls": cls, "curve_name": name}
    if op == "height":
        req.update(curve=coeffs, point=[x, y], tol=1e-4)
    else:
        req.update(format=extra.pop("fmt"), config={
            "kind": extra.pop("kind"),
            "parameters": {"curve": coeffs, "point": [x, y], **extra},
        })
    return req


# Points of canonical height 0.2-0.4 for the middle SIEGEL class; n_max is
# scaled by height^-0.4 so that each request costs about the same.
MIDDLE_POINTS = {("5077a1", (1, 0)): 0.334, ("5077a1", (2, 0)): 0.384,
                 ("389a1", (1, 0)): 0.238, ("x3+17", (-2, 3)): 0.227,
                 ("x3+17", (4, 9)): 0.395}


def _curve_pass(rng: random.Random) -> list[dict]:
    reqs = [_point_req(rng, "height", "37a1", "height-light")]
    reqs += [_point_req(rng, "height", "389a1", "height-light") for _ in range(2)]
    for i, name in enumerate(("37a1", "389a1")):
        req = _point_req(rng, "sweep", name, "eds-gcd", kind="EDS_GCD",
                         fmt=("csv", "json")[i], m_max=24, n_max=24,
                         eps=round(rng.uniform(0.1, 0.3), 3))
        params = req["config"]["parameters"]
        params["p"] = params.pop("point")
        reqs.append(req)
    for i, name in enumerate(("389a1", "5077a1")):
        coeffs, pts = CURVES[name]
        p, q = rng.sample(pts, 2)
        reqs.append({"op": "sweep", "cls": "abelian", "curve_name": name,
                     "format": ("csv", "json")[i], "config": {
                         "kind": "ABELIAN_GROWTH",
                         "parameters": {"curve": coeffs, "p": list(p), "q": list(q),
                                        "n_max": 40,
                                        "eps": round(rng.uniform(0.1, 0.3), 3),
                                        "independence_asserted": True},
                     }})
    primes = rng.choice([(2, 3), (2, 5), (3, 5)])
    reqs.append(_point_req(rng, "sweep", "389a1", "mixed", kind="MIXED_CHECK",
                           fmt="json", primes=list(primes), n_max=16,
                           b_bound=s_unit_bound(primes, 12, rng),
                           eps=round(rng.uniform(0.2, 0.5), 3)))
    # middle: chord-tangent multiples of points of similar height
    for i in range(9):
        (name, pt), h = rng.choice(sorted(MIDDLE_POINTS.items()))
        n_max = _jitter(rng, round(90 * (0.334 / h) ** 0.4), 0.02)
        reqs.append(_point_req(rng, "sweep", name, "siegel", pts=[pt], kind="SIEGEL",
                               fmt=("csv", "json")[i % 2], n_max=n_max))
    reqs += [_point_req(rng, "height", "5077a1", "height-mid")]
    reqs += [_point_req(rng, "height", "x3+17", "height-mid", pts=[(-1, 4)]),
             _point_req(rng, "height", "x3-2", "height-mid")]
    reqs += [_point_req(rng, "height", "x3+17", "height-mid", pts=[(2, 5), (4, 9)])]
    # top: three SIEGEL on y^2 = x^3 - 2 to n = 96, then the uncertified height
    # on y^2 = x^3 + 1000x + 1.  Cell counts are fixed, so that cells_per_s
    # does not move with the seed.
    reqs += [_point_req(rng, "sweep", "x3-2", "siegel-top", kind="SIEGEL",
                        fmt=fmt, n_max=96) for fmt in ("csv", "json", "csv")]
    reqs += [_point_req(rng, "height", "x3+1000x+1", "height-uncertified")]
    return reqs


def _pool_pass(rng: random.Random) -> list[dict]:
    reqs = [_bcz(rng, 1500, "csv") for _ in range(5)]
    reqs += [_ar(rng, 1500, "csv") for _ in range(4)]
    # middle: CZ at eps = 0.25 rendered as JSON, 40 units
    reqs += [_cz(rng, rng.choice([(2, 3), (2, 5), (3, 5), (2, 7)]), 20, 0.25, "json")
             for _ in range(9)]
    reqs += [_pn(rng, PN3_SYSTEMS, 26, 60, fmt) for fmt in ("csv", "json")]
    reqs += [_cz(rng, (2, 3), 8, 0.05, "csv") for _ in range(2)]
    # top: BCZ of (2, 3) to n = 8000, whose last chunk holds the costliest cells
    reqs += [_bcz(rng, 8000, "csv", share=0.005, pairs={(2, 3): 1.0})
             for _ in range(3)]
    for r in reqs:
        r["op"] = "cli"
        r["jobs"] = 2
    return reqs


_PASS = {
    "integer-sweeps": _integer_pass,
    "curve-sweeps": _curve_pass,
    "pool-cli": _pool_pass,
}


def build(workload: str, seed: int) -> list[dict]:
    """The request list of one pass of ``workload``, in the order sent."""
    if workload not in _PASS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    reqs = _PASS[workload](rng)
    rng.shuffle(reqs)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def profile(reqs: list[dict]) -> dict:
    """The input profile of one pass, recorded next to the results."""
    kinds: dict[str, int] = {}
    eps: set[float] = set()
    n_largest = 0
    pn_ratio = []
    pointed = []
    for r in reqs:
        if r["op"] == "height":
            kinds["height"] = kinds.get("height", 0) + 1
            pointed.append((r["curve_name"], tuple(r["point"])))
            continue
        kind, params = r["config"]["kind"], r["config"]["parameters"]
        cells = expected_cells(r["config"])
        kinds[kind] = kinds.get(kind, 0) + cells
        if "eps" in params:
            eps.add(params["eps"])
        n_largest = max(n_largest, params.get("n_max", 0), params.get("m_max", 0))
        if kind == "PN_CHECK":
            pn_ratio.append(pn_grid_size(params) / params["sample"])
        for key in ("point", "p", "q"):
            if key in params:
                pointed.append((r["curve_name"], tuple(params[key])))
    return {
        "requests": len(reqs),
        "cells_per_kind": dict(sorted(kinds.items())),
        "eps_values": sorted(eps),
        "largest_n": n_largest,
        "pn_grid_to_sample": [round(x, 1) for x in sorted(pn_ratio)],
        "repeated_point_share": (
            round(1 - len(set(pointed)) / len(pointed), 4) if pointed else 0.0
        ),
    }


def pn_grid_size(params: dict) -> int:
    """Points the seed code enumerates before sampling: bound * (2 bound)^(n-1)."""
    nvars = len(params["polys"]) + 1
    return params["bound"] * (2 * params["bound"]) ** (nvars - 1)


def expected_cells(config: dict) -> int:
    """Number of sweep cells a config expands to (height queries count 1)."""
    kind, p = config["kind"], config["parameters"]
    if kind in ("BCZ", "AR_RETURNS", "ABELIAN_GROWTH"):
        return p["n_max"]
    if kind == "SIEGEL":
        return p["n_max"] - p.get("n_min", 1) + 1
    if kind == "EDS_GCD":
        return p["m_max"] * p["n_max"]
    if kind == "PN_CHECK":
        return p["sample"]
    if kind == "CZ_TRICHOTOMY":
        return _unit_count(p["primes"], p["bound"]) ** 2
    if kind == "MIXED_CHECK":
        return p["n_max"] * _unit_count(p["primes"], p["b_bound"])
    raise ValueError(f"no cell count for {kind}")


def _unit_count(primes, bound: int) -> int:
    return 2 * len(_magnitudes(primes, bound))
