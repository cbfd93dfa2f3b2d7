"""Output checks.  Each returns a list of error strings; empty means correct.

The checks use routes that are independent of the code path being timed
where one exists: exact powers for POWER_RELATION rows, the benchmark's own
evaluators for the PN forms, ``scalar_mul`` (double-and-add) for the
denominators that the sweeps get by repeated addition, stored high-depth
reference heights (see reference.py), and a ``jobs=1`` run for the
``--jobs 2`` CLI output.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

from gcdheights import elliptic, experiments, mulgrp

import workloads

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference_heights.json").read_text()
)


def rows_of(text: str, fmt: str) -> list[dict]:
    """Records of a rendered sweep, as strings (CSV) or JSON values."""
    if fmt == "json":
        return json.loads(text)["records"]
    return list(csv.DictReader(io.StringIO(text)))


def render(config: dict, fmt: str) -> str:
    """run() at jobs 1 and render, the reference for every other route."""
    cfg = experiments.SweepConfig(kind=config["kind"], parameters=config["parameters"],
                                  seed=config.get("seed", 0))
    result = experiments.run(cfg, jobs=1)
    if fmt == "json":
        return experiments.render_json(result)
    return experiments.render_csv(result)


def goldens(root: Path) -> list[str]:
    """The three tests/data goldens, byte for byte, through run() and render."""
    data = root / "tests" / "data"
    errors = []
    bcz = {"kind": "BCZ", "parameters": {"a": 2, "b": 3, "n_max": 300, "eps": 0.5,
                                         "C": 0.0}}
    siegel = {"kind": "SIEGEL", "parameters": {"curve": [0, 0, 1, -1, 0],
                                               "point": [0, 0], "n_min": 5,
                                               "n_max": 40}}
    for config, name in ((bcz, "bcz_a2_b3_eps05_n300.csv"),
                         (siegel, "siegel_37a1_n5_40.csv")):
        if render(config, "csv") != (data / name).read_text():
            errors.append(f"golden {name} differs")
    cz = experiments.run(experiments.SweepConfig(
        kind="CZ_TRICHOTOMY",
        parameters={"primes": [2, 3], "bound": 10**4, "eps": 0.25}))
    doc = {"bound": 10**4, "counts": cz.summary["verdicts"], "eps": 0.25,
           "exceptional_pairs": cz.summary["exceptional_pairs"], "primes": [2, 3]}
    name = "cz_exceptional_s23_b1e4_eps025.json"
    if json.dumps(doc, indent=1, sort_keys=True) + "\n" != (data / name).read_text():
        errors.append(f"golden {name} differs")
    return errors


def _cells(req: dict, text: str) -> list[str]:
    rows = rows_of(text, req["format"])
    want = workloads.expected_cells(req["config"])
    if len(rows) != want:
        return [f"request {req['id']}: {len(rows)} rows, expected {want}"]
    return []


def _power_relations(req: dict, rows: list[dict]) -> list[str]:
    errors = []
    for r in rows:
        if r["verdict"] == mulgrp.POWER_RELATION:
            a, b, m, n = (int(r[k]) for k in ("alpha", "beta", "m", "n"))
            if a**m != b**n:
                errors.append(f"request {req['id']}: {a}^{m} != {b}^{n}")
    return errors


def _pn_witnesses(req: dict, rows: list[dict]) -> list[str]:
    forms = workloads.PN_SYSTEMS[tuple(req["config"]["parameters"]["polys"])]
    errors = []
    for r in rows:
        x = [int(t) for t in r["point"].split(":")]
        g = 0
        for v in forms(x):
            g = gcd(g, v)
        if int(r["gcd"]) != g:
            errors.append(f"request {req['id']}: gcd witness {r['gcd']} at "
                          f"{r['point']}, recomputed {g}")
    return errors


# The gcd column of each curve sweep, recomputed from the row's own inputs.
GCD_COLUMN = {
    "EDS_GCD": lambda r: gcd(int(r["d_m"]), int(r["d_n"])),
    "ABELIAN_GROWTH": lambda r: gcd(int(r["d_p"]), int(r["d_q"])),
    "MIXED_CHECK": lambda r: gcd(int(r["d_q"]), abs(int(r["b"]) - 1)),
}


def _denominators(req: dict, rows: list[dict], rng: random.Random) -> list[str]:
    """D_nP columns against scalar_mul, plus the divisibility of the sequence."""
    params = req["config"]["parameters"]
    c = elliptic.Curve(*params["curve"])
    columns = {"SIEGEL": [("d", "point")], "ABELIAN_GROWTH": [("d_p", "p"), ("d_q", "q")]}
    errors = []
    for col, key in columns.get(req["config"]["kind"], []):
        p = elliptic.Point(*(Fraction(t) for t in params[key]))
        seq = [int(r[col]) for r in rows]
        for n in rng.sample(range(1, len(seq) + 1), min(4, len(seq))):
            den = elliptic.scalar_mul(c, n, p).x.denominator
            if isqrt(den) ** 2 != den or isqrt(den) != seq[n - 1]:
                errors.append(f"request {req['id']}: {col} at n={n} differs "
                              "from scalar_mul")
        report = mulgrp.divisibility_check(seq)
        if not report.ok:
            errors.append(f"request {req['id']}: {col} is not a divisibility "
                          f"sequence at {report.counterexample}")
    expect = GCD_COLUMN.get(req["config"]["kind"])
    if expect and any(expect(r) != int(r["gcd"]) for r in rows):
        errors.append(f"request {req['id']}: gcd column differs from its inputs")
    return errors


def _height(req: dict, out: dict) -> list[str]:
    if out["uncertified"]:
        return []  # counted as a failure, not checked against a tolerance
    key = f"{req['curve_name']}:{req['point'][0]},{req['point'][1]}"
    ref = REFERENCE.get(key)
    if ref is None:
        return [f"request {req['id']}: no reference height for {key}"]
    if abs(out["value"] - ref["value"]) > req["tol"] + ref["err"]:
        return [f"request {req['id']}: height {out['value']!r} of {key} is off the "
                f"reference {ref['value']!r} by more than tol"]
    return []


def outputs(reqs: list[dict], outs: dict[int, dict], seed: int) -> list[str]:
    """Check the outputs of one pass; ``outs`` maps request id to its output."""
    rng = random.Random(seed)
    errors = []
    for req in reqs:
        out = outs.get(req["id"])
        if out is None:
            continue  # the request raised; it is already counted as failed
        if req["op"] == "height":
            errors += _height(req, out)
            continue
        errors += _cells(req, out["text"])
        rows = rows_of(out["text"], req["format"])
        kind = req["config"]["kind"]
        if kind == "CZ_TRICHOTOMY":
            errors += _power_relations(req, rows)
        elif kind == "PN_CHECK":
            errors += _pn_witnesses(req, rows)
        elif "curve" in req["config"]["parameters"]:
            errors += _denominators(req, rows, rng)
        if req["op"] == "cli" and out["text"] != render(req["config"], req["format"]):
            errors.append(f"request {req['id']}: --jobs {req['jobs']} output differs "
                          "from a --jobs 1 run")
    return errors
