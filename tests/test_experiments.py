"""The sweep runner: determinism, summaries and fits, goldens, error budget."""
from __future__ import annotations

import concurrent.futures
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import random
import re
import statistics
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from gcdheights import (
    EXCEPTIONAL,
    Curve,
    Point,
    SweepConfig,
    SweepKind,
    SweepResult,
    cz_classify,
    eds,
    format_real,
    gcd_pair,
    multiples,
    render_csv,
    render_json,
    run,
    summarize,
)
from gcdheights.arith import EPS_SLACK, PrimeSet
from gcdheights.gcd_height import (HomPoly, PnPoint, PolySystem, VojtaParams, bound,
                                   check_mixed, check_pn)
from gcdheights.mulgrp import LN2
from gcdheights import experiments, mulgrp
from test_elliptic import exceptional_subgroups

# Frozen from the first verified run of this suite.
BCZ300_FITTED = 4.489464501830993
BCZ_FIT_EPS02_N100 = 11.975454051878401
EDSGCD_37A1_EPS02_VIOLATIONS = 13
EDSGCD_389A1_FITTED = -0.27465307216702745
MIXED_37A1_FITTED = 1.2887880299545085  # exp of the log-scale fit 0.25370226509270133
ABELIAN_389A1_FITTED = -0.3

BCZ300 = SweepConfig(kind=SweepKind.BCZ,
                     parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 300})
EDSGCD_37A1 = SweepConfig(kind=SweepKind.EDS_GCD,
                          parameters={"curve": [0, 0, 1, -1, 0], "p": [0, 0],
                                      "m_max": 20, "n_max": 20, "eps": 0.2})
EDSGCD_389A1 = SweepConfig(kind=SweepKind.EDS_GCD,
                           parameters={"curve": [0, 1, 1, -2, 0], "p": [0, 0],
                                       "q": [1, 0], "m_max": 12, "n_max": 12,
                                       "eps": 0.25})


def _columns(kind: SweepKind, rows: list) -> tuple:
    """``rows`` of ``kind``'s ``Row`` as a result holds them: one list per
    column, and one empty list per column for no rows."""
    return tuple(map(list, zip(*rows))) or tuple([] for _ in experiments.SPECS[kind].columns)


def _result(config: SweepConfig, rows: list) -> SweepResult:
    """The result of ``rows``, summarized."""
    columns = _columns(config.kind, rows)
    return SweepResult(config, columns, summarize(config.kind, columns, config))


# ----------------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------------

def test_missing_parameter_names_the_kind():
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={"a": 2, "b": 3, "eps": 0.5})
    with pytest.raises(ValueError, match="n_max"):
        run(cfg)


def test_dependent_inputs_rejected_up_front():
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={"a": 4, "b": 8, "eps": 0.5, "n_max": 5})
    with pytest.raises(ValueError, match="dependent"):
        run(cfg)


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run(BCZ300, jobs=0)


def test_abelian_requires_explicit_independence_voucher():
    cfg = SweepConfig(kind=SweepKind.ABELIAN_GROWTH,
                      parameters={"curve": [0, 1, 1, -2, 0], "p": [0, 0],
                                  "q": [1, 0], "n_max": 5, "eps": 0.3})
    with pytest.raises(ValueError, match="independence_asserted"):
        run(cfg)


def test_abelian_389a1_output_is_pinned():
    # independent points: the check against q = +-p leaves the output as it was
    cfg = SweepConfig(kind=SweepKind.ABELIAN_GROWTH,
                      parameters={"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
                                  "n_max": 4, "eps": 0.3, "independence_asserted": True})
    res = run(cfg)
    assert render_csv(res) == ("n,d_p,d_q,gcd,lhs,hA,rhs,holds,error\n"
                               "1,1,1,1,0,1,0.3,true,\n2,1,1,1,0,4,1.2,true,\n"
                               "3,3,5,1,0,9,2.7,true,\n4,11,31,1,0,16,4.8,true,\n")
    assert hashlib.sha256(render_json(res).encode()).hexdigest() == \
        "edc15c0048f71dc5b97fc6e8c8766864f76909aef8d17dc5646a79306f4fd962"


@pytest.mark.parametrize("q", [[0, 0], [0, -1]], ids=["P", "-P"])
def test_abelian_rejects_q_equal_to_plus_or_minus_p(q):
    cfg = SweepConfig(kind=SweepKind.ABELIAN_GROWTH,
                      parameters={"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": q,
                                  "n_max": 5, "eps": 0.3, "independence_asserted": True})
    with pytest.raises(ValueError, match="q must not be p or -p"):
        run(cfg)


# y^2 = x^3 + 1, where (2, 3) has order 6 and (0, 1) order 3; and
# y^2 = x^3 - 2x, where (-1, 1) has infinite order and (0, 0) order 2
X3P1, X3M2X = [0, 0, 0, 0, 1], [0, 0, 0, -2, 0]


@pytest.mark.parametrize("kind, params, order", [
    (SweepKind.SIEGEL, {"curve": X3P1, "point": [2, 3], "n_max": 10}, 6),
    (SweepKind.SIEGEL, {"curve": X3P1, "point": [2, 3], "n_max": 5}, 6),
    (SweepKind.EDS_GCD, {"curve": X3P1, "p": [2, 3], "m_max": 5, "n_max": 5, "eps": 0.2}, 6),
    (SweepKind.EDS_GCD, {"curve": X3M2X, "p": [-1, 1], "q": [0, 0], "m_max": 1,
                         "n_max": 1, "eps": 0.2}, 2),
    (SweepKind.MIXED_CHECK, {"curve": X3P1, "point": [2, 3], "primes": [2, 3],
                             "eps": 0.4, "n_max": 5}, 6),
    (SweepKind.ABELIAN_GROWTH, {"curve": X3P1, "p": [2, 3], "q": [0, 1], "n_max": 2,
                                "eps": 0.3, "independence_asserted": True}, 6),
    (SweepKind.ABELIAN_GROWTH, {"curve": X3M2X, "p": [-1, 1], "q": [0, 0], "n_max": 1,
                                "eps": 0.3, "independence_asserted": True}, 2),
], ids=["siegel", "siegel-below", "edsgcd-below", "edsgcd-q-below", "mixed-below",
        "abelian-below", "abelian-q-below"])
def test_torsion_point_is_reported_not_swept(kind, params, order):
    # the multiples are read to at least 12, the largest order of a torsion
    # point over Q (Mazur), so an n_max below the order refuses it too
    with pytest.raises(ValueError, match=f"finite order {order}"):
        run(SweepConfig(kind=kind, parameters=params))


# ----------------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------------

def test_run_twice_is_byte_identical():
    a = render_csv(run(EDSGCD_37A1))
    b = render_csv(run(EDSGCD_37A1))
    assert a == b


def test_parallel_jobs_are_byte_identical(forced_pool):
    a = render_csv(run(EDSGCD_37A1, jobs=1))
    b = render_csv(run(EDSGCD_37A1, jobs=8))
    assert a == b
    assert render_json(run(BCZ300, jobs=1)) == render_json(run(BCZ300, jobs=8))
    # jobs=8 is capped at the two usable CPUs
    assert [pool.max_workers for pool in forced_pool] == [2, 2]


def test_pn_sampling_is_seed_deterministic():
    base = {"polys": ["X1-X0", "X2-X0"], "primes": [2, 3], "bound": 6,
            "eps": 0.4, "sample": 40}
    r1 = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters=base, seed=5))
    r2 = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters=base, seed=5))
    assert [r.point for r in r1.records] == [r.point for r in r2.records]
    assert len(r1.records) == 40


# ----------------------------------------------------------------------------
# PN box sampling, against the depth-first enumeration it replaced
# ----------------------------------------------------------------------------

def _pn_grid_oracle(texts: list[str], bound: int) -> list[str]:
    """Every box point with gcd 1 off V, built depth first and then sorted."""
    system = PolySystem.of(*texts)
    nvars = max(f.max_var() for f in system.polys) + 1
    nonzero = [v for v in range(-bound, bound + 1) if v != 0]
    pts = []
    for first in range(1, bound + 1):
        stack = [(first,)]
        while stack:
            tup = stack.pop()
            if len(tup) < nvars:
                stack.extend(tup + (v,) for v in reversed(nonzero))
            elif math.gcd(*tup) == 1 and not all(f(tup) == 0 for f in system.polys):
                pts.append(tup)
    return [":".join(map(str, t)) for t in sorted(pts)]


def _pn_points(texts, bound, sample=None, seed=0) -> list[str]:
    params = {"polys": texts, "primes": [2, 3], "bound": bound, "eps": 0.4,
              "codim_r": max(2, len(texts)), "sample": sample}
    return [r.point for r in run(SweepConfig(kind=SweepKind.PN_CHECK,
                                              parameters=params, seed=seed)).records]


PN_SYSTEMS = [
    (["X1+X0", "X2-2*X0"], 9),
    (["X1-X0", "X2-X0"], 6),
    (["X1-X0", "X2-X0", "X3-X0"], 3),
    (["X1^2-X0^2", "X2-X0"], 5),
]


@pytest.mark.parametrize("texts, bound", PN_SYSTEMS)
def test_pn_unsampled_rows_are_the_oracle_grid(texts, bound):
    assert _pn_points(texts, bound) == _pn_grid_oracle(texts, bound)


@pytest.mark.parametrize("texts, bound", PN_SYSTEMS)
def test_pn_sampled_points_are_valid_distinct_and_sorted(texts, bound):
    system = PolySystem.of(*texts)
    got = _pn_points(texts, bound, sample=12, seed=3)
    pts = [tuple(int(t) for t in p.split(":")) for p in got]
    assert len(pts) == 12
    assert pts == sorted(set(pts))
    for x in pts:
        assert x[0] > 0 and all(0 < abs(t) <= bound for t in x)
        assert math.gcd(*x) == 1
        assert not all(f(x) == 0 for f in system.polys)
    # a sample covering every valid point returns the unsampled rows
    everything = _pn_grid_oracle(texts, bound)
    for sample in (len(everything), len(everything) + 5, 2**63):
        assert _pn_points(texts, bound, sample=sample, seed=3) == everything


@pytest.mark.parametrize("size", [0, 1, 7, 500])
def test_distinct_draws_is_a_permutation(size):
    got = list(experiments._distinct_draws(random.Random(4), size))
    assert sorted(got) == list(range(size))


def test_pn_seeds_pick_different_points():
    one, two = (_pn_points(["X1-X0", "X2-X0"], 28, sample=50, seed=s) for s in (1, 2))
    assert len(one) == len(two) == 50 and set(one) != set(two)


def test_pn_sample_cost_follows_the_sample_not_the_box():
    # 30 * 60^3 = 6.48M box points, of which 50 are kept
    params = {"polys": ["X1-X0", "X2-X0", "X3-X0"], "primes": [2, 3],
              "bound": 30, "eps": 0.4, "codim_r": 3, "sample": 50}
    t0 = time.perf_counter()
    checked = experiments._checked(SweepKind.PN_CHECK, params)
    _, (points,) = experiments.SPECS[SweepKind.PN_CHECK].prepare(checked, 7)
    assert time.perf_counter() - t0 < 1.0
    assert len(points) == 50


def _pn_prepared(texts, codim_r):
    params = {"polys": texts, "primes": [2], "bound": 2, "eps": 0.5, "codim_r": codim_r}
    return experiments.SPECS[SweepKind.PN_CHECK].prepare(
        experiments._checked(SweepKind.PN_CHECK, params), 0)


@pytest.mark.parametrize("r", [2, 3, 5])
def test_pn_dependent_linear_forms_are_refused_at_every_codim(r):
    # 2*X1-2*X0 is twice X1-X0: the rank is 1, below every admissible r
    with pytest.raises(ValueError, match=f"codim_r {r} does not match codimension 1 of V"):
        _pn_prepared(["X1-X0", "2*X1-2*X0"], r)


def _rank_by_minors(matrix: list[list[int]]) -> int:
    """The largest k with a nonzero k x k minor, each determinant by Leibniz."""
    def det(rows, cols):
        return sum((-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                   * math.prod(matrix[i][j] for i, j in zip(rows, perm))
                   for perm in itertools.permutations(cols))
    return max((k for k in range(1, len(matrix) + 1)
                for rows in itertools.combinations(range(len(matrix)), k)
                for cols in itertools.combinations(range(len(matrix[0])), k)
                if det(rows, cols)), default=0)


def test_pn_linear_rank_matches_the_minors():
    rng = random.Random(33)
    ranks = []
    while len(ranks) < 300:
        nvars = rng.randint(2, 5)
        matrix = [[rng.randint(-3, 3) for _ in range(nvars)]
                  for _ in range(rng.randint(1, 4))]
        if not all(any(row) for row in matrix):
            continue  # a system has no zero form
        system = PolySystem(tuple(HomPoly(tuple((c, ((j, 1),)) for j, c in enumerate(row) if c))
                                  for row in matrix))
        ranks.append(experiments._linear_rank(system, nvars))
        assert ranks[-1] == _rank_by_minors(matrix), matrix
    assert set(ranks) == {1, 2, 3, 4}


@pytest.mark.parametrize("texts, r, message", [
    # X1 = X0 = -X1 has no point in P^1: two forms of rank 2 in 2 variables
    (["X1-X0", "X1+X0"], None, "V is empty: rank 2"),
    (["X1-X0", "X1+X0"], 2, "V is empty: rank 2"),
    (["X1-X0", "2*X1-2*X0"], None, "V is a hyperplane: rank 1"),
    (["X1^2-X0^2", "X2-X0"], None, "codim_r is required when a form is not linear"),
])
def test_pn_system_without_a_codimension_is_refused(texts, r, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _pn_prepared(texts, r)


# The PN systems the benchmark workloads send with codim_r = len(polys), copied
# from PN3_SYSTEMS and PN4_SYSTEMS of perfbench/workloads.py, not imported
WORKLOAD_PN_SYSTEMS = [
    (["X1-X0", "X2-X0"], 5), (["X1+X0", "X2-X0"], 5), (["X1-X0", "X2+X0"], 5),
    (["X1-X2", "X0-X2"], 5), (["X1-X0", "X2-X0", "X3-X0"], 3),
    (["X1+X0", "X2-X0", "X3+X0"], 3),
]


@pytest.mark.parametrize("texts, bound", WORKLOAD_PN_SYSTEMS)
@pytest.mark.parametrize("sample", [None, 20])
def test_pn_codim_r_of_linear_forms_is_their_rank(texts, bound, sample):
    params = {"polys": texts, "primes": [2], "bound": bound, "eps": 0.45,
              "delta": 2.0, "C": -0.2, "sample": sample}
    derived = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters=params, seed=9))
    given = run(SweepConfig(kind=SweepKind.PN_CHECK, seed=9,
                            parameters={**params, "codim_r": len(texts)}))
    assert derived.records == given.records and derived.summary == given.summary
    assert derived.summary["violations"] > 0 and any(r.hcount for r in derived.records)


def test_pn_summarize_without_codim_r_is_the_run_summary():
    cfg = SweepConfig(kind=SweepKind.PN_CHECK,
                      parameters={"polys": ["X1-X0", "X2-X0", "X3-X0"], "primes": [2],
                                  "bound": 3, "eps": 0.4, "delta": 2.5, "C": 0.3})
    res = run(cfg)
    assert summarize(SweepKind.PN_CHECK, res.columns, cfg) == res.summary
    assert res.summary["fitted_constant"] is not None


def test_pn_nonlinear_system_keeps_trusting_codim_r():
    texts = ["X1^2-X0^2", "X2-X0"]
    assert experiments._linear_rank(PolySystem.of(*texts), 3) is None
    for r in (2, 3, 5):
        _, (points,) = _pn_prepared(texts, r)
        assert points


@pytest.mark.parametrize("sample", [0, -1, 2.5, "10", True])
def test_pn_sample_must_be_a_positive_integer(sample):
    params = {"polys": ["X1-X0", "X2-X0"], "primes": [2], "bound": 3,
              "eps": 0.4, "sample": sample}
    with pytest.raises(ValueError, match="sample must be a positive integer"):
        experiments.SPECS[SweepKind.PN_CHECK].prepare(
            experiments._checked(SweepKind.PN_CHECK, params), 0)


# ----------------------------------------------------------------------------
# golden files
# ----------------------------------------------------------------------------

def test_bcz_golden_csv(data_dir):
    got = render_csv(run(BCZ300))
    want = (data_dir / "bcz_a2_b3_eps05_n300.csv").read_text()
    assert got == want


def test_bcz_summary_frozen():
    s = run(BCZ300).summary
    assert s["cells"] == 300 and s["error_rows"] == 0
    assert s["violations"] == 3
    assert s["max_violating_index"] == [36]
    assert math.isclose(s["fitted_constant"], BCZ300_FITTED, rel_tol=1e-12)


ERRORS_GOLDEN = "cz_s23_b30_eps1e308_errors.csv"
BOUND_GOLDENS = [
    ("edsgcd_37a1_eps02_n12.csv", SweepKind.EDS_GCD,
     {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": 12, "n_max": 12, "eps": 0.2}),
    ("mixed_m2_p35_eps04_n6.csv", SweepKind.MIXED_CHECK,
     {"curve": [0, 0, 0, 0, -2], "point": [3, 5], "primes": [2, 3], "eps": 0.4,
      "n_max": 6, "b_bound": 50}),
    ("pn_diag_s23_b6_eps05.csv", SweepKind.PN_CHECK,
     {"polys": ["X1-X0", "X2-X0"], "primes": [2, 3], "bound": 6, "eps": 0.5}),
    # JSON prints every key of a row, so it also pins the row schema
    ("cz_s23_b12_eps025.json", SweepKind.CZ_TRICHOTOMY,
     {"primes": [2, 3], "bound": 12, "eps": 0.25}),
    # 40 units, the shape of the CZ sweeps the benchmark renders
    ("cz_s27_b450_eps025.csv", SweepKind.CZ_TRICHOTOMY,
     {"primes": [2, 7], "bound": 450, "eps": 0.25}),
    # 420 of its 484 cells are error rows, the pairs whose larger unit's bound
    # overflows a float, (i, j) and (j, i) alike: the error path in bytes
    (ERRORS_GOLDEN, SweepKind.CZ_TRICHOTOMY,
     {"primes": [2, 3], "bound": 30, "eps": 1e308, "error_budget": 1000}),
    # the fit keys are in the JSON summary only: this fit leaves out the
    # diagonal, which has violations, and the PN one depends on the weight
    ("edsgcd_37a1_eps02_n12.json", SweepKind.EDS_GCD,
     {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": 12, "n_max": 12, "eps": 0.2}),
    ("pn_x123_s2_b3_eps04_d20_r3.json", SweepKind.PN_CHECK,
     {"polys": ["X1-X0", "X2-X0", "X3-X0"], "codim_r": 3, "primes": [2],
      "bound": 3, "eps": 0.4, "delta": 20.0}),
    ("abelian_389a1_pq_eps02_n40.json", SweepKind.ABELIAN_GROWTH,
     {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0], "n_max": 40, "eps": 0.2,
      "C": 0.25, "independence_asserted": True}),
]


@pytest.mark.parametrize("name, kind, params", BOUND_GOLDENS,
                         ids=[g[0] for g in BOUND_GOLDENS])
def test_bound_kind_goldens(data_dir, name, kind, params):
    res = run(SweepConfig(kind=kind, parameters=params))
    got = render_json(res, version="0.0.0") if name.endswith(".json") else render_csv(res)
    assert got == (data_dir / name).read_text()


def test_eds_gcd_with_q_golden_json(data_dir):
    # EDS_GCD of two independent points of 389a1 runs from the golden's own
    # config block; its 12 exceptional cells are those of P = Q, and the fit
    # leaves them out
    text = (data_dir / "edsgcd_389a1_pq_eps02_n12.json").read_text()
    cfg = SweepConfig(**json.loads(text)["config"])
    res = run(cfg)
    assert render_json(res, version="0.0.0") == text
    assert render_json(run(cfg, jobs=2), version="0.0.0") == text
    assert len(res.records) == 144 and sum(r.exceptional for r in res.records) == 12
    assert format_real(res.summary["fitted_constant"]) == "-0.219722457734"


def test_abelian_golden_json_at_two_jobs(data_dir, forced_pool):
    # BOUND_GOLDENS checks it at one job.  24 of its 40 cells have
    # gcd(D_nP, D_nQ) > 1, up to 55115 at n = 27; every cell after the first
    # goes to a pool worker
    text = (data_dir / "abelian_389a1_pq_eps02_n40.json").read_text()
    pooled = run(SweepConfig(**json.loads(text)["config"]), jobs=2)
    assert render_json(pooled, version="0.0.0") == text
    assert [pool.max_workers for pool in forced_pool] == [2]
    gcds = [r.gcd for r in pooled.records]
    assert sum(g > 1 for g in gcds) == 24 and max(gcds) == gcds[26] == 55115


def test_siegel_golden_csv(data_dir):
    cfg = SweepConfig(kind=SweepKind.SIEGEL,
                      parameters={"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                                  "n_min": 5, "n_max": 40})
    got = render_csv(run(cfg))
    want = (data_dir / "siegel_37a1_n5_40.csv").read_text()
    assert got == want
    s = run(cfg).summary
    assert s["median_abs_dev"] == 0.0 and s["max_ratio"] == 1.0


def test_siegel_bad_reduction_golden_csv(data_dir):
    # x^3 + 17 at (-2, 3) reduces to a singular point mod 2 and 3, and D_80 has
    # 632 digits: the stripped recurrence and the top-bits logarithm
    cfg = SweepConfig(kind=SweepKind.SIEGEL,
                      parameters={"curve": [0, 0, 0, 0, 17], "point": [-2, 3],
                                  "n_max": 80})
    want = (data_dir / "siegel_x3p17_m2_3_n80.csv").read_text()
    assert render_csv(run(cfg)) == render_csv(run(cfg, jobs=2)) == want


# ----------------------------------------------------------------------------
# summaries recompute from records
# ----------------------------------------------------------------------------

def test_summary_is_function_of_records():
    res = run(EDSGCD_37A1)
    assert summarize(SweepKind.EDS_GCD, res.columns, res.config) == res.summary


def _summary_oracle(kind: SweepKind, records: list, config: SweepConfig) -> dict:
    """The row-wise summary that ``summarize`` and the kinds' summaries computed
    before they read columns."""
    spec, p = experiments.SPECS[kind], experiments._checked(kind, config.parameters)
    good = [r for r in records if r.error is None]
    s = {"kind": kind.value, "cells": len(records), "error_rows": len(records) - len(good)}
    if "hA" in spec.columns:
        viol = [r for r in good if r.holds is False]
        s["violations"] = len(viol)
        s["max_violating_index"] = list(viol[-1][:len(spec.index)]) if viol else None
        eps = p["eps"]
        weight = (VojtaParams(eps, p["delta"], p["C"], p["codim_r"]).weight
                  if "hcount" in spec.columns else 1.0)
        fit = max((r.lhs - eps * r.hA - getattr(r, "hcount", 0.0) / weight
                   for r in good if not getattr(r, "exceptional", False)), default=None)
        s["fitted_constant"] = None if fit is None else spec.C_of_fit(fit)
    if kind == SweepKind.CZ_TRICHOTOMY:
        counts = {mulgrp.POWER_RELATION: 0, mulgrp.INEQUALITY_HOLDS: 0, EXCEPTIONAL: 0}
        for r in good:
            counts[r.verdict] += 1
        pairs = [[r.alpha, r.beta] for r in good if r.verdict == EXCEPTIONAL]
        s.update(violations=len(pairs), max_violating_index=pairs[-1] if pairs else None,
                 verdicts=counts, exceptional_pairs=pairs)
    elif kind == SweepKind.AR_RETURNS:
        idx = [r.n for r in good if r.is_return]
        s.update(returns=len(idx), density=len(idx) / len(good) if good else 0.0,
                 return_indices=idx)
    elif kind == SweepKind.SIEGEL:
        ratios = [r.ratio for r in good]
        s.update(median_abs_dev=statistics.median(abs(x - 1.0) for x in ratios)
                 if ratios else None, max_ratio=max(ratios) if ratios else None)
    elif kind == SweepKind.PN_CHECK:
        s["points"] = len(good)
    return s


LONGER = {SweepKind.AR_RETURNS: {"a": 2, "b": 3, "n_max": 90},
          SweepKind.SIEGEL: {"curve": [0, 0, 0, 0, 17], "point": [-2, 3], "n_max": 30}}


@pytest.mark.parametrize("kind", list(SweepKind))
def test_summarize_by_column_is_the_row_wise_summary(kind):
    # on every kind: whole, with every third row an error row, and empty
    params = LONGER.get(kind) or {**TINY[kind], **BOUNDED.get(kind, {})}
    cfg = SweepConfig(kind=kind, parameters=params)
    records = run(cfg).records
    spec = experiments.SPECS[kind]
    blank = [None] * (len(spec.columns) - len(spec.index) - 1)
    broken = [spec.Row(*r[:len(spec.index)], *blank, "E: x") if i % 3 == 0 else r
              for i, r in enumerate(records)]
    for rows in (records, broken, broken[:1], []):
        assert summarize(kind, _columns(kind, rows), cfg) == _summary_oracle(kind, rows, cfg)
    assert summarize(kind, _columns(kind, records), cfg)["cells"] > 1


def test_cz_summary_counts_match_direct_classification():
    cfg = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                      parameters={"primes": [2, 3], "bound": 100, "eps": 0.25})
    res = run(cfg)
    S = PrimeSet((2, 3))
    for rec in res.records:
        v = cz_classify(rec.alpha, rec.beta, S, 0.25)
        assert v.kind == rec.verdict
    exc = [[r.alpha, r.beta] for r in res.records if r.verdict == EXCEPTIONAL]
    assert res.summary["exceptional_pairs"] == exc
    assert res.summary["violations"] == len(exc)


def test_ar_summary_matches_direct_scan():
    cfg = SweepConfig(kind=SweepKind.AR_RETURNS,
                      parameters={"a": 2, "b": 3, "n_max": 60})
    res = run(cfg)
    direct = [n for n in range(1, 61) if gcd_pair(2, 3, n) == gcd_pair(2, 3, 1)]
    assert res.summary["return_indices"] == direct
    assert res.summary["density"] == len(direct) / 60


BOUNDED = {
    SweepKind.BCZ: {"a": 2, "b": 3, "eps": 0.3, "n_max": 80, "C": 0.75},
    SweepKind.CZ_TRICHOTOMY: {"primes": [2, 3], "bound": 60, "eps": 0.25},
    SweepKind.EDS_GCD: {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": 10,
                        "n_max": 10, "eps": 0.2, "C": -0.1},
    # V = {X1 = X2 = X3 = X0} has codimension 3 in P^3; with S = {2} a 3 in
    # the coordinates makes hcount nonzero, so the weight is exercised
    SweepKind.PN_CHECK: {"polys": ["X1-X0", "X2-X0", "X3-X0"], "primes": [2],
                         "bound": 3, "eps": 0.4, "delta": 2.5, "C": 0.3,
                         "codim_r": 3},
    SweepKind.MIXED_CHECK: {"curve": [0, 0, 0, 0, -2], "point": [3, 5],
                            "primes": [2, 3], "eps": 0.4, "n_max": 5, "b_bound": 30,
                            "C": 2.5},
    SweepKind.ABELIAN_GROWTH: {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
                               "n_max": 12, "eps": 0.03, "C": -0.5,
                               "independence_asserted": True},
}


def _bound_of(kind: SweepKind, row: dict, params: dict) -> float:
    """The row's rhs, recomputed from its own columns and the config."""
    eps = params["eps"]
    if kind == SweepKind.CZ_TRICHOTOMY:
        return eps * math.log(max(abs(row["alpha"]), abs(row["beta"])))
    if kind == SweepKind.MIXED_CHECK:
        return eps * row["hA"] + math.log(params["C"])
    rhs = eps * row["hA"]
    if kind == SweepKind.PN_CHECK:
        rhs += row["hcount"] / (params["codim_r"] - 1 + params["delta"] * eps)
    return rhs + params["C"]


@pytest.mark.parametrize("kind", list(BOUNDED))
def test_bounded_rows_agree_with_their_columns(kind):
    params = BOUNDED[kind]
    rows = [r._asdict() for r in run(SweepConfig(kind=kind, parameters=params)).records]
    for row in rows:
        assert row["lhs"] == math.log(row["gcd"])
        assert row["rhs"] == _bound_of(kind, row, params)
        assert row["holds"] == (row["lhs"] <= row["rhs"] + EPS_SLACK)
        if kind == SweepKind.CZ_TRICHOTOMY:
            exceptional = not row["holds"] and row["m"] is None
            assert (row["verdict"] == EXCEPTIONAL) == exceptional
    assert {row["holds"] for row in rows} == {True, False}


# ----------------------------------------------------------------------------
# the fitted constant and the violating cells
# ----------------------------------------------------------------------------

def test_fit_constant_frozen_value():
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={"a": 2, "b": 3, "eps": 0.2, "n_max": 100})
    assert math.isclose(run(cfg).summary["fitted_constant"], BCZ_FIT_EPS02_N100,
                        rel_tol=1e-12)


def test_fit_constant_is_the_infimum():
    # with C = fit every row holds; shaving 1e-6 creates a violation
    fit = run(SweepConfig(kind=SweepKind.BCZ, parameters={
        "a": 2, "b": 3, "eps": 0.5, "n_max": 60})).summary["fitted_constant"]
    at_fit = run(SweepConfig(kind=SweepKind.BCZ,
                             parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 60,
                                         "C": fit}))
    assert at_fit.summary["violations"] == 0
    below = run(SweepConfig(kind=SweepKind.BCZ,
                            parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 60,
                                        "C": fit - 1e-6}))
    assert below.summary["violations"] >= 1


def test_pn_fit_weights_the_counting_term():
    # at this delta the least C comes from a row with a nonzero hcount, so it
    # depends on the weight codim_r - 1 + delta*eps
    params = {"polys": ["X1-X0", "X2-X0", "X3-X0"], "primes": [2], "bound": 3,
              "eps": 0.4, "delta": 20.0, "codim_r": 3}
    res = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters=params))
    fit = res.summary["fitted_constant"]
    weight = 3 - 1 + 20.0 * 0.4
    assert fit == max(r.lhs - 0.4 * r.hA - r.hcount / weight for r in res.records)
    at_fit = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters={**params, "C": fit}))
    assert at_fit.summary["violations"] == 0
    below = run(SweepConfig(kind=SweepKind.PN_CHECK,
                            parameters={**params, "C": fit - 1e-6}))
    assert below.summary["violations"] >= 1


def test_fit_constant_excludes_predicted_directions():
    res = run(EDSGCD_37A1)
    fit = res.summary["fitted_constant"]
    worst_plain = max(r.lhs - 0.2 * r.hA for r in res.records)
    worst_off_diagonal = max(r.lhs - 0.2 * r.hA
                             for r in res.records if not r.exceptional)
    assert math.isclose(fit, worst_off_diagonal, rel_tol=1e-12)
    assert fit < worst_plain     # the diagonal really does dominate


def test_fit_constant_kind_and_emptiness_errors():
    # the kinds with an hA column get the fit keys, and no other kind does
    fitted = {kind for kind in SweepKind
              if "fitted_constant" in run(SweepConfig(kind, TINY[kind])).summary}
    assert fitted == {SweepKind.BCZ, SweepKind.EDS_GCD, SweepKind.PN_CHECK,
                      SweepKind.MIXED_CHECK, SweepKind.ABELIAN_GROWTH}
    only_diag = run(SweepConfig(kind=SweepKind.EDS_GCD,
                                parameters={"curve": [0, 0, 1, -1, 0], "p": [0, 0],
                                            "m_max": 1, "n_max": 1, "eps": 0.2}))
    assert only_diag.records[0].exceptional
    assert only_diag.summary["fitted_constant"] is None


def test_detect_exceptional_flags_the_diagonal():
    res = run(EDSGCD_37A1)
    assert res.summary["violations"] == EDSGCD_37A1_EPS02_VIOLATIONS
    viol = [r for r in res.records if r.holds is False]
    assert len(viol) == EDSGCD_37A1_EPS02_VIOLATIONS
    # every violating (m, n) has the reduced direction (1, 1), which is predicted
    assert all(r.m == r.n and r.exceptional for r in viol)
    assert res.summary["max_violating_index"] == [viol[-1].m, viol[-1].n]


def test_detect_exceptional_independent_points_stay_clean():
    res = run(EDSGCD_389A1)
    assert res.summary["violations"] == 0
    assert res.summary["max_violating_index"] is None
    assert math.isclose(res.summary["fitted_constant"], EDSGCD_389A1_FITTED,
                        rel_tol=1e-12)


@pytest.mark.parametrize("eps", [0.5, 0.3, 0.25, 0.2, 0.1, 0.05, 0.013, 0.005])
def test_eds_gcd_flags_match_the_listed_subgroups(eps):
    # each cell tests its reduced index against the disc, and the list is the
    # oracle: eps = 1/4 puts (1, 1) on its boundary and eps = 0.1 puts (1, 2)
    listed = set(exceptional_subgroups(eps))
    res = run(SweepConfig(kind=SweepKind.EDS_GCD,
                          parameters={"curve": [0, 0, 1, -1, 0], "p": [0, 0],
                                      "m_max": 12, "n_max": 12, "eps": eps}))
    grid = itertools.product(range(1, 13), repeat=2)
    assert [(r.m, r.n, r.exceptional) for r in res.records] == [
        (m, n, (m // math.gcd(m, n), n // math.gcd(m, n)) in listed) for m, n in grid]


@pytest.mark.parametrize("m_max, n_max", [(7, 12), (12, 7)])
def test_eds_gcd_without_q_computes_the_multiples_once(monkeypatch, m_max, n_max):
    calls = []
    real = experiments._denominators
    monkeypatch.setattr(experiments, "_denominators",
                        lambda c, p, n, naive=False: calls.append(n) or real(c, p, n, naive))
    params = {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": m_max,
              "n_max": n_max, "eps": 0.2}
    res = run(SweepConfig(kind=SweepKind.EDS_GCD, parameters=params))
    assert calls == [12]
    both = run(SweepConfig(kind=SweepKind.EDS_GCD, parameters={**params, "q": [0, 0]}))
    assert calls == [12, m_max, n_max]
    assert res.records == both.records


def test_detect_exceptional_lists_pn_points():
    cfg = SweepConfig(kind=SweepKind.PN_CHECK,
                      parameters={"polys": ["X1-X0", "X2-X0"], "primes": [2, 3],
                                  "bound": 6, "eps": 0.4})
    res = run(cfg)
    viol = [r.point for r in res.records if r.holds is False]
    assert viol and res.summary["violations"] == len(viol)
    assert res.summary["max_violating_index"] == [viol[-1]]


# ----------------------------------------------------------------------------
# frozen small sweeps
# ----------------------------------------------------------------------------

def test_mixed_sweep_frozen():
    cfg = SweepConfig(kind=SweepKind.MIXED_CHECK,
                      parameters={"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                                  "primes": [2, 3], "eps": 0.4, "n_max": 6,
                                  "b_bound": 30})
    s = run(cfg).summary
    assert s["cells"] == 132
    assert s["violations"] == 2
    assert math.isclose(s["fitted_constant"], MIXED_37A1_FITTED, rel_tol=1e-12)


def test_mixed_fit_feeds_back_as_C():
    # the rendered fit is a C that every row meets, and a hair below it is not
    params = {"curve": [0, 0, 1, -1, 0], "point": [0, 0], "primes": [2, 3],
              "eps": 0.4, "n_max": 6, "b_bound": 30}
    res = run(SweepConfig(kind=SweepKind.MIXED_CHECK, parameters=params))
    fit = json.loads(render_json(res))["summary"]["fitted_constant"]
    assert fit == float(format_real(MIXED_37A1_FITTED))
    at_fit = run(SweepConfig(kind=SweepKind.MIXED_CHECK, parameters={**params, "C": fit}))
    assert at_fit.summary["violations"] == 0
    below = run(SweepConfig(kind=SweepKind.MIXED_CHECK,
                            parameters={**params, "C": fit * (1 - 1e-6)}))
    assert below.summary["violations"] >= 1


def test_abelian_sweep_frozen():
    cfg = SweepConfig(kind=SweepKind.ABELIAN_GROWTH,
                      parameters={"curve": [0, 1, 1, -2, 0], "p": [0, 0],
                                  "q": [1, 0], "n_max": 10, "eps": 0.3,
                                  "independence_asserted": True})
    s = run(cfg).summary
    assert s["violations"] == 0
    assert math.isclose(s["fitted_constant"], ABELIAN_389A1_FITTED, rel_tol=1e-12)


# ----------------------------------------------------------------------------
# error handling
# ----------------------------------------------------------------------------

def _appended(kind: SweepKind, prefix: list, fn, *args) -> list:
    """The rows by which ``fn(*args, out)`` extends ``out``, the columns of
    the ``kind`` rows ``prefix``: ``fn`` returns nothing, keeps the columns
    one list each and as long as each other, and leaves the prefix as it was."""
    out = _columns(kind, prefix)
    assert fn(*args, out) is None
    assert type(out) is tuple and {type(col) for col in out} == {list}
    assert len(out) == len(experiments.SPECS[kind].columns) and len(set(map(len, out))) == 1
    rows = SweepResult(SweepConfig(kind, {}), out, {}).records
    assert rows[:len(prefix)] == prefix
    return rows[len(prefix):]


# Each kind's row of one cell by the library's per-cell routes, as
# ``oracle(p, ctx, *key)`` on the checked parameters ``p`` and the context
# ``prepare`` gives of them: the slow routes the range kernels are checked
# against.  The contexts hold no S; the oracles that need it take it from p

def _oracle_bcz(p: dict, ctx: tuple, n: int) -> tuple:
    a, b, eps, C = ctx
    g = gcd_pair(a, b, n)
    return experiments._BCZRow(n, g, *bound(math.log(g), n * LN2, eps, C))


def _oracle_cz(p: dict, ctx: tuple, a: int, b: int) -> tuple:
    v = cz_classify(a, b, PrimeSet(p["primes"]), p["eps"])
    return experiments._CZRow(a, b, v.kind, v.m, v.n, v.gcd, v.lhs, v.rhs, v.holds)


def _oracle_ar(p: dict, ctx: tuple, n: int) -> tuple:
    a, b, base = ctx
    g = gcd_pair(a, b, n)
    return experiments._ARRow(n, g, base, g == base)


def _oracle_eds_gcd(p: dict, ctx: tuple, m: int, n: int) -> tuple:
    mp, nq, disc, eps, C = ctx
    (d_m, h_m), (d_n, h_n) = mp[m - 1], nq[n - 1]
    g, k = math.gcd(m, n), math.gcd(d_m, d_n)
    return experiments._EDSGCDRow(m, n, d_m, d_n, k, *bound(math.log(k), h_m + h_n, eps, C),
                                  (m // g) ** 2 + (n // g) ** 2 <= disc)


def _oracle_pn(p: dict, ctx: tuple, point: str) -> tuple:
    system, S, vp = ctx
    coords = PnPoint(tuple(int(t) for t in point.split(":")))
    return experiments._PNRow(point, *check_pn(coords, system, S, vp))


def _oracle_mixed(p: dict, ctx: tuple, n: int, b: int) -> tuple:
    (dq, eps, C), S = ctx, PrimeSet(p["primes"])
    return experiments._MixedRow(n, b, dq[n - 1], *check_mixed(dq[n - 1], b, S, eps, C))


def _oracle_siegel(p: dict, ctx: tuple, n: int) -> tuple:
    n_min, dn = ctx
    d, h = dn[n - n_min]
    return experiments._SiegelRow(n, d, h, 0.0 if d == 1 else 2.0 * math.log(d) / h)


def _oracle_abelian(p: dict, ctx: tuple, n: int) -> tuple:
    dp, dq, eps, C = ctx
    g = math.gcd(dp[n - 1], dq[n - 1])
    return experiments._AbelianRow(n, dp[n - 1], dq[n - 1], g,
                                   *bound(math.log(g), float(n ** 2), eps, C))


ORACLES = {SweepKind.BCZ: _oracle_bcz, SweepKind.CZ_TRICHOTOMY: _oracle_cz,
           SweepKind.AR_RETURNS: _oracle_ar, SweepKind.EDS_GCD: _oracle_eds_gcd,
           SweepKind.PN_CHECK: _oracle_pn, SweepKind.MIXED_CHECK: _oracle_mixed,
           SweepKind.SIEGEL: _oracle_siegel, SweepKind.ABELIAN_GROWTH: _oracle_abelian}


def test_eval_cell_tags_failures_with_index():
    # a context whose bound overflows a float from n = 2 on: cell 2 of the
    # grid is n = 3, and of the whole grid only n = 1 holds a row
    ctx, axes = (2, 3, sys.float_info.max, 0.0), (range(1, 5),)
    rows = _appended(SweepKind.BCZ, [], experiments._eval, SweepKind.BCZ, ctx, axes, range(2, 3))
    assert len(rows) == 1
    assert rows[0].n == 3
    assert rows[0].error == "OverflowError: the bound overflows a float: rhs = inf"
    rows = _appended(SweepKind.BCZ, [], experiments._eval, SweepKind.BCZ, ctx, axes, range(4))
    assert [r.error is None for r in rows] == [True, False, False, False]
    # a context that breaks the kernel with a TypeError is a fault, not a row
    with pytest.raises(TypeError):
        experiments._eval(SweepKind.BCZ, (2, 3, "bad", 0.0), axes, range(2, 3),
                          _columns(SweepKind.BCZ, []))
    # two axes are walked row-major: cell 5 of a 3x4 grid is key (2, 20); C = -1
    # fails every row, in the kernel's log(C)
    ctx = ([1, 1, 1], 0.5, -1.0)
    axes = (range(1, 4), [10, 20, 30, 40])
    before = [experiments._MixedRow(2, 10, error="E: row 4")]
    rows = _appended(SweepKind.MIXED_CHECK, before, experiments._eval, SweepKind.MIXED_CHECK,
                     ctx, axes, range(5, 6))
    assert [k for k, v in rows[0]._asdict().items() if v is not None] == ["n", "b", "error"]
    assert (rows[0].n, rows[0].b) == (2, 20)
    assert rows[0].error == "ValueError: math domain error"


TINY = {
    SweepKind.BCZ: {"a": 2, "b": 3, "eps": 0.5, "n_max": 2},
    SweepKind.CZ_TRICHOTOMY: {"primes": [2], "bound": 4, "eps": 0.5},
    SweepKind.AR_RETURNS: {"a": 2, "b": 3, "n_max": 2},
    SweepKind.EDS_GCD: {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": 2,
                        "n_max": 2, "eps": 0.2},
    SweepKind.PN_CHECK: {"polys": ["X1-X0", "X2-X0"], "primes": [2], "bound": 2,
                         "eps": 0.5},
    SweepKind.MIXED_CHECK: {"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                            "primes": [3], "eps": 0.5, "n_max": 2, "b_bound": 10},
    SweepKind.SIEGEL: {"curve": [0, 0, 1, -1, 0], "point": [0, 0], "n_max": 2},
    SweepKind.ABELIAN_GROWTH: {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
                               "n_max": 2, "eps": 0.3,
                               "independence_asserted": True},
}


def test_prepares_read_the_naive_height_bit_for_bit():
    # EDS_GCD and SIEGEL take ln max(|A|, D^2) of each multiple directly; it
    # is the float math.log of that integer, without building a LogReal
    c389, c2 = Curve(0, 1, 1, -2, 0), Curve(0, 0, 0, 0, -2)
    params = {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
              "m_max": 30, "n_max": 25, "eps": 0.3}
    (mp, nq, *_), _ = experiments.SPECS[SweepKind.EDS_GCD].prepare(
        experiments._checked(SweepKind.EDS_GCD, params), 0)
    assert mp == [(d, math.log(max(abs(a), d * d)))
                  for a, d in multiples(c389, Point(0, 0), 30)]
    assert nq == [(d, math.log(max(abs(a), d * d)))
                  for a, d in multiples(c389, Point(1, 0), 25)]
    # SIEGEL also at bad reduction (x^3 + 17 at (-2, 3), gcd(W_2, W_3) = 6) and
    # at a non-integral point, 2(3, 5) = (129/100, -383/1000)
    for c, point, n_min, n_max in [(c2, (3, 5), 3, 60), (Curve(0, 0, 0, 0, 17), (-2, 3), 1, 80),
                                   (c2, ("129/100", "-383/1000"), 1, 40)]:
        params = {"curve": [0, 0, 0, c.a4, c.a6], "point": list(point),
                  "n_min": n_min, "n_max": n_max}
        (_, dn), _ = experiments.SPECS[SweepKind.SIEGEL].prepare(
            experiments._checked(SweepKind.SIEGEL, params), 0)
        assert dn == [(d, math.log(max(abs(a), d * d)))
                      for a, d in multiples(c, Point(*map(Fraction, point)), n_max)[n_min - 1:]]
    # MIXED_CHECK and ABELIAN_GROWTH read the denominators eds() gives
    params = {"curve": [0, 0, 0, 0, 17], "point": [-2, 3], "primes": [2, 3],
              "eps": 0.5, "n_max": 40, "b_bound": 10}
    (dq, *_), _ = experiments.SPECS[SweepKind.MIXED_CHECK].prepare(
        experiments._checked(SweepKind.MIXED_CHECK, params), 0)
    assert tuple(dq) == eds(Curve(0, 0, 0, 0, 17), Point(-2, 3), 40)
    params = {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0], "n_max": 30,
              "eps": 0.3, "independence_asserted": True}
    (dp, dq, *_), _ = experiments.SPECS[SweepKind.ABELIAN_GROWTH].prepare(
        experiments._checked(SweepKind.ABELIAN_GROWTH, params), 0)
    assert (tuple(dp), tuple(dq)) == (eds(c389, Point(0, 0), 30), eds(c389, Point(1, 0), 30))


@pytest.mark.parametrize("kind", list(SweepKind))
def test_cells_carry_their_row_index(kind):
    # error rows are tagged from the grid key, so each row's index must be it,
    # also on the one-cell runs that _eval retries a failed run by
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(experiments._checked(kind, TINY[kind]), 0)
    keys = list(itertools.product(*axes))
    assert keys and len(axes) == len(spec.index)
    for i, key in enumerate(keys):
        [row] = _appended(kind, [], spec.rows, ctx, axes, range(i, i + 1))
        assert type(row) is spec.Row and row.error is None
        assert dict(zip(spec.index, key)) == {k: getattr(row, k) for k in spec.index}


def _kernel_failures(monkeypatch, kind: SweepKind) -> list[range]:
    """The runs on which ``kind``'s kernel raises, in the order it is called."""
    spec = experiments.SPECS[kind]
    failed = []

    def kernel(ctx, axes, cells, out):
        try:
            return spec.rows(ctx, axes, cells, out)
        except Exception:
            failed.append(cells)
            raise

    monkeypatch.setitem(experiments.SPECS, kind, spec._replace(rows=kernel))
    return failed


# grids of the kinds with a range kernel, and of SIEGEL and ABELIAN_GROWTH,
# which have none, each long enough for head runs of 64 cells; CZ's rows are
# 34 units long.  EDS_GCD without q reads its gcds off strong divisibility,
# also at bad reduction (x^3 + 17 at (-2, 3), where gcd(W_2, W_3) = 6); with
# q it takes one gcd per cell
C37, C389, C17 = [0, 0, 1, -1, 0], [0, 1, 1, -2, 0], [0, 0, 0, 0, 17]
KERNEL_GRIDS = {
    "BCZ": (SweepKind.BCZ, {"a": 3, "b": 7, "eps": 0.3, "n_max": 320, "C": 0.5}),
    "AR_RETURNS": (SweepKind.AR_RETURNS, {"a": 2, "b": 3, "n_max": 320}),
    "CZ_TRICHOTOMY": (SweepKind.CZ_TRICHOTOMY,
                      {"primes": [2, 3, 5], "bound": 30, "eps": 0.05}),
    **{f"EDS_GCD-{name}": (SweepKind.EDS_GCD, {"curve": c, "m_max": 18, "n_max": 20,
                                               "eps": 0.15, "C": 0.25, **pq})
       for name, c, pq in [("37a1", C37, {"p": [0, 0]}), ("389a1", C389, {"p": [1, 0]}),
                           ("389a1-q", C389, {"p": [0, 0], "q": [1, 0]}),
                           ("x3+17", C17, {"p": [-2, 3]}),
                           ("x3+17-q", C17, {"p": [-2, 3], "q": [4, 9]})]},
    "SIEGEL": (SweepKind.SIEGEL, {"curve": C37, "point": [0, 0], "n_min": 3, "n_max": 310}),
    "MIXED_CHECK": (SweepKind.MIXED_CHECK, {"curve": C389, "point": [0, 0], "primes": [2, 3],
                                            "eps": 0.3, "n_max": 16, "b_bound": 32}),
    "ABELIAN_GROWTH": (SweepKind.ABELIAN_GROWTH,
                       {"curve": C37, "p": [0, 0], "q": [1, 0], "n_max": 310, "eps": 0.3,
                        "independence_asserted": True}),
    "PN_CHECK": (SweepKind.PN_CHECK, {"polys": ["X1-X0", "X2-X0"], "primes": [2, 3],
                                      "bound": 5, "eps": 0.5}),
}
# (index, value) of the context entry that breaks every cell of a kernel with
# an ArithmeticError or a ValueError: an infinite C overflows the bound, a
# zero a (AR) a negative shift, zero |x - 1|s (CZ) and zero denominators
# (SIEGEL) log 0, and a negative C (MIXED_CHECK) its log
BREAK_CTX = {SweepKind.BCZ: (3, math.inf), SweepKind.AR_RETURNS: (0, 0),
             SweepKind.CZ_TRICHOTOMY: (3, [0] * 2000), SweepKind.EDS_GCD: (4, math.inf),
             SweepKind.PN_CHECK: (2, VojtaParams(0.5)._replace(C=math.inf)),
             SweepKind.SIEGEL: (1, [(0, 1.0)] * 2000), SweepKind.MIXED_CHECK: (2, -1.0),
             SweepKind.ABELIAN_GROWTH: (3, math.inf)}


def _runs(total: int, width: int) -> list[range]:
    """Runs as the runner makes them: the head's doubling steps from n = 1,
    held at 64 cells as runs of dear cells are held, a rest in 16 chunks,
    the whole grid, runs across a row end of ``width`` cells, and empty
    runs."""
    head, start, step = [], 0, 1
    while start < total:
        head.append(range(start, min(start + step, total)))
        start, step = head[-1].stop, min(2 * step, 64)
    rest = range(7, total)
    size = -(-len(rest) // 16)
    chunks = [rest[i:i + size] for i in range(0, len(rest), size)]
    across = [r for r in (range(width - 3, width + 5), range(2 * width - 1, 3 * width + 1))
              if r.stop <= total]
    return [*head, *chunks, range(total), *across, range(5, 5), range(total, total)]


def test_a_kind_maps_a_per_cell_function_only_where_no_work_hoists():
    mapped = {kind for kind, spec in experiments.SPECS.items()
              if spec.rows.__qualname__.startswith("_map.")}
    assert mapped == {SweepKind.PN_CHECK, SweepKind.SIEGEL, SweepKind.ABELIAN_GROWTH}


def _broken(kind: SweepKind, ctx: tuple) -> tuple:
    """``ctx`` with its ``BREAK_CTX`` entry set."""
    at, value = BREAK_CTX[kind]
    return (*ctx[:at], value, *ctx[at + 1:])


@pytest.mark.parametrize("name", list(KERNEL_GRIDS))
def test_kernel_rows_match_the_map_of_row(name):
    # each run twice: after no rows, as in a pool chunk, and after the rows of
    # every cell before it, as in the parent; _eval, and the kernel, against
    # the map of the kind's oracle
    kind, params = KERNEL_GRIDS[name]
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(p := experiments._checked(kind, params), 0)
    keys = list(itertools.product(*axes))
    runs = _runs(len(keys), len(axes[-1]))
    assert len(keys) > 300 and max(map(len, runs)) == len(keys)
    rows = [ORACLES[kind](p, ctx, *key) for key in keys]
    for cells in runs:
        want = rows[cells.start:cells.stop]
        for prefix in ([], rows[:cells.start]):
            for fn, *args in ((experiments._eval, kind), (spec.rows,)):
                got = _appended(kind, prefix, fn, *args, ctx, axes, cells)
                assert got == want and {type(r) for r in got} <= {spec.Row}
    # a context that breaks every cell: the kernel raises on each run, also
    # after error rows it must not copy, and _eval tags each cell of the run
    # as the kernel's one-cell run fails on it
    broken = _broken(kind, ctx)
    errors = []
    for i, key in enumerate(keys):
        with pytest.raises((ArithmeticError, ValueError)) as exc:
            spec.rows(broken, axes, range(i, i + 1), _columns(kind, []))
        errors.append(spec.Row(*key, error=f"{type(exc.value).__name__}: {exc.value}"))
    for cells in runs:
        for prefix in ([], errors[:cells.start]):
            if cells:
                with pytest.raises((ArithmeticError, ValueError)):
                    spec.rows(broken, axes, cells, _columns(kind, prefix))
            assert (_appended(kind, prefix, experiments._eval, kind, broken, axes, cells)
                    == errors[cells.start:cells.stop])


@pytest.mark.parametrize("name", list(KERNEL_GRIDS))
def test_one_cell_kernel_runs_match_the_oracle(name):
    # the route by which _eval retries a run whose kernel raised: the kernel
    # on range(i, i + 1), after no rows and after every row before it
    kind, params = KERNEL_GRIDS[name]
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(p := experiments._checked(kind, params), 0)
    rows = [ORACLES[kind](p, ctx, *key) for key in itertools.product(*axes)]
    for i, want in enumerate(rows):
        for prefix in ([], rows[:i]):
            assert _appended(kind, prefix, spec.rows, ctx, axes, range(i, i + 1)) == [want]


FORK_ONLY = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="pool workers must inherit the patched kernel")


def _oracle_columns(kind: SweepKind, params: dict, bad: set = frozenset()) -> tuple:
    """The columns of the map of ``kind``'s oracle over the grid of
    ``params``, but for an error row on each cell of ``bad``, which the
    kernel fails alone under the ``BREAK_CTX`` context."""
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(p := experiments._checked(kind, params), 0)
    rows = []
    for i, key in enumerate(itertools.product(*axes)):
        if i in bad:
            with pytest.raises((ArithmeticError, ValueError)) as exc:
                spec.rows(_broken(kind, ctx), axes, range(i, i + 1), _columns(kind, []))
            rows.append(spec.Row(*key, error=f"{type(exc.value).__name__}: {exc.value}"))
        else:
            rows.append(ORACLES[kind](p, ctx, *key))
    return _columns(kind, rows)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", list(KERNEL_GRIDS))
def test_run_columns_are_the_transposed_oracle_rows(name, jobs, forced_pool):
    # run() through the head and, at two jobs, 16 pool chunks, each of
    # which returns its columns
    kind, params = KERNEL_GRIDS[name]
    res = run(SweepConfig(kind=kind, parameters=params), jobs=jobs)
    assert res.columns == _oracle_columns(kind, params)
    assert [len(pool.chunks) for pool in forced_pool] == [16] * (jobs - 1)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
@pytest.mark.parametrize("name", list(KERNEL_GRIDS))
def test_run_columns_with_error_rows_across_chunks(name, jobs, forced_pool, monkeypatch):
    # the cells (i, j) with i + j = 0 mod 5 (on one axis, n = 0 mod 5) fail
    # under the BREAK_CTX context, in the head and in every chunk; on CZ the
    # set is symmetric, so no cell copies an error row
    kind, params = KERNEL_GRIDS[name]
    spec = experiments.SPECS[kind]
    _, axes = spec.prepare(experiments._checked(kind, params), 0)
    total, L = math.prod(map(len, axes)), len(axes[-1])
    bad = {k for k in range(total) if (k // L + k % L) % 5 == 0}

    def breaking(ctx, axes, cells, out):
        return spec.rows(_broken(kind, ctx) if bad.intersection(cells) else ctx, axes, cells, out)

    want = _oracle_columns(kind, params, bad)
    monkeypatch.setitem(experiments.SPECS, kind, spec._replace(rows=breaking))
    res = run(SweepConfig(kind=kind, parameters={**params, "error_budget": len(bad)}), jobs=jobs)
    assert res.columns == want and res.summary["error_rows"] == len(bad)
    if jobs > 1:
        [pool] = forced_pool
        assert all(bad.intersection(chunk) for chunk in pool.chunks)


@pytest.mark.parametrize("core", ["_cz_cells", "_trichotomy"])
@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
def test_run_columns_with_an_injected_cz_fault(core, jobs, forced_pool, monkeypatch):
    # a fault of the column core on {6, -4}, at cells 95 and 158, or of the
    # per-pair core on {4, 8}, at cells 119 and 203: units on the root 2, whose
    # cells the column core has already added when the per-pair core raises
    pair, errors = {6, -4}, dict(zip((95, 158), CZ30_ERRORS))
    if core == "_cz_cells":
        _inject_cz_fault(monkeypatch)
    else:
        pair, errors = {4, 8}, {119: experiments._CZRow(4, 8, error="ArithmeticError: injected"),
                                203: experiments._CZRow(8, 4, error="ArithmeticError: injected")}
        trichotomy = experiments._trichotomy

        def flaky(ua, ub, eps):
            if {ua.x, ub.x} == pair:
                raise ArithmeticError("injected")
            return trichotomy(ua, ub, eps)

        monkeypatch.setattr(experiments, "_trichotomy", flaky)
    want = _oracle_columns(CZ30_FAULTY.kind, {**CZ30_FAULTY.parameters})
    for i, row in errors.items():
        assert {want[0][i], want[1][i]} == pair
        for col, v in zip(want, row):
            col[i] = v
    assert run(CZ30_FAULTY, jobs=jobs).columns == want
    assert len(forced_pool) == jobs - 1


def test_cz_head_runs_then_empty_chunks_give_the_whole_grid():
    # random CZ grids, each cut at random into head runs that extend one set
    # of columns, as the parent's do, then chunks that each start from no
    # columns, as a pool worker's do, joined: the columns of one run
    rng, kind = random.Random(38), SweepKind.CZ_TRICHOTOMY
    spec = experiments.SPECS[kind]
    for _ in range(60):
        params = {"primes": rng.sample([2, 3, 5, 7], rng.randint(1, 3)),
                  "bound": rng.randint(2, 120), "eps": rng.choice([0.05, 0.25, 0.5, 2.0])}
        ctx, axes = spec.prepare(experiments._checked(kind, params), 0)
        total = len(axes[0]) ** 2
        whole = _columns(kind, [])
        experiments._eval(kind, ctx, axes, range(total), whole)
        cuts = sorted(rng.sample(range(1, total), min(max(total - 1, 0), rng.randint(0, 12))))
        bounds = [0, *cuts, total]
        runs = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        head = rng.randint(0, len(runs))
        got = _columns(kind, [])
        for cells in runs[:head]:
            spec.rows(ctx, axes, cells, got)
        for cells in runs[head:]:
            spec.rows(ctx, axes, cells, chunk := _columns(kind, []))
            for col, part in zip(got, chunk):
                col += part
        assert got == whole, params


# BCZ and AR grids whose power of two 2**k, k in 1..3, is a or b; the route
# through mulgrp._gcd_mersenne is taken when 2**k is the smaller base
MERSENNE_GRIDS = [
    (SweepKind.BCZ, {"a": 3, "b": 2, "eps": 0.3, "n_max": 200, "C": 0.5}, True),
    (SweepKind.AR_RETURNS, {"a": 4, "b": 3, "n_max": 200}, False),
    (SweepKind.AR_RETURNS, {"a": 2, "b": 3, "n_max": 200}, True),
    (SweepKind.AR_RETURNS, {"a": 2, "b": 7, "n_max": 200}, True),
    (SweepKind.AR_RETURNS, {"a": 4, "b": 7, "n_max": 200}, True),
    (SweepKind.BCZ, {"a": 11, "b": 8, "eps": 0.3, "n_max": 200}, True),
]


@pytest.mark.parametrize("e0", [64, None], ids=["E0=64", "E0"])
@pytest.mark.parametrize("kind, params, routed", MERSENNE_GRIDS,
                         ids=[f"{k.value}-{p['a']}-{p['b']}" for k, p, _ in MERSENNE_GRIDS])
def test_mersenne_kernels_match_the_map_of_row(kind, params, routed, e0, monkeypatch):
    spec = experiments.SPECS[kind]
    if e0 is None:
        # the real cut-off, on a grid that reaches 64 bits past it
        e0 = mulgrp._E0
        k = min(params["a"], params["b"]).bit_length() - 1
        params = {**params, "n_max": (e0 + 64) // k}
    monkeypatch.setattr(mulgrp, "_E0", e0)
    es, helper = [], experiments._gcd_mersenne
    monkeypatch.setattr(experiments, "_gcd_mersenne",
                        lambda e, y: es.append(e) or helper(e, y))
    ctx, axes = spec.prepare(p := experiments._checked(kind, params), 0)
    keys = list(itertools.product(*axes))
    for cells in _runs(len(keys), len(axes[-1])):
        want = [ORACLES[kind](p, ctx, *key) for key in keys[cells.start:cells.stop]]
        assert _appended(kind, [], spec.rows, ctx, axes, cells) == want
    # the routed grids cross the cut-off; the others never take the route
    assert (min(es) < e0 <= max(es)) if routed else es == []


def _count_cz_cells(monkeypatch) -> list[int]:
    """The number of cells of each call of the CZ kernel's column core."""
    calls, core = [], experiments._cz_cells
    monkeypatch.setattr(experiments, "_cz_cells", lambda ctx, i, lo, hi, out:
                        calls.append(hi - lo) or core(ctx, i, lo, hi, out))
    return calls


# CZ grids whose runs the mirror kernel builds: a cell (i, j) below the
# diagonal copies the row of (j, i) when that row is already written
MIRROR_GRIDS = [{"primes": primes, "bound": bound, "eps": eps}
                for primes, bound in (([2, 3], 40), ([2, 5], 130), ([2, 3, 5], 30))
                for eps in (0.25, 0.05)]


@pytest.mark.parametrize("params", MIRROR_GRIDS,
                         ids=[f"{p['primes']}-{p['eps']}" for p in MIRROR_GRIDS])
def test_cz_mirror_kernel_matches_the_map_of_row(params, monkeypatch):
    kind = SweepKind.CZ_TRICHOTOMY
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(p := experiments._checked(kind, params), 0)
    keys = list(itertools.product(*axes))
    rows = [_oracle_cz(p, ctx, *key) for key in keys]
    # the grid holds pairs with alpha = -beta and pairs whose power relation
    # the sign rule doubles, e.g. (-2)^6 = 8^2 where (-2)^3 = -(8^1)
    assert any(r.alpha == -r.beta for r in rows)
    assert any(r.verdict == mulgrp.POWER_RELATION and r.m % 2 == r.n % 2 == 0
               and r.alpha ** (r.m // 2) == -r.beta ** (r.n // 2) for r in rows)
    calls = _count_cz_cells(monkeypatch)
    pairs, core = [], experiments._trichotomy
    monkeypatch.setattr(experiments, "_trichotomy",
                        lambda ua, ub, eps: pairs.append((ua.x, ub.x)) or core(ua, ub, eps))
    S = PrimeSet(p["primes"])
    L, unit = len(axes[1]), {x: mulgrp._unit(x, S) for x in axes[1]}
    for cells in _runs(len(keys), L):
        # after no rows, as in a pool chunk, and after all those before the
        # run, as in the parent
        for prefix in ([], rows[:cells.start]):
            calls.clear()
            pairs.clear()
            got = _appended(kind, prefix, spec.rows, ctx, axes, cells)
            assert got == rows[cells.start:cells.stop]
            assert {type(r) for r in got} <= {spec.Row}
            # the column core evaluates a cell (i, j) unless j < i and (j, i)
            # is written, and hands _trichotomy those of units on one root
            first = cells.start - len(prefix)
            own = [k for k in cells if k % L >= k // L or (k % L) * L + k // L < first]
            assert sum(calls) == len(own)
            assert pairs == [keys[k] for k in own
                             if unit[keys[k][0]].root == unit[keys[k][1]].root]
        # after all rows before it, only the cells on or above the diagonal
        assert len(own) == sum(k % L >= k // L for k in cells)
    # on the whole grid, once per unordered pair
    calls.clear()
    _appended(kind, [], spec.rows, ctx, axes, range(len(keys)))
    assert sum(calls) == L * (L + 1) // 2


def test_error_budget_zero_raises(monkeypatch):
    # a failure at n = 3 in the bound that the kernel calls: the kernel's run
    # raises, and so does its retry on that cell alone, which becomes the
    # error row
    def flaky(lhs, hA, eps, C):
        if hA == 3 * LN2:
            raise OverflowError("injected")
        return bound(lhs, hA, eps, C)

    monkeypatch.setattr(experiments, "bound", flaky)
    failed = _kernel_failures(monkeypatch, SweepKind.BCZ)
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 5})
    with pytest.raises(ValueError, match="error budget exceeded"):
        run(cfg)
    assert failed == [range(5), range(2, 3)]
    budgeted = SweepConfig(kind=SweepKind.BCZ,
                           parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 5,
                                       "error_budget": 1})
    res = run(budgeted)
    assert res.summary["error_rows"] == 1
    bad = [r for r in res.records if r.error]
    assert bad == [(3, None, None, None, None, None, "OverflowError: injected")]
    # the error column renders, the missing columns render empty
    line = render_csv(res).splitlines()[3]
    assert line == "3,,,,,,OverflowError: injected"


# a CZ sweep of 22 units whose cells (-4, 6) and (6, -4), 95 and 158, fail
CZ30_FAULTY = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                          parameters={"primes": [2, 3], "bound": 30, "eps": 0.25,
                                      "error_budget": 2})
CZ30_ERRORS = [experiments._CZRow(-4, 6, error="ArithmeticError: injected"),
               experiments._CZRow(6, -4, error="ArithmeticError: injected")]


def _inject_cz_fault(monkeypatch) -> None:
    """A failure on the pair {6, -4} of the CZ kernel's column core, in any
    call whose cells hold it; it is symmetric, as any failure of the
    symmetric core is."""
    cells = experiments._cz_cells

    def flaky_cells(ctx, i, lo, hi, out):
        units = ctx[1]
        if any({units[i], b} == {6, -4} for b in units[lo:hi]):
            raise ArithmeticError("injected")
        return cells(ctx, i, lo, hi, out)

    monkeypatch.setattr(experiments, "_cz_cells", flaky_cells)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched kernel")
def test_pool_error_rows_match_serial(monkeypatch, forced_pool):
    spec = experiments.SPECS[SweepKind.CZ_TRICHOTOMY]
    _inject_cz_fault(monkeypatch)
    failed = _kernel_failures(monkeypatch, SweepKind.CZ_TRICHOTOMY)
    serial = run(CZ30_FAULTY)
    # the whole grid's run, then the one-cell retries of the two failing cells
    assert failed == [range(len(serial.records)), range(95, 96), range(158, 159)]
    pooled = run(CZ30_FAULTY, jobs=2)
    assert len(forced_pool) == 1
    bad = [r for r in pooled.records if r.error]
    assert bad == CZ30_ERRORS
    assert {type(r) for r in bad} == {spec.Row}
    assert {r.error for r in bad} == {"ArithmeticError: injected"}
    assert pooled.records == serial.records
    assert {type(r) for r in serial.records} == {type(r) for r in pooled.records} == {spec.Row}
    assert render_json(pooled) == render_json(serial)


def test_head_never_copies_an_error_row(monkeypatch, pools):
    # a clock that ticks once per reading and a pool start-up far above the
    # sweep's cost: the parent runs every cell in its doubling runs, and the
    # run of (6, -4) finds the error row of (-4, 6) written by an earlier one
    monkeypatch.setattr(experiments, "perf_counter", itertools.count().__next__)
    monkeypatch.setattr(experiments, "_POOL_START_S",
                        dict.fromkeys(experiments._POOL_START_S, 10 ** 6))
    _inject_cz_fault(monkeypatch)
    serial = run(CZ30_FAULTY)
    failed = _kernel_failures(monkeypatch, SweepKind.CZ_TRICHOTOMY)
    head = run(CZ30_FAULTY, jobs=2)
    assert pools == []
    # the kernel raises on both runs and on their one-cell retries: (6, -4)
    # is evaluated, not copied
    assert [(95 in cells, 158 in cells, len(cells) == 1) for cells in failed] == [
        (True, False, False), (True, False, True), (False, True, False), (False, True, True)]
    assert [r for r in head.records if r.error] == CZ30_ERRORS
    assert head.summary == serial.summary
    assert head.records == serial.records
    assert render_json(head) == render_json(serial)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched kernel"))])
def test_a_kernel_fault_raises_out_of_run(monkeypatch, forced_pool, jobs):
    # a kernel that raises on a run where no cell fails is at fault itself,
    # and its exception leaves run() instead of hiding behind the rows of
    # row; at two jobs the head's first cell passes and the pool's chunks raise
    spec = experiments.SPECS[SweepKind.BCZ]

    def stale(ctx, axes, cells, out):
        if cells.start >= jobs - 1:
            raise NameError("name '_stale' is not defined")
        return spec.rows(ctx, axes, cells, out)

    monkeypatch.setitem(experiments.SPECS, SweepKind.BCZ, spec._replace(rows=stale))
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 40})
    with pytest.raises(NameError, match="'_stale' is not defined"):
        run(cfg, jobs)
    assert len(forced_pool) == jobs - 1


@pytest.mark.parametrize("whole, alone", [(TypeError, None), (ValueError, TypeError)],
                         ids=["whole-run", "one-cell-retry"])
@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched kernel"))])
def test_a_type_error_fails_run_under_any_error_budget(monkeypatch, forced_pool, jobs,
                                                      whole, alone):
    # a TypeError is a fault of the program, not of a cell: raised on a whole
    # run, it is not retried, not even where one-cell runs would pass, and
    # raised on the one-cell runs that retry a run that failed a cell, it is
    # not an error row; it leaves run() under a budget as large as the grid
    spec = experiments.SPECS[SweepKind.BCZ]

    def typo(ctx, axes, cells, out):
        if cells.start >= jobs - 1 and (fault := whole if len(cells) > 1 else alone):
            raise fault("unsupported operand type(s)")
        return spec.rows(ctx, axes, cells, out)

    monkeypatch.setitem(experiments.SPECS, SweepKind.BCZ, spec._replace(rows=typo))
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 40,
                                                     "error_budget": 40})
    with pytest.raises(TypeError, match="unsupported operand"):
        run(cfg, jobs)
    assert len(forced_pool) == jobs - 1


def test_cz_head_makes_the_core_calls_of_one_job(monkeypatch, pools):
    # a clock that stands still, so that the sweep is too cheap to pool: the
    # parent's doubling runs evaluate L(L+1)/2 cells on L units by column, as
    # one run does, and copy the rest
    monkeypatch.setattr(experiments, "perf_counter", lambda: 0.0)
    calls = _count_cz_cells(monkeypatch)
    cfg = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                      parameters={"primes": [2, 3], "bound": 110, "eps": 0.25})
    counts, results = [], []
    for jobs in (1, 2):
        calls.clear()
        results.append(run(cfg, jobs=jobs))
        counts.append(sum(calls))
    assert pools == []
    L = 40
    assert len(results[0].records) == L * L
    assert counts == [L * (L + 1) // 2] * 2
    assert render_json(results[1]) == render_json(results[0])


def test_cz_head_too_cheap_to_pool_doubles_its_runs(monkeypatch, pools):
    # a clock that stands still: every run is cheap next to a pool, so each
    # doubles the next, and the 1600 cells take 11 runs (1, 2, ..., 1024),
    # not the 31 of runs capped at 64 cells
    monkeypatch.setattr(experiments, "perf_counter", lambda: 0.0)
    runs, evaluate = [], experiments._eval
    monkeypatch.setattr(experiments, "_eval", lambda kind, ctx, axes, cells, out:
                        runs.append(cells) or evaluate(kind, ctx, axes, cells, out))
    cfg = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                      parameters={"primes": [2, 3], "bound": 110, "eps": 0.25})
    res = run(cfg, jobs=2)
    assert pools == [] and len(res.records) == 1600
    assert [len(cells) for cells in runs] == [2 ** k for k in range(10)] + [577]
    assert render_json(res) == render_json(run(cfg))


def test_head_runs_follow_the_time_of_the_last_run(monkeypatch, pools):
    # a clock that advances by the cost of the cells evaluated: 1/256 of the
    # pool's start-up per cell up to n = 40, 1/32 beyond.  A run under 1/32
    # of the start-up doubles the next, one past 1/16 halves it, and the head
    # pools the rest once it has spent the start-up
    clock, runs, evaluate, serial = [0.0], [], experiments._eval, render_csv(run(BCZ300))

    def timed(kind, ctx, axes, cells, out):
        runs.append((cells, sum(1 / 256 if i < 40 else 1 / 32 for i in cells)))
        clock[0] += runs[-1][1]
        return evaluate(kind, ctx, axes, cells, out)

    monkeypatch.setattr(experiments, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(experiments, "_eval", timed)
    monkeypatch.setattr(experiments, "_POOL_START_S", dict.fromkeys(experiments._POOL_START_S, 1))
    assert render_csv(run(BCZ300, jobs=2)) == serial
    [pool] = pools
    assert pool.chunks[-1].start == runs[-1][0].stop
    assert sum(t for _, t in runs) > 1 >= sum(t for _, t in runs[:-1])
    moves = []
    for (cells, t), (after, _) in zip(runs, runs[1:]):
        want = 2 * len(cells) if t < 1 / 32 else -(-len(cells) // 2) if t > 1 / 16 else len(cells)
        assert len(after) == want
        moves.append(len(after) / len(cells))
    assert {2.0, 1.0, 0.5} <= set(moves)


def test_cheap_sweep_builds_no_pool(pools):
    # far below the cost of starting a pool, so the parent runs every cell
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={**TINY[SweepKind.BCZ], "n_max": 40})
    assert render_json(run(cfg, jobs=2)) == render_json(run(cfg))
    assert pools == []


CZ30 = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                   parameters={"primes": [2, 3], "bound": 30, "eps": 0.25})


@pytest.mark.parametrize("cfg", [BCZ300, CZ30], ids=["BCZ", "CZ"])
def test_pool_after_a_serial_head_is_byte_identical(cfg, pools, monkeypatch):
    # a clock that ticks once per reading and a pool start-up of 3 ticks: the
    # parent runs a head of several cells, then the pool takes the rest
    monkeypatch.setattr(experiments, "perf_counter", itertools.count().__next__)
    monkeypatch.setattr(experiments, "_POOL_START_S",
                        dict.fromkeys(experiments._POOL_START_S, 3))
    runs, evaluate = [], experiments._eval
    monkeypatch.setattr(experiments, "_eval", lambda kind, ctx, axes, cells, out:
                        runs.append(cells) or evaluate(kind, ctx, axes, cells, out))
    pooled = run(cfg, jobs=2)
    head_runs = list(runs)
    assert render_csv(pooled) == render_csv(run(cfg))
    assert render_json(pooled) == render_json(run(cfg))
    [pool] = pools
    head, total = pool.chunks[-1].start, len(pooled.records)
    assert 1 < head < total
    # the head's runs are contiguous and cover [0, head) in order
    assert len(head_runs) > 1
    assert [i for cells in head_runs for i in cells] == list(range(head))
    # 8 contiguous chunks per worker over the rest, highest indices first
    assert pool.max_workers == 2 and len(pool.chunks) == 16
    assert [i for c in reversed(pool.chunks) for i in c] == list(range(head, total))


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_is_byte_identical_under_fresh_interpreters(method, forced_pool,
                                                         monkeypatch):
    # workers that start from a fresh interpreter must rebuild the kind, its
    # context and its Row type from what the pool sends them
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(multiprocessing, "get_context",
                        functools.partial(multiprocessing.get_context, method))
    # PN_CHECK's workers unpickle a PolySystem, a PrimeSet and VojtaParams
    pn = SweepConfig(kind=SweepKind.PN_CHECK, parameters=TINY[SweepKind.PN_CHECK])
    for cfg in (BCZ300, CZ30, pn):
        pooled, serial = run(cfg, jobs=2), run(cfg)
        assert render_csv(pooled) == render_csv(serial)
        assert render_json(pooled) == render_json(serial)
    assert [(pool.max_workers, pool.method) for pool in forced_pool] == [(2, method)] * 3


@pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                    reason="no spawn start method on this platform")
def test_spawn_start_cost_keeps_a_100ms_sweep_serial(pools, monkeypatch):
    # about 100 ms of cells at jobs 1 here, less than a spawned pool costs to
    # start and stop
    monkeypatch.setattr(multiprocessing, "get_context",
                        functools.partial(multiprocessing.get_context, "spawn"))
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={**TINY[SweepKind.BCZ], "n_max": 3800})
    assert render_csv(run(cfg, jobs=2)) == render_csv(run(cfg))
    assert pools == []


@pytest.mark.parametrize("method, pooled", [("fork", True), ("forkserver", False),
                                            ("spawn", False)])
def test_pool_cut_off_follows_the_start_method(method, pooled, pools, monkeypatch):
    # a clock that ticks 1 ms per reading: a run that long is dear next to a
    # forked pool's 12 ms, so the head stays at one cell a run, and past 12 ms
    # its mean rate puts BCZ300's rest above twice that cost; next to a
    # spawned or forkserver pool's 0.15 s it is cheap, so the runs double and
    # the head finishes the sweep first
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(experiments, "perf_counter",
                        map(lambda tick: tick / 1000, itertools.count()).__next__)
    monkeypatch.setattr(multiprocessing, "get_context",
                        functools.partial(multiprocessing.get_context, method))
    assert render_csv(run(BCZ300, jobs=2)) == render_csv(run(BCZ300))
    assert [pool.method for pool in pools] == [method] * pooled


@pytest.mark.parametrize("affinity, jobs, n_max, workers", [
    (4, 500, 300, 4),  # capped by the usable CPUs
    (1000, 3, 300, 3),  # by jobs
    (1000, 500, 10, 9),  # by the chunks: one per cell after a head of one
    (None, 500, 300, 6),  # no affinity mask: by os.cpu_count(), here 6
    (1, 8, 300, None),  # one usable CPU: no pool at all
])
def test_pool_workers_are_capped(affinity, jobs, n_max, workers, monkeypatch):
    seen = []

    class InlinePool:
        """Records ``max_workers`` and runs the chunks in this process, so no
        worker process is ever started."""

        def __init__(self, max_workers, mp_context, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiments, "_POOL_START_S",
                        dict.fromkeys(experiments._POOL_START_S, 0.0))
    monkeypatch.setattr(experiments, "_WORKER", ())
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={**TINY[SweepKind.BCZ], "n_max": n_max})
    assert render_csv(run(cfg, jobs=jobs)) == render_csv(run(cfg))
    assert seen == ([] if workers is None else [workers])


def test_run_summarizes_once_through_the_public_summarize(forced_pool, monkeypatch):
    # a profiler wraps experiments.summarize by name; run() must call it
    calls = []

    def spy(*args):
        calls.append(args[:3])
        return summarize(*args)

    monkeypatch.setattr(experiments, "summarize", spy)
    for jobs in (1, 2):
        res = run(CZ30, jobs=jobs)
        assert calls == [(SweepKind.CZ_TRICHOTOMY, res.columns, CZ30)]
        assert res.summary == summarize(*calls.pop())
    assert len(forced_pool) == 1


def test_cold_start_loads_no_pool_or_dataclass_machinery(forced_pool):
    # a fresh interpreter (no site hooks) that imports the CLI and runs a
    # sweep at one job imports none of these; a pool imports them when it starts
    code = ("import sys, gcdheights.cli\n"
            "from gcdheights import SweepConfig, run\n"
            "run(SweepConfig('CZ_TRICHOTOMY', {'primes': [2, 3], 'bound': 30, 'eps': 0.25}))\n"
            "print(*sorted(m for m in ('concurrent.futures', 'multiprocessing',\n"
            "                          'dataclasses', 'inspect') if m in sys.modules))\n")
    src = str(pathlib.Path(experiments.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "\n"
    assert render_csv(run(CZ30, jobs=2)) == render_csv(run(CZ30))
    assert [pool.max_workers for pool in forced_pool] == [2]


# ----------------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------------

def test_format_real_is_12_significant_digits():
    assert format_real(math.log(2)) == "0.69314718056"
    assert format_real(0.5) == "0.5"
    assert format_real(1e-9) == "1e-09"
    assert len(format_real(math.pi).replace(".", "").lstrip("0")) <= 12


def test_render_json_round_trips_through_config():
    first = run(EDSGCD_389A1)
    doc = json.loads(render_json(first))
    assert doc["version"] == "0.1.0"
    cfg = SweepConfig(kind=SweepKind(doc["config"]["kind"]),
                      parameters=doc["config"]["parameters"],
                      seed=doc["config"]["seed"])
    again = run(cfg)
    assert render_json(again) == render_json(first)


def test_render_json_records_match_csv_reals():
    # the CSV route renders each real with format_real on its own
    res = run(SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                          parameters={"primes": [2, 3], "bound": 50, "eps": 0.3}))
    recs = json.loads(render_json(res))["records"]
    rows = list(csv.DictReader(io.StringIO(render_csv(res))))
    assert len(recs) == len(rows) == len(res.records)
    for rec, row in zip(recs, rows):
        for col in ("lhs", "rhs"):
            assert rec[col] == float(row[col])
    # some raw reals carry more than 12 digits, so the rounding is exercised
    assert any(raw.lhs != rec["lhs"] for raw, rec in zip(res.records, recs))


# ----------------------------------------------------------------------------
# the renderers against the dict rows and json.dumps they replaced
# ----------------------------------------------------------------------------

def _dict_rows(result: SweepResult) -> list[dict]:
    """An error row as its index and error keys, any other row as every column
    but error: the rows the runner built before rows were tuples."""
    spec = experiments.SPECS[result.config.kind]
    rows = []
    for r in result.records:
        d = r._asdict()
        keys = (*spec.index, "error") if r.error is not None else spec.columns[:-1]
        rows.append({k: d[k] for k in keys})
    return rows


def _format_value_oracle(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_real(v)
    return str(v)


def _csv_oracle(result: SweepResult) -> str:
    # csv.writer quotes a field holding a character of its line terminator;
    # the default "\r\n" makes it quote both, and each row is then cut back
    # to end in "\n"
    cols = experiments.SPECS[result.config.kind].columns
    buf = io.StringIO()
    w = csv.writer(buf)
    lines = []
    for row in [cols, *([_format_value_oracle(rec.get(c)) for c in cols]
                        for rec in _dict_rows(result))]:
        buf.seek(0)
        buf.truncate()
        w.writerow(row)
        lines.append(buf.getvalue()[:-2])
    return "\n".join(lines) + "\n"


def _rounded(obj):
    if isinstance(obj, float):
        return float(format_real(obj))
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _json_oracle(result: SweepResult) -> str:
    doc = {
        "version": "oracle",
        # the config echoes the inputs: its reals are exact
        "config": {"kind": result.config.kind.value,
                   "parameters": dict(result.config.parameters),
                   "seed": result.config.seed},
        "summary": _rounded(result.summary),
        "records": [_rounded(rec) for rec in _dict_rows(result)],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _assert_renders_like_oracles(result: SweepResult) -> None:
    assert render_csv(result) == _csv_oracle(result)
    assert render_json(result, version="oracle") == _json_oracle(result)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", list(SweepKind))
def test_renderers_match_oracles_on_every_kind(kind, jobs, forced_pool):
    params = {**TINY[kind], **BOUNDED.get(kind, {})}
    res = run(SweepConfig(kind=kind, parameters=params, seed=3), jobs=jobs)
    assert len(forced_pool) == (jobs > 1)
    assert res.records and {type(r) for r in res.records} == {experiments.SPECS[kind].Row}
    _assert_renders_like_oracles(res)


def test_render_json_echoes_config_reals_exactly():
    # results at 12 significant digits, the config's 17-digit reals exactly
    params = {"a": 2, "b": 3, "n_max": 30, "eps": 0.34030927323372034,
              "C": 0.8474337369372327}
    res = run(SweepConfig(kind=SweepKind.BCZ, parameters=params))
    _assert_renders_like_oracles(res)
    doc = json.loads(render_json(res))
    assert doc["config"]["parameters"] == params
    assert doc["records"][-1]["rhs"] == float(format_real(res.records[-1].rhs))
    assert doc["records"][-1]["rhs"] != res.records[-1].rhs


def test_renderers_match_oracles_on_none_columns():
    # CZ leaves m and n None off the power-relation rows
    res = run(SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                          parameters={"primes": [2, 3], "bound": 40, "eps": 0.25}))
    assert {r.m is None for r in res.records} == {True, False}
    _assert_renders_like_oracles(res)


def test_renderers_match_oracles_on_an_empty_result():
    cfg = SweepConfig(kind=SweepKind.PN_CHECK,
                      parameters={"polys": ["X1-X0", "X2-X0"], "primes": [2], "bound": 0,
                                  "eps": 0.5})
    res = run(cfg)
    assert res.records == []
    _assert_renders_like_oracles(res)
    assert json.loads(render_json(res))["records"] == []


def test_renderers_match_oracles_on_error_rows():
    spec = experiments.SPECS[SweepKind.EDS_GCD]
    cfg = SweepConfig(kind=SweepKind.EDS_GCD, parameters=TINY[SweepKind.EDS_GCD])
    records = run(cfg).records
    blank = [None] * (len(spec.columns) - 3)
    for i, message in ((0, 'ValueError: a}b,c"d\ne \u00fc'), (3, "E: },\n{")):
        records[i] = spec.Row(*records[i][:2], *blank, message)
    res = _result(cfg, records)
    assert res.summary["error_rows"] == 2
    _assert_renders_like_oracles(res)
    assert [r.get("error") for r in json.loads(render_json(res))["records"]] == \
        [r.error for r in records]


def test_renderers_match_oracles_on_csv_special_characters():
    # an error text with a comma, a quote, a carriage return or a line feed
    # is quoted as csv.writer quotes it
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={**TINY[SweepKind.BCZ], "n_max": 8})
    records = run(cfg).records
    messages = ["E: a,b", 'E: say "x"', "E: a\rb", "E: a\nb", '"', "E: ,\"\r\n", "E: plain"]
    for i, message in enumerate(messages):
        records[i] = experiments._BCZRow(records[i].n, *[None] * 5, message)
    res = _result(cfg, records)
    assert res.summary["error_rows"] == len(messages)
    _assert_renders_like_oracles(res)
    text = render_csv(res)
    assert text.split("\n")[1:3] == ['1,,,,,,"E: a,b"', '2,,,,,,"E: say ""x"""']
    back = list(csv.DictReader(io.StringIO(text, newline="")))
    assert [r["error"] for r in back[:len(messages)]] == messages
    assert [r["n"] for r in back] == [str(r.n) for r in records]


def test_render_json_rejects_an_infinite_real():
    res = run(BCZ300)
    records = [res.records[0]._replace(lhs=math.inf), *res.records[1:]]
    bad = SweepResult(res.config, _columns(SweepKind.BCZ, records), res.summary)
    with pytest.raises(ValueError):
        render_json(bad)
    with pytest.raises(ValueError):
        _json_oracle(bad)


# ----------------------------------------------------------------------------
# render_json's per-render memo of int and real texts, against the oracles
# ----------------------------------------------------------------------------

def _bcz_result(values: list[dict]) -> SweepResult:
    """A BCZ result whose first rows take the column values in ``values``."""
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={**TINY[SweepKind.BCZ], "n_max": len(values) + 2})
    records = run(cfg).records
    records[:len(values)] = [r._replace(**v) for r, v in zip(records, values)]
    return _result(cfg, records)


def test_render_json_memo_keeps_signed_zeros_apart():
    # 0.0 and -0.0 are one dict key but two texts, in either order
    zeros = [0.0, -0.0, -0.0, 0.0, 0.0, -0.0]
    res = _bcz_result([{"lhs": z, "rhs": -z, "hA": 1.5} for z in zeros])
    _assert_renders_like_oracles(res)
    recs = json.loads(render_json(res))["records"]
    assert [math.copysign(1, r["lhs"]) for r in recs[:6]] == \
        [math.copysign(1, z) for z in zeros]
    assert [math.copysign(1, r["rhs"]) for r in recs[:6]] == \
        [-math.copysign(1, z) for z in zeros]


def test_render_json_memo_keeps_bools_apart_from_ints():
    # True == 1 and hash(True) == hash(1): each must keep its own text
    res = _bcz_result([{"gcd": 1, "holds": True}, {"gcd": True, "holds": 1},
                       {"gcd": 1, "holds": True}, {"gcd": 0, "holds": False},
                       {"gcd": False, "holds": 0}])
    _assert_renders_like_oracles(res)
    recs = json.loads(render_json(res))["records"]
    assert [(type(r["gcd"]), type(r["holds"])) for r in recs[:5]] == \
        [(int, bool), (bool, int), (int, bool), (int, bool), (bool, int)]


def test_render_json_memo_renders_repeated_huge_ints_exactly(monkeypatch):
    big = 7 ** 6000  # 5071 digits, past str()'s 4300-digit limit
    res = _bcz_result([{"gcd": g} for g in (big, 3, big, -big, 3, big)])
    text = render_json(res, version="oracle")
    recs = json.loads(text, parse_int=Decimal)["records"]
    assert [int(r["gcd"]) for r in recs] == [r.gcd for r in res.records]
    # the oracle's json.dumps needs the digit limit lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert text == _json_oracle(res)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_json_rejects_nan_and_inf_in_any_row(bad):
    # first, after a repeat of a good value, and repeated: the memo stores none
    for at in ([0], [3], [1, 2]):
        res = _bcz_result([{"lhs": bad if i in at else 0.5} for i in range(4)])
        with pytest.raises(ValueError, match="Out of range float values are "
                                             "not JSON compliant: " + repr(bad)):
            render_json(res)
        with pytest.raises(ValueError):
            _json_oracle(res)


# ----------------------------------------------------------------------------
# the column encoders (memos, str() and value by value) against the oracles
# ----------------------------------------------------------------------------

def _bcz_columns(count: int = 128, **cycles) -> SweepResult:
    """A BCZ result of ``count`` rows whose named columns cycle through the
    given values: long and repetitive enough for the encoders' memos."""
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={**TINY[SweepKind.BCZ], "n_max": count})
    records = [r._replace(**{k: v[i % len(v)] for k, v in cycles.items()})
               for i, r in enumerate(run(cfg).records)]
    return _result(cfg, records)


def _assert_renders_like_oracles_unlimited(result: SweepResult) -> None:
    limit = sys.get_int_max_str_digits()  # the oracles' str() and json.dumps
    sys.set_int_max_str_digits(0)
    try:
        csv_text, json_text = _csv_oracle(result), _json_oracle(result)
    finally:
        sys.set_int_max_str_digits(limit)
    assert render_csv(result) == csv_text
    assert render_json(result, version="oracle") == json_text


def _mixed_texts(col: list) -> tuple[list[str], list]:
    """The CSV texts and the JSON values of a list of mixed types, which a
    summary may hold and a row's declared column may not: ``_texts`` by the
    types ``_json_text`` finds matches the texts value by value, and
    ``_json_text`` matches json.dumps."""
    csv_texts = list(experiments._texts(col, experiments._CSV, set(map(type, col))))
    assert csv_texts == [experiments._CSV[type(v)](v) for v in col]
    text = experiments._json_text(col)
    assert text == json.dumps(col, indent=2)
    return csv_texts, json.loads(text)


def test_column_encoders_keep_int_one_apart_from_real_one():
    # ints and reals in columns of their own, and mixed in one list
    res = _bcz_columns(gcd=[1, 1, 2], hA=[1.0, 1.0, 2.5])
    _assert_renders_like_oracles(res)
    recs = json.loads(render_json(res))["records"]
    assert [(type(r["gcd"]), type(r["hA"])) for r in recs[:3]] == [(int, float)] * 3
    texts, values = _mixed_texts([1, 1.0, 0.5, 1.0] * 32)
    assert [type(v) for v in values[:4]] == [int, float, float, float]
    assert texts[:4] == ["1", "1", "0.5", "1"]


def test_column_encoders_keep_true_apart_from_one():
    res = _bcz_columns(gcd=[1, 1, 0], holds=[True, True, False])
    _assert_renders_like_oracles(res)
    _, values = _mixed_texts([1, True, 1, 0, False] * 26)
    assert [type(v) for v in values[:5]] == [int, bool, int, int, bool]
    _, values = _mixed_texts([True, 1, True, 0, False, 1] * 22)
    assert [type(v) for v in values[:6]] == [bool, int, bool, int, bool, int]


@pytest.mark.parametrize("zeros", [[0.0, -0.0, 0.0, 0.0], [-0.0, 0.0, -0.0, 1.5],
                                   [0.0, 0.0, 2.5, 2.5], [-0.0, -0.0, 2.5, 2.5],
                                   [0.0, -2.5, 0.0, -2.5]])
def test_column_encoders_keep_signed_zeros_apart(zeros):
    res = _bcz_columns(lhs=zeros, rhs=[-z for z in zeros], hA=[0.0, 0.0, 1.5])
    _assert_renders_like_oracles(res)
    signs = [math.copysign(1, z) for z in zeros]
    recs = json.loads(render_json(res))["records"]
    assert [math.copysign(1, r["lhs"]) for r in recs[:4]] == signs
    rows = list(csv.DictReader(io.StringIO(render_csv(res))))
    assert [math.copysign(1, float(r["lhs"])) for r in rows[:4]] == signs
    assert [math.copysign(1, float(r["rhs"])) for r in rows[:4]] == [-x for x in signs]


def test_column_encoders_render_a_huge_int_among_small_ones():
    big = 7 ** 6000  # 5071 digits, past str()'s 4300-digit limit
    # a repeating column (memo) and a column of distinct ints (str() or not)
    res = _bcz_columns(gcd=[1, 2, big, 1, 2], n=[*range(1, 100), -big])
    _assert_renders_like_oracles_unlimited(res)
    rows = list(csv.reader(io.StringIO(render_csv(res))))
    assert [int(Decimal(r[1])) for r in rows[1:6]] == [1, 2, big, 1, 2]
    assert int(Decimal(rows[100][0])) == -big


def test_column_encoders_place_error_rows_between_good_rows():
    cfg = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                      parameters={"primes": [2, 3], "bound": 40, "eps": 0.25})
    records = run(cfg).records
    spec = experiments.SPECS[SweepKind.CZ_TRICHOTOMY]
    for i in (0, 1, 57, 58, 200, len(records) - 1):
        records[i] = spec.Row(*records[i][:2], *[None] * 7, f'E: {i},"\n')
    res = _result(cfg, records)
    assert res.summary["error_rows"] == 6 and len(records) >= 64
    _assert_renders_like_oracles(res)


def test_witnesses_past_the_int_str_limit_render_exactly():
    # D_200P on 5077a1 has over 19,000 digits, beyond str()'s 4300-digit limit
    res = run(SweepConfig(kind=SweepKind.SIEGEL,
                          parameters={"curve": [0, 0, 1, -7, 6], "point": [0, 2],
                                      "n_max": 200}))
    d = res.records[-1].d
    assert d > 10 ** 4300
    last = list(csv.reader(io.StringIO(render_csv(res))))[-1]
    assert int(Decimal(last[1])) == d
    recs = json.loads(render_json(res), parse_int=Decimal)["records"]
    assert int(recs[-1]["d"]) == d
    assert [int(r["d"]) for r in recs] == [r.d for r in res.records]


def test_parameters_past_the_int_str_limit_render_exactly():
    # json.dumps refuses ints past 4300 digits; the config header must not
    a = int("7" * 400) ** 11 + 2
    res = run(SweepConfig(kind=SweepKind.AR_RETURNS,
                          parameters={"a": a, "b": 3, "n_max": 2}))
    text = render_json(res)
    assert json.loads(text, parse_int=Decimal)["config"]["parameters"]["a"] == a
    small = res.config._replace(parameters={**res.config.parameters, "a": 5})
    assert text.replace(str(Decimal(a)), "5") == render_json(
        SweepResult(small, res.columns, res.summary))


def test_render_csv_header_matches_kind():
    res = run(SweepConfig(kind=SweepKind.AR_RETURNS,
                          parameters={"a": 2, "b": 3, "n_max": 4}))
    head = render_csv(res).splitlines()[0]
    assert head == "n,gcd,base_gcd,is_return,error"


# ----------------------------------------------------------------------------
# rendering in blocks, against the renderers that joined one document
# ----------------------------------------------------------------------------

def _scanned_texts(col, enc) -> list[str]:
    """``_texts`` of a column by the types a scan of its values finds."""
    return list(experiments._texts(col, enc, set(map(type, col))))


def _one_join_csv(columns, rows) -> str:
    """The CSV table as one text: every row encoded by column, joined once."""
    texts = [_scanned_texts(col, experiments._CSV) for col in zip(*rows)]
    return "\n".join([",".join(columns), *map(",".join, zip(*texts)), ""])


def _one_join_json(result: SweepResult, version: str = "oracle") -> str:
    """The JSON document as one list of parts over all records, joined once."""
    _texts, _JSON, _json_text = _scanned_texts, experiments._JSON, experiments._json_text
    records, spec, cfg = result.records, experiments.SPECS[result.config.kind], result.config
    cols, keys, errs = spec.columns, sorted(spec.columns[:-1]), (*spec.index, "error")
    columns, width, n = [*zip(*records)] or [()] * len(cols), 2 * len(keys) + 1, len(records)
    parts = [f",\n    {{\n      {json.dumps(keys[0])}: "] * (n * width)
    after = [*(f",\n      {json.dumps(k)}: " for k in keys[1:]), "\n    }"]
    for j, (k, piece) in enumerate(zip(keys, after)):
        parts[2 * j + 1::width] = _texts(columns[cols.index(k)], _JSON)
        parts[2 * j + 2::width] = [piece] * n
    for i in itertools.compress(itertools.count(), [e is not None for e in columns[-1]]):
        text = _json_text({k: getattr(records[i], k) for k in errs}, "\n    ")
        parts[i * width:(i + 1) * width] = [",\n    " + text, *[""] * (width - 1)]
    parts[:1] = [p[1:] for p in parts[:1]]
    block = {"kind": cfg.kind.value, "parameters": cfg.parameters, "seed": cfg.seed}
    return "".join(['{\n  "config": ', _json_text(block, "\n  ", experiments._ECHO),
                    ',\n  "records": [', *parts, "\n  ]" if n else "]", ',\n  "summary": ',
                    _json_text(result.summary, "\n  "), ',\n  "version": ',
                    _JSON[str](version), "\n}\n"])


def _assert_blocks_like_one_join(result: SweepResult, sizes, monkeypatch) -> None:
    """At each block size, both renderers give the one-join texts, in the
    number of blocks that size makes (one for no records)."""
    spec = experiments.SPECS[result.config.kind]
    columns, types, index = spec.columns, spec.Row.types, len(spec.index)
    want_csv, want_json = _one_join_csv(columns, result.records), _one_join_json(result)
    for size in sizes:
        monkeypatch.setattr(experiments, "_BLOCK", size)
        blocks = max(-(-len(result.records) // size), 1)
        assert len(experiments._csv_blocks(columns, result.columns, types, index)) == blocks
        assert len(experiments._json_blocks(result, "oracle")) == blocks
        assert render_csv(result) == want_csv
        assert render_json(result, version="oracle") == want_json


RENDER_GOLDENS = [
    *BOUND_GOLDENS,
    ("bcz_a2_b3_eps05_n300.csv", BCZ300.kind, BCZ300.parameters),
    ("siegel_37a1_n5_40.csv", SweepKind.SIEGEL,
     {"curve": [0, 0, 1, -1, 0], "point": [0, 0], "n_min": 5, "n_max": 40}),
    ("siegel_x3p17_m2_3_n80.csv", SweepKind.SIEGEL,
     {"curve": [0, 0, 0, 0, 17], "point": [-2, 3], "n_max": 80}),
    ("edsgcd_389a1_pq_eps02_n12.json", None, None),  # its own config block
]


@pytest.mark.parametrize("size", [1, 3, 64])
@pytest.mark.parametrize("name, kind, params", RENDER_GOLDENS,
                         ids=[g[0] for g in RENDER_GOLDENS])
def test_goldens_render_byte_identical_in_small_blocks(data_dir, name, kind, params,
                                                       size, monkeypatch):
    want = (data_dir / name).read_text()
    cfg = (SweepConfig(**json.loads(want)["config"]) if kind is None
           else SweepConfig(kind=kind, parameters=params))
    res = run(cfg)
    monkeypatch.setattr(experiments, "_BLOCK", size)
    got = render_json(res, version="0.0.0") if name.endswith(".json") else render_csv(res)
    assert got == want
    assert len(res.records) > 2 * 3  # three blocks or more at sizes 1 and 3


@pytest.mark.parametrize("size", [1, 94, 95, 96, 158, 159])
def test_error_rows_of_a_budgeted_run_split_across_blocks(size, monkeypatch):
    # the error rows at 95 and 158 fall first, last and alone in a block, and
    # the first record of a block keeps its leading comma
    _inject_cz_fault(monkeypatch)
    res = run(CZ30_FAULTY)
    assert [r for r in res.records if r.error] == CZ30_ERRORS
    assert [i for i, r in enumerate(res.records) if r.error] == [95, 158]
    _assert_blocks_like_one_join(res, [size], monkeypatch)
    recs = json.loads(render_json(res))["records"]
    assert [recs[i] for i in (95, 158)] == [
        {"alpha": -4, "beta": 6, "error": "ArithmeticError: injected"},
        {"alpha": 6, "beta": -4, "error": "ArithmeticError: injected"}]


def test_signed_zeros_in_different_blocks_keep_their_signs(monkeypatch):
    # a block of zeros goes through the memo, a block of negative zeros value
    # by value; a block across the change holds both
    res = _bcz_columns(128, lhs=[0.0] * 64 + [-0.0] * 64, rhs=[-0.0] * 64 + [0.0] * 64)
    _assert_blocks_like_one_join(res, [64, 100, 2048], monkeypatch)
    monkeypatch.setattr(experiments, "_BLOCK", 64)
    recs = json.loads(render_json(res))["records"]
    assert [math.copysign(1, r["lhs"]) for r in recs] == [1.0] * 64 + [-1.0] * 64
    assert [math.copysign(1, r["rhs"]) for r in recs] == [-1.0] * 64 + [1.0] * 64
    rows = list(csv.DictReader(io.StringIO(render_csv(res))))
    assert {r["lhs"] for r in rows[:64]} == {"0"} and {r["lhs"] for r in rows[64:]} == {"-0"}


def test_ints_past_the_str_limit_render_exactly_in_any_block(monkeypatch):
    big = 7 ** 6000  # 5071 digits, past str()'s 4300-digit limit
    # in a repeating column, and alone in a column of distinct ints, so that
    # one block may go through str() and the next may not
    res = _bcz_columns(130, gcd=[1, 2, big, 1, 2], n=[*range(1, 100), -big, *range(101, 131)])
    _assert_blocks_like_one_join(res, [64, 99, 100], monkeypatch)
    monkeypatch.setattr(experiments, "_BLOCK", 64)
    rows = list(csv.reader(io.StringIO(render_csv(res))))
    assert int(Decimal(rows[100][0])) == -big
    assert [int(Decimal(r[1])) for r in rows[1:]] == [r.gcd for r in res.records]


def test_an_empty_sweep_renders_as_one_block(monkeypatch):
    cfg = SweepConfig(kind=SweepKind.PN_CHECK,
                      parameters={"polys": ["X1-X0", "X2-X0"], "primes": [2], "bound": 0,
                                  "eps": 0.5})
    res = run(cfg)
    assert res.records == []
    _assert_blocks_like_one_join(res, [1, 2048], monkeypatch)
    spec = experiments.SPECS[cfg.kind]
    assert res.columns == _columns(cfg.kind, [])
    assert experiments._csv_blocks(spec.columns, res.columns, spec.Row.types,
                                   len(spec.index)) == ["point,gcd,lhs,hA,hcount,rhs,holds,error\n"]


def test_pooled_chunks_become_rows_in_index_order(forced_pool):
    # each chunk a worker returns becomes rows as it is taken off the list
    pooled, serial = run(BCZ300, jobs=2), run(BCZ300)
    assert len(forced_pool) == 1 and len(forced_pool[0].chunks) == 16
    assert pooled.records == serial.records
    assert {type(r) for r in pooled.records} == {experiments.SPECS[SweepKind.BCZ].Row}


# ----------------------------------------------------------------------------
# the column types each row type declares, against a scan of the rows
# ----------------------------------------------------------------------------

# configs of the size of the benchmark's integer sweeps: CZ of 40 units at
# eps 0.25 and of 24 units at eps 0.05, BCZ and AR of (2, 3) to n = 1800, and
# PN_CHECK sampled in P^2
WORKLOAD_SIZED = [
    (SweepKind.CZ_TRICHOTOMY, {"primes": [2, 5], "bound": 400, "eps": 0.25}),
    (SweepKind.CZ_TRICHOTOMY, {"primes": [2, 3], "bound": 30, "eps": 0.05}),
    (SweepKind.BCZ, {"a": 2, "b": 3, "n_max": 1800, "eps": 0.5, "C": 0.5}),
    (SweepKind.AR_RETURNS, {"a": 3, "b": 2, "n_max": 1800}),
    (SweepKind.PN_CHECK, {"polys": ["X1+X0", "X2-X0"], "primes": [2, 5], "bound": 28,
                          "eps": 0.4, "sample": 50}),
]
TYPED_CONFIGS = {
    **{f"golden-{name}": (kind, params) for name, kind, params in RENDER_GOLDENS},
    **{f"every-{kind.value}": (kind, {**TINY[kind], **BOUNDED.get(kind, {})})
       for kind in SweepKind},
    **{f"workload-{i}-{kind.value}": (kind, params)
       for i, (kind, params) in enumerate(WORKLOAD_SIZED)},
}


def _assert_rows_hold_declared_types(result: SweepResult) -> None:
    """The result holds a list per column, all as long, whose cells hold their
    ``Row``'s declared types, an error row None past its index and a text in
    error, and ``records`` is their rows; and in blocks of 64 cells and of
    ``_BLOCK``, ``_texts`` by the block's declared types of each column (see
    ``_block_types``) equals ``_texts`` by the types a scan finds, in CSV and
    in JSON."""
    spec = experiments.SPECS[result.config.kind]
    Row, k, columns = spec.Row, len(spec.index), result.columns
    assert type(columns) is tuple and len(columns) == len(Row._fields)
    assert {type(col) for col in columns} == {list} and len(set(map(len, columns))) == 1
    on_error = (*Row.types[:k], *[{type(None)}] * (len(Row.types) - k - 1), {str})
    failed = [e is not None for e in columns[-1]]
    for col, types, if_failed in zip(columns, Row.types, on_error):
        assert all(type(v) in (if_failed if bad else types) for v, bad in zip(col, failed))
    assert result.records == [*map(Row._make, zip(*columns))]
    assert {type(r) for r in result.records} <= {Row}
    for size in (64, experiments._BLOCK):
        for start in range(0, len(columns[0]), size):
            block = [col[start:start + size] for col in columns]
            types = experiments._block_types(Row.types, k, block[-1])
            for col, declared in zip(block, types):
                for enc in (experiments._CSV, experiments._JSON):
                    assert list(experiments._texts(col, enc, declared)) == _scanned_texts(col, enc)


@pytest.mark.parametrize("name", list(TYPED_CONFIGS))
def test_rows_hold_their_declared_types(data_dir, name):
    kind, params = TYPED_CONFIGS[name]
    cfg = (SweepConfig(**json.loads((data_dir / name[len("golden-"):]).read_text())["config"])
           if kind is None else SweepConfig(kind=kind, parameters=params))
    result = run(cfg)
    assert result.records
    assert result.summary["error_rows"] == (420 if name.endswith(ERRORS_GOLDEN) else 0)
    _assert_rows_hold_declared_types(result)


def test_error_rows_hold_their_declared_types(monkeypatch):
    # the CZ fault tags cells 95 and 158; a fault of the bound tags BCZ's n = 3
    _inject_cz_fault(monkeypatch)
    faulty = run(CZ30_FAULTY)
    assert faulty.summary["error_rows"] == 2
    _assert_rows_hold_declared_types(faulty)

    def flaky(lhs, hA, eps, C):
        if hA == 3 * LN2:
            raise ZeroDivisionError("injected")
        return bound(lhs, hA, eps, C)

    monkeypatch.setattr(experiments, "bound", flaky)
    faulty = run(SweepConfig(kind=SweepKind.BCZ, parameters={
        "a": 2, "b": 3, "eps": 0.5, "n_max": 200, "error_budget": 1}))
    assert [r.n for r in faulty.records if r.error] == [3]
    _assert_rows_hold_declared_types(faulty)
