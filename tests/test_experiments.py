"""The sweep runner: determinism, summaries and fits, goldens, error budget."""
from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import random
import statistics
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
    naive_height,
    render_csv,
    render_json,
    run,
    summarize,
)
from gcdheights.arith import EPS_SLACK, PrimeSet
from gcdheights.gcd_height import PolySystem, VojtaParams, _bound
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


def test_torsion_point_is_reported_not_swept():
    cfg = SweepConfig(kind=SweepKind.SIEGEL,
                      parameters={"curve": [0, 0, 0, 0, 1], "point": [2, 3],
                                  "n_max": 10})
    with pytest.raises(ValueError, match="finite order 6"):
        run(cfg)


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
    (["X1-X0", "X1+X0"], 9),
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
    # the fit keys are in the JSON summary only: this fit leaves out the
    # diagonal, which has violations, and the PN one depends on the weight
    ("edsgcd_37a1_eps02_n12.json", SweepKind.EDS_GCD,
     {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": 12, "n_max": 12, "eps": 0.2}),
    ("pn_x123_s2_b3_eps04_d20_r3.json", SweepKind.PN_CHECK,
     {"polys": ["X1-X0", "X2-X0", "X3-X0"], "codim_r": 3, "primes": [2],
      "bound": 3, "eps": 0.4, "delta": 20.0}),
]


@pytest.mark.parametrize("name, kind, params", BOUND_GOLDENS,
                         ids=[g[0] for g in BOUND_GOLDENS])
def test_bound_kind_goldens(data_dir, name, kind, params):
    res = run(SweepConfig(kind=kind, parameters=params))
    got = render_json(res, version="0.0.0") if name.endswith(".json") else render_csv(res)
    assert got == (data_dir / name).read_text()


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
    assert summarize(SweepKind.EDS_GCD, res.records, res.config) == res.summary


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
        assert summarize(kind, rows, cfg) == _summary_oracle(kind, rows, cfg)
    assert summarize(kind, records, cfg)["cells"] > 1


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

def _appended(prefix: list, fn, *args) -> list:
    """The rows ``fn(*args, out)`` appends to ``out``, a copy of ``prefix``:
    ``fn`` returns nothing and leaves the prefix as it was."""
    out = list(prefix)
    assert fn(*args, out) is None
    assert out[:len(prefix)] == prefix
    return out[len(prefix):]


def test_eval_cell_tags_failures_with_index():
    # a context whose eps breaks every row: cell 2 of the grid is n = 3
    rows = _appended([], experiments._eval, SweepKind.BCZ, (2, 3, "bad", 0.0),
                     (range(1, 5),), range(2, 3))
    assert len(rows) == 1
    assert rows[0].n == 3
    assert rows[0].error.startswith("TypeError")
    # two axes are walked row-major: cell 5 of a 3x4 grid is key (2, 20)
    ctx = ([1, 1, 1], None, 0.5, 1.0)  # S = None fails every row
    axes = (range(1, 4), [10, 20, 30, 40])
    rows = _appended(["row 4"], experiments._eval, SweepKind.MIXED_CHECK, ctx, axes,
                     range(5, 6))
    assert [k for k, v in rows[0]._asdict().items() if v is not None] == ["n", "b", "error"]
    assert (rows[0].n, rows[0].b) == (2, 20)


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
    # is the float naive_height((A, D)) returns, without building a LogReal
    c389, c2 = Curve(0, 1, 1, -2, 0), Curve(0, 0, 0, 0, -2)
    params = {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
              "m_max": 30, "n_max": 25, "eps": 0.3}
    (mp, nq, *_), _ = experiments.SPECS[SweepKind.EDS_GCD].prepare(
        experiments._checked(SweepKind.EDS_GCD, params), 0)
    assert mp == [(d, naive_height((a, d)).value)
                  for a, d in multiples(c389, Point(0, 0), 30)]
    assert nq == [(d, naive_height((a, d)).value)
                  for a, d in multiples(c389, Point(1, 0), 25)]
    # SIEGEL also at bad reduction (x^3 + 17 at (-2, 3), gcd(W_2, W_3) = 6) and
    # at a non-integral point, 2(3, 5) = (129/100, -383/1000)
    for c, point, n_min, n_max in [(c2, (3, 5), 3, 60), (Curve(0, 0, 0, 0, 17), (-2, 3), 1, 80),
                                   (c2, ("129/100", "-383/1000"), 1, 40)]:
        params = {"curve": [0, 0, 0, c.a4, c.a6], "point": list(point),
                  "n_min": n_min, "n_max": n_max}
        (_, dn), _ = experiments.SPECS[SweepKind.SIEGEL].prepare(
            experiments._checked(SweepKind.SIEGEL, params), 0)
        assert dn == [(d, naive_height((a, d)).value)
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
    # error rows are tagged from the grid key, so each row's index must be it
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(experiments._checked(kind, TINY[kind]), 0)
    keys = list(itertools.product(*axes))
    assert keys and len(axes) == len(spec.index)
    for key in keys:
        row = spec.row(ctx, *key)
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

    monkeypatch.setitem(experiments.SPECS, kind, dataclasses.replace(spec, rows=kernel))
    return failed


# grids of the kinds with a range kernel, each long enough for the head to
# reach its 64-cell steps; CZ's rows are 34 units long
KERNEL_GRIDS = {
    SweepKind.BCZ: {"a": 3, "b": 7, "eps": 0.3, "n_max": 320, "C": 0.5},
    SweepKind.AR_RETURNS: {"a": 2, "b": 3, "n_max": 320},
    SweepKind.CZ_TRICHOTOMY: {"primes": [2, 3, 5], "bound": 30, "eps": 0.05},
}
# the context entry that breaks every cell, through the kernel and row, when
# set to a string
BREAK_CTX = {SweepKind.BCZ: 2, SweepKind.AR_RETURNS: 0, SweepKind.CZ_TRICHOTOMY: 1}


def _runs(total: int, width: int) -> list[range]:
    """Runs as the runner makes them: the head's doubling steps from n = 1, a
    rest in 16 chunks, the whole grid, runs across a row end of ``width``
    cells, and empty runs."""
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


@pytest.mark.parametrize("kind", list(KERNEL_GRIDS))
def test_kernel_rows_match_the_map_of_row(kind):
    # each run twice: after no rows, as in a pool chunk, and after the rows of
    # every cell before it, as in the parent
    spec = experiments.SPECS[kind]
    ctx, axes = spec.prepare(experiments._checked(kind, KERNEL_GRIDS[kind]), 0)
    keys = list(itertools.product(*axes))
    runs = _runs(len(keys), len(axes[-1]))
    assert len(keys) > 300 and max(map(len, runs)) == len(keys)
    rows = [spec.row(ctx, *key) for key in keys]
    for cells in runs:
        want = rows[cells.start:cells.stop]
        for prefix in ([], rows[:cells.start]):
            got = _appended(prefix, spec.rows, ctx, axes, cells)
            assert got == want
            assert _appended(prefix, experiments._eval, kind, ctx, axes, cells) == want
            assert {type(r) for r in got} <= {spec.Row}
    # a context that breaks every cell: the kernel raises on each run, also
    # after error rows it must not copy, and _eval tags each cell of the run
    # as the map of row does
    broken = list(ctx)
    broken[BREAK_CTX[kind]] = "bad"
    blank = (None,) * (len(spec.columns) - len(spec.index) - 1)
    errors = []
    for key in keys:
        with pytest.raises(TypeError) as exc:
            spec.row(tuple(broken), *key)
        errors.append(spec.Row(*key, *blank, f"TypeError: {exc.value}"))
    for cells in runs:
        for prefix in ([], errors[:cells.start]):
            if cells:
                with pytest.raises(TypeError):
                    spec.rows(tuple(broken), axes, cells, list(prefix))
            assert (_appended(prefix, experiments._eval, kind, tuple(broken), axes, cells)
                    == errors[cells.start:cells.stop])


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
    ctx, axes = spec.prepare(experiments._checked(kind, params), 0)
    keys = list(itertools.product(*axes))
    for cells in _runs(len(keys), len(axes[-1])):
        want = [spec.row(ctx, *key) for key in keys[cells.start:cells.stop]]
        assert _appended([], spec.rows, ctx, axes, cells) == want
    # the routed grids cross the cut-off; the others never take the route
    assert (min(es) < e0 <= max(es)) if routed else es == []


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
    ctx, axes = spec.prepare(experiments._checked(kind, params), 0)
    keys = list(itertools.product(*axes))
    rows = [spec.row(ctx, *key) for key in keys]
    # the grid holds pairs with alpha = -beta and pairs whose power relation
    # the sign rule doubles, e.g. (-2)^6 = 8^2 where (-2)^3 = -(8^1)
    assert any(r.alpha == -r.beta for r in rows)
    assert any(r.verdict == mulgrp.POWER_RELATION and r.m % 2 == r.n % 2 == 0
               and r.alpha ** (r.m // 2) == -r.beta ** (r.n // 2) for r in rows)
    calls, core = [], experiments._trichotomy
    monkeypatch.setattr(experiments, "_trichotomy",
                        lambda ua, ub, eps: calls.append(1) or core(ua, ub, eps))
    L = len(axes[1])
    for cells in _runs(len(keys), L):
        # after no rows, as in a pool chunk, and after all those before the
        # run, as in the parent
        for prefix in ([], rows[:cells.start]):
            calls.clear()
            got = _appended(prefix, spec.rows, ctx, axes, cells)
            assert got == rows[cells.start:cells.stop]
            assert {type(r) for r in got} <= {spec.Row}
            # a cell (i, j) calls the core unless j < i and (j, i) is written
            first = cells.start - len(prefix)
            own = [k for k in cells if k % L >= k // L or (k % L) * L + k // L < first]
            assert len(calls) == len(own)
        # after all rows before it, only the cells on or above the diagonal
        assert len(own) == sum(k % L >= k // L for k in cells)
    # on the whole grid, once per unordered pair
    calls.clear()
    _appended([], spec.rows, ctx, axes, range(len(keys)))
    assert len(calls) == L * (L + 1) // 2


def test_error_budget_zero_raises(monkeypatch):
    # a fault at n = 3 in the bound that the kernel and row both call: the
    # kernel's run raises, and row tags that cell alone
    def flaky(lhs, hA, eps, C):
        if hA == 3 * LN2:
            raise RuntimeError("injected")
        return _bound(lhs, hA, eps, C)

    monkeypatch.setattr(experiments, "_bound", flaky)
    failed = _kernel_failures(monkeypatch, SweepKind.BCZ)
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 5})
    with pytest.raises(ValueError, match="error budget exceeded"):
        run(cfg)
    assert failed == [range(5)]
    budgeted = SweepConfig(kind=SweepKind.BCZ,
                           parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 5,
                                       "error_budget": 1})
    res = run(budgeted)
    assert res.summary["error_rows"] == 1
    bad = [r for r in res.records if r.error]
    assert bad == [(3, None, None, None, None, None, "RuntimeError: injected")]
    # the error column renders, the missing columns render empty
    line = render_csv(res).splitlines()[3]
    assert line == "3,,,,,,RuntimeError: injected"


# a CZ sweep of 22 units whose cells (-4, 6) and (6, -4), 95 and 158, fail
CZ30_FAULTY = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                          parameters={"primes": [2, 3], "bound": 30, "eps": 0.25,
                                      "error_budget": 2})
CZ30_ERRORS = [experiments._CZRow(-4, 6, *[None] * 7, "RuntimeError: injected"),
               experiments._CZRow(6, -4, *[None] * 7, "RuntimeError: injected")]


def _inject_cz_fault(monkeypatch) -> None:
    """A fault of the core of the CZ kernel and of cz_classify, which row
    calls, on the pair {6, -4}; it is symmetric, as any fault of the
    symmetric core is."""
    core = mulgrp._trichotomy

    def flaky(ua, ub, eps):
        if {ua.x, ub.x} == {6, -4}:
            raise RuntimeError("injected")
        return core(ua, ub, eps)

    monkeypatch.setattr(experiments, "_trichotomy", flaky)
    monkeypatch.setattr(mulgrp, "_trichotomy", flaky)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched row")
def test_pool_error_rows_match_serial(monkeypatch, forced_pool):
    spec = experiments.SPECS[SweepKind.CZ_TRICHOTOMY]
    _inject_cz_fault(monkeypatch)
    failed = _kernel_failures(monkeypatch, SweepKind.CZ_TRICHOTOMY)
    serial = run(CZ30_FAULTY)
    assert failed == [range(len(serial.records))]
    pooled = run(CZ30_FAULTY, jobs=2)
    assert len(forced_pool) == 1
    bad = [r for r in pooled.records if r.error]
    assert bad == CZ30_ERRORS
    assert {type(r) for r in bad} == {spec.Row}
    assert {r.error for r in bad} == {"RuntimeError: injected"}
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
    # the kernel raises on both runs: (6, -4) is evaluated, not copied
    assert [(95 in cells, 158 in cells) for cells in failed] == [(True, False),
                                                                 (False, True)]
    assert [r for r in head.records if r.error] == CZ30_ERRORS
    assert head.summary == serial.summary
    assert head.records == serial.records
    assert render_json(head) == render_json(serial)


def test_cz_head_makes_the_core_calls_of_one_job(monkeypatch, pools):
    # a clock that stands still, so that the sweep is too cheap to pool: the
    # parent's doubling runs make L(L+1)/2 calls on L units, as one run does
    monkeypatch.setattr(experiments, "perf_counter", lambda: 0.0)
    calls, core = [], experiments._trichotomy
    monkeypatch.setattr(experiments, "_trichotomy",
                        lambda ua, ub, eps: calls.append(1) or core(ua, ub, eps))
    cfg = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                      parameters={"primes": [2, 3], "bound": 110, "eps": 0.25})
    counts, results = [], []
    for jobs in (1, 2):
        calls.clear()
        results.append(run(cfg, jobs=jobs))
        counts.append(len(calls))
    assert pools == []
    L = 40
    assert len(results[0].records) == L * L
    assert counts == [L * (L + 1) // 2] * 2
    assert render_json(results[1]) == render_json(results[0])


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
    monkeypatch.setattr(experiments, "get_context",
                        functools.partial(multiprocessing.get_context, method))
    for cfg in (BCZ300, CZ30):
        pooled, serial = run(cfg, jobs=2), run(cfg)
        assert render_csv(pooled) == render_csv(serial)
        assert render_json(pooled) == render_json(serial)
    assert [(pool.max_workers, pool.method) for pool in forced_pool] == [(2, method)] * 2


@pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                    reason="no spawn start method on this platform")
def test_spawn_start_cost_keeps_a_100ms_sweep_serial(pools, monkeypatch):
    # about 100 ms of cells at jobs 1 here, less than a spawned pool costs to
    # start and stop
    monkeypatch.setattr(experiments, "get_context",
                        functools.partial(multiprocessing.get_context, "spawn"))
    cfg = SweepConfig(kind=SweepKind.BCZ, parameters={**TINY[SweepKind.BCZ], "n_max": 3800})
    assert render_csv(run(cfg, jobs=2)) == render_csv(run(cfg))
    assert pools == []


@pytest.mark.parametrize("method, pooled", [("fork", True), ("forkserver", False),
                                            ("spawn", False)])
def test_pool_cut_off_follows_the_start_method(method, pooled, pools, monkeypatch):
    # a clock that ticks 10 ms per reading: past 12 ms the head's mean rate
    # puts BCZ300's rest above twice a forked pool's cost, but a head that
    # has spent a spawned or forkserver pool's cost has nearly finished
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setattr(experiments, "perf_counter",
                        map(lambda tick: tick / 100, itertools.count()).__next__)
    monkeypatch.setattr(experiments, "get_context",
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

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
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
                      parameters={"polys": ["X1-X0"], "primes": [2], "bound": 0,
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
    res = SweepResult(cfg, records, summarize(SweepKind.EDS_GCD, records, cfg))
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
    res = SweepResult(cfg, records, summarize(SweepKind.BCZ, records, cfg))
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
    bad = SweepResult(res.config, records, res.summary)
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
    return SweepResult(cfg, records, summarize(SweepKind.BCZ, records, cfg))


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
    return SweepResult(cfg, records, summarize(SweepKind.BCZ, records, cfg))


def _assert_renders_like_oracles_unlimited(result: SweepResult) -> None:
    limit = sys.get_int_max_str_digits()  # the oracles' str() and json.dumps
    sys.set_int_max_str_digits(0)
    try:
        csv_text, json_text = _csv_oracle(result), _json_oracle(result)
    finally:
        sys.set_int_max_str_digits(limit)
    assert render_csv(result) == csv_text
    assert render_json(result, version="oracle") == json_text


def test_column_encoders_keep_int_one_apart_from_real_one():
    # ints and reals in columns of their own, and mixed in one column
    res = _bcz_columns(gcd=[1, 1, 2], hA=[1.0, 1.0, 2.5], lhs=[1, 1.0, 0.5, 1.0])
    _assert_renders_like_oracles(res)
    recs = json.loads(render_json(res))["records"]
    assert [(type(r["gcd"]), type(r["hA"])) for r in recs[:3]] == [(int, float)] * 3
    assert [type(r["lhs"]) for r in recs[:4]] == [int, float, float, float]
    assert render_csv(res).splitlines()[1].split(",")[1:4] == ["1", "1", "1"]


def test_column_encoders_keep_true_apart_from_one():
    res = _bcz_columns(gcd=[1, True, 1, 0, False], holds=[True, 1, True, 0, False, 1])
    _assert_renders_like_oracles(res)
    recs = json.loads(render_json(res))["records"]
    assert [type(r["gcd"]) for r in recs[:5]] == [int, bool, int, int, bool]
    assert [type(r["holds"]) for r in recs[:6]] == [bool, int, bool, int, bool, int]


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
    res = SweepResult(cfg, records, summarize(SweepKind.CZ_TRICHOTOMY, records, cfg))
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
    small = dataclasses.replace(res.config, parameters={**res.config.parameters, "a": 5})
    assert text.replace(str(Decimal(a)), "5") == render_json(
        SweepResult(small, res.records, res.summary))


def test_render_csv_header_matches_kind():
    res = run(SweepConfig(kind=SweepKind.AR_RETURNS,
                          parameters={"a": 2, "b": 3, "n_max": 4}))
    head = render_csv(res).splitlines()[0]
    assert head == "n,gcd,base_gcd,is_return,error"
