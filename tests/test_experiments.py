"""The sweep runner: determinism, summaries, fitting, goldens, error budget."""
from __future__ import annotations

import dataclasses
import json
import math

import pytest

from gcdheights import (
    EXCEPTIONAL,
    SweepConfig,
    SweepKind,
    SweepResult,
    cz_classify,
    detect_exceptional,
    fit_constant,
    format_real,
    gcd_pair,
    render_csv,
    render_json,
    run,
    summarize,
)
from gcdheights.arith import PrimeSet
from gcdheights import experiments

# Frozen from the first verified run of this suite.
BCZ300_FITTED = 4.489464501830993
BCZ_FIT_EPS02_N100 = 11.975454051878401
EDSGCD_37A1_EPS02_VIOLATIONS = 13
EDSGCD_389A1_FITTED = -0.27465307216702745
MIXED_37A1_FITTED = 0.25370226509270133
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


def test_parallel_jobs_are_byte_identical():
    a = render_csv(run(EDSGCD_37A1, jobs=1))
    b = render_csv(run(EDSGCD_37A1, jobs=8))
    assert a == b
    assert render_json(run(BCZ300, jobs=1)) == render_json(run(BCZ300, jobs=8))


def test_pn_sampling_is_seed_deterministic():
    base = {"polys": ["X1-X0", "X2-X0"], "primes": [2, 3], "bound": 6,
            "eps": 0.4, "sample": 40}
    r1 = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters=base, seed=5))
    r2 = run(SweepConfig(kind=SweepKind.PN_CHECK, parameters=base, seed=5))
    assert [r["point"] for r in r1.records] == [r["point"] for r in r2.records]
    assert len(r1.records) == 40


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


def test_siegel_golden_csv(data_dir):
    cfg = SweepConfig(kind=SweepKind.SIEGEL,
                      parameters={"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                                  "n_min": 5, "n_max": 40})
    got = render_csv(run(cfg))
    want = (data_dir / "siegel_37a1_n5_40.csv").read_text()
    assert got == want
    s = run(cfg).summary
    assert s["median_abs_dev"] == 0.0 and s["max_ratio"] == 1.0


# ----------------------------------------------------------------------------
# summaries recompute from records
# ----------------------------------------------------------------------------

def test_summary_is_function_of_records():
    res = run(EDSGCD_37A1)
    assert summarize(SweepKind.EDS_GCD, res.records, res.config) == res.summary


def test_cz_summary_counts_match_direct_classification():
    cfg = SweepConfig(kind=SweepKind.CZ_TRICHOTOMY,
                      parameters={"primes": [2, 3], "bound": 100, "eps": 0.25})
    res = run(cfg)
    S = PrimeSet((2, 3))
    for rec in res.records:
        v = cz_classify(rec["alpha"], rec["beta"], S, 0.25)
        assert v.kind == rec["verdict"]
    exc = [[r["alpha"], r["beta"]] for r in res.records if r["verdict"] == EXCEPTIONAL]
    assert res.summary["exceptional_pairs"] == exc
    assert res.summary["violations"] == len(exc)


def test_ar_summary_matches_direct_scan():
    cfg = SweepConfig(kind=SweepKind.AR_RETURNS,
                      parameters={"a": 2, "b": 3, "n_max": 60})
    res = run(cfg)
    direct = [n for n in range(1, 61) if gcd_pair(2, 3, n) == gcd_pair(2, 3, 1)]
    assert res.summary["return_indices"] == direct
    assert res.summary["density"] == len(direct) / 60


# ----------------------------------------------------------------------------
# fitting and the exceptional-set probe
# ----------------------------------------------------------------------------

def test_fit_constant_frozen_value():
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={"a": 2, "b": 3, "eps": 0.2, "n_max": 100})
    assert math.isclose(fit_constant(run(cfg), 0.2), BCZ_FIT_EPS02_N100, rel_tol=1e-12)


def test_fit_constant_is_the_infimum():
    # with C = fit every row holds; shaving 1e-6 creates a violation
    fit = fit_constant(run(SweepConfig(
        kind=SweepKind.BCZ, parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 60})), 0.5)
    at_fit = run(SweepConfig(kind=SweepKind.BCZ,
                             parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 60,
                                         "C": fit}))
    assert at_fit.summary["violations"] == 0
    below = run(SweepConfig(kind=SweepKind.BCZ,
                            parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 60,
                                        "C": fit - 1e-6}))
    assert below.summary["violations"] >= 1


def test_fit_constant_excludes_predicted_directions():
    res = run(EDSGCD_37A1)
    fit = fit_constant(res, 0.2)
    worst_plain = max(r["lhs"] - 0.2 * r["hA"] for r in res.records)
    worst_off_diagonal = max(r["lhs"] - 0.2 * r["hA"]
                             for r in res.records if not r["exceptional"])
    assert math.isclose(fit, worst_off_diagonal, rel_tol=1e-12)
    assert fit < worst_plain     # the diagonal really does dominate


def test_fit_constant_kind_and_emptiness_errors():
    sg = run(SweepConfig(kind=SweepKind.SIEGEL,
                         parameters={"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                                     "n_max": 5}))
    with pytest.raises(ValueError, match="cannot fit"):
        fit_constant(sg, 0.5)
    only_diag = run(SweepConfig(kind=SweepKind.EDS_GCD,
                                parameters={"curve": [0, 0, 1, -1, 0], "p": [0, 0],
                                            "m_max": 1, "n_max": 1, "eps": 0.2}))
    assert only_diag.summary["fitted_constant"] is None
    with pytest.raises(ValueError, match="exceptional"):
        fit_constant(only_diag, 0.2)


def test_detect_exceptional_flags_the_diagonal():
    res = run(EDSGCD_37A1)
    assert res.summary["violations"] == EDSGCD_37A1_EPS02_VIOLATIONS
    groups = detect_exceptional(res)
    assert len(groups) == 1
    g = groups[0]
    assert g["subgroup"] == [1, 1] and g["predicted"] is True
    assert g["count"] == EDSGCD_37A1_EPS02_VIOLATIONS
    assert all(m == n for m, n in g["indices"])


def test_detect_exceptional_independent_points_stay_clean():
    res = run(EDSGCD_389A1)
    assert res.summary["violations"] == 0
    assert detect_exceptional(res) == []
    assert math.isclose(res.summary["fitted_constant"], EDSGCD_389A1_FITTED,
                        rel_tol=1e-12)


def test_detect_exceptional_lists_pn_points():
    cfg = SweepConfig(kind=SweepKind.PN_CHECK,
                      parameters={"polys": ["X1-X0", "X2-X0"], "primes": [2, 3],
                                  "bound": 6, "eps": 0.4})
    res = run(cfg)
    listed = detect_exceptional(res)
    assert listed == [{"point": r["point"], "lhs": r["lhs"], "rhs": r["rhs"]}
                      for r in res.records if r["holds"] is False]


def test_detect_exceptional_rejects_other_kinds():
    with pytest.raises(ValueError, match="expects"):
        detect_exceptional(run(BCZ300))


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

def test_eval_cell_tags_failures_with_index():
    row = experiments._eval_cell((SweepKind.BCZ, {"a": 2, "b": 3, "n": 3,
                                                  "eps": "bad", "C": 0.0}))
    assert row["n"] == 3
    assert row["error"].startswith("TypeError")


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


@pytest.mark.parametrize("kind", list(SweepKind))
def test_cells_carry_their_row_index(kind):
    # error rows are tagged from the cell, so it must hold the row's index
    spec = experiments.SPECS[kind]
    cells = spec.prepare(TINY[kind], 0)
    assert cells
    for cell in cells:
        row = spec.row(cell)
        assert {k: cell[k] for k in spec.index} == {k: row[k] for k in spec.index}


def test_error_budget_zero_raises(monkeypatch):
    spec = experiments.SPECS[SweepKind.BCZ]

    def flaky(cell):
        if cell["n"] == 3:
            raise RuntimeError("injected")
        return spec.row(cell)

    monkeypatch.setitem(experiments.SPECS, SweepKind.BCZ,
                        dataclasses.replace(spec, row=flaky))
    cfg = SweepConfig(kind=SweepKind.BCZ,
                      parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 5})
    with pytest.raises(ValueError, match="error budget exceeded"):
        run(cfg)
    budgeted = SweepConfig(kind=SweepKind.BCZ,
                           parameters={"a": 2, "b": 3, "eps": 0.5, "n_max": 5,
                                       "error_budget": 1})
    res = run(budgeted)
    assert res.summary["error_rows"] == 1
    bad = [r for r in res.records if r.get("error")]
    assert bad == [{"n": 3, "error": "RuntimeError: injected"}]
    # the error column renders, the missing columns render empty
    line = render_csv(res).splitlines()[3]
    assert line == "3,,,,,,RuntimeError: injected"


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


def test_render_csv_header_matches_kind():
    res = run(SweepConfig(kind=SweepKind.AR_RETURNS,
                          parameters={"a": 2, "b": 3, "n_max": 4}))
    head = render_csv(res).splitlines()[0]
    assert head == "n,gcd,base_gcd,is_return,error"
