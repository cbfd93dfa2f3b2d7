"""End-to-end tests of the command-line interface.

Everything goes through in-process ``main(argv)`` so exit codes and exact
stdout/stderr bytes are observable without spawning subprocesses.
Contract under test: exit 0 success, 1 usage error, 2 computation error,
3 baseline mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from gcdheights import SweepConfig, SweepKind, render_csv, render_json, run
from gcdheights.cli import main
from gcdheights.experiments import SPECS

C37 = "0,0,1,-1,0"


def _rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


# ----------------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------------

def test_version_prints_and_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gcdpow", "--bogus"]) == 1


def test_bad_rational_flag_is_usage_error(capsys):
    assert main(["heights", "--x", "abc"]) == 1


def test_missing_required_params_is_usage_error(capsys):
    assert main(["gcdpow", "--a", "2"]) == 1
    assert "gcdpow needs" in capsys.readouterr().err


def test_dependent_pair_is_computation_error(capsys):
    assert main(["gcdpow", "--a", "4", "--b", "8", "--nmax", "5"]) == 2
    assert "multiplicatively dependent" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gcdpow", "--a", "2", "--b", "3", "--nmax", "5"],
    ["trichotomy", "--primes", "2,3", "--nmax", "20"],
    ["edsgcd", "--curve", C37, "--point", "0,0", "--nmax", "3"],
    ["mixed", "--curve", C37, "--point", "0,0", "--primes", "2,3", "--nmax", "3"],
], ids=lambda argv: argv[0])
def test_nan_eps_is_computation_error(argv, capsys):
    # rejected up front, not once per cell through the error budget
    assert main(argv + ["--eps", "nan"]) == 2
    err = capsys.readouterr().err
    assert "eps must be positive" in err and "error budget" not in err


@pytest.mark.parametrize("C", ["0", "nan"])
def test_mixed_nonpositive_C_is_one_computation_error(C, capsys):
    assert main(["mixed", "--curve", C37, "--point", "0,0", "--primes", "2,3",
                 "--nmax", "3", "--eps", "0.3", "--C", C]) == 2
    err = capsys.readouterr().err
    assert "C must be positive" in err and "error budget" not in err


@pytest.mark.parametrize("argv, message", [
    (["gcdpow", "--a", "2", "--b", "3", "--nmax", "3", "--C", "nan"],
     "C must not be NaN"),
    (["edsgcd", "--curve", C37, "--point", "0,0", "--nmax", "3", "--eps", "0.5",
      "--C", "nan"], "C must not be NaN"),
    (["pncheck", "--primes", "2", "--nmax", "2", "--eps", "0.5", "--C", "nan"],
     "C must not be NaN"),
    (["pncheck", "--primes", "2", "--nmax", "2", "--eps", "0.5", "--delta", "nan"],
     "delta must be positive"),
    (["vojta-check", "--lhs", "1", "--ha", "1", "--eps", "0.5", "--C", "nan"],
     "C must not be NaN"),
    (["vojta-check", "--lhs", "1", "--ha", "1", "--eps", "0.5", "--delta", "nan"],
     "delta must be positive"),
], ids=["gcdpow-C", "edsgcd-C", "pncheck-C", "pncheck-delta", "vojta-check-C",
        "vojta-check-delta"])
def test_nan_C_or_delta_is_computation_error(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.filterwarnings("ignore:possibly torsion")
@pytest.mark.parametrize("argv", [
    ["gcdpow", "--a", "2", "--b", "3", "--nmax", "2", "--eps", "inf",
     "--format", "json"],
    ["vojta-check", "--lhs", "nan", "--ha", "1", "--eps", "0.5"],
    ["heights", "--curve", C37, "--point", "0,0", "--tol", "inf"],
], ids=lambda argv: argv[0])
def test_non_finite_json_is_computation_error(argv, capsys):
    # strict JSON has no NaN or Infinity: nothing is printed
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not JSON compliant" in err


def test_point_off_curve_is_computation_error(capsys):
    rc = main(["eds", "--curve", C37, "--point", "1,1", "--nmax", "5"])
    assert rc == 2
    assert "not on the curve" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# gcdpow
# ----------------------------------------------------------------------------

def test_gcdpow_table(capsys):
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,gcd,lhs,hA,rhs,holds,error"
    assert len(lines) == 7
    # gcd(2^6-1, 3^6-1) = gcd(63, 728) = 7, within the default eps=0.5 bound
    assert lines[6].startswith("6,7,")
    assert ",true," in lines[6]


def test_gcdpow_matches_library_output(capsys):
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "30"]) == 0
    got = capsys.readouterr().out
    cfg = SweepConfig(
        kind=SweepKind.BCZ,
        parameters={"a": 2, "b": 3, "n_max": 30, "eps": 0.5, "C": 0.0},
    )
    assert got == render_csv(run(cfg))


def test_jobs_flag_does_not_change_output(capsys):
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "40"]) == 0
    serial = capsys.readouterr().out
    rc = main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "40", "--jobs", "3"])
    assert rc == 0
    assert capsys.readouterr().out == serial


# ----------------------------------------------------------------------------
# trichotomy / returns
# ----------------------------------------------------------------------------

def test_trichotomy_reports_power_relations(capsys):
    rc = main(["trichotomy", "--primes", "2,3", "--nmax", "10",
               "--eps", "0.25"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("alpha,beta,verdict,m,n,gcd,lhs,rhs,holds,error")
    # 12 units of magnitude in [2,10]: +-2,3,4,6,8,9; all ordered pairs
    assert len(lines) == 1 + 12 * 12
    assert any(l.startswith("4,8,POWER_RELATION,3,2,1,0,") for l in lines)


def test_returns_marks_the_right_indices(capsys):
    assert main(["returns", "--a", "2", "--b", "3", "--nmax", "20"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,gcd,base_gcd,is_return,error"
    hit = [int(r["n"]) for r in _rows(out) if r["is_return"] == "true"]
    assert hit == [1, 2, 3, 5, 7, 9, 13, 14, 15, 17, 19]


# ----------------------------------------------------------------------------
# eds
# ----------------------------------------------------------------------------

def test_eds_csv(capsys):
    rc = main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "5"])
    assert rc == 0
    assert capsys.readouterr().out == "n,d\n1,1\n2,1\n3,1\n4,1\n5,2\n"


def test_eds_json_reports_divisibility(capsys):
    rc = main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "10",
               "--format", "json", "--ignore-primes", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "0.1.0"
    assert doc["terms"] == [1, 1, 1, 1, 2, 1, 3, 5, 7, 4]
    assert doc["divisibility_ok"] is True
    assert doc["counterexample"] is None
    assert doc["ignored_primes"] == [2]


@pytest.mark.parametrize("bad", ["1", "0", "-1"])
def test_eds_ignore_primes_must_be_primes(bad, capsys):
    rc = main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "10",
               "--format", "json", "--ignore-primes", bad])
    assert rc == 2
    assert f"not a prime: {bad}" in capsys.readouterr().err


# ----------------------------------------------------------------------------
# edsgcd / mixed / pncheck ... smoke with exact row counts
# ----------------------------------------------------------------------------

def test_edsgcd_nmax_sets_both_grid_bounds(capsys):
    rc = main(["edsgcd", "--curve", C37, "--point", "0,0", "--nmax", "3",
               "--eps", "0.25"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("m,n,d_m,d_n,gcd,")
    assert len(lines) == 1 + 9


def test_mixed_smoke(capsys):
    rc = main(["mixed", "--curve", C37, "--point", "0,0", "--primes", "3",
               "--nmax", "3", "--bbound", "10", "--eps", "0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,b,d_q,gcd,lhs,hA,rhs,holds,error"
    # S-units of magnitude in [2,10] for S={3}: +-3, +-9; times n = 1..3
    assert len(lines) == 1 + 3 * 4


def test_pncheck_sampling_is_seed_deterministic(capsys):
    argv = ["pncheck", "--primes", "2", "--nmax", "4", "--eps", "0.5",
            "--sample", "10", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "point,gcd,lhs,hA,hcount,rhs,holds,error"
    assert len(first.splitlines()) == 11


# ----------------------------------------------------------------------------
# heights / vojta-check
# ----------------------------------------------------------------------------

def test_heights_of_rationals(capsys):
    assert main(["heights", "--x", "3/4", "--y", "9/8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weil"]["witness"] == 4
    assert doc["weil"]["value"] == pytest.approx(math.log(4), rel=1e-11)
    assert doc["hgcd"]["witness"] == 3
    assert doc["hgcd"]["value"] == pytest.approx(math.log(3), rel=1e-11)


def test_heights_of_a_curve_point(capsys):
    rc = main(["heights", "--curve", C37, "--point", "0,0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["naive_height"] == {"value": 0.0, "witness": 1}
    assert doc["canonical_height"] == pytest.approx(0.0255553246, abs=1e-9)
    assert doc["tol"] == 1e-4


def test_heights_usage_errors(capsys):
    assert main(["heights"]) == 1
    assert main(["heights", "--y", "1/2"]) == 1
    assert main(["heights", "--point", "0,0"]) == 1


def test_vojta_check_verdict(capsys):
    base = ["vojta-check", "--ha", "2.0", "--eps", "0.5"]
    assert main(base + ["--lhs", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rhs"] == pytest.approx(1.0)
    assert doc["holds"] is True
    assert doc["components"]["height_term"] == pytest.approx(1.0)
    assert main(base + ["--lhs", "1.1"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is False


# ----------------------------------------------------------------------------
# --out, --baseline, --config, sweep
# ----------------------------------------------------------------------------

def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    path = tmp_path / "t.csv"
    rc = main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "6",
               "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert path.read_text().splitlines()[0] == "n,gcd,lhs,hA,rhs,holds,error"


def test_baseline_match_and_mismatch(tmp_path, capsys):
    argv = ["gcdpow", "--a", "2", "--b", "3", "--nmax", "6"]
    good = tmp_path / "good.csv"
    assert main(argv + ["--out", str(good)]) == 0
    assert main(argv + ["--baseline", str(good)]) == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert main(argv + ["--baseline", str(bad)]) == 3
    assert "baseline mismatch" in capsys.readouterr().err

    assert main(argv + ["--baseline", str(tmp_path / "absent.csv")]) == 2


def test_sweep_runs_a_config_file(tmp_path, capsys):
    cfg = {"kind": "BCZ",
           "parameters": {"a": 2, "b": 3, "n_max": 10, "eps": 0.5, "C": 0.0},
           "seed": 0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(path)]) == 0
    got = capsys.readouterr().out
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "10"]) == 0
    assert got == capsys.readouterr().out


def test_sweep_reingests_emitted_json(tmp_path, capsys):
    first = tmp_path / "first.json"
    rc = main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "12",
               "--format", "json", "--out", str(first)])
    assert rc == 0
    rc = main(["sweep", "--config", str(first), "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == first.read_text()


def test_sweep_config_without_kind_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": {"a": 2}}))
    assert main(["sweep", "--config", str(path)]) == 1
    assert "no 'kind'" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["gcdpow", "sweep"])
def test_config_that_is_not_an_object_is_usage_error(cmd, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"kind": "BCZ"}]))
    assert main([cmd, "--config", str(path)]) == 1
    assert "not a JSON object" in capsys.readouterr().err


def test_config_of_another_kind_is_usage_error(tmp_path, capsys):
    cfg = {"kind": "BCZ",
           "parameters": {"a": 2, "b": 3, "n_max": 10, "eps": 0.5, "C": 0.0}}
    path = tmp_path / "bcz.json"
    path.write_text(json.dumps(cfg))
    assert main(["returns", "--config", str(path)]) == 1
    assert "is a BCZ config, not AR_RETURNS" in capsys.readouterr().err


def test_sweep_config_of_unknown_kind_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"kind": "NOPE"}))
    assert main(["sweep", "--config", str(path)]) == 1
    assert "unknown kind 'NOPE'" in capsys.readouterr().err


def test_sweep_config_of_an_eds_result_is_usage_error(tmp_path, capsys):
    # eds is not a sweep kind: its emitted JSON names kind "EDS"
    assert main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "5",
                 "--format", "json"]) == 0
    path = tmp_path / "eds.json"
    path.write_text(capsys.readouterr().out)
    assert main(["sweep", "--config", str(path)]) == 1
    assert "unknown kind 'EDS'" in capsys.readouterr().err


def test_subcommand_config_may_omit_kind(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": {"a": 2, "b": 3, "n_max": 10}}))
    assert main(["returns", "--config", str(path)]) == 0
    got = capsys.readouterr().out
    assert main(["returns", "--a", "2", "--b", "3", "--nmax", "10"]) == 0
    assert got == capsys.readouterr().out


def test_explicit_flags_override_config_file(tmp_path, capsys):
    cfg = {"kind": "BCZ",
           "parameters": {"a": 2, "b": 3, "n_max": 10, "eps": 0.5, "C": 0.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["gcdpow", "--config", str(path), "--nmax", "5"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5


def test_edsgcd_nmax_overrides_config_grid_bounds(tmp_path, capsys):
    cfg = {"kind": "EDS_GCD",
           "parameters": {"curve": [0, 0, 1, -1, 0], "p": [0, 0],
                          "m_max": 2, "n_max": 2, "eps": 0.25}}
    path = tmp_path / "eg.json"
    path.write_text(json.dumps(cfg))
    assert main(["edsgcd", "--config", str(path), "--nmax", "4"]) == 0
    assert len(_rows(capsys.readouterr().out)) == 16


def test_eds_config_keeps_file_ignore_primes(tmp_path, capsys):
    cfg = {"parameters": {"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                          "n_max": 10, "ignore_primes": [2]}}
    path = tmp_path / "eds.json"
    path.write_text(json.dumps(cfg))
    assert main(["eds", "--config", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ignored_primes"] == [2]
    assert main(["eds", "--config", str(path), "--format", "json",
                 "--ignore-primes", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["ignored_primes"] == [3]


@pytest.mark.parametrize("curve", [[0, 0, 1, -1], [0, 0, 1, -1, 0, 0]])
def test_eds_config_curve_needs_five_coefficients(curve, tmp_path, capsys):
    path = tmp_path / "eds.json"
    path.write_text(json.dumps({"parameters": {"curve": curve, "point": [0, 0],
                                               "n_max": 5}}))
    assert main(["eds", "--config", str(path)]) == 2
    assert "curve needs exactly 5 coefficients" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("cmd", ["sweep", "gcdpow", "trichotomy", "returns",
                                 "edsgcd", "mixed", "pncheck"])
def test_jobs_below_one_is_usage_error(cmd, jobs, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "BCZ", "parameters": {
        "a": 2, "b": 3, "n_max": 4, "eps": 0.5}}))
    assert main([cmd, "--config", str(path), "--jobs", jobs]) == 1
    assert "argument --jobs: jobs must be >= 1" in capsys.readouterr().err


C37_LIST = [0, 0, 1, -1, 0]


@pytest.mark.parametrize("argv, kind, parameters", [
    (["gcdpow", "--a", "2", "--b", "3", "--nmax", "6"], SweepKind.BCZ,
     {"a": 2, "b": 3, "n_max": 6, "eps": 0.5, "C": 0.0}),
    (["trichotomy", "--primes", "2,3", "--nmax", "10", "--eps", "0.25"],
     SweepKind.CZ_TRICHOTOMY, {"primes": [2, 3], "bound": 10, "eps": 0.25}),
    (["returns", "--a", "2", "--b", "3", "--nmax", "6"], SweepKind.AR_RETURNS,
     {"a": 2, "b": 3, "n_max": 6}),
    (["eds", "--curve", C37, "--point", "0,0", "--nmax", "5"], None,
     {"curve": C37_LIST, "point": ["0", "0"], "n_max": 5, "ignore_primes": []}),
    (["edsgcd", "--curve", C37, "--point", "0,0", "--nmax", "2", "--eps", "0.25"],
     SweepKind.EDS_GCD,
     {"curve": C37_LIST, "p": ["0", "0"], "m_max": 2, "n_max": 2, "eps": 0.25,
      "C": 0.0}),
    (["mixed", "--curve", C37, "--point", "0,0", "--primes", "3", "--nmax", "2",
      "--eps", "0.5"], SweepKind.MIXED_CHECK,
     {"curve": C37_LIST, "point": ["0", "0"], "primes": [3], "n_max": 2,
      "b_bound": 100, "eps": 0.5, "C": 1.0}),
    (["pncheck", "--primes", "2", "--nmax", "2", "--eps", "0.5"], SweepKind.PN_CHECK,
     {"polys": ["X1-X0", "X2-X0"], "codim_r": 2, "primes": [2], "bound": 2,
      "eps": 0.5, "delta": 1.0, "C": 0.0}),
])
def test_flags_map_to_parameters(argv, kind, parameters, monkeypatch, capsys):
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["parameters"] == parameters
    monkeypatch.setenv("COLUMNS", "200")
    assert main([argv[0], "--help"]) == 0
    columns = SPECS[kind].columns if kind else ("n", "d")
    epilog = capsys.readouterr().out.rstrip("\n").splitlines()[-1]
    assert epilog == "CSV columns: " + ",".join(columns)
