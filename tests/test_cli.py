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
import pathlib
import random
import shlex
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest

from gcdheights import Curve, Point, SweepConfig, SweepKind, eds, render_csv, render_json, run
from gcdheights import cli, experiments
from gcdheights.cli import _EDS_PARAMS, _SUBCOMMANDS, main
from gcdheights.experiments import SPECS
from test_experiments import _one_join_csv

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
     "delta must be positive and finite"),
    (["vojta-check", "--lhs", "1", "--ha", "1", "--eps", "0.5", "--C", "nan"],
     "C must not be NaN"),
    (["vojta-check", "--lhs", "1", "--ha", "1", "--eps", "0.5", "--delta", "nan"],
     "delta must be positive and finite"),
], ids=["gcdpow-C", "edsgcd-C", "pncheck-C", "pncheck-delta", "vojta-check-C",
        "vojta-check-delta"])
def test_nan_C_or_delta_is_computation_error(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["edsgcd", "--curve", C37, "--point", "0,0", "--nmax", "3", "--eps", "inf"],
     "eps must be positive and finite"),
    (["gcdpow", "--a", "2", "--b", "3", "--nmax", "3", "--eps", "inf"],
     "eps must be positive and finite"),
    (["gcdpow", "--a", "2", "--b", "3", "--nmax", "3", "--C", "inf"],
     "C must be finite"),
    (["trichotomy", "--primes", "2,3", "--nmax", "20", "--eps", "inf"],
     "eps must be positive and finite"),
    (["mixed", "--curve", C37, "--point", "0,0", "--primes", "2,3", "--nmax", "3",
      "--eps", "0.3", "--C", "inf"],
     "C must be positive and finite (it multiplies the bound)"),
    (["pncheck", "--primes", "2", "--nmax", "4", "--eps", "0.5", "--sample", "-1"],
     "sample must be a positive integer"),
    (["pncheck", "--primes", "2", "--nmax", "4", "--eps", "0.5", "--sample", "0"],
     "sample must be a positive integer"),
    # an infinite delta would zero the counting term's weight
    (["pncheck", "--primes", "2", "--nmax", "2", "--eps", "0.5", "--delta", "inf"],
     "delta must be positive and finite"),
    (["vojta-check", "--lhs", "1", "--ha", "1", "--eps", "0.5", "--delta", "inf"],
     "delta must be positive and finite"),
    (["vojta-check", "--lhs", "1", "--ha", "1", "--eps", "0.5", "--C", "inf"],
     "C must be finite"),
    # sizes past sys.maxsize, which no grid axis can count: edsgcd's --nmax
    # sets m_max first
    *[([*cmd.split(), "--nmax", str(10**30)], f"{key} must be an integer <= {sys.maxsize}")
      for cmd, key in [("gcdpow --a 2 --b 3", "n_max"), ("returns --a 2 --b 3", "n_max"),
                       (f"edsgcd --curve {C37} --point 0,0 --eps 0.5", "m_max"),
                       (f"eds --curve {C37} --point 0,0", "n_max")]],
    (f"eds --curve {C37} --point 0,0 --nmax 0".split(), "n_max must be >= 1"),
    (["pncheck", "--poly", "X0", "--primes", "2", "--nmax", "3", "--eps", "0.5"],
     "system must involve at least X0 and X1"),
], ids=["edsgcd-eps", "gcdpow-eps", "gcdpow-C", "trichotomy-eps", "mixed-C",
        "pncheck-sample-neg", "pncheck-sample-0", "pncheck-delta",
        "vojta-check-delta", "vojta-check-C", "gcdpow-nmax", "returns-nmax", "edsgcd-nmax",
        "eds-nmax", "eds-nmax-0", "pncheck-X0"])
def test_infinite_bound_or_bad_sample_is_one_computation_error(argv, message, capsys):
    # rejected up front, before any cell: CSV would otherwise print inf/nan
    # rows, and a size past sys.maxsize would fail in len() or run for ever
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


OVERFLOW = "OverflowError: the bound overflows a float: rhs = inf"


@pytest.mark.filterwarnings("ignore:torsion")
@pytest.mark.parametrize("argv, err", [
    # a finite eps whose bound overflows to inf at n = 2: that cell is an
    # error row, which the default budget refuses before anything is rendered
    (["gcdpow", "--a", "2", "--b", "3", "--nmax", "2", "--eps", "1.7e308",
      "--format", "json"],
     f"error budget exceeded: 1 error rows (budget 0); first: {OVERFLOW}"),
    (["vojta-check", "--lhs", "nan", "--ha", "1", "--eps", "0.5"],
     "Out of range float values are not JSON compliant: nan"),
    (["heights", "--curve", C37, "--point", "0,0", "--tol", "inf"],
     "Out of range float values are not JSON compliant: inf"),
], ids=["gcdpow", "vojta-check", "heights"])
def test_non_finite_json_is_computation_error(argv, err, capsys):
    # strict JSON has no NaN or Infinity: nothing is printed, whether the value
    # is a result (lhs), an echoed input (tol) or a bound past the floats
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_an_overflowing_bound_is_one_error_in_csv_and_json(tmp_path, capsys):
    # eps*n*ln 2 passes the largest float at n = 3, in either format alike
    argv = ["gcdpow", "--a", "2", "--b", "3", "--nmax", "3", "--eps", "1e308"]
    got = [(main([*argv, "--format", fmt]), *capsys.readouterr()) for fmt in ("csv", "json")]
    want = (2, "", f"error: error budget exceeded: 1 error rows (budget 0); first: {OVERFLOW}\n")
    assert got == [want, want]
    # under a budget the row stands, empty past its index, in both formats
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "BCZ", "parameters": {
        "a": 2, "b": 3, "n_max": 3, "eps": 1e308, "error_budget": 1}}))
    assert main(["sweep", "--config", str(path)]) == 0
    assert _rows(capsys.readouterr().out)[2] == {
        "n": "3", "gcd": "", "lhs": "", "hA": "", "rhs": "", "holds": "", "error": OVERFLOW}
    assert main(["sweep", "--config", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["records"][2] == {"n": 3, "error": OVERFLOW}
    # CZ_TRICHOTOMY refuses cell by cell too: eps*ln|x| passes the largest
    # float from |x| = 8 on, so of its 22 units the 8 of |x| <= 6 pair freely
    cz = {"primes": [2, 3], "bound": 30, "eps": 1e308}
    path.write_text(json.dumps({"kind": "CZ_TRICHOTOMY", "parameters": cz}))
    got = [(main(["sweep", "--config", str(path), "--format", fmt]), *capsys.readouterr())
           for fmt in ("csv", "json")]
    want = (2, "", f"error: error budget exceeded: 420 error rows (budget 0); first: {OVERFLOW}\n")
    assert got == [want, want]
    path.write_text(json.dumps({"kind": "CZ_TRICHOTOMY",
                                "parameters": {**cz, "error_budget": 1000}}))
    assert main(["sweep", "--config", str(path)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 484
    assert [r for r in rows if r["error"]] == [
        {**dict.fromkeys(r, ""), "alpha": r["alpha"], "beta": r["beta"], "error": OVERFLOW}
        for r in rows if max(abs(int(r["alpha"])), abs(int(r["beta"]))) >= 8]
    assert sum(not r["error"] for r in rows) == 64


@pytest.mark.parametrize("argv, value, err", [
    ("heights --curve 0,0,0,0,1 --point 2,3", 0.0,
     "warning: torsion: point has finite order 6\n"),
    ("heights --curve 0,0,0,1000,1 --point 0,1 --tol 1e-14", 1.4958969849,
     "warning: tolerance 1e-14 not certified: the float series is only good to 6.1e-12\n"),
], ids=["torsion", "uncertified"])
def test_library_warnings_print_one_line_each(argv, value, err, capsys):
    # the hook lives in main only: stdout and the exit code are as without it,
    # and the warnings module is left as it was
    shown = warnings.showwarning
    assert main(argv.split()) == 0
    out, got = capsys.readouterr()
    assert got == err
    assert json.loads(out)["canonical_height"] == value
    assert warnings.showwarning is shown


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


def test_jobs_flag_does_not_change_output(capsys, forced_pool):
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "40"]) == 0
    serial = capsys.readouterr().out
    rc = main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "40", "--jobs", "3"])
    assert rc == 0
    assert capsys.readouterr().out == serial
    assert [pool.max_workers for pool in forced_pool] == [2]


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


def test_eds_renders_terms_past_the_int_str_limit(capsys):
    # D_200P on 5077a1 has over 19,000 digits, beyond str()'s 4300-digit limit
    terms = eds(Curve(0, 0, 1, -7, 6), Point(Fraction(0), Fraction(2)), 200)
    argv = ["eds", "--curve", "0,0,1,-7,6", "--point", "0,2", "--nmax", "200"]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [int(Decimal(d)) for _, d in rows] == list(terms)
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_int=Decimal)
    assert [int(d) for d in doc["terms"]] == list(terms)
    assert len(rows[-1][1]) > 4300


def test_eds_reports_divisibility_in_json_only(monkeypatch, capsys):
    calls, check = [], cli.divisibility_check
    monkeypatch.setattr(cli, "divisibility_check",
                        lambda terms: calls.append(1) or check(terms))
    argv = ["eds", "--curve", C37, "--point", "0,0", "--nmax", "5"]
    assert main(argv) == 0 and calls == []
    assert main([*argv, "--format", "json"]) == 0 and calls == [1]


@pytest.mark.parametrize("bad", ["1", "0", "-1", "4"])
def test_eds_ignore_primes_must_be_primes(bad, capsys):
    # in either format, though only JSON prints the report they shape
    for fmt in ("csv", "json"):
        rc = main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "10",
                   "--format", fmt, "--ignore-primes", bad])
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


@pytest.mark.parametrize("r", [2, 3, 5])
def test_pncheck_refuses_a_codim_that_contradicts_a_linear_system(r, capsys):
    # X1 = X2 = X3 = X0 is the point (1:1:1:1) of P^3, of codimension 3
    argv = ["pncheck", "--poly", "X1-X0", "--poly", "X2-X0", "--poly", "X3-X0",
            "--codim", str(r), "--primes", "2", "--nmax", "3", "--eps", "0.5"]
    code, (out, err) = main(argv), capsys.readouterr()
    if r == 3:
        assert code == 0 and err == "" and len(out.splitlines()) > 1
        # without --codim the run takes the rank, 3, and prints the same
        assert main(argv[:7] + argv[9:]) == 0
        assert capsys.readouterr() == (out, "")
    else:
        assert code == 2 and out == ""
        assert err == f"error: codim_r {r} does not match codimension 3 of V\n"


@pytest.mark.parametrize("polys, message", [
    (["X1-X0", "X1+X0"], "V is empty: rank 2"),
    (["X1^2-X0^2", "X2-X0"], "codim_r is required when a form is not linear"),
])
def test_pncheck_without_a_codimension_is_a_computation_error(polys, message, capsys):
    # a missing --codim is not a usage error (exit 1): linear forms supply it
    argv = ["pncheck", *(a for f in polys for a in ("--poly", f)),
            "--primes", "2", "--nmax", "3", "--eps", "0.5"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    assert doc["canonical_height"] == pytest.approx(0.0255557041199844, abs=1e-11)
    assert doc["tol"] == 1e-4


HEIGHTS_NEEDS = "heights needs --x (and optionally --y), or --curve with --point"


@pytest.mark.parametrize("argv, message", [
    ("heights", HEIGHTS_NEEDS),
    ("heights --y 1/2", HEIGHTS_NEEDS),
    ("heights --point 0,0", "--point needs --curve"),
    (f"heights --curve {C37} --point 0,0 --y 1/2", "--y needs --x"),
    # a flag value its argparse type refuses
    ("trichotomy --primes 2,x --nmax 5", "argument --primes: bad integer list '2,x'"),
    ("eds --curve 0,0,1 --point 0,0 --nmax 3", "argument --curve: curve needs 5 "
     "comma-separated integers a1,a2,a3,a4,a6, got '0,0,1'"),
    (f"eds --curve {C37} --point 0 --nmax 3",
     "argument --point: point needs two comma-separated rationals x,y, got '0'"),
    ("gcdpow --a 2 --b 3 --nmax 3 --jobs x", "argument --jobs: invalid int value: 'x'"),
], ids=["heights", "heights-y", "heights-point", "heights-y-point", "primes", "curve",
        "point", "jobs"])
def test_usage_error_ends_in_one_error_line(argv, message, capsys):
    assert main(argv.split()) == 1
    out, err = capsys.readouterr()
    *usage, last = err.splitlines()
    assert out == "" and last == f"error: {message}"
    # argparse prints its usage first, a handler only the error line
    assert bool(usage) == message.startswith("argument ")


def test_vojta_check_verdict(capsys):
    base = ["vojta-check", "--ha", "2.0", "--eps", "0.5"]
    assert main(base + ["--lhs", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rhs"] == pytest.approx(1.0)
    assert doc["holds"] is True
    assert doc["components"]["height_term"] == pytest.approx(1.0)
    assert main(base + ["--lhs", "1.1"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is False


# The exact stdout of each JSON document the CLI builds outside a sweep (eds
# CSV: test_eds_csv): results at 12 significant digits, the echoed inputs
# (tol, params) exactly.
PINNED = {
    "heights --x 3/4 --y 9/8": """{
  "hgcd": {
    "value": 1.09861228867,
    "witness": 3
  },
  "version": "0.1.0",
  "weil": {
    "value": 1.38629436112,
    "witness": 4
  },
  "x": "3/4",
  "y": "9/8"
}
""",
    f"heights --curve {C37} --point 0,0": """{
  "canonical_height": 0.02555570412,
  "naive_height": {
    "value": 0.0,
    "witness": 1
  },
  "tol": 0.0001,
  "version": "0.1.0"
}
""",
    f"heights --curve {C37} --point 0,0 --tol 0.000123456789012345": """{
  "canonical_height": 0.02555570412,
  "naive_height": {
    "value": 0.0,
    "witness": 1
  },
  "tol": 0.000123456789012345,
  "version": "0.1.0"
}
""",
    "vojta-check --lhs 1.23456789012345 --ha 2.0 --eps 0.123456789012345 "
    "--C 0.987654321098765": """{
  "components": {
    "constant": 0.987654321099,
    "counting_term": 0.0,
    "height_term": 0.246913578025
  },
  "holds": true,
  "lhs": 1.23456789012,
  "params": {
    "C": 0.987654321098765,
    "delta": 1.0,
    "epsilon": 0.123456789012345,
    "r": 2
  },
  "rhs": 1.23456789912,
  "version": "0.1.0"
}
""",
    f"eds --curve {C37} --point 0,0 --nmax 5 --format json --ignore-primes 2": """{
  "config": {
    "kind": "EDS",
    "parameters": {
      "curve": [
        0,
        0,
        1,
        -1,
        0
      ],
      "ignore_primes": [
        2
      ],
      "n_max": 5,
      "point": [
        "0",
        "0"
      ]
    },
    "seed": 0
  },
  "counterexample": null,
  "divisibility_ok": true,
  "ignored_primes": [
    2
  ],
  "terms": [
    1,
    1,
    1,
    1,
    2
  ],
  "version": "0.1.0"
}
""",
}


@pytest.mark.parametrize("cmd", PINNED, ids=lambda cmd: cmd.split(" --")[0])
def test_pinned_documents_are_exact(cmd, capsys):
    assert main(cmd.split()) == 0
    assert capsys.readouterr() == (PINNED[cmd], "")


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


def test_out_that_cannot_be_written_is_computation_error(tmp_path, capsys):
    # a missing directory: one error line and exit 2, as an unreadable
    # --baseline gives, and no traceback
    path = tmp_path / "missing" / "o.csv"
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "6", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not path.parent.exists()


def test_render_error_in_a_later_block_writes_no_file(tmp_path, monkeypatch, capsys):
    # a bound that lets its overflow through as an infinite rhs at n = 2, in
    # the second block of one record: every block is rendered before any is
    # written
    monkeypatch.setattr(experiments, "_BLOCK", 1)
    monkeypatch.setattr(experiments, "bound", lambda lhs, hA, eps, C: (lhs, hA, eps * hA + C,
                                                                        True))
    path = tmp_path / "r.json"
    assert main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "2", "--eps", "1.7e308",
                 "--format", "json", "--out", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: Out of range float values are not JSON compliant: inf\n")
    assert not path.exists()


def test_baseline_is_compared_block_by_block(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "_BLOCK", 3)
    argv = ["gcdpow", "--a", "2", "--b", "3", "--nmax", "10"]
    good = tmp_path / "good.csv"
    assert main(argv + ["--out", str(good)]) == 0
    text = good.read_bytes()
    assert main(argv + ["--baseline", str(good)]) == 0
    # a prefix, an extra byte, a change in the last block, a CRLF ending and
    # bytes that are not UTF-8 each differ
    for bad in (text[:-1], text + b"\n", text[:-3] + b"9\n", text.replace(b"\n", b"\r\n"),
                text[:40] + b"\xff" + text[41:]):
        (tmp_path / "bad.csv").write_bytes(bad)
        assert main(argv + ["--baseline", str(tmp_path / "bad.csv")]) == 3
    assert capsys.readouterr().err == f"baseline mismatch against {tmp_path / 'bad.csv'}\n" * 5


def test_eds_csv_in_blocks_is_one_table(monkeypatch, capsys):
    # eds renders its terms, not a sweep's records, through the same blocks
    assert main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "10"]) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(experiments, "_BLOCK", 3)
    assert main(["eds", "--curve", C37, "--point", "0,0", "--nmax", "10"]) == 0
    terms = eds(Curve(0, 0, 1, -1, 0), Point(Fraction(0), Fraction(0)), 10)
    assert capsys.readouterr().out == whole == _one_join_csv(("n", "d"), enumerate(terms, 1))


def test_large_sweep_is_written_in_blocks_near_its_own_size(tmp_path, monkeypatch, capsys):
    # 45,796 CZ cells as 9.6 MB of JSON: above the run's records, main holds
    # the blocks and one block's encoding, render_json the blocks and their join
    params = {"primes": [2, 3, 5], "bound": 2000, "eps": 0.25}
    result = run(SweepConfig(kind=SweepKind.CZ_TRICHOTOMY, parameters=params))
    assert len(result.records) == 45796
    monkeypatch.setattr(cli, "run", lambda config, jobs: result)
    config, path = tmp_path / "cz.json", tmp_path / "out.json"
    config.write_text(json.dumps({"kind": "CZ_TRICHOTOMY", "parameters": params}))
    tracemalloc.start()
    try:
        assert main(["sweep", "--config", str(config), "--format", "json",
                     "--out", str(path)]) == 0
        main_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        text = render_json(result)
        render_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == text and size == len(text) > 9 * 10 ** 6
    assert main_peak <= 1.3 * size
    assert render_peak <= 2.2 * size


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


@pytest.mark.parametrize("q", [[0, 0], [0, -1]], ids=["P", "-P"])
def test_abelian_rejects_q_equal_to_plus_or_minus_p(q, tmp_path, capsys):
    # (nP, nQ) then lies on a curve in E x E, whatever the config vouches
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "ABELIAN_GROWTH", "parameters": {
        "curve": [0, 0, 1, -1, 0], "p": [0, 0], "q": q, "n_max": 5, "eps": 0.3,
        "independence_asserted": True}}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: q must not be p or -p: the points are dependent\n")


@pytest.mark.parametrize("argv", [
    ["edsgcd", "--curve", "0,0,0,0,1", "--point", "2,3", "--nmax", "5", "--eps", "0.2"],
    ["mixed", "--curve", "0,0,0,0,1", "--point", "2,3", "--primes", "2,3", "--nmax", "5",
     "--eps", "0.4"],
    ["eds", "--curve", "0,0,0,0,1", "--point", "2,3", "--nmax", "5"],
    ["sweep", "--config"],
], ids=["edsgcd", "mixed", "eds", "siegel"])
def test_torsion_point_is_one_computation_error(argv, tmp_path, capsys):
    # (2, 3) on y^2 = x^3 + 1 has order 6, past every n_max here
    path = tmp_path / "siegel.json"
    path.write_text(json.dumps({"kind": "SIEGEL", "parameters": {
        "curve": [0, 0, 0, 0, 1], "point": [2, 3], "n_max": 5}}))
    assert main(argv + [str(path)] * (argv[0] == "sweep")) == 2
    assert capsys.readouterr() == ("", "error: point has finite order 6\n")


def test_main_builds_one_parser_and_keeps_its_results(capsys):
    calls = [["gcdpow", "--a", "2", "--b", "3", "--nmax", "6"], ["--help"],
             ["gcdpow", "--help"], ["gcdpow", "--a", "2"], ["gcdpow", "--bogus"],
             ["gcdpow", "--a", "4", "--b", "8", "--nmax", "5"], ["--version"]]
    cli._build_parser.cache_clear()
    first = [(main(argv), *capsys.readouterr()) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 1, 1, 2, 0]
    assert [(main(argv), *capsys.readouterr()) for argv in calls] == first
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser().format_help() == cli._build_parser.__wrapped__().format_help()


def test_sweep_reingests_emitted_json(tmp_path, capsys):
    first = tmp_path / "first.json"
    rc = main(["gcdpow", "--a", "2", "--b", "3", "--nmax", "12",
               "--format", "json", "--out", str(first)])
    assert rc == 0
    rc = main(["sweep", "--config", str(first), "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == first.read_text()


# Each kind with a real parameter, and how to draw its reals at random: a
# real of 17 significant digits must come back from the result exactly.
REAL_PARAMS = {
    "BCZ": {"eps": (0.1, 1.0), "C": (-1.0, 1.0)},
    "CZ_TRICHOTOMY": {"eps": (0.3, 1.0)},
    "EDS_GCD": {"eps": (0.05, 0.5), "C": (-1.0, 1.0)},
    "PN_CHECK": {"eps": (0.1, 0.9), "C": (-1.0, 1.0), "delta": (0.5, 20.0)},
    "MIXED_CHECK": {"eps": (0.1, 1.0), "C": (0.5, 2.0)},
    "ABELIAN_GROWTH": {"eps": (0.1, 1.0), "C": (-1.0, 1.0)},
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", REAL_PARAMS)
def test_emitted_json_echoes_real_inputs_exactly_and_reruns(kind, jobs, tmp_path, capsys):
    rng = random.Random(f"{kind}:{jobs}")
    for _ in range(3):
        params = {**VALID[kind], **{k: rng.uniform(*span)
                                    for k, span in REAL_PARAMS[kind].items()}}
        cfg, first = tmp_path / "cfg.json", tmp_path / "first.json"
        cfg.write_text(json.dumps({"kind": kind, "parameters": params, "seed": 5}))
        assert main(["sweep", "--config", str(cfg), "--format", "json", "--jobs", jobs,
                     "--out", str(first)]) == 0
        assert json.loads(first.read_text())["config"]["parameters"] == params
        assert main(["sweep", "--config", str(first), "--format", "json", "--jobs", jobs,
                     "--baseline", str(first)]) == 0
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


@pytest.mark.parametrize("text", [b"{\n'a': 2}", b"\xff\xfe{"], ids=["json", "utf-8"])
@pytest.mark.parametrize("cmd", ["gcdpow", "eds", "sweep"])
def test_config_that_is_not_valid_json_is_usage_error(cmd, text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main([cmd, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: config file {path} is not valid JSON: ")


@pytest.mark.parametrize("cmd", ["gcdpow", "eds", "sweep"])
def test_config_file_that_cannot_be_read_is_computation_error(cmd, tmp_path, capsys):
    assert main([cmd, "--config", str(tmp_path / "missing.json")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


BCZ5 = {"a": 2, "b": 3, "n_max": 5, "eps": 0.5}


@pytest.mark.parametrize("doc, code, message", [
    ({"kind": "BCZ", "parameters": 5}, 1, "'parameters' that are not a JSON object"),
    ({"kind": "BCZ", "parameters": BCZ5, "seed": None}, 1,
     "'seed' that is not an integer"),
    ({"kind": "BCZ", "parameters": {**BCZ5, "n_max": [3]}}, 2,
     "n_max must be an integer"),
    ({"kind": "CZ_TRICHOTOMY", "parameters": {"primes": [2, 3], "bound": None,
                                              "eps": 0.5}}, 2,
     "bound must be an integer"),
    ({"kind": "BCZ", "parameters": {**BCZ5, "error_budget": None}}, 2,
     "error_budget must be a non-negative integer"),
    ({"kind": "BCZ", "parameters": {**BCZ5, "error_budget": -1}}, 2,
     "error_budget must be a non-negative integer"),
], ids=["parameters", "seed", "n_max", "cz-bound", "error_budget",
        "negative-error_budget"])
def test_config_value_of_the_wrong_json_type_is_one_error(doc, code, message,
                                                          tmp_path, capsys):
    # each of these used to end in an uncaught traceback: a TypeError, or
    # for the negative budget an IndexError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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


@pytest.mark.parametrize("key", ["nmax", "ignore_prime", "error_budget"])
def test_eds_config_rejects_unknown_keys(key, tmp_path, capsys):
    # a misspelled ignore list used to be dropped, and the run went unstripped
    params = {"curve": [0, 0, 1, -1, 0], "point": [0, 0], "n_max": 4, key: 2}
    path = tmp_path / "eds.json"
    path.write_text(json.dumps({"parameters": params}))
    assert main(["eds", "--config", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: EDS config has unknown key {key!r}\n"


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
     {"polys": ["X1-X0", "X2-X0"], "primes": [2], "bound": 2,
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


# ----------------------------------------------------------------------------
# the parameter tables, through sweep --config
# ----------------------------------------------------------------------------

# One small valid config per kind; the tests below change one key at a time.
VALID = {
    "BCZ": {"a": 2, "b": 3, "n_max": 2, "eps": 0.5},
    "CZ_TRICHOTOMY": {"primes": [2], "bound": 4, "eps": 0.5},
    "AR_RETURNS": {"a": 2, "b": 3, "n_max": 2},
    "EDS_GCD": {"curve": C37_LIST, "p": [0, 0], "m_max": 2, "n_max": 2, "eps": 0.2},
    "PN_CHECK": {"polys": ["X1-X0", "X2-X0"], "primes": [2], "bound": 2, "eps": 0.5},
    "MIXED_CHECK": {"curve": C37_LIST, "point": [0, 0], "primes": [3], "eps": 0.5,
                    "n_max": 2, "b_bound": 10},
    "SIEGEL": {"curve": C37_LIST, "point": [0, 0], "n_max": 2},
    "ABELIAN_GROWTH": {"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
                       "n_max": 2, "eps": 0.3, "independence_asserted": True},
}
# Keys where the fuzz skips its 400-digit int and 1e308, because each is a
# legal request which runs for a long time rather than fails: on these keys,
# the magnitude bounds of CZ_TRICHOTOMY, PN_CHECK and MIXED_CHECK, it asks for
# a grid of some 10^300 cells or more.  The size keys refuse both (see below),
# and 1e308 as eps or C overflows the bound of some cell.
BIG_IS_SLOW = {"bound", "b_bound"}


def _sweep(tmp_path, kind: str, params: dict, fmt: str = "json") -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": kind, "parameters": params}))
    return main(["sweep", "--config", str(path), "--format", fmt])


@pytest.mark.parametrize("kind", [k.value for k in SweepKind])
def test_fuzzed_parameters_end_in_an_exit_code(kind, tmp_path, capsys):
    assert _sweep(tmp_path, kind, VALID[kind]) == 0
    assert json.loads(capsys.readouterr().out)["records"]
    spec = SPECS[SweepKind(kind)]
    reals = [c for c, types in zip(spec.columns, spec.Row.types) if float in types]
    rng = random.Random(kind)
    big = rng.randrange(10**399, 10**400)
    values = [None, rng.random() < 0.5, 2.5, math.nan, math.inf, -math.inf,
              rng.choice(["0.5", "2", "x", ""]), [rng.randint(-3, 3) for _ in range(2)],
              {"x": rng.randint(-3, 3)}, -1, 0, big, 1e308, 1e-12, 5e-324]
    keys = [entry[0] for entry in spec.params] + ["error_budget"]
    for key in keys:
        for value in values:
            if key in BIG_IS_SLOW and value in (big, 1e308):
                continue
            ends = [(_sweep(tmp_path, kind, {**VALID[kind], key: value}, fmt),
                     *capsys.readouterr()) for fmt in ("csv", "json")]
            (code, csv_out, err), (_, out, _) = ends
            # CSV and JSON end alike: the same exit code and stderr
            assert ends[0][::2] == ends[1][::2], (key, value)
            assert code in (0, 1, 2), (key, value)
            if code:
                assert csv_out == out == "" and err.startswith("error: ") and err.count("\n") == 1
                continue
            # every real of the CSV is a finite float
            for row in _rows(csv_out):
                assert all(math.isfinite(float(row[c])) for c in reals if row[c]), (key, value)
            # an accepted config re-runs from its own output, byte for byte
            again = tmp_path / "again.json"
            again.write_text(out)
            assert main(["sweep", "--config", str(again), "--format", "json"]) == 0
            assert capsys.readouterr().out == out, (key, value)


@pytest.mark.parametrize("kind, change, message", [
    ("BCZ", {"a": 2.9}, "a must be an integer"),
    ("BCZ", {"n_max": 3.7}, "n_max must be an integer"),
    ("BCZ", {"n_max": True}, "n_max must be an integer"),
    ("BCZ", {"eps": "0.5"}, "eps must be a finite number"),
    ("EDS_GCD", {"curve": [0, 0, 1, -1.5, 0]}, "curve must be a list of integers"),
    ("PN_CHECK", {"r": 5}, "PN_CHECK config has unknown key 'r'"),
    # codim_r is the r of VojtaParams, which checks it
    ("PN_CHECK", {"codim_r": 1}, "r must be an integer >= 2"),
    ("PN_CHECK", {"codim_r": 10**400},
     "r is too large: r - 1 + delta*eps overflows a float"),
    ("BCZ", {"C": 10**400}, "C must be a finite number"),
], ids=["a", "n_max-float", "n_max-bool", "eps-string", "curve", "r-alias",
        "codim_r", "codim_r-huge", "C-huge"])
def test_bad_parameter_is_one_error_naming_the_key(kind, change, message,
                                                   tmp_path, capsys):
    assert _sweep(tmp_path, kind, {**VALID[kind], **change}) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# (kind, key) of each size key: the bound of a grid axis, which len() must count
SIZE_KEYS = [(kind.value, key) for kind in SweepKind
             for key, check, *_ in SPECS[kind].params if check is experiments._size]


def test_size_keys_are_the_index_bounds_of_six_kinds():
    assert {key for _, key in SIZE_KEYS} == {"n_max", "m_max", "n_min"}
    assert {kind for kind, _ in SIZE_KEYS} == {k.value for k in SweepKind} - {
        "CZ_TRICHOTOMY", "PN_CHECK"}
    assert {key: check for key, check, *_ in _EDS_PARAMS}["n_max"] is experiments._size


@pytest.mark.parametrize("value", [10**30, 1e30, sys.maxsize + 1])
@pytest.mark.parametrize("kind, key", SIZE_KEYS, ids=[f"{k}-{key}" for k, key in SIZE_KEYS])
def test_a_size_past_sys_maxsize_is_one_error_in_csv_and_json(kind, key, value,
                                                              tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": kind, "parameters": {**VALID[kind], key: value}}))
    for fmt in ("csv", "json"):
        assert main(["sweep", "--config", str(path), "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"error: {key} must be an integer <= {sys.maxsize}\n")
    assert experiments._size(key, sys.maxsize) == sys.maxsize


def test_integral_float_runs_as_its_integer(tmp_path, capsys):
    assert _sweep(tmp_path, "BCZ", {**VALID["BCZ"], "n_max": 4}) == 0
    as_int = json.loads(capsys.readouterr().out)
    assert _sweep(tmp_path, "BCZ", {**VALID["BCZ"], "n_max": 4.0}) == 0
    as_float = json.loads(capsys.readouterr().out)
    assert as_float["records"] == as_int["records"] and len(as_int["records"]) == 4


def _table(kind: SweepKind | None) -> dict:
    """A subcommand's parameter table as key -> its default entries (0 or 1)."""
    return {key: default for key, _, *default in
            (SPECS[kind].params if kind else _EDS_PARAMS)}


def _flags(cmd: str):
    """Each flag of ``cmd`` as (flag, keys, help, its CLI-only default entries)."""
    for flag, key, *rest in _SUBCOMMANDS[cmd][2]:
        yield flag, key if isinstance(key, tuple) else (key,), [*rest, None][0], rest[1:]


def test_flags_name_keys_of_their_table_and_two_cli_only_defaults():
    cli_only, helps = set(), {}
    for cmd, (kind, _, _) in _SUBCOMMANDS.items():
        table = _table(kind)
        for flag, keys, helps[cmd, flag], default in _flags(cmd):
            for k in keys:
                assert k in table, (cmd, flag)
                if default:
                    # the table requires the key, so the default is the CLI's own
                    assert not table[k], (cmd, flag)
                    cli_only.add((cmd, k))
    assert cli_only == {("gcdpow", "eps"), ("pncheck", "polys")}
    bbound = _table(SweepKind.MIXED_CHECK)["b_bound"][0]
    assert helps["mixed", "--bbound"].endswith(f"(default {bbound})")
    # codim_r has no value to show: by default it is the rank of linear forms
    assert _table(SweepKind.PN_CHECK)["codim_r"] == [None]
    assert helps["pncheck", "--codim"].endswith("(default: the rank of linear forms)")


NEEDS = {
    "gcdpow": "--a, --b and --nmax",
    "trichotomy": "--primes, --nmax and --eps",
    "returns": "--a, --b and --nmax",
    "eds": "--curve, --point and --nmax",
    "edsgcd": "--curve, --point, --nmax and --eps",
    "mixed": "--curve, --point, --primes, --nmax and --eps",
    "pncheck": "--primes, --nmax and --eps",
}


@pytest.mark.parametrize("cmd", list(_SUBCOMMANDS))
def test_subcommand_needs_the_flags_whose_keys_have_no_default(cmd, capsys):
    table = _table(_SUBCOMMANDS[cmd][0])
    needed = [flag for flag, keys, _, default in _flags(cmd)
              if not default and any(not table[k] for k in keys)]
    *most, last = needed
    assert f"{', '.join(most)} and {last}" == NEEDS[cmd]
    assert main([cmd]) == 1
    assert capsys.readouterr() == ("", f"error: {cmd} needs {NEEDS[cmd]}\n")


# ----------------------------------------------------------------------------
# README
# ----------------------------------------------------------------------------

def _readme_commands() -> list[str]:
    """The lines of README's "Command line" block, without prompt or comment."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("  #")[0].strip() for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_run(line, tmp_path, monkeypatch, capsys):
    prog, *argv = shlex.split(line)
    assert prog == "gcdheights"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(
        {"kind": "BCZ", "parameters": {"a": 2, "b": 3, "n_max": 40, "eps": 0.5}}))
    assert main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out
