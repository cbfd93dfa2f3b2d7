"""Multiplicative-group division sequences and the gcd scans over them.

The BCZ and AR_RETURNS scans run as sweeps, so their tests go through run().
"""
from __future__ import annotations

import json
import random
from fractions import Fraction as F
from math import gcd

import pytest

from gcdheights import (
    EXCEPTIONAL,
    INEQUALITY_HOLDS,
    POWER_RELATION,
    MulPoint,
    PrimeSet,
    SweepConfig,
    SweepKind,
    cz_classify,
    divisibility_check,
    gcd_pair,
    mul_seq,
    power,
    run,
    s_unit_enumerate,
)
from gcdheights.mulgrp import mul_D

# Frozen from the first verified run of this suite.
BCZ_VIOLATIONS_EPS05_N300 = (4, 12, 36)
AR_RETURNS_200_COUNT = 89
AR_RETURNS_200_DENSITY = 0.445
AR_RETURNS_200_HEAD = (1, 2, 3, 5, 7, 9, 13, 14, 15, 17, 19, 21)
CZ_S23_B1E4_COUNTS = {POWER_RELATION: 536, INEQUALITY_HOLDS: 15922, EXCEPTIONAL: 966}


# ----------------------------------------------------------------------------
# points and division values
# ----------------------------------------------------------------------------

def test_mulpoint_normalizes():
    p = MulPoint(4, -2)
    assert (p.a, p.b) == (-2, 1)
    assert MulPoint(6, 4).ratio() == F(3, 2)


def test_mulpoint_rejects_degenerate():
    with pytest.raises(ValueError):
        MulPoint(0, 5)
    with pytest.raises(ValueError):
        MulPoint(3, 3)          # +1 is a unit
    with pytest.raises(ValueError):
        MulPoint(-3, 3)         # -1 is a unit
    with pytest.raises(ValueError):
        MulPoint(1, 0)


def test_mul_seq_oracle():
    # |3^n - 2^n| for n = 1..3: 1, 5, 19
    assert mul_seq(MulPoint(3, 2), 3).terms == (1, 5, 19)


def test_mul_seq_agrees_with_power_route():
    p = MulPoint(5, 3)
    seq = mul_seq(p, 8)
    for n in range(1, 9):
        assert mul_D(power(p, n)) == seq.terms[n - 1]


def test_mul_seq_is_strong_divisibility_sequence():
    # gcd(t_m, t_n) == t_gcd(m,n), the defining identity of these sequences
    for a, b in ((3, 2), (5, 2), (7, 4), (10, 3)):
        t = mul_seq(MulPoint(a, b), 12).terms
        for m in range(1, 13):
            for n in range(1, 13):
                assert gcd(t[m - 1], t[n - 1]) == t[gcd(m, n) - 1]


def test_divisibility_check_reports_earliest_failure():
    assert divisibility_check((1, 2, 3, 4, 5, 6)).ok
    rep = divisibility_check((2, 3, 4))
    assert not rep.ok and rep.counterexample == (1, 2)
    rep = divisibility_check((1, 2, 1, 5))
    assert not rep.ok and rep.counterexample == (2, 4)


# ----------------------------------------------------------------------------
# the exponential gcd scans
# ----------------------------------------------------------------------------

def test_gcd_pair_oracles():
    assert gcd_pair(2, 3, 4) == 5             # gcd(15, 80)
    assert gcd_pair(2, 3, 6) == 7             # gcd(63, 728)
    assert gcd_pair(2, 3, 5) == 1
    with pytest.raises(ValueError):
        gcd_pair(1, 3, 2)
    with pytest.raises(ValueError):
        gcd_pair(2, 3, 0)


def _bcz(a: int, b: int, eps: float, n_max: int):
    return run(SweepConfig(kind=SweepKind.BCZ,
                           parameters={"a": a, "b": b, "eps": eps, "n_max": n_max}))


def _ar(a: int, b: int, n_max: int):
    return run(SweepConfig(kind=SweepKind.AR_RETURNS,
                           parameters={"a": a, "b": b, "n_max": n_max}))


def _violations(res) -> tuple[int, ...]:
    return tuple(r["n"] for r in res.records if r["holds"] is False)


def test_bcz_scan_frozen_violations():
    res = _bcz(2, 3, 0.5, 300)
    assert _violations(res) == BCZ_VIOLATIONS_EPS05_N300
    assert res.summary["max_violating_index"] == [36]


def test_bcz_scan_generous_eps_has_no_violations():
    res = _bcz(2, 3, 0.9, 50)
    assert _violations(res) == ()
    assert res.summary["max_violating_index"] is None


def test_bcz_scan_rejects_dependent_pair():
    with pytest.raises(ValueError, match="dependent"):
        _bcz(4, 8, 0.5, 10)
    with pytest.raises(ValueError, match="eps"):
        _bcz(2, 3, 0.0, 10)


def test_s_unit_enumerate_small_oracle():
    S = PrimeSet((2, 3))
    got = s_unit_enumerate(S, 12)
    assert got == [-2, 2, -3, 3, -4, 4, -6, 6, -8, 8, -9, 9, -12, 12]
    assert s_unit_enumerate(PrimeSet(()), 100) == []
    assert s_unit_enumerate(S, 1) == []


def test_s_unit_enumerate_count_at_1e4():
    assert len(s_unit_enumerate(PrimeSet((2, 3)), 10**4)) == 132


def test_cz_classify_power_relation():
    v = cz_classify(4, 8, PrimeSet((2,)), 0.4)
    assert v.kind == POWER_RELATION and (v.m, v.n) == (3, 2)   # 4^3 == 8^2
    v = cz_classify(-2, 4, PrimeSet((2,)), 0.4)
    assert v.kind == POWER_RELATION and (v.m, v.n) == (2, 1)   # (-2)^2 == 4


def test_cz_classify_inequality_holds():
    v = cz_classify(2, 9, PrimeSet((2, 3)), 0.9)
    assert v.kind == INEQUALITY_HOLDS and v.m is None


def test_cz_classify_exceptional():
    # gcd(-4-1, 6-1) = 5 > max(4,6)^0.25, and no power relation exists
    v = cz_classify(-4, 6, PrimeSet((2, 3)), 0.25)
    assert v.kind == EXCEPTIONAL


def test_cz_classify_domain_errors():
    S = PrimeSet((2, 3))
    with pytest.raises(ValueError, match="absolute value"):
        cz_classify(1, 8, S, 0.5)
    with pytest.raises(ValueError, match="S-unit"):
        cz_classify(5, 8, S, 0.5)
    with pytest.raises(ValueError, match="eps"):
        cz_classify(2, 3, S, 0.0)


def test_cz_classify_matches_frozen_census(data_dir):
    # full trichotomy census over the 132 x 132 unit pairs, against the
    # golden file written by the first verified run
    with open(data_dir / "cz_exceptional_s23_b1e4_eps025.json") as fh:
        golden = json.load(fh)
    S = PrimeSet((2, 3))
    units = s_unit_enumerate(S, 10**4)
    counts = {POWER_RELATION: 0, INEQUALITY_HOLDS: 0, EXCEPTIONAL: 0}
    exceptional = []
    for a in units:
        for b in units:
            v = cz_classify(a, b, S, 0.25)
            counts[v.kind] += 1
            if v.kind == EXCEPTIONAL:
                exceptional.append([a, b])
    assert counts == CZ_S23_B1E4_COUNTS == golden["counts"]
    assert exceptional == golden["exceptional_pairs"]


def test_ar_returns_small_oracle():
    s = _ar(2, 3, 10).summary
    assert s["return_indices"] == [1, 2, 3, 5, 7, 9]
    assert s["density"] == 0.6


def test_ar_returns_frozen_census():
    s = _ar(2, 3, 200).summary
    assert s["returns"] == len(s["return_indices"]) == AR_RETURNS_200_COUNT
    assert s["density"] == AR_RETURNS_200_DENSITY
    assert tuple(s["return_indices"][:12]) == AR_RETURNS_200_HEAD


def test_ar_returns_rejects_dependent_pair():
    with pytest.raises(ValueError, match="dependent"):
        _ar(2, 4, 10)


def test_scan_results_consistent_with_each_other():
    # a bcz violation at eps cannot be a return unless the base gcd is large
    rng = random.Random(11)
    for _ in range(20):
        a = rng.randint(2, 40)
        b = rng.randint(2, 40)
        try:
            scan = _bcz(a, b, 0.5, 60)
            rets = _ar(a, b, 60)
        except ValueError:
            continue            # dependent pair drawn
        base = gcd_pair(a, b, 1)
        for n in _violations(scan):
            if n in rets.summary["return_indices"]:
                assert gcd_pair(a, b, n) == base
