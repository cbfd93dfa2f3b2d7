"""Gcds on the multiplicative group, the S-unit trichotomy, and their scans.

The BCZ and AR_RETURNS scans run as sweeps, so their tests go through run().
"""
from __future__ import annotations

import json
import random
import time
from math import ceil, gcd, log

import pytest

from gcdheights import (
    EXCEPTIONAL,
    INEQUALITY_HOLDS,
    POWER_RELATION,
    PrimeSet,
    SweepConfig,
    SweepKind,
    cz_classify,
    divisibility_check,
    gcd_pair,
    run,
    s_unit_enumerate,
)
from gcdheights.arith import EPS_SLACK

# Frozen from the first verified run of this suite.
BCZ_VIOLATIONS_EPS05_N300 = (4, 12, 36)
AR_RETURNS_200_COUNT = 89
AR_RETURNS_200_DENSITY = 0.445
AR_RETURNS_200_HEAD = (1, 2, 3, 5, 7, 9, 13, 14, 15, 17, 19, 21)
CZ_S23_B1E4_COUNTS = {POWER_RELATION: 536, INEQUALITY_HOLDS: 15922, EXCEPTIONAL: 966}


# ----------------------------------------------------------------------------
# divisibility sequences
# ----------------------------------------------------------------------------

def test_mul_seq_is_strong_divisibility_sequence():
    # gcd(t_m, t_n) == t_gcd(m,n) for t_n = gcd(a^n - 1, b^n - 1), the
    # defining identity of strong divisibility sequences
    for a, b in ((3, 2), (5, 2), (7, 4), (10, 3)):
        t = [gcd_pair(a, b, n) for n in range(1, 13)]
        for m in range(1, 13):
            for n in range(1, 13):
                assert gcd(t[m - 1], t[n - 1]) == t[gcd(m, n) - 1]
        assert divisibility_check(t).ok


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
    with pytest.raises(ValueError, match="eps must be positive"):
        cz_classify(2, 3, S, float("nan"))


def _cz_scan(alpha: int, beta: int, eps: float) -> tuple:
    """The O(ceil(1/eps)^3) scan cz_classify replaced: the slow oracle."""
    k_max = ceil(1 / eps)
    la, lb = log(abs(alpha)), log(abs(beta))
    for k in range(1, k_max + 1):
        for m in range(1, k + 1):
            for n in range(1, k + 1):
                if max(m, n) != k:
                    continue
                if abs(m * la - n * lb) > 1e-6:
                    continue
                if alpha**m == beta**n:
                    return (POWER_RELATION, m, n)
    g = gcd(abs(alpha - 1), abs(beta - 1))
    if log(g) <= eps * max(la, lb) + EPS_SLACK:
        return (INEQUALITY_HOLDS, None, None)
    return (EXCEPTIONAL, None, None)


@pytest.mark.parametrize("primes, bound, eps", [
    ((2,), 2**10, 0.05),
    ((3,), 3**6, 0.05),
    ((2, 3), 50, 0.05),
    ((2, 5), 64, 0.04),
    ((2, 3, 5), 20, 0.05),
])
def test_cz_classify_matches_scan_oracle(primes, bound, eps):
    S = PrimeSet(primes)
    units = s_unit_enumerate(S, bound)
    assert min(units) < 0
    for a in units:
        for b in units:
            v = cz_classify(a, b, S, eps)
            assert (v.kind, v.m, v.n) == _cz_scan(a, b, eps), (a, b)
            assert v.gcd == gcd(abs(a - 1), abs(b - 1))


def test_cz_classify_signs_force_even_exponents():
    S = PrimeSet((2, 3))
    v = cz_classify(-6, 6, S, 0.25)            # alpha = -beta
    assert (v.kind, v.m, v.n) == (POWER_RELATION, 2, 2)
    v = cz_classify(-2, 8, S, 0.1)             # |.|: (3, 1); sign: (-2)^3 < 0
    assert (v.kind, v.m, v.n) == (POWER_RELATION, 6, 2)
    v = cz_classify(-8, -2, S, 1 / 3)          # (-8)^1 == (-2)^3
    assert (v.kind, v.m, v.n) == (POWER_RELATION, 1, 3)


def test_cz_classify_relation_beyond_bound_falls_through():
    S = PrimeSet((2,))
    # 4^3 == 8^2, but max(3, 2) > ceil(1/0.5); gcd(3, 7) = 1
    v = cz_classify(4, 8, S, 0.5)
    assert (v.kind, v.m, v.n, v.gcd) == (INEQUALITY_HOLDS, None, None, 1)
    # (-2)^6 == 64 past ceil(1/0.25) = 4; gcd(3, 63) = 3 > 64^0.25
    v = cz_classify(-2, 64, S, 0.25)
    assert (v.kind, v.gcd) == (EXCEPTIONAL, 3)
    assert cz_classify(-2, 64, S, 1 / 6).m == 6


def test_cz_classify_small_eps_is_fast():
    t0 = time.perf_counter()
    v = cz_classify(6, 12, PrimeSet((2, 3)), 0.001)
    assert v.kind == INEQUALITY_HOLDS
    v = cz_classify(2**999, 2**1000, PrimeSet((2,)), 0.001)
    assert (v.kind, v.m, v.n) == (POWER_RELATION, 1000, 999)
    v = cz_classify(2**1000, 2**1001, PrimeSet((2,)), 0.001)
    assert v.kind != POWER_RELATION
    assert time.perf_counter() - t0 < 1.0


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
