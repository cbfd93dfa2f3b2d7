"""Release gate: ten end-to-end checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints the measured quantity (time, margin, count)
so a run under ``-s`` doubles as a report.  Frozen values in this file were
produced by the first verified run and are regression anchors: a change that
moves them is a behaviour change, not a tolerance issue.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from math import gcd
from time import perf_counter

from gcdheights import (
    EXCEPTIONAL,
    INEQUALITY_HOLDS,
    POWER_RELATION,
    PnPoint,
    PolySystem,
    PrimeSet,
    SweepConfig,
    SweepKind,
    canonical_height,
    cz_classify,
    denominator_D,
    eds,
    hgcd,
    hgcd_pn_subvariety,
    render_csv,
    run,
    s_unit_enumerate,
    scalar_mul,
)

# first-verified-run anchors
BCZ_VIOLATIONS = (4, 12, 36)
SIEGEL_TAIL_MARGIN = 0.08724073499537599   # max |ratio - 1| over n in [20, 40]
CZ_UNIT_COUNT = 132


def test_01_gcd_height_witness_equals_gcd():
    rng = random.Random(0xC0FFEE)
    pairs = []
    while len(pairs) < 1000:
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if a == 0 and b == 0:
            continue
        pairs.append((a, b))
    t0 = perf_counter()
    failures = sum(
        1 for a, b in pairs if hgcd(F(a), F(b)).exact_arg != gcd(a, b)
    )
    dt = perf_counter() - t0
    assert failures == 0
    assert dt < 1.0, f"1000 gcd heights took {dt:.3f}s (budget 1s)"
    print(f"criterion 1 PASS: 1000/1000 witnesses exact in {dt:.3f}s")


def test_02_point_doubling_oracle(cm2, pm2):
    q = scalar_mul(cm2, 2, pm2)
    assert q.x == F(129, 100)
    assert denominator_D(q) == 10
    print("criterion 2 PASS: x(2P) = 129/100, D = 10 exactly")


def test_03_eds_divisibility_to_40(c37, p37):
    t0 = perf_counter()
    terms = eds(c37, p37, 40)
    for n in range(1, 41):
        for m in range(1, n + 1):
            if n % m == 0:
                assert terms[n - 1] % terms[m - 1] == 0, (m, n)
    dt = perf_counter() - t0
    assert dt < 30.0, f"EDS divisibility check took {dt:.3f}s (budget 30s)"
    print(f"criterion 3 PASS: D_m | D_n for all m|n <= 40 in {dt:.3f}s")


def test_04_gcd_of_coprime_multiples_divides_base(c37, p37):
    terms = eds(c37, p37, 50)
    checked = 0
    for n1, n2 in ((1, 2), (2, 3), (3, 5)):
        for k in range(1, 11):
            g = gcd(terms[n1 * k - 1], terms[n2 * k - 1])
            assert terms[k - 1] % g == 0, (n1, n2, k)
            checked += 1
    print(f"criterion 4 PASS: gcd(D_n1T, D_n2T) | D_T for {checked} cases")


def test_05_power_gcd_scan_golden(data_dir):
    t0 = perf_counter()
    cfg = SweepConfig(
        kind=SweepKind.BCZ,
        parameters={"a": 2, "b": 3, "n_max": 300, "eps": 0.5, "C": 0.0},
    )
    res = run(cfg)
    got = render_csv(res)
    dt = perf_counter() - t0
    violations = tuple(r.n for r in res.records if r.holds is False)
    assert violations == BCZ_VIOLATIONS
    assert res.summary["max_violating_index"] == [max(violations)]
    assert max(violations) < 300          # all below a finite index
    expected = (data_dir / "bcz_a2_b3_eps05_n300.csv").read_text()
    assert got == expected, "scan CSV deviates from frozen golden file"
    assert dt < 20.0, f"scan took {dt:.3f}s (budget 20s)"
    print(f"criterion 5 PASS: violations {violations}, "
          f"golden byte-identical, {dt:.3f}s")


def test_06_denominator_growth_tracks_height():
    res = run(SweepConfig(kind=SweepKind.SIEGEL, parameters={
        "curve": [0, 0, 1, -1, 0], "point": [0, 0], "n_min": 5, "n_max": 40}))
    ratios = {r.n: r.ratio for r in res.records}
    assert all(r <= 1 + 1e-9 for r in ratios.values())
    tail = max(abs(ratios[n] - 1.0) for n in range(20, 41))
    assert tail <= 0.25
    assert tail <= SIEGEL_TAIL_MARGIN + 1e-12, (
        f"tail margin {tail} exceeds frozen {SIEGEL_TAIL_MARGIN}"
    )
    print(f"criterion 6 PASS: tail max |ratio-1| = {tail:.6f} "
          f"(<= 0.25 and frozen {SIEGEL_TAIL_MARGIN:.6f})")


def test_07_canonical_height_quadraticity(c37, p37, cm2, pm2):
    tol = 1e-4
    worst = 0.0
    for c, p in ((c37, p37), (cm2, pm2)):
        h1 = canonical_height(c, p, tol)
        h2 = canonical_height(c, scalar_mul(c, 2, p), tol)
        worst = max(worst, abs(h2 - 4 * h1))
    assert worst < 10 * tol
    print(f"criterion 7 PASS: max |hhat(2P) - 4*hhat(P)| = {worst:.2e} "
          f"< {10 * tol:.0e}")


def test_08_s_unit_trichotomy_totality():
    S = PrimeSet((2, 3))
    units = s_unit_enumerate(S, 10**4)
    assert len(units) == CZ_UNIT_COUNT
    kinds = {POWER_RELATION, INEQUALITY_HOLDS, EXCEPTIONAL}
    bound = math.ceil(1 / 0.25)
    t0 = perf_counter()
    seen = 0
    for a in units:
        for b in units:
            v = cz_classify(a, b, S, 0.25)
            assert v.kind in kinds, (a, b, v.kind)
            brute = any(
                a**m == b**n
                for m in range(1, bound + 1)
                for n in range(1, bound + 1)
            )
            assert (v.kind == POWER_RELATION) == brute, (a, b, v.kind)
            seen += 1
    dt = perf_counter() - t0
    assert seen == CZ_UNIT_COUNT**2
    assert dt < 60.0, f"census took {dt:.3f}s (budget 60s)"
    print(f"criterion 8 PASS: {seen} pairs, one verdict each, "
          f"power relations match brute force, {dt:.3f}s")


def test_09_blowup_height_equals_plain_gcd_height():
    system = PolySystem.of("X1-X0", "X2-X0")
    coord = PolySystem.of("X1", "X2")  # the coordinate point [1:0:0]
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if a == 1 and b == 1:
            continue
        x = PnPoint((1, a, b))
        # values of the cutting forms at [1:a:b] are (a-1, b-1) and (a, b)
        assert (hgcd_pn_subvariety(x, system).exact_arg
                == hgcd(F(a - 1), F(b - 1)).exact_arg)
        if not (a == 0 and b == 0):
            assert (hgcd_pn_subvariety(x, coord).exact_arg
                    == hgcd(F(a), F(b)).exact_arg)
        checked += 1
    print(f"criterion 9 PASS: witness equality on {checked} pairs "
          "(the diagonal and the coordinate point)")


def test_10_sweeps_are_deterministic_and_parallel_safe(forced_pool):
    configs = [
        SweepConfig(
            kind=SweepKind.BCZ,
            parameters={"a": 2, "b": 3, "n_max": 150, "eps": 0.5, "C": 0.0},
        ),
        SweepConfig(
            kind=SweepKind.EDS_GCD,
            parameters={"curve": [0, 0, 1, -1, 0], "p": [0, 0],
                        "m_max": 8, "n_max": 8, "eps": 0.2, "C": 0.0},
        ),
        SweepConfig(
            kind=SweepKind.CZ_TRICHOTOMY,
            parameters={"primes": [2, 3], "bound": 100, "eps": 0.25},
        ),
        SweepConfig(
            kind=SweepKind.PN_CHECK,
            parameters={"polys": ["X1-X0", "X2-X0"], "primes": [2, 3],
                        "bound": 6, "eps": 0.4, "sample": 40},
            seed=5,
        ),
        SweepConfig(
            kind=SweepKind.MIXED_CHECK,
            parameters={"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                        "primes": [2, 3], "eps": 0.4, "n_max": 6, "b_bound": 30},
        ),
        SweepConfig(
            kind=SweepKind.AR_RETURNS,
            parameters={"a": 2, "b": 3, "n_max": 120},
        ),
        SweepConfig(
            kind=SweepKind.SIEGEL,
            parameters={"curve": [0, 0, 1, -1, 0], "point": [0, 0],
                        "n_min": 5, "n_max": 40},
        ),
        SweepConfig(
            kind=SweepKind.ABELIAN_GROWTH,
            parameters={"curve": [0, 1, 1, -2, 0], "p": [0, 0], "q": [1, 0],
                        "n_max": 12, "eps": 0.3, "independence_asserted": True},
        ),
    ]
    for cfg in configs:
        first = render_csv(run(cfg))
        assert render_csv(run(cfg)) == first
        assert render_csv(run(cfg, jobs=8)) == first
    assert len(forced_pool) == len(configs)
    print("criterion 10 PASS: run-twice and jobs 1 vs 8 byte-identical "
          f"for {len(configs)} sweep kinds")
