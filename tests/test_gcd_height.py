"""Projective points, homogeneous forms, and the inequality evaluators."""
from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd, isclose, log

import pytest

from gcdheights import (
    Curve,
    Point,
    PnPoint,
    PolySystem,
    PrimeSet,
    SweepConfig,
    SweepKind,
    SweepResult,
    VojtaParams,
    bound,
    check_mixed,
    check_pn,
    counting_function_pn,
    denominator_D,
    hgcd,
    hgcd_pn_subvariety,
    naive_height,
    parse_poly,
    scalar_mul,
)
from gcdheights.arith import EPS_SLACK
from gcdheights.experiments import SPECS, _checked

DIAG = PolySystem.of("X1-X0", "X2-X0")


def _kernel_row(kind: SweepKind, ctx: tuple, axes: tuple, cells: range) -> tuple:
    """The one row by which ``kind``'s range kernel extends empty columns."""
    out = tuple([] for _ in SPECS[kind].columns)
    SPECS[kind].rows(ctx, axes, cells, out)
    [row] = SweepResult(SweepConfig(kind, {}), out, {}).records
    return row
COORD = PolySystem.of("X1", "X2")  # the coordinate point [1:0:0]


# ----------------------------------------------------------------------------
# projective points
# ----------------------------------------------------------------------------

def test_pnpoint_validation():
    PnPoint((1, 2, 3))
    with pytest.raises(ValueError, match="primitive"):
        PnPoint((2, 4, 6))
    with pytest.raises(ValueError, match="sign"):
        PnPoint((-1, 2, 3))
    with pytest.raises(ValueError, match="zero vector"):
        PnPoint((0, 0))


# ----------------------------------------------------------------------------
# homogeneous forms
# ----------------------------------------------------------------------------

def test_parse_poly_basic():
    f = parse_poly("X1-X0")
    assert f.is_homogeneous()
    assert f((1, 5, 9)) == 4
    g = parse_poly("X0*X2-X1^2")
    assert g((1, 5, 9)) == 9 - 25


def test_parse_poly_coefficients_and_merging():
    f = parse_poly("2*X0^2-3*X1*X2+X0^2")
    assert f((2, 1, 1)) == 3 * 4 - 3
    assert parse_poly("X0-X0").is_zero


def test_parse_poly_rejects_garbage():
    with pytest.raises(ValueError, match="cannot parse"):
        parse_poly("X0+y")
    with pytest.raises(ValueError, match="empty"):
        parse_poly("   ")


def test_poly_str_round_trip():
    for text in ("X1-X0", "X0*X2-X1^2", "2*X0^2-3*X1*X2", "-X0+5*X2^3"):
        f = parse_poly(text)
        assert parse_poly(str(f)) == f


def test_polysystem_validation():
    with pytest.raises(ValueError, match="homogeneous"):
        PolySystem.of("X0-X1^2")
    with pytest.raises(ValueError, match="at least one"):
        PolySystem(polys=())
    with pytest.raises(ValueError, match="zero polynomial"):
        PolySystem.of("X0-X0")


# ----------------------------------------------------------------------------
# blowup gcd heights
# ----------------------------------------------------------------------------

def test_coordpoint_height_witness():
    assert hgcd_pn_subvariety(PnPoint((1, 6, 10)), COORD).exact_arg == 2
    assert hgcd_pn_subvariety(PnPoint((3, 5, 0)), COORD).exact_arg == 5
    with pytest.raises(ValueError, match="point on V"):
        hgcd_pn_subvariety(PnPoint((1, 0, 0)), COORD)


def test_subvariety_height_witness():
    # values of (X1-X0, X2-X0) at [1:5:9] are (4, 8)
    assert hgcd_pn_subvariety(PnPoint((1, 5, 9)), DIAG).exact_arg == 4
    with pytest.raises(ValueError, match="point on V"):
        hgcd_pn_subvariety(PnPoint((1, 1, 1)), DIAG)


def test_subvariety_height_matches_plain_gcd_height():
    # the blowup route through values of (X1-X0, X2-X0) at [1:a:b] must agree
    # witness-for-witness with the direct gcd height of (a-1, b-1), and
    # through (X1, X2), the coordinate point, with the gcd height of (a, b)
    rng = random.Random(31337)
    for _ in range(300):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        if a == 1 and b == 1:
            continue
        x = PnPoint((1, a, b))
        assert hgcd_pn_subvariety(x, DIAG).exact_arg == hgcd(F(a - 1), F(b - 1)).exact_arg
        if a == 0 and b == 0:
            continue
        assert hgcd_pn_subvariety(x, COORD).exact_arg == hgcd(F(a), F(b)).exact_arg


def test_counting_function():
    S = PrimeSet((2, 3))
    r = counting_function_pn(PnPoint((1, 6, 10)), S)
    assert r.exact_arg == 5                    # 60 with 2s and 3s stripped
    with pytest.raises(ValueError, match="zero coordinate"):
        counting_function_pn(PnPoint((0, 1, 2)), S)


# ----------------------------------------------------------------------------
# the bound evaluator
# ----------------------------------------------------------------------------

def test_vojta_params_validation():
    VojtaParams(epsilon=0.5)
    with pytest.raises(ValueError, match="epsilon"):
        VojtaParams(epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        VojtaParams(epsilon=float("nan"))
    with pytest.raises(ValueError, match="delta"):
        VojtaParams(epsilon=0.5, delta=0.0)
    with pytest.raises(ValueError, match="delta must be positive"):
        VojtaParams(epsilon=0.5, delta=float("nan"))
    for delta in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            VojtaParams(epsilon=0.5, delta=delta)
    with pytest.raises(ValueError, match="C must not be NaN"):
        VojtaParams(epsilon=0.5, C=float("nan"))
    for C in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="C must be finite"):
            VojtaParams(epsilon=0.5, C=C)
    with pytest.raises(ValueError, match="r must be an integer >= 2"):
        VojtaParams(epsilon=0.5, r=1)
    with pytest.raises(ValueError, match="< r - 1"):
        VojtaParams(epsilon=1.0, r=2)


def test_vojta_rhs_oracle():
    p = VojtaParams(epsilon=0.1, delta=1.0, C=0.0, r=2)
    lhs, hA, rhs, holds = bound(0.5, 10.0, p.epsilon, p.C, 0.0, p.weight)
    assert isclose(rhs, 1.0, rel_tol=1e-12)
    assert (lhs, hA, holds) == (0.5, 10.0, True)
    p2 = VojtaParams(epsilon=0.5, delta=2.0, C=3.0, r=3)
    assert p2.weight == 3.0
    _, _, rhs, holds = bound(7.0, 2.0, p2.epsilon, p2.C, 6.0, p2.weight)
    assert isclose(rhs, 0.5 * 2 + 6 / 3.0 + 3.0, rel_tol=1e-12)
    assert not holds
    # no counting term by default: eps*hA + C, and + 0.0/1.0 is exact
    assert bound(0.0, 3.7, 0.3, -1.2)[2] == 0.3 * 3.7 + -1.2


def test_bound_is_the_one_inequality():
    # every row, check_pn, check_mixed and vojta-check take this tuple
    rng = random.Random(26)
    for _ in range(2000):
        args = [rng.uniform(-20, 20), rng.uniform(0, 50), rng.uniform(1e-3, 2),
                rng.choice([0.0, -0.0, rng.uniform(-5, 5)])]
        if rng.random() < 0.5:
            args += [rng.uniform(0, 30), rng.uniform(1, 5)]
        lhs, hA, rhs, holds = bound(*args)
        hcount, weight = (args[4:] or [0.0, 1.0])
        assert rhs == args[2] * args[1] + hcount / weight + args[3]
        assert (lhs, hA, holds) == (args[0], args[1], lhs <= rhs + EPS_SLACK)


def test_check_pn_oracle():
    S, p = PrimeSet((2, 3)), VojtaParams(epsilon=0.5)
    rec = check_pn(PnPoint((1, 5, 9)), DIAG, S, p)
    g, lhs, hA, hcount, rhs, holds = rec
    assert isclose(lhs, log(4), rel_tol=1e-12)
    assert g == 4
    assert isclose(hcount, log(5), rel_tol=1e-12)   # 1*5*9 without 3s
    assert isclose(hA, log(9), rel_tol=1e-12)
    want_rhs = 0.5 * log(9) + log(5) / 1.5
    assert isclose(rhs, want_rhs, rel_tol=1e-12)
    assert holds is True
    # in the column order of the PN_CHECK row, which holds it between its
    # index and its error, as the sweep's kernel builds it
    row = _kernel_row(SweepKind.PN_CHECK, (DIAG, S, p), (["1:5:9"],), range(1))
    assert row._fields[1:-1] == ("gcd", "lhs", "hA", "hcount", "rhs", "holds")
    assert row == ("1:5:9", *rec, None)


def test_eds_gcd_row_oracle(c37, p37):
    p8 = scalar_mul(c37, 8, p37)       # D = 5
    p16 = scalar_mul(c37, 16, p37)     # D = 65
    hA = naive_height(p8).value + naive_height(p16).value
    assert (denominator_D(p8), denominator_D(p16)) == (5, 65)
    params = {"curve": [0, 0, 1, -1, 0], "p": [0, 0], "m_max": 16, "n_max": 16,
              "eps": 0.3}
    spec = SPECS[SweepKind.EDS_GCD]
    ctx, axes = spec.prepare(_checked(SweepKind.EDS_GCD, params), 0)
    # the kernel on the one cell (8, 16) of the 16 x 16 grid
    row = _kernel_row(SweepKind.EDS_GCD, ctx, axes, range(7 * 16 + 15, 7 * 16 + 16))
    assert row[:5] == (8, 16, 5, 65, 5)    # m, n, D_8P, D_16P, their gcd
    assert isclose(row.lhs, log(5), rel_tol=1e-12)
    assert row.hA == hA
    assert isclose(row.rhs, 0.3 * hA, rel_tol=1e-12)
    assert (row.holds, row.exceptional, row.error) == (True, False, None)
    # an eps that is not positive never reaches a row: _checked refuses it up
    # front (test_cli.py::test_nan_eps_is_computation_error, edsgcd)


def test_check_mixed_oracle(cm2, pm2):
    d_q = denominator_D(scalar_mul(cm2, 2, pm2))    # D_Q = 10
    rec = check_mixed(d_q, b=9, S=PrimeSet((3,)), eps=0.5, C=1.0)
    g, lhs, hA, rhs, holds = rec
    assert isclose(lhs, log(2), rel_tol=1e-12)   # gcd(10, 8)
    assert g == 2
    assert hA == log(10)
    assert isclose(rhs, 0.5 * log(10), rel_tol=1e-12)
    assert holds is True
    # in the column order of the MIXED_CHECK row, after its index and D_Q, as
    # the sweep's kernel builds it on the cell (2, 9)
    row = _kernel_row(SweepKind.MIXED_CHECK, ([1, d_q], 0.5, 1.0), (range(1, 3), [9]),
                      range(1, 2))
    assert row._fields[3:-1] == ("gcd", "lhs", "hA", "rhs", "holds")
    assert row == (2, 9, d_q, *rec, None)


def test_check_mixed_domain(cm2, pm2):
    d_q = denominator_D(scalar_mul(cm2, 2, pm2))
    S = PrimeSet((3,))
    with pytest.raises(ValueError, match="S-unit"):
        check_mixed(d_q, b=10, S=S, eps=0.5)
    with pytest.raises(ValueError, match=r"\|b\| >= 2"):
        check_mixed(d_q, b=1, S=S, eps=0.5)
    with pytest.raises(ValueError, match="C must be positive"):
        check_mixed(d_q, b=9, S=S, eps=0.5, C=0.0)
    with pytest.raises(ValueError, match="C must be positive"):
        check_mixed(d_q, b=9, S=S, eps=0.5, C=float("nan"))
    with pytest.raises(ValueError, match="eps"):
        check_mixed(d_q, b=9, S=S, eps=-1.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        check_mixed(d_q, b=9, S=S, eps=float("nan"))


def test_bound_record_slack_is_tight():
    # a record that misses by more than the slack must report a violation
    rec = check_pn(PnPoint((1, 5, 9)), DIAG, PrimeSet((2, 3)),
                   VojtaParams(epsilon=0.5, C=-(0.5 * log(9) + log(5) / 1.5) + log(4) - 1e-6))
    assert rec[-1] is False
    # and one that misses by less than the slack holds
    assert bound(1.0 + EPS_SLACK / 2, 2.0, 0.5, 0.0)[3]
    assert not bound(1.0 + 2 * EPS_SLACK, 2.0, 0.5, 0.0)[3]
