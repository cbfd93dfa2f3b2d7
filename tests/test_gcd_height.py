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
    VojtaParams,
    check_e2,
    check_mixed,
    check_pn,
    counting_function_pn,
    denominator_D,
    hgcd,
    hgcd_pn_coordpoint,
    hgcd_pn_subvariety,
    naive_height,
    normalize_pn,
    parse_poly,
    scalar_mul,
    vojta_rhs,
)

DIAG = PolySystem.of("X1-X0", "X2-X0")


# ----------------------------------------------------------------------------
# projective points
# ----------------------------------------------------------------------------

def test_normalize_pn():
    assert normalize_pn([2, 4, 6]).coords == (1, 2, 3)
    assert normalize_pn([0, -2, 4]).coords == (0, 1, -2)
    assert normalize_pn([-1, 5, -9]).coords == (1, -5, 9)
    with pytest.raises(ValueError, match="zero vector"):
        normalize_pn([0, 0, 0])


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
    assert f.degree() == 1 and f.is_homogeneous()
    assert f((1, 5, 9)) == 4
    g = parse_poly("X0*X2-X1^2")
    assert g.degree() == 2
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
    with pytest.raises(ValueError, match="codimension"):
        PolySystem.of("X1-X0", "X2-X0", codim_r=1)


# ----------------------------------------------------------------------------
# blowup gcd heights
# ----------------------------------------------------------------------------

def test_coordpoint_height_witness():
    assert hgcd_pn_coordpoint(PnPoint((1, 6, 10))).exact_arg == 2
    assert hgcd_pn_coordpoint(PnPoint((3, 5, 0))).exact_arg == 5
    with pytest.raises(ValueError, match="blown-up locus"):
        hgcd_pn_coordpoint(PnPoint((1, 0, 0)))


def test_subvariety_height_witness():
    # values of (X1-X0, X2-X0) at [1:5:9] are (4, 8)
    assert hgcd_pn_subvariety(PnPoint((1, 5, 9)), DIAG).exact_arg == 4
    with pytest.raises(ValueError, match="point on V"):
        hgcd_pn_subvariety(PnPoint((1, 1, 1)), DIAG)


def test_subvariety_height_matches_plain_gcd_height():
    # the blowup route through values of (X1-X0, X2-X0) at [1:a:b] must agree
    # witness-for-witness with the direct gcd height of (a-1, b-1), and the
    # coordinate-point route with the gcd height of (a, b)
    rng = random.Random(31337)
    for _ in range(300):
        a = rng.randint(-500, 500)
        b = rng.randint(-500, 500)
        if a == 1 and b == 1:
            continue
        x = normalize_pn([1, a, b])
        assert hgcd_pn_subvariety(x, DIAG).exact_arg == hgcd(F(a - 1), F(b - 1)).exact_arg
        if a == 0 and b == 0:
            continue
        assert hgcd_pn_coordpoint(x).exact_arg == hgcd(F(a), F(b)).exact_arg


def test_counting_function():
    S = PrimeSet((2, 3))
    r = counting_function_pn(PnPoint((1, 6, 10)), S)
    assert r.exact_arg == 5                    # 60 with 2s and 3s stripped
    with pytest.raises(ValueError, match="zero coordinate"):
        counting_function_pn(PnPoint((0, 1, 2)), S)


# ----------------------------------------------------------------------------
# bound records
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
    with pytest.raises(ValueError, match="C must not be NaN"):
        VojtaParams(epsilon=0.5, C=float("nan"))
    with pytest.raises(ValueError, match="r must"):
        VojtaParams(epsilon=0.5, r=1)
    with pytest.raises(ValueError, match="< r - 1"):
        VojtaParams(epsilon=1.0, r=2)


def test_vojta_rhs_oracle():
    p = VojtaParams(epsilon=0.1, delta=1.0, C=0.0, r=2)
    assert isclose(vojta_rhs(10.0, 0.0, p), 1.0, rel_tol=1e-12)
    p2 = VojtaParams(epsilon=0.5, delta=2.0, C=3.0, r=3)
    assert isclose(vojta_rhs(2.0, 6.0, p2), 0.5 * 2 + 6 / 3.0 + 3.0, rel_tol=1e-12)


def test_check_pn_oracle():
    rec = check_pn(PnPoint((1, 5, 9)), DIAG, PrimeSet((2, 3)), VojtaParams(epsilon=0.5))
    assert isclose(rec.lhs, log(4), rel_tol=1e-12)
    assert rec.descriptor["gcd_witness"] == 4
    assert rec.descriptor["hcount_witness"] == 5
    assert isclose(rec.descriptor["hA"], log(9), rel_tol=1e-12)
    want_rhs = 0.5 * log(9) + log(5) / 1.5
    assert isclose(rec.rhs, want_rhs, rel_tol=1e-12)
    assert rec.holds
    assert isclose(sum(rec.components.values()), rec.rhs, rel_tol=1e-12)
    assert rec.descriptor["assumed_smooth"] is True
    assert rec.descriptor["asserted_codim_r"] == 2


def test_check_e2_oracle(c37, p37):
    p8 = scalar_mul(c37, 8, p37)       # D = 5
    p16 = scalar_mul(c37, 16, p37)     # D = 65
    args = (denominator_D(p8), naive_height(p8).value,
            denominator_D(p16), naive_height(p16).value)
    rec = check_e2(*args, eps=0.3, C=0.0)
    assert isclose(rec.lhs, log(5), rel_tol=1e-12)
    assert rec.descriptor["gcd_witness"] == 5
    assert rec.descriptor["d_p"] == 5 and rec.descriptor["d_q"] == 65
    assert rec.descriptor["hA"] == args[1] + args[3]
    assert isclose(rec.rhs, 0.3 * rec.descriptor["hA"], rel_tol=1e-12)
    with pytest.raises(ValueError, match="eps"):
        check_e2(*args, eps=0.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        check_e2(*args, eps=float("nan"))


def test_check_mixed_oracle(cm2, pm2):
    d_q = denominator_D(scalar_mul(cm2, 2, pm2))    # D_Q = 10
    rec = check_mixed(d_q, b=9, S=PrimeSet((3,)), eps=0.5, C=1.0)
    assert isclose(rec.lhs, log(2), rel_tol=1e-12)   # gcd(10, 8)
    assert rec.descriptor["gcd_witness"] == 2
    assert isclose(rec.rhs, 0.5 * log(10), rel_tol=1e-12)
    assert rec.holds


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
    assert not rec.holds
