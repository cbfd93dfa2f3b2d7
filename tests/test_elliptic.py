"""Weierstrass group law, denominator sequences, and height machinery."""
from __future__ import annotations

import warnings
from fractions import Fraction as F
from math import gcd, isclose, isqrt, log

import pytest

from gcdheights import (
    IDENTITY,
    SPECS,
    Curve,
    Point,
    SweepConfig,
    SweepKind,
    add,
    canonical_height,
    denominator_D,
    eds,
    exceptional_subgroups,
    multiples,
    naive_height,
    neg,
    on_curve,
    run,
    scalar_mul,
)
from gcdheights.elliptic import DOUBLING_CAP, _division_values, _naive_vs_limit_bound

# Frozen from the first verified run of this suite (tol = 1e-4).
HHAT_37A1_GEN = 0.025555324645323545
HHAT_M2_35 = 0.6747858454770832
HHAT_389A1_GEN = 0.16349832673084586

# D_{nP} for the generator (0,0) of y^2 + y = x^3 - x, n = 1..20.
EDS_37A1_20 = (1, 1, 1, 1, 2, 1, 3, 5, 7, 4, 23, 29, 59, 129, 314, 65,
               1529, 3689, 8209, 16264)

# D_{nP} on y^2 + y = x^3 + x^2 - 2x for the two independent generators.
EDS_389A1_P = (1, 1, 3, 11, 38, 249, 2357, 8767, 496035, 3769372,
               299154043, 12064147359)
EDS_389A1_Q = (1, 1, 5, 31, 94, 4335, 18041, 3085709, 124991065,
               10462061444, 2540377722569, 74455864517355)

TORSION_CURVE = Curve(0, 0, 0, 0, 1)      # y^2 = x^3 + 1
TORSION_P6 = Point(F(2), F(3))            # order 6
TORSION_P2 = Point(F(-1), F(0))           # order 2

# 37a1 and y^2 = x^3 - 2 with their base points, as sweep parameters.
CURVE_37A1, POINT_37A1 = [0, 0, 1, -1, 0], [0, 0]
CURVE_M2, POINT_M2 = [0, 0, 0, 0, -2], [3, 5]


def _rows(kind: SweepKind, **params) -> dict:
    """Records of a sweep, keyed by their index columns."""
    index = SPECS[kind].index
    res = run(SweepConfig(kind=kind, parameters=params))
    return {tuple(r[k] for k in index): r for r in res.records}


# ----------------------------------------------------------------------------
# curve and point construction
# ----------------------------------------------------------------------------

def test_curve_discriminants(c37, c389, cm2):
    assert c37.discriminant() == 37
    assert c389.discriminant() == 389
    assert cm2.discriminant() == -1728    # -16 * (4*0 + 27*4)


def test_singular_curves_rejected():
    with pytest.raises(ValueError, match="singular"):
        Curve(0, 0, 0, 0, 0)              # y^2 = x^3
    with pytest.raises(ValueError, match="singular"):
        Curve(0, 0, 0, -3, 2)             # y^2 = (x-1)^2 (x+2)


def test_b_invariants_oracle(c37):
    assert c37.b_invariants() == (0, -2, 1, -1)


def test_point_denominator_shape_enforced():
    Point(F(1, 4), F(1, 8))               # (D^2, D^3) with D = 2: fine
    with pytest.raises(ValueError, match="pathology"):
        Point(F(1, 4), F(1, 4))
    with pytest.raises(ValueError, match="pathology"):
        Point(F(1, 3), F(1, 5))
    with pytest.raises(ValueError, match="both coordinates"):
        Point(F(1), None)


def test_identity_properties():
    assert IDENTITY.is_identity
    assert not Point(F(0), F(0)).is_identity


def test_on_curve(c37, p37):
    assert on_curve(c37, p37)
    assert on_curve(c37, IDENTITY)
    assert not on_curve(c37, Point(F(0), F(1)))


# ----------------------------------------------------------------------------
# group law
# ----------------------------------------------------------------------------

def test_small_multiples_oracle(c37, p37):
    # classical multiples of (0,0) on y^2 + y = x^3 - x
    assert scalar_mul(c37, 2, p37) == Point(F(1), F(0))
    assert scalar_mul(c37, 3, p37) == Point(F(-1), F(-1))
    assert scalar_mul(c37, 4, p37) == Point(F(2), F(-3))
    assert scalar_mul(c37, 5, p37) == Point(F(1, 4), F(-5, 8))


def test_doubling_oracle_mordell(cm2, pm2):
    q = scalar_mul(cm2, 2, pm2)
    assert q.x == F(129, 100) and q.y == F(-383, 1000)
    assert denominator_D(q) == 10


def test_add_identity_and_inverse(c37, p37):
    assert add(c37, p37, IDENTITY) == p37
    assert add(c37, IDENTITY, p37) == p37
    assert add(c37, p37, neg(c37, p37)) == IDENTITY


def test_neg_is_involution(c37, c389, p37, q389):
    for c, p in ((c37, p37), (c389, q389)):
        assert neg(c, neg(c, p)) == p
        assert on_curve(c, neg(c, p))


def test_scalar_mul_consistency(c37, p37):
    acc = IDENTITY
    for n in range(1, 13):
        acc = add(c37, acc, p37)
        q = scalar_mul(c37, n, p37)
        assert q == acc
        assert on_curve(c37, q)
    assert scalar_mul(c37, 0, p37) == IDENTITY
    assert scalar_mul(c37, -3, p37) == neg(c37, scalar_mul(c37, 3, p37))


def test_associativity_spot_checks(c389, p389, q389):
    r = scalar_mul(c389, 2, q389)
    lhs = add(c389, add(c389, p389, q389), r)
    rhs = add(c389, p389, add(c389, q389, r))
    assert lhs == rhs


# ----------------------------------------------------------------------------
# denominator sequences
# ----------------------------------------------------------------------------

def _x_pairs(points: list[Point]) -> list[tuple[int, int]]:
    return [(q.x.numerator, denominator_D(q)) for q in points]


def test_multiples_match_scalar_mul(c37, p37, c389, p389, q389):
    for c, p in ((c37, p37), (c389, p389), (c389, q389)):
        want = _x_pairs([scalar_mul(c, n, p) for n in range(1, 13)])
        assert multiples(c, p, 12) == want
    with pytest.raises(ValueError, match="finite order 6"):
        multiples(TORSION_CURVE, TORSION_P6, 10)


CM2 = Curve(0, 0, 0, 0, -2)
C17 = Curve(0, 0, 0, 0, 17)

# (curve, base point, gcd(W_2, W_3)) for the integer multiples route; a
# common factor of W_2 and W_3 (or a non-integral base point) takes the
# branch that reduces each term by a gcd.
MULTIPLES_CASES = {
    "37a1 (0,0)": (Curve(0, 0, 1, -1, 0), Point(F(0), F(0)), 1),
    "389a1 (0,0)": (Curve(0, 1, 1, -2, 0), Point(F(0), F(0)), 1),
    "389a1 (1,0)": (Curve(0, 1, 1, -2, 0), Point(F(1), F(0)), 1),
    "x3-2 (3,5)": (CM2, Point(F(3), F(5)), 1),
    "x3+17 (-2,3) singular mod 2, 3": (C17, Point(F(-2), F(3)), 6),
    "x3-2 2(3,5) non-integral": (CM2, Point(F(129, 100), F(-383, 1000)), None),
}


@pytest.mark.parametrize("name", list(MULTIPLES_CASES))
def test_multiples_match_chord_tangent_to_60(name):
    c, p, w_gcd = MULTIPLES_CASES[name]
    if w_gcd is not None:
        w = _division_values(c, p, 3)
        assert gcd(w[2], w[3]) == w_gcd
    got = multiples(c, p, 60)
    for n in (1, 2, 7, 32, 60):
        assert got[n - 1] == _x_pairs([scalar_mul(c, n, p)])[0]
    acc, want = IDENTITY, []
    for _ in range(60):
        acc = add(c, acc, p)
        want.append(acc)
    assert got == _x_pairs(want)


def test_multiples_of_torsion_points():
    assert multiples(TORSION_CURVE, TORSION_P2, 1) == [(-1, 1)]
    with pytest.raises(ValueError, match="finite order 2"):
        multiples(TORSION_CURVE, TORSION_P2, 2)
    with pytest.raises(ValueError, match="finite order 2"):
        multiples(TORSION_CURVE, TORSION_P2, 60)
    want = _x_pairs([scalar_mul(TORSION_CURVE, n, TORSION_P6) for n in range(1, 6)])
    assert multiples(TORSION_CURVE, TORSION_P6, 5) == want
    with pytest.raises(ValueError, match="finite order 6"):
        multiples(TORSION_CURVE, TORSION_P6, 6)
    with pytest.raises(ValueError, match="finite order 6"):
        multiples(TORSION_CURVE, TORSION_P6, 60)


def test_eds_37a1_frozen(c37, p37):
    assert eds(c37, p37, 20).terms == EDS_37A1_20


def test_eds_389a1_both_generators(c389, p389, q389):
    assert eds(c389, p389, 12).terms == EDS_389A1_P
    assert eds(c389, q389, 12).terms == EDS_389A1_Q


def test_eds_reports_finite_order():
    with pytest.raises(ValueError, match="finite order 6"):
        eds(TORSION_CURVE, TORSION_P6, 10)
    with pytest.raises(ValueError, match="finite order 2"):
        eds(TORSION_CURVE, TORSION_P2, 5)


def test_eds_rejects_identity_base(c37):
    with pytest.raises(ValueError, match="identity"):
        eds(c37, IDENTITY, 5)


def test_denominator_D(c37, p37):
    assert denominator_D(p37) == 1
    assert denominator_D(scalar_mul(c37, 5, p37)) == 2
    with pytest.raises(ValueError):
        denominator_D(IDENTITY)


# ----------------------------------------------------------------------------
# heights
# ----------------------------------------------------------------------------

def test_naive_height_witness(c37, p37):
    assert naive_height(p37).exact_arg == 1
    assert naive_height(scalar_mul(c37, 5, p37)).exact_arg == 4   # x = 1/4
    assert naive_height(IDENTITY).exact_arg == 1


def test_canonical_height_frozen_values(c37, p37, c389, p389, cm2, pm2):
    assert abs(canonical_height(c37, p37) - HHAT_37A1_GEN) < 1e-12
    assert abs(canonical_height(cm2, pm2) - HHAT_M2_35) < 1e-12
    assert abs(canonical_height(c389, p389) - HHAT_389A1_GEN) < 1e-12


def _chord_tangent_height(c: Curve, p: Point, tol: float) -> float:
    """canonical_height's estimate, doubling P by chord-tangent add."""
    bound = _naive_vs_limit_bound(c)
    depth = 1
    while bound / 4.0**depth > tol and depth < DOUBLING_CAP:
        depth += 1
    q = p
    for _ in range(depth):
        q = add(c, q, q)
    return naive_height(q).value / (2.0 * 4.0**depth)


@pytest.mark.parametrize("coeffs, xy", [
    ((0, 0, 1, -1, 0), (0, 0)),
    ((0, 1, 1, -2, 0), (0, 0)),
    ((0, 1, 1, -2, 0), (1, 0)),
    ((0, 0, 0, 0, 17), (-2, 3)),
    ((0, 0, 0, 0, 17), (4, 9)),
])
def test_canonical_height_matches_chord_tangent_doubling(coeffs, xy):
    c, p = Curve(*coeffs), Point(F(xy[0]), F(xy[1]))
    for tol in (1e-2, 1e-4):
        assert canonical_height(c, p, tol) == _chord_tangent_height(c, p, tol)


def test_canonical_height_uncertified_matches_chord_tangent_doubling():
    c, p = Curve(0, 0, 0, 1000, 1), Point(F(0), F(1))
    with pytest.warns(UserWarning, match="not certified"):
        h = canonical_height(c, p, 1e-4)
    assert h == _chord_tangent_height(c, p, 1e-4)


def test_canonical_height_quadraticity(c37, p37):
    h1 = canonical_height(c37, p37, 1e-4)
    h2 = canonical_height(c37, scalar_mul(c37, 2, p37), 1e-4)
    assert abs(h2 - 4.0 * h1) < 10 * 1e-4


def test_canonical_height_no_spurious_torsion_warning(c37, p37):
    # the first few multiples of (0,0) are integral; their naive heights all
    # vanish and must not be mistaken for convergence to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = canonical_height(c37, p37, 1e-4)
    assert h > 0.01


def test_canonical_height_warns_on_torsion():
    with pytest.warns(UserWarning, match="possibly torsion"):
        h = canonical_height(TORSION_CURVE, TORSION_P6, 1e-4)
    assert h < 1e-4
    with pytest.warns(UserWarning, match="possibly torsion"):
        assert canonical_height(TORSION_CURVE, TORSION_P2, 1e-4) == 0.0


def test_canonical_height_domain(c37, p37):
    with pytest.raises(ValueError, match="identity"):
        canonical_height(c37, IDENTITY)
    with pytest.raises(ValueError, match="tol"):
        canonical_height(c37, p37, 0.0)
    with pytest.raises(ValueError, match="tol"):
        canonical_height(c37, p37, float("nan"))


# ----------------------------------------------------------------------------
# gcds of denominators
# ----------------------------------------------------------------------------

def test_gcd_D_and_hgcd_e2():
    # D_8 = 5, D_10 = 4, D_16 = 65 on 37a1
    rows = _rows(SweepKind.EDS_GCD, curve=CURVE_37A1, p=POINT_37A1,
                 m_max=8, n_max=16, eps=0.5)
    r = rows[8, 16]
    assert (r["d_m"], r["d_n"], r["gcd"], r["lhs"]) == (5, 65, 5, log(5))
    r = rows[8, 10]
    assert (r["d_m"], r["d_n"], r["gcd"], r["lhs"]) == (5, 4, 1, 0.0)


def _local_sum_gcd(p: Point, q: Point) -> int:
    """gcd(D_P, D_Q) through the finite valuations of 1/x.

    (1/2) * sum over finite v of min(v+(1/x_P), v+(1/x_Q)) is half the log
    of the gcd of the numerators of 1/x_P and 1/x_Q, and that gcd is
    gcd(D_P^2, D_Q^2) = gcd(D_P, D_Q)^2.  x = 0 contributes nothing.
    """
    nums = [1 if pt.x == 0 else abs(F(pt.x.denominator, pt.x.numerator).numerator)
            for pt in (p, q)]
    g2 = gcd(*nums)
    w = isqrt(g2)
    assert w * w == g2
    return w


def test_local_sum_route_agrees_with_direct_gcd(c37, p37, cm2, pm2):
    for c, p, curve, point in ((c37, p37, CURVE_37A1, POINT_37A1),
                               (cm2, pm2, CURVE_M2, POINT_M2)):
        rows = _rows(SweepKind.EDS_GCD, curve=curve, p=point,
                     m_max=12, n_max=12, eps=0.5)
        assert len(rows) == 144
        pts = [scalar_mul(c, n, p) for n in range(1, 13)]
        for (m, n), r in rows.items():
            assert r["gcd"] == _local_sum_gcd(pts[m - 1], pts[n - 1])


# ----------------------------------------------------------------------------
# ratio trend and predicted index directions
# ----------------------------------------------------------------------------

def test_siegel_ratio_values():
    rows = _rows(SweepKind.SIEGEL, curve=CURVE_37A1, point=POINT_37A1,
                 n_min=6, n_max=11)
    assert rows[6,]["ratio"] == 0.0                  # D_6 = 1
    r10 = rows[10,]["ratio"]                         # x(10P) = A/16, |A| > 16
    assert isclose(r10, 0.545634341039, rel_tol=1e-9)
    assert rows[11,]["ratio"] == 1.0                 # |A| <= D^2 exactly
    with pytest.raises(ValueError, match="finite order"):
        _rows(SweepKind.SIEGEL, curve=[0, 0, 0, 0, 1], point=[2, 3], n_max=6)


def test_exceptional_subgroups_thresholds():
    assert exceptional_subgroups(0.51) == []
    assert exceptional_subgroups(0.3) == [(0, 1), (1, 0)]
    assert exceptional_subgroups(0.25) == [(0, 1), (1, 0), (1, 1)]
    assert exceptional_subgroups(0.1) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]
    with pytest.raises(ValueError):
        exceptional_subgroups(0.0)
    with pytest.raises(ValueError):
        exceptional_subgroups(float("nan"))


def test_exceptional_subgroups_entries_are_primitive():
    for m, n in exceptional_subgroups(0.01):
        assert gcd(m, n) == 1
        assert m >= 0 and n >= 0
