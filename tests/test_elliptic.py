"""Weierstrass group law, denominator sequences, and height machinery."""
from __future__ import annotations

import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import gcd, isclose, isqrt, log, prod
from statistics import median
from time import perf_counter

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
    multiples,
    naive_height,
    neg,
    on_curve,
    run,
    scalar_mul,
    weil_height,
)
from gcdheights import elliptic
from gcdheights.elliptic import _denominators, _division_values

# Half the regulator of 37a1, 0.0511114082399688 (Cremona's tables, LMFDB
# 37.a1): the canonical height of (0,0) in the h(x)/2 normalization.
HHAT_37A1_GEN = 0.0255557041199844

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
    return {tuple(getattr(r, k) for k in index): r for r in res.records}


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
# common factor of W_2 and W_3 takes the branch that divides its primes out
# of every W_k, and the non-integral base point has gcd(W_2, W_3) = 1.
MULTIPLES_CASES = {
    "37a1 (0,0)": (Curve(0, 0, 1, -1, 0), Point(F(0), F(0)), 1),
    "389a1 (0,0)": (Curve(0, 1, 1, -2, 0), Point(F(0), F(0)), 1),
    "389a1 (1,0)": (Curve(0, 1, 1, -2, 0), Point(F(1), F(0)), 1),
    "x3-2 (3,5)": (CM2, Point(F(3), F(5)), 1),
    "x3+17 (-2,3) singular mod 2, 3": (C17, Point(F(-2), F(3)), 6),
    "x3-2 2(3,5) non-integral": (CM2, Point(F(129, 100), F(-383, 1000)), 1),
}


@pytest.mark.parametrize("name", list(MULTIPLES_CASES))
def test_multiples_match_chord_tangent_to_60(name):
    c, p, w_gcd = MULTIPLES_CASES[name]
    w = _division_values(c, p, 3)[0]
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


def _multiples_by_gcd(c: Curve, p: Point, n_max: int) -> list[tuple[int, int]]:
    """The full-gcd route: every x(nP) from the division values of ``_ward``,
    reduced by one gcd with its whole denominator."""
    w = _ward(c, p, n_max + 1)
    a, dd = p.x.numerator, p.x.denominator
    out = []
    for n in range(1, n_max + 1):
        if w[n] == 0:
            raise ValueError(f"point has finite order {n}")
        num = a * w[n] ** 2 - w[n - 1] * w[n + 1]
        g = gcd(num, dd * w[n] ** 2)
        out.append((num // g, isqrt(dd * w[n] ** 2 // g)))
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return str(e)


def _singular_at(rng: random.Random, q: int) -> tuple[Curve, Point]:
    """A random curve with an integral point P that reduces mod q to a
    singular point: q divides both partial derivatives at P."""
    while True:
        a1, a2 = rng.randint(-3, 3), rng.randint(-3, 3)
        x0, y0 = rng.randint(-20, 20), rng.randint(-20, 20)
        a3 = -2 * y0 - a1 * x0 + q * rng.randint(-2, 2)
        a4 = a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 + q * rng.randint(-3, 3)
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0
        try:
            return Curve(a1, a2, a3, a4, a6), Point(F(x0), F(y0))
        except ValueError:  # singular curve
            continue


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_multiples_property_against_gcd_route_and_chord_tangent(q):
    rng = random.Random(q)
    at_q = non_integral = 0
    for _ in range(40):
        c, p = _singular_at(rng, q)
        k = rng.choice([1, 1, 2, 3])  # 2P and 3P are mostly non-integral
        base = p
        for _ in range(k - 1):
            base = add(c, base, p)
        if base.is_identity:
            continue
        n_max = rng.randint(1, 36)
        got = _outcome(multiples, c, base, n_max)
        assert got == _outcome(_multiples_by_gcd, c, base, n_max)
        if isinstance(got, str):
            assert "finite order" in got
            continue
        acc, want = IDENTITY, []
        for _ in range(min(n_max, 10)):
            acc = add(c, acc, base)
            want.append(acc)
        assert got[:10] == _x_pairs(want)
        w = _division_values(c, base, 3)[0]
        at_q += gcd(w[2], w[3]) % q == 0
        non_integral += base.x.denominator > 1
    # the cases really reach the correction at q, also off integral points
    assert at_q > 15 and non_integral > 5


# (curve, base point, gcd(W_2, W_3)): bad reduction at the primes of the gcd,
# a non-integral base point, and a curve with a large coefficient
STRONG_DIVISIBILITY_CASES = {
    **{name: MULTIPLES_CASES[name] for name in (
        "37a1 (0,0)", "x3-2 (3,5)", "x3-2 2(3,5) non-integral",
        "x3+17 (-2,3) singular mod 2, 3")},
    "x3+17 (4,9) singular mod 2, 3": (C17, Point(F(4), F(9)), 18),
    "x3+17 (2,5) singular mod 2": (C17, Point(F(2), F(5)), 2),
    "x3+1000x+1 (0,1)": (Curve(0, 0, 0, 1000, 1), Point(F(0), F(1)), 2),
}


def _assert_strong_divisibility(ds: list[int]) -> None:
    """gcd(D_m, D_n) = D_gcd(m, n) for all m, n up to len(ds).  For each prime
    p and r >= 1, {k : p^r | D_kP} is a subgroup of Z (the formal-group
    filtration E_r, Silverman AEC VII.2.2), so it holds m and n exactly when
    it holds gcd(m, n); the D_k of ``multiples`` must show it on every pair."""
    for m in range(1, len(ds) + 1):
        for n in range(m, len(ds) + 1):
            assert gcd(ds[m - 1], ds[n - 1]) == ds[gcd(m, n) - 1], (m, n)


@pytest.mark.parametrize("name", list(STRONG_DIVISIBILITY_CASES))
def test_multiples_denominators_are_a_strong_divisibility_sequence(name):
    c, p, w_gcd = STRONG_DIVISIBILITY_CASES[name]
    w = _division_values(c, p, 3)[0]
    assert gcd(w[2], w[3]) == w_gcd
    _assert_strong_divisibility([d for _, d in multiples(c, p, 30)])


@pytest.mark.parametrize("name", [name for name, (_, p, g) in STRONG_DIVISIBILITY_CASES.items()
                                  if g > 1 or p.x.denominator > 1])
def test_denominators_at_bad_reduction_divide_strongly_to_40(name):
    # what the EDS_GCD kernel reads its gcds off: gcd(D_m, D_n) = D_gcd(m, n),
    # here for the D_n the sweeps take from _denominators, also at 2P
    c, p, _ = STRONG_DIVISIBILITY_CASES[name]
    for base in (p, add(c, p, p)):
        ds = _denominators(c, base, 40)
        assert ds == [d for _, d in multiples(c, base, 40)]
        _assert_strong_divisibility(ds)


def test_multiples_denominators_of_random_points_divide_strongly():
    rng = random.Random(2004)
    checked = 0
    while checked < 150:
        # q = 1 puts no condition on the point; the others give it bad
        # reduction at q, so multiples divides q out of every W_k
        c, p = _singular_at(rng, rng.choice([1, 1, 1, 2, 3, 5, 7, 13]))
        try:
            ds = [d for _, d in multiples(c, p, 20)]
        except ValueError:  # a torsion point
            continue
        _assert_strong_divisibility(ds)
        checked += 1


def test_multiples_falls_back_to_the_gcd_route(monkeypatch):
    gcds = []
    monkeypatch.setattr(elliptic, "gcd", lambda *xs: gcds.append(xs) or gcd(*xs))
    for xy in ((-2, 3), (4, 9)):
        p = Point(F(xy[0]), F(xy[1]))
        # the valuations at the primes of gcd(W_2, W_3) are exact: the only
        # gcd is that one, however many terms are asked for
        want = multiples(C17, p, 60)
        assert len(gcds) == 1
        assert want == _multiples_by_gcd(C17, p, 60)
        gcds.clear()
    # gcd(W_2, W_3) = 18 = 2 * 3^2 leaves a 9 that divisors up to 2 cannot
    # split: one gcd for G, then one per term
    monkeypatch.setattr(elliptic, "_TRIAL_BOUND", 2)
    assert multiples(C17, Point(F(4), F(9)), 60) == want
    assert len(gcds) == 1 + 60


def test_trial_primes():
    assert elliptic._trial_primes(1) == []
    assert elliptic._trial_primes(2 * 3**4 * 1009) == [2, 3, 1009]
    assert elliptic._trial_primes(1031) == [1031]
    assert elliptic._trial_primes(1009 * 1013) == [1009, 1013]
    assert elliptic._trial_primes(1031 * 1033) is None  # both past 2^10


def test_multiples_of_a_point_with_gcd_w2_w3_one_take_no_gcd_per_term(monkeypatch):
    # 2(3,5) on y^2 = x^3 - 2 has d = 10 and gcd(W_2, W_3) = 1; the only gcd
    # is that one, however many terms are asked for
    p = MULTIPLES_CASES["x3-2 2(3,5) non-integral"][1]
    calls = []
    monkeypatch.setattr(elliptic, "gcd", lambda *xs: calls.append(xs) or gcd(*xs))
    got = multiples(CM2, p, 40)
    assert len(calls) == 1 and calls[0][0] != 0
    assert got == _multiples_by_gcd(CM2, p, 40)


# gcd(W_2, W_3) = 2018 = 2 * 1009: the recurrence strips a multi-digit prime
C1009, P1009 = Curve(-2, 1, -2042, -728, 248), Point(F(-16), F(-4))


def _valuation(q: int, x: int) -> int:
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


@pytest.mark.parametrize("c, p", [(C17, Point(F(-2), F(3))), (C17, Point(F(4), F(9))),
                                  (C17, Point(F(2), F(5))), (C1009, P1009)])
def test_stripped_recurrence_matches_the_plain_one(c, p):
    u, primes, vals = _division_values(c, p, 61)
    w = _ward(c, p, 61)
    assert primes == elliptic._trial_primes(gcd(w[2], w[3])) != [] and vals
    for k in range(1, 62):
        assert all(u[k] % q for q in primes)
        assert [v[k] for v in vals] == [_valuation(q, w[k]) for q in primes]
        assert u[k] * prod(q ** v[k] for q, v in zip(primes, vals)) == w[k]
    # the powers of the primes of G, left out of u_k, grow with k
    assert max(v[61] for v in vals) > 100
    assert u[61].bit_length() < w[61].bit_length() - 100
    assert multiples(c, p, 60) == _multiples_by_gcd(c, p, 60)


def _ward(c: Curve, p: Point, n_max: int) -> list[int]:
    """W_0..W_n_max by Ward's recurrence, each power formed where it is used."""
    w = _division_values(c, p, 4)[0]
    for k in range(5, n_max + 1):
        m = k >> 1
        if k & 1:
            w.append(w[m + 2] * w[m] ** 3 - w[m - 1] * w[m + 1] ** 3)
        else:
            w.append((w[m + 2] * w[m - 1] ** 2 - w[m - 2] * w[m + 1] ** 2) * w[m] // w[2])
    return w


@pytest.mark.parametrize("n_max", [5, 6, 13, 14, 61])
@pytest.mark.parametrize("name", list(MULTIPLES_CASES))
def test_cached_powers_keep_wards_recurrence(name, n_max):
    # the stripped recurrence (past 13 terms when gcd(W_2, W_3) > 1, below it
    # u = W) multiplies back to the plain one
    c, p, w_gcd = MULTIPLES_CASES[name]
    want = _ward(c, p, n_max)
    u, primes, vals = _division_values(c, p, n_max)
    assert primes == ([] if w_gcd == 1 else None if n_max <= 13 else [2, 3])
    assert u[0] == 0 and [x * prod(q ** v[k] for q, v in zip(primes or (), vals))
                          for k, x in enumerate(u) if k] == want[1:]


def test_plain_recurrence_keeps_the_division_values():
    w = _ward(C17, Point(F(-2), F(3)), 30)
    assert gcd(w[2], w[3]) == 6 and w[30] % 6**20 == 0


# 5077a1, rank 3: two more base points with gcd(W_2, W_3) = 1
C5077 = Curve(0, 0, 1, -7, 6)
NAIVE_CASES = [(c, p, 80) for c, p, _ in
               [*MULTIPLES_CASES.values(), *STRONG_DIVISIBILITY_CASES.values()]]
NAIVE_CASES += [(C5077, Point(F(1), F(0)), 100), (C5077, Point(F(2), F(0)), 100)]
# 30(3,5) on y^2 = x^3 - 2 has a 1746-bit d: the bounds pass the float range
NAIVE_CASES += [(CM2, scalar_mul(CM2, 30, Point(F(3), F(5))), 12)]


def _naive_oracle(c: Curve, p: Point, n_max: int) -> list[tuple[int, float]]:
    return [(d, log(max(abs(a), d * d))) for a, d in multiples(c, p, n_max)]


def _top_bits_decisions(monkeypatch) -> list[bool]:
    """One entry per logarithm _log_naive tries to settle off the top bits:
    whether the two ends of its interval round to the same float."""
    floats, out = [], []

    def spy(x):
        floats.append(float(x))
        if len(floats) % 2 == 0:
            out.append(floats[-2] == floats[-1])
        return floats[-1]
    monkeypatch.setattr(elliptic, "float", spy, raising=False)
    return out


@pytest.mark.parametrize("top_bits", [None, 128, 8])
def test_naive_heights_from_top_bits_match_the_exact_route(monkeypatch, top_bits):
    # None keeps the defaults; otherwise every term of more than 0 bits goes
    # through _log_naive, at 8 bits mostly to the exact fallback
    rng = random.Random(2025)
    cases = list(NAIVE_CASES)
    while len(cases) < len(NAIVE_CASES) + 150:
        c, p = _singular_at(rng, rng.choice([1, 2, 3, 5, 7, 13]))
        if not isinstance(_outcome(multiples, c, p, 40), str):
            cases.append((c, p, 40))
    want = [_naive_oracle(c, p, n) for c, p, n in cases]
    decided = _top_bits_decisions(monkeypatch)
    if top_bits is not None:
        monkeypatch.setattr(elliptic, "_EXACT_BITS", 0)
        monkeypatch.setattr(elliptic, "_TOP_BITS", top_bits)
    assert [_denominators(c, p, n, naive=True) for c, p, n in cases] == want
    assert [list(_denominators(c, p, n)) for c, p, n in cases] == [
        [d for d, _ in pairs] for pairs in want]
    if top_bits == 8:
        assert decided.count(False) > 0.9 * len(decided)
    else:  # 915 terms past 1024 bits, 7240 past 0 bits
        assert len(decided) > (7000 if top_bits else 900) and all(decided)


def test_naive_height_where_the_two_intervals_overlap():
    # |A| = x^2 + 1 or x^2 - 2x - 1 against D^2 = x^2: both intervals hold both
    x = random.Random(7).getrandbits(3000) | 1 << 2999
    for y, z, big in [(x + 1, x - 1, x * x + 1), (x + 1, x + 1, x * x)]:
        assert elliptic._log_naive(2, 1, x, y, z) == log(big)
        assert elliptic._log_naive(-2, 1, -x, -y, z) == log(big)


def test_eds_37a1_frozen(c37, p37):
    assert eds(c37, p37, 20) == EDS_37A1_20


def test_eds_389a1_both_generators(c389, p389, q389):
    assert eds(c389, p389, 12) == EDS_389A1_P
    assert eds(c389, q389, 12) == EDS_389A1_Q


def test_eds_reports_finite_order():
    with pytest.raises(ValueError, match="finite order 6"):
        eds(TORSION_CURVE, TORSION_P6, 10)
    with pytest.raises(ValueError, match="finite order 2"):
        eds(TORSION_CURVE, TORSION_P2, 5)
    # below the order too: the multiples are read to at least 12, the largest
    # order of a torsion point over Q (Mazur); ``multiples`` stays the raw route
    with pytest.raises(ValueError, match="finite order 6"):
        eds(TORSION_CURVE, TORSION_P6, 5)
    with pytest.raises(ValueError, match="finite order 2"):
        eds(TORSION_CURVE, TORSION_P2, 1)
    for c, p, order in TORSION_CASES:
        for naive in (False, True):
            with pytest.raises(ValueError, match=f"finite order {order}$"):
                _denominators(c, p, 1, naive)


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


def test_naive_height_is_the_weil_height_of_x(c37, p37):
    assert p37.x == 0
    for n in range(1, 25):
        q = scalar_mul(c37, n, p37)
        assert naive_height(q) == weil_height(q.x)
    assert naive_height(IDENTITY) == weil_height(0) == (0.0, 1)


#: Deepest doubling the seeded property test runs its oracle to; 2^8 P
#: already has coordinates in the thousands of digits on desk-scale inputs.
DOUBLING_CAP = 8


def _naive_vs_limit_bound(c: Curve) -> float:
    """Uniform bound B with |naive_height(Q)/2 - limit| <= B on this model.

    The gap between half the naive height and its doubling limit is bounded,
    uniformly over all rational points, by an expression in the heights of
    the j-invariant and the discriminant of the integral model (Silverman,
    Math. Comp. 55, 1990).  Uniformity makes B / 4^k an a-priori error bound
    for the k-fold doubling estimate, whichever point is measured.
    """
    b2, b4, _, _ = c.b_invariants()
    c4 = b2 * b2 - 24 * b4
    j = F(c4**3, c.discriminant())
    hj = log(max(abs(j.numerator), j.denominator))
    hd = log(abs(c.discriminant()))
    return max(hj / 8 + hd / 12 + 0.973, hj / 12 + hd / 12 + 1.07)


def _certifying_depth(c: Curve, tol: float) -> int:
    """The least number k >= 1 of doublings with B / 4^k <= tol."""
    bound, depth = _naive_vs_limit_bound(c), 1
    while bound / 4.0**depth > tol:
        depth += 1
    return depth


def _doubling_height(c: Curve, p: Point, depth: int) -> float:
    """naive_height(2^depth P) / (2 * 4^depth), within B / 4^depth of the height.

    Doubles x = A/Z as a coprime integer pair with
    x(2Q) = (x^4 - b4 x^2 - 2 b6 x - b8) / (4 x^3 + b2 x^2 + 2 b4 x + b6);
    the common factor of the new pair divides the resultant of the two
    forms, which is disc^2, so one small gcd puts it in lowest terms.
    """
    b2, b4, b6, b8 = c.b_invariants()
    disc2 = c.discriminant() ** 2
    a, z = p.x.numerator, p.x.denominator
    for _ in range(depth):
        u, v, w = a * a, z * z, a * z
        na = u * u - v * (b4 * u + 2 * b6 * w + b8 * v)
        nz = u * (4 * w + b2 * v) + v * (2 * b4 * w + b6 * v)
        g = gcd(gcd(na, disc2), nz)
        a, z = na // g, nz // g
    return log(max(abs(a), abs(z))) / (2.0 * 4.0**depth)


def _chord_tangent_height(c: Curve, p: Point, depth: int) -> float:
    """The same estimate, doubling P by chord-tangent add."""
    q = p
    for _ in range(depth):
        q = add(c, q, q)
    return naive_height(q).value / (2.0 * 4.0**depth)


def _certified(f, *args):
    """f(*args), failing on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def test_canonical_height_frozen_values(c37, p37, c389, p389, cm2, pm2):
    assert abs(canonical_height(c37, p37) - HHAT_37A1_GEN) < 1e-11
    for c, p in ((cm2, pm2), (c389, p389)):
        h = _certified(canonical_height, c, p, 1e-10)
        oracle = _doubling_height(c, p, 10)
        assert abs(h - oracle) <= 1e-10 + _naive_vs_limit_bound(c) / 4.0**10


@pytest.mark.parametrize("coeffs, xy", [
    ((0, 0, 1, -1, 0), (0, 0)),
    ((0, 1, 1, -2, 0), (0, 0)),
    ((0, 1, 1, -2, 0), (1, 0)),
    ((0, 0, 0, 0, 17), (-2, 3)),
    ((0, 0, 0, 0, 17), (4, 9)),
    ((1, 2, 3, 4, -2), (1, 1)),  # every a_i, so every b_i, nonzero
])
def test_canonical_height_matches_chord_tangent_doubling(coeffs, xy):
    c, p = Curve(*coeffs), Point(F(xy[0]), F(xy[1]))
    for tol in (1e-2, 1e-4):
        depth = _certifying_depth(c, tol)
        oracle = _chord_tangent_height(c, p, depth)
        assert _doubling_height(c, p, depth) == oracle
        h = _certified(canonical_height, c, p, tol)
        assert abs(h - oracle) <= tol + _naive_vs_limit_bound(c) / 4.0**depth


def test_canonical_height_certified_on_large_coefficients():
    # y^2 = x^3 + 1000x + 1: the doubling route needs 9 doublings for 1e-4
    c, p = Curve(0, 0, 0, 1000, 1), Point(F(0), F(1))
    h = _certified(canonical_height, c, p, 1e-4)
    depth = _certifying_depth(c, 1e-4)
    assert depth == 9
    assert abs(h - _doubling_height(c, p, depth)) <= (
        1e-4 + _naive_vs_limit_bound(c) / 4.0**depth)
    # y^2 = x^3 + 10^6 x + 1 at 1e-8, past any doubling depth a test can run
    c6 = Curve(0, 0, 0, 10**6, 1)
    times = []
    for _ in range(5):
        t0 = perf_counter()
        h6 = _certified(canonical_height, c6, p, 1e-8)
        times.append(perf_counter() - t0)
    assert median(times) < 0.05
    assert abs(h6 - _doubling_height(c6, p, 6)) <= (
        1e-8 + _naive_vs_limit_bound(c6) / 4.0**6)


# Non-integral and multiple base points for the property test below.
HEIGHT_CASES = [
    (CM2, Point(F(129, 100), F(-383, 1000))),      # 2(3,5), d = 10
    (Curve(0, 0, 1, -1, 0), Point(F(1, 4), F(-5, 8))),  # 5(0,0) on 37a1
    (C17, Point(F(4), F(9))),                      # gcd(W_2, W_3) = 18
]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_canonical_height_property_against_doubling(q):
    rng = random.Random(q)
    cases, at_q = list(HEIGHT_CASES) if q == 2 else [], 0
    while len(cases) < 12:
        c, p = _singular_at(rng, q)
        if rng.random() < 0.3:
            p = add(c, p, p)  # mostly non-integral
        if p.is_identity or 0 in _division_values(c, p, 2)[0][2:]:
            continue  # finite order, covered by the torsion test
        w = _division_values(c, p, 3)[0]
        at_q += gcd(w[2], w[3]) % q == 0
        cases.append((c, p))
    for c, p in cases:
        h = _certified(canonical_height, c, p, 1e-4)
        depth = min(_certifying_depth(c, 1e-4), DOUBLING_CAP)
        oracle = _doubling_height(c, p, depth)
        assert abs(h - oracle) <= 1e-4 + _naive_vs_limit_bound(c) / 4.0**depth
        # on nP the height scales by n^2
        h3 = _certified(canonical_height, c, scalar_mul(c, 3, p), 1e-4)
        assert abs(h3 - 9 * h) <= 10 * 1e-4
    # the cases really take a multiple m > 1 at q
    assert at_q >= 3


def _mu_decimal(c: Curve, a: int, d: int) -> Decimal:
    """Silverman's series for the archimedean local height at x = a/d^2, to
    90 terms in 50-digit decimals: the oracle of the float series."""
    b2, b4, b6, b8 = c.b_invariants()
    models = {True: (b2, b4, b6, b8),
              False: (b2 - 12, b4 - b2 + 6, b6 - 2 * b4 + b2 - 4,
                      b8 - 3 * b6 + 3 * b4 - b2 + 3)}
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(a) / Decimal(d * d)
        on_x = abs(x) >= Decimal("0.5")
        t = 1 / (x if on_x else x + 1)
        mu, f = -abs(t).ln(), Decimal(1)
        for _ in range(90):
            f /= 4
            c2, c4, c6, c8 = models[on_x]
            w = 4 * t + c2 * t**2 + 2 * c4 * t**3 + c6 * t**4
            z = 1 - c4 * t**2 - 2 * c6 * t**3 - c8 * t**4
            if abs(w) > 2 * abs(z):
                z = z + w if on_x else z - w
                on_x = not on_x
            mu += f * abs(z).ln()
            t = w / z
        return +mu


def test_archimedean_series_matches_decimal_oracle():
    rng = random.Random(19)
    c37, c1000 = Curve(0, 0, 1, -1, 0), Curve(0, 0, 0, 1000, 1)
    pairs = [(c37, multiples(c37, Point(F(0), F(0)), 120)[-1]),
             (c1000, multiples(c1000, Point(F(0), F(1)), 20)[-1])]
    # 120(0,0) on 37a1 and 20(0,1) on x^3 + 1000x + 1: A and D^2 past any float
    assert all(abs(a) > 1e308 and d * d > 1e308 for _, (a, d) in pairs)
    while len(pairs) < 60:
        size = rng.choice([3, 30, 1000, 10**6, 10**9])
        a1, a2, a3 = rng.randint(-1, 1), rng.randint(-3, 3), rng.randint(-1, 1)
        a4 = rng.randint(-size, size)
        x0, y0 = rng.randint(-3, 3), rng.randint(-20, 20)
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0**3 - a2 * x0 * x0 - a4 * x0
        try:
            c = Curve(a1, a2, a3, a4, a6)
            pairs.append((c, multiples(c, Point(F(x0), F(y0)), rng.choice([1, 2, 3]))[-1]))
        except ValueError:  # singular curve or a point of finite order
            continue
    branches = set()
    for c, (a, d) in pairs:
        mu, err = elliptic._archimedean(c, a, d)
        assert abs(mu - float(_mu_decimal(c, a, d))) <= err
        assert err < 1e-8
        branches.add(2 * abs(a) < d * d)
    assert branches == {True, False}  # both |x| < 1/2 and the rest


# (curve, point, order); orders 7-12 on Tate's normal form
# y^2 + (1 - c)xy - by = x^3 - bx^2 at (0,0)
TORSION_CASES = [
    (TORSION_CURVE, TORSION_P2, 2),
    (TORSION_CURVE, Point(F(0), F(1)), 3),
    (Curve(0, 0, 0, 4, 0), Point(F(2), F(4)), 4),
    (Curve(0, -1, 1, 0, 0), Point(F(0), F(0)), 5),  # 11a3
    (TORSION_CURVE, TORSION_P6, 6),
    (Curve(-1, -4, -4, 0, 0), Point(F(0), F(0)), 7),  # b, c = 4, 2
    (Curve(7, -6, -6, 0, 0), Point(F(0), F(0)), 8),  # b, c = 6, -6
    (Curve(-3, -12, -12, 0, 0), Point(F(0), F(0)), 9),  # b, c = 12, 4
    (Curve(-5, -24, -24, 0, 0), Point(F(0), F(0)), 10),  # b, c = 24, 6
    (Curve(43, -210, -210, 0, 0), Point(F(0), F(0)), 12),  # b, c = 210, -42
]


def test_canonical_height_tol_below_the_float_floor(c37, p37):
    for tol in (1e-15, 5e-324):
        with pytest.warns(UserWarning, match="not certified"):
            h = canonical_height(c37, p37, tol)
        assert abs(h - HHAT_37A1_GEN) < 1e-11


def test_canonical_height_no_multiple_with_nonsingular_reduction(monkeypatch):
    # (2,5) on y^2 = x^3 + 17 has nonsingular reduction everywhere first at 3P
    p = Point(F(2), F(5))
    h = _certified(canonical_height, C17, p, 1e-6)
    monkeypatch.setattr(elliptic, "_CAP", 2)
    with pytest.warns(UserWarning, match="not certified: no multiple up to 2P"):
        canonical_height(C17, p, 1e-6)
    monkeypatch.setattr(elliptic, "_CAP", 3)
    assert _certified(canonical_height, C17, p, 1e-6) == h


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
    for c, p, order in TORSION_CASES:
        assert scalar_mul(c, order, p).is_identity
        assert not any(scalar_mul(c, n, p).is_identity for n in range(1, order))
        with pytest.warns(UserWarning, match=f"^torsion: .* order {order}$"):
            assert canonical_height(c, p, 1e-4) == 0.0


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
    assert (r.d_m, r.d_n, r.gcd, r.lhs) == (5, 65, 5, log(5))
    r = rows[8, 10]
    assert (r.d_m, r.d_n, r.gcd, r.lhs) == (5, 4, 1, 0.0)


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
            assert r.gcd == _local_sum_gcd(pts[m - 1], pts[n - 1])


# ----------------------------------------------------------------------------
# ratio trend and predicted index directions
# ----------------------------------------------------------------------------

def test_siegel_ratio_values():
    rows = _rows(SweepKind.SIEGEL, curve=CURVE_37A1, point=POINT_37A1,
                 n_min=6, n_max=11)
    assert rows[6,].ratio == 0.0                  # D_6 = 1
    r10 = rows[10,].ratio                         # x(10P) = A/16, |A| > 16
    assert isclose(r10, 0.545634341039, rel_tol=1e-9)
    assert rows[11,].ratio == 1.0                 # |A| <= D^2 exactly
    with pytest.raises(ValueError, match="finite order"):
        _rows(SweepKind.SIEGEL, curve=[0, 0, 0, 0, 1], point=[2, 3], n_max=6)


def exceptional_subgroups(eps: float) -> list[tuple[int, int]]:
    """The oracle of EDS_GCD's per-cell ``exceptional`` flag: the index pairs
    (m, n) of the subgroups that may carry gcd violations.

    All (m, n) with m, n >= 0, not both zero, gcd(m, n) = 1 and
    m^2 + n^2 <= 1/(2*eps), ordered by (m^2 + n^2, m, n).  Empty once
    eps > 1/2; the axes (0,1) and (1,0) survive up to eps = 1/2; the
    diagonal (1,1) first appears at eps <= 1/4.  The list holds about
    3/(4*pi*eps) pairs (the coprime 6/pi^2 of the pi/(8*eps) lattice points
    in the quarter disc), which is why the sweep tests each cell against the
    disc instead.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    bound = 1.0 / (2.0 * eps)
    out = []
    m = 0
    while m * m <= bound:
        n = 0
        while m * m + n * n <= bound:
            if (m or n) and gcd(m, n) == 1:
                out.append((m, n))
            n += 1
        m += 1
    out.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn[0], mn[1]))
    return out


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
