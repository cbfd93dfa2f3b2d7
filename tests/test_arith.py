"""Valuations, heights, gcd heights, and budgeted factoring."""
from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd, isclose, log

import pytest

from gcdheights import (
    ARCH,
    EPS_SLACK,
    FactorBudget,
    Factorization,
    LogReal,
    PrimeSet,
    factor,
    hgcd,
    is_prime,
    mult_independent,
    ord_p,
    prime_to_S_part,
    v_plus,
    weil_height,
)
from gcdheights.arith import _least_power_relation

# Two Mersenne primes whose product no tiny budget can split.
M61 = 2**61 - 1
M89 = 2**89 - 1


# ----------------------------------------------------------------------------
# value types
# ----------------------------------------------------------------------------

def test_logreal_of_integer_carries_witness():
    r = LogReal.of_integer(720)
    assert r.exact_arg == 720
    assert isclose(r.value, log(720), rel_tol=0, abs_tol=1e-15)


def test_logreal_rejects_witness_mismatch():
    with pytest.raises(ValueError, match="disagrees"):
        LogReal(1.0, 5)


def test_logreal_rejects_nonpositive_witness():
    with pytest.raises(ValueError):
        LogReal.of_integer(0)
    with pytest.raises(ValueError):
        LogReal(0.0, 0)


def test_logreal_zero_is_log_of_one():
    assert LogReal(0.0, 1).exact_arg == 1


def test_primeset_sorts_and_dedups():
    s = PrimeSet((5, 2, 2, 3))
    assert s.primes == (2, 3, 5)


def test_primeset_rejects_composites():
    with pytest.raises(ValueError, match="not a prime"):
        PrimeSet((4,))


def test_factorization_reconstructs_value():
    f = Factorization(factors=((2, 3), (7, 1)), sign=-1, complete=True)
    assert f.value() == -56
    assert f.as_dict() == {2: 3, 7: 1}


# ----------------------------------------------------------------------------
# valuations
# ----------------------------------------------------------------------------

def test_ord_p_docstring_oracle():
    assert ord_p(F(5, 12), 2) == -2
    assert ord_p(F(5, 12), 3) == -1
    assert ord_p(F(5, 12), 5) == 1
    assert ord_p(F(5, 12), 7) == 0


def test_ord_p_integers():
    assert ord_p(48, 2) == 4
    assert ord_p(48, 3) == 1
    assert ord_p(-48, 2) == 4


def test_ord_p_rejects_zero_and_composite_place():
    with pytest.raises(ValueError, match="valuation of zero"):
        ord_p(0, 2)
    with pytest.raises(ValueError, match="not a prime"):
        ord_p(F(1, 2), 6)


def test_v_plus_finite_place_witness_is_prime_power():
    assert v_plus(8, 2).exact_arg == 8
    assert v_plus(F(5, 12), 2).exact_arg == 1  # negative ord clamps to 0
    assert v_plus(F(9, 4), 3).exact_arg == 9


def test_v_plus_archimedean():
    assert v_plus(5, ARCH).exact_arg == 1  # |5| >= 1: no proximity to 0
    assert v_plus(F(1, 3), ARCH).exact_arg == 3
    r = v_plus(F(2, 3), ARCH)  # ln(3/2) is not the log of an integer
    assert r.exact_arg is None
    assert isclose(r.value, log(F(3, 2)), rel_tol=1e-12)


def test_height_identity_sum_of_local_terms():
    # sum over all places of v+(x) = ln max(|num|, den), checked on smooth
    # rationals where the support is known a priori
    rng = random.Random(20240901)
    primes = (2, 3, 5, 7)
    for _ in range(200):
        x = F(rng.choice((1, -1)), 1)
        for p in primes:
            x *= F(p) ** rng.randint(-4, 4)
        total = sum(v_plus(x, p).value for p in primes) + v_plus(x, ARCH).value
        assert isclose(total, weil_height(x).value, rel_tol=0, abs_tol=1e-9)


def test_weil_height_conventions():
    assert weil_height(F(-7, 3)).exact_arg == 7
    assert weil_height(F(2, 9)).exact_arg == 9
    assert weil_height(1).exact_arg == 1
    assert weil_height(0).exact_arg == 1  # h(0) = 0 by convention


# ----------------------------------------------------------------------------
# gcd height
# ----------------------------------------------------------------------------

def test_hgcd_integers_witness_is_gcd():
    rng = random.Random(99)
    for _ in range(300):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if a == 0 and b == 0:
            continue
        assert hgcd(F(a), F(b)).exact_arg == gcd(a, b)


def test_hgcd_single_zero_degenerates_to_height():
    assert hgcd(F(0), F(60)).exact_arg == 60
    assert hgcd(F(60), F(0)).exact_arg == 60
    # rational partner: height value, witness only when it is ln(integer)
    r = hgcd(F(0), F(2, 3))
    assert isclose(r.value, weil_height(F(2, 3)).value, rel_tol=1e-12)


def test_hgcd_both_zero_rejected():
    with pytest.raises(ValueError, match="infinite gcd height"):
        hgcd(F(0), F(0))


def test_hgcd_rational_oracles():
    # gcd(num 3, num 9) = 3; both arguments stay >= 1 in absolute value at
    # the archimedean place only for 9/8 -- 3/4 contributes ln(4/3), but the
    # min with 0 kills it, so the witness survives
    assert hgcd(F(3, 4), F(9, 8)).exact_arg == 3
    # both arguments small: archimedean term min(ln 2, ln 3) = ln 2 is real
    r = hgcd(F(1, 2), F(1, 3))
    assert r.exact_arg is None
    assert isclose(r.value, log(2), rel_tol=1e-12)


def test_hgcd_symmetric_and_bounded_by_height():
    rng = random.Random(7)
    for _ in range(200):
        a = F(rng.randint(-99, 99), rng.randint(1, 99))
        b = F(rng.randint(-99, 99), rng.randint(1, 99))
        if a == 0 and b == 0:
            continue
        r1, r2 = hgcd(a, b), hgcd(b, a)
        assert isclose(r1.value, r2.value, rel_tol=0, abs_tol=1e-12)
        bound = min(weil_height(a).value, weil_height(b).value)
        if a != 0 and b != 0:
            assert r1.value <= bound + EPS_SLACK


def test_prime_to_S_part():
    S = PrimeSet((2, 3))
    assert prime_to_S_part(720, S) == 5
    assert prime_to_S_part(-96, S) == 1
    assert prime_to_S_part(7, PrimeSet(())) == 7
    with pytest.raises(ValueError):
        prime_to_S_part(0, S)


# ----------------------------------------------------------------------------
# primality and factoring
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("n,expect", [
    (0, False), (1, False), (2, True), (3, True), (4, False),
    (37, True), (389, True), (561, False),      # 561: Carmichael number
    (M61, True), (M61 + 2, False),
])
def test_is_prime_table(n, expect):
    assert is_prime(n) is expect


def test_factor_smooth_number():
    f = factor(-(2**10) * 3**5 * 7)
    assert f.sign == -1
    assert f.complete and f.cofactor == 1
    assert f.as_dict() == {2: 10, 3: 5, 7: 1}
    assert f.value() == -(2**10) * 3**5 * 7


def test_factor_semiprime_needs_rho():
    n = 1000003 * 1000033                     # both factors above the trial bound
    f = factor(n, FactorBudget(trial_bound=10**4, rho_iterations=10**6))
    assert f.complete
    assert f.as_dict() == {1000003: 1, 1000033: 1}


def test_factor_budget_exhaustion_is_honest():
    n = M61 * M89
    f = factor(n, FactorBudget(trial_bound=100, rho_iterations=50))
    assert not f.complete
    assert f.cofactor == n                    # nothing split, value still exact
    assert f.value() == n


def test_factor_one_and_zero():
    f = factor(1)
    assert f.factors == () and f.value() == 1
    with pytest.raises(ValueError):
        factor(0)


def test_mult_independent_basic():
    assert mult_independent(2, 3)
    assert mult_independent(12, 18)           # 2^2*3 vs 2*3^2: not proportional
    assert not mult_independent(4, 8)         # 4^3 = 8^2
    assert not mult_independent(2, 2)
    assert not mult_independent(27, 9)
    assert not mult_independent(8, 32)        # 8^5 = 32^3


def test_least_power_relation():
    assert _least_power_relation({2: 3}, {2: 5}) == (5, 3)
    assert _least_power_relation({2: 2, 3: 4}, {2: 1, 3: 2}) == (1, 2)
    assert _least_power_relation({2: 2, 3: 1}, {2: 1, 3: 2}) is None
    assert _least_power_relation({2: 1}, {2: 1, 3: 1}) is None
    assert _least_power_relation({2: 1, 5: 1}, {3: 1, 5: 1}) is None


def test_mult_independent_domain_and_budget():
    with pytest.raises(ValueError, match=">= 2"):
        mult_independent(1, 5)
    with pytest.raises(ValueError, match="undecidable"):
        mult_independent(M61 * M89, 2, FactorBudget(trial_bound=100, rho_iterations=50))
