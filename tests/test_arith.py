"""Heights, gcd heights, primality, and budgeted factoring."""
from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd, isclose, isqrt, log, prod

import pytest

from gcdheights import (
    EPS_SLACK,
    FactorBudget,
    Factorization,
    LogReal,
    PrimeSet,
    factor,
    hgcd,
    is_prime,
    mult_independent,
    prime_to_S_part,
    weil_height,
)
from gcdheights.arith import _strong_lucas

# Two Mersenne primes whose product no tiny budget can split.
M61 = 2**61 - 1
M89 = 2**89 - 1
# The least strong pseudoprimes to the first 12 and 13 prime bases.
PSI12 = 318665857834031151167461                # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981               # 1287836182261 * 2575672364521


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
    # a one-field namedtuple: equal to the plain tuple of its field, and an
    # iterator is read once, by __new__, before __init__ checks the primes
    assert PrimeSet(iter([3, 2, 3])) == ((2, 3),)
    with pytest.raises(ValueError, match="not a prime: 9"):
        PrimeSet(p for p in (2, 9))


def test_primeset_rejects_composites():
    with pytest.raises(ValueError, match="not a prime"):
        PrimeSet((4,))


def _value(f: Factorization) -> int:
    """sign * prod(p^e) * cofactor, the integer a Factorization stands for."""
    return f.sign * prod(p**e for p, e in f.factors) * f.cofactor


def test_factorization_reconstructs_value():
    f = Factorization(factors=((2, 3), (7, 1)), sign=-1, complete=True)
    assert _value(f) == -56
    assert dict(f.factors) == {2: 3, 7: 1}


# ----------------------------------------------------------------------------
# heights as sums of local terms
# ----------------------------------------------------------------------------

def _v_plus(x: F, place: int | None) -> float:
    """max(v(x), 0) at a prime place, or at the archimedean one (None), with v
    as in the arith module docstring; a float oracle, one place at a time."""
    if place is None:
        return max(-log(abs(x)), 0.0)
    e, n = 0, x.numerator  # a reduced x has ord_p > 0 only in its numerator
    while n % place == 0:
        n //= place
        e += 1
    return e * log(place)


def test_height_identity_sum_of_local_terms():
    # sum over all places of v+(x) = ln max(|num|, den), and of
    # min(v+(a), v+(b)) = hgcd(a, b), checked on smooth rationals where the
    # support is known a priori
    rng = random.Random(20240901)
    primes = (2, 3, 5, 7)
    places = (*primes, None)

    def smooth() -> F:
        x = F(rng.choice((1, -1)), 1)
        for p in primes:
            x *= F(p) ** rng.randint(-4, 4)
        return x

    for _ in range(200):
        x = smooth()
        total = sum(_v_plus(x, v) for v in places)
        assert isclose(total, weil_height(x).value, rel_tol=0, abs_tol=1e-9)
    for _ in range(200):
        a, b = smooth(), smooth()
        total = sum(min(_v_plus(a, v), _v_plus(b, v)) for v in places)
        assert isclose(total, hgcd(a, b).value, rel_tol=0, abs_tol=1e-9)


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
    (M61, True), (M61 + 2, False), (M89, True),
    (PSI12, False), (PSI13, False),             # strong pseudoprimes to all 12 bases
])
def test_is_prime_table(n, expect):
    assert is_prime(n) is expect


def test_is_prime_agrees_with_trial_division():
    sieve = [True] * 10**5
    sieve[0] = sieve[1] = False
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 10**5, p))
    assert [n for n in range(10**5) if is_prime(n) != sieve[n]] == []


def test_strong_lucas_pseudoprimes_are_the_known_ones():
    # below 20000 the strong Lucas test (Selfridge parameters) is fooled by
    # exactly these composites (OEIS A217255); it passes every odd prime
    def trial(n):
        return all(n % d for d in range(3, isqrt(n) + 1, 2))
    wrong = [n for n in range(3, 20000, 2) if _strong_lucas(n) != trial(n)]
    assert wrong == [5459, 5777, 10877, 16109, 18971]


def test_factor_splits_a_strong_pseudoprime():
    f = factor(PSI13)
    assert f.complete and f.cofactor == 1
    assert dict(f.factors) == {1287836182261: 1, 2575672364521: 1}


def test_factor_smooth_number():
    f = factor(-(2**10) * 3**5 * 7)
    assert f.sign == -1
    assert f.complete and f.cofactor == 1
    assert dict(f.factors) == {2: 10, 3: 5, 7: 1}
    assert _value(f) == -(2**10) * 3**5 * 7


def test_factor_semiprime_needs_rho():
    n = 1000003 * 1000033                     # both factors above the trial bound
    f = factor(n, FactorBudget(trial_bound=10**4, rho_iterations=10**6))
    assert f.complete
    assert dict(f.factors) == {1000003: 1, 1000033: 1}


def test_factor_budget_exhaustion_is_honest():
    n = M61 * M89
    f = factor(n, FactorBudget(trial_bound=100, rho_iterations=50))
    assert not f.complete
    assert f.cofactor == n                    # nothing split, value still exact
    assert _value(f) == n


def _trial_division(n: int) -> dict[int, int]:
    found, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            found[d], n = found.get(d, 0) + 1, n // d
        d += 1
    return {**found, n: 1} if n > 1 else found


def test_factor_by_rho_backtracks_on_small_semiprimes():
    # past 2, 3 and 5 only rho splits these; on so small an n the batched
    # product of |x - y| reaches 0 mod n, so rho backtracks one step at a
    # time, and where that too ends at n (143, 169, 217, ...) tries the next c
    primes = [p for p in range(7, 60) if all(p % q for q in range(2, p))]
    for n in {p * q for p in primes for q in primes}:
        f = factor(n, FactorBudget(trial_bound=2))
        assert f.complete and dict(f.factors) == _trial_division(n), n
    # a budget that runs out while backtracking leaves n whole
    f = factor(143, FactorBudget(trial_bound=2, rho_iterations=3))
    assert not f.complete and f.cofactor == 143 and f.factors == ()


def test_factor_one_and_zero():
    f = factor(1)
    assert f.factors == () and _value(f) == 1
    with pytest.raises(ValueError):
        factor(0)


def test_mult_independent_basic():
    assert mult_independent(2, 3)
    assert mult_independent(12, 18)           # 2^2*3 vs 2*3^2: not proportional
    assert not mult_independent(4, 8)         # 4^3 = 8^2
    assert not mult_independent(2, 2)
    assert not mult_independent(27, 9)
    assert not mult_independent(8, 32)        # 8^5 = 32^3


def _least_power_relation(
    da: dict[int, int], db: dict[int, int]
) -> tuple[int, int] | None:
    """Least (m, n) with m*da = n*db, or None when the vectors are not proportional;
    the oracle of mult_independent.

    da and db are nonempty exponent vectors {prime: exponent > 0}; for the
    positive integers they describe this decides |a|^m = |b|^n.  Every
    solution is a multiple of the least one, which the first prime fixes.
    """
    if da.keys() != db.keys():
        return None
    p0 = min(da)
    e0, f0 = da[p0], db[p0]
    if any(da[p] * f0 != db[p] * e0 for p in da):
        return None
    g = gcd(e0, f0)
    return f0 // g, e0 // g


def test_least_power_relation():
    assert _least_power_relation({2: 3}, {2: 5}) == (5, 3)
    assert _least_power_relation({2: 2, 3: 4}, {2: 1, 3: 2}) == (1, 2)
    assert _least_power_relation({2: 2, 3: 1}, {2: 1, 3: 2}) is None
    assert _least_power_relation({2: 1}, {2: 1, 3: 1}) is None
    assert _least_power_relation({2: 1, 5: 1}, {3: 1, 5: 1}) is None


def test_mult_independent_domain_and_budget():
    with pytest.raises(ValueError, match=">= 2"):
        mult_independent(1, 5)
    # decided without factoring, so hard-to-factor and 400-digit inputs are quick
    assert mult_independent(M61 * M89, 2)
    assert mult_independent(10**399 + 7, 3)
    assert not mult_independent(M61 ** 6, M61 ** 4)


def test_mult_independent_agrees_with_factoring():
    rng = random.Random(11)
    for _ in range(2000):
        if rng.random() < 0.5:  # powers of one base, sometimes spoiled
            c = rng.randint(2, 40)
            a = c ** rng.randint(1, 9)
            b = c ** rng.randint(1, 9) * rng.choice([1, 1, 2, 3])
        else:
            a, b = rng.randint(2, 10**5), rng.randint(2, 10**5)
        want = _least_power_relation(dict(factor(a).factors), dict(factor(b).factors)) is None
        assert mult_independent(a, b) == want, (a, b)
