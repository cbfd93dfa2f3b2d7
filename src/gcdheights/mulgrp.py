"""Gcds on the multiplicative group and the S-unit trichotomy.

The objects here live on G_m x G_m: gcd(a^n - 1, b^n - 1) is the quantity
the BCZ and AR_RETURNS sweeps of ``experiments`` scan against exponential
bounds, ``cz_classify`` sorts pairs of S-units into the three cases of the
trichotomy, and ``divisibility_check`` tests m | n => t_m | t_n on any
integer sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, log

from .arith import EPS_SLACK, PrimeSet, _least_power_relation

__all__ = [
    "CzVerdict",
    "DivisibilityReport",
    "POWER_RELATION",
    "INEQUALITY_HOLDS",
    "EXCEPTIONAL",
    "gcd_pair",
    "s_unit_enumerate",
    "cz_classify",
    "divisibility_check",
]

LN2 = log(2)

POWER_RELATION = "POWER_RELATION"
INEQUALITY_HOLDS = "INEQUALITY_HOLDS"
EXCEPTIONAL = "EXCEPTIONAL"


# ----------------------------------------------------------------------------
# types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CzVerdict:
    """One of POWER_RELATION (with exponents), INEQUALITY_HOLDS, EXCEPTIONAL.

    ``gcd`` is the witness gcd(alpha - 1, beta - 1) of the classified pair.
    """

    kind: str
    m: int | None = None
    n: int | None = None
    gcd: int | None = None


@dataclass(frozen=True)
class DivisibilityReport:
    ok: bool
    counterexample: tuple[int, int] | None  # (m, n) with m | n but term_m not | term_n


# ----------------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------------

def gcd_pair(a: int, b: int, n: int) -> int:
    """gcd(a^n - 1, b^n - 1) for integers a, b >= 2 and n >= 1."""
    if a < 2 or b < 2:
        raise ValueError("gcd_pair requires a, b >= 2")
    if n < 1:
        raise ValueError("gcd_pair requires n >= 1")
    return gcd(a**n - 1, b**n - 1)


def s_unit_enumerate(S: PrimeSet, bound: int) -> list[int]:
    """All integers x with 2 <= |x| <= bound supported on S, ascending by |x|.

    Ties between x and -x list the negative first.  Empty S gives [].
    """
    vals: list[int] = []
    mags: set[int] = set()

    def grow(i: int, acc: int) -> None:
        if i == len(S.primes):
            if acc >= 2:
                mags.add(acc)
            return
        p = S.primes[i]
        while acc <= bound:
            grow(i + 1, acc)
            acc *= p
    if S.primes:
        grow(0, 1)
    for m in sorted(mags):
        vals.extend((-m, m))
    return vals


def _s_exponents(x: int, S: PrimeSet) -> dict[int, int]:
    """Exponent vector {p: ord_p(x) > 0} of an S-unit x over S.primes."""
    n = abs(x)
    vec = {}
    for p in S.primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            vec[p] = e
    if n != 1:
        raise ValueError("inputs must be S-units")
    return vec


def cz_classify(alpha: int, beta: int, S: PrimeSet, eps: float) -> CzVerdict:
    """Trichotomy for a pair of S-units with |alpha|, |beta| >= 2.

    POWER_RELATION(m, n) when alpha^m = beta^n for the least such (m, n) and
    max(m, n) <= ceil(1/eps); decided exactly from the exponent vectors over
    S and the signs, in O(|S|).  Otherwise INEQUALITY_HOLDS when
    gcd(alpha - 1, beta - 1) <= max(|alpha|, |beta|)^eps with 1e-9 log
    slack, else EXCEPTIONAL.  The verdict carries that gcd in every case.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if abs(alpha) < 2 or abs(beta) < 2:
        raise ValueError("inputs must have absolute value >= 2")
    rel = _least_power_relation(_s_exponents(alpha, S), _s_exponents(beta, S))
    g = gcd(abs(alpha - 1), abs(beta - 1))
    if rel is not None:
        m, n = rel
        # every |alpha|^m = |beta|^n is a multiple of (m, n); the signs agree
        # on all multiples or, when (alpha<0 and m odd) != (beta<0 and n odd),
        # on the even ones only
        if (alpha < 0 and m % 2 == 1) != (beta < 0 and n % 2 == 1):
            m, n = 2 * m, 2 * n
        # max(m, n) <= ceil(1/eps), and no OverflowError when 1/eps is inf
        if max(m, n) - 1 < 1 / eps:
            return CzVerdict(POWER_RELATION, m=m, n=n, gcd=g)
    if log(g) <= eps * max(log(abs(alpha)), log(abs(beta))) + EPS_SLACK:
        return CzVerdict(INEQUALITY_HOLDS, gcd=g)
    return CzVerdict(EXCEPTIONAL, gcd=g)


def divisibility_check(terms: list[int] | tuple[int, ...]) -> DivisibilityReport:
    """Verify m | n implies terms[m-1] | terms[n-1]; report first failure.

    Scans n ascending, then m ascending over proper divisors, so the reported
    counterexample is the earliest in that order.
    """
    for n in range(2, len(terms) + 1):
        for m in range(1, n):
            if n % m == 0 and terms[n - 1] % terms[m - 1] != 0:
                return DivisibilityReport(ok=False, counterexample=(m, n))
    return DivisibilityReport(ok=True, counterexample=None)
